"""Decompositions of a polygon itself, shared by the decomposition tests."""

from toricode.decomp import (
    DEFAULT_BUDGET,
    _Budget,
    _EdgeEngine,
    _make_decomposition,
    _parts_key,
)
from toricode.errors import DegeneratePolygon


def max_parts(poly, budget=DEFAULT_BUDGET):
    """Maximum number of summands in any decomposition of the polygon."""
    return _EdgeEngine(poly, _Budget(budget)).max_parts()


def factor_polygon(poly, max_count=None, budget=DEFAULT_BUDGET, min_count=1):
    """Every decomposition of the polygon itself, largest part count first.

    Decompositions are deduplicated up to summand reordering and
    translation; max_count caps the number of summands when given.
    """
    if poly.dim == 0:
        raise DegeneratePolygon("a single point has no decompositions")
    engine = _EdgeEngine(poly, _Budget(budget))
    decs = [
        _make_decomposition(poly, poly, engine.dirs, groups)
        for groups in engine.partitions(
            min_count, sum(engine.total) if max_count is None else max_count
        )
    ]
    decs.sort(key=lambda d: (-len(d.parts), _parts_key(d.parts)))
    return decs
