"""Spans around the public functions of toricode's six modules.

`Tracer.install()` wraps every public function of `field`, `polygon`,
`decomp`, `code`, `bounds` and `cli` in each namespace it is looked up
from: its own module, every module that imported it by name, and
module-level dicts that hold it (such as `cli._COMMANDS`).  Each call
records one span (name, parent span, operation, start, end) in flat
arrays kept in memory; `save` writes them out when the run ends.  Self
time, counts and the counters read from return values are derived from
the spans afterwards.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("field", "polygon", "decomp", "code", "bounds", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.current_op = -1
        # counters read from return values, per span id
        self.messages = array("q")
        self.symbols = array("q")
        self.exhaustive = array("b")

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.name.append(self.name_id(name))
        self.op.append(self.current_op)
        self.messages.append(0)
        self.symbols.append(0)
        self.exhaustive.append(-1)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.t1[sid] = perf_counter()
            self._stack.pop()
        self._read(name, sid, out, args)
        return out

    def _read(self, name, sid, out, args):
        if name == "code.min_distance_exact":
            self.messages[sid] = out.enumerated
            self.symbols[sid] = out.enumerated * args[0].n
        elif name == "code.weight_distribution":
            code = args[0]
            covered = (sum(out.values()) - 1) // (code.field.q - 1)
            self.messages[sid] = covered
            self.symbols[sid] = covered * code.n
        elif name == "decomp.subpolygon_decomposition_search":
            self.exhaustive[sid] = int(out.exhaustive)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Replace every public function by its traced wrapper, everywhere it is looked up."""
        mods = {m: importlib.import_module(f"toricode.{m}") for m in MODULES}
        mods["toricode"] = importlib.import_module("toricode")
        wrapped = {}
        for short in MODULES:
            mod = mods[short]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrapper(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]

    def mark(self) -> int:
        return len(self.t0)

    def summary(self, start: int, stop: int) -> dict:
        """Per-name calls, self and total time, plus counters, over spans [start, stop)."""
        parent = np.frombuffer(self.parent, dtype=np.int64)[start:stop]
        name = np.frombuffer(self.name, dtype=np.int64)[start:stop]
        dur = np.frombuffer(self.t1)[start:stop] - np.frombuffer(self.t0)[start:stop]
        inside = parent >= start
        child = np.bincount(parent[inside] - start, weights=dur[inside], minlength=len(dur))
        self_s = dur - child
        nn = len(self.names)
        calls = np.bincount(name, minlength=nn)
        selfs = np.bincount(name, weights=self_s, minlength=nn)
        totals = np.bincount(name, weights=dur, minlength=nn)
        exh = np.frombuffer(self.exhaustive, dtype=np.int8)[start:stop]
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(selfs[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(totals[i]) for i, n in enumerate(self.names)},
            "messages": int(np.frombuffer(self.messages, dtype=np.int64)[start:stop].sum()),
            "symbols": int(np.frombuffer(self.symbols, dtype=np.int64)[start:stop].sum()),
            "exhaustive": int((exh == 1).sum()),
        }

    def save(self, path: str):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
            messages=np.frombuffer(self.messages, dtype=np.int64),
            exhaustive=np.frombuffer(self.exhaustive, dtype=np.int8),
        )
