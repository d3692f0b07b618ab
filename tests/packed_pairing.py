"""Pairing kernels over bit-packed zero masks, kept as the oracle of bounds._pairing.

Each candidate's torus zeros are one mask packed 64 points to a uint64
word.  The exact search ORs the masks of every candidate tuple and
counts the set bits of the union; the greedy search scores every
candidate of the next part against each row's union the same way.
"""

import numpy as np


def packed(mask):
    """A boolean mask as uint64 words, zero padded."""
    row = np.zeros(-(-mask.size // 64) * 8, dtype=np.uint8)
    row[: -(-mask.size // 8)] = np.packbits(mask)
    return row.view(np.uint64)


def union_counts(masks, picks):
    """Torus zeros of the union of masks[p][pick[p]], one count per row of picks."""
    union = masks[0][picks[:, 0]]
    for part in range(1, picks.shape[1]):
        union |= masks[part][picks[:, part]]
    return np.bitwise_count(union).sum(axis=1)


def exact_counts(masks, pairing_bytes):
    """Every candidate tuple in itertools.product order with its union count.

    Unions are counted in chunks of rows of at most `pairing_bytes`.
    """
    sizes = [len(m) for m in masks]
    picks = np.indices(sizes).reshape(len(sizes), -1).T
    rows = max(1, pairing_bytes // masks[0][0].nbytes)
    counts = np.concatenate(
        [union_counts(masks, picks[i : i + rows]) for i in range(0, len(picks), rows)]
    )
    return picks, counts


def greedy_picks(masks, pairing_bytes):
    """Greedy accumulation from every choice of the first factor at once.

    Row f starts from candidate f of the first part, then takes from
    each further part the candidate adding the most zeros to the row's
    union, the first of equal gains.  Gains are counted in chunks of
    rows of at most `pairing_bytes`.  Returns the picks, one row per
    first factor, and the zero count of each row's union.
    """
    union = masks[0].copy()
    picks = [np.arange(len(union))]
    for part in masks[1:]:
        rows = max(1, pairing_bytes // part.nbytes)
        idx = np.concatenate([
            np.bitwise_count(union[i : i + rows, None, :] | part[None]).sum(axis=2).argmax(axis=1)
            for i in range(0, len(union), rows)
        ])
        picks.append(idx)
        union |= part[idx]
    return np.stack(picks, axis=1), np.bitwise_count(union).sum(axis=1)
