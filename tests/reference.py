"""The brute-force reference rows, from the numpy sweeps in vkbr._kernels.

The frontier contraction, the route every command takes, is checked
against these rows, and the sweeps against the per-index traces
split_stats and subgraph_stats.  The sweeps are called through the
module, as _kernels.state_delta_sweep, so that a test which patches
vkbr._kernels sees every call.
"""

import numpy as np

from vkbr import _kernels
from vkbr.limits import check_memory

# Bytes a sweep holds per index at its peak: its int16 outputs, and the
# int64 mask, popcount and histogram key arrays with their temporaries.
SWEEP_BYTES_PER_INDEX = 48


def check_sweep_memory(n_bits: int, what: str) -> None:
    """Raise SizeLimitError when a sweep over 2^n_bits indices would need
    more bytes than there is memory, before it allocates them."""
    check_memory(SWEEP_BYTES_PER_INDEX << n_bits, what)


def histogram(*columns):
    """The distinct rows of equal-length integer columns, with their counts.

    Yields (row, count) with row a tuple of ints, in increasing order of
    rows.  Each column becomes one mixed-radix digit, offset by its least
    value, so the count array spans only the product of the columns'
    ranges, however large their values.
    """
    lows = [int(col.min()) for col in columns]
    spans = [int(col.max()) - low + 1 for col, low in zip(columns, lows)]
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, low, span in zip(columns, lows, spans):
        key = key * span + (col.astype(np.int64) - low)
    counts = np.bincount(key)
    for flat in np.flatnonzero(counts):
        row = []
        rest = int(flat)
        for low, span in zip(reversed(lows), reversed(spans)):
            rest, digit = divmod(rest, span)
            row.append(low + digit)
        yield tuple(reversed(row)), int(counts[flat])


def diagram_sweep_rows(mate):
    """The ((alpha, curves), count) rows of diagram._frontier_rows, from
    the state sweep of the same arc pairing."""
    n = len(mate) // 4
    check_sweep_memory(n, f"state sweep of a {n}-crossing diagram")
    masks = np.arange(1 << n, dtype=np.int64)
    return list(histogram(np.bitwise_count(masks), _kernels.state_delta_sweep(n, mate)))


def graph_sweep_rows(g, neg):
    """The ((e(F), e-(F), k(F), bc(F)), count) rows of
    ribbon._frontier_rows, from the subgraph sweep of the same site
    table, which leaves out dart-less vertices too."""
    e = g.edge_count
    check_sweep_memory(e, f"subgraph sweep of a {e}-edge ribbon graph")
    k_arr, bc_arr = _kernels.subgraph_sweep(g._sites, e)
    masks = np.arange(1 << e, dtype=np.int64)
    return list(histogram(np.bitwise_count(masks), np.bitwise_count(masks & neg), k_arr, bc_arr))
