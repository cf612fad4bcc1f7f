"""Enumeration kernels behind the bracket and rank-polynomial sums.

Each kernel sweeps an exponential index space and records small integer
statistics per index; the exact polynomial assembly happens afterwards in
ordinary Python integers.  Indices are processed a chunk at a time with
numpy array operations: a chunk holds every combination of the low bits
under one fixed setting of the high bits, with one row per index.

Both sweeps reduce to counting the cycles of a batch of permutations, one
per row, which _cycle_counts does by min-label pointer doubling.  Every
temporary holds at most about CHUNK_ELEMS int32 values, whatever the size
of the sweep.
"""

from __future__ import annotations

import numpy as np

# Elements per temporary array of one chunk (int32, so 128 KiB each).
CHUNK_ELEMS = 1 << 15


def _permutation_chunks(n_bits, bit_of, off, on, width):
    """Chunks of the permutations P_i(x) = on[x] if bit bit_of[x] of i is
    set, else off[x], for every i < 2^n_bits.

    Yields (first, n_low, perm): perm is flat with one row per index
    first .. first + 2^n_low - 1, and maps each row into itself by flat
    index.  Chunks are sized for rows of `width` elements.
    """
    fit = (CHUNK_ELEMS // max(width, 1)).bit_length() - 1
    n_low = max(0, min(n_bits, fit))
    rows = np.arange(1 << n_low, dtype=np.int32)[:, None]
    template = np.where((rows >> bit_of) & 1, on, off) + rows * len(bit_of)
    step = on - off
    for first in range(0, 1 << n_bits, 1 << n_low):
        perm = template
        if first:  # bits at and above n_low, the same in every row
            perm = template + ((np.int64(first) >> bit_of) & 1).astype(np.int32) * step
        yield first, n_low, perm.ravel()


def _cycle_counts(perm: np.ndarray, n_rows: int, max_cycle: int) -> np.ndarray:
    """Cycle count of each row of a batch of permutations.

    `perm` is flat: it holds `n_rows` equal rows back to back, and each
    row maps into its own positions by flat index.  No cycle is longer than
    `max_cycle`.  After r rounds label[x] is the least flat index among
    the first 2^r points of x's orbit, so once 2^r covers the longest cycle
    exactly one point per cycle, its least, keeps its own index.  Indices
    are in range by construction; mode="wrap" only skips numpy's check.
    """
    own = np.arange(perm.size, dtype=np.int32)
    label = own.copy()
    ptr = perm
    rounds = (max_cycle - 1).bit_length()
    for r in range(rounds):
        np.minimum(label, label.take(ptr, mode="wrap"), out=label)
        if r + 1 < rounds:
            ptr = ptr.take(ptr, mode="wrap")
    return (label == own).reshape(n_rows, -1).sum(axis=1, dtype=np.int16)


def state_delta_sweep(n_crossings, arc_mate):
    """Closed curves of every splitting state, free loops excluded.

    arc_mate: int32[4n], arc_mate[p] = port joined to p by an arc, over
    port ids 4c+p.  State bit c set = B-splitting at crossing c.  A joins
    ports {0,1} and {2,3} of a crossing (partner = port ^ 1), B joins
    {0,3} and {1,2} (partner = port ^ 3).  Each curve through 2L ports
    splits into two L-cycles of arc_mate o connector, so curves are half
    its cycles.  Returns int16[2^n], indexed by state.
    """
    n = int(n_crossings)
    arc_mate = np.asarray(arc_mate, dtype=np.int32)
    ports = np.arange(arc_mate.shape[0], dtype=np.int32)
    out = np.empty(1 << n, dtype=np.int16)
    chunks = _permutation_chunks(
        n, ports >> 2, arc_mate[ports ^ 1], arc_mate[ports ^ 3], ports.shape[0]
    )
    for first, n_low, perm in chunks:
        out[first:first + (1 << n_low)] = _cycle_counts(perm, 1 << n_low, 2 * n) // 2
    return out


def subgraph_sweep(n_verts, n_edges, vert_off, vert_darts, edge_u, edge_w,
                   edge_of_dart, partner):
    """Components k and boundary components bc of every spanning subgraph.

    vert_darts: dart ids grouped by vertex in rotation order, delimited by
    vert_off; edge_u/edge_w: endpoint vertex of each edge's two darts;
    partner: the other dart of a dart's edge.  Returns (k, bc) as
    int16[2^e] each, indexed by edge subset.

    bc(F) = cycles(psi_F) + vertices with no darts, where psi_F(x) is
    rot(partner(x)) when x's edge is in F and rot(x) otherwise: orbits
    step over darts outside F, and a vertex none of whose darts is in F
    keeps the one orbit of its rotation.  k comes from vertex labels that
    double over a chunk's low edges: the labels of mask | 1<<j are those
    of mask with the class of edge_u[j] merged into that of edge_w[j],
    starting from a union-find over the chunk's fixed high edges.
    """
    v = int(n_verts)
    e = int(n_edges)
    vert_off = np.asarray(vert_off, dtype=np.int32)
    vert_darts = np.asarray(vert_darts, dtype=np.int32)
    edge_of_dart = np.asarray(edge_of_dart, dtype=np.int32)
    partner = np.asarray(partner, dtype=np.int32)
    n_darts = vert_darts.shape[0]
    degree = vert_off[1:] - vert_off[:-1]
    bare = int(np.count_nonzero(degree == 0))
    # rot: next dart counterclockwise at the same vertex.
    pos = np.arange(n_darts, dtype=np.int32)
    start = np.repeat(vert_off[:-1], degree)
    rot = np.empty(n_darts, dtype=np.int32)
    rot[vert_darts] = vert_darts[start + (pos - start + 1) % np.repeat(degree, degree)]
    k_out = np.empty(1 << e, dtype=np.int16)
    bc_out = np.empty(1 << e, dtype=np.int16)
    vertex_ids = np.arange(v, dtype=np.int32)
    chunks = _permutation_chunks(e, edge_of_dart, rot, rot[partner], max(n_darts, v))
    for first, n_low, perm in chunks:
        done = slice(first, first + (1 << n_low))
        bc_out[done] = _cycle_counts(perm, 1 << n_low, n_darts) + bare
        labels = _high_edge_labels(v, edge_u, edge_w, first)
        for low in range(n_low):
            merged = np.where(labels == labels[:, edge_u[low], None],
                              labels[:, edge_w[low], None], labels)
            labels = np.concatenate((labels, merged))
        k_out[done] = (labels == vertex_ids).sum(axis=1)
    return k_out, bc_out


def _high_edge_labels(n_verts, edge_u, edge_w, mask):
    """int32[1, v]: each vertex labelled by a root vertex of its component
    in the subgraph of the edges set in `mask`."""
    parent = list(range(n_verts))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ei in range(mask.bit_length()):
        if (mask >> ei) & 1:
            parent[find(int(edge_u[ei]))] = find(int(edge_w[ei]))
    return np.array([[find(i) for i in range(n_verts)]], dtype=np.int32)


def popcounts(n_masks: int) -> np.ndarray:
    """Bit counts of 0 .. n_masks-1 as an int64 array."""
    return np.bitwise_count(np.arange(n_masks, dtype=np.uint64)).astype(np.int64)
