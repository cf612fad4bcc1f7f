"""The two routes to the bracket and rank-polynomial sums.

Both routes read the same input: an arc pairing over port ids and a list
of sites, four ports each, where a site is a crossing or an edge and
choosing it switches which pairs of its ports are joined.  The closed
loops of arcs and joins are a state's curves or a subgraph's boundary
components.

frontier_histogram computes both sums, and the graph side of the bracket
identity at its own point: it contracts the sites one at a time, in a
greedy order it picks itself, with a table whose size depends on the
width of the frontier rather than on the number of states or subgraphs.
It needs nothing but Python integers.

The sweeps are the brute-force reference it is checked against.  They go
through the exponential index space and record small integer statistics
per index; histogram counts the distinct rows of those statistics, and
the exact polynomial assembly happens afterwards in ordinary Python
integers.  Indices are processed a chunk at a time with numpy array
operations: a chunk holds every combination of the low bits under one
fixed setting of the high bits, with one row per index.  Both sweeps
count loops by one rule, _chunk_loop_counts: loops are half the cycles of
port -> arc_mate[join(port)], counted for a batch of joins, one per row,
by min-label pointer doubling.  Every work array holds at most about
CHUNK_ELEMS values, whatever the size of the sweep.  numpy is imported
only when a sweep runs, so a process that never calls one never loads it.
"""

from __future__ import annotations

from heapq import heappop, heappush

# Elements per work array of one chunk (128 KiB as int32, 256 KiB as intp).
CHUNK_ELEMS = 1 << 15

# How a site joins its ports 0..3, as partner tables indexed by whether
# the site is chosen: unchosen joins {0,1} and {2,3}, chosen {0,3} and {1,2}.
_JOINS = ((1, 0, 3, 2), (3, 2, 1, 0))


def _chunk_loop_counts(arc_mate, site_ports, row_elems=0):
    """Closed loops of every way of choosing sites, a chunk of choices at
    a time.

    The sites are those of frontier_histogram: site s lists four ports,
    and choice i joins them by _JOINS[1] when bit s of i is set, else by
    _JOINS[0].  A loop through 2L ports splits into two L-cycles of the
    permutation P_i(x) = arc_mate[join_i(x)], one through every other
    port each way round, so loops are half its cycles.  When every arc
    and every join pairs an even port id with an odd one, as in every
    ribbon graph's table and every alternating diagram, a loop's ports
    alternate in parity and one of its two cycles holds its even ports:
    then P_i runs on the even ports alone, each cycle a loop, at half the
    work.  Port ids must be 0 .. 4n-1.

    Yields (first, n_low, loops): loops[j] counts the loops of choice
    first + j for j < 2^n_low, as int16.  Chunks are sized for rows of
    one element per port P_i runs on, or of `row_elems` if that is more.

    A chunk stacks its permutations as the rows of one flat permutation,
    each row mapping into its own positions.  After r rounds label[x] is
    the least flat index among the first 2^r points of x's orbit, so once
    2^r covers the longest cycle exactly one point per cycle, its least,
    keeps its own index.  The work arrays are allocated once per sweep and
    reused by every chunk, and the pointers are intp so that take() makes
    no index copy: with fresh arrays per chunk the sweep's speed depended
    on whether earlier allocations had left the C allocator returning
    freed memory to the system.  Indices are in range by construction;
    mode="wrap" only skips numpy's check.
    """
    import numpy as np

    n = len(site_ports)
    sites = np.asarray(site_ports, dtype=np.intp).reshape(n, 4)
    mate = np.asarray(arc_mate, dtype=np.intp)
    ports = sites.ravel()
    partners = [sites[:, list(join)].ravel() for join in _JOINS]
    bit_of, off, on = (np.empty(4 * n, dtype=np.intp) for _ in range(3))
    bit_of[ports] = np.arange(4 * n) >> 2
    off[ports], on[ports] = (mate[partner] for partner in partners)
    cycles_per_loop = 2
    if all(((ports ^ other) & 1).all() for other in (mate[ports], *partners)):
        bit_of, off, on, cycles_per_loop = bit_of[::2], off[::2] >> 1, on[::2] >> 1, 1
    fit = (CHUNK_ELEMS // max(len(bit_of), row_elems, 1)).bit_length() - 1
    n_low = max(0, min(n, fit))
    rows = np.arange(1 << n_low, dtype=np.intp)[:, None]
    template = np.where((rows >> bit_of) & 1, on, off) + rows * len(bit_of)
    step = on - off
    own = np.arange(template.size, dtype=np.int32)
    label, gathered = np.empty_like(own), np.empty_like(own)
    shifted, *ptr_bufs = (np.empty(template.shape, dtype=np.intp) for _ in range(3))
    rounds = (2 * n - 1).bit_length()  # a cycle has at most 2n points
    for first in range(0, 1 << n, 1 << n_low):
        perm = template
        if first:  # bits at and above n_low, the same in every row
            perm = np.add(template, ((np.int64(first) >> bit_of) & 1) * step, out=shifted)
        ptr = perm.ravel()
        np.copyto(label, own)
        for r in range(rounds):
            np.take(label, ptr, out=gathered, mode="wrap")
            np.minimum(label, gathered, out=label)
            if r + 1 < rounds:
                ptr = np.take(ptr, ptr, out=ptr_bufs[r % 2].ravel(), mode="wrap")
        cycles = (label == own).reshape(1 << n_low, -1).sum(axis=1, dtype=np.int16)
        yield first, n_low, cycles // cycles_per_loop


def state_delta_sweep(n_crossings, arc_mate):
    """Closed curves of every splitting state, free loops excluded.

    arc_mate: the arc pairing over port ids 4c+p.  State bit c set =
    B-splitting at crossing c.  Crossing c is the site of its ports
    4c .. 4c+3 in order, so _JOINS[0] is the A-splitting, which joins
    ports {0,1} and {2,3}, and _JOINS[1] the B-splitting, {0,3} and
    {1,2}.  Returns int16[2^n], indexed by state.
    """
    import numpy as np

    n = int(n_crossings)
    out = np.empty(1 << n, dtype=np.int16)
    for first, n_low, loops in _chunk_loop_counts(arc_mate, np.arange(4 * n).reshape(n, 4)):
        out[first:first + (1 << n_low)] = loops
    return out


def subgraph_sweep(sites, n_edges):
    """Components k and boundary components bc of every spanning subgraph.

    sites: a ribbon graph's site table (arc_mate, site_ports, site_verts),
    the one frontier_histogram reads, with edge s as site s; bit s of a
    subset set picks the site's chosen join.  bc counts the loops, as in
    state_delta_sweep.  k counts the classes of the vertices that some
    site touches, from vertex labels that double over a chunk's low
    edges: the labels of mask | 1<<j are those of mask with the class of
    one end of edge j merged into that of the other, starting from a
    union-find over the chunk's fixed high edges.  A dart-less vertex
    touches no site; it would add one to k and to bc of every subgraph,
    which the caller adds in ordinary integers, so the outputs stay small.
    Returns (k, bc) as int16[2^e] each, indexed by edge subset.
    """
    import numpy as np

    arc_mate, site_ports, site_verts = sites
    e = int(n_edges)
    ends = np.asarray(site_verts, dtype=np.intp).reshape(e, 2)
    touched = np.unique(ends)
    v = int(ends.max(initial=-1)) + 1
    k_out = np.empty(1 << e, dtype=np.int16)
    bc_out = np.empty(1 << e, dtype=np.int16)
    for first, n_low, loops in _chunk_loop_counts(arc_mate, site_ports, v):
        done = slice(first, first + (1 << n_low))
        bc_out[done] = loops
        labels = _high_edge_labels(v, ends, first)
        for u, w in ends[:n_low]:
            merged = np.where(labels == labels[:, u, None], labels[:, w, None], labels)
            labels = np.concatenate((labels, merged))
        k_out[done] = (labels[:, touched] == touched).sum(axis=1)
    return k_out, bc_out


def _high_edge_labels(n_verts, ends, mask):
    """int32[1, v]: each vertex labelled by a root vertex of its component
    in the subgraph of the edges set in `mask`."""
    import numpy as np

    parent = list(range(n_verts))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ei in range(mask.bit_length()):
        if (mask >> ei) & 1:
            parent[find(int(ends[ei, 0]))] = find(int(ends[ei, 1]))
    return np.array([[find(i) for i in range(n_verts)]], dtype=np.int32)


def histogram(*columns):
    """The distinct rows of equal-length integer columns, with their counts.

    Yields (row, count) with row a tuple of ints, in increasing order of
    rows.  Each column becomes one mixed-radix digit, offset by its least
    value, so the count array spans only the product of the columns'
    ranges, however large their values.
    """
    import numpy as np

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


# -- frontier contraction -------------------------------------------------

# What the arc at a site's port reaches: a port that is not yet processed,
# another port of the same site, or an open port of the processed set.
_FRESH, _SELF, _OPEN = range(3)


def frontier_histogram(arc_mate, site_ports, site_shift, site_verts=()):
    """The rows (shift, components, loops) of every way of choosing sites,
    with their counts, in increasing order of rows.

    A site is four ports; arc_mate pairs every port with another.  A
    chosen site joins its ports {0,3} and {1,2}, an unchosen one {0,1} and
    {2,3}; loops counts the closed cycles of arcs and joins.  shift sums
    site_shift[s] over the chosen sites s, integers the caller picks: one
    each counts the chosen sites, and a caller that needs more than one
    count packs them into mixed-radix units and decodes the sums itself.
    With site_verts, site s also joins vertices site_verts[s] when chosen,
    and components counts the classes of the vertices that any site
    touches; without it, components is 0.

    The sites are taken in the order of _frontier_order.  The table maps
    (pairing of the open ports, partition of the open vertices) to counts
    of the rows so far, where a port is open when its site is processed
    and its arc's other end is not, and a vertex is open when some of its
    sites are processed and some are not.  Each row is one mixed-radix
    integer, so adding a site shifts a whole count table by one offset.
    """
    n = len(site_ports)
    site_of = _site_of(site_ports)
    order = _frontier_order(arc_mate, site_ports, site_of)
    left = _vertex_degrees(site_verts)
    unit_comp = 2 * n + 1  # loops <= joins
    unit_shift = unit_comp * (len(left) + 1)
    open_ports, open_verts = [], []
    table = {((), ()): {0: 1}}
    for s in order:
        open_ports, port_step = _port_step(arc_mate, site_of, s, site_ports[s], open_ports)
        ends = site_verts[s] if site_verts else ()
        for vert in ends:
            left[vert] -= 1
        open_verts, vert_step = _vert_step(open_verts, ends, left)
        port_next = {pair: tuple(port_step(pair, join) for join in _JOINS)
                     for pair in {pair for pair, _ in table}}
        vert_next = {blocks: (vert_step(blocks, False), vert_step(blocks, True))
                     for blocks in {blocks for _, blocks in table}}
        on = site_shift[s] * unit_shift
        grown = {}
        for (pair, blocks), counts in table.items():
            ports_after = port_next[pair]
            verts_after = vert_next[blocks]
            for chosen in (1, 0):
                new_pair, loops = ports_after[chosen]
                new_blocks, comps = verts_after[chosen]
                shift = loops + comps * unit_comp + (on if chosen else 0)
                key = new_pair, new_blocks
                target = grown.get(key)
                if target is None:
                    # The unchosen branch is the last to read counts, so
                    # with no shift it takes the dict itself.
                    grown[key] = (counts if not (chosen or shift) else
                                  {row + shift: c for row, c in counts.items()})
                else:
                    for row, c in counts.items():
                        row += shift
                        target[row] = target.get(row, 0) + c
        table = grown
    (counts,) = table.values()
    rows = []
    for row in sorted(counts):
        shift, rest = divmod(row, unit_shift)  # floors, so a negative shift decodes too
        rows.append(((shift, *divmod(rest, unit_comp)), counts[row]))
    return rows


def _site_of(site_ports):
    return {p: s for s, ports in enumerate(site_ports) for p in ports}


def _frontier_order(arc_mate, site_ports, site_of):
    """The greedy site order: next comes the unprocessed site with the
    most arcs into the processed set, ties going to the lowest index.

    A heap holds (-arcs in, site) entries, one pushed each time a site's
    count grows.  A site's newest entry comes off before its older ones,
    so an entry is stale exactly when its site is done.
    """
    n = len(site_ports)
    into = [0] * n
    done = [False] * n
    heap = [(0, s) for s in range(n)]  # sorted, so already a heap
    order = []
    while heap:
        _, s = heappop(heap)
        if done[s]:
            continue
        done[s] = True
        order.append(s)
        for p in site_ports[s]:
            t = site_of[arc_mate[p]]
            if not done[t]:
                into[t] += 1
                heappush(heap, (-into[t], t))
    return order


def _port_step(arc_mate, site_of, s, ports, open_ports):
    """Open ports after site s, and the step of one pairing of the open
    ports before it: step(pairing, join) = (pairing after, loops closed).

    A pairing lists, by position in the open ports, its partner's
    position.  The ports before that stay open keep their order, and the
    site's ports whose arcs leave the processed set follow.
    """
    at = {p: i for i, p in enumerate(open_ports)}
    attached = {}  # open position -> the site's port its arc reaches
    kind, where, fresh = [], [], []
    for q, p in enumerate(ports):
        m = int(arc_mate[p])
        if site_of[m] == s:
            kind.append(_SELF)
            where.append(ports.index(m))
        elif m in at:
            kind.append(_OPEN)
            where.append(at[m])
            attached[at[m]] = q
        else:
            kind.append(_FRESH)
            where.append(None)
            fresh.append(q)
    kept = [i for i in range(len(open_ports)) if i not in attached]
    moved = [None] * len(open_ports)  # open position -> position after, None if attached
    for j, i in enumerate(kept):
        moved[i] = j
    for j, q in enumerate(fresh, len(kept)):
        where[q] = j
    entries = list(attached.items())
    tail = [None] * len(fresh)

    def walk(x, pair, join, seen):
        """Enter the site at port x and follow the path: the open position
        where it ends, or None when it closes up at x."""
        start = x
        while True:
            y = join[x]
            seen[x] = seen[y] = True
            if kind[y] == _FRESH:
                return where[y]
            if kind[y] == _SELF:
                x = where[y]
            else:
                j = pair[where[y]]
                if moved[j] is not None:
                    return moved[j]
                x = attached[j]
            if x == start:
                return None

    def step(pair, join):
        # A kept position keeps its partner's new position, unless the
        # partner is attached to the site: then a path through the site
        # joins it to its other end, as it does the site's fresh ports.
        new = [moved[pair[i]] for i in kept] + tail
        seen = [False] * 4
        for a, q in entries:
            i = moved[pair[a]]
            if i is not None and not seen[q]:
                end = walk(q, pair, join, seen)
                new[i], new[end] = end, i
        for q in fresh:
            if not seen[q]:
                i = where[q]
                end = walk(q, pair, join, seen)
                new[i], new[end] = end, i
        loops = 0
        for q in range(4):
            if not seen[q]:
                walk(q, pair, join, seen)
                loops += 1
        return tuple(new), loops

    return [open_ports[i] for i in kept] + [ports[q] for q in fresh], step


def _vert_step(open_verts, ends, left):
    """Open vertices after a site with end vertices `ends`, and the step of
    one partition of the open vertices before it:
    step(blocks, chosen) = (blocks after, classes closed).

    A partition labels each open vertex, in order, by its class, classes
    numbered in order of first appearance.  `left` counts the sites still
    to come at each vertex.
    """
    grown = open_verts + [v for v in dict.fromkeys(ends) if v not in open_verts]
    stay = [i for i, v in enumerate(grown) if left[v]]
    ends_at = [grown.index(v) for v in ends]
    fresh_labels = tuple(range(len(open_verts), len(grown)))

    def step(blocks, chosen):
        labels = blocks + fresh_labels
        if chosen and ends_at:
            a, b = (labels[i] for i in ends_at)
            labels = tuple(a if label == b else label for label in labels)
        staying = {labels[i] for i in stay}
        closed = len(set(labels) - staying)
        names = {}
        return tuple(names.setdefault(labels[i], len(names)) for i in stay), closed

    return [grown[i] for i in stay], step


def _vertex_degrees(site_verts):
    """Site ends at each vertex; a site with both ends at one vertex counts twice."""
    degrees = [0] * (1 + max((max(ends) for ends in site_verts), default=-1))
    for ends in site_verts:
        for vert in ends:
            degrees[vert] += 1
    return degrees
