"""The two routes to the bracket and rank-polynomial sums.

Both routes read one input, an arc pairing over port ids: arc_mate[p] is
the port at the other end of the arc at port p.  The ports come four to
a site, a crossing or an edge, and site s owns ports 4s .. 4s+3.  A
chosen site joins port p to p ^ 1, that is {0,1} and {2,3}; an unchosen
one joins p to p ^ 3, that is {0,3} and {1,2}.  For a crossing the chosen
join is its A-splitting, for an edge it puts the edge in the subgraph.
The closed loops of arcs and joins are a state's curves or a subgraph's
boundary components.

frontier_histogram computes both sums, and the graph side of the bracket
identity at its own point: it contracts the sites one at a time, in a
greedy order it picks itself, with a table whose size depends on the
width of the frontier rather than on the number of states or subgraphs.
It needs nothing but Python integers.

The sweeps are the brute-force reference it is checked against, and no
command runs them.  They go through the exponential index space, with bit
s of an index set when site s is chosen, and count each index's loops by
walking them, one index at a time; tests/reference.py checks a sweep's
memory before it runs and counts the distinct rows of its statistics.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import heappop, heappush

# -- reference sweeps -------------------------------------------------------
# They stay here, not in tests/reference.py, while perfbench/tracing.py
# wraps state_delta_sweep and subgraph_sweep by name as vkbr._kernels
# attributes; they move once the benchmark drops those kernel spans.


def _loops(arc_mate, mask):
    """Closed loops of arcs and joins when the sites set in mask are
    chosen: each walk goes from a port across its site's join, then along
    the arc at the port it reaches, until it is back where it started."""
    seen = [False] * len(arc_mate)
    loops = 0
    for start in range(len(arc_mate)):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            q = p ^ (1 if mask >> (p >> 2) & 1 else 3)
            seen[p] = seen[q] = True
            p = arc_mate[q]
    return loops


def state_delta_sweep(n_crossings, arc_mate):
    """Closed curves of every splitting state, free loops excluded.

    arc_mate: the arc pairing over port ids 4c+p, crossing c being site
    c.  State bit c set = A-splitting at crossing c, the chosen join.
    Returns a list indexed by state.
    """
    return [_loops(arc_mate, state) for state in range(1 << int(n_crossings))]


def subgraph_sweep(sites, n_edges):
    """Components k and boundary components bc of every spanning subgraph.

    sites: a ribbon graph's site table (arc_mate, site_verts), the one
    frontier_histogram reads, with edge s as site s; bit s of a subset
    set puts the edge in it, the chosen join.  bc counts the loops, as in
    state_delta_sweep.  k counts the classes of the vertices that some
    site touches, by a union-find over the subset's edges.  A dart-less
    vertex touches no site; it would add one to k and to bc of every
    subgraph, which the caller adds itself.  Returns (k, bc) as lists
    indexed by edge subset.
    """
    arc_mate, site_verts = sites
    touched = {v for ends in site_verts for v in ends}
    n_verts = 1 + max(touched, default=-1)
    k, bc = [], []
    for subset in range(1 << int(n_edges)):
        parent = list(range(n_verts))
        classes = len(touched)
        for s, (u, w) in enumerate(site_verts):
            if subset >> s & 1:
                u, w = _find(parent, u), _find(parent, w)
                if u != w:
                    parent[u] = w
                    classes -= 1
        k.append(classes)
        bc.append(_loops(arc_mate, subset))
    return k, bc


# -- frontier contraction -------------------------------------------------


def frontier_histogram(arc_mate, site_shift, site_verts=(), loop_weight=None):
    """The rows (shift, components, loops) of every way of choosing sites,
    with their counts, in increasing order of rows.

    The sites are those of arc_mate in the port layout above, and loops
    counts the closed cycles of arcs and joins.  shift sums
    site_shift[s] over the chosen sites s, integers the caller picks: one
    each counts the chosen sites, and a caller that needs more than one
    count packs them into mixed-radix units and decodes the sums itself.
    With site_verts, site s also joins vertices site_verts[s] when chosen,
    and components counts the classes of the vertices that any site
    touches; without it, components is 0.

    With loop_weight, a polynomial as {exponent: coefficient}, and no
    site_verts, each loop a join closes multiplies the counts by the
    weight instead, so the rows are (shift, 0, 0), counting
    weight^(loops - 1) by exponent.  Every join of the last site closes a
    loop, as no port stays open, so that site takes one product fewer.
    With D = -t^(1/2) - t^(-1/2) in quarters of t this is the Jones sum.

    The sites are taken in the order of _frontier_order.  The table maps
    a key to counts of the rows so far.  The key is the pairing of the
    open ports, where a port is open when its site is processed and its
    arc's other end is not; with site_verts it is that pairing together
    with the partition of the open vertices, where a vertex is open when
    some of its sites are processed and some are not.  A site's step maps
    a key to one list: the key and the shift after the site's chosen join,
    then after its unchosen one, the shift counting the loops and vertex
    classes that join closes.  Each row is one mixed-radix integer, so
    adding a site shifts a whole count table by one offset.
    """
    n = len(arc_mate) >> 2
    left = Counter(v for ends in site_verts for v in ends)  # a loop's vertex counts twice
    unit_comp = 2 * n + 1  # loops <= joins
    unit_shift = 1 if loop_weight else unit_comp * (len(left) + 1)
    slot_of, free, open_verts = {}, [], []
    table = {((), ()) if site_verts else (): {0: 1}}
    order = _frontier_order(arc_mate)
    for s in order:
        step = _port_step(arc_mate, s, slot_of, free)
        if site_verts:
            open_verts, step = _vert_step(step, open_verts, site_verts[s], left, unit_comp)
        on = site_shift[s] * unit_shift
        last = bool(loop_weight) and s == order[-1]
        grown = {}
        for key, counts in table.items():
            after = step(key)
            for branch in (0, 2):
                key, closed = after[branch], after[branch + 1]
                held, shift = counts, 0 if branch else on
                if not loop_weight:
                    shift += closed
                elif closed > last:
                    held, shift = _weighed(counts, loop_weight, closed - last, shift), 0
                target = grown.get(key)
                if target is None:
                    # The unchosen branch reads counts last, so unshifted it
                    # takes the dict itself, as any branch takes a weighed one.
                    grown[key] = (held if not shift and (branch or held is not counts) else
                                  {row + shift: c for row, c in held.items()})
                else:
                    for row, c in held.items():
                        row += shift
                        target[row] = target.get(row, 0) + c
        table = grown
    (counts,) = table.values()
    rows = []
    for row in sorted(counts):
        shift, rest = divmod(row, unit_shift)  # floors, so a negative shift decodes too
        rows.append(((shift, *divmod(rest, unit_comp)), counts[row]))
    return rows


def _weighed(counts, weight, times, shift):
    """The polynomial counts, moved by shift, times weight^times, both
    polynomials as {exponent: coefficient}, as a new dict."""
    (power, w), *rest = weight.items()
    for _ in range(times):
        product = {row + shift + power: c * w for row, c in counts.items()}
        for more, v in rest:
            more += shift
            for row, c in counts.items():
                row += more
                product[row] = product.get(row, 0) + c * v
        counts, shift = product, 0
    return counts


def _frontier_order(arc_mate):
    """The greedy site order: next comes the unprocessed site with the
    most arcs into the processed set, ties going to the lowest index.

    A heap holds (-arcs in, site) entries, one pushed each time a site's
    count grows.  A site's newest entry comes off before its older ones,
    so an entry is stale exactly when its site is done.
    """
    n = len(arc_mate) >> 2
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
        for p in range(4 * s, 4 * s + 4):
            t = arc_mate[p] >> 2
            if not done[t]:
                into[t] += 1
                heappush(heap, (-into[t], t))
    return order


def _port_step(arc_mate, s, slot_of, free):
    """The step of site s on one pairing of the open ports:
    step(pairing) = [pairing after the chosen join, loops it closes,
    pairing after the unchosen join, loops it closes].

    Each open port holds a slot, slot_of[port], and a pairing lists by
    slot the slot of the port paired with it, or -1 for a free slot.  The
    site takes the slots of its linked ports, the at most 4 open ports
    whose arcs enter it, and gives its fresh ports, those whose arcs leave
    the processed set, the first slots to hand: the linked ports' own,
    then those in `free`, then new ones at the end.  It updates slot_of
    and free to match.  Every other open port keeps its slot, so a step
    copies the pairing and mends only the paths through the linked ports.

    Which paths those are depends only on the site's shape, which of its
    ports are linked, fresh or joined by an arc to another of its own,
    and on the pattern of the pairing, which linked ports it pairs with
    each other.  _site_program turns the two into the writes of each
    join, as indices into the step's operands: the slots paired with the
    linked ports, the fresh ports' slots, the spare slots and -1.
    """
    width = start = len(slot_of) + len(free)
    shape, linked, fresh = [], [], []
    for q in range(4 * s, 4 * s + 4):
        m = arc_mate[q]
        slot = slot_of.pop(m, None)
        if slot is not None:
            shape.append(_LINKED)
            linked.append(slot)
        elif m >> 2 == s:
            shape.append(m & 3)
        else:
            shape.append(_FRESH)
            fresh.append(q)
    fresh_slots = linked[:len(fresh)]
    for _ in fresh[len(linked):]:
        if free:
            fresh_slots.append(free.pop())
        else:
            fresh_slots.append(width)
            width += 1
    slot_of.update(zip(fresh, fresh_slots))
    spare = linked[len(fresh):]
    free += spare
    tail = fresh_slots + spare + [-1]
    pad = [-1] * (width - start)
    shape = tuple(shape)
    index_of = {slot: i for i, slot in enumerate(linked)}.get

    def step(pair):
        ops = [pair[slot] for slot in linked]
        program = _site_program(shape, tuple(map(index_of, ops)))
        ops += tail
        out = []
        for writes, loops in program:
            new = [*pair, *pad]
            for at, value in writes:
                new[ops[at]] = ops[value]
            out += tuple(new), loops
        return out

    return step


# Marks of a site's port in its shape, past the places 0..3 that mark a
# port whose arc joins it to another port of the same site.
_LINKED, _FRESH = 4, 5


# A site's shape and a pattern take at most 76 values together, so the
# cache stays small for the life of the process; its values are tuples.
@lru_cache(maxsize=None)
def _site_program(shape, pattern):
    """For each join of a site, chosen then unchosen, the (writes, loops)
    of a step, given the site's shape and the pairing's pattern as
    _port_step makes them.  A write (at, value) sets the slot ops[at] of
    the new pairing to ops[value], where ops are the step's operands.

    shape[q] is _LINKED or _FRESH for the site's port q, or the place of
    the port its arc joins q to on the site itself.  pattern[i] is the
    index of the linked port the pairing pairs linked port i with, or
    None when it is some other open port, the end beyond i.  Operands
    0 .. a-1 are the slots of the a linked ports' partners, then come the
    fresh ports' slots, the spare slots and -1.

    The nodes are the site's ports 0..3, the open port 4 + i at the other
    end of linked port i's arc, and the end 8 + i beyond that one.  Ties
    join them by the pairing, the arcs and the join.  No node has more
    than two ties, and only the ends, beyond a linked port or at a fresh
    port, have one, so a class of the union-find over the ties is a path,
    whose two ends the join pairs, or a loop, with no end.
    """
    linked = [q for q in range(4) if shape[q] == _LINKED]
    fresh = [q for q in range(4) if shape[q] == _FRESH]
    a, f = len(linked), len(fresh)
    end_op = {8 + i: i for i in range(a) if pattern[i] is None}
    end_op.update((q, a + j) for j, q in enumerate(fresh))
    n_spare = max(0, a - f)
    spare_writes = [(a + f + j, a + f + n_spare) for j in range(n_spare)]
    ties = []
    for i, q in enumerate(linked):
        ties.append((4 + i, q))
        if pattern[i] is None:
            ties.append((4 + i, 8 + i))
        elif i < pattern[i]:
            ties.append((4 + i, 4 + pattern[i]))
    ties += [(q, shape[q]) for q in range(4) if q < shape[q] < _LINKED]
    nodes = {x for tie in ties for x in tie} | {0, 1, 2, 3}
    program = []
    for flip in (1, 3):
        parent = list(range(12))
        for x, y in ties + [(q, q ^ flip) for q in range(4) if q < q ^ flip]:
            parent[_find(parent, x)] = _find(parent, y)
        ends = {}
        for x, op in end_op.items():
            ends.setdefault(_find(parent, x), []).append(op)
        writes = spare_writes[:]
        for x, y in ends.values():
            writes += (x, y), (y, x)
        loops = len({_find(parent, x) for x in nodes}) - len(ends)
        program.append((tuple(writes), loops))
    return tuple(program)


def _find(parent, i):
    """The root of i's class in the union-find `parent`, halving the path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _vert_step(port_step, open_verts, ends, left, unit_comp):
    """Open vertices after a site with end vertices `ends`, and the step
    of one key (pairing, partition): port_step's step of the pairing with
    the partition after each join, the classes it closes counted in units
    of unit_comp on the loops.

    A partition labels each open vertex, in order, by its class, classes
    numbered in order of first appearance.  `left` counts the sites still
    to come at each vertex; the site's own ends are taken off it here.
    """
    for vert in ends:
        left[vert] -= 1
    grown = open_verts + [v for v in dict.fromkeys(ends) if v not in open_verts]
    stay = [i for i, v in enumerate(grown) if left[v]]
    a, b = (grown.index(v) for v in ends)
    fresh_labels = tuple(range(len(open_verts), len(grown)))

    def partition(labels):
        staying = {labels[i] for i in stay}
        closed = len(set(labels) - staying)
        names = {}
        return tuple(names.setdefault(labels[i], len(names)) for i in stay), closed * unit_comp

    ports_after, after = {}, {}  # many keys share a pairing, or a partition

    def step(key):
        pair, blocks = key
        ports = ports_after.get(pair)
        if ports is None:
            ports = ports_after[pair] = port_step(pair)
        on, on_loops, off, off_loops = ports
        both = after.get(blocks)
        if both is None:
            labels = blocks + fresh_labels
            merged = tuple(labels[a] if label == labels[b] else label for label in labels)
            both = after[blocks] = (*partition(merged), *partition(labels))
        on_blocks, on_comps, off_blocks, off_comps = both
        return [(on, on_blocks), on_loops + on_comps, (off, off_blocks), off_loops + off_comps]

    return [grown[i] for i in stay], step
