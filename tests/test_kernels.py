"""The reference sweeps agree with the per-index traces, and each site
program of the frontier contraction with a traced graph."""

import itertools
import random

import pytest

from helpers import random_ribbon
from vkbr import _kernels
from vkbr._kernels import state_delta_sweep, subgraph_sweep
from vkbr.diagram import parse_diagram, split_stats
from vkbr.randgen import random_diagram
from vkbr.ribbon import RibbonGraph, subgraph_stats


def _check_states(d):
    # The sweep's bit c set means the A-splitting at crossing c, the
    # trace's the B-splitting, so index i is the trace's state i ^ full.
    deltas = state_delta_sweep(len(d.crossings), d._mate)
    assert len(deltas) == 1 << len(d.crossings)
    full = (1 << len(d.crossings)) - 1
    for i in range(1 << len(d.crossings)):
        assert deltas[i] + d.free_loops == split_stats(d, i ^ full).delta


def _check_subgraphs(g):
    # The kernel sees only the vertices some site touches, those with darts;
    # each dart-less one adds a component and a boundary component to every
    # subgraph.
    bare = sum(not darts for _, darts in g.vertices)
    ks, bcs = subgraph_sweep(g._sites, g.edge_count)
    assert len(ks) == len(bcs) == 1 << g.edge_count
    for mask in range(1 << g.edge_count):
        stats = subgraph_stats(g, mask)
        assert (ks[mask] + bare, bcs[mask] + bare) == (stats.k, stats.bc)


class TestStateSweep:
    def test_matches_pure_reference_trace(self):
        diagrams = [random_diagram(1 + seed % 7, seed) for seed in range(10)]
        diagrams += [random_diagram(2 + seed, 40 + seed) for seed in range(4)]
        # 4096 states, of a diagram whose arcs may join ports of one
        # parity and of one whose arcs all join an even port to an odd one.
        diagrams += [random_diagram(12, 5, kind) for kind in ("any", "alternating")]
        for d in diagrams:
            _check_states(d)

    def test_zero_crossings(self):
        d = parse_diagram("O 1\n")
        assert state_delta_sweep(0, d._mate) == [0]


class TestSubgraphSweep:
    def test_matches_pure_reference_trace(self):
        rng = random.Random(21)
        graphs = [random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 6)) for _ in range(10)]
        for seed in (2, 16, 64):
            rng = random.Random(seed)
            graphs += [random_ribbon(rng, rng.randint(1, 5), rng.randint(0, 7)) for _ in range(4)]
        # Up to 4096 subgraphs; dart-less vertices, loops and parallel
        # edges all occur among these.
        rng = random.Random(23)
        large = [random_ribbon(rng, v, rng.randint(11, 12)) for v in (2, 7, 16)]
        assert any(not darts for g in large for _, darts in g.vertices)
        assert any(u == w for g in large for u, w in g._sites[1])
        for g in graphs + large:
            _check_subgraphs(g)

    def test_zero_edges(self):
        g = RibbonGraph([("u", ()), ("w", ())], [])
        assert g._sites == ((), ())
        _check_subgraphs(g)


def _random_pairing(rng, n_ports, alternating):
    """A random perfect pairing of ports 0 .. n_ports-1; with
    `alternating`, each pair joins an even port to an odd one."""
    if alternating:
        odd = list(range(1, n_ports, 2))
        rng.shuffle(odd)
        pairs = zip(range(0, n_ports, 2), odd)
    else:
        ports = list(range(n_ports))
        rng.shuffle(ports)
        pairs = zip(ports[::2], ports[1::2])
    mate = [0] * n_ports
    for p, q in pairs:
        mate[p], mate[q] = q, p
    return mate


class TestOneLayout:
    """frontier_histogram and the sweep read one port layout: site s owns
    ports 4s .. 4s+3, and bit s of a choice set means the same join."""

    @pytest.mark.parametrize("n", range(9))
    def test_frontier_rows_are_the_sweep(self, n):
        rng = random.Random(n)
        mates = [_random_pairing(rng, 4 * n, alternating) for alternating in (False, True) * 10]
        # Some arc of a shuffled pairing joins two ports of one parity, as
        # no arc of an alternating pairing does.
        if n:
            assert any(not (p ^ q) & 1 for mate in mates for p, q in enumerate(mate))
        for mate in mates:
            loops = state_delta_sweep(n, mate)
            rows = _kernels.frontier_histogram(mate, [1 << s for s in range(n)])
            assert rows == [((i, 0, loops[i]), 1) for i in range(1 << n)]


def _matchings(items):
    """Every partial matching of `items`, as a dict mapping each matched
    item to its partner."""
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    yield from _matchings(rest)
    for j, other in enumerate(rest):
        for matching in _matchings(rest[:j] + rest[j + 1:]):
            yield {**matching, first: other, other: first}


def _site_cases():
    """Every (shape, pattern) a step can meet: the arcs that join ports of
    the site to each other, each other port linked or fresh, and the
    pairing of the linked ports among themselves."""
    for arcs in _matchings([0, 1, 2, 3]):
        rest = [q for q in range(4) if q not in arcs]
        for marks in itertools.product((_kernels._LINKED, _kernels._FRESH), repeat=len(rest)):
            shape = [arcs.get(q) for q in range(4)]
            for q, mark in zip(rest, marks):
                shape[q] = mark
            a = marks.count(_kernels._LINKED)
            for pairs in _matchings(list(range(a))):
                yield tuple(shape), tuple(pairs.get(i) for i in range(a))


def _traced_program(shape, pattern):
    """(writes as a set, loops) of each join, read off the site as a graph:
    a node for each port, for the open port at the far end of each linked
    port's arc and for the end beyond it, and an edge for each join, arc
    and link of the pairing.  Each component is a path between two ends
    or a cycle."""
    linked = [q for q in range(4) if shape[q] == _kernels._LINKED]
    fresh = [q for q in range(4) if shape[q] == _kernels._FRESH]
    a, f = len(linked), len(fresh)
    spare = max(0, a - f)
    operand = {("beyond", i): i for i in range(a) if pattern[i] is None}
    operand.update((("port", q), a + j) for j, q in enumerate(fresh))
    program = []
    for flip in (1, 3):
        edges = [(("port", q), ("port", q ^ flip)) for q in (0, 1, 2, 3) if q < q ^ flip]
        edges += [(("port", q), ("port", r)) for q, r in enumerate(shape) if q < r < _kernels._LINKED]
        for i, q in enumerate(linked):
            edges.append((("open", i), ("port", q)))
            p = pattern[i]
            if p is None:
                edges.append((("open", i), ("beyond", i)))
            elif i < p:
                edges.append((("open", i), ("open", p)))
        near = {}
        for x, y in edges:
            near.setdefault(x, []).append(y)
            near.setdefault(y, []).append(x)
        assert all(len(ys) <= 2 for ys in near.values())
        writes = {(a + f + j, a + f + spare) for j in range(spare)}
        loops, seen = 0, set()
        for start in near:
            if start in seen:
                continue
            component, todo = {start}, [start]
            while todo:
                for y in near[todo.pop()]:
                    if y not in component:
                        component.add(y)
                        todo.append(y)
            seen |= component
            ends = [x for x in component if len(near[x]) == 1]
            assert set(ends) == component & operand.keys()
            if ends:
                x, y = (operand[end] for end in ends)
                writes |= {(x, y), (y, x)}
            else:
                loops += 1
        program.append((writes, loops))
    return program


class TestSitePrograms:
    def test_every_site_program_is_the_traced_one(self):
        cases = list(_site_cases())
        assert len(cases) == len(set(cases)) == 76
        for shape, pattern in cases:
            program = _kernels._site_program(shape, pattern)
            assert len(program) == 2
            for (writes, loops), traced in zip(program, _traced_program(shape, pattern)):
                # No two writes set one slot, so their order does not matter.
                assert len({at for at, _ in writes}) == len(writes)
                assert (set(writes), loops) == traced
