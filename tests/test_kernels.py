"""The vectorised enumeration kernels agree with the per-index traces."""

import random

import numpy as np
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
    assert deltas.dtype == np.int16
    assert deltas.shape == (1 << len(d.crossings),)
    full = (1 << len(d.crossings)) - 1
    for i in range(1 << len(d.crossings)):
        assert deltas[i] + d.free_loops == split_stats(d, i ^ full).delta


def _check_subgraphs(g):
    # The kernel sees only the vertices some site touches, those with darts;
    # each dart-less one adds a component and a boundary component to every
    # subgraph.
    bare = sum(not darts for _, darts in g.vertices)
    k_arr, bc_arr = subgraph_sweep(g._sites, g.edge_count)
    assert k_arr.dtype == bc_arr.dtype == np.int16
    assert k_arr.shape == bc_arr.shape == (1 << g.edge_count,)
    for mask in range(1 << g.edge_count):
        stats = subgraph_stats(g, mask)
        assert (k_arr[mask] + bare, bc_arr[mask] + bare) == (stats.k, stats.bc)


class TestStateSweep:
    def test_matches_pure_reference_trace(self):
        for seed in range(10):
            _check_states(random_diagram(1 + seed % 7, seed))

    def test_every_state_across_chunks(self):
        # 4096 states x 48 ports spans several chunks of CHUNK_ELEMS, and
        # 24 even ports of the alternating diagram still do.
        assert (1 << 12) * 2 * 12 > 2 * _kernels.CHUNK_ELEMS
        for kind in ("any", "alternating"):
            _check_states(random_diagram(12, 5, kind))

    @pytest.mark.parametrize("chunk", [2, 16, 64])
    def test_tiny_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(_kernels, "CHUNK_ELEMS", chunk)
        for seed in range(4):
            _check_states(random_diagram(2 + seed, 40 + seed))

    def test_zero_crossings(self):
        d = parse_diagram("O 1\n")
        out = state_delta_sweep(0, d._mate)
        assert out.shape == (1,) and out[0] == 0


class TestSubgraphSweep:
    def test_matches_pure_reference_trace(self):
        rng = random.Random(21)
        for _ in range(10):
            _check_subgraphs(random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 6)))

    def test_every_subgraph_across_chunks(self):
        # Dart-less vertices, loops and parallel edges all occur here.
        rng = random.Random(23)
        graphs = [random_ribbon(rng, v, rng.randint(11, 12)) for v in (2, 7, 16)]
        assert any(not darts for g in graphs for _, darts in g.vertices)
        assert any(u == w for g in graphs for u, w in g._sites[1])
        for g in graphs:
            _check_subgraphs(g)

    @pytest.mark.parametrize("chunk", [2, 16, 64])
    def test_tiny_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(_kernels, "CHUNK_ELEMS", chunk)
        rng = random.Random(chunk)
        for _ in range(4):
            _check_subgraphs(random_ribbon(rng, rng.randint(1, 5), rng.randint(0, 7)))

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
        # Some arc of a shuffled pairing joins two ports of one parity, so
        # the sweep runs its full body there and its even-port body on the
        # alternating pairings.
        if n:
            assert any(not (p ^ q) & 1 for mate in mates for p, q in enumerate(mate))
        for mate in mates:
            loops = state_delta_sweep(n, mate)
            rows = _kernels.frontier_histogram(mate, [1 << s for s in range(n)])
            assert rows == [((i, 0, int(loops[i])), 1) for i in range(1 << n)]
