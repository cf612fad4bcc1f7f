"""The vectorised enumeration kernels agree with the per-index traces."""

import random

import numpy as np
import pytest

from helpers import random_ribbon
from vkbr import _kernels
from vkbr._kernels import popcounts, state_delta_sweep, subgraph_sweep
from vkbr.diagram import _arc_mate, parse_diagram, split_stats
from vkbr.randgen import random_diagram
from vkbr.ribbon import RibbonGraph, subgraph_stats


def _check_states(d):
    deltas = state_delta_sweep(len(d.crossings), _arc_mate(d))
    assert deltas.dtype == np.int16
    assert deltas.shape == (1 << len(d.crossings),)
    for state in range(1 << len(d.crossings)):
        assert deltas[state] + d.free_loops == split_stats(d, state).delta


def _check_subgraphs(g):
    k_arr, bc_arr = subgraph_sweep(*g.sweep_arrays())
    assert k_arr.dtype == bc_arr.dtype == np.int16
    assert k_arr.shape == bc_arr.shape == (1 << g.edge_count,)
    for mask in range(1 << g.edge_count):
        stats = subgraph_stats(g, mask)
        assert (k_arr[mask], bc_arr[mask]) == (stats.k, stats.bc)


class TestStateSweep:
    def test_matches_pure_reference_trace(self):
        for seed in range(10):
            _check_states(random_diagram(1 + seed % 7, seed))

    def test_every_state_across_chunks(self):
        # 4096 states x 48 ports spans several chunks of CHUNK_ELEMS.
        d = random_diagram(12, 5)
        assert (1 << 12) * 4 * 12 > 2 * _kernels.CHUNK_ELEMS
        _check_states(d)

    @pytest.mark.parametrize("chunk", [2, 16, 64])
    def test_tiny_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(_kernels, "CHUNK_ELEMS", chunk)
        for seed in range(4):
            _check_states(random_diagram(2 + seed, 40 + seed))

    def test_zero_crossings(self):
        d = parse_diagram("O 1\n")
        out = state_delta_sweep(0, _arc_mate(d))
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
        assert any(np.any(u == w) for u, w in (g.sweep_arrays()[4:6] for g in graphs))
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
        k_arr, bc_arr = subgraph_sweep(*g.sweep_arrays())
        assert k_arr.tolist() == [2] and bc_arr.tolist() == [2]


class TestPopcounts:
    def test_small_values(self):
        out = popcounts(1 << 10)
        assert out.shape == (1024,)
        for mask in (0, 1, 2, 3, 255, 512, 1023):
            assert out[mask] == bin(mask).count("1")
