"""Frontier contraction against the sweeps and the per-index traces; the
sweeps run only as the reference."""

import io
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    closed_braid,
    connected_sum,
    one_point_join,
    production_calls,
    random_ribbon,
    torus_braid,
)
from reference import check_sweep_memory, diagram_sweep_rows, graph_sweep_rows
from vkbr import _kernels, diagram, fixtures, limits, ribbon
from vkbr.build import NotColorableError, build_signed, find_switch_set
from vkbr.cli import main
from vkbr.diagram import (
    Diagram,
    format_diagram,
    jones,
    kauffman_bracket,
    parse_diagram,
    split_stats,
)
from vkbr.laurent import LaurentPoly
from vkbr.limits import SizeLimitError
from vkbr.randgen import KINDS, random_diagram
from vkbr.ribbon import (
    RibbonGraph,
    br_poly,
    parse_ribbon,
    subgraph_stats,
)
from vkbr.verify import verify_jones, verify_main, verify_signed


COLORABLE = [
    name for name, text in sorted(fixtures.DIAGRAMS.items())
    if find_switch_set(parse_diagram(text)) is not None
]


def diagram_rows(d):
    """((alpha, curves), count) rows of a diagram: (frontier, sweep)."""
    mate = diagram._plan(d)
    return diagram._frontier_rows(mate), diagram_sweep_rows(mate)


def traced_diagram_rows(d):
    """The same rows from split_stats, one call per state."""
    counts = Counter()
    for state in range(1 << len(d.crossings)):
        stats = split_stats(d, state)
        counts[stats.alpha, stats.delta - d.free_loops] += 1
    return sorted(counts.items())


def graph_rows(g, signed=True):
    """((e(F), e-(F), k(F), bc(F)), count) rows of a graph: (frontier, sweep)."""
    neg, sites = ribbon._plan(g, signed)
    return ribbon._frontier_rows(sites, neg), graph_sweep_rows(g, neg)


def swept_bracket(d):
    """The bracket assembled from the sweep's rows, once they equal the
    frontier's."""
    frontier, sweep = diagram_rows(d)
    assert frontier == sweep
    return diagram._bracket_sum(len(d.crossings), sweep, d.free_loops)


def swept_rank_poly(g, signed=False):
    """br_poly(g, signed) assembled from the sweep's rows, once they equal
    the frontier's."""
    frontier, sweep = graph_rows(g, signed)
    assert frontier == sweep
    return ribbon._rank_poly(g, sweep, g.negative_mask() if signed else 0)


def traced_graph_rows(g):
    """The signed rows from subgraph_stats, one call per subgraph; both
    routes leave out the dart-less vertices."""
    bare = sum(not darts for _, darts in g.vertices)
    neg = g.negative_mask()
    counts = Counter()
    for mask in range(1 << g.edge_count):
        stats = subgraph_stats(g, mask)
        row = (mask.bit_count(), (mask & neg).bit_count(), stats.k - bare, stats.bc - bare)
        counts[row] += 1
    return sorted(counts.items())


def assert_diagram_routes_agree(d, traced=True):
    frontier, sweep = diagram_rows(d)
    assert frontier == sweep
    if traced:
        assert frontier == traced_diagram_rows(d)


def assert_graph_routes_agree(g, traced=True):
    frontier, sweep = graph_rows(g)
    assert frontier == sweep
    unsigned_frontier, unsigned_sweep = graph_rows(g, signed=False)
    assert unsigned_frontier == unsigned_sweep
    if traced:
        assert frontier == traced_graph_rows(g)


def disjoint_union(*texts):
    """Diagram text of the given diagrams side by side, arcs renamed apart."""
    lines = []
    for i, text in enumerate(texts):
        d = parse_diagram(text)
        for c in d.crossings:
            lines.append(f"X {' '.join(f'p{i}_{a}' for a in c.ports)} o={c.over_in}\n")
        if d.free_loops:
            lines.append(f"O {d.free_loops}\n")
    return "".join(lines)


class TestDiagramRoutes:
    @pytest.mark.parametrize("name", sorted(fixtures.DIAGRAMS))
    def test_every_fixture(self, name):
        assert_diagram_routes_agree(parse_diagram(fixtures.DIAGRAMS[name]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", range(11))
    def test_random_diagrams(self, kind, n):
        for seed in range(3):
            d = random_diagram(n, seed, kind)
            assert_diagram_routes_agree(d, traced=n <= 7)
            try:
                g, _ = build_signed(d)
            except NotColorableError:
                continue
            assert_graph_routes_agree(g, traced=n <= 7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_loop_weight_counts_the_loops(self, kind):
        # With the weight x and a chosen site weighing x^unit, a state's
        # term is x^(unit alpha + curves - 1), read against the sweep.
        texts = [fixtures.NEGATIVE_KINK, disjoint_union(fixtures.TREFOIL, fixtures.HOPF_LINK)]
        diagrams = [parse_diagram(text) for text in texts]
        diagrams += [random_diagram(n, seed, kind) for n in range(1, 11) for seed in range(3)]
        for d in diagrams:
            mate = diagram._plan(d)
            unit = len(mate)  # above curves - 1
            weighed = _kernels.frontier_histogram(mate, [unit] * (unit // 4), loop_weight={1: 1})
            expected = [((unit * alpha + curves - 1, 0, 0), count)
                        for (alpha, curves), count in diagram_sweep_rows(mate)]
            assert weighed == expected

    def test_empty_diagram(self):
        d = Diagram(())
        assert diagram_rows(d) == ([((0, 0), 1)], [((0, 0), 1)])
        assert str(kauffman_bracket(d)) == "d^-1"

    def test_free_loops_only(self):
        d = parse_diagram("O 3\n")
        assert_diagram_routes_agree(d)
        assert str(kauffman_bracket(d)) == "d^2"

    @pytest.mark.parametrize("text", [fixtures.NEGATIVE_KINK, fixtures.POSITIVE_KINK,
                                      "X a a b c o=3\nX b d c d o=3\n"])
    def test_kinks(self, text):
        # Arcs from a crossing back to itself.
        assert_diagram_routes_agree(parse_diagram(text))

    def test_disconnected_diagram(self):
        d = parse_diagram(disjoint_union(
            fixtures.TREFOIL, fixtures.HOPF_LINK, fixtures.POSITIVE_KINK, "O 2\n"
        ))
        assert_diagram_routes_agree(d)

    def test_bracket_routes_agree_past_the_traces(self):
        d = parse_diagram(closed_braid(13))
        assert swept_bracket(d) == kauffman_bracket(d)


class TestGraphRoutes:
    def test_sample_ribbon(self):
        g = parse_ribbon(fixtures.SAMPLE_RIBBON)
        assert_graph_routes_agree(g)
        assert str(swept_rank_poly(g)) == str(br_poly(g)) == "x*y + x + y^2*z^2 + 3*y + 2"

    @pytest.mark.parametrize("name", COLORABLE)
    def test_graph_of_every_colorable_fixture(self, name):
        g, _ = build_signed(parse_diagram(fixtures.DIAGRAMS[name]))
        assert_graph_routes_agree(g)

    def test_zero_edges(self):
        g = RibbonGraph([("u", ()), ("w", ())], [])
        assert graph_rows(g) == ([((0, 0, 0, 0), 1)], [((0, 0, 0, 0), 1)])
        assert swept_rank_poly(g) == br_poly(g) == LaurentPoly.one(ribbon.BR_VARS)

    def test_random_graphs(self):
        # Loops, dart-less vertices, several components and negative edges
        # all occur among these.
        rng = random.Random(31)
        graphs = [random_ribbon(rng, rng.randint(1, 7), rng.randint(0, 9), signed=True)
                  for _ in range(60)]
        assert any(not darts for g in graphs for _, darts in g.vertices)
        assert any(u == w for g in graphs for u, w in g._sites[1])
        assert any(g.negative_mask() for g in graphs)
        assert any(subgraph_stats(g, g.full_subset).k - sum(not darts for _, darts in g.vertices) > 1
                   for g in graphs)
        for g in graphs:
            assert_graph_routes_agree(g, traced=g.edge_count <= 6)

    def test_two_components(self):
        text = fixtures.SAMPLE_RIBBON + fixtures.SAMPLE_RIBBON.replace(
            "u", "u2").replace("w", "w2").replace("a", "f").replace("b", "g").replace("c", "h")
        g = parse_ribbon(text)
        assert subgraph_stats(g, g.full_subset).k == 2
        assert_graph_routes_agree(g)
        assert br_poly(g) == br_poly(parse_ribbon(fixtures.SAMPLE_RIBBON)) ** 2

    @settings(max_examples=60, deadline=None)
    @given(
        n_verts=st.integers(1, 6),
        n_edges=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_frontier_equals_sweep(self, n_verts, n_edges, seed):
        g = random_ribbon(random.Random(seed), n_verts, n_edges, signed=True)
        assert_graph_routes_agree(g, traced=False)


def _forbid_sweeps(monkeypatch):
    def refuse(*_):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(_kernels, "state_delta_sweep", refuse)
    monkeypatch.setattr(_kernels, "subgraph_sweep", refuse)


def _count_sweeps(monkeypatch):
    calls = Counter()
    for name in ("state_delta_sweep", "subgraph_sweep"):
        original = getattr(_kernels, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_kernels, name, counted)
    return calls


class TestRouteChoice:
    """Production commands go by frontier contraction alone; the sweeps
    run only in the reference routes."""

    def test_closed_braid_verifies_without_a_sweep(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "braid.txt"
        path.write_text(closed_braid(13))
        _forbid_sweeps(monkeypatch)
        code = main(["verify", "--jones", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "equal: yes" in out

    def test_reference_routes_run_each_sweep_once(self, monkeypatch):
        d = parse_diagram(fixtures.TREFOIL)
        calls = _count_sweeps(monkeypatch)
        assert swept_bracket(d) == kauffman_bracket(d)
        g, _ = build_signed(d)
        assert swept_rank_poly(g, signed=True) == br_poly(g, signed=True)
        assert calls == {"state_delta_sweep": 1, "subgraph_sweep": 1}

    def test_no_production_command_sweeps(self, monkeypatch, capsys):
        texts = list(fixtures.DIAGRAMS.values()) + [
            format_diagram(random_diagram(n, 0, kind)) for kind in KINDS for n in range(8)
        ]
        _forbid_sweeps(monkeypatch)
        for text in texts:
            for argv, stdin, code in production_calls(text):
                monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
                assert main(argv) == code, (argv, text, capsys.readouterr().err)
            capsys.readouterr()


class TestSweepMemoryCheck:
    def test_probe_reports_a_size(self):
        size = limits.physical_memory()
        assert size is None or size > 0

    def test_refuses_before_allocating(self, monkeypatch):
        monkeypatch.setattr(limits, "physical_memory", lambda: 100)
        _forbid_sweeps(monkeypatch)
        with pytest.raises(SizeLimitError, match="physical memory"):
            diagram_sweep_rows(parse_diagram(fixtures.TREFOIL)._mate)
        with pytest.raises(SizeLimitError, match="physical memory"):
            graph_sweep_rows(parse_ribbon(fixtures.SAMPLE_RIBBON), 0)
        # 48 bytes per index: 2 indices need 96 bytes, 4 need 192.
        check_sweep_memory(1, "a 2-index sweep")
        with pytest.raises(SizeLimitError, match=r"a 4-index sweep: it needs about 192 bytes"):
            check_sweep_memory(2, "a 4-index sweep")

    def test_selftest_needs_no_sweep_memory(self, monkeypatch, capsys):
        # selftest checks the frontier against the per-state traces and
        # runs no sweep, so a memory too small for the trefoil's sweep
        # still lets it pass; the unknot's one free loop (300 bytes) fits.
        monkeypatch.setattr(limits, "physical_memory", lambda: 300)
        _forbid_sweeps(monkeypatch)
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out.endswith("48/48 checks passed\n")

    def test_raised_cap_sweep_refused(self, monkeypatch):
        # 2^40 indices: refused from the estimate, nothing allocated.
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "40")
        monkeypatch.setattr(limits, "physical_memory", lambda: 1 << 34)
        _forbid_sweeps(monkeypatch)
        mate = parse_diagram(closed_braid(40))._mate
        with pytest.raises(SizeLimitError, match="40-crossing"):
            diagram_sweep_rows(mate)

    def test_frontier_route_needs_no_sweep_memory(self, monkeypatch):
        monkeypatch.setattr(limits, "physical_memory", lambda: 100)
        d = parse_diagram(closed_braid(13))
        assert verify_jones(d).equal

    def test_unknown_memory_allows_the_sweep(self, monkeypatch):
        monkeypatch.setattr(limits, "physical_memory", lambda: None)
        calls = _count_sweeps(monkeypatch)
        d = parse_diagram(fixtures.NEGATIVE_KINK)
        assert str(swept_bracket(d)) == str(kauffman_bracket(d)) == "A + B*d"
        assert calls == {"state_delta_sweep": 1}


class TestStatsOnce:
    @pytest.mark.parametrize("check", [verify_main, verify_signed, verify_jones])
    def test_one_trace_per_verify(self, monkeypatch, check):
        calls = []
        original = ribbon.subgraph_stats

        def counted(g, subset):
            calls.append(subset)
            return original(g, subset)

        monkeypatch.setattr(ribbon, "subgraph_stats", counted)
        assert check(parse_diagram(fixtures.SAMPLE_KNOT)).equal
        assert len(calls) == 1


def greedy_order(arc_mate):
    """The site order by its defining rule, in O(n^2): each step scans
    every unprocessed site for the most arcs into the processed set, ties
    going to the lowest index."""
    n = len(arc_mate) // 4
    into = [0] * n
    done = [False] * n
    order = []
    for _ in range(n):
        s = max((i for i in range(n) if not done[i]), key=lambda i: (into[i], -i))
        done[s] = True
        order.append(s)
        for p in range(4 * s, 4 * s + 4):
            t = arc_mate[p] // 4
            if not done[t]:
                into[t] += 1
    return order


def assert_order_is_greedy(mate):
    assert _kernels._frontier_order(mate) == greedy_order(mate)


def assert_both_orders_are_greedy(d):
    """The frontier order of the crossings of d and, when it is colourable,
    of the edges of its signed graph."""
    assert_order_is_greedy(d._mate)
    try:
        g, _ = build_signed(d)
    except NotColorableError:
        return
    assert_order_is_greedy(g._sites[0])


class TestFrontierOrder:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_diagrams_and_their_graphs(self, kind):
        for n in range(13):
            for seed in range(5):
                assert_both_orders_are_greedy(random_diagram(n, seed, kind))

    def test_random_ribbon_graphs(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_ribbon(rng, rng.randint(1, 10), rng.randint(0, 20), signed=True)
            assert_order_is_greedy(g._sites[0])

    @pytest.mark.parametrize("p, q", [(2, 1001), (3, 100), (4, 51)])
    def test_torus_braids(self, p, q):
        assert_both_orders_are_greedy(parse_diagram(torus_braid(p, q)))


# (pieces, crossings per piece): sums of 24 to 40 crossings, past the
# sweeps' cap, each piece small enough for its own sweep.
SUM_SHAPES = [(2, 12), (3, 12), (4, 10)]


def random_sum(kind, pieces, size, seed):
    """The texts of `pieces` random diagrams and the text of their sum."""
    texts = [format_diagram(random_diagram(size, 1000 * seed + i, kind)) for i in range(pieces)]
    return texts, connected_sum(*texts)


class TestConnectedSums:
    """The bracket and the Jones polynomial of a connected sum are the
    products of its pieces': an oracle for the contraction past the
    sweeps' cap, where only the pieces' own sums are checked against
    the sweeps."""

    def test_knots_sum_to_a_knot(self, monkeypatch):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "28")
        d = parse_diagram(connected_sum(fixtures.TREFOIL, fixtures.TREFOIL, fixtures.POSITIVE_KINK))
        assert len(d.crossings) == 7 and len(diagram.components(d)) == 1
        assert jones(d) == jones(parse_diagram(fixtures.TREFOIL)) ** 2
        d = parse_diagram(connected_sum(torus_braid(2, 13), torus_braid(2, 15)))
        assert len(diagram.components(d)) == 1
        assert jones(d) == jones(parse_diagram(torus_braid(2, 13))) * jones(
            parse_diagram(torus_braid(2, 15)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("pieces, size", SUM_SHAPES)
    def test_bracket_and_jones_multiply(self, monkeypatch, kind, pieces, size):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "40")
        for seed in range(3):
            texts, total = random_sum(kind, pieces, size, seed)
            parts = [parse_diagram(text) for text in texts]
            d = parse_diagram(total)
            assert len(d.crossings) == pieces * size
            bracket = LaurentPoly.one(diagram.BRACKET_VARS)
            for part in parts:
                bracket = bracket * swept_bracket(part)
            assert kauffman_bracket(d) == bracket
            # The sum keeps every strand's direction, so the writhes add,
            # for link pieces as for knots.
            value = LaurentPoly.one(diagram.JONES_VARS)
            for part in parts:
                value = value * jones(part)
            assert jones(d) == value

    @pytest.mark.parametrize("pieces, size", SUM_SHAPES)
    def test_verify_signed_on_colorable_sums(self, monkeypatch, capsys, tmp_path, pieces, size):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "40")
        for seed in range(2):
            _, total = random_sum("colorable", pieces, size, seed)
            path = tmp_path / f"sum{seed}.txt"
            path.write_text(total)
            assert main(["verify", "--signed", str(path)]) == 0
            assert "equal: yes" in capsys.readouterr().out


class TestOnePointJoins:
    """The rank polynomial of a one-point join, signed or not, is the
    product of its pieces': an oracle for the contraction with vertex
    partitions past the sweeps' cap, where only the pieces' own
    polynomials are checked against the sweeps."""

    @pytest.mark.parametrize("sizes", [(15, 15), (14, 9), (12, 12), (8, 15)])
    def test_rank_polynomials_multiply(self, monkeypatch, sizes):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "30")
        rng = random.Random(sum(sizes))
        for _ in range(3):
            g1, g2 = (random_ribbon(rng, rng.randint(1, 5), e, signed=True) for e in sizes)
            v1, v2 = (rng.randrange(g.vertex_count) for g in (g1, g2))
            join = one_point_join(g1, g2, v1, v2)
            assert join.edge_count == sum(sizes)
            for signed in (False, True):
                pieces = [swept_rank_poly(g, signed) for g in (g1, g2)]
                assert br_poly(join, signed=signed) == pieces[0] * pieces[1]


class VertexStepRan(Exception):
    """The partition step of the contraction ran."""


def _forbid_vertex_steps(monkeypatch):
    def refuse(*_):
        raise VertexStepRan

    monkeypatch.setattr(_kernels, "_vert_step", refuse)


class TestNoVertexBookkeeping:
    """The sums of the bracket, the Jones polynomial and both sides of
    the identity track no vertex partition; only the rank polynomial
    does."""

    @pytest.mark.parametrize("name", sorted(fixtures.DIAGRAMS) + ["T(2,15)"])
    def test_identity_commands_run_without_it(self, monkeypatch, capsys, name):
        text = fixtures.DIAGRAMS.get(name) or torus_braid(2, 15)
        _forbid_vertex_steps(monkeypatch)
        for argv, stdin, code in production_calls(text):
            if argv[0] in ("bracket", "jones", "verify"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
                assert main(argv) == code, (argv, capsys.readouterr().err)

    @pytest.mark.parametrize("name", [n for n in COLORABLE if parse_diagram(fixtures.DIAGRAMS[n]).crossings])
    def test_rank_polynomial_reaches_it(self, monkeypatch, name):
        g, _ = build_signed(parse_diagram(fixtures.DIAGRAMS[name]))
        _forbid_vertex_steps(monkeypatch)
        for compute in (br_poly, ribbon.signed_br_poly, ribbon.tutte_via_br):
            with pytest.raises(VertexStepRan):
                compute(g)

    def test_identity_rows_fold_the_sweep(self):
        # Loops, dart-less vertices and negative edges all occur here.
        rng = random.Random(41)
        graphs = [random_ribbon(rng, rng.randint(1, 8), rng.randint(0, 14), signed=True)
                  for _ in range(40)]
        assert any(not darts for g in graphs for _, darts in g.vertices)
        assert any(u == w for g in graphs for u, w in g._sites[1])
        assert max(g.edge_count for g in graphs) == 14
        for g in graphs:
            bare = sum(not darts for _, darts in g.vertices)
            neg = g.negative_mask()
            for signed in (False, True):
                mask = neg if signed else 0
                folded = Counter()
                for (ef, eneg, _, bc), count in graph_sweep_rows(g, mask):
                    # alpha: positive edges in F and negative edges outside it
                    folded[ef - 2 * eneg + mask.bit_count(), bc + bare] += count
                assert ribbon.identity_rows(g, signed) == sorted(folded.items())


class TestRouteGate:
    """tools/route_gate.py is run only by hand; this keeps it importable
    without numpy and its timers in step with the routes.  main() is not
    called: its tables run past the cap and take minutes."""

    def test_timers_run(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "sys.path.insert(0, 'tools')\n"
            "import route_gate as gate\n"
            "from helpers import torus_braid\n"
            "from vkbr.build import build_signed\n"
            "from vkbr.diagram import jones, jones_via_bracket, parse_diagram\n"
            "from vkbr.randgen import random_diagram\n"
            "from vkbr.verify import bracket_from_graph, bracket_via_rank_poly\n"
            "g, _ = build_signed(random_diagram(6, 0, 'colorable'))\n"
            "gate.report('graph side', 6, [gate.two_route_times(\n"
            "    bracket_from_graph, bracket_via_rank_poly, g, True)])\n"
            "d = parse_diagram(torus_braid(2, 11))\n"
            "gate.report('T(2,11)', 11, [gate.two_route_times(jones, jones_via_bracket, d)])\n"
            "print('numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "tests"])}
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        *rows, numpy_loaded = proc.stdout.splitlines()
        assert [row.split(" | ")[:3] for row in rows] == [["| graph side", "6", "1"],
                                                         ["| T(2,11)", "11", "1"]]
        assert numpy_loaded == "False"
