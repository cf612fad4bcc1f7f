"""Both sides of the bracket and Jones identities, computed independently."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from helpers import random_ribbon, torus_braid, torus_knot_jones
from vkbr import build, diagram, fixtures, randgen, ribbon, verify
from vkbr.build import (
    NotAlternatingError,
    NotColorableError,
    build_ribbon,
    build_signed,
)
from vkbr.diagram import (
    apply_switches,
    format_diagram,
    is_alternating,
    jones,
    jones_via_bracket,
    kauffman_bracket,
    parse_diagram,
    writhe,
)
from vkbr.cli import main
from vkbr.laurent import LaurentPoly
from vkbr.limits import CAP_ENV_VAR
from vkbr.randgen import KINDS, random_diagram
from vkbr.ribbon import RibbonGraph, br_poly, genus, graph_stats, parse_ribbon, subgraph_stats
from vkbr.verify import (
    VerifyReport,
    bracket_from_graph,
    bracket_via_rank_poly,
    jones_from_graph,
    jones_via_rank_poly,
    jones_via_tutte,
    verify_jones,
    verify_main,
    verify_signed,
)

ALTERNATING = ["unknot", "negative-kink", "positive-kink", "hopf-link", "trefoil", "sample-knot"]


class TestBracketIdentity:
    def test_non_alternating_is_rejected(self):
        with pytest.raises(NotAlternatingError):
            verify_main(parse_diagram(fixtures.VIRTUAL_HOPF))

    def test_frozen_graph_assembles_the_frozen_bracket(self):
        # The bundled ribbon graph reproduces the bundled knot's bracket
        # without going through the builder at all.
        g = parse_ribbon(fixtures.SAMPLE_RIBBON)
        d = parse_diagram(fixtures.SAMPLE_KNOT)
        assert bracket_from_graph(g) == kauffman_bracket(d)


class TestSignedIdentity:
    def test_alternating_input_reduces_to_unsigned(self):
        d = parse_diagram(fixtures.SAMPLE_KNOT)
        plain, signed = verify_main(d), verify_signed(d)
        assert signed.switches == ()
        assert signed.left == plain.left and signed.right == plain.right

    @pytest.mark.parametrize("switch", [(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)])
    def test_switched_sample_knot_verifies(self, switch):
        d = apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), switch)
        report = verify_signed(d)
        assert report.equal
        assert report.left == kauffman_bracket(d)

    def test_every_switch_choice_assembles_the_same_right_side(self):
        # The signed polynomial itself depends on which crossings get
        # switched, but the assembled product always lands on the bracket.
        checked = 0
        for seed in range(20):
            d = random_diagram(5, seed, kind="colorable")
            n = len(d.crossings)
            valid = [
                combo
                for size in range(n + 1)
                for combo in itertools.combinations(range(n), size)
                if is_alternating(apply_switches(d, combo))
            ]
            if len(valid) < 2:
                continue
            checked += 1
            bracket = kauffman_bracket(d)
            for v in valid:
                g, _ = build_signed(d, switches=v)
                assert bracket_from_graph(g) == bracket, (seed, v)
        assert checked > 5

    def test_not_colorable_is_rejected(self):
        with pytest.raises(NotColorableError):
            verify_signed(parse_diagram(fixtures.VIRTUAL_HOPF))


class TestJonesIdentity:
    @pytest.mark.parametrize("switch", [(0,), (1,), (0, 2)])
    def test_switched_sample_knot_verifies(self, switch):
        d = apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), switch)
        assert verify_jones(d).equal

    def test_tutte_route_agrees_on_planar_positive_graphs(self):
        hits = 0
        for name in ALTERNATING:
            d = parse_diagram(fixtures.DIAGRAMS[name])
            g = build_ribbon(d)
            if genus(g) != 0:
                continue
            hits += 1
            assert jones_via_tutte(g, writhe(d)) == jones(d), name
        assert hits >= 4

    def test_tutte_route_agrees_on_random_planar_inputs(self):
        hits = 0
        for seed in range(30):
            d = random_diagram(1 + seed % 6, seed, kind="alternating")
            g = build_ribbon(d)
            if genus(g) != 0:
                continue
            hits += 1
            assert jones_via_tutte(g, writhe(d)) == jones(d), seed
        assert hits > 5

    def test_tutte_route_demands_planarity_and_positivity(self):
        d = parse_diagram(fixtures.SAMPLE_KNOT)
        with pytest.raises(ValueError, match="genus-0"):
            jones_via_tutte(build_ribbon(d), writhe(d))
        negative_loop = parse_ribbon("V u : a1 a2\nE a : a1 a2 sign=-\n")
        with pytest.raises(ValueError, match="positive"):
            jones_via_tutte(negative_loop, 1)

    def test_clearing_the_z_denominator_agrees(self):
        # Alternative right-side assembly: substitute x and y as whole
        # polynomials, clear the z powers by multiplying through with the
        # largest needed power of D, and compare against jones * D^m.
        big_d = LaurentPoly.parse("-t^(1/2) - t^(-1/2)", ("t",))
        x_val = LaurentPoly.parse("-t - 1", ("t",))
        y_val = LaurentPoly.parse("-t^-1 - 1", ("t",))
        for seed in range(12):
            d = random_diagram(1 + seed % 6, seed, kind="alternating")
            g = build_ribbon(d)
            poly = br_poly(g)
            terms = poly.terms()
            m = max(int(c) for (_, _, c), _ in terms)
            stats = subgraph_stats(g, g.full_subset)
            r, k = stats.r, stats.k
            n = g.edge_count - r
            numerator = LaurentPoly.zero(("t",))
            for (a, b, c), coeff in terms:
                numerator = numerator + (
                    x_val ** int(a) * y_val ** int(b) * big_d ** (m - int(c)) * coeff
                )
            w = writhe(d)
            prefactor = LaurentPoly.monomial(
                ("t",), -1 if w % 2 else 1, t=Fraction(3 * w - r + n, 4)
            )
            left = jones(d) * big_d ** m
            right = prefactor * big_d ** (k - 1) * numerator
            assert left == right, seed

    def test_not_colorable_is_rejected(self):
        with pytest.raises(NotColorableError):
            verify_jones(parse_diagram(fixtures.VIRTUAL_HOPF))


def assert_direct_equals_rank_poly(g, w=0):
    """The right sides evaluated at their points directly against the whole
    signed rank polynomial, substituted: the bracket form and the Jones
    form in powers of D."""
    assert bracket_from_graph(g) == bracket_via_rank_poly(g)
    assert jones_from_graph(g, w) == jones_via_rank_poly(g, w)


class TestDirectEvaluation:
    """verify never builds R_G; these keep it in the checks."""

    @pytest.mark.parametrize("name", sorted(fixtures.DIAGRAMS))
    def test_every_fixture(self, name):
        d = parse_diagram(fixtures.DIAGRAMS[name])
        graphs = [build_ribbon(d)] if is_alternating(d) else []
        try:
            graphs.append(build_signed(d)[0])
        except NotColorableError:
            pass
        for g in graphs:
            assert_direct_equals_rank_poly(g, writhe(d))

    def test_sample_ribbon(self):
        assert_direct_equals_rank_poly(parse_ribbon(fixtures.SAMPLE_RIBBON), 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_diagrams(self, kind):
        for n in range(11):
            for seed in range(3):
                d = random_diagram(n, seed, kind)
                try:
                    g, _ = build_signed(d)
                except NotColorableError:
                    continue
                assert_direct_equals_rank_poly(g, writhe(d))

    def test_random_graphs(self):
        # Loops, dart-less vertices, several components and negative edges
        # all occur among these.
        rng = random.Random(7)
        graphs = [random_ribbon(rng, rng.randint(1, 8), rng.randint(0, 16), signed=True)
                  for _ in range(40)]
        assert max(g.edge_count for g in graphs) == 16
        assert any(not darts for g in graphs for _, darts in g.vertices)
        assert any(u == w for g in graphs for u, w in g._sites[1])
        assert any(g.negative_mask() for g in graphs)
        assert any(subgraph_stats(g, g.full_subset).k - sum(not darts for _, darts in g.vertices) > 1
                   for g in graphs)
        for i, g in enumerate(graphs):
            assert_direct_equals_rank_poly(g, i - 20)

    def test_verify_builds_no_rank_polynomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the rank polynomial was built")

        monkeypatch.setattr(ribbon, "_rank_poly", refuse)
        # Both sides evaluate at their point, so nothing substitutes.
        monkeypatch.setattr(LaurentPoly, "substitute", refuse)
        d = apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), (1,))
        assert verify_jones(d).equal
        assert verify_main(parse_diagram(fixtures.SAMPLE_KNOT)).equal
        assert verify_signed(d).equal

    def test_jones_sums_read_no_rows(self, monkeypatch):
        # Both Jones sides carry the polynomial through the contraction;
        # only the brackets and the references count (alpha, loops) rows.
        monkeypatch.setenv(CAP_ENV_VAR, "50")
        diagrams = [parse_diagram(text) for text in fixtures.DIAGRAMS.values()]
        diagrams.append(parse_diagram(torus_braid(3, 25)))
        cases = []
        for d in diagrams:
            if not d.crossings and not d.free_loops:
                continue
            try:
                g = build_signed(d)[0]
            except NotColorableError:
                g = None
            w = writhe(d)
            right = None if g is None else jones_via_rank_poly(g, w)
            cases.append((d, w, g, jones_via_bracket(d), right))
        assert sum(g is not None for _, _, g, _, _ in cases) >= 7

        def refuse(*args):
            raise AssertionError("a row count ran")

        monkeypatch.setattr(diagram, "_bracket_contraction", refuse)
        monkeypatch.setattr(verify, "_bracket_contraction", refuse)
        for d, w, g, left, right in cases:
            assert jones(d) == left
            if g is not None:
                assert jones_from_graph(g, w) == right

    def test_right_sides_read_no_graph_statistics(self, monkeypatch):
        # r and n split the Jones exponent only as far as r + n = e.
        diagrams = [parse_diagram(text) for text in fixtures.DIAGRAMS.values()]
        diagrams += [random_diagram(n, 0, "colorable") for n in range(9)]
        cases = []
        for d in diagrams:
            try:
                g, _ = build_signed(d)
            except NotColorableError:
                continue
            w = writhe(d)
            cases.append((g, w, bracket_via_rank_poly(g), jones_via_rank_poly(g, w)))
        assert len(cases) >= 9

        def refuse(*args):
            raise AssertionError("a graph statistic was read")

        monkeypatch.setattr(verify, "graph_stats", refuse)
        monkeypatch.setattr(ribbon, "subgraph_stats", refuse)
        for g, w, bracket, jones_value in cases:
            assert bracket_from_graph(g) == bracket
            assert jones_from_graph(g, w) == jones_value

    def test_dartless_vertices_add_to_the_d_power(self):
        g = RibbonGraph([("u", ()), ("w", ())], [])
        assert str(bracket_from_graph(g)) == "d"
        assert_direct_equals_rank_poly(g)

    def test_no_vertices(self):
        g = RibbonGraph([], [])
        assert str(bracket_from_graph(g)) == str(bracket_via_rank_poly(g)) == "d^-1"
        for route in (jones_from_graph, jones_via_rank_poly):
            with pytest.raises(ValueError, match="no vertices"):
                route(g, 0)


class TestTorusKnots:
    """verify --jones past the default cap, against a closed form that
    needs no state sum."""

    def test_closed_form_of_small_knots(self):
        assert str(torus_knot_jones(2, 3)) == "-t^4 + t^3 + t"
        assert str(torus_knot_jones(3, 4)) == "-t^8 + t^5 + t^3"

    @pytest.mark.parametrize("q", [10, 25, 50])
    def test_three_strand_torus_knots(self, q, monkeypatch):
        self.assert_closed_form(3, q, monkeypatch)

    @pytest.mark.parametrize("p, q", [(4, 51), (5, 41), (6, 31), (2, 1001)])
    def test_torus_knots_at_scale(self, p, q, monkeypatch):
        self.assert_closed_form(p, q, monkeypatch)

    @staticmethod
    def assert_closed_form(p, q, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, str((p - 1) * q))
        d = parse_diagram(torus_braid(p, q))
        report = verify_jones(d)
        assert report.equal
        # The braid's crossings all have negative sign here, which gives
        # the mirror image of the closed form: t -> t^-1.
        assert writhe(d) == -(p - 1) * q
        mirrored = {(int(-4 * t),): c for (t,), c in torus_knot_jones(p, q).terms()}
        assert report.left == LaurentPoly(("t",), mirrored)


class TestReportShape:
    def test_fields(self):
        report = verify_signed(
            apply_switches(parse_diagram(fixtures.TREFOIL), (1,))
        )
        assert isinstance(report, VerifyReport)
        assert report.switches == (1,)
        assert report.equal and report.left == report.right

    def test_assembly_functions_are_exposed(self):
        g = parse_ribbon(fixtures.SAMPLE_RIBBON)
        assert bracket_from_graph(g).variables == ("A", "B", "d")
        assert jones_from_graph(g, 1).variables == ("t",)


class TestBijectionCheck:
    """verify checks the graph's site table against the diagram's port
    table before it compares the sums, so that a builder fault exits 4,
    never 1 (identity failed) nor 0."""

    @pytest.mark.parametrize("mode", ["--main", "--signed", "--jones"])
    def test_builder_fault_exits_4(self, mode, monkeypatch, tmp_path, capsys):
        trace = build._trace_rotations

        def reversed_first(d):
            rotations = trace(d)
            rotations[0] = rotations[0][::-1]
            return rotations

        monkeypatch.setattr(build, "_trace_rotations", reversed_first)
        path = tmp_path / "trefoil.txt"
        path.write_text(fixtures.TREFOIL)
        assert main(["verify", mode, str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bijection check failed at edge" in captured.err

    def test_holds_on_random_diagrams(self, monkeypatch):
        # randgen's "colorable" sampler past its cap for n = 14, 30, 60
        monkeypatch.setattr(randgen, "MAX_RANDOM_CROSSINGS", 60)
        cases = [(kind, n) for kind in ("alternating", "colorable") for n in range(13)]
        cases += [("colorable", n) for n in (14, 30, 60)]
        checked = 0
        for kind, n in cases:
            for seed in range(10):
                d = randgen.random_diagram(n, seed, kind)
                if kind == "alternating":
                    verify._check_bijection(d, build_ribbon(d), ())
                else:
                    verify._check_bijection(d, *build_signed(d))
                checked += 1
        assert checked == 290


class TestFreeLoops:
    """verify counts a diagram's free loops, the dart-less vertices of its
    graph, without building a vertex for each."""

    @pytest.mark.parametrize("text", [
        fixtures.NEGATIVE_KINK + "O 2\n",
        fixtures.TREFOIL + "O 3\n",
        "O 4\n",
        format_diagram(apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), (1,))) + "O 1\n",
    ])
    def test_as_if_the_graph_held_them(self, text):
        d = parse_diagram(text)
        g, switches = build_signed(d)
        assert sum(not darts for _, darts in g.vertices) >= d.free_loops
        for check in (verify_signed, verify_jones):
            report = check(d)
            assert report.equal and report.switches == switches
            assert report.stats == graph_stats(g)
        assert verify_signed(d).right == bracket_from_graph(g)
        assert verify_jones(d).right == jones_from_graph(g, writhe(d))
        if is_alternating(d):
            assert verify_main(d).right == bracket_from_graph(build_ribbon(d))

    def test_ten_million_loops(self):
        d = parse_diagram("O 10000000\n")
        tracemalloc.start()
        try:
            report = verify_signed(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.equal and str(report.right) == "d^9999999"
        assert {key: report.stats[key] for key in ("v", "k", "bc", "genus")} == {
            "v": 10000000, "k": 10000000, "bc": 10000000, "genus": 0}
