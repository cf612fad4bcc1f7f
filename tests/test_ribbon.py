"""Rotation systems, subgraph statistics and the rank polynomials."""

import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROUND_TRIP_NAMES, end_vertices, random_ribbon, torus_braid, tutte_whitney
from vkbr import fixtures, ribbon
from vkbr.build import build_signed, find_switch_set
from vkbr.diagram import parse_diagram
from vkbr.fixtures import SAMPLE_RIBBON
from vkbr.laurent import LaurentPoly
from vkbr.limits import SizeLimitError
from vkbr.ribbon import (
    BR_VARS,
    TUTTE_VARS,
    Edge,
    RibbonError,
    RibbonGraph,
    SubgraphStats,
    br_poly,
    format_ribbon,
    genus,
    graph_stats,
    parse_ribbon,
    signed_br_poly,
    subgraph_stats,
    tutte_via_br,
)

# Theta graph, both rotations compatible with a plane drawing.
THETA_PLANAR = """\
V u : a1 b1 c1
V w : c2 b2 a2
E a : a1 a2
E b : b1 b2
E c : c1 c2
"""

# Same underlying theta graph, one rotation reversed: torus embedding.
THETA_TWISTED = """\
V u : a1 b1 c1
V w : a2 b2 c2
E a : a1 a2
E b : b1 b2
E c : c1 c2
"""

LOOPS_SEPARATED = """\
V u : a1 a2 b1 b2
E a : a1 a2
E b : b1 b2
"""

LOOPS_INTERLEAVED = """\
V u : a1 b1 a2 b2
E a : a1 a2
E b : b1 b2
"""

NEGATIVE_LOOP = """\
V u : a1 a2
E a : a1 a2 sign=-
"""


class TestParsing:
    def test_round_trip(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        assert format_ribbon(g) == SAMPLE_RIBBON
        assert parse_ribbon(format_ribbon(g)) == g

    def test_counts(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        assert g.vertex_count == 2
        assert g.edge_count == 3
        assert g.full_subset == 0b111

    def test_comments_and_blanks(self):
        g = parse_ribbon("# loop\nV u : a1 a2\n\nE a : a1 a2  # the loop\n")
        assert g.edge_count == 1

    def test_sign_round_trip(self):
        g = parse_ribbon(NEGATIVE_LOOP)
        assert g.edges[0].sign == -1
        assert g.negative_mask() == 1
        assert "sign=-" in format_ribbon(g)
        assert parse_ribbon(format_ribbon(g)) == g

    def test_isolated_vertex(self):
        g = parse_ribbon("V u :\n")
        assert g.vertex_count == 1
        assert g.edge_count == 0
        assert format_ribbon(g) == "V u :\n"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("V u a1\n", "expected 'V name :"),
            ("E a : a1\n", "expected 'E name :"),
            ("E a : a1 a2 sign=0\n", "sign=+ or sign=-"),
            ("W u : a1\n", "unknown directive"),
            ("V u : a-1\n", "bad name"),
            ("E a : a1 a1\n", "distinct darts"),
        ],
    )
    def test_bad_lines(self, text, fragment):
        with pytest.raises(RibbonError, match="line 1") as exc:
            parse_ribbon(text)
        assert fragment in str(exc.value)

    # The line of the vertex or edge at fault in each case below.
    FAULT_LINE = {
        "two vertex positions": 1,
        "defined twice": 2,
        "belongs to no edge": 1,
        "not placed at any vertex": 2,
        "belongs to two edges": 3,
        "edge 'a' defined twice": 3,
    }

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("V u : a1 a1 a2\nE a : a1 a2\n", "two vertex positions"),
            ("V u : a1 a2\nV u : b1 b2\nE a : a1 a2\nE b : b1 b2\n", "defined twice"),
            ("V u : a1 a2 b1\nE a : a1 a2\n", "belongs to no edge"),
            ("V u : a1\nE a : a1 a2\n", "not placed at any vertex"),
            ("V u : a1 a2\nE a : a1 a2\nE b : a1 a2\n", "belongs to two edges"),
            ("V u : a1 a2 b1 b2\nE a : a1 a2\nE a : b1 b2\n", "edge 'a' defined twice"),
        ],
    )
    def test_structural_errors(self, text, fragment):
        with pytest.raises(RibbonError, match=fragment) as exc:
            parse_ribbon(text)
        assert str(exc.value).startswith(f"line {self.FAULT_LINE[fragment]}: ")

    def test_direct_construction_keeps_bare_messages(self):
        with pytest.raises(RibbonError) as exc:
            RibbonGraph([("u", ("a1", "a2")), ("u", ())], [Edge("a", ("a1", "a2"))])
        assert str(exc.value) == "vertex 'u' defined twice"
        assert (exc.value.vertex, exc.value.edge) == (1, None)


class TestSubgraphStats:
    # Every subgraph of SAMPLE_RIBBON, worked out by hand from the rotations.
    TABLE = {
        0b000: SubgraphStats(2, 0, 0, 2),
        0b001: SubgraphStats(1, 1, 0, 1),
        0b010: SubgraphStats(1, 1, 0, 1),
        0b011: SubgraphStats(1, 1, 1, 2),
        0b100: SubgraphStats(2, 0, 1, 3),
        0b101: SubgraphStats(1, 1, 1, 2),
        0b110: SubgraphStats(1, 1, 1, 2),
        0b111: SubgraphStats(1, 1, 2, 1),
    }

    def test_sample_all_subgraphs(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        for subset, expected in self.TABLE.items():
            assert subgraph_stats(g, subset) == expected, bin(subset)

    def test_empty_subgraph_boundary_is_vertex_count(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 5))
            stats = subgraph_stats(g, 0)
            assert stats.bc == g.vertex_count
            assert stats.k == g.vertex_count
            assert stats.r == 0 and stats.n == 0

    def test_subset_out_of_range(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        with pytest.raises(RibbonError, match="out of range"):
            subgraph_stats(g, 8)


class TestGenus:
    def test_sample_has_genus_one(self):
        assert genus(parse_ribbon(SAMPLE_RIBBON)) == 1

    def test_theta_embeddings(self):
        assert genus(parse_ribbon(THETA_PLANAR)) == 0
        assert genus(parse_ribbon(THETA_TWISTED)) == 1

    def test_loop_interleaving(self):
        assert genus(parse_ribbon(LOOPS_SEPARATED)) == 0
        assert genus(parse_ribbon(LOOPS_INTERLEAVED)) == 1


class TestRankPolynomial:
    def test_separated_loops_value(self):
        assert str(br_poly(parse_ribbon(LOOPS_SEPARATED))) == "y^2 + 2*y + 1"

    def test_interleaved_loops_value(self):
        assert str(br_poly(parse_ribbon(LOOPS_INTERLEAVED))) == "y^2*z^2 + 2*y + 1"

    def test_matches_per_subgraph_reference(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 6))
            r_g = g.vertex_count - subgraph_stats(g, g.full_subset).k
            expected = LaurentPoly.zero(BR_VARS)
            for subset in range(1 << g.edge_count):
                s = subgraph_stats(g, subset)
                expected = expected + LaurentPoly.monomial(
                    BR_VARS, 1, x=r_g - s.r, y=s.n, z=s.k - s.bc + s.n
                )
            assert br_poly(g) == expected

    def test_term_count_is_power_of_two(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        total = sum(coeff for _, coeff in br_poly(g).terms())
        assert total == 2 ** g.edge_count

    def test_isolated_vertex_changes_nothing(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        g_iso = parse_ribbon(SAMPLE_RIBBON + "V lonely :\n")
        assert br_poly(g_iso) == br_poly(g)

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(10)
        for _ in range(10):
            g1 = random_ribbon(rng, rng.randint(1, 3), rng.randint(0, 4))
            g2 = random_ribbon(rng, rng.randint(1, 3), rng.randint(0, 4))
            union = _disjoint_union(g1, g2)
            assert br_poly(union) == br_poly(g1) * br_poly(g2)

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "2")
        g = parse_ribbon(SAMPLE_RIBBON)
        with pytest.raises(SizeLimitError, match="3-edge"):
            br_poly(g)


class TestSignedRankPolynomial:
    def test_all_positive_matches_unsigned(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        assert signed_br_poly(g) == br_poly(g)

    def test_negative_loop_value(self):
        # Two subgraphs: empty has s = -1/2, full has s = +1/2; both land
        # on x^(+-1/2) y^(1/2) with no z.
        g = parse_ribbon(NEGATIVE_LOOP)
        assert str(signed_br_poly(g)) == "x^(1/2)*y^(1/2) + x^(-1/2)*y^(1/2)"

    def test_matches_per_subgraph_reference(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 6), signed=True)
            neg = g.negative_mask()
            e_neg_total = bin(neg).count("1")
            r_g = g.vertex_count - subgraph_stats(g, g.full_subset).k
            expected = LaurentPoly.zero(BR_VARS)
            for subset in range(1 << g.edge_count):
                s = subgraph_stats(g, subset)
                e_neg_in = bin(subset & neg).count("1")
                shift = 2 * (2 * e_neg_in - e_neg_total)
                expected = expected + LaurentPoly(
                    BR_VARS,
                    {
                        (
                            4 * (r_g - s.r) + shift,
                            4 * s.n - shift,
                            4 * (s.k - s.bc + s.n),
                        ): 1
                    },
                )
            assert signed_br_poly(g) == expected

    def test_exponent_parity_tracks_negative_count(self):
        # With an odd number of negative edges every x exponent is a
        # half-odd-integer; with an even number they are all integers.
        rng = random.Random(12)
        for _ in range(20):
            g = random_ribbon(rng, rng.randint(1, 3), rng.randint(1, 5), signed=True)
            parity = bin(g.negative_mask()).count("1") % 2
            for exps, _ in signed_br_poly(g).terms():
                assert (2 * exps[0]) % 2 == parity
                assert (2 * exps[1]) % 2 == parity


class TestTutte:
    def test_sample_matches_whitney_sum(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        # Underlying graph: u-w twice, plus a loop at u.
        assert tutte_via_br(g) == tutte_whitney(2, [(0, 1), (0, 1), (0, 0)])

    def test_embedding_independence(self):
        planar, twisted = parse_ribbon(THETA_PLANAR), parse_ribbon(THETA_TWISTED)
        assert br_poly(planar) != br_poly(twisted)
        assert tutte_via_br(planar) == tutte_via_br(twisted)

    def test_single_edge_values(self):
        assert str(tutte_via_br(parse_ribbon("V u : a1 a2\nE a : a1 a2\n"))) == "y"
        bridge = "V u : a1\nV w : a2\nE a : a1 a2\n"
        assert str(tutte_via_br(parse_ribbon(bridge))) == "x"

    def test_random_matches_networkx(self):
        # A third oracle, written apart from this package; networkx is not
        # a dependency.
        nx = pytest.importorskip("networkx")
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        rng = random.Random(14)
        graphs = [random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 8)) for _ in range(20)]
        loops = parallel = False
        for g in graphs:
            ends = [tuple(sorted(pair)) for pair in end_vertices(g)]
            loops |= any(u == w for u, w in ends)
            parallel |= any(u != w and ends.count((u, w)) > 1 for u, w in ends)
            multigraph = nx.MultiGraph(ends)
            multigraph.add_nodes_from(range(g.vertex_count))
            expected = sympy.Poly(sympy.expand(nx.tutte_polynomial(multigraph)), x, y)
            got = {tuple(map(int, exps)): c for exps, c in tutte_via_br(g).terms()}
            assert got == expected.as_dict()
        assert loops and parallel

    def test_variables(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        assert tutte_via_br(g).variables == TUTTE_VARS


EDGE_AB = Edge("e", ("a", "b"))


class TestConstruction:
    def test_edge_validation(self):
        with pytest.raises(RibbonError, match="distinct darts"):
            Edge("a", ("x", "x"))
        with pytest.raises(RibbonError, match="sign"):
            Edge("a", ("x", "y"), 2)

    def test_direct_equality(self):
        g1 = RibbonGraph([("u", ("a1", "a2"))], [Edge("a", ("a1", "a2"))])
        g2 = parse_ribbon("V u : a1 a2\nE a : a1 a2\n")
        assert g1 == g2
        assert g1 != parse_ribbon(NEGATIVE_LOOP)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Edge("a", ("x", "y"), 0), "expected sign=+ or sign=-, got 0"),
            (lambda: Edge("a", ("x", "y"), "sign=-"), "expected sign=+ or sign=-, got 'sign=-'"),
            (lambda: Edge("e#", ("a", "b")), "bad name 'e#'"),
            (lambda: Edge("e", ("a", "b:")), "bad name 'b:'"),
            (lambda: Edge("e", "ab"), "edge 'e' must pair two distinct darts, got 'ab'"),
            (lambda: RibbonGraph([("v 0", ("a", "b"))], [EDGE_AB]), "bad name 'v 0'"),
            (lambda: RibbonGraph([("v", ("a", "b", "é"))], [EDGE_AB]), "bad name 'é'"),
        ],
    )
    def test_types_refuse_what_the_format_cannot_print(self, build, message):
        with pytest.raises(RibbonError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "vertices, edges, at",
        [
            ([("u", "a", "b")], [], {"vertex": 0}),
            ([("u", ("a", "b")), ("w", 5)], [EDGE_AB], {"vertex": 1}),
            ([("u", ("a", "b"))], [("e", "a", "b")], {"edge": 0}),
            ([("u", ("a", "b"))], EDGE_AB, {}),
            (None, [], {}),
            ([("u", "ab")], [EDGE_AB], {"vertex": 0}),
            ([("u", ("a", "b")), "wc"], [EDGE_AB], {"vertex": 1}),
        ],
    )
    def test_wrong_element_types_raise_ribbon_error(self, vertices, edges, at):
        with pytest.raises(RibbonError) as exc:
            RibbonGraph(vertices, edges)
        assert (exc.value.vertex, exc.value.edge) == (at.get("vertex"), at.get("edge"))
        assert str(exc.value).startswith("".join(f"{kind} {i}: " for kind, i in at.items()))

    def test_containers_are_read_as_tuples(self):
        g = RibbonGraph([("u", ["a1", "a2"])], [Edge("a", ["a1", "a2"])])
        assert g == parse_ribbon("V u : a1 a2\nE a : a1 a2\n")
        assert isinstance(g.edges[0].darts, tuple)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_accepted_graph_round_trips(self, data):
        """A random signed graph with some names and signs redrawn, some of
        them unprintable: the types either refuse it or it prints as a
        file that parses back equal."""
        rng = random.Random(data.draw(st.integers(0, 99)))
        base = random_ribbon(rng, rng.randint(1, 3), rng.randint(0, 3), signed=True)
        rename = {}

        def name(old):
            if old not in rename:
                rename[old] = data.draw(st.one_of(st.just(old), ROUND_TRIP_NAMES))
            return rename[old]

        box = data.draw(st.sampled_from([tuple, list]))
        signs = [1, -1, True, 0, -1.0, "sign=-"]
        try:
            g = RibbonGraph(
                [(name(v), box(map(name, darts))) for v, darts in base.vertices],
                [
                    Edge(name(e.name), box(map(name, e.darts)),
                         data.draw(st.sampled_from([e.sign] * 3 + signs)))
                    for e in base.edges
                ],
            )
        except RibbonError:
            return
        assert parse_ribbon(format_ribbon(g)) == g


COLORABLE = [
    name for name, text in sorted(fixtures.DIAGRAMS.items())
    if find_switch_set(parse_diagram(text)) is not None
]


def _rotation_table(g: RibbonGraph):
    """The site table of g derived from its rotations and edge darts alone:
    edge s's first dart with in port 4s and out port 4s+3, its second with
    in port 4s+2 and out port 4s+1, an arc from each dart's out port to the
    in port of the next dart counterclockwise, and each edge's two end
    vertices."""
    in_port, out_port, vertex_of, mate = {}, {}, {}, {}
    for s, edge in enumerate(g.edges):
        first, second = edge.darts
        in_port[first], out_port[first] = 4 * s, 4 * s + 3
        in_port[second], out_port[second] = 4 * s + 2, 4 * s + 1
    for vi, (_, darts) in enumerate(g.vertices):
        for dart, nxt in zip(darts, darts[1:] + darts[:1]):
            vertex_of[dart] = vi
            mate[out_port[dart]] = in_port[nxt]
            mate[in_port[nxt]] = out_port[dart]
    return (
        tuple(mate[p] for p in range(4 * len(g.edges))),
        tuple((vertex_of[a], vertex_of[b]) for a, b in (e.darts for e in g.edges)),
    )


class TestSiteTable:
    # A graph reads its rotations once into _sites, which frontier
    # contraction and the reference sweep both read.
    @pytest.mark.parametrize("name", COLORABLE)
    def test_every_fixture_graph(self, name):
        g, _ = build_signed(parse_diagram(fixtures.DIAGRAMS[name]))
        assert g._sites == _rotation_table(g)

    def test_sample_graphs(self):
        for text in (SAMPLE_RIBBON, THETA_PLANAR, THETA_TWISTED, LOOPS_SEPARATED,
                     LOOPS_INTERLEAVED, NEGATIVE_LOOP):
            g = parse_ribbon(text)
            assert g._sites == _rotation_table(g)

    def test_random_graphs(self):
        rng = random.Random(41)
        graphs = [random_ribbon(rng, rng.randint(1, 8), rng.randint(0, 12), signed=True)
                  for _ in range(200)]
        assert any(not darts for g in graphs for _, darts in g.vertices)
        assert any(u == w for g in graphs for u, w in g._sites[1])
        assert any(g.negative_mask() for g in graphs)
        for g in graphs:
            assert g._sites == _rotation_table(g)

    @pytest.mark.parametrize("p, q", [(2, 1001), (3, 100)])
    def test_torus_braid_graphs(self, p, q):
        g, _ = build_signed(parse_diagram(torus_braid(p, q)))
        assert g._sites == _rotation_table(g)

    def test_built_once(self, monkeypatch):
        g = parse_ribbon(SAMPLE_RIBBON)
        assert ribbon._identity_plan(g, "Jones polynomial")[0] is g._sites[0]
        read = []
        rows = ribbon._frontier_rows

        def spy(sites, neg):
            read.append(sites)
            return rows(sites, neg)

        monkeypatch.setattr(ribbon, "_frontier_rows", spy)
        br_poly(g, signed=True)
        assert len(read) == 1 and read[0] is g._sites

    def test_equality_and_repr_ignore_the_table(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        other = parse_ribbon(SAMPLE_RIBBON)
        object.__setattr__(other, "_sites", ((), ()))
        assert other == g and repr(other) == repr(g)
        assert repr(g) == "RibbonGraph(2 vertices, 3 edges)"

    def test_the_reference_trace_never_reads_the_table(self):
        # A wrong table: edge 0's two joins exchanged (its ports 1 and 3
        # swapped).  The empty subgraph then closes bc({e0}) = v +- 1 loops
        # instead of v, so br_poly's one x^(v-k) y^0 term gains a power of
        # z, while subgraph_stats, which walks the names, moves nowhere.
        rng = random.Random(43)
        graphs = [build_signed(parse_diagram(fixtures.DIAGRAMS[name]))[0] for name in COLORABLE]
        graphs += [parse_ribbon(text) for text in (SAMPLE_RIBBON, THETA_PLANAR, THETA_TWISTED,
                   LOOPS_SEPARATED, LOOPS_INTERLEAVED, NEGATIVE_LOOP)]
        graphs += [random_ribbon(rng, rng.randint(1, 5), rng.randint(1, 8), signed=True)
                   for _ in range(40)]
        swap = {1: 3, 3: 1}  # port ids 1 and 3 are edge 0's
        for g in filter(lambda g: g.edges, graphs):
            mate, verts = g._sites
            wrong = [0] * len(mate)
            for i, j in enumerate(mate):
                wrong[swap.get(i, i)] = swap.get(j, j)
            bad = RibbonGraph(g.vertices, g.edges)
            object.__setattr__(bad, "_sites", (tuple(wrong), verts))
            for subset in range(1 << g.edge_count):
                assert subgraph_stats(bad, subset) == subgraph_stats(g, subset)
            assert graph_stats(bad) == graph_stats(g) and genus(bad) == genus(g)
            assert br_poly(bad) != br_poly(g)

    def test_frozen(self):
        g = parse_ribbon(SAMPLE_RIBBON)
        with pytest.raises(FrozenInstanceError):
            g.edges = ()


def _disjoint_union(g1: RibbonGraph, g2: RibbonGraph) -> RibbonGraph:
    def renamed(g, tag):
        verts = [(f"{tag}{n}", tuple(f"{tag}{d}" for d in ds)) for n, ds in g.vertices]
        edges = [
            Edge(f"{tag}{e.name}", (f"{tag}{e.darts[0]}", f"{tag}{e.darts[1]}"), e.sign)
            for e in g.edges
        ]
        return verts, edges

    v1, e1 = renamed(g1, "p_")
    v2, e2 = renamed(g2, "q_")
    return RibbonGraph(v1 + v2, e1 + e2)
