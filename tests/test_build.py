"""Switch finding and the diagram-to-ribbon construction."""

import itertools
from dataclasses import astuple

import pytest

from vkbr import build, fixtures, limits
from vkbr.build import (
    NotAlternatingError,
    NotColorableError,
    build_ribbon,
    build_signed,
    edge_of_crossing,
    find_switch_set,
)
from vkbr.diagram import (
    Diagram,
    apply_switches,
    components,
    is_alternating,
    parse_diagram,
)
from vkbr.limits import SizeLimitError
from vkbr.randgen import KINDS, random_diagram
from vkbr.ribbon import (
    br_poly,
    format_ribbon,
    genus,
    parse_ribbon,
    signed_br_poly,
    subgraph_stats,
)


def _all_valid_switch_sets(d):
    n = len(d.crossings)
    return [
        combo
        for size in range(n + 1)
        for combo in itertools.combinations(range(n), size)
        if is_alternating(apply_switches(d, combo))
    ]


class TestFindSwitchSet:
    @pytest.mark.parametrize(
        "text",
        [
            fixtures.UNKNOT,
            fixtures.NEGATIVE_KINK,
            fixtures.POSITIVE_KINK,
            fixtures.HOPF_LINK,
            fixtures.TREFOIL,
            fixtures.SAMPLE_KNOT,
        ],
    )
    def test_alternating_needs_no_switches(self, text):
        assert find_switch_set(parse_diagram(text)) == ()

    def test_virtual_hopf_is_not_switchable(self):
        d = parse_diagram(fixtures.VIRTUAL_HOPF)
        assert find_switch_set(d) is None
        assert _all_valid_switch_sets(d) == []

    def test_single_switched_crossing_is_found(self):
        d = apply_switches(parse_diagram(fixtures.TREFOIL), (1,))
        assert not is_alternating(d)
        assert find_switch_set(d) == (1,)

    def test_tie_keeps_lowest_crossing_unswitched(self):
        # Both (0,) and (1,) restore alternation here; the tie rule picks
        # the set avoiding crossing 0.
        d = apply_switches(parse_diagram(fixtures.HOPF_LINK), (0,))
        assert sorted(_all_valid_switch_sets(d), key=len)[:2] == [(0,), (1,)]
        assert find_switch_set(d) == (1,)

    def test_result_is_valid_and_minimal(self):
        for seed in range(40):
            d = random_diagram(5, seed, kind="colorable")
            s = find_switch_set(d)
            assert s is not None
            assert is_alternating(apply_switches(d, s))
            valid = _all_valid_switch_sets(d)
            assert len(s) == min(len(v) for v in valid)
            assert s in valid

    def test_none_means_no_subset_works(self):
        missing = 0
        for seed in range(60):
            d = random_diagram(4, seed, kind="any")
            if find_switch_set(d) is None:
                missing += 1
                assert _all_valid_switch_sets(d) == []
        assert missing > 0

    def test_deterministic(self):
        d = random_diagram(6, 3, kind="colorable")
        assert find_switch_set(d) == find_switch_set(d)


def _alternates_along_components(d):
    """is_alternating as the passes along each component see it."""
    return all(
        over != next_over
        for comp in components(d)
        for (_, over), (_, next_over) in zip(comp, comp[1:] + comp[:1])
    )


def _switch_set_along_components(d):
    """find_switch_set from the passes along each component, and the number
    of groups decided by the tie rule: (switches or None, ties)."""
    n = len(d.crossings)
    parent = list(range(n))
    offset = [0] * n

    def find(i):
        parity = 0
        while parent[i] != i:
            parity ^= offset[i]
            i = parent[i]
        return i, parity

    for comp in components(d):
        for (ci, over_i), (cj, over_j) in zip(comp, comp[1:] + comp[:1]):
            want = 1 ^ over_i ^ over_j
            (ri, pi), (rj, pj) = find(ci), find(cj)
            if ri == rj:
                if pi ^ pj != want:
                    return None, 0
            else:
                parent[ri], offset[ri] = rj, pi ^ pj ^ want
    groups = {}
    for i in range(n):
        root, parity = find(i)
        groups.setdefault(root, ([], []))[parity].append(i)
    switches, ties = [], 0
    for zeros, ones in groups.values():
        if len(ones) == len(zeros):
            ties += 1
            chosen = ones if zeros[0] < ones[0] else zeros  # lowest stays
        else:
            chosen = min(ones, zeros, key=len)
        switches += chosen
    return tuple(sorted(switches)), ties


class TestAlternationRule:
    # One rule says whether an arc alternates; it must agree with the
    # passes read along each component.
    def test_matches_the_component_rules(self):
        missing = ties = 0
        for kind in KINDS:
            for n in range(13):
                for seed in range(10):
                    d = random_diagram(n, seed, kind)
                    switches, tied = _switch_set_along_components(d)
                    assert find_switch_set(d) == switches, (kind, n, seed)
                    assert is_alternating(d) == _alternates_along_components(d)
                    missing += switches is None
                    ties += tied
        assert missing > 0 and ties > 0


class TestBuildRibbon:
    def test_kink_with_under_loop_gives_a_bridge(self):
        g = build_ribbon(parse_diagram(fixtures.NEGATIVE_KINK))
        assert (g.vertex_count, g.edge_count) == (2, 1)
        assert genus(g) == 0
        assert str(br_poly(g)) == "x + 1"

    def test_kink_with_over_loop_gives_a_loop(self):
        g = build_ribbon(parse_diagram(fixtures.POSITIVE_KINK))
        assert (g.vertex_count, g.edge_count) == (1, 1)
        assert genus(g) == 0
        assert str(br_poly(g)) == "y + 1"

    def test_trefoil_graph_is_planar(self):
        d = parse_diagram(fixtures.TREFOIL)
        g = build_ribbon(d)
        assert g.edge_count == 3
        assert genus(g) == 0

    def test_sample_knot_matches_sample_ribbon(self):
        d = parse_diagram(fixtures.SAMPLE_KNOT)
        g = build_ribbon(d)
        reference = parse_ribbon(fixtures.SAMPLE_RIBBON)
        assert (g.vertex_count, g.edge_count) == (2, 3)
        assert genus(g) == 1
        assert br_poly(g) == br_poly(reference)
        rows = sorted(astuple(subgraph_stats(g, m)) for m in range(8))
        wanted = sorted(astuple(subgraph_stats(reference, m)) for m in range(8))
        assert rows == wanted

    def test_crossing_free_diagram_gives_isolated_vertex(self):
        g = build_ribbon(parse_diagram(fixtures.UNKNOT))
        assert (g.vertex_count, g.edge_count) == (1, 0)
        assert str(br_poly(g)) == "1"

    def test_free_loops_become_isolated_vertices(self):
        g = build_ribbon(parse_diagram(fixtures.NEGATIVE_KINK + "O 2\n"))
        assert (g.vertex_count, g.edge_count) == (4, 1)
        assert str(br_poly(g)) == "x + 1"

    def test_non_alternating_is_rejected(self):
        rejected = [
            parse_diagram(fixtures.VIRTUAL_HOPF),
            apply_switches(parse_diagram(fixtures.TREFOIL), (1,)),
        ]
        for kind in KINDS:
            for n in range(9):
                for seed in range(10):
                    d = random_diagram(n, seed, kind)
                    if not is_alternating(d):
                        rejected.append(d)
        assert len(rejected) > 100
        for d in rejected:
            with pytest.raises(NotAlternatingError, match="diagram does not alternate"):
                build_ribbon(d)

    def test_edge_names_follow_crossings(self):
        g = build_ribbon(parse_diagram(fixtures.SAMPLE_KNOT))
        assert [e.name for e in g.edges] == [edge_of_crossing(i) for i in range(3)]
        assert g.edges[1].darts == ("e1a", "e1b")
        assert [name for name, _ in g.vertices] == ["v0", "v1"]

    def test_round_trips_through_text(self):
        g = build_ribbon(parse_diagram(fixtures.SAMPLE_KNOT))
        assert parse_ribbon(format_ribbon(g)) == g


class TestBuildSigned:
    def test_alternating_diagram_gets_no_negative_edges(self):
        d = parse_diagram(fixtures.SAMPLE_KNOT)
        g, switches = build_signed(d)
        assert switches == ()
        assert g == build_ribbon(d)
        assert g.negative_mask() == 0

    def test_switched_crossings_become_negative_edges(self):
        d = apply_switches(parse_diagram(fixtures.HOPF_LINK), (0,))
        g, switches = build_signed(d)
        assert switches == (1,)
        assert g.negative_mask() == 0b10
        assert signed_br_poly(g) != br_poly(g)

    def test_not_colorable_is_rejected(self):
        with pytest.raises(NotColorableError):
            build_signed(parse_diagram(fixtures.VIRTUAL_HOPF))

    def test_bad_explicit_switches_are_rejected(self):
        d = apply_switches(parse_diagram(fixtures.TREFOIL), (1,))
        with pytest.raises(NotAlternatingError):
            build_signed(d, switches=(0,))

    def test_sample_knot_with_one_switch(self):
        base = parse_diagram(fixtures.SAMPLE_KNOT)
        d = apply_switches(base, (1,))
        assert find_switch_set(d) == (1,)
        g, switches = build_signed(d)
        assert switches == (1,)
        assert g.negative_mask() == 0b010
        # Same underlying graph as the unswitched build, signs aside.
        plain = build_ribbon(base)
        assert [e.darts for e in g.edges] == [e.darts for e in plain.edges]
        assert g.vertices == plain.vertices

    def test_switches_are_reported_sorted_and_deduplicated(self):
        d = apply_switches(parse_diagram(fixtures.TREFOIL), (1, 2))
        g, switches = build_signed(d, switches=(2, 1, 2))
        assert switches == (1, 2)
        assert g.negative_mask() == 0b110


@pytest.mark.parametrize("builder", [build_ribbon, build_signed])
def test_free_loops_refused_before_anything_is_built(monkeypatch, builder):
    """Both builders check the free loops' memory before the switch search
    and before any vertex is allocated."""
    def fail(*_):
        raise AssertionError("reached past the memory check")

    monkeypatch.setattr(limits, "physical_memory", lambda: 10**12)
    monkeypatch.setattr(build, "_build", fail)
    monkeypatch.setattr(build, "find_switch_set", fail)
    with pytest.raises(SizeLimitError, match="ribbon graph of a diagram with "
                                             "1000000000000 free loops"):
        builder(Diagram((), 10**12))
