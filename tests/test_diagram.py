"""Tests for diagram parsing, state splitting, bracket and Jones."""

import io
import random
import sys
import time
from fractions import Fraction
from math import ceil, comb, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROUND_TRIP_NAMES, torus_braid
from vkbr import _kernels, diagram, fixtures
from vkbr.cli import main
from vkbr.diagram import (
    BIG_D,
    Crossing,
    Diagram,
    DiagramError,
    StateStats,
    apply_switches,
    components,
    format_diagram,
    is_alternating,
    jones,
    jones_via_bracket,
    kauffman_bracket,
    parse_diagram,
    split_stats,
    state_table,
    switch_crossing,
    writhe,
)
from vkbr.fixtures import HOPF_LINK, NEGATIVE_KINK, POSITIVE_KINK, TREFOIL, VIRTUAL_HOPF
from vkbr.laurent import LaurentPoly, parse_poly
from vkbr.limits import CAP_ENV_VAR, SizeLimitError
from vkbr.randgen import KINDS, random_diagram

T = ("t",)


def substituted_bracket_jones(d):
    """(-1)^w t^(3w/4) times the bracket at A = t^(-1/4), B = t^(1/4),
    d = -t^(1/2) - t^(-1/2): the Jones assembly through the whole bracket."""
    w = writhe(d)
    value = kauffman_bracket(d).substitute(
        {
            "A": parse_poly("t^(-1/4)", T),
            "B": parse_poly("t^(1/4)", T),
            "d": parse_poly("-t^(1/2) - t^(-1/2)", T),
        },
        T,
    )
    return parse_poly(f"-t^({3 * w}/4)" if w % 2 else f"t^({3 * w}/4)", T) * value


def sparse_horner(groups):
    """The sum over p of D^p groups[p] by Horner's rule on LaurentPoly
    products, one product by D per power."""
    big_d = parse_poly("-t^(1/2) - t^(-1/2)", T)
    total = LaurentPoly.zero(T)
    for power in range(max(groups, default=-1), -1, -1):
        group = {(q,): c for q, c in groups.get(power, {}).items()}
        total = total * big_d + LaurentPoly(T, group)
    return total


class TestParsing:
    def test_kink_roundtrip(self):
        d = parse_diagram(NEGATIVE_KINK)
        assert len(d.crossings) == 1
        assert d.crossings[0] == Crossing(("a", "b", "b", "a"), 1)
        assert format_diagram(d) == NEGATIVE_KINK
        assert parse_diagram(format_diagram(d)) == d

    def test_comments_and_blank_lines(self):
        d = parse_diagram("# a kink\n\nX a b b a o=1  # the crossing\nO 2\n")
        assert len(d.crossings) == 1
        assert d.free_loops == 2

    def test_free_loop_lines_accumulate(self):
        assert parse_diagram("O 1\nO 2\n").free_loops == 3

    def test_empty_text_is_empty_diagram(self):
        d = parse_diagram("")
        assert d == Diagram(())

    def test_roundtrip_random(self):
        for seed in range(20):
            d = random_diagram(seed % 7, seed, "any")
            assert parse_diagram(format_diagram(d)) == d

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("X a b b a o=2\n", "o=1 or o=3"),
            ("X a b b o=1\n", "4 arc labels"),
            ("X a b b a a o=1\n", "4 arc labels"),
            ("Y a b b a o=1\n", "unknown directive"),
            ("O -1\n", "nonnegative"),
            ("O x\n", "nonnegative"),
            ("X a! b b a o=1\n", "bad arc label"),
        ],
    )
    def test_bad_lines_name_line_one(self, text, fragment):
        with pytest.raises(DiagramError, match="line 1"):
            parse_diagram(text)
        with pytest.raises(DiagramError, match=fragment):
            parse_diagram(text)

    def test_free_loop_count_past_the_digit_limit_names_its_line(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert parse_diagram("O 1" + "0" * 4299 + "\n").free_loops == 10**4299
            with pytest.raises(DiagramError, match="^line 2: O count has more than 4300 digits$"):
                parse_diagram("X a b b a o=1\nO 1" + "0" * 4300 + "\n")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_triple_use_names_offending_line(self):
        text = "X a b b a o=1\nX a c c a o=1\n"
        with pytest.raises(DiagramError, match="line 2"):
            parse_diagram(text)

    def test_dangling_arc_detected(self):
        text = "X a b b c o=1\n"
        with pytest.raises(DiagramError, match="'c'|'a'"):
            parse_diagram(text)

    def test_dangling_arc_names_its_line(self):
        text = "X a b b a o=1\n\n# comment\nX c d d e o=1\n"
        with pytest.raises(DiagramError, match=r"^line 4: arc 'c' never leaves a crossing$"):
            parse_diagram(text)

    def test_arc_that_never_enters_names_its_line(self):
        with pytest.raises(DiagramError, match=r"^line 1: arc 'a' never enters a crossing$"):
            parse_diagram("X b c c a o=1\n")

    def test_direct_construction_names_the_crossing(self):
        crossings = (Crossing(("a", "b", "b", "a"), 1), Crossing(("a", "c", "c", "a"), 1))
        with pytest.raises(DiagramError, match="^crossing 1: arc 'a' occurs twice") as exc:
            Diagram(crossings)
        assert exc.value.crossing == 1

    def test_direct_construction_validates(self):
        with pytest.raises(DiagramError):
            Crossing(("a", "b", "b", "a"), 2)
        with pytest.raises(DiagramError):
            Diagram((Crossing(("a", "b", "b", "c"), 1),))
        with pytest.raises(DiagramError):
            Diagram((), free_loops=-1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Crossing(("a!", "b", "b", "a"), 1), "bad arc label 'a!'"),
            (lambda: Crossing(("x#", "y", "x#", "y"), 1), "bad arc label 'x#'"),
            (lambda: Crossing(("a", "b", "b", 1), 1), "bad arc label 1"),
            (lambda: Crossing("abcd", 1), "crossing needs 4 arc labels, got 'abcd'"),
            (lambda: Crossing(("a", "b"), 1), "crossing needs 4 arc labels, got ('a', 'b')"),
            (lambda: Crossing(("a", "b", "b", "a"), True), "expected o=1 or o=3, got True"),
            (lambda: Crossing(("a", "b", "b", "a"), "o=1"), "expected o=1 or o=3, got 'o=1'"),
            (lambda: Diagram((), 1.5), "free loops must be a nonnegative int, got 1.5"),
            (lambda: Diagram((), True), "free loops must be a nonnegative int, got True"),
        ],
    )
    def test_types_refuse_what_the_format_cannot_print(self, build, message):
        with pytest.raises(DiagramError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "crossings, index",
        [
            ([("a", "b", "b", "a")], 0),
            ([Crossing(("a", "b", "b", "a"), 1), "X c d d c o=1"], 1),
            (Crossing(("a", "b", "b", "a"), 1), None),
            (None, None),
        ],
    )
    def test_wrong_element_types_raise_diagram_error(self, crossings, index):
        with pytest.raises(DiagramError) as exc:
            Diagram(crossings)
        assert exc.value.crossing == index

    def test_containers_are_read_as_tuples(self):
        d = Diagram([Crossing(["a", "b", "b", "a"], 1)])
        assert d == parse_diagram(NEGATIVE_KINK)
        assert isinstance(d.crossings, tuple) and isinstance(d.crossings[0].ports, tuple)
        assert hash(d) == hash(parse_diagram(NEGATIVE_KINK))

    def test_tabs_and_trailing_comments_are_read(self):
        assert parse_diagram("X\ta b b a o=1 # c\n") == parse_diagram(NEGATIVE_KINK)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_accepted_diagram_round_trips(self, data):
        """A random diagram with some arc labels, over entries and the loop
        count redrawn, some of them unprintable: the types either refuse
        it or it prints as a file that parses back equal."""
        base = random_diagram(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 99)))
        rename = {}
        for c in base.crossings:
            for label in c.ports:
                if label not in rename:
                    rename[label] = data.draw(st.one_of(st.just(label), ROUND_TRIP_NAMES))
        box = data.draw(st.sampled_from([tuple, list]))
        try:
            crossings = [
                Crossing(
                    box(rename[label] for label in c.ports),
                    data.draw(st.sampled_from([c.over_in] * 3 + [1, 3, True, 2, "o=1"])),
                )
                for c in base.crossings
            ]
            d = Diagram(box(crossings), data.draw(st.sampled_from([0, 3, True, 1.5, -1])))
        except DiagramError:
            return
        assert parse_diagram(format_diagram(d)) == d


class TestStrandStructure:
    def test_kink_is_one_component(self):
        d = parse_diagram(NEGATIVE_KINK)
        assert components(d) == (((0, False), (0, True)),)

    def test_virtual_hopf_is_two_components(self):
        d = parse_diagram(VIRTUAL_HOPF)
        assert components(d) == (((0, False),), ((0, True),))

    def test_trefoil_is_one_component_of_six_passes(self):
        d = parse_diagram(TREFOIL)
        (comp,) = components(d)
        assert len(comp) == 6
        assert sorted(comp) == [(0, False), (0, True), (1, False), (1, True), (2, False), (2, True)]

    def test_alternation_predicate(self):
        assert is_alternating(parse_diagram(NEGATIVE_KINK))
        assert is_alternating(parse_diagram(POSITIVE_KINK))
        assert is_alternating(parse_diagram(TREFOIL))
        assert is_alternating(parse_diagram(HOPF_LINK))
        switched = apply_switches(parse_diagram(TREFOIL), [1])
        assert not is_alternating(switched)

    def test_single_pass_components_cannot_alternate(self):
        # Each component of the virtual Hopf link crosses only once, so its
        # cyclic pass sequence is a fixed parity; no switch can help either.
        assert not is_alternating(parse_diagram(VIRTUAL_HOPF))
        assert not is_alternating(apply_switches(parse_diagram(VIRTUAL_HOPF), [0]))

    def test_writhe_and_signs(self):
        assert writhe(parse_diagram(NEGATIVE_KINK)) == -1
        assert writhe(parse_diagram(POSITIVE_KINK)) == 1
        assert writhe(parse_diagram(TREFOIL)) == -3

    def test_switch_is_an_involution(self):
        for text in (NEGATIVE_KINK, POSITIVE_KINK, TREFOIL, HOPF_LINK):
            d = parse_diagram(text)
            for i, c in enumerate(d.crossings):
                assert switch_crossing(switch_crossing(c)) == c
                assert switch_crossing(c).sign == -c.sign
            assert apply_switches(apply_switches(d, range(len(d.crossings))), range(len(d.crossings))) == d

    def test_switch_preserves_geometry(self):
        c = Crossing(("a", "b", "c", "d"), 1)
        assert switch_crossing(c) == Crossing(("b", "c", "d", "a"), 3)
        c = Crossing(("a", "b", "c", "d"), 3)
        assert switch_crossing(c) == Crossing(("d", "a", "b", "c"), 1)

    def test_switching_a_missing_crossing_rejected(self):
        with pytest.raises(DiagramError, match="^no crossing 1 to switch$"):
            apply_switches(parse_diagram(NEGATIVE_KINK), (0, 1))


def _label_mate(d):
    """The arc pairing over port ids 4c+p, derived from the labels here."""
    in_port, out_port = {}, {}
    for ci, c in enumerate(d.crossings):
        for port, label in enumerate(c.ports):
            side = in_port if port in (0, c.over_in) else out_port
            side[label] = 4 * ci + port
    mate = [-1] * (4 * len(d.crossings))
    for label, i in out_port.items():
        mate[i] = in_port[label]
        mate[in_port[label]] = i
    return tuple(mate)


class TestPortTable:
    # A diagram reads its arcs once into _mate, which every walk, the
    # builder and the kernels share.
    @pytest.mark.parametrize("name", sorted(fixtures.DIAGRAMS))
    def test_every_fixture(self, name):
        d = parse_diagram(fixtures.DIAGRAMS[name])
        assert d._mate == _label_mate(d)

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_diagrams(self, kind):
        for n in range(13):
            for seed in range(5):
                d = random_diagram(n, seed, kind)
                assert d._mate == _label_mate(d), (n, seed)

    @pytest.mark.parametrize("p, q", [(2, 1001), (3, 100)])
    def test_torus_braids(self, p, q):
        d = parse_diagram(torus_braid(p, q))
        assert d._mate == _label_mate(d)

    def test_equality_hash_and_repr_ignore_the_table(self):
        d = parse_diagram(TREFOIL + "O 1\n")
        other = Diagram(d.crossings, d.free_loops)
        object.__setattr__(other, "_mate", ())
        assert other == d and hash(other) == hash(d) and repr(other) == repr(d)
        assert repr(d) == f"Diagram(crossings={d.crossings!r}, free_loops=1)"
        with pytest.raises(TypeError):
            Diagram(d.crossings, 1, d._mate)


class TestStateSplitting:
    def test_negative_kink_states(self):
        d = parse_diagram(NEGATIVE_KINK)
        assert split_stats(d, 0) == StateStats(1, 0, 1)
        assert split_stats(d, 1) == StateStats(0, 1, 2)

    def test_positive_kink_states(self):
        d = parse_diagram(POSITIVE_KINK)
        assert split_stats(d, 0) == StateStats(1, 0, 2)
        assert split_stats(d, 1) == StateStats(0, 1, 1)

    def test_free_loops_add_to_delta(self):
        d = parse_diagram("X a b b a o=1\nO 3\n")
        assert split_stats(d, 0) == StateStats(1, 0, 4)

    def test_state_table_length(self):
        d = parse_diagram(TREFOIL)
        assert len(state_table(d)) == 8

    def test_state_table_reads_the_labels_once(self, monkeypatch):
        d = random_diagram(12, 1, "alternating")
        expected = tuple(split_stats(d, state) for state in range(1 << 12))
        calls = []
        original = diagram._slot_maps

        def counted(d):
            calls.append(d)
            return original(d)

        monkeypatch.setattr(diagram, "_slot_maps", counted)
        # The reference trace keeps its own pairing, apart from _mate.
        object.__setattr__(d, "_mate", ())
        assert state_table(d) == expected
        assert len(calls) <= 1

    def test_delta_changes_by_at_most_one_per_toggle(self):
        # A toggle merges two curves, splits one, or (only possible with
        # virtual crossings around) reroutes a single curve through itself.
        rng = random.Random(5)
        for _ in range(40):
            d = random_diagram(rng.randrange(1, 7), rng.randrange(10**6), "any")
            state = rng.randrange(1 << len(d.crossings))
            bit = 1 << rng.randrange(len(d.crossings))
            before = split_stats(d, state).delta
            after = split_stats(d, state ^ bit).delta
            assert abs(before - after) <= 1

    def test_virtual_hopf_toggle_keeps_delta(self):
        # The unchanged case is real: both splittings of the virtual Hopf
        # link leave a single curve.
        d = parse_diagram(VIRTUAL_HOPF)
        assert split_stats(d, 0) == StateStats(1, 0, 1)
        assert split_stats(d, 1) == StateStats(0, 1, 1)

    def test_state_out_of_range(self):
        with pytest.raises(DiagramError):
            split_stats(parse_diagram(NEGATIVE_KINK), 2)


class TestBracket:
    def test_kink_brackets(self):
        assert str(kauffman_bracket(parse_diagram(NEGATIVE_KINK))) == "A + B*d"
        assert str(kauffman_bracket(parse_diagram(POSITIVE_KINK))) == "A*d + B"

    def test_free_loops_only(self):
        assert str(kauffman_bracket(parse_diagram("O 1\n"))) == "1"
        assert str(kauffman_bracket(parse_diagram("O 2\n"))) == "d"
        assert str(kauffman_bracket(parse_diagram(""))) == "d^-1"

    def test_virtual_hopf_bracket(self):
        # Standard value: the two states are single curves, so no d appears.
        assert str(kauffman_bracket(parse_diagram(VIRTUAL_HOPF))) == "A + B"

    def test_crossing_cap_respected(self, monkeypatch):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "3")
        d = random_diagram(4, 1, "any")
        with pytest.raises(SizeLimitError, match="VKBR_MAX_CROSSINGS"):
            kauffman_bracket(d)
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "4")
        assert kauffman_bracket(d)

    def test_cap_env_validation(self, monkeypatch):
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "many")
        with pytest.raises(SizeLimitError):
            kauffman_bracket(parse_diagram(NEGATIVE_KINK))
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "-1")
        with pytest.raises(SizeLimitError, match="must be nonnegative, got -1"):
            kauffman_bracket(parse_diagram(NEGATIVE_KINK))


class TestJones:
    def test_two_component_unlink(self):
        assert str(jones(parse_diagram("O 2\n"))) == "-t^(1/2) - t^(-1/2)"

    def test_switch_changes_jones_only_through_writhe_and_bracket(self):
        rng = random.Random(29)
        for _ in range(15):
            d = random_diagram(rng.randrange(1, 6), rng.randrange(10**6), "any")
            i = rng.randrange(len(d.crossings))
            switched = apply_switches(d, [i])
            assert writhe(switched) == writhe(d) - 2 * d.crossings[i].sign
            # Recomputation from scratch equals reassembly from the switched
            # diagram's own bracket and writhe.
            assert jones(switched) == substituted_bracket_jones(switched)


class TestJonesAtItsPoint:
    """jones evaluates the state sum at the Jones point directly; the
    substituted bracket is its reference."""

    def assert_equals_substituted_bracket(self, d):
        if not d.crossings and not d.free_loops:
            for route in (jones, jones_via_bracket):
                with pytest.raises(DiagramError, match="empty diagram"):
                    route(d)
            return
        expected = substituted_bracket_jones(d)
        assert jones(d) == expected
        assert jones_via_bracket(d) == expected

    @pytest.mark.parametrize("name", sorted(fixtures.DIAGRAMS))
    def test_every_fixture(self, name):
        self.assert_equals_substituted_bracket(parse_diagram(fixtures.DIAGRAMS[name]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_diagrams(self, kind):
        for n in range(11):
            for seed in range(3):
                self.assert_equals_substituted_bracket(random_diagram(n, seed, kind))

    def test_free_loops_with_crossings(self):
        for text in (TREFOIL + "O 2\n", fixtures.SAMPLE_KNOT + "O 3\n"):
            self.assert_equals_substituted_bracket(parse_diagram(text))


class TestHornerInD:
    """Sums in powers of D, which a dense Horner's rule once computed: the
    contraction's product by its loop weight against LaurentPoly products."""

    @staticmethod
    def weighed_sum(groups):
        terms = {}
        for power, group in groups.items():
            for q, c in _kernels._weighed(group, diagram._D_QUARTERS, power, 0).items():
                terms[(q,)] = terms.get((q,), 0) + c
        return LaurentPoly(T, terms)

    @pytest.mark.parametrize("groups", [
        {},
        {0: {}},
        {0: {0: 1}},
        {0: {-7: 3}},
        {4: {3: -2}},
        {5: {-7: 2, 1: -1, 9: 4}},
        {0: {0: 1}, 3: {-5: 2, 9: -1}, 7: {2: 4}},
        {0: {}, 2: {}, 4: {-1: 1}},
        {1: {-3: 1}, 2: {}, 6: {5: -1, -9: 2}},
        {0: {40: 1}, 1: {-40: 1}},
        {2: {0: 1}, 0: {-2: 1, 2: 1}},
    ])
    def test_cases(self, groups):
        assert self.weighed_sum(groups) == sparse_horner(groups)

    def test_random_groups(self):
        # Odd and negative quarter exponents, gaps and empty groups.
        rng = random.Random(5)
        for _ in range(200):
            groups = {
                power: {rng.randrange(-30, 31): rng.randrange(-4, 5)
                        for _ in range(rng.randrange(4))}
                for power in rng.sample(range(12), rng.randrange(5))
            }
            assert self.weighed_sum(groups) == sparse_horner(groups)

    def test_negative_power_refused(self):
        # No site and no loop: the sum would be D^-1.
        with pytest.raises(ValueError, match="D\\^-1"):
            diagram._jones_contraction((), [], 0, 0, 0)


class TestJonesDigits:
    """A sum whose coefficients could pass the digits Python prints of an
    int is refused before D^m is built for the m free loops."""

    def test_many_free_loops_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=r"D\^99999: .* 30103 digits, .* 4300-digit"):
            jones(parse_diagram("O 100000\n"))
        assert time.perf_counter() - start < 1

    def test_under_the_limit_unchanged(self):
        assert jones(parse_diagram("O 200\n")) == BIG_D ** 199

    def test_bound_follows_the_limit(self, monkeypatch):
        # D^399 over one state: coefficients below 2^400, so 121 digits.
        d = parse_diagram("O 400\n")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 120)
        with pytest.raises(SizeLimitError, match="D\\^399: .* 121 digits"):
            jones(d)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 121)
        assert jones(d) == BIG_D ** 399
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        assert jones(d) == BIG_D ** 399

    def test_small_coefficients_pass_a_low_limit(self, monkeypatch):
        # Every coefficient of V(T(2,101)) is +-1, though 2^100 states sum.
        monkeypatch.setenv(CAP_ENV_VAR, "101")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 60)
        value = jones(parse_diagram(torus_braid(2, 101)))
        assert {abs(c) for _, c in value.terms()} == {1}

    def test_free_loops_enter_the_bound(self, monkeypatch):
        # The largest coefficient of the knot's polynomial, plus 400 bits.
        knot = jones(parse_diagram(torus_braid(2, 13)))
        top = max(abs(c) for _, c in knot.terms())
        digits = ceil((top.bit_length() + 400) * log10(2))
        d = parse_diagram(torus_braid(2, 13) + "O 400\n")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits - 1)
        with pytest.raises(SizeLimitError, match=f"D\\^400: .* {digits} digits"):
            jones(d)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits)
        assert jones(d) == knot * BIG_D ** 400

    def test_many_free_loops_take_one_pass(self):
        # D^3999 = -(t^(1/2) + t^(-1/2))^3999, whose coefficients are
        # binomials; one product by D per loop takes seconds on O 4000.
        start = time.perf_counter()
        value = jones(parse_diagram("O 4000\n"))
        assert time.perf_counter() - start < 1
        assert len(value.terms()) == 4000
        assert value.coefficient(t=Fraction(3999, 2)) == -1
        assert value.coefficient(t=Fraction(-1, 2)) == -comb(3999, 1999)

    def test_cli_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("O 100000\n"))
        assert main(["jones", "-"]) == 2
        assert capsys.readouterr().err.startswith("error: the Jones sum reaches D^99999")
