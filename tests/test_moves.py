"""Invariance oracles at any size.  The Jones polynomial is an invariant
of virtual links (L. H. Kauffman, "Virtual knot theory", European J.
Combin. 20, 1999), so a chain of Reidemeister I and II moves on any
diagram leaves it unchanged, and a mirror image takes t to t^-1.  A kink
multiplies the bracket by a factor of its own, exactly in A, B and d, and
reversing every strand changes neither polynomial.
Only the unmoved diagrams, all small, are summed by the sweep; the moved
ones are checked against them, however large they grow.  Switching every
crossing gives the graph of the other checkerboard colouring, a second
right side; and under each kernel fault, verify's point check flags most
of the wrong results that it would otherwise report as equal."""

import json
import random
from collections import Counter

import pytest

from helpers import braid_closure, mirror, r1_move, r2_move, reverse, torus_braid, torus_knot_jones
from reference import add_kernel_fault, add_loop_cap_fault, add_slot_fault, swept_bracket
from vkbr import diagram, fixtures, verify
from vkbr.build import build_ribbon, build_signed, find_switch_set
from vkbr.cli import main
from vkbr.diagram import (
    Diagram,
    apply_switches,
    components,
    is_alternating,
    jones,
    kauffman_bracket,
    parse_diagram,
    writhe,
)
from vkbr.laurent import LaurentPoly
from vkbr.limits import CAP_ENV_VAR
from vkbr.randgen import KINDS, random_diagram
from vkbr.ribbon import genus
from vkbr.verify import (
    bracket_from_graph,
    jones_from_graph,
    verify_jones,
    verify_main,
    verify_signed,
)


def arcs(text):
    return sorted({label for c in parse_diagram(text).crossings for label in c.ports})


# Every fixture with two arcs, and random diagrams of 1 to 8 crossings.
INPUTS = [text for _, text in sorted(fixtures.DIAGRAMS.items()) if len(arcs(text)) >= 2] + [
    diagram.format_diagram(random_diagram(n, seed, "any")) for n in range(1, 9) for seed in range(10)
]


def r2_chain(text, seed, same_entry=False):
    """text after 1 to 3 seeded R2 moves between any two arcs; with
    same_entry, each move's second crossing takes the over strand in at
    the first one's port, which makes it no move at all."""
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(arcs(text), 2)
        o1 = rng.choice((1, 3))
        text = r2_move(text, a, b, o1, o1 if same_entry else None)
    return text


def mixed_chain(text, seed):
    """text after 1 to 3 seeded moves, each a kink on any arc or an R2
    move between any two arcs."""
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            text = r1_move(text, rng.choice(arcs(text)), rng.choice((1, 3)))
        else:
            text = r2_move(text, *rng.sample(arcs(text), 2), rng.choice((1, 3)))
    return text


def swept_jones(text):
    """The Jones polynomial from the state sweep's rows, read at the Jones
    point."""
    d = parse_diagram(text)
    return diagram.at_jones_point(swept_bracket(d), writhe(d))


def inverted(poly):
    """poly(t^-1)."""
    return LaurentPoly._make(poly.variables, {(-q,): c for (q,), c in poly._terms.items()})


@pytest.fixture(scope="module")
def expected():
    return [swept_jones(text) for text in INPUTS]


# Every fixture with an arc, and random diagrams of 1 to 7 crossings.
KINKED = [text for _, text in sorted(fixtures.DIAGRAMS.items()) if arcs(text)] + [
    diagram.format_diagram(random_diagram(n, seed, "any")) for n in range(1, 8) for seed in range(5)
]
A, B, D = (LaurentPoly.variable(diagram.BRACKET_VARS, name) for name in diagram.BRACKET_VARS)
# A kink entered over at port o multiplies the bracket by this factor: its
# crossing's A-splitting closes a loop of its own when o = 3, and its
# B-splitting does when o = 1.
KINK_FACTORS = {1: A + B * D, 3: A * D + B}


def kinked(text, seed):
    """(o, text with a kink entered over at o on a seeded arc) for o = 1, 3."""
    arc = random.Random(seed).choice(arcs(text))
    return [(o, r1_move(text, arc, o)) for o in KINK_FACTORS]


# The kernel faults besides add_kernel_fault's, each caught by the R2
# chains with no sweep run.
OTHER_FAULTS = {"loop_cap": add_loop_cap_fault, "slots_reversed": add_slot_fault}
FAULTS = {"kernel": add_kernel_fault, **OTHER_FAULTS}


class TestR2Moves:
    def test_chains_keep_jones(self, expected):
        for seed, (text, value) in enumerate(zip(INPUTS, expected)):
            assert jones(parse_diagram(r2_chain(text, seed))) == value, text

    def test_a_second_crossing_entered_alike_is_no_move(self, expected):
        changed = sum(jones(parse_diagram(r2_chain(text, seed, same_entry=True))) != value
                      for seed, (text, value) in enumerate(zip(INPUTS, expected)))
        assert changed > 3 * len(INPUTS) // 4

    def test_a_kernel_fault_shows(self, monkeypatch):
        # Both polynomials come from the faulty frontier; no sweep runs.
        add_kernel_fault(monkeypatch)
        changed = sum(jones(parse_diagram(r2_chain(text, seed))) != jones(parse_diagram(text))
                      for seed, text in enumerate(INPUTS))
        assert changed > 0

    @pytest.mark.parametrize("fault", sorted(OTHER_FAULTS))
    def test_the_other_faults_show(self, monkeypatch, fault):
        OTHER_FAULTS[fault](monkeypatch)
        changed = sum(jones(parse_diagram(r2_chain(text, seed))) != jones(parse_diagram(text))
                      for seed, text in enumerate(INPUTS))
        assert changed > 0

    def test_local_moves_past_the_cap(self, monkeypatch):
        # Each move joins two arcs of one crossing of a torus knot's mirror
        # braid, whose Jones polynomial is the closed form itself.
        for p, q, moves in ((3, 100, 10), (2, 201, 20)):
            crossings = (p - 1) * q + 2 * moves
            monkeypatch.setenv(CAP_ENV_VAR, str(crossings))
            text = mirror(torus_braid(p, q))
            rng = random.Random(3)
            for _ in range(moves):
                ports = rng.choice(parse_diagram(text).crossings).ports
                a, b = rng.sample(sorted(set(ports)), 2)
                text = r2_move(text, a, b, rng.choice((1, 3)))
            d = parse_diagram(text)
            assert len(d.crossings) == crossings
            assert jones(d) == torus_knot_jones(p, q), (p, q)


def r3_pair(seed):
    """The closures of two seeded braid words of 3 to 12 letters on 3 or 4
    strands that differ by one braid relation, s_i s_(i+1) s_i against
    s_(i+1) s_i s_(i+1), all three letters of one sign: an R3 move."""
    rng = random.Random(seed)
    p = rng.choice((3, 4))
    i, e = rng.randint(1, p - 2), rng.choice((1, -1))
    rest = [rng.choice((g, -g)) for g in rng.choices(range(1, p), k=rng.randint(0, 9))]
    cut = rng.randint(0, len(rest))
    return [braid_closure(p, rest[:cut] + [e * a, e * b, e * a] + rest[cut:])
            for a, b in ((i, i + 1), (i + 1, i))]


R3_PAIRS = [r3_pair(seed) for seed in range(60)]


class TestR3Moves:
    def test_the_braid_relation_keeps_jones(self):
        for first, second in R3_PAIRS:
            value = swept_jones(first)
            assert jones(parse_diagram(first)) == jones(parse_diagram(second)) == value, first

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_every_fault_shows(self, monkeypatch, fault):
        # Both polynomials come from the faulty frontier; no sweep runs.
        # Measured: 18, 18 and 50 of the 60 pairs differ under the kernel,
        # loop-cap and slot faults.
        FAULTS[fault](monkeypatch)
        assert any(jones(parse_diagram(first)) != jones(parse_diagram(second))
                   for first, second in R3_PAIRS)


class TestR1Moves:
    def test_a_kink_multiplies_the_bracket(self):
        for seed, text in enumerate(KINKED):
            bracket = swept_bracket(parse_diagram(text))
            for o, moved in kinked(text, seed):
                assert kauffman_bracket(parse_diagram(moved)) == bracket * KINK_FACTORS[o], moved

    def test_a_kink_keeps_jones(self):
        for seed, text in enumerate(KINKED):
            value = swept_jones(text)
            for _, moved in kinked(text, seed):
                assert jones(parse_diagram(moved)) == value, moved

    def test_mixed_chains_keep_jones(self, expected):
        for seed, (text, value) in enumerate(zip(INPUTS, expected)):
            assert jones(parse_diagram(mixed_chain(text, seed))) == value, text

    def test_a_kernel_fault_shows(self, monkeypatch):
        # Both brackets come from the faulty frontier; no sweep runs.
        add_kernel_fault(monkeypatch)
        changed = sum(
            kauffman_bracket(parse_diagram(moved))
            != kauffman_bracket(parse_diagram(text)) * KINK_FACTORS[o]
            for seed, text in enumerate(KINKED) for o, moved in kinked(text, seed)
        )
        assert changed > 0

    @pytest.mark.parametrize("fault", sorted(OTHER_FAULTS))
    def test_the_other_faults_show(self, monkeypatch, fault):
        OTHER_FAULTS[fault](monkeypatch)
        changed = sum(
            kauffman_bracket(parse_diagram(moved))
            != kauffman_bracket(parse_diagram(text)) * KINK_FACTORS[o]
            for seed, text in enumerate(KINKED) for o, moved in kinked(text, seed)
        )
        assert changed > 0


class TestVerifyOnChains:
    def test_colorable_chains_verify_signed(self, expected, capsys, tmp_path):
        # The left side is the moved diagram's bracket, so at its writhe it
        # reads as the unmoved diagram's Jones polynomial.
        path = tmp_path / "moved.txt"
        checked = 0
        for seed, (text, value) in enumerate(zip(INPUTS, expected)):
            for moved in (r2_chain(text, seed), mixed_chain(text, seed)):
                d = parse_diagram(moved)
                if find_switch_set(d) is None:
                    continue
                path.write_text(moved)
                assert main(["--json", "verify", "--signed", str(path)]) == 0, moved
                left = LaurentPoly.parse(json.loads(capsys.readouterr().out)["left"],
                                         diagram.BRACKET_VARS)
                assert diagram.at_jones_point(left, writhe(d)) == value, moved
                checked += 1
        assert checked > 10


class TestMirror:
    def test_mirror_inverts_t(self, expected):
        for text, value in zip(INPUTS, expected):
            assert jones(parse_diagram(mirror(text))) == inverted(value), text


class TestReverse:
    def test_reverse_keeps_bracket_and_jones(self, expected):
        for text, value in zip(INPUTS, expected):
            moved = parse_diagram(reverse(text))
            assert kauffman_bracket(moved) == swept_bracket(parse_diagram(text)), text
            assert jones(moved) == value, text

    def test_the_slot_fault_shows(self, monkeypatch):
        add_slot_fault(monkeypatch)
        changed = sum(jones(parse_diagram(reverse(text))) != jones(parse_diagram(text))
                      for text in INPUTS)
        assert changed > 0


# Colourable diagrams of 1 to 11 crossings, on which the point check
# and the other colour's graph are measured.
COLORABLE = [random_diagram(n, seed, "colorable") for n in range(1, 12) for seed in range(60)]


def swap_a_b(poly):
    """poly with A and B exchanged."""
    return LaurentPoly._make(poly.variables, {(b, a, e): c for (a, b, e), c in poly._terms.items()})


def other_colour(d):
    """d with every crossing switched, whose graph belongs to d's other
    checkerboard colouring."""
    return apply_switches(d, range(len(d.crossings)))


@pytest.fixture(scope="module")
def clean():
    """Each COLORABLE diagram's bracket and Jones polynomial, and the
    signed graph of its other colour, all with no fault."""
    return [(kauffman_bracket(d), jones(d), build_signed(other_colour(d))[0]) for d in COLORABLE]


def record_point_checks(monkeypatch):
    """Let verify run on past its point check; the list returned gets
    True for each check that fails, False for each that holds."""
    flagged = []
    check = verify._check_point

    def recording(*args):
        try:
            check(*args)
        except RuntimeError:
            flagged.append(True)
        else:
            flagged.append(False)

    monkeypatch.setattr(verify, "_check_point", recording)
    return flagged


class TestPointCheck:
    """verify reads each side at A = B = 1, d = -2, where every state
    weighs (-2)^(loops-1); a side that misses exits 4."""

    def test_holds_on_every_kind(self):
        for kind in KINDS:
            for n in range(13):
                for seed in range(4):
                    base = random_diagram(n, seed, kind)
                    for extra in (0, 2):
                        d = Diagram(base.crossings, base.free_loops + extra)
                        if find_switch_set(d) is None:
                            continue
                        checks = (verify_signed, verify_jones) + (verify_main,) * is_alternating(d)
                        for check in checks:
                            assert check(d).equal, (check.__name__, diagram.format_diagram(d))

    def test_a_kernel_fault_exits_4(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "knot.txt"
        path.write_text(fixtures.SAMPLE_KNOT)
        add_kernel_fault(monkeypatch)
        for mode in ("--main", "--signed", "--jones"):
            assert main(["verify", mode, str(path)]) == 4, mode
            captured = capsys.readouterr()
            assert captured.out == "" and "point check failed" in captured.err

    def test_selftest_fails_the_identity_lines(self, monkeypatch, capsys):
        add_kernel_fault(monkeypatch)
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        for check in ("bracket identity", "signed identity", "both Jones routes agree"):
            line = next(line for line in lines if line.startswith(f"sample-knot: {check}: "))
            assert line.startswith(f"sample-knot: {check}: FAIL (RuntimeError: point check failed")

    @pytest.mark.parametrize("fault, share", [("kernel", 0.9), ("loop_cap", 0.9),
                                              ("slots_reversed", 0.5)])
    def test_flags_wrong_results_reported_equal(self, monkeypatch, clean, fault, share):
        # Measured: 270 of 285 and 273 of 286, 659 of 660 in both modes,
        # and 71 of 104 and 73 of 106 for the slot fault.
        FAULTS[fault](monkeypatch)
        flagged = record_point_checks(monkeypatch)
        for check, index in ((verify_signed, 0), (verify_jones, 1)):
            counts = Counter()
            for d, values in zip(COLORABLE, clean):
                report = check(d)
                if report.equal and report.left != values[index]:
                    counts[flagged[-1]] += 1
            assert counts[True] >= share * sum(counts.values()) > 0, (check.__name__, counts)


class TestOtherColour:
    """Switching every crossing gives the signed graph of the other
    checkerboard colouring.  Its bracket side, with A and B exchanged, is
    the bracket, and its Jones side at the opposite writhe, with t taken
    to t^-1, is the Jones polynomial."""

    @pytest.mark.parametrize("name", [name for name, text in sorted(fixtures.DIAGRAMS.items())
                                      if find_switch_set(parse_diagram(text)) is not None])
    def test_fixtures(self, name):
        d = parse_diagram(fixtures.DIAGRAMS[name])
        g = build_signed(other_colour(d))[0]
        assert swap_a_b(bracket_from_graph(g)) == kauffman_bracket(d)
        assert inverted(jones_from_graph(g, -writhe(d))) == jones(d)
        if is_alternating(d):
            g = build_ribbon(other_colour(d))
            assert swap_a_b(bracket_from_graph(g)) == kauffman_bracket(d)

    def test_random_colourable_diagrams(self, clean):
        for d, (bracket, value, g) in zip(COLORABLE, clean):
            assert swap_a_b(bracket_from_graph(g)) == bracket, diagram.format_diagram(d)
            assert inverted(jones_from_graph(g, -writhe(d))) == value, diagram.format_diagram(d)
            if is_alternating(d):
                assert swap_a_b(bracket_from_graph(build_ribbon(other_colour(d)))) == bracket

    def test_a_kernel_fault_shows(self, monkeypatch, clean):
        # Each site's chosen and unchosen joins trade places, so a fault
        # that treats them differently shows: measured, 260 of the 285
        # wrong results verify --signed reports equal, and with the point
        # check all 285.
        add_kernel_fault(monkeypatch)
        flagged = record_point_checks(monkeypatch)
        counts = Counter()
        for d, (bracket, _, g) in zip(COLORABLE, clean):
            report = verify_signed(d)
            if report.equal and report.left != bracket:
                other = swap_a_b(bracket_from_graph(g)) != report.left
                counts["wrong"] += 1
                counts["other colour"] += other
                counts["either"] += other or flagged[-1]
        assert counts["other colour"] >= 0.9 * counts["wrong"] > 0, counts
        assert counts["either"] == counts["wrong"], counts


def at_omega(value):
    """V(omega), omega = e^(2 pi i / 3), as the integers (u, v) with
    V(omega) = u + v omega, or None when V has a fractional power of t.
    omega^k depends on k mod 3 only, and 1 + omega + omega^2 = 0."""
    sums = [0, 0, 0]
    for (q,), c in value._terms.items():
        if q % 4:
            return None
        sums[q // 4 % 3] += c
    return sums[0] - sums[2], sums[1] - sums[2]


def classical_knot(d):
    """Whether d is one component whose graph has genus 0, which makes it
    a classical knot."""
    return len(components(d)) + d.free_loops == 1 and genus(build_signed(d)[0]) == 0


class TestOmega:
    """V(omega) = 1, with integer powers of t, on every COLORABLE diagram
    whose components and free loops number an odd count, of any genus,
    virtual ones included.  Among them are classical knots, where it is
    Jones's theorem (V. F. R. Jones, "Hecke algebra representations of
    braid groups and link polynomials", Ann. of Math. 126, 1987); the
    tests count them so that the oracle keeps that known case."""

    @pytest.fixture(scope="class")
    def odd(self, clean):
        """(d, its Jones polynomial) of each COLORABLE diagram whose
        components and free loops number an odd count."""
        return [(d, values[1]) for d, values in zip(COLORABLE, clean)
                if (len(components(d)) + d.free_loops) % 2]

    def test_holds_on_odd_component_counts(self, odd):
        # Measured: 365 diagrams, 128 of them classical knots.
        assert len(odd) > 300
        assert sum(classical_knot(d) for d, _ in odd) > 100
        for d, value in odd:
            assert at_omega(value) == (1, 0), diagram.format_diagram(d)

    def test_flags_every_change_on_odd_component_counts(self, monkeypatch, odd):
        # Measured: the fault changes 253 of them, 63 classical knots.
        add_kernel_fault(monkeypatch)
        changed = [(d, result) for d, value in odd if (result := jones(d)) != value]
        assert len(changed) > 200
        assert sum(classical_knot(d) for d, _ in changed) > 50
        assert all(at_omega(result) != (1, 0) for _, result in changed)
