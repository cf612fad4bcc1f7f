"""Invariance oracles at any size.  The Jones polynomial is an invariant
of virtual links (L. H. Kauffman, "Virtual knot theory", European J.
Combin. 20, 1999), so a chain of Reidemeister II moves on any diagram
leaves it unchanged, and a mirror image takes t to t^-1.  Only the
unmoved diagrams, all small, are summed by the sweep; the moved ones
are checked against them, however large they grow."""

import random

import pytest

from helpers import mirror, r2_move, torus_braid, torus_knot_jones
from reference import diagram_sweep_rows
from vkbr import _kernels, diagram, fixtures
from vkbr.diagram import jones, parse_diagram, writhe
from vkbr.laurent import LaurentPoly
from vkbr.limits import CAP_ENV_VAR
from vkbr.randgen import random_diagram


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


def swept_jones(text):
    """The Jones polynomial from the state sweep's rows, read at the Jones
    point."""
    d = parse_diagram(text)
    bracket = diagram._bracket_sum(len(d.crossings), diagram_sweep_rows(d._mate), d.free_loops)
    return diagram.at_jones_point(bracket, writhe(d))


def inverted(poly):
    """poly(t^-1)."""
    return LaurentPoly._make(poly.variables, {(-q,): c for (q,), c in poly._terms.items()})


@pytest.fixture(scope="module")
def expected():
    return [swept_jones(text) for text in INPUTS]


class TestR2Moves:
    def test_chains_keep_jones(self, expected):
        for seed, (text, value) in enumerate(zip(INPUTS, expected)):
            assert jones(parse_diagram(r2_chain(text, seed))) == value, text

    def test_a_second_crossing_entered_alike_is_no_move(self, expected):
        changed = sum(jones(parse_diagram(r2_chain(text, seed, same_entry=True))) != value
                      for seed, (text, value) in enumerate(zip(INPUTS, expected)))
        assert changed > 3 * len(INPUTS) // 4

    def test_a_kernel_fault_shows(self, monkeypatch):
        # A chosen join that closes two or more loops counts one more.
        # Both polynomials come from the faulty frontier; no sweep runs.
        program = _kernels._site_program

        def faulty(shape, pattern):
            (writes, loops), unchosen = program(shape, pattern)
            return (writes, loops + (loops >= 2)), unchosen

        monkeypatch.setattr(_kernels, "_site_program", faulty)
        changed = sum(jones(parse_diagram(r2_chain(text, seed))) != jones(parse_diagram(text))
                      for seed, text in enumerate(INPUTS))
        assert changed > 0

    def test_local_moves_past_the_cap(self, monkeypatch):
        # Each move joins two arcs of one crossing of T(3,100)'s mirror
        # braid, whose Jones polynomial is the closed form itself.
        monkeypatch.setenv(CAP_ENV_VAR, "220")
        text = mirror(torus_braid(3, 100))
        rng = random.Random(3)
        for _ in range(10):
            ports = rng.choice(parse_diagram(text).crossings).ports
            a, b = rng.sample(sorted(set(ports)), 2)
            text = r2_move(text, a, b, rng.choice((1, 3)))
        d = parse_diagram(text)
        assert len(d.crossings) == 220
        assert jones(d) == torus_knot_jones(3, 100)


class TestMirror:
    def test_mirror_inverts_t(self, expected):
        for text, value in zip(INPUTS, expected):
            assert jones(parse_diagram(mirror(text))) == inverted(value), text
