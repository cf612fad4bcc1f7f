"""`verify --json` payloads, byte for byte, as recorded before the verify routes
shared one body.

Inputs: every bundled diagram fixture, and three seeded
`random_diagram(n, seed, "colorable")` diagrams whose switch sets are not
empty.  A mode that refuses an input records its exit code and no output.
"""

import io
import sys

import pytest

from vkbr import find_switch_set, fixtures, format_diagram
from vkbr.cli import main
from vkbr.randgen import random_diagram

RANDOM = {f"random-{n}-{seed}": (n, seed) for n, seed in ((5, 0), (6, 0), (7, 0))}

# (input, mode) -> (exit code, stdout without its final newline)
GOLDEN = {
    ('unknot', 'main'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "1", "mode": "main", "n": 0, "r": 0, "right": "1", "stats": {"bc": 1, "e": 0, "genus": 0, "k": 1, "n": 0, "r": 0, "v": 1}, "switches": []}',
    ),
    ('unknot', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "1", "mode": "signed", "n": 0, "r": 0, "right": "1", "stats": {"bc": 1, "e": 0, "genus": 0, "k": 1, "n": 0, "r": 0, "v": 1}, "switches": []}',
    ),
    ('unknot', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "1", "mode": "jones", "n": 0, "r": 0, "right": "1", "stats": {"bc": 1, "e": 0, "genus": 0, "k": 1, "n": 0, "r": 0, "v": 1}, "switches": []}',
    ),
    ('negative-kink', 'main'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A + B*d", "mode": "main", "n": 0, "r": 1, "right": "A + B*d", "stats": {"bc": 1, "e": 1, "genus": 0, "k": 1, "n": 0, "r": 1, "v": 2}, "switches": []}',
    ),
    ('negative-kink', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A + B*d", "mode": "signed", "n": 0, "r": 1, "right": "A + B*d", "stats": {"bc": 1, "e": 1, "genus": 0, "k": 1, "n": 0, "r": 1, "v": 2}, "switches": []}',
    ),
    ('negative-kink', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "1", "mode": "jones", "n": 0, "r": 1, "right": "1", "stats": {"bc": 1, "e": 1, "genus": 0, "k": 1, "n": 0, "r": 1, "v": 2}, "switches": []}',
    ),
    ('positive-kink', 'main'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A*d + B", "mode": "main", "n": 1, "r": 0, "right": "A*d + B", "stats": {"bc": 2, "e": 1, "genus": 0, "k": 1, "n": 1, "r": 0, "v": 1}, "switches": []}',
    ),
    ('positive-kink', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A*d + B", "mode": "signed", "n": 1, "r": 0, "right": "A*d + B", "stats": {"bc": 2, "e": 1, "genus": 0, "k": 1, "n": 1, "r": 0, "v": 1}, "switches": []}',
    ),
    ('positive-kink', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "1", "mode": "jones", "n": 1, "r": 0, "right": "1", "stats": {"bc": 2, "e": 1, "genus": 0, "k": 1, "n": 1, "r": 0, "v": 1}, "switches": []}',
    ),
    ('virtual-hopf', 'main'): (
        2,
        '',
    ),
    ('virtual-hopf', 'signed'): (
        3,
        '',
    ),
    ('virtual-hopf', 'jones'): (
        3,
        '',
    ),
    ('hopf-link', 'main'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^2*d + 2*A*B + B^2*d", "mode": "main", "n": 1, "r": 1, "right": "A^2*d + 2*A*B + B^2*d", "stats": {"bc": 2, "e": 2, "genus": 0, "k": 1, "n": 1, "r": 1, "v": 2}, "switches": []}',
    ),
    ('hopf-link', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^2*d + 2*A*B + B^2*d", "mode": "signed", "n": 1, "r": 1, "right": "A^2*d + 2*A*B + B^2*d", "stats": {"bc": 2, "e": 2, "genus": 0, "k": 1, "n": 1, "r": 1, "v": 2}, "switches": []}',
    ),
    ('hopf-link', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "-t^(-1/2) - t^(-5/2)", "mode": "jones", "n": 1, "r": 1, "right": "-t^(-1/2) - t^(-5/2)", "stats": {"bc": 2, "e": 2, "genus": 0, "k": 1, "n": 1, "r": 1, "v": 2}, "switches": []}',
    ),
    ('trefoil', 'main'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^3*d^2 + 3*A^2*B*d + 3*A*B^2 + B^3*d", "mode": "main", "n": 2, "r": 1, "right": "A^3*d^2 + 3*A^2*B*d + 3*A*B^2 + B^3*d", "stats": {"bc": 3, "e": 3, "genus": 0, "k": 1, "n": 2, "r": 1, "v": 2}, "switches": []}',
    ),
    ('trefoil', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^3*d^2 + 3*A^2*B*d + 3*A*B^2 + B^3*d", "mode": "signed", "n": 2, "r": 1, "right": "A^3*d^2 + 3*A^2*B*d + 3*A*B^2 + B^3*d", "stats": {"bc": 3, "e": 3, "genus": 0, "k": 1, "n": 2, "r": 1, "v": 2}, "switches": []}',
    ),
    ('trefoil', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "t^-1 + t^-3 - t^-4", "mode": "jones", "n": 2, "r": 1, "right": "t^-1 + t^-3 - t^-4", "stats": {"bc": 3, "e": 3, "genus": 0, "k": 1, "n": 2, "r": 1, "v": 2}, "switches": []}',
    ),
    ('sample-knot', 'main'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d", "mode": "main", "n": 2, "r": 1, "right": "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d", "stats": {"bc": 1, "e": 3, "genus": 1, "k": 1, "n": 2, "r": 1, "v": 2}, "switches": []}',
    ),
    ('sample-knot', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d", "mode": "signed", "n": 2, "r": 1, "right": "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d", "stats": {"bc": 1, "e": 3, "genus": 1, "k": 1, "n": 2, "r": 1, "v": 2}, "switches": []}',
    ),
    ('sample-knot', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "1", "mode": "jones", "n": 2, "r": 1, "right": "1", "stats": {"bc": 1, "e": 3, "genus": 1, "k": 1, "n": 2, "r": 1, "v": 2}, "switches": []}',
    ),
    ('random-5-0', 'main'): (
        2,
        '',
    ),
    ('random-5-0', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^5 + 5*A^4*B*d + 7*A^3*B^2*d^2 + 3*A^3*B^2 + 3*A^2*B^3*d^3 + 7*A^2*B^3*d + 5*A*B^4*d^2 + B^5*d^3", "mode": "signed", "n": 3, "r": 2, "right": "A^5 + 5*A^4*B*d + 7*A^3*B^2*d^2 + 3*A^3*B^2 + 3*A^2*B^3*d^3 + 7*A^2*B^3*d + 5*A*B^4*d^2 + B^5*d^3", "stats": {"bc": 2, "e": 5, "genus": 1, "k": 1, "n": 3, "r": 2, "v": 3}, "switches": [2]}',
    ),
    ('random-5-0', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "t^-1 + t^-2 + 2*t^-3", "mode": "jones", "n": 3, "r": 2, "right": "t^-1 + t^-2 + 2*t^-3", "stats": {"bc": 2, "e": 5, "genus": 1, "k": 1, "n": 3, "r": 2, "v": 3}, "switches": [2]}',
    ),
    ('random-6-0', 'main'): (
        2,
        '',
    ),
    ('random-6-0', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "A^6*d^2 + 3*A^5*B*d^3 + 3*A^5*B*d + 2*A^4*B^2*d^4 + 11*A^4*B^2*d^2 + 2*A^4*B^2 + 10*A^3*B^3*d^3 + 10*A^3*B^3*d + 2*A^2*B^4*d^4 + 11*A^2*B^4*d^2 + 2*A^2*B^4 + 3*A*B^5*d^3 + 3*A*B^5*d + B^6*d^2", "mode": "signed", "n": 5, "r": 1, "right": "A^6*d^2 + 3*A^5*B*d^3 + 3*A^5*B*d + 2*A^4*B^2*d^4 + 11*A^4*B^2*d^2 + 2*A^4*B^2 + 10*A^3*B^3*d^3 + 10*A^3*B^3*d + 2*A^2*B^4*d^4 + 11*A^2*B^4*d^2 + 2*A^2*B^4 + 3*A*B^5*d^3 + 3*A*B^5*d + B^6*d^2", "stats": {"bc": 4, "e": 6, "genus": 1, "k": 1, "n": 5, "r": 1, "v": 2}, "switches": [2, 4, 5]}',
    ),
    ('random-6-0', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 1, "left": "t^3 + t^2 + t + 1", "mode": "jones", "n": 5, "r": 1, "right": "t^3 + t^2 + t + 1", "stats": {"bc": 4, "e": 6, "genus": 1, "k": 1, "n": 5, "r": 1, "v": 2}, "switches": [2, 4, 5]}',
    ),
    ('random-7-0', 'main'): (
        2,
        '',
    ),
    ('random-7-0', 'signed'): (
        0,
        '{"command": "verify", "equal": true, "k": 2, "left": "A^7*d^4 + 2*A^6*B*d^5 + 5*A^6*B*d^3 + A^5*B^2*d^6 + 11*A^5*B^2*d^4 + 9*A^5*B^2*d^2 + 6*A^4*B^3*d^5 + 24*A^4*B^3*d^3 + 5*A^4*B^3*d + 17*A^3*B^4*d^4 + 18*A^3*B^4*d^2 + 2*A^2*B^5*d^5 + 16*A^2*B^5*d^3 + 3*A^2*B^5*d + 3*A*B^6*d^4 + 4*A*B^6*d^2 + B^7*d^3", "mode": "signed", "n": 5, "r": 2, "right": "A^7*d^4 + 2*A^6*B*d^5 + 5*A^6*B*d^3 + A^5*B^2*d^6 + 11*A^5*B^2*d^4 + 9*A^5*B^2*d^2 + 6*A^4*B^3*d^5 + 24*A^4*B^3*d^3 + 5*A^4*B^3*d + 17*A^3*B^4*d^4 + 18*A^3*B^4*d^2 + 2*A^2*B^5*d^5 + 16*A^2*B^5*d^3 + 3*A^2*B^5*d + 3*A*B^6*d^4 + 4*A*B^6*d^2 + B^7*d^3", "stats": {"bc": 3, "e": 7, "genus": 2, "k": 2, "n": 5, "r": 2, "v": 4}, "switches": [0, 2]}',
    ),
    ('random-7-0', 'jones'): (
        0,
        '{"command": "verify", "equal": true, "k": 2, "left": "1 + t^-1 + t^-2 + t^-3", "mode": "jones", "n": 5, "r": 2, "right": "1 + t^-1 + t^-2 + t^-3", "stats": {"bc": 3, "e": 7, "genus": 2, "k": 2, "n": 5, "r": 2, "v": 4}, "switches": [0, 2]}',
    ),
}


def _text(name):
    if name in RANDOM:
        return format_diagram(random_diagram(*RANDOM[name], "colorable"))
    return fixtures.DIAGRAMS[name]


def test_random_inputs_have_switches():
    for n, seed in RANDOM.values():
        assert find_switch_set(random_diagram(n, seed, "colorable"))


def test_every_fixture_is_covered():
    assert {name for name, _ in GOLDEN} == set(fixtures.DIAGRAMS) | set(RANDOM)


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_verify_payload_is_unchanged(capsys, monkeypatch, name, mode):
    monkeypatch.setattr(sys, "stdin", io.StringIO(_text(name)))
    code = main(["--json", "verify", f"--{mode}", "-"])
    out = capsys.readouterr().out
    assert (code, out.rstrip("\n")) == GOLDEN[name, mode]
