"""Seeded inputs of the three workloads, each item paired with its check.

An item is one call of the console entry point ``vkbr.cli.main(argv)``
with its input on standard input.  The inputs depend only on the seed;
vkbr sees nothing but their text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from vkbr import (
    Crossing,
    Diagram,
    NotColorableError,
    apply_switches,
    build_signed,
    format_diagram,
    format_ribbon,
    parse_diagram,
)
from vkbr.randgen import KINDS, random_diagram

import oracle

# Crossing counts of the closed 2-braids of one braid-jones pass.
BRAID_SIZES = (13, 15, 15)
# Crossing counts of the random virtual diagrams of one virtual-signed pass,
# and the vertex counts their signed ribbon graphs must have.
VIRTUAL_SIZES = (14, 14, 14, 14)
VIRTUAL_VERTICES = range(5, 8)
# small-mixed draws this many diagrams per (randgen kind, crossing count).
MIXED_PER_CELL = 10
MIXED_CROSSINGS = range(0, 8)


@dataclass
class Item:
    """One command line call and the check of what it printed."""

    label: str
    argv: list[str]
    stdin: str
    check: Callable[[object, str], str | None]


def _relabel(rng: random.Random, ports: list[list[str]], over: list[int]) -> str:
    """Diagram text with crossings in random order and arcs renamed at random."""
    n = len(ports)
    order = rng.sample(range(n), n)
    labels = sorted({label for p in ports for label in p})
    names = dict(zip(labels, (f"k{i}" for i in rng.sample(range(len(labels)), len(labels)))))
    lines = [
        f"X {' '.join(names[label] for label in ports[c])} o={over[c]}\n" for c in order
    ]
    return "".join(lines)


def closed_braid(n: int, rng: random.Random) -> str:
    """The closed 2-braid sigma_1^n, an alternating diagram of T(2, n).

    Its all-B state has two curves, so the ribbon graph has two vertices
    joined by n parallel edges; each crossing meets only its two
    neighbours along the braid.
    """
    ports = [["" for _ in range(4)] for _ in range(n)]
    for c in range(n):
        nxt = (c + 1) % n
        ports[c][2] = ports[nxt][1] = f"u{c}"
        ports[c][3] = ports[nxt][0] = f"w{c}"
    return _relabel(rng, ports, [1] * n)


def colorable_virtual(n: int, rng: random.Random) -> str:
    """A random checkerboard-colourable virtual diagram with n crossings.

    Same sampler as vkbr.randgen's "colorable" kind, without its cap of
    12 crossings: alternating wiring, then a random set of switches.
    """
    over_in = [rng.choice((1, 3)) for _ in range(n)]
    under_to = rng.sample(range(n), n)
    over_to = rng.sample(range(n), n)
    arcs = [((c, 2), (under_to[c], over_in[under_to[c]])) for c in range(n)]
    arcs += [((c, 4 - over_in[c]), (over_to[c], 0)) for c in range(n)]
    ports = [["" for _ in range(4)] for _ in range(n)]
    for i, ((c1, p1), (c2, p2)) in enumerate(arcs):
        ports[c1][p1] = ports[c2][p2] = f"a{i}"
    d = Diagram(tuple(Crossing(tuple(ports[c]), over_in[c]) for c in range(n)), 0)
    d = apply_switches(d, [c for c in range(n) if rng.getrandbits(1)])
    return _relabel(
        rng, [list(c.ports) for c in d.crossings], [c.over_in for c in d.crossings]
    )


def _verify_item(facts, mode: str, expected) -> Item:
    return Item(
        f"verify --{mode}",
        ["verify", f"--{mode}", "-"],
        facts.text,
        lambda code, out: oracle.check_verify(facts, expected, code, out),
    )


def braid_jones(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for n in BRAID_SIZES:
        text = closed_braid(n, rng)
        facts = oracle.DiagramFacts(text, parse_diagram(text))
        expected = lambda f=facts: (oracle.JONES_VARS, oracle.torus_jones(f.n, f.writhe()))
        items.append(_verify_item(facts, "jones", expected))
    return items


def virtual_signed(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for n in VIRTUAL_SIZES:
        while True:
            text = colorable_virtual(n, rng)
            d = parse_diagram(text)
            if build_signed(d)[0].vertex_count in VIRTUAL_VERTICES:
                break
        facts = oracle.DiagramFacts(text, d)
        expected = lambda f=facts: (oracle.BRACKET_VARS, f.bracket())
        items.append(_verify_item(facts, "signed", expected))
    return items


def small_mixed(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for kind in KINDS:
        for n in MIXED_CROSSINGS:
            for _ in range(MIXED_PER_CELL):
                d = random_diagram(n, rng.getrandbits(32), kind)
                text = format_diagram(d)
                items += _mixed_items(oracle.DiagramFacts(text, d))
    return items


def _mixed_items(facts) -> list[Item]:
    bracket = lambda: (oracle.BRACKET_VARS, facts.bracket())
    items = [
        _verify_item(facts, "jones", lambda: (oracle.JONES_VARS, facts.jones())),
        _verify_item(facts, "signed", bracket),
        Item(
            "colorable",
            ["colorable", "-"],
            facts.text,
            lambda code, out: oracle.check_colorable(facts, code, out),
        ),
        Item(
            "jones",
            ["jones", "-"],
            facts.text,
            lambda code, out: oracle.check_poly(
                "jones", oracle.JONES_VARS, facts.jones(), code, out
            ),
        ),
    ]
    try:
        g = build_signed(facts.diagram)[0]
    except NotColorableError:
        return items
    graph = format_ribbon(g)
    items += [
        Item(
            "br-poly --signed",
            ["br-poly", "--signed", "-"],
            graph,
            lambda code, out: oracle.check_poly(
                "br-poly", oracle.BR_VARS, oracle.signed_rank_poly(g), code, out
            ),
        ),
        Item(
            "tutte",
            ["tutte", "-"],
            graph,
            lambda code, out: oracle.check_poly(
                "tutte", oracle.TUTTE_VARS, oracle.tutte_poly(g), code, out
            ),
        ),
        Item(
            "genus",
            ["genus", "-"],
            graph,
            lambda code, out: None
            if (code, out) == (0, f"{oracle.ribbon_genus(graph)}\n")
            else f"genus: unexpected exit {code} or output {out!r}",
        ),
    ]
    return items


WORKLOADS = {
    "braid-jones": braid_jones,
    "virtual-signed": virtual_signed,
    "small-mixed": small_mixed,
}
