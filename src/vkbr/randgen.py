"""Seeded random diagram generation.

The sampler wires crossing ports with a seeded random.Random, so a given
(n, seed, kind) is reproducible byte for byte.  Three kinds are offered:

  any          random pairing of outgoing to incoming ports
  alternating  under-out ports wire to over-in ports and over-out ports to
               under-in ports, which is exactly the alternating condition
  colorable    an alternating sample with a random subset of crossings
               switched, hence checkerboard colorable by construction
"""

from __future__ import annotations

import random

from .diagram import Crossing, Diagram, apply_switches

KINDS = ("any", "alternating", "colorable")
MAX_RANDOM_CROSSINGS = 12


def random_diagram(n: int, seed: int, kind: str = "any") -> Diagram:
    """A random n-crossing diagram; n = 0 gives the crossing-free unknot."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not 0 <= n <= MAX_RANDOM_CROSSINGS:
        raise ValueError(f"crossing count must be 0..{MAX_RANDOM_CROSSINGS}, got {n}")
    rng = random.Random(seed)
    if n == 0:
        return Diagram((), free_loops=1)
    over_in = tuple(rng.choice((1, 3)) for _ in range(n))
    if kind == "any":
        sources = [(c, 2) for c in range(n)] + [(c, 4 - over_in[c]) for c in range(n)]
        sinks = [(c, 0) for c in range(n)] + [(c, over_in[c]) for c in range(n)]
        arcs = list(zip(sources, rng.sample(sinks, 2 * n)))
    else:
        under_to = rng.sample(range(n), n)
        over_to = rng.sample(range(n), n)
        arcs = [((c, 2), (under_to[c], over_in[under_to[c]])) for c in range(n)]
        arcs += [((c, 4 - over_in[c]), (over_to[c], 0)) for c in range(n)]
    ports: list[list[str]] = [["" for _ in range(4)] for _ in range(n)]
    for i, ((c1, p1), (c2, p2)) in enumerate(arcs):
        ports[c1][p1] = f"a{i}"
        ports[c2][p2] = f"a{i}"
    d = Diagram([Crossing(ports[c], over_in[c]) for c in range(n)])
    if kind == "colorable":
        d = apply_switches(d, [c for c in range(n) if rng.getrandbits(1)])
    return d
