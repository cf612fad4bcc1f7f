"""Time verify's graph side, evaluated at the identity's point directly,
against the whole rank polynomial substituted afterwards, on the graphs
of seeded random colourable diagrams and of torus knots; then time the
Jones polynomial of torus knots, carried through the contraction at its
point, against the whole bracket substituted afterwards.

Run from the root of a checkout (the tests directory supplies the torus
braids):

    PYTHONPATH=src:tests python3 tools/route_gate.py

Each input is timed on both routes, each time the best of 3 calls.  One
line per class of input gives the median times and the least, median and
greatest ratio of the first route's time to the second's.  Both tables
run past the default cap of 24 and stop when the two routes give
different polynomials.  No route here runs a numpy sweep; the README
keeps the last table of frontier against sweep times.
"""

import os
import statistics
import time

from helpers import torus_braid
from vkbr import randgen
from vkbr.build import build_signed
from vkbr.diagram import jones, jones_via_bracket, parse_diagram, writhe
from vkbr.limits import CAP_ENV_VAR
from vkbr.verify import (
    bracket_from_graph,
    bracket_via_rank_poly,
    jones_from_graph,
    jones_via_rank_poly,
)

SEEDS = range(3)
GRAPH_SIDE_SIZES = (12, 14, 18, 24, 30)
TORUS_TWISTS = (25, 50)
JONES_TORUS_KNOTS = ((2, 101), (2, 301), (2, 1001), (3, 50), (3, 100), (4, 51), (5, 41),
                     (6, 31))


def best(fn, *args):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def two_route_times(direct, reference_route, *args):
    direct_s, value = best(direct, *args)
    reference_s, reference = best(reference_route, *args)
    if value != reference:
        raise SystemExit(f"{direct.__name__} differs from {reference_route.__name__}")
    return direct_s, reference_s


def report(name, sites, pairs):
    """One table line for (first route, second route) times of each input."""
    ratios = sorted(f / s for f, s in pairs)
    first_ms = statistics.median(f for f, _ in pairs) * 1e3
    second_ms = statistics.median(s for _, s in pairs) * 1e3
    print(f"| {name} | {sites} | {len(pairs)} | {first_ms:.3g} | {second_ms:.3g} "
          f"| {ratios[0]:.3g} / {statistics.median(ratios):.3g} / {ratios[-1]:.3g} |",
          flush=True)


def main():
    # The same sampler past its cap.
    randgen.MAX_RANDOM_CROSSINGS = max(GRAPH_SIDE_SIZES)
    print("| graph side | edges | inputs | direct ms | via R_G ms | ratio min / median / max |")
    print("| --- | --- | --- | --- | --- | --- |")
    os.environ[CAP_ENV_VAR] = str(2 * max(TORUS_TWISTS))
    for n in GRAPH_SIDE_SIZES:
        graphs = [build_signed(randgen.random_diagram(n, seed, "colorable"))[0] for seed in SEEDS]
        report("bracket, graph of a `colorable` diagram", n,
               [two_route_times(bracket_from_graph, bracket_via_rank_poly, g, True)
                for g in graphs])
    for q in TORUS_TWISTS:
        d = parse_diagram(torus_braid(3, q))
        g, _ = build_signed(d)
        report(f"Jones, graph of T(3,{q})", 2 * q,
               [two_route_times(jones_from_graph, jones_via_rank_poly, g, writhe(d))])
    print()
    print("| Jones assembly | crossings | inputs | at the point ms | via the bracket ms "
          "| ratio min / median / max |")
    print("| --- | --- | --- | --- | --- | --- |")
    os.environ[CAP_ENV_VAR] = str(max((p - 1) * q for p, q in JONES_TORUS_KNOTS))
    for p, q in JONES_TORUS_KNOTS:
        d = parse_diagram(torus_braid(p, q))
        report(f"T({p},{q})", len(d.crossings), [two_route_times(jones, jones_via_bracket, d)])


if __name__ == "__main__":
    main()
