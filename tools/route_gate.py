"""Time frontier contraction, the route every command takes, against the
reference sweeps, on seeded random inputs of every kind; then time
verify's graph side, evaluated at the identity's point directly, against
the whole rank polynomial substituted afterwards; then time the Jones
polynomial, carried through the contraction at its point, against the
whole bracket substituted afterwards.

Run from the root of a checkout (the tests directory supplies the random
ribbon graphs and the torus braids).  The sweeps need numpy, which the
project's `test` extra installs:

    PYTHONPATH=src:tests python3 tools/route_gate.py

Each input is timed on both routes, each time the best of 3 calls.  One
line per class of input gives the median times and the least, median and
greatest ratio of the first route's time to the second's.  In the first
table a ratio above 2 in any class with 16 or more sites would call for
keeping the sweep there.  The second and third tables run past the
default cap of 24 and stop when the two routes give different
polynomials.
"""

import os
import random
import statistics
import time

from helpers import random_ribbon, torus_braid
from vkbr import diagram, randgen, ribbon
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
DIAGRAM_SIZES = (4, 8, 12, 14, 16, 20)
GRAPH_SIZES = (4, 8, 12, 16, 20, 22)
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


def bracket_times(d):
    mate = diagram._plan(d)
    frontier, _ = best(diagram._frontier_rows, mate)
    sweep, _ = best(lambda: list(diagram._sweep_rows(mate)))
    return frontier, sweep


def rank_times(g):
    neg, sites = ribbon._plan(g, True)
    frontier, _ = best(ribbon._frontier_rows, sites, neg)
    sweep, _ = best(lambda: list(ribbon._sweep_rows(g, neg)))
    return frontier, sweep


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
    print("| input | sites | inputs | frontier ms | sweep ms | ratio min / median / max |")
    print("| --- | --- | --- | --- | --- | --- |")
    # The same sampler past its cap.
    randgen.MAX_RANDOM_CROSSINGS = max(DIAGRAM_SIZES + GRAPH_SIDE_SIZES)
    for n in DIAGRAM_SIZES:
        for kind in randgen.KINDS:
            diagrams = [randgen.random_diagram(n, seed, kind) for seed in SEEDS]
            report(f"bracket, `{kind}` diagram", n, [bracket_times(d) for d in diagrams])
        graphs = [build_signed(randgen.random_diagram(n, seed, "colorable"))[0] for seed in SEEDS]
        report("signed rank polynomial, graph of a `colorable` diagram", n,
               [rank_times(g) for g in graphs])
    for e in GRAPH_SIZES:
        graphs = []
        for seed in SEEDS:
            rng = random.Random(seed)
            graphs.append(random_ribbon(rng, rng.randint(1, 10), e, signed=True))
        report("signed rank polynomial, `random_ribbon` graph", e,
               [rank_times(g) for g in graphs])
    print()
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
