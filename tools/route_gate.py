"""Time frontier contraction, the route every command takes, against the
reference sweeps, on seeded random inputs of every kind.

Run from the root of a checkout (the tests directory supplies the random
ribbon graphs):

    PYTHONPATH=src:tests python3 tools/route_gate.py

Each input is timed on both routes, each time the best of 3 calls.  One
line per class of input gives the median times and the least, median and
greatest ratio of frontier time to sweep time.  A ratio above 2 in any
class with 16 or more sites would call for keeping the sweep there.
"""

import random
import statistics
import time

from helpers import random_ribbon
from vkbr import diagram, randgen, ribbon
from vkbr.build import build_signed

SEEDS = range(3)
DIAGRAM_SIZES = (4, 8, 12, 16, 20)
GRAPH_SIZES = (4, 8, 12, 16, 20, 22)


def best(fn, *args):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        list(fn(*args))
        times.append(time.perf_counter() - start)
    return min(times)


def bracket_times(d):
    mate, order = diagram._plan(d)
    return best(diagram._frontier_rows, mate, order), best(diagram._sweep_rows, mate)


def rank_times(g):
    neg, sites, order = ribbon._plan(g, True)
    return best(ribbon._frontier_rows, sites, order, neg), best(ribbon._sweep_rows, g, neg)


def report(name, sites, pairs):
    ratios = sorted(f / s for f, s in pairs)
    frontier_ms = statistics.median(f for f, _ in pairs) * 1e3
    sweep_ms = statistics.median(s for _, s in pairs) * 1e3
    print(f"| {name} | {sites} | {len(pairs)} | {frontier_ms:.3g} | {sweep_ms:.3g} "
          f"| {ratios[0]:.3g} / {statistics.median(ratios):.3g} / {ratios[-1]:.3g} |",
          flush=True)


def main():
    print("| input | sites | inputs | frontier ms | sweep ms | ratio min / median / max |")
    print("| --- | --- | --- | --- | --- | --- |")
    randgen.MAX_RANDOM_CROSSINGS = max(DIAGRAM_SIZES)  # the same sampler past its cap
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


if __name__ == "__main__":
    main()
