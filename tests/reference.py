"""The brute-force reference rows, from the sweeps in vkbr._kernels, and
the kernel faults the tests patch in.

The frontier contraction, the route every command takes, is checked
against these rows, and the sweeps against the per-index traces
split_stats and subgraph_stats, whose rows diagram._trace_rows and
ribbon._trace_rows fold.  The sweeps are called through the module, as
_kernels.state_delta_sweep, so that a test which patches vkbr._kernels
sees every call.

Each add_*_fault(monkeypatch) patches one fault into the frontier's
site steps, which the bracket, the Jones polynomial and both sides of
verify share, and monkeypatch undoes it: add_kernel_fault (a chosen
join that closes two or more loops counts one more), add_loop_cap_fault
(a join closes at most one loop) and add_slot_fault (a site's fresh
ports hold their slots in reverse).  The sweeps run none of that code,
so the rows above stay right under every fault.
"""

from collections import Counter

from vkbr import _kernels, diagram
from vkbr.limits import check_memory

# Bytes a sweep holds per index at its peak, with the rows built from its
# output lists: a bound, since tracemalloc reads 9-12 for the state rows
# and 18-21 for the signed and unsigned subgraph rows at 2^12 .. 2^16.
SWEEP_BYTES_PER_INDEX = 48


def check_sweep_memory(n_bits: int, what: str) -> None:
    """Raise SizeLimitError when a sweep over 2^n_bits indices would need
    more bytes than there is memory, before it allocates them."""
    check_memory(SWEEP_BYTES_PER_INDEX << n_bits, what)


def histogram(*columns):
    """The distinct rows of equal-length integer columns, with their
    counts, as (row, count) in increasing order of rows."""
    return sorted(Counter(zip(*columns)).items())


def diagram_sweep_rows(mate):
    """The ((alpha, curves), count) rows of the states of arc pairing
    `mate`, free loops excluded, from its state sweep: the rows whose
    terms diagram._bracket_contraction sums for kauffman_bracket."""
    n = len(mate) // 4
    check_sweep_memory(n, f"state sweep of a {n}-crossing diagram")
    return histogram(map(int.bit_count, range(1 << n)), _kernels.state_delta_sweep(n, mate))


def swept_bracket(d):
    """The bracket of diagram d from its state sweep's rows."""
    return diagram._bracket_sum(len(d.crossings), diagram_sweep_rows(d._mate), d.free_loops)


def graph_sweep_rows(g, *negs):
    """For each mask of negative edges in negs, the ((e(F), e-(F), k(F),
    bc(F)), count) rows of ribbon._frontier_rows, all from one subgraph
    sweep of the same site table, which does not depend on the signs and
    leaves out dart-less vertices too."""
    e = g.edge_count
    check_sweep_memory(e, f"subgraph sweep of a {e}-edge ribbon graph")
    k, bc = _kernels.subgraph_sweep(g._sites, e)
    subsets = range(1 << e)
    return [histogram(map(int.bit_count, subsets), ((f & neg).bit_count() for f in subsets), k, bc)
            for neg in negs]


def add_kernel_fault(monkeypatch):
    """Patch the frontier so that a chosen join that closes two or more
    loops counts one more."""
    program = _kernels._site_program

    def faulty(shape, pattern):
        (writes, loops), unchosen = program(shape, pattern)
        return (writes, loops + (loops >= 2)), unchosen

    monkeypatch.setattr(_kernels, "_site_program", faulty)


def add_loop_cap_fault(monkeypatch):
    """Patch the frontier so that a join closes at most one loop."""
    program = _kernels._site_program

    def faulty(shape, pattern):
        return tuple((writes, min(loops, 1)) for writes, loops in program(shape, pattern))

    monkeypatch.setattr(_kernels, "_site_program", faulty)


def add_slot_fault(monkeypatch):
    """Patch the frontier so that, once a site's step is built, its fresh
    ports hold their slots in reverse order, while the step still writes
    them in the order it was built with."""
    port_step = _kernels._port_step

    def faulty(arc_mate, s, slot_of, free):
        step = port_step(arc_mate, s, slot_of, free)
        fresh = [q for q in range(4 * s, 4 * s + 4) if q in slot_of]
        slot_of.update(zip(fresh, [slot_of[q] for q in reversed(fresh)]))
        return step

    monkeypatch.setattr(_kernels, "_port_step", faulty)
