"""Two-route identity checks tying diagrams to their ribbon graphs.

The bracket of an alternating diagram equals

    A^r(G) B^n(G) d^(k(G)-1) R_G(Bd/A, Ad/B, 1/d)

for its ribbon graph G, and the same shape holds for switchable diagrams
with the signed polynomial of the signed graph.  The check computes both
sides, a state sum over the crossings on the left and a subgraph sum over
the edges on the right, and compares canonical polynomials exactly.

The right side is evaluated at the identity's own point, never built as
R_G, and so is the Jones polynomial on both sides: each side is one of
the two point sums diagram._bracket_contraction and _jones_contraction,
the left over the crossings, the right over the edges as
ribbon._identity_plan lays them out.  Neither substitutes or divides.

bracket_via_rank_poly keeps the assembly through the whole rank
polynomial, substituted term by term, as the reference the direct
evaluation is checked against; jones_via_rank_poly reads the Jones point
off it through diagram.at_jones_point, as diagram.jones_via_bracket does
off the whole bracket on the left side.

Both sums run _kernels.frontier_histogram on one port table: before
they are compared, _verify checks that the graph's site table is the
diagram's port table relabelled, and a mismatch is a builder fault that
raises RuntimeError (exit 4 on the command line, never 1).  So the two
sides are not independent, and a kernel fault can make both wrong alike.
_check_point then reads each side where every state weighs
(-2)^(loops-1), and a side that misses raises RuntimeError too.  On 660
random colourable diagrams it flagged 94.7-99.8% of the wrong results
that verify reported equal under a kernel fault in the loops a join
closes (one more for two or more, or at most one).  It misses about a
third of those under a fault in the frontier's slots, and any fault
that keeps the value at that point; the tests' reference sweeps, move
oracles and the other colour's graph catch more, as do selftest's
per-state and per-subgraph traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import build_signed
from .diagram import (
    BRACKET_VARS,
    JONES_VARS,
    Diagram,
    _bracket_contraction,
    _jones_contraction,
    at_jones_point,
    components,
    jones,
    kauffman_bracket,
    writhe,
)
from .laurent import LaurentPoly
from .ribbon import RibbonGraph, _identity_plan, br_poly, graph_stats, tutte_via_br


@dataclass(frozen=True)
class VerifyReport:
    """Both sides of an identity check, the graph_stats of the ribbon
    graph behind the right side, and the crossings switched to build it.

    The graph is that of the diagram's crossings.  The diagram's free
    loops, the whole graph's dart-less vertices, are counted in stats."""

    left: LaurentPoly
    right: LaurentPoly
    equal: bool
    stats: dict[str, int]
    switches: tuple[int, ...] = ()

    @property
    def r(self) -> int:
        return self.stats["r"]

    @property
    def n(self) -> int:
        return self.stats["n"]

    @property
    def k(self) -> int:
        return self.stats["k"]


def bracket_from_graph(g: RibbonGraph, isolated: int = 0) -> LaurentPoly:
    """The right side of the bracket identity, A^r B^n d^(k-1) times the
    signed rank polynomial at x = Bd/A, y = Ad/B, z = 1/d, summed at
    that point directly by diagram._bracket_contraction.  The signs are
    g's own edge signs; a graph with no negative edge, such as
    build_ribbon's, gives the unsigned form.  `isolated` counts further
    dart-less vertices that g leaves out, each one more boundary
    component of every spanning subgraph.
    """
    mate, steps, alpha0, bare = _identity_plan(g, "bracket")
    return _bracket_contraction(mate, steps, alpha0, bare + isolated)


def bracket_via_rank_poly(g: RibbonGraph) -> LaurentPoly:
    """bracket_from_graph by way of the whole rank polynomial: the signed
    R_G from br_poly, with g's own edge signs, substituted, times A^r B^n
    d^(k-1).  The reference the direct evaluation is checked against."""
    stats = graph_stats(g)
    assembled = br_poly(g, signed=True).substitute(
        {
            "x": LaurentPoly.monomial(BRACKET_VARS, 1, A=-1, B=1, d=1),
            "y": LaurentPoly.monomial(BRACKET_VARS, 1, A=1, B=-1, d=1),
            "z": LaurentPoly.monomial(BRACKET_VARS, 1, d=-1),
        },
        BRACKET_VARS,
    )
    prefactor = LaurentPoly.monomial(
        BRACKET_VARS, 1, A=stats["r"], B=stats["n"], d=stats["k"] - 1
    )
    return prefactor * assembled


def jones_from_graph(g: RibbonGraph, w: int, isolated: int = 0) -> LaurentPoly:
    """The right side of the Jones identity for a signed ribbon graph and
    writhe, summed at its point directly by diagram._jones_contraction,
    which reads no graph statistic; `isolated` is as in
    bracket_from_graph.
    """
    mate, steps, alpha0, bare = _identity_plan(g, "Jones polynomial")
    return _jones_contraction(mate, steps, alpha0, bare + isolated, w)


def jones_via_rank_poly(g: RibbonGraph, w: int) -> LaurentPoly:
    """jones_from_graph by way of the whole signed rank polynomial:
    bracket_via_rank_poly read at the Jones point by
    diagram.at_jones_point.  The reference the direct evaluation is
    checked against."""
    if not g.vertices:
        raise ValueError("a graph with no vertices has no Jones polynomial")
    return at_jones_point(bracket_via_rank_poly(g), w)


def jones_via_tutte(g: RibbonGraph, w: int) -> LaurentPoly:
    """The classical Jones assembly through the Tutte polynomial.

    Only sound for genus-0 graphs with all edges positive, where the rank
    polynomial carries no z and no sign shifts; evaluates the Tutte
    polynomial at (-t, -t^-1), times A^r B^n d^(k-1) read at the Jones
    point by diagram.at_jones_point.
    """
    stats = graph_stats(g)
    if stats["genus"] != 0:
        raise ValueError("the Tutte route needs a genus-0 ribbon graph")
    if g.negative_mask():
        raise ValueError("the Tutte route needs all edge signs positive")
    t = LaurentPoly.variable(JONES_VARS, "t")
    value = tutte_via_br(g).substitute({"x": -t, "y": -t ** -1}, JONES_VARS)
    outside = LaurentPoly.monomial(BRACKET_VARS, 1, A=stats["r"], B=stats["n"], d=stats["k"] - 1)
    return at_jones_point(outside, w) * value


def _check_bijection(d: Diagram, g: RibbonGraph, switches) -> None:
    """The state-subgraph bijection, checked in O(n): port p of crossing c
    must be port 4c + (((p - k) mod 4) ^ 2) of edge c in g's site table, k
    being c's over_in if c was switched to build g and 0 otherwise.  A
    mismatch is a builder fault, not a failed identity."""
    shift = {c: d.crossings[c].over_in for c in switches}
    relabel = [(i & ~3) + (((i - shift.get(i >> 2, 0)) & 3) ^ 2) for i in range(len(d._mate))]
    arc_mate = g._sites[0]
    for i, j in enumerate(d._mate):
        if len(arc_mate) != len(relabel) or arc_mate[relabel[i]] != relabel[j]:
            raise RuntimeError(f"bijection check failed at edge {i >> 2}: the graph's "
                               "site table is not the diagram's port table relabelled")


def _verify(d: Diagram, mode: str) -> VerifyReport:
    """The one body of the three checks; mode is "main", "signed" or "jones".

    Builds the graph of the crossings and its graph_stats once; the left
    side never sees them.  Each free loop is a dart-less vertex of the
    whole graph, one more vertex, component and boundary component of
    every subgraph.  They are kept as a count, so that no vertex is
    allocated per loop.
    """
    loops = d.free_loops
    crossings = Diagram(d.crossings) if loops else d
    g, used = build_signed(crossings, () if mode == "main" else None)
    _check_bijection(crossings, g, used)
    stats = graph_stats(g)
    stats.update(v=stats["v"] + loops, k=stats["k"] + loops, bc=stats["bc"] + loops)
    w = writhe(d)
    if mode == "jones":
        left = jones(d)
        right = jones_from_graph(g, w, loops)
    else:
        left = kauffman_bracket(d)
        right = bracket_from_graph(g, loops)
    _check_point(d, w, mode, left, right)
    return VerifyReport(left, right, left == right, stats, used)


def _check_point(d: Diagram, w: int, mode: str, left, right) -> None:
    """Each side read where every state weighs (-2)^(loops-1): a bracket
    at A = B = 1, d = -2 is (-1)^w (-2)^(mu-1), and a Jones polynomial at
    t = 1 is (-2)^(mu-1), mu counting d's components and free loops.  A
    bracket's terms are summed as integers grouped by d's exponent, both
    sides divided by (-2)^low, low being the least exponent, so that no
    power of -2 grows with the free loops.  A side that misses is a
    kernel fault, not a failed identity."""
    mu = len(components(d)) + d.free_loops
    for side, poly in (("left", left), ("right", right)):
        if mode == "jones":
            holds = sum(poly._terms.values()) == (-2) ** (mu - 1)
            point = f"t = 1 is not (-2)^{mu - 1}"
        else:
            by_d: dict[int, int] = {}
            for (_, _, q), c in poly._terms.items():
                by_d[q >> 2] = by_d.get(q >> 2, 0) + c
            low = min(by_d, default=mu)
            value = sum(c * (-2) ** (e - low) for e, c in by_d.items())
            holds = mu > low and value == (-2) ** (mu - 1 - low) * (-1 if w % 2 else 1)
            point = f"A = B = 1, d = -2 is not (-1)^{w} (-2)^{mu - 1}"
        if not holds:
            raise RuntimeError(f"point check failed: the {side} side at {point}")


def verify_main(d: Diagram) -> VerifyReport:
    """Check the bracket identity for an alternating diagram."""
    return _verify(d, "main")


def verify_signed(d: Diagram) -> VerifyReport:
    """Check the signed bracket identity for a switchable diagram."""
    return _verify(d, "signed")


def verify_jones(d: Diagram) -> VerifyReport:
    """Check the Jones assembly against the direct bracket route."""
    return _verify(d, "jones")
