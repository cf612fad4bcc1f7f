"""Two-route identity checks tying diagrams to their ribbon graphs.

The bracket of an alternating diagram equals

    A^r(G) B^n(G) d^(k(G)-1) R_G(Bd/A, Ad/B, 1/d)

for its ribbon graph G, and the same shape holds for switchable diagrams
with the signed polynomial of the signed graph.  The check computes both
sides by disjoint code paths (state sum over the crossings on the left,
subgraph sum over the edges on the right) and compares canonical
polynomials exactly.

The right side is evaluated at the identity's own point, never built as
R_G.  At x = Bd/A, y = Ad/B, z = 1/d a closed vertex class weighs
x y z^2 = 1, so the component count k(F) drops out of every subgraph's
term, and F contributes A^alpha B^(e-alpha) d^(bc(F)-1), where alpha
counts the positive edges in F and the negative edges outside it.  So the
subgraph sum needs only (alpha, bc) rows, which ribbon.identity_rows
counts by frontier contraction with no vertex partitions.

The Jones polynomial admits the same treatment, on both sides.  The
substitution values factor over D = -t^(1/2) - t^(-1/2) as
x = D t^(1/2), y = D t^(-1/2), z = 1/D, and again x y z^2 = 1: F
contributes t^((e-2 alpha)/4) D^(bc(F)-1) under the prefactor
(-1)^w t^(3w/4), the term of the matching state on the left (r and n
enter only as r + n = e).  So both sides sum their terms by the same
frontier contraction, diagram._jones_contraction, which carries each
key's polynomial in t^(1/4) and multiplies it by D for each loop a
join closes; neither side substitutes or divides.

bracket_via_rank_poly and jones_via_rank_poly keep the assembly through
the whole rank polynomial, substituted term by term, as the reference
the direct evaluation is checked against; diagram.jones_via_bracket does
the same for the left side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .build import build_ribbon, build_signed
from .diagram import (
    BIG_D,
    BRACKET_VARS,
    JONES_VARS,
    Diagram,
    _bracket_sum,
    _jones_contraction,
    jones,
    kauffman_bracket,
    writhe,
)
from .laurent import LaurentPoly
from .ribbon import RibbonGraph, _plan, br_poly, graph_stats, identity_rows, tutte_via_br


@dataclass(frozen=True)
class VerifyReport:
    """Both sides of an identity check, the ribbon graph behind the right
    side with its graph_stats, and the crossings switched to build it.

    The graph is that of the diagram's crossings.  The diagram's free
    loops, the whole graph's dart-less vertices, are counted in stats."""

    left: LaurentPoly
    right: LaurentPoly
    equal: bool
    graph: RibbonGraph
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


def bracket_from_graph(g: RibbonGraph, signed: bool = False, isolated: int = 0) -> LaurentPoly:
    """The right side of the bracket identity, A^r B^n d^(k-1) times the
    (signed) rank polynomial at x = Bd/A, y = Ad/B, z = 1/d, evaluated at
    that point directly: the sum over spanning subgraphs F of
    A^alpha(F) B^(e-alpha(F)) d^(bc(F)-1), as identity_rows counts them.
    `isolated` counts further dart-less vertices that g leaves out, each
    one more boundary component of every F.
    """
    return _bracket_sum(g.edge_count, identity_rows(g, signed), isolated)


def bracket_via_rank_poly(g: RibbonGraph, signed: bool = False) -> LaurentPoly:
    """bracket_from_graph by way of the whole rank polynomial: R_G from
    br_poly, substituted, times A^r B^n d^(k-1).  The reference the direct
    evaluation is checked against."""
    stats = graph_stats(g)
    assembled = br_poly(g, signed=signed).substitute(
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


def _jones_prefactor(w: int, stats: dict[str, int]) -> LaurentPoly:
    """(-1)^w t^((3w-r+n)/4), shared by the graph-side Jones references."""
    return LaurentPoly.monomial(
        JONES_VARS, -1 if w % 2 else 1, t=Fraction(3 * w - stats["r"] + stats["n"], 4)
    )


def jones_from_graph(g: RibbonGraph, w: int, isolated: int = 0) -> LaurentPoly:
    """The right side of the Jones identity for a signed ribbon graph and
    writhe, evaluated at its point directly: the sum over F of
    t^((e-2 alpha(F))/4) D^(bc(F)-1) under (-1)^w t^(3w/4), with alpha and
    bc as identity_rows counts them.  r and n enter only as r + n = e, so
    no graph statistic is read.  diagram._jones_contraction sums it with
    a chosen edge weighing t^(-1/2), or t^(1/2) when negative; `isolated`
    is as in bracket_from_graph.
    """
    neg, (mate, _) = _plan(g, True, "bracket")
    shifts = [2 if (neg >> s) & 1 else -2 for s in range(g.edge_count)]
    bare = sum(not darts for _, darts in g.vertices)
    base = g.edge_count - 2 * neg.bit_count()  # alpha starts at e-
    return _jones_contraction(mate, shifts, base, bare + isolated, w)


def jones_via_rank_poly(g: RibbonGraph, w: int) -> LaurentPoly:
    """jones_from_graph by way of the whole signed rank polynomial: a term
    x^a y^b z^c contributes t^((a-b)/2) D^(a+b-c+k-1), whose D exponent
    is bc(F) - 1.  The terms are grouped by their power of D and the
    groups summed by LaurentPoly products.  The reference the direct
    evaluation is checked against."""
    if not g.vertices:
        raise ValueError("a graph with no vertices has no Jones polynomial")
    stats = graph_stats(g)
    groups: dict[int, LaurentPoly] = {}
    for (a, b, c), coeff in br_poly(g, signed=True).terms():
        p = int(a + b - c + stats["k"] - 1)
        groups[p] = groups.get(p, 0) + LaurentPoly.monomial(JONES_VARS, coeff, t=(a - b) / 2)
    return _jones_prefactor(w, stats) * sum(BIG_D ** p * group for p, group in groups.items())


def jones_via_tutte(g: RibbonGraph, w: int) -> LaurentPoly:
    """The classical Jones assembly through the Tutte polynomial.

    Only sound for genus-0 graphs with all edges positive, where the rank
    polynomial carries no z and no sign shifts; evaluates the Tutte
    polynomial at (-t, -t^-1).
    """
    stats = graph_stats(g)
    if stats["genus"] != 0:
        raise ValueError("the Tutte route needs a genus-0 ribbon graph")
    if g.negative_mask():
        raise ValueError("the Tutte route needs all edge signs positive")
    t = LaurentPoly.variable(JONES_VARS, "t")
    value = tutte_via_br(g).substitute({"x": -t, "y": -t ** -1}, JONES_VARS)
    return _jones_prefactor(w, stats) * BIG_D ** (stats["k"] - 1) * value


def _verify(d: Diagram, mode: str, switches=None) -> VerifyReport:
    """The one body of the three checks; mode is "main", "signed" or "jones".

    Builds the graph of the crossings and its graph_stats once; the left
    side never sees them.  Each free loop is a dart-less vertex of the
    whole graph, one more vertex, component and boundary component of
    every subgraph.  They are kept as a count, so that no vertex is
    allocated per loop.
    """
    loops = d.free_loops
    crossings = Diagram(d.crossings) if loops else d
    if mode == "main":
        g, used = build_ribbon(crossings), ()
    else:
        g, used = build_signed(crossings, switches)
    stats = graph_stats(g)
    stats.update(v=stats["v"] + loops, k=stats["k"] + loops, bc=stats["bc"] + loops)
    if mode == "jones":
        left = jones(d)
        right = jones_from_graph(g, writhe(d), loops)
    else:
        left = kauffman_bracket(d)
        right = bracket_from_graph(g, mode == "signed", loops)
    return VerifyReport(left, right, left == right, g, stats, used)


def verify_main(d: Diagram) -> VerifyReport:
    """Check the bracket identity for an alternating diagram."""
    return _verify(d, "main")


def verify_signed(d: Diagram, switches=None) -> VerifyReport:
    """Check the signed bracket identity for a switchable diagram."""
    return _verify(d, "signed", switches)


def verify_jones(d: Diagram, switches=None) -> VerifyReport:
    """Check the Jones assembly against the direct bracket route."""
    return _verify(d, "jones", switches)
