"""Two-route identity checks tying diagrams to their ribbon graphs.

The bracket of an alternating diagram equals

    A^r(G) B^n(G) d^(k(G)-1) R_G(Bd/A, Ad/B, 1/d)

for its ribbon graph G, and the same shape holds for switchable diagrams
with the signed polynomial of the signed graph.  The check computes both
sides by disjoint code paths (state sum on the left, subgraph sum plus
substitution on the right) and compares canonical polynomials exactly.

The Jones polynomial admits the same treatment.  The substitution values
factor over D = -t^(1/2) - t^(-1/2) as x = D t^(1/2), y = D t^(-1/2),
z = 1/D, so a term x^a y^b z^c of the signed polynomial contributes
t^((a-b)/2) D^(a+b-c); together with the d^(k-1) prefactor the D exponent
comes to bc(F) - 1 >= 0, and the whole right side is assembled without
ever dividing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .build import build_ribbon, build_signed
from .diagram import (
    BRACKET_VARS,
    JONES_VARS,
    Diagram,
    jones,
    kauffman_bracket,
    writhe,
)
from .laurent import LaurentPoly
from .ribbon import RibbonGraph, br_poly, graph_stats, tutte_via_br


@dataclass(frozen=True)
class VerifyReport:
    """Both sides of an identity check, the ribbon graph behind the right
    side with its graph_stats, and the crossings switched to build it."""

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


def bracket_from_graph(g: RibbonGraph, signed: bool = False, stats=None) -> LaurentPoly:
    """Assemble a bracket polynomial from a ribbon graph.

    Multiplies the (signed) rank polynomial, evaluated at x = Bd/A,
    y = Ad/B, z = 1/d, by the monomial A^r B^n d^(k-1).  `stats` is
    graph_stats(g), computed here when not given.
    """
    poly = br_poly(g, signed=signed)
    stats = graph_stats(g) if stats is None else stats
    assembled = poly.substitute(
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
    """(-1)^w t^((3w-r+n)/4), shared by both graph routes to Jones."""
    return LaurentPoly.monomial(
        JONES_VARS, -1 if w % 2 else 1, t=Fraction(3 * w - stats["r"] + stats["n"], 4)
    )


def jones_from_graph(g: RibbonGraph, w: int, stats=None) -> LaurentPoly:
    """Assemble a Jones polynomial from a signed ribbon graph and writhe.

    Per term x^a y^b z^c the contribution is t^((a-b)/2) times
    D^(a+b-c+k-1) with D = -t^(1/2) - t^(-1/2); the global prefactor is
    (-1)^w t^((3w-r+n)/4).  The terms are grouped by their power of D and
    the groups summed by Horner's rule, one product per power.  `stats`
    is graph_stats(g), computed here when not given.
    """
    poly = br_poly(g, signed=True)
    stats = graph_stats(g) if stats is None else stats
    big_d = LaurentPoly.parse("-t^(1/2) - t^(-1/2)", JONES_VARS)
    groups: dict[int, dict[tuple[int], int]] = {}
    for (a, b, c), coeff in poly.terms():
        d_power = int(a + b - c + stats["k"] - 1)  # equals bc(F) - 1, a nonnegative integer
        group = groups.setdefault(d_power, {})
        t_quarters = (int(2 * (a - b)),)  # t^((a-b)/2) in quarter units
        group[t_quarters] = group.get(t_quarters, 0) + coeff
    total = LaurentPoly.zero(JONES_VARS)
    for d_power in range(max(groups, default=-1), -1, -1):
        total = total * big_d + LaurentPoly(JONES_VARS, groups.get(d_power))
    return _jones_prefactor(w, stats) * total


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
    value = tutte_via_br(g).substitute(
        {
            "x": LaurentPoly.parse("-t", JONES_VARS),
            "y": LaurentPoly.parse("-t^-1", JONES_VARS),
        },
        JONES_VARS,
    )
    big_d = LaurentPoly.parse("-t^(1/2) - t^(-1/2)", JONES_VARS)
    return _jones_prefactor(w, stats) * big_d ** (stats["k"] - 1) * value


def _verify(d: Diagram, mode: str, switches=None) -> VerifyReport:
    """The one body of the three checks; mode is "main", "signed" or "jones".

    Builds the graph and its graph_stats once; the left side never sees
    them.
    """
    if mode == "main":
        g, used = build_ribbon(d), ()
    else:
        g, used = build_signed(d, switches)
    stats = graph_stats(g)
    if mode == "jones":
        left = jones(d)
        right = jones_from_graph(g, writhe(d), stats)
    else:
        left = kauffman_bracket(d)
        right = bracket_from_graph(g, mode == "signed", stats)
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
