"""Ribbon graphs as rotation systems, and their rank polynomials.

A ribbon graph is stored as a rotation system: each vertex carries the
counterclockwise cyclic order of its darts (edge ends), and each edge pairs
two distinct darts, optionally with a sign.  Loops are edges whose darts
sit at the same vertex; isolated vertices have no darts.  Rotation systems
describe orientable surfaces, so no extra orientation data is needed.

For a spanning subgraph F (a subset of edges over all vertices), write
k(F) for its connected components, r(F) = v - k(F) for its rank,
n(F) = e(F) - r(F) for its nullity, and bc(F) for its boundary components,
counted as orbits of (rotation restricted to F. composed with the edge
pairing) on the darts of F, plus one orbit per vertex F does not touch.
The rank polynomial of the whole graph G is the subgraph sum

    R_G(x, y, z) = sum over F of  x^(r(G)-r(F)) y^(n(F)) z^(k(F)-bc(F)+n(F))

and z^2-degrees track genus: a genus-0 graph has a z-free R_G.  The signed
variant shifts the x and y exponents by s(F) = (e-(F) - e-(complement))/2,
where e-( ) counts negative edges, giving half-integer exponents when the
total number of negative edges is odd.  Substituting x-1, y-1, 1 into the
unsigned R_G yields the Tutte polynomial of the underlying graph.

A graph reads its rotations once, when it is made, into a site table
(arc_mate, site_verts) in the port layout a diagram's crossings use (see
_kernels): edge s is site s and owns ports 4s .. 4s+3, two per dart, an
arc joins each dart to the next one counterclockwise at its vertex, and
the site's chosen join puts the edge in the subgraph.  The closed loops
of arcs and joins are the boundary components, just as a state's loops
are its curves.  Frontier contraction and the reference sweep read this
table.  The per-subgraph trace subgraph_stats walks the vertex and edge
names instead, so it checks the table rather than sharing it.

File format, one item per line; # starts a comment anywhere on a line:

    V u : a1 c1 b1 c2      vertex u, darts counterclockwise (may be empty)
    E a : a1 a2            edge a pairing darts a1 and a2
    E c : c1 c2 sign=-     a negative edge (sign=+ is the default)

Names follow the diagram format's grammar: ASCII letters, digits and
underscores.  Edge and RibbonGraph check every rule but a line's shape,
so every graph they accept prints as a file that parses back equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import comb

from ._kernels import frontier_histogram
from .diagram import _is_name, _lines, _tuple
from .laurent import LaurentPoly
from .limits import check_enumeration_size

BR_VARS = ("x", "y", "z")
TUTTE_VARS = ("x", "y")

_SIGNS = {"sign=+": 1, "sign=-": -1}


class RibbonError(ValueError):
    """Malformed ribbon graph data.

    `vertex` or `edge` is the index of the vertex or edge at fault when
    there is one; parse_ribbon turns it into the line number.
    """

    def __init__(self, message: str, vertex: int | None = None, edge: int | None = None):
        super().__init__(message)
        self.vertex = vertex
        self.edge = edge


@dataclass(frozen=True)
class Edge:
    """An edge: a name, its two darts, and a sign."""

    name: str
    darts: tuple[str, str]
    sign: int = 1

    def __post_init__(self):
        darts = _tuple(self.darts)
        if darts is None:
            message = f"edge {self.name!r} must pair two distinct darts, got {self.darts!r}"
            raise RibbonError(message)
        object.__setattr__(self, "darts", darts)
        for name in (self.name, *self.darts):
            if not _is_name(name):
                raise RibbonError(f"bad name {name!r}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise RibbonError(f"expected sign=+ or sign=-, got {self.sign!r}")
        if len(self.darts) != 2 or self.darts[0] == self.darts[1]:
            raise RibbonError(f"edge {self.name!r} must pair two distinct darts, got {self.darts}")


@dataclass(frozen=True)
class SubgraphStats:
    """Component, rank, nullity and boundary counts of a spanning subgraph."""

    k: int
    r: int
    n: int
    bc: int

    @property
    def genus(self) -> int:
        return (self.k - self.bc + self.n) // 2


@dataclass(frozen=True)
class RibbonGraph:
    """An edge-ordered rotation system with signed edges.

    Vertices and edges keep their construction order; spanning subgraphs
    are bitmasks over edges in that order.  The rotations are read once,
    at construction, into the site table `_sites` that frontier
    contraction and the reference sweep read; `==` and `repr` leave it
    out.  The per-subgraph trace subgraph_stats reads the names instead.
    """

    vertices: tuple[tuple[str, tuple[str, ...]], ...]
    edges: tuple[Edge, ...]
    # (arc_mate, site_verts) in the kernels' port layout, read from the names once.
    _sites: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices, edges = _tuple(self.vertices), _tuple(self.edges)
        if vertices is None or edges is None:
            raise RibbonError("vertices and edges must be sequences")
        rotations = []
        for vi, vertex in enumerate(vertices):
            pair = _tuple(vertex) or ()
            darts = _tuple(pair[1]) if len(pair) == 2 else None
            if darts is None:
                message = f"vertex {vi}: expected a (name, darts) pair, got {vertex!r}"
                raise RibbonError(message, vertex=vi)
            rotations.append((pair[0], darts))
        for ei, edge in enumerate(edges):
            if not isinstance(edge, Edge):
                raise RibbonError(f"edge {ei}: expected an Edge, got {edge!r}", edge=ei)
        object.__setattr__(self, "vertices", tuple(rotations))
        object.__setattr__(self, "edges", edges)
        seen_vertices = set()
        dart_vertex: dict[str, int] = {}
        for vi, (name, darts) in enumerate(self.vertices):
            if not _is_name(name):
                raise RibbonError(f"bad name {name!r}", vertex=vi)
            if name in seen_vertices:
                raise RibbonError(f"vertex {name!r} defined twice", vertex=vi)
            seen_vertices.add(name)
            for dart in darts:
                if dart in dart_vertex:
                    raise RibbonError(f"dart {dart!r} appears at two vertex positions", vertex=vi)
                dart_vertex[dart] = vi
        # Edge s with darts x, x' owns ports x in, x' out, x' in, x out:
        # in_port gives each dart its in port, 4s or 4s+2.
        in_port: dict[str, int] = {}
        seen_edges = set()
        for ei, edge in enumerate(self.edges):
            if edge.name in seen_edges:
                raise RibbonError(f"edge {edge.name!r} defined twice", edge=ei)
            seen_edges.add(edge.name)
            for side, dart in enumerate(edge.darts):
                if dart in in_port:
                    raise RibbonError(f"dart {dart!r} belongs to two edges", edge=ei)
                if dart not in dart_vertex:
                    raise RibbonError(f"dart {dart!r} is not placed at any vertex", edge=ei)
                in_port[dart] = 4 * ei + 2 * side
        for dart, vi in dart_vertex.items():
            if dart not in in_port:
                # Edge checks its own darts, so only a dart of no edge can be a bad name.
                if not _is_name(dart):
                    raise RibbonError(f"bad name {dart!r}", vertex=vi)
                raise RibbonError(f"dart {dart!r} belongs to no edge", vertex=vi)
        # The site table (arc_mate, site_verts) in the kernels' port layout,
        # with edge s as site s.  A dart's out port is its in port ^ 3, and
        # an arc joins x's out port to the in port of rot(x), the next dart
        # counterclockwise at its vertex.  The chosen join (x in to x' out,
        # x' in to x out) then steps from x to rot(x') as the face
        # permutation of a subgraph holding the edge does, and the unchosen
        # one steps from x to rot(x): the closed loops are the boundary
        # components.  site_verts holds each edge's two end vertices.
        mate = [0] * (4 * len(self.edges))
        for _, darts in self.vertices:
            for x, nxt in zip(darts, darts[1:] + darts[:1]):
                out, into = in_port[x] ^ 3, in_port[nxt]
                mate[out], mate[into] = into, out
        ends = tuple((dart_vertex[a], dart_vertex[b]) for a, b in (e.darts for e in self.edges))
        object.__setattr__(self, "_sites", (tuple(mate), ends))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_subset(self) -> int:
        return (1 << len(self.edges)) - 1

    def negative_mask(self) -> int:
        """Bitmask of the negative edges."""
        mask = 0
        for ei, edge in enumerate(self.edges):
            if edge.sign < 0:
                mask |= 1 << ei
        return mask

    def __repr__(self) -> str:
        return f"RibbonGraph({self.vertex_count} vertices, {self.edge_count} edges)"


def parse_ribbon(text: str) -> RibbonGraph:
    """Parse the ribbon file format; errors name the offending line.
    Edge and RibbonGraph check all but a line's shape (its directive and
    token count), so parse_ribbon(format_ribbon(g)) == g for every g."""
    vertices: list[tuple[str, list[str]]] = []
    edges: list[Edge] = []
    vertex_lines: list[int] = []
    edge_lines: list[int] = []
    try:
        for lineno, line, tokens in _lines(text):
            if tokens[0] == "V":
                if len(tokens) < 3 or tokens[2] != ":":
                    raise RibbonError(f"expected 'V name : darts...', got {line!r}")
                vertices.append((tokens[1], tokens[3:]))
                vertex_lines.append(lineno)
            elif tokens[0] == "E":
                if len(tokens) not in (5, 6) or tokens[2] != ":":
                    raise RibbonError(f"expected 'E name : dart dart [sign=+|-]', got {line!r}")
                sign = _SIGNS.get(tokens[5], tokens[5]) if len(tokens) == 6 else 1
                edges.append(Edge(tokens[1], (tokens[3], tokens[4]), sign))
                edge_lines.append(lineno)
            else:
                raise RibbonError(f"unknown directive {tokens[0]!r} (expected V or E)")
        return RibbonGraph(vertices, edges)
    except RibbonError as exc:
        # RibbonGraph names the vertex or edge at fault; a line's own is at lineno.
        if exc.edge is not None:
            lineno = edge_lines[exc.edge]
        elif exc.vertex is not None:
            lineno = vertex_lines[exc.vertex]
        raise RibbonError(f"line {lineno}: {exc}") from None


def format_ribbon(g: RibbonGraph) -> str:
    """Canonical file form; parse_ribbon(format_ribbon(g)) == g."""
    lines = [f"V {name} : {' '.join(darts)}".rstrip() for name, darts in g.vertices]
    for edge in g.edges:
        suffix = " sign=-" if edge.sign < 0 else ""
        lines.append(f"E {edge.name} : {edge.darts[0]} {edge.darts[1]}{suffix}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- subgraph statistics ------------------------------------------------


def subgraph_stats(g: RibbonGraph, subset: int) -> SubgraphStats:
    """Stats of one spanning subgraph, as a direct pure-Python trace.

    `subset` is a bitmask over edges in graph order.  The trace walks the
    vertex and edge names and never reads the site table, so it stays
    independent of the input the contraction and the sweep share.
    """
    v = g.vertex_count
    e = g.edge_count
    if not 0 <= subset < (1 << e):
        raise RibbonError(f"subset {subset} out of range for {e} edges")
    vertex_of = {d: vi for vi, (_, darts) in enumerate(g.vertices) for d in darts}
    parent = list(range(v))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    k = v
    partner: dict[str, str] = {}
    for ei, edge in enumerate(g.edges):
        if (subset >> ei) & 1:
            a, b = edge.darts
            partner[a], partner[b] = b, a
            ra, rb = find(vertex_of[a]), find(vertex_of[b])
            if ra != rb:
                parent[ra] = rb
                k -= 1
    bc = 0
    nxt: dict[str, str] = {}
    for _, darts in g.vertices:
        present = [d for d in darts if d in partner]
        if not present:
            bc += 1
        nxt.update(zip(present, present[1:] + present[:1]))
    seen: set[str] = set()
    for d in nxt:
        if d in seen:
            continue
        bc += 1
        x = d
        while x not in seen:
            seen.add(x)
            x = nxt[partner[x]]
    r = v - k
    return SubgraphStats(k, r, len(partner) // 2 - r, bc)


def _trace_rows(g: RibbonGraph):
    """The ((e(F), e-(F), k(F), bc(F)), count) rows of subgraph_stats over
    every subset of edges, in increasing order, with the dart-less
    vertices left out of k and bc, as _frontier_rows leaves them out:
    _rank_poly(g, rows, g.negative_mask()) is the signed rank polynomial
    by the per-subgraph traces."""
    e = g.edge_count
    check_enumeration_size(e, f"subgraph table of a {e}-edge ribbon graph")
    neg = g.negative_mask()
    bare = sum(not darts for _, darts in g.vertices)
    rows = Counter()
    for subset in range(1 << e):
        stats = subgraph_stats(g, subset)
        rows[subset.bit_count(), (subset & neg).bit_count(), stats.k - bare, stats.bc - bare] += 1
    return sorted(rows.items())


def genus(g: RibbonGraph) -> int:
    """Genus of the surface the whole graph describes."""
    return subgraph_stats(g, g.full_subset).genus


def graph_stats(g: RibbonGraph) -> dict[str, int]:
    """Whole-graph statistics keyed for reporting."""
    stats = subgraph_stats(g, g.full_subset)
    return {
        "v": g.vertex_count,
        "e": g.edge_count,
        "k": stats.k,
        "r": stats.r,
        "n": stats.n,
        "bc": stats.bc,
        "genus": stats.genus,
    }


# -- rank polynomials ---------------------------------------------------


def br_poly(g: RibbonGraph, signed: bool = False) -> LaurentPoly:
    """The rank polynomial R_G(x, y, z), or with `signed` its signed variant.

    The signed variant shifts the x and y exponents by s(F) =
    (e-(F) - e-(F complement)) / 2 in half-integers, which the exponent
    lattice absorbs exactly; with no negative edges s(F) = 0 and both
    agree.  The subgraphs are summed by frontier contraction, which
    leaves out dart-less vertices: they change no exponent, as each adds
    one to v, k(F) and bc(F) alike.  k(G) is the least k(F), since adding
    edges never splits a component.
    """
    e = g.edge_count
    check_enumeration_size(e, f"rank polynomial of a {e}-edge ribbon graph")
    neg = g.negative_mask() if signed else 0
    return _rank_poly(g, _frontier_rows(g._sites, neg), neg)


def _identity_plan(g: RibbonGraph, what: str):
    """(arc_mate, steps, alpha0, bare), the input of the identity's point
    sums diagram._bracket_contraction and _jones_contraction over g's
    edges, after the cap check on `what`.  The signs are g's own: a
    chosen edge steps alpha by 1, or by -1 when negative, from alpha0,
    the number of negative edges.  bare counts the dart-less vertices."""
    e = g.edge_count
    check_enumeration_size(e, f"{what} of a {e}-edge ribbon graph")
    neg = g.negative_mask()
    steps = [-1 if (neg >> s) & 1 else 1 for s in range(e)]
    return g._sites[0], steps, neg.bit_count(), sum(not darts for _, darts in g.vertices)


def _frontier_rows(sites, neg: int):
    """(e(F), e-(F), k(F), bc(F)) with their counts over the subgraphs, by
    frontier contraction of the edges.  A chosen edge shifts
    its row by one unit of e(F), plus one of e-(F) when negative."""
    mate, verts = sites
    unit_chosen = neg.bit_count() + 1  # e-(F) <= e-(G)
    shifts = [unit_chosen + ((neg >> s) & 1) for s in range(len(verts))]
    return [((*divmod(shift, unit_chosen), k, bc), count)
            for (shift, k, bc), count in frontier_histogram(mate, shifts, verts)]


def _rank_poly(g: RibbonGraph, rows, neg: int) -> LaurentPoly:
    rows = list(rows)
    v = sum(bool(darts) for _, darts in g.vertices)
    k_g = min(k for (_, _, k, _), _ in rows)
    e_neg_total = neg.bit_count()
    terms: dict[tuple[int, int, int], int] = {}
    for (ef, eneg, k, bc), count in rows:
        n_f = ef - v + k
        s_quarter = 2 * (2 * eneg - e_neg_total)
        exps = (4 * (k - k_g) + s_quarter, 4 * n_f - s_quarter, 4 * (k - bc + n_f))
        terms[exps] = terms.get(exps, 0) + count
    return LaurentPoly._make(BR_VARS, terms)


def signed_br_poly(g: RibbonGraph) -> LaurentPoly:
    """The signed rank polynomial: br_poly(g, signed=True)."""
    return br_poly(g, signed=True)


def tutte_via_br(g: RibbonGraph) -> LaurentPoly:
    """The Tutte polynomial of the underlying graph, R_G(x-1, y-1, 1):
    br_poly's terms merged with z = 1, each (x-1)^a (y-1)^b expanded by
    binomial coefficients."""
    merged: dict[tuple[int, int], int] = {}
    for (a, b, _), c in br_poly(g)._terms.items():
        merged[a >> 2, b >> 2] = merged.get((a >> 2, b >> 2), 0) + c
    terms: dict[tuple[int, int], int] = {}
    for (a, b), c in merged.items():
        for i, j in product(range(a + 1), range(b + 1)):
            sign = -1 if (a + b - i - j) % 2 else 1
            terms[4 * i, 4 * j] = terms.get((4 * i, 4 * j), 0) + sign * comb(a, i) * comb(b, j) * c
    return LaurentPoly._make(TUTTE_VARS, terms)
