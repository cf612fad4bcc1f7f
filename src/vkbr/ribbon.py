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

File format, one item per line, # starts a comment:

    V u : a1 c1 b1 c2      vertex u, darts counterclockwise (may be empty)
    E a : a1 a2            edge a pairing darts a1 and a2
    E c : c1 c2 sign=-     a negative edge (sign=+ is the default)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ._kernels import popcounts, subgraph_sweep
from .laurent import LaurentPoly
from .limits import check_enumeration_size

BR_VARS = ("x", "y", "z")
TUTTE_VARS = ("x", "y")

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


class RibbonError(ValueError):
    """Malformed ribbon graph data."""


@dataclass(frozen=True)
class Edge:
    """An edge: a name, its two darts, and a sign."""

    name: str
    darts: tuple[str, str]
    sign: int = 1

    def __post_init__(self):
        if len(self.darts) != 2 or self.darts[0] == self.darts[1]:
            raise RibbonError(
                f"edge {self.name!r} must pair two distinct darts, got {self.darts}"
            )
        if self.sign not in (1, -1):
            raise RibbonError(f"edge {self.name!r} sign must be +1 or -1, got {self.sign}")


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


class RibbonGraph:
    """An edge-ordered rotation system with signed edges.

    Vertices and edges keep their construction order; spanning subgraphs
    are bitmasks over edges in that order.  Instances are immutable by
    convention.
    """

    def __init__(self, vertices, edges):
        self.vertices: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
            (name, tuple(darts)) for name, darts in vertices
        )
        self.edges: tuple[Edge, ...] = tuple(edges)
        seen_vertices = set()
        dart_vertex: dict[str, int] = {}
        for vi, (name, darts) in enumerate(self.vertices):
            if name in seen_vertices:
                raise RibbonError(f"vertex {name!r} defined twice")
            seen_vertices.add(name)
            for dart in darts:
                if dart in dart_vertex:
                    raise RibbonError(f"dart {dart!r} appears at two vertex positions")
                dart_vertex[dart] = vi
        dart_edge: dict[str, int] = {}
        seen_edges = set()
        for ei, edge in enumerate(self.edges):
            if edge.name in seen_edges:
                raise RibbonError(f"edge {edge.name!r} defined twice")
            seen_edges.add(edge.name)
            for dart in edge.darts:
                if dart in dart_edge:
                    raise RibbonError(f"dart {dart!r} belongs to two edges")
                if dart not in dart_vertex:
                    raise RibbonError(f"dart {dart!r} is not placed at any vertex")
                dart_edge[dart] = ei
        for dart in dart_vertex:
            if dart not in dart_edge:
                raise RibbonError(f"dart {dart!r} belongs to no edge")
        # Positional tables: dart id = position in the concatenated rotations.
        self._dart_ids: dict[str, int] = {}
        self._vert_off: list[int] = [0]
        for _, darts in self.vertices:
            for dart in darts:
                self._dart_ids[dart] = len(self._dart_ids)
            self._vert_off.append(len(self._dart_ids))
        self._dart_vertex = [dart_vertex[d] for d in self._dart_ids]
        self._edge_of_dart = [dart_edge[d] for d in self._dart_ids]
        self._partner = [0] * len(self._dart_ids)
        for edge in self.edges:
            a, b = (self._dart_ids[d] for d in edge.darts)
            self._partner[a] = b
            self._partner[b] = a

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_subset(self) -> int:
        return (1 << len(self.edges)) - 1

    def sweep_arrays(self):
        """The arguments of _kernels.subgraph_sweep for this graph.

        (v, e, vert_off, vert_darts, edge_u, edge_w, edge_of_dart, partner):
        dart ids are positions in the concatenated rotations, so vert_darts
        is the identity and vert_off delimits each vertex's darts;
        edge_u/edge_w are the vertices of each edge's first and second dart.
        """
        ends = [
            [self._dart_vertex[self._dart_ids[edge.darts[side]]] for edge in self.edges]
            for side in (0, 1)
        ]
        return (
            self.vertex_count,
            self.edge_count,
            np.array(self._vert_off, dtype=np.int32),
            np.arange(len(self._dart_ids), dtype=np.int32),
            np.array(ends[0], dtype=np.int32),
            np.array(ends[1], dtype=np.int32),
            np.array(self._edge_of_dart, dtype=np.int32),
            np.array(self._partner, dtype=np.int32),
        )

    def negative_mask(self) -> int:
        """Bitmask of the negative edges."""
        mask = 0
        for ei, edge in enumerate(self.edges):
            if edge.sign < 0:
                mask |= 1 << ei
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, RibbonGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"RibbonGraph({self.vertex_count} vertices, {self.edge_count} edges)"
        )


def parse_ribbon(text: str) -> RibbonGraph:
    """Parse the ribbon file format; errors name the offending line."""
    vertices: list[tuple[str, tuple[str, ...]]] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "V":
            if len(tokens) < 3 or tokens[2] != ":":
                raise RibbonError(f"line {lineno}: expected 'V name : darts...', got {line!r}")
            name = tokens[1]
            darts = tokens[3:]
            for t in (name, *darts):
                if not _NAME.match(t):
                    raise RibbonError(f"line {lineno}: bad name {t!r}")
            vertices.append((name, tuple(darts)))
        elif tokens[0] == "E":
            if len(tokens) not in (5, 6) or tokens[2] != ":":
                raise RibbonError(
                    f"line {lineno}: expected 'E name : dart dart [sign=+|-]', got {line!r}"
                )
            name, a, b = tokens[1], tokens[3], tokens[4]
            for t in (name, a, b):
                if not _NAME.match(t):
                    raise RibbonError(f"line {lineno}: bad name {t!r}")
            sign = 1
            if len(tokens) == 6:
                if tokens[5] not in ("sign=+", "sign=-"):
                    raise RibbonError(
                        f"line {lineno}: expected sign=+ or sign=-, got {tokens[5]!r}"
                    )
                sign = 1 if tokens[5] == "sign=+" else -1
            try:
                edges.append(Edge(name, (a, b), sign))
            except RibbonError as exc:
                raise RibbonError(f"line {lineno}: {exc}") from None
        else:
            raise RibbonError(
                f"line {lineno}: unknown directive {tokens[0]!r} (expected V or E)"
            )
    try:
        return RibbonGraph(vertices, edges)
    except RibbonError as exc:
        raise RibbonError(f"{exc}") from None


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

    `subset` is a bitmask over edges in graph order.  Kept independent of
    the sweep kernel on purpose.
    """
    v = g.vertex_count
    e = g.edge_count
    if not 0 <= subset < (1 << e):
        raise RibbonError(f"subset {subset} out of range for {e} edges")
    parent = list(range(v))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    k = v
    e_f = 0
    for ei in range(e):
        if (subset >> ei) & 1:
            e_f += 1
            a, b = (g._dart_ids[d] for d in g.edges[ei].darts)
            ra, rb = find(g._dart_vertex[a]), find(g._dart_vertex[b])
            if ra != rb:
                parent[ra] = rb
                k -= 1
    bc = 0
    nxt: dict[int, int] = {}
    for vi in range(v):
        present = [
            d
            for d in range(g._vert_off[vi], g._vert_off[vi + 1])
            if (subset >> g._edge_of_dart[d]) & 1
        ]
        if not present:
            bc += 1
        else:
            for pos, d in enumerate(present):
                nxt[d] = present[(pos + 1) % len(present)]
    seen: set[int] = set()
    for d in nxt:
        if d in seen:
            continue
        bc += 1
        x = d
        while x not in seen:
            seen.add(x)
            x = nxt[g._partner[x]]
    r = v - k
    return SubgraphStats(k, r, e_f - r, bc)


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


def _sweep_histogram(g: RibbonGraph):
    """Counts of (e_F, e_F-minus, k, bc) over all spanning subgraphs.

    Yields ((e_f, e_neg, k, bc), count) with count summed over subgraphs
    sharing those statistics.
    """
    v = g.vertex_count
    e = g.edge_count
    check_enumeration_size(e, f"subgraph sweep of a {e}-edge ribbon graph")
    k_arr, bc_arr = subgraph_sweep(*g.sweep_arrays())
    n_masks = 1 << e
    e_f = popcounts(n_masks)
    neg = g.negative_mask()
    if neg:
        masks = np.arange(n_masks, dtype=np.int64)
        e_neg = np.bitwise_count(masks & neg).astype(np.int64)
    else:
        e_neg = np.zeros(n_masks, dtype=np.int64)
    bc_max = 2 * e + v
    key = (
        (e_f * (e + 1) + e_neg) * (v + 1) + k_arr.astype(np.int64)
    ) * (bc_max + 1) + bc_arr.astype(np.int64)
    hist = np.bincount(key, minlength=(e + 1) * (e + 1) * (v + 1) * (bc_max + 1))
    for flat in np.flatnonzero(hist):
        rest, bc = divmod(int(flat), bc_max + 1)
        rest, k = divmod(rest, v + 1)
        ef, eneg = divmod(rest, e + 1)
        yield (ef, eneg, k, bc), int(hist[flat])


def br_poly(g: RibbonGraph) -> LaurentPoly:
    """The rank polynomial R_G(x, y, z), ignoring edge signs."""
    r_g = g.vertex_count - subgraph_stats(g, g.full_subset).k
    terms: dict[tuple[int, int, int], int] = {}
    for (ef, _, k, bc), count in _sweep_histogram(g):
        r_f = g.vertex_count - k
        n_f = ef - r_f
        exps = (4 * (r_g - r_f), 4 * n_f, 4 * (k - bc + n_f))
        terms[exps] = terms.get(exps, 0) + count
    return LaurentPoly(BR_VARS, terms)


def signed_br_poly(g: RibbonGraph) -> LaurentPoly:
    """The signed rank polynomial; x and y exponents shift by s(F).

    s(F) = (e-(F) - e-(F complement)) / 2 in half-integers; the exponent
    lattice absorbs them exactly.
    """
    r_g = g.vertex_count - subgraph_stats(g, g.full_subset).k
    e_neg_total = bin(g.negative_mask()).count("1")
    terms: dict[tuple[int, int, int], int] = {}
    for (ef, eneg, k, bc), count in _sweep_histogram(g):
        r_f = g.vertex_count - k
        n_f = ef - r_f
        s_quarter = 2 * (2 * eneg - e_neg_total)
        exps = (
            4 * (r_g - r_f) + s_quarter,
            4 * n_f - s_quarter,
            4 * (k - bc + n_f),
        )
        terms[exps] = terms.get(exps, 0) + count
    return LaurentPoly(BR_VARS, terms)


def tutte_via_br(g: RibbonGraph) -> LaurentPoly:
    """The Tutte polynomial of the underlying graph, via R_G(x-1, y-1, 1)."""
    return br_poly(g).substitute(
        {
            "x": LaurentPoly.parse("x - 1", TUTTE_VARS),
            "y": LaurentPoly.parse("y - 1", TUTTE_VARS),
            "z": LaurentPoly.one(TUTTE_VARS),
        },
        TUTTE_VARS,
    )
