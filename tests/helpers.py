"""Shared test utilities: random ribbon graphs, their edges' end
vertices, an independent Tutte oracle, torus braids and the closed form
of their Jones polynomials, connected sums, one-point joins, Reidemeister
I and II moves, mirror images and strand reversal, and the command lines
that must run without the sweeps."""

import itertools
import random
import string

from hypothesis import strategies as st

from vkbr.build import build_signed, find_switch_set
from vkbr.diagram import Crossing, Diagram, apply_switches, format_diagram, is_alternating, parse_diagram
from vkbr.laurent import LaurentPoly
from vkbr.ribbon import Edge, RibbonGraph, format_ribbon

# Names for the round-trip tests: the name grammar's characters (ASCII
# letters, digits, _), characters it refuses, and the empty string.
ROUND_TRIP_NAMES = st.text(string.ascii_letters + string.digits + "_ #:-!éßλ", max_size=3)


def random_ribbon(rng: random.Random, n_verts: int, n_edges: int, signed=False):
    """A random rotation system: darts spread over vertices, random pairing.

    Vertices may end up with no darts; loops and parallel edges are common.
    """
    darts = [f"d{i}" for i in range(2 * n_edges)]
    placement = [rng.randrange(n_verts) for _ in darts]
    rotations = [[] for _ in range(n_verts)]
    for dart, vi in zip(darts, placement):
        rotations[vi].append(dart)
    for rot in rotations:
        rng.shuffle(rot)
    paired = darts[:]
    rng.shuffle(paired)
    edges = []
    for ei in range(n_edges):
        sign = rng.choice((1, -1)) if signed else 1
        edges.append(Edge(f"e{ei}", (paired[2 * ei], paired[2 * ei + 1]), sign))
    return RibbonGraph(
        [(f"v{i}", rot) for i, rot in enumerate(rotations)], edges
    )


def end_vertices(g: RibbonGraph):
    """The end vertices of each edge, as vertex indices, read from the
    names alone."""
    vertex_of = {d: vi for vi, (_, darts) in enumerate(g.vertices) for d in darts}
    return [(vertex_of[a], vertex_of[b]) for a, b in (e.darts for e in g.edges)]


def tutte_whitney(n_verts: int, endpoints, variables=("x", "y")) -> LaurentPoly:
    """Tutte polynomial by the plain Whitney rank sum over edge subsets.

    `endpoints` lists (u, w) vertex indices per edge.  Deliberately avoids
    the package's subgraph machinery so it can serve as an oracle for it.
    """
    endpoints = list(endpoints)
    x = LaurentPoly.variable(variables, "x")
    y = LaurentPoly.variable(variables, "y")
    total = LaurentPoly.zero(variables)
    r_g = n_verts - _components(n_verts, endpoints)
    for mask in range(1 << len(endpoints)):
        chosen = [endpoints[i] for i in range(len(endpoints)) if (mask >> i) & 1]
        k = _components(n_verts, chosen)
        r = n_verts - k
        n = len(chosen) - r
        total = total + (x - 1) ** (r_g - r) * (y - 1) ** n
    return total


def _components(n_verts: int, endpoints) -> int:
    labels = list(range(n_verts))
    changed = True
    while changed:
        changed = False
        for u, w in endpoints:
            low = min(labels[u], labels[w])
            if labels[u] != low or labels[w] != low:
                labels[u] = labels[w] = low
                changed = True
    return len(set(labels))


def torus_braid(p: int, q: int) -> str:
    """Diagram text of the closed p-braid (sigma_1 ... sigma_(p-1))^q, whose
    closure is the torus link T(p, q)."""
    return braid_closure(p, [i for _ in range(q) for i in range(1, p)])


def braid_closure(p: int, word) -> str:
    """Diagram text of the closure of a p-strand braid word, each letter i
    standing for sigma_i and -i for its inverse, 1 <= i < p.

    Strand position i carries the arcs s{i}_0, s{i}_1, ..., one per
    crossing it passes, and the closure joins its last arc to its first; a
    position that no letter crosses closes up as a free loop.  sigma_i
    lists its ports counterclockwise from the incoming arc at position
    i - 1, the over strand entering from position i; its inverse is the
    same crossing switched, as diagram.switch_crossing switches it.
    """
    passes = [sum(abs(g) in (i, i + 1) for g in word) for i in range(p)]
    seen = [0] * p
    lines = []
    for g in word:
        i = abs(g) - 1
        a, b = seen[i], seen[i + 1]
        left_in, left_out = f"s{i}_{a}", f"s{i}_{(a + 1) % passes[i]}"
        right_in, right_out = f"s{i + 1}_{b}", f"s{i + 1}_{(b + 1) % passes[i + 1]}"
        if g > 0:
            lines.append(f"X {left_in} {right_in} {right_out} {left_out} o=1\n")
        else:
            lines.append(f"X {right_in} {right_out} {left_out} {left_in} o=3\n")
        seen[i] += 1
        seen[i + 1] += 1
    free = passes.count(0)
    return "".join(lines) + (f"O {free}\n" if free else "")


def torus_knot_jones(p, q):
    """V(T(p, q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
    for coprime p, q (Jones, 1987), with the division done on integer
    coefficient lists."""
    num = [0] * (p + q + 1)
    for power, sign in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[power] += sign
    quotient = [0] * (p + q - 1)
    for i in range(len(quotient)):  # divide by 1 - t^2, lowest power first
        quotient[i] = num[i]
        num[i + 2] += quotient[i]
    assert not any(num[len(quotient):]), "1 - t^2 does not divide the numerator"
    shift = (p - 1) * (q - 1) // 2
    return LaurentPoly(("t",), {(4 * (i + shift),): c for i, c in enumerate(quotient) if c})


def connected_sum(*texts: str) -> str:
    """Diagram text of the connected sum of the given diagrams, each with
    at least one crossing, their arcs renamed apart.

    Each piece is cut at the arc that enters its crossing 0 at port 0,
    and the pieces are joined in a chain: that port now takes the arc
    that left the piece before it, the first piece's the last one's.  A
    strand keeps its direction, so every crossing keeps its sign.  Each
    state's loop through the cut arc of one piece merges with those of
    the others, so the bracket of the sum, in a normalisation where the
    empty diagram gives d^-1, is the product of the pieces' brackets.
    """
    pieces = [parse_diagram(text) for text in texts]
    cut = [f"p{i}_{d.crossings[0].ports[0]}" for i, d in enumerate(pieces)]
    lines = []
    for i, d in enumerate(pieces):
        for ci, c in enumerate(d.crossings):
            labels = [f"p{i}_{a}" for a in c.ports]
            if ci == 0:
                labels[0] = cut[i - 1]
            lines.append(f"X {' '.join(labels)} o={c.over_in}\n")
    loops = sum(d.free_loops for d in pieces)
    return "".join(lines) + (f"O {loops}\n" if loops else "")


def production_calls(text: str):
    """(argv, stdin text, exit code) for every subcommand but `random` and
    `selftest` on one diagram, and on its signed graph when it has one.

    Each argv reads its input from stdin.  The exit code is 0 where the
    input suits the command; else 2 for a diagram that must alternate,
    and 3 for one that must become alternating by switches.
    """
    d = parse_diagram(text)
    colorable = find_switch_set(d) is not None
    alternating = 0 if is_alternating(d) else 2
    switched = 0 if colorable else 3
    calls = [
        (["bracket", "-"], text, 0),
        (["jones", "-"], text, 0),
        (["colorable", "-"], text, switched),
        (["build-ribbon", "-"], text, alternating),
        (["build-signed", "-"], text, switched),
        (["verify", "--main", "-"], text, alternating),
        (["verify", "--signed", "-"], text, switched),
        (["verify", "--jones", "-"], text, switched),
    ]
    if colorable:
        graph = format_ribbon(build_signed(d)[0])
        for argv in (["br-poly"], ["br-poly", "--signed"], ["tutte"], ["genus"]):
            calls.append((argv + ["-"], graph, 0))
    return calls


def one_point_join(g1: RibbonGraph, g2: RibbonGraph, v1: int = 0, v2: int = 0) -> RibbonGraph:
    """The one-point join of two ribbon graphs at g1's vertex v1 and g2's
    vertex v2, their names renamed apart.

    The joined vertex's rotation is v1's followed by v2's.  A spanning
    subgraph of the join is one of each graph, with the ranks and
    nullities adding, and the two boundary components through the corners
    the join cuts merging into one, so the rank polynomial of the join,
    signed or not, is the product of the two graphs'.
    """
    vertices, edges = [], []
    for i, g in enumerate((g1, g2)):
        vertices.append([(f"p{i}_{v}", [f"p{i}_{d}" for d in darts]) for v, darts in g.vertices])
        edges += [Edge(f"p{i}_{e.name}", [f"p{i}_{d}" for d in e.darts], e.sign) for e in g.edges]
    first, second = vertices
    name, darts = first[v1]
    first[v1] = (name, darts + second.pop(v2)[1])
    return RibbonGraph(first + second, edges)


def r2_move(text: str, a: str, b: str, o1: int, o2: int | None = None) -> str:
    """Diagram text after a Reidemeister II move that pushes arc a over
    arc b, two distinct arcs of the diagram.

    Arcs are abstract and virtual crossings are not recorded, so any two
    arcs can meet.  a splits into a1 a2 a3 and b into b1 b2 b3, with a1
    and b1 leaving where a and b left, and a3 and b3 reaching where they
    arrived.  Crossing c1 takes b1 -> b2 under (ports 0 -> 2) and a1 ->
    a2 over, entering at o1; crossing c2 takes b2 -> b3 under and a2 ->
    a3 over, entering at o2 = 4 - o1.  So the two crossings have opposite
    signs and bound a bigon.  Any other o2 gives a diagram that is not a
    move of this one.
    """
    d = parse_diagram(text)
    used = {label for c in d.crossings for label in c.ports}
    assert a != b and {a, b} <= used, (a, b)
    fresh = (f"r{i}" for i in itertools.count() if f"r{i}" not in used)
    a1, a2, a3, b1, b2, b3 = itertools.islice(fresh, 6)
    ends = {a: (a3, a1), b: (b3, b1)}  # by label: (at its in port, at its out port)
    crossings = []
    for c in d.crossings:
        outs = (2, c.over_in ^ 2)
        ports = [ends[x][p in outs] if x in ends else x for p, x in enumerate(c.ports)]
        crossings.append(Crossing(ports, c.over_in))
    for under_in, under_out, over_in, over_out, o in (
        (b1, b2, a1, a2, o1), (b2, b3, a2, a3, 4 - o1 if o2 is None else o2)
    ):
        ports = [under_in, None, under_out, None]
        ports[o], ports[o ^ 2] = over_in, over_out
        crossings.append(Crossing(ports, o))
    return format_diagram(Diagram(crossings, d.free_loops))


def r1_move(text: str, arc: str, o: int) -> str:
    """Diagram text after a Reidemeister I move that puts a kink on arc,
    an arc of the diagram.

    The out end of arc takes a fresh label k1, and a new crossing takes
    the kink: k1 enters it under at port 0, leaves at port 2 as a fresh
    k2, which enters over at port o and leaves at port 4 - o as arc.  So
    the strand keeps its direction, and o = 1 or 3 gives the kink either
    sign.
    """
    d = parse_diagram(text)
    used = {label for c in d.crossings for label in c.ports}
    assert arc in used, arc
    fresh = (f"k{i}" for i in itertools.count() if f"k{i}" not in used)
    k1, k2 = itertools.islice(fresh, 2)
    crossings = []
    for c in d.crossings:
        outs = (2, c.over_in ^ 2)
        ports = [k1 if x == arc and p in outs else x for p, x in enumerate(c.ports)]
        crossings.append(Crossing(ports, c.over_in))
    ports = [k1, None, k2, None]
    ports[o], ports[4 - o] = k2, arc
    crossings.append(Crossing(ports, o))
    return format_diagram(Diagram(crossings, d.free_loops))


def mirror(text: str) -> str:
    """Diagram text of the mirror image: every crossing switched."""
    d = parse_diagram(text)
    return format_diagram(apply_switches(d, range(len(d.crossings))))


def reverse(text: str) -> str:
    """Diagram text with every strand reversed: each X a b c d o=k becomes
    X c d a b o=k, so the under strand enters at the old port 2 and the
    over strand at the old k ^ 2, and the free loops stay.  The bracket
    and the Jones polynomial do not change (L. H. Kauffman, "Virtual knot
    theory", 1999).  On tests/test_moves.py's 86 inputs it catches the
    fault that numbers a site's fresh ports in reverse on 32, and neither
    fault in the loop counts of a join."""
    d = parse_diagram(text)
    crossings = [Crossing(c.ports[2:] + c.ports[:2], c.over_in) for c in d.crossings]
    return format_diagram(Diagram(crossings, d.free_loops))
