"""From a link diagram to the ribbon graph behind its bracket.

The construction applies to alternating diagrams.  Its vertices are the
curves of the all-B state, one edge joins the two B-connectors of each
crossing, and the rotation at a vertex is the order in which the curve
meets its connectors.  Each curve is traversed so that the {1,2} connector
is entered at port 2 and left at port 1, and the {3,0} connector is
entered at port 0 and left at port 3; on an alternating diagram the arcs
hand these directions round coherently, which is what makes the rotation
well defined.

Under the resulting indexing, edge i corresponds to crossing i, and a
state of the diagram corresponds to the spanning subgraph keeping exactly
the edges of its A-split crossings.  The state's loop count equals the
subgraph's boundary components, which is the bridge the rank-polynomial
identities cross.

Diagrams that are not alternating but can be made so by switching
crossings get the signed variant: switch a minimal set of crossings, build
the graph of the switched diagram, and mark the switched edges negative.
"""

from __future__ import annotations

from .diagram import Diagram, _cycles, _fails_to_alternate, apply_switches, is_alternating
from .limits import BYTES_PER_FREE_LOOP, check_memory
from .ribbon import Edge, RibbonGraph


class NotAlternatingError(ValueError):
    """The diagram must alternate for the unsigned construction."""


class NotColorableError(ValueError):
    """No crossing switches can make the diagram alternate."""


def find_switch_set(d: Diagram):
    """A smallest set of crossings whose switching makes `d` alternate.

    Returns a sorted tuple of crossing indices, or None when no subset
    works.  Each arc forces its end crossings' switches to agree or
    differ: they differ exactly when the arc fails to alternate, since a
    switch swaps over and under at both passes of its crossing.  A
    breadth-first search from the lowest crossing not yet reached gives
    each crossing it reaches a parity relative to it, or finds a conflict.
    Each such group switches its smaller side; a tie keeps the root as is.
    """
    parity: list[int | None] = [None] * len(d.crossings)
    switches: list[int] = []
    for root in range(len(d.crossings)):
        if parity[root] is not None:
            continue
        parity[root] = 0
        group = [root]
        for ci in group:  # grows as the search reaches new crossings
            for p in range(4 * ci, 4 * ci + 4):
                cj, want = d._mate[p] >> 2, parity[ci] ^ _fails_to_alternate(d, p)
                if parity[cj] is None:
                    parity[cj] = want
                    group.append(cj)
                elif parity[cj] != want:
                    return None
        odd = [ci for ci in group if parity[ci]]
        switches += odd if 2 * len(odd) <= len(group) else [ci for ci in group if not parity[ci]]
    return tuple(sorted(switches))


def _trace_rotations(d: Diagram):
    """Vertex rotations of the all-B state curves, as lists of the port
    ids the curves leave by.

    A curve leaves the {1,2} connector at port 1 and the {3,0} one at
    port 3; ports 1 then 3 of each crossing in order start the curves
    not yet traced.  On an alternating diagram the arc from there enters
    port 2 or port 0 of the next connector, which the curve leaves at
    that port ^ 3.
    """
    return list(_cycles(range(1, len(d._mate), 2), lambda p: d._mate[p] ^ 3))


def build_ribbon(d: Diagram) -> RibbonGraph:
    """The ribbon graph of an alternating diagram: build_signed with no
    switch, so every edge is positive, and a diagram that does not
    alternate raises NotAlternatingError.

    Vertices are named v0, v1, ... in discovery order; the edge of
    crossing i is named ei with darts eia and eib.  Free loops become
    isolated vertices, after a check that they fit in memory.
    """
    return build_signed(d, ())[0]


def build_signed(d: Diagram, switches=None):
    """The signed ribbon graph of a switchable diagram.

    Switches the crossings in `switches` (found automatically when None),
    builds the graph of the switched diagram, and marks the switched edges
    negative.  Returns (graph, switches).  A graph whose dart-less
    vertices, one per free loop, would not fit in memory is refused first.
    """
    check_memory(BYTES_PER_FREE_LOOP * d.free_loops,
                 f"ribbon graph of a diagram with {d.free_loops} free loops")
    if switches is None:
        switches = find_switch_set(d)
        if switches is None:
            raise NotColorableError(
                "no set of crossing switches makes this diagram alternate"
            )
    switches = tuple(sorted(set(switches)))
    switched = apply_switches(d, switches) if switches else d
    return _build(switched, frozenset(switches)), switches


def _build(d: Diagram, negative: frozenset) -> RibbonGraph:
    if not is_alternating(d):
        raise NotAlternatingError(
            "diagram does not alternate; switch crossings first"
        )
    rotations = _trace_rotations(d)
    names = [edge_of_crossing(ci) for ci in range(len(d.crossings))]
    vertices = [
        (f"v{vi}", tuple(names[p >> 2] + ("a" if p & 3 == 1 else "b") for p in curve))
        for vi, curve in enumerate(rotations)
    ]
    for extra in range(d.free_loops):
        vertices.append((f"v{len(rotations) + extra}", ()))
    edges = [
        Edge(name, (name + "a", name + "b"), -1 if ci in negative else 1)
        for ci, name in enumerate(names)
    ]
    return RibbonGraph(vertices, edges)


def edge_of_crossing(ci: int) -> str:
    """Name of the edge built from crossing `ci`."""
    return f"e{ci}"
