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

from .diagram import Diagram, _slot_maps, apply_switches, components, is_alternating
from .ribbon import Edge, RibbonGraph


class NotAlternatingError(ValueError):
    """The diagram must alternate for the unsigned construction."""


class NotColorableError(ValueError):
    """No crossing switches can make the diagram alternate."""


def find_switch_set(d: Diagram):
    """A smallest set of crossings whose switching makes `d` alternate.

    Returns a sorted tuple of crossing indices, or None when no subset
    works.  Each pair of consecutive passes along a strand forces the two
    crossings' switch indicators to agree or differ, so the solutions form
    a parity constraint system; within each tied group the choice with
    fewer switches wins, and an exact tie keeps the group's lowest-indexed
    crossing unswitched.
    """
    n = len(d.crossings)
    parent = list(range(n))
    offset = [0] * n  # parity of i relative to parent[i]

    def find(i: int) -> tuple[int, int]:
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        parity = 0
        for j in reversed(path):  # nearest the root first
            parity ^= offset[j]
            parent[j] = i
            offset[j] = parity
        return i, parity

    for comp in components(d):
        passes = [(ci, over) for ci, over in comp]
        for idx, (ci, over_i) in enumerate(passes):
            cj, over_j = passes[(idx + 1) % len(passes)]
            want = 1 ^ over_i ^ over_j  # s_i xor s_j
            ri, pi = find(ci)
            rj, pj = find(cj)
            if ri == rj:
                if pi ^ pj != want:
                    return None
            else:
                parent[ri] = rj
                offset[ri] = pi ^ pj ^ want
    groups: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        root, parity = find(i)
        groups.setdefault(root, []).append((i, parity))
    switches: list[int] = []
    for members in groups.values():
        ones = [i for i, parity in members if parity]
        zeros = [i for i, parity in members if not parity]
        if len(ones) != len(zeros):
            chosen = ones if len(ones) < len(zeros) else zeros
        else:
            # tie: keep the group's lowest index unswitched
            lowest = members[0][0]
            chosen = ones if lowest in zeros else zeros
        switches.extend(chosen)
    return tuple(sorted(switches))


def _trace_rotations(d: Diagram):
    """Vertex rotations of the all-B state curves as (crossing, end) lists.

    End "a" is the {1,2} connector, end "b" the {3,0} one.  Raises when a
    non-alternating arc breaks the traversal directions.
    """
    in_slot, out_slot = _slot_maps(d)
    label_at = {
        (ci, p): c.ports[p] for ci, c in enumerate(d.crossings) for p in range(4)
    }
    rotations = []
    seen: set[tuple[int, str]] = set()
    for start_ci in range(len(d.crossings)):
        for start_end in "ab":
            if (start_ci, start_end) in seen:
                continue
            curve: list[tuple[int, str]] = []
            ci, end = start_ci, start_end
            while (ci, end) not in seen:
                seen.add((ci, end))
                curve.append((ci, end))
                exit_port = 1 if end == "a" else 3
                crossing = d.crossings[ci]
                label = label_at[(ci, exit_port)]
                if exit_port == crossing.over_in:
                    cj, q = out_slot[label]
                    if q != 2:
                        raise NotAlternatingError(
                            f"arc {label!r} does not leave an under strand"
                        )
                    ci, end = cj, "a"
                else:
                    cj, q = in_slot[label]
                    if q != 0:
                        raise NotAlternatingError(
                            f"arc {label!r} does not reach an under strand"
                        )
                    ci, end = cj, "b"
            rotations.append(curve)
    return rotations


def build_ribbon(d: Diagram) -> RibbonGraph:
    """The ribbon graph of an alternating diagram.

    Vertices are named v0, v1, ... in discovery order; the edge of
    crossing i is named ei with darts eia and eib.  Free loops become
    isolated vertices.
    """
    return _build(d, frozenset())


def build_signed(d: Diagram, switches=None):
    """The signed ribbon graph of a switchable diagram.

    Switches the crossings in `switches` (found automatically when None),
    builds the graph of the switched diagram, and marks the switched edges
    negative.  Returns (graph, switches).
    """
    if switches is None:
        switches = find_switch_set(d)
        if switches is None:
            raise NotColorableError(
                "no set of crossing switches makes this diagram alternate"
            )
    switches = tuple(sorted(set(switches)))
    switched = apply_switches(d, switches)
    return _build(switched, frozenset(switches)), switches


def _build(d: Diagram, negative: frozenset) -> RibbonGraph:
    if not is_alternating(d):
        raise NotAlternatingError(
            "diagram does not alternate; switch crossings first"
        )
    rotations = _trace_rotations(d)
    vertices = [
        (f"v{vi}", tuple(f"e{ci}{end}" for ci, end in curve))
        for vi, curve in enumerate(rotations)
    ]
    for extra in range(d.free_loops):
        vertices.append((f"v{len(rotations) + extra}", ()))
    edges = [
        Edge(f"e{ci}", (f"e{ci}a", f"e{ci}b"), -1 if ci in negative else 1)
        for ci in range(len(d.crossings))
    ]
    return RibbonGraph(vertices, edges)


def edge_of_crossing(ci: int) -> str:
    """Name of the edge built from crossing `ci`."""
    return f"e{ci}"
