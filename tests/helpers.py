"""Shared test utilities: random ribbon graphs and an independent Tutte oracle."""

import random

from vkbr.laurent import LaurentPoly
from vkbr.ribbon import Edge, RibbonGraph


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


def closed_braid(n: int) -> str:
    """Diagram text of the closed 2-braid sigma_1^n, crossing c meeting only
    crossings c-1 and c+1 (mod n)."""
    return "".join(f"X w{(c - 1) % n} u{(c - 1) % n} u{c} w{c} o=1\n" for c in range(n))
