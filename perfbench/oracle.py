"""Independent checks of vkbr's command output.

Nothing here reuses the code paths the benchmark times.  Polynomials are
read back from the printed text by a parser of this module and compared
as {exponent vector in quarter units: coefficient} dictionaries against
values computed by other routes:

* brackets and Jones polynomials from the per-state trace
  ``vkbr.split_stats``, one call per splitting state;
* rank and Tutte polynomials from the per-subgraph trace
  ``vkbr.subgraph_stats``, one call per spanning subgraph;
* the Jones polynomial of the torus knot T(2, n) from its closed form;
* switch sets, the r, n, k prefactor exponents and the genus from small
  solvers over the text formats written here.

Every check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from vkbr import split_stats, subgraph_stats

BRACKET_VARS = ("A", "B", "d")
JONES_VARS = ("t",)
BR_VARS = ("x", "y", "z")
TUTTE_VARS = ("x", "y")

_FACTOR = re.compile(r"([A-Za-z])(?:\^(?:(-?\d+)|\((-?\d+)/(\d+)\)))?\Z")


# -- reading printed polynomials -------------------------------------------


def read_poly(text: str, variables) -> dict:
    """Terms of a polynomial printed in vkbr's canonical form.

    Accepts "0", and otherwise terms such as "3*A^2*B*d", "-t^(-1/2)" or
    "t^-4" joined by " + " and " - ".  Raises ValueError on anything else.
    """
    text = text.strip()
    if text == "0":
        return {}
    terms: dict[tuple[int, ...], int] = {}
    tokens = text.split(" ")
    signs = [-1 if tokens[0].startswith("-") else 1]
    bodies = [tokens[0].lstrip("-")]
    if len(tokens) % 2 == 0:
        raise ValueError(f"unbalanced terms in {text!r}")
    for op, body in zip(tokens[1::2], tokens[2::2]):
        if op not in "+-":
            raise ValueError(f"bad operator {op!r} in {text!r}")
        signs.append(1 if op == "+" else -1)
        bodies.append(body)
    for sign, body in zip(signs, bodies):
        coeff = 1
        exps = [0] * len(variables)
        for i, part in enumerate(body.split("*")):
            if part.isdigit():
                if i:
                    raise ValueError(f"coefficient after a factor in {body!r}")
                coeff = int(part)
                continue
            m = _FACTOR.match(part)
            if not m or m.group(1) not in variables:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            if m.group(2) is not None:
                power = Fraction(int(m.group(2)))
            elif m.group(3) is not None:
                power = Fraction(int(m.group(3)), int(m.group(4)))
            else:
                power = Fraction(1)
            exps[variables.index(m.group(1))] += int(power * 4)
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"repeated monomial in {text!r}")
        terms[key] = sign * coeff
    return terms


def _add(terms: dict, key, coeff: int) -> None:
    value = terms.get(key, 0) + coeff
    if value:
        terms[key] = value
    else:
        terms.pop(key, None)


# -- diagram side ----------------------------------------------------------


class DiagramFacts:
    """The text of one diagram and the facts checks need about it.

    The arc structure is read from the text here; the per-state curve
    counts come from vkbr.split_stats on the parsed diagram.
    """

    def __init__(self, text: str, diagram):
        self.text = text
        self.diagram = diagram
        self.crossings: list[tuple[list[str], int]] = []
        self.free_loops = 0
        for line in text.splitlines():
            tokens = line.split()
            if tokens[0] == "X":
                self.crossings.append((tokens[1:5], int(tokens[5][2:])))
            else:
                self.free_loops += int(tokens[1])
        self._states = None

    @property
    def n(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(1 if over == 3 else -1 for _, over in self.crossings)

    def arcs(self):
        """(crossing, under?) at the tail and head of every arc."""
        tail: dict[str, tuple[int, bool]] = {}
        head: dict[str, tuple[int, bool]] = {}
        for c, (labels, over) in enumerate(self.crossings):
            head[labels[0]] = (c, True)
            head[labels[over]] = (c, False)
            tail[labels[2]] = (c, True)
            tail[labels[4 - over]] = (c, False)
        return [(tail[label], head[label]) for label in tail]

    def parity_constraints(self):
        """(c, c2, want) meaning switch(c) xor switch(c2) == want.

        An arc alternates when exactly one of its ends is on an under
        strand; switching a crossing swaps under and over at its ports.
        """
        return [
            (c, c2, 1 ^ under_out ^ under_in)
            for (c, under_out), (c2, under_in) in self.arcs()
        ]

    def min_switches(self):
        """Size of a smallest alternating switch set, or None if none exists."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for c, c2, want in self.parity_constraints():
            adj[c].append((c2, want))
            adj[c2].append((c, want))
        side = [-1] * self.n
        total = 0
        for start in range(self.n):
            if side[start] != -1:
                continue
            side[start] = 0
            members = [start]
            for c in members:
                for c2, want in adj[c]:
                    if side[c2] == -1:
                        side[c2] = side[c] ^ want
                        members.append(c2)
                    elif side[c2] != side[c] ^ want:
                        return None
            ones = sum(side[c] for c in members)
            total += min(ones, len(members) - ones)
        return total

    def switches_alternate(self, switches) -> bool:
        chosen = set(switches)
        return all(
            ((c in chosen) ^ (c2 in chosen)) == want
            for c, c2, want in self.parity_constraints()
        )

    def shadow_components(self) -> int:
        """Components of the crossing graph joined by arcs, plus free loops."""
        parent = list(range(self.n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for (c, _), (c2, _) in self.arcs():
            parent[find(c)] = find(c2)
        return len({find(c) for c in range(self.n)}) + self.free_loops

    def rnk(self, switches) -> tuple[int, int, int]:
        """r, n, k of the signed ribbon graph built with these switches.

        Its vertices are the curves of the state taking the B-splitting at
        unswitched crossings and the A-splitting at switched ones.
        """
        state = (1 << self.n) - 1
        for c in switches:
            state &= ~(1 << c)
        v = split_stats(self.diagram, state).delta
        k = self.shadow_components()
        return v - k, self.n - (v - k), k

    def states(self):
        """(alpha, beta, delta) counts over every state, by split_stats."""
        if self._states is None:
            counts: dict[tuple[int, int, int], int] = {}
            for state in range(1 << self.n):
                s = split_stats(self.diagram, state)
                key = (s.alpha, s.beta, s.delta)
                counts[key] = counts.get(key, 0) + 1
            self._states = counts
        return self._states

    def bracket(self) -> dict:
        terms: dict = {}
        for (alpha, beta, delta), count in self.states().items():
            _add(terms, (4 * alpha, 4 * beta, 4 * (delta - 1)), count)
        return terms

    def jones(self) -> dict:
        """(-1)^w t^(3w/4) <L> at A = t^(-1/4), B = t^(1/4), d = -t^(1/2) - t^(-1/2)."""
        w = self.writhe()
        sign = -1 if w % 2 else 1
        terms: dict = {}
        for (alpha, beta, delta), count in self.states().items():
            m = delta - 1
            if m < 0:
                raise ValueError("a diagram with no curves has no Jones polynomial")
            for j in range(m + 1):
                q = 3 * w + beta - alpha + 2 * (m - 2 * j)
                _add(terms, (q,), sign * (-1) ** m * comb(m, j) * count)
        return terms


def torus_jones(n: int, writhe: int) -> dict:
    """V(T(2, n)) for odd n, mirrored when the writhe is negative.

    V = t^((n-1)/2) (1 - t^3 - t^(n+1) + t^(n+2)) / (1 - t^2), with the
    division done on integer coefficient lists.
    """
    num = [0] * (n + 3)
    num[0], num[3], num[n + 1], num[n + 2] = 1, -1, -1, 1
    quotient = [0] * (n + 1)
    for i in range(n + 1):  # divide by 1 - t^2, lowest power first
        quotient[i] = num[i]
        num[i] -= quotient[i]
        if i + 2 < len(num):
            num[i + 2] += quotient[i]
    if any(num):
        raise ArithmeticError("1 - t^2 does not divide the torus knot numerator")
    shift = (n - 1) // 2
    mirror = -1 if writhe < 0 else 1
    return {(mirror * 4 * (i + shift),): c for i, c in enumerate(quotient) if c}


# -- graph side ------------------------------------------------------------


def signed_rank_poly(g) -> dict:
    """Signed rank polynomial from subgraph_stats of every spanning subgraph.

    x^(r(G)-r(F)+s) y^(n(F)-s) z^(k(F)-bc(F)+n(F)) with
    s = (e-(F) - e-(complement of F)) / 2.
    """
    negative = 0
    for ei, edge in enumerate(g.edges):
        if edge.sign < 0:
            negative |= 1 << ei
    neg_total = bin(negative).count("1")
    full = subgraph_stats(g, (1 << g.edge_count) - 1)
    terms: dict = {}
    for subset in range(1 << g.edge_count):
        st = subgraph_stats(g, subset)
        s4 = 2 * (2 * bin(subset & negative).count("1") - neg_total)
        key = (4 * (full.r - st.r) + s4, 4 * st.n - s4, 4 * (st.k - st.bc + st.n))
        _add(terms, key, 1)
    return terms


def tutte_poly(g) -> dict:
    """Tutte polynomial as the sum over F of (x-1)^(r(G)-r(F)) (y-1)^n(F)."""
    full = subgraph_stats(g, (1 << g.edge_count) - 1)
    terms: dict = {}
    for subset in range(1 << g.edge_count):
        st = subgraph_stats(g, subset)
        a, b = full.r - st.r, st.n
        for i in range(a + 1):
            for j in range(b + 1):
                coeff = comb(a, i) * comb(b, j) * (-1) ** (a - i + b - j)
                _add(terms, (4 * i, 4 * j), coeff)
    return terms


def ribbon_genus(text: str) -> int:
    """Genus from Euler's formula on the rotation system in `text`."""
    rotations: list[list[str]] = []
    partner: dict[str, str] = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "V":
            rotations.append(tokens[3:])
        else:
            partner[tokens[3]], partner[tokens[4]] = tokens[4], tokens[3]
    succ = {}
    vertex_of = {}
    for vi, darts in enumerate(rotations):
        for i, dart in enumerate(darts):
            succ[dart] = darts[(i + 1) % len(darts)]
            vertex_of[dart] = vi
    faces = sum(1 for darts in rotations if not darts)
    seen: set[str] = set()
    for dart in succ:
        if dart in seen:
            continue
        faces += 1
        while dart not in seen:
            seen.add(dart)
            dart = succ[partner[dart]]
    parent = list(range(len(rotations)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for dart, other in partner.items():
        parent[find(vertex_of[dart])] = find(vertex_of[other])
    k = len({find(v) for v in range(len(rotations))})
    v, e = len(rotations), len(partner) // 2
    return (2 * k - v + e - faces) // 2


# -- command checks --------------------------------------------------------


def _poly_mismatch(label: str, text: str, variables, expected: dict):
    try:
        got = read_poly(text, variables)
    except ValueError as exc:
        return f"{label}: unreadable polynomial ({exc})"
    if got != expected:
        return f"{label}: {text!r} differs from the independent value"
    return None


def check_colorable(facts: DiagramFacts, code, out: str):
    best = facts.min_switches()
    if best is None:
        return None if (code, out) == (3, "not colorable\n") else "colorable: expected exit 3"
    prefix = "colorable; switches: "
    if code != 0 or not out.startswith(prefix) or not out.endswith("\n"):
        return f"colorable: unexpected exit {code} or output {out!r}"
    listed = out[len(prefix):-1]
    switches = [] if listed == "none" else [int(c) for c in listed.split()]
    if len(switches) != best or not facts.switches_alternate(switches):
        return f"colorable: {switches} is not a smallest alternating switch set"
    return None


def check_verify(facts: DiagramFacts, expected, code, out: str):
    """verify --signed (expected = bracket) or --jones (expected = Jones).

    `expected` is a zero-argument callable returning (variables, terms).
    """
    best = facts.min_switches()
    if best is None:
        return None if (code, out) == (3, "") else "verify: expected exit 3"
    lines = out.splitlines()
    if code != 0 or len(lines) not in (3, 4):
        return f"verify: unexpected exit {code} or output {out!r}"
    switches: list[int] = []
    if len(lines) == 4:
        if not lines[3].startswith("switched: "):
            return f"verify: unexpected line {lines[3]!r}"
        switches = [int(c) for c in lines[3][len("switched: "):].split()]
    if len(switches) != best or not facts.switches_alternate(switches):
        return f"verify: {switches} is not a smallest alternating switch set"
    r, n, k = facts.rnk(switches)
    if lines[2] != f"equal: yes (r={r}, n={n}, k={k})":
        return f"verify: expected r={r}, n={n}, k={k} and equality, got {lines[2]!r}"
    variables, terms = expected()
    for label, prefix, line in (("left", "left:  ", lines[0]), ("right", "right: ", lines[1])):
        if not line.startswith(prefix):
            return f"verify: expected {prefix!r}, got {line!r}"
        problem = _poly_mismatch(f"verify {label}", line[len(prefix):], variables, terms)
        if problem:
            return problem
    return None


def check_poly(label: str, variables, terms: dict, code, out: str):
    if code != 0 or not out.endswith("\n") or "\n" in out[:-1]:
        return f"{label}: unexpected exit {code} or output {out!r}"
    return _poly_mismatch(label, out[:-1], variables, terms)
