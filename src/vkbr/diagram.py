"""Virtual link diagrams and the bracket state sum.

A diagram is a sequence of classical crossings plus a count of crossing-free
loops.  Virtual crossings are never recorded: arcs simply pass through them,
so they leave no trace in the combinatorics.

Each crossing has four ports numbered 0..3 counterclockwise.  The under
strand enters at port 0 and leaves at port 2; the over strand enters at
port 1 or port 3 and leaves opposite.  An arc label names the strand
segment between two classical crossing ports (possibly of the same
crossing), so a valid diagram uses every label exactly once as an outgoing
port and exactly once as an incoming one.

Port p of crossing c has the port id 4c+p.  A diagram reads its arcs once,
when it is made, into a pairing over port ids: `_mate[i]` is the port id
at the other end of the arc at port id i.  The strand walks, the ribbon
graph builder and the kernels all read this one table.  An arc
alternates when it joins an under port (0 or 2) to an over port (1 or 3),
that is when its two port ids differ in parity.

The A-splitting of a crossing reconnects ports {0,1} and {2,3}, the
B-splitting reconnects {0,3} and {1,2}; these are the two regions swept by
rotating the over strand counterclockwise onto the under strand and the
complementary pair.  A state picks one splitting per crossing.  Writing
alpha(S) for the number of A-choices, beta(S) for the B-choices and
delta(S) for the closed curves left after all splittings, the bracket is
the state sum

    <L>(A, B, d) = sum over states S of  A^alpha(S) B^beta(S) d^(delta(S)-1)

and the Jones polynomial is (-1)^w t^(3w/4) <L> evaluated at A = t^(-1/4),
B = t^(1/4), d = -t^(1/2) - t^(-1/2), where w is the writhe.

In the kernels' port layout (see _kernels) crossing c is site c, whose
ports are 4c .. 4c+3, and a site's chosen join, port p to p ^ 1, is the
A-splitting.  So `_mate` is the kernels' input as it stands, and the
sites a kernel chooses are a state's A-splittings.

File format, one item per line; # starts a comment anywhere on a line,
and a name is one or more ASCII letters, digits and underscores:

    X a b c d o=1     crossing with arc labels a b c d at ports 0..3,
                      over strand entering at port 1 (o=1 or o=3)
    O 2               two crossing-free loops

Crossing and Diagram check every rule but a line's shape, so every
diagram they accept prints as a file that parses back equal.  The ribbon
format shares the name grammar (_NAME) and the line reader (_lines).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from math import ceil, log10

from ._kernels import frontier_histogram
from .laurent import LaurentPoly
from .limits import SizeLimitError, check_enumeration_size

BRACKET_VARS = ("A", "B", "d")
JONES_VARS = ("t",)
# D = -t^(1/2) - t^(-1/2), the value of the loop variable d at the Jones point.
_D_QUARTERS = {2: -1, -2: -1}  # by quarter exponent of t
BIG_D = LaurentPoly._make(JONES_VARS, {(q,): c for q, c in _D_QUARTERS.items()})

_NAME = re.compile(r"[A-Za-z0-9_]+")
_OVER_IN = {"o=1": 1, "o=3": 3}


def _is_name(value) -> bool:
    """True when `value` is a name the file formats print and read back."""
    return isinstance(value, str) and _NAME.fullmatch(value) is not None


def _tuple(value) -> tuple | None:
    """`value` as a tuple, or None for a string or a non-sequence: a string
    where a sequence belongs is refused, never read as its characters."""
    try:
        return None if isinstance(value, str) else tuple(value)
    except TypeError:
        return None


def _lines(text: str):
    """(line number, stripped line, tokens) for each line of a diagram or
    ribbon file that is not blank once its comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


class DiagramError(ValueError):
    """Malformed diagram data.

    `crossing` is the index of the crossing at fault when there is one;
    the message then starts with "crossing N: " before `detail`.
    """

    def __init__(self, detail: str, crossing: int | None = None):
        prefix = "" if crossing is None else f"crossing {crossing}: "
        super().__init__(prefix + detail)
        self.detail = detail
        self.crossing = crossing


@dataclass(frozen=True)
class Crossing:
    """One classical crossing: arc labels at ports 0..3 and the over entry."""

    ports: tuple[str, str, str, str]
    over_in: int

    def __post_init__(self):
        ports = _tuple(self.ports)
        if ports is None or len(ports) != 4:
            raise DiagramError(f"crossing needs 4 arc labels, got {self.ports!r}")
        object.__setattr__(self, "ports", ports)
        for label in self.ports:
            if not _is_name(label):
                raise DiagramError(f"bad arc label {label!r}")
        if type(self.over_in) is not int or self.over_in not in (1, 3):
            raise DiagramError(f"expected o=1 or o=3, got {self.over_in!r}")

    @property
    def sign(self) -> int:
        """Crossing sign; +1 when the over strand enters at port 3.

        Pinned by requiring the Jones polynomial of both kinked unknots
        (and of the bundled sample knot) to be 1.
        """
        return 1 if self.over_in == 3 else -1


@dataclass(frozen=True)
class StateStats:
    """Splitting counts and curve count of one state."""

    alpha: int
    beta: int
    delta: int


@dataclass(frozen=True)
class Diagram:
    """A virtual link diagram: classical crossings plus free loops."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    # The arc pairing over port ids, read from the labels once.
    _mate: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        crossings = _tuple(self.crossings)
        if crossings is None:
            raise DiagramError(f"crossings must be a sequence of Crossing, got {self.crossings!r}")
        object.__setattr__(self, "crossings", crossings)
        for ci, c in enumerate(self.crossings):
            if not isinstance(c, Crossing):
                raise DiagramError(f"expected a Crossing, got {c!r}", ci)
        if type(self.free_loops) is not int or self.free_loops < 0:
            raise DiagramError(f"free loops must be a nonnegative int, got {self.free_loops!r}")
        in_slot, out_slot = _slot_maps(self)
        dangling = set(in_slot) ^ set(out_slot)
        if dangling:
            label = min(dangling)
            if label in in_slot:
                raise DiagramError(f"arc {label!r} never leaves a crossing", in_slot[label][0])
            raise DiagramError(f"arc {label!r} never enters a crossing", out_slot[label][0])
        mate = [0] * (4 * len(self.crossings))
        for label, (ci, port) in out_slot.items():
            cj, q = in_slot[label]
            mate[4 * ci + port] = 4 * cj + q
            mate[4 * cj + q] = 4 * ci + port
        object.__setattr__(self, "_mate", tuple(mate))


def parse_diagram(text: str) -> Diagram:
    """Parse the diagram file format; errors name the offending line.
    Crossing and Diagram check all but a line's shape (its directive and
    token count), so parse_diagram(format_diagram(d)) == d for every d."""
    crossings: list[Crossing] = []
    crossing_lines: list[int] = []
    free_loops = 0
    try:
        for lineno, line, tokens in _lines(text):
            if tokens[0] == "X":
                if len(tokens) != 6:
                    raise DiagramError(f"X needs 4 arc labels and o=1|3, got {line!r}")
                crossings.append(Crossing(tokens[1:5], _OVER_IN.get(tokens[5], tokens[5])))
                crossing_lines.append(lineno)
            elif tokens[0] == "O":
                if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                    raise DiagramError(f"O needs one nonnegative integer, got {line!r}")
                try:
                    free_loops += int(tokens[1])
                except ValueError:  # more digits than int() reads from text
                    limit = sys.get_int_max_str_digits()
                    raise DiagramError(f"O count has more than {limit} digits") from None
            else:
                raise DiagramError(f"unknown directive {tokens[0]!r} (expected X or O)")
        return Diagram(crossings, free_loops)
    except DiagramError as exc:
        # Diagram names the crossing at fault; a line's own fault is at lineno.
        if exc.crossing is not None:
            lineno = crossing_lines[exc.crossing]
        raise DiagramError(f"line {lineno}: {exc.detail}") from None


def format_diagram(d: Diagram) -> str:
    """Canonical file form; parse_diagram(format_diagram(d)) == d."""
    lines = [
        f"X {c.ports[0]} {c.ports[1]} {c.ports[2]} {c.ports[3]} o={c.over_in}"
        for c in d.crossings
    ]
    if d.free_loops:
        lines.append(f"O {d.free_loops}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- strand structure ---------------------------------------------------


def _slot_maps(d: Diagram):
    """Maps label -> (crossing, port) for incoming and outgoing ports.

    Raises DiagramError naming the crossing where a label occurs a second
    time as incoming or as outgoing.
    """
    in_slot: dict[str, tuple[int, int]] = {}
    out_slot: dict[str, tuple[int, int]] = {}
    for ci, c in enumerate(d.crossings):
        for port in range(4):
            label = c.ports[port]
            side = in_slot if port in (0, c.over_in) else out_slot
            if label in side:
                kind = "incoming" if side is in_slot else "outgoing"
                raise DiagramError(f"arc {label!r} occurs twice as {kind}", ci)
            side[label] = (ci, port)
    return in_slot, out_slot


def components(d: Diagram) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Closed strand components, excluding free loops.

    Each component is the cyclic sequence of crossing passes it makes,
    as (crossing index, pass is on the over strand) pairs, starting from
    its least incoming port.
    """
    seen: set[int] = set()
    result = []
    for ci, c in enumerate(d.crossings):
        for port in (0, c.over_in):
            passes = []
            slot = 4 * ci + port
            while slot not in seen:
                seen.add(slot)
                passes.append((slot >> 2, slot & 3 != 0))
                # a strand leaves opposite the port it enters
                slot = d._mate[slot ^ 2]
            if passes:
                result.append(tuple(passes))
    return tuple(result)


def writhe(d: Diagram) -> int:
    """Sum of crossing signs."""
    return sum(c.sign for c in d.crossings)


def is_alternating(d: Diagram) -> bool:
    """True when passes alternate over/under along every component.

    Equivalently, every arc runs from an under-out port to an over-in port
    or from an over-out port to an under-in port.
    """
    return not any(_fails_to_alternate(d, i) for i in range(len(d._mate)))


def _fails_to_alternate(d: Diagram, port_id: int) -> bool:
    """True when the arc at `port_id` joins two under ports or two over
    ports, so that its two port ids have the same parity."""
    return not (port_id ^ d._mate[port_id]) & 1


def switch_crossing(c: Crossing) -> Crossing:
    """Exchange the over and under strands of one crossing.

    The geometric crossing is unchanged, so the port labels rotate to keep
    the under strand entering at port 0.
    """
    k = c.over_in
    return Crossing(c.ports[k:] + c.ports[:k], 4 - k)


def apply_switches(d: Diagram, indices) -> Diagram:
    """Switch the crossings at the given indices."""
    chosen = set(indices)
    for i in chosen:
        if not 0 <= i < len(d.crossings):
            raise DiagramError(f"no crossing {i} to switch")
    crossings = [switch_crossing(c) if i in chosen else c for i, c in enumerate(d.crossings)]
    return Diagram(crossings, d.free_loops)


# -- state sum ----------------------------------------------------------


def split_stats(d: Diagram, state: int) -> StateStats:
    """Splitting statistics of one state.

    `state` is a bitmask over crossings in diagram order; bit i set means
    the B-splitting at crossing i.  This is a direct pure-Python trace,
    kept independent of the sweep kernel on purpose.
    """
    n = len(d.crossings)
    if not 0 <= state < (1 << n):
        raise DiagramError(f"state {state} out of range for {n} crossings")
    return _split_trace(d, _slot_mate(d), state)


def _slot_mate(d: Diagram) -> dict[tuple[int, int], tuple[int, int]]:
    """The arc pairing over (crossing, port) slots, read from the labels:
    the reference trace's own copy, apart from Diagram._mate."""
    in_slot, out_slot = _slot_maps(d)
    mate: dict[tuple[int, int], tuple[int, int]] = {}
    for label, slot in out_slot.items():
        mate[slot] = in_slot[label]
        mate[in_slot[label]] = slot
    return mate


def _split_trace(d: Diagram, mate, state: int) -> StateStats:
    """split_stats of a state in range, given _slot_mate(d)."""
    n = len(d.crossings)
    delta = d.free_loops
    seen: set[tuple[int, int]] = set()
    for ci in range(n):
        for port in range(4):
            if (ci, port) in seen:
                continue
            delta += 1
            slot = (ci, port)
            while slot not in seen:
                seen.add(slot)
                at, p = slot
                flip = 3 if (state >> at) & 1 else 1
                joined = (at, p ^ flip)
                seen.add(joined)
                slot = mate[joined]
    alpha = n - int(state).bit_count()
    return StateStats(alpha, n - alpha, delta)


def state_table(d: Diagram) -> tuple[StateStats, ...]:
    """split_stats of every state, in binary-counter order."""
    n = len(d.crossings)
    check_enumeration_size(n, f"state table of a {n}-crossing diagram")
    mate = _slot_mate(d)
    return tuple(_split_trace(d, mate, s) for s in range(1 << n))


def kauffman_bracket(d: Diagram) -> LaurentPoly:
    """The bracket state sum as an exact polynomial in A, B, d, with the
    states summed by frontier contraction."""
    return _bracket_sum(len(d.crossings), _frontier_rows(_plan(d)), d.free_loops)


def _plan(d: Diagram) -> tuple[int, ...]:
    """The arc pairing, after the cap check."""
    n = len(d.crossings)
    check_enumeration_size(n, f"bracket of a {n}-crossing diagram")
    return d._mate


def _frontier_rows(mate: tuple[int, ...]):
    """((alpha, curves), count) over all states, free loops excluded, by
    frontier contraction of the crossings."""
    n = len(mate) // 4
    rows = frontier_histogram(mate, [1] * n)
    return [((alpha, curves), count) for (alpha, _, curves), count in rows]


def _bracket_sum(n: int, rows, isolated: int = 0) -> LaurentPoly:
    """The bracket from ((alpha, loops), count) rows over n sites, each
    contributing count A^alpha B^(n-alpha) d^(loops + isolated - 1).

    A row counts states of a diagram, or the matching spanning subgraphs
    of its ribbon graph as identity_rows counts them.  `isolated` counts
    the loops no site touches, a diagram's free loops (identity_rows adds
    the dart-less vertices itself)."""
    return LaurentPoly._make(BRACKET_VARS, {
        (4 * alpha, 4 * (n - alpha), 4 * (loops + isolated - 1)): count
        for (alpha, loops), count in rows
    })


def jones(d: Diagram) -> LaurentPoly:
    """The Jones polynomial in t^(1/4), the bracket state sum evaluated at
    its point directly.

    At A = t^(-1/4), B = t^(1/4), d = D = -t^(1/2) - t^(-1/2) a state
    with alpha A-splittings and `curves` closed curves contributes
    t^((n-2 alpha)/4) D^(curves + free_loops - 1), under the prefactor
    (-1)^w t^(3w/4).  _jones_contraction sums the states with each
    A-splitting weighing t^(-1/2) and each curve D.  The bracket itself
    is never built.

    The empty diagram has none: its bracket d^-1 needs 1/d, which is not a
    Laurent polynomial in t^(1/4).
    """
    _check_jones(d)
    n = len(d.crossings)
    check_enumeration_size(n, f"Jones polynomial of a {n}-crossing diagram")
    return _jones_contraction(d._mate, [-2] * n, n, d.free_loops, writhe(d))


def _jones_contraction(mate, site_shift, base, isolated, w) -> LaurentPoly:
    """The sum over the ways of choosing sites of t^((base + shift)/4)
    D^(loops + isolated - 1) under (-1)^w t^(3w/4), where shift sums
    site_shift, in quarters of t, over the chosen sites, and `isolated`
    counts the loops no site touches.  frontier_histogram carries the sum
    with D as its loop weight; D^m for the m loops left follows, its
    coefficients +-C(m, k) built in one pass.

    Each coefficient is below 2^(bits + m) in absolute value, bits being
    the bit length of the largest one before D^m, since D^m's sum to 2^m.
    When that has more decimal digits than Python converts an int to text
    (sys.get_int_max_str_digits), the sum is refused before D^m is built.
    """
    rows = frontier_histogram(mate, site_shift, loop_weight=_D_QUARTERS)
    counts = {base + q: c for (q, _, _), c in rows}
    m = isolated - (not mate)  # with no site, the sum's one D fewer falls here
    if m < 0:
        raise ValueError("D^-1 is not a Laurent polynomial in t^(1/4): a graph "
                         "with no vertices has no Jones polynomial")
    digits = ceil((max(map(abs, counts.values())).bit_length() + m) * log10(2))
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise SizeLimitError(
            f"the Jones sum reaches D^{m}: its coefficients may have up to "
            f"{digits} digits, more than the {limit}-digit limit of Python's "
            f"int to text conversion (sys.set_int_max_str_digits)"
        )
    binomials = [-1 if (m + w) % 2 else 1]  # of D^m, times (-1)^w
    for k in range(m):
        binomials.append(binomials[-1] * (m - k) // (k + 1))
    terms: dict[tuple[int], int] = {}
    for q, c in counts.items():
        q += 3 * w + 2 * m  # C(m, k) goes with t^(m/2 - k)
        for b in binomials:
            terms[(q,)] = terms.get((q,), 0) + c * b
            q -= 4
    return LaurentPoly._make(JONES_VARS, terms)


def jones_via_bracket(d: Diagram) -> LaurentPoly:
    """jones by way of the whole bracket: kauffman_bracket(d) read at the
    Jones point by at_jones_point.  The reference the direct evaluation
    is checked against."""
    _check_jones(d)
    return at_jones_point(kauffman_bracket(d), writhe(d))


def at_jones_point(bracket: LaurentPoly, w: int) -> LaurentPoly:
    """A bracket in A, B, d at A = t^(-1/4), B = t^(1/4), d = D, times
    (-1)^w t^(3w/4): the Jones polynomial of a diagram with that bracket
    and writhe w, as the reference routes read it."""
    a, b = (LaurentPoly._make(JONES_VARS, {(q,): 1}) for q in (-1, 1))
    value = bracket.substitute({"A": a, "B": b, "d": BIG_D}, JONES_VARS)
    return LaurentPoly._make(JONES_VARS, {(3 * w,): -1 if w % 2 else 1}) * value


def _check_jones(d: Diagram) -> None:
    if not d.crossings and not d.free_loops:
        raise DiagramError("the empty diagram has no Jones polynomial (its bracket is d^-1)")

