"""Exact sparse Laurent polynomials over a fixed variable tuple.

Coefficients are Python integers, so arithmetic never loses precision.
Exponents live on the quarter-integer lattice: internally each exponent is
an integer count of quarter-units.  One lattice is enough for every ring
used here, namely integer exponents for the bracket variables (A, B, d) and
the rank polynomials (x, y, z), half-integers for the signed rank
polynomial, and quarter-integers for the Jones variable t.

A polynomial is immutable once built.  Binary operations require both
operands to carry the same variable tuple; there is no implicit variable
extension.  The canonical string form sorts terms lexicographically by
exponent vector, descending, prints exponent 1 bare and fractional
exponents as reduced ``^(p/q)``, e.g. ``A^3 + 3*A^2*B*d`` or
``-t^(-3/4)``.

`parse` reads a wider text form: a sum of terms joined by ``+`` or ``-``,
the first optionally led by ``-``, each term a ``*``-joined product of
factors, each factor an integer in ASCII digits or a variable with an
optional exponent ``^n``, ``^-n`` or ``^(p)``, ``^(-p)``, ``^(p/q)``,
``^(-p/q)``, with whitespace between any two tokens.  One regular
expression, _FACTOR, reads a factor together with the operator before it,
and one loop multiplies the factors into terms, so ``2*A*A`` reads as
``2*A^2`` and ``-A^(4/2)`` as ``-A^2``.  Anything else, a zero
denominator, an exponent off the quarter lattice or a number with more
digits than Python reads (sys.get_int_max_str_digits) included, raises
PolyError.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import reduce
from operator import add, index, mul
from typing import Mapping


class PolyError(ValueError):
    """Malformed polynomial construction, parse, or substitution."""


def _quarter(value: int | Fraction, what: str = "exponent") -> int:
    """Convert an int or Fraction exponent to quarter-units, rejecting off-lattice values."""
    if not isinstance(value, (int, Fraction)):
        raise PolyError(f"{what} {value!r} is not an int or a Fraction")
    q = Fraction(value) * 4
    if q.denominator != 1:
        raise PolyError(f"{what} {value} is not a multiple of 1/4")
    return int(q)


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    Do not mutate instances; every operation returns a new polynomial.
    """

    __slots__ = ("variables", "_terms")

    def __init__(self, variables, terms=None):
        """Build a polynomial from quarter-unit exponent tuples.

        INPUT:
        variables -- tuple of variable names, fixing order and arity
        terms -- mapping {exponent tuple in quarter-units: coefficient};
                 zero coefficients are dropped

        Prefer the classmethod constructors; this raw form checks its input.
        Results built by the package itself, already clean, go through
        _make instead.
        """
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            width = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise PolyError(
                        f"exponent tuple {exps} does not match {width} variables"
                    )
                try:  # a float or a str is refused, not truncated
                    key, coeff = tuple(map(index, exps)), index(coeff)
                except TypeError:
                    raise PolyError(f"term {exps}: {coeff!r} needs integer exponents "
                                    "and coefficient") from None
                if coeff:
                    clean[key] = clean.get(key, 0) + coeff
                    if not clean[key]:
                        del clean[key]
        self._terms = clean

    @classmethod
    def _make(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Wrap a term dict built by the package itself: int exponent tuples
        of the right width and int coefficients.  Zero coefficients are
        dropped; nothing else is checked or copied."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly._terms = terms if all(terms.values()) else {k: c for k, c in terms.items() if c}
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "LaurentPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables, coeff: int) -> "LaurentPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): coeff})

    @classmethod
    def one(cls, variables) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables, name: str) -> "LaurentPoly":
        """The polynomial consisting of the single variable `name`."""
        return cls.monomial(variables, 1, {name: 1})

    @classmethod
    def monomial(
        cls,
        variables,
        coeff: int = 1,
        exponents: Mapping[str, int | Fraction] | None = None,
        **named: int | Fraction,
    ) -> "LaurentPoly":
        """A single term, exponents given per variable name.

        Exponents may be ints or Fractions on the quarter lattice and may
        be negative.  Example::

            LaurentPoly.monomial(("A", "B", "d"), 3, A=2, B=1, d=1)
        """
        variables = tuple(variables)
        merged: dict[str, int | Fraction] = dict(exponents or {})
        merged.update(named)
        exps = [0] * len(variables)
        for name, value in merged.items():
            if name not in variables:
                raise PolyError(f"unknown variable {name!r}; have {variables}")
            exps[variables.index(name)] = _quarter(value)
        return cls(variables, {tuple(exps): coeff})

    # -- inspection ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[tuple[Fraction, ...], int]]:
        """All (exponent vector, coefficient) pairs in canonical order."""
        return [
            (tuple(Fraction(q, 4) for q in exps), self._terms[exps])
            for exps in sorted(self._terms, reverse=True)
        ]

    def coefficient(self, **exponents: int | Fraction) -> int:
        """Coefficient of the monomial with the given exponents (0 elsewhere)."""
        exps = [0] * len(self.variables)
        for name, value in exponents.items():
            if name not in self.variables:
                raise PolyError(f"unknown variable {name!r}; have {self.variables}")
            exps[self.variables.index(name)] = _quarter(value)
        return self._terms.get(tuple(exps), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.variables, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self):
        # A constant equals its int, so it hashes like it.
        zero = (0,) * len(self.variables)
        if self._terms.keys() <= {zero}:
            return hash(self._terms.get(zero, 0))
        return hash((self.variables, frozenset(self._terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.variables != self.variables:
                raise PolyError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.variables, other)
        raise PolyError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return LaurentPoly._make(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(
            self.variables, {exps: -c for exps, c in self._terms.items()}
        )

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        return LaurentPoly._make(self.variables, _product(self._terms, self._coerce(other)._terms))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int):
            raise PolyError("use substitute() for fractional powers")
        return self._fractional_power(Fraction(power))

    def _fractional_power(self, power: Fraction) -> "LaurentPoly":
        """self**power; power may be any quarter rational.

        A nonnegative integer power of a polynomial that is not a single
        term is the repeated product.  Every other power only makes sense
        for a single term whose coefficient power stays an integer, e.g.
        coefficient 1 with any power, or -1 with an integer power.
        """
        if len(self._terms) != 1:
            if power.denominator != 1 or power < 0:
                raise PolyError(f"power {power} of a {len(self._terms)}-term polynomial "
                                "is not a Laurent polynomial")
            return reduce(mul, [self] * int(power), LaurentPoly.one(self.variables))
        (exps, coeff), = self._terms.items()
        if power.denominator != 1 and coeff != 1 or power < 0 and coeff not in (1, -1):
            raise PolyError(f"coefficient {coeff} has no integer power {power}")
        new_exps = [power * q for q in exps]
        if any(e.denominator != 1 for e in new_exps):
            raise PolyError(f"power {power} leaves the quarter-integer exponent lattice")
        # only +-1 get here with a power not a natural number: (+-1)^p = (+-1)^|p|
        new_coeff = coeff ** abs(int(power))
        return LaurentPoly._make(self.variables, {tuple(map(int, new_exps)): new_coeff})

    # -- substitution -------------------------------------------------

    def substitute(
        self,
        assignments: Mapping[str, "LaurentPoly"],
        variables,
    ) -> "LaurentPoly":
        """Evaluate with every variable replaced by a polynomial.

        INPUT:
        assignments -- {variable name: replacement polynomial}; every
                       variable of self must be assigned, and every
                       replacement must be over `variables`
        variables -- variable tuple of the result

        Replacements that are single terms may be raised to negative and
        fractional powers (when exact); multi-term replacements require
        nonnegative integer exponents.
        """
        variables = tuple(variables)
        for name in self.variables:
            if name not in assignments:
                raise PolyError(f"no assignment for variable {name!r}")
        for name, value in assignments.items():
            if value.variables != variables:
                raise PolyError(
                    f"assignment for {name!r} is over {value.variables}, "
                    f"expected {variables}"
                )
        # Each term is the product of its powers, each computed once.  A
        # multi-term replacement's positive integer powers are built in a
        # ladder, each from the power one below.
        powers: dict[tuple[str, int], LaurentPoly] = {}
        ladders: dict[str, list[LaurentPoly]] = {}

        def power(name: str, q: int) -> "LaurentPoly":
            if (name, q) not in powers:
                value = assignments[name]
                if len(value._terms) > 1 and q > 0 and not q % 4:
                    ladder = ladders.setdefault(name, [value])  # ladder[i] is value**(i + 1)
                    while len(ladder) < q >> 2:
                        ladder.append(ladder[-1] * value)
                    powers[name, q] = ladder[(q >> 2) - 1]
                else:
                    powers[name, q] = value._fractional_power(Fraction(q, 4))
            return powers[name, q]

        result: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._terms.items():
            part = {(0,) * len(variables): coeff}
            for name, q in zip(self.variables, exps):
                if q:
                    part = _product(part, power(name, q)._terms)
            for key, c in part.items():
                result[key] = result.get(key, 0) + c
        return LaurentPoly._make(variables, result)

    # -- canonical text form ------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps in sorted(self._terms, reverse=True):
            coeff = self._terms[exps]
            factors = []
            for name, q in zip(self.variables, exps):
                if q:
                    factors.append(name + _format_exponent(q))
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({'*'.join(self.variables)}: {self})"

    @classmethod
    def parse(cls, text: str, variables) -> "LaurentPoly":
        """Read the text form (see the module docstring) back into a
        polynomial; PolyError on anything else."""
        variables = tuple(variables)
        rows: list[list] = []  # [coefficient, quarter exponents] per term
        pos = 0
        while not rows or pos < len(text):
            m = _FACTOR.match(text, pos)
            if m is None or m["join"] not in (("*", "+", "-") if rows else ("", "-")):
                rest = text[pos:].strip()
                raise PolyError(f"unexpected {rest[:20]!r} in polynomial" if rest
                                else "unexpected end of polynomial")
            if m["join"] != "*":
                rows.append([-1 if m["join"] == "-" else 1, [0] * len(variables)])
            row = rows[-1]
            limit = sys.get_int_max_str_digits()
            if limit and max(len(n or "") for n in m.group("int", "num", "den")) > limit:
                raise PolyError(f"a number has more than {limit} digits")
            if m["int"]:
                row[0] *= int(m["int"])
            elif m["name"] not in variables:
                raise PolyError(f"unknown variable {m['name']!r}; have {variables}")
            elif m["den"] and not int(m["den"]):
                raise PolyError(f"zero denominator in the exponent of {m['name']!r}")
            else:
                power = Fraction(int(m["sign"] + m["num"]), int(m["den"] or 1)) if m["num"] else 1
                row[1][variables.index(m["name"])] += _quarter(power)
            pos = m.end()
        terms: dict[tuple[int, ...], int] = {}
        for coeff, exps in rows:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls._make(variables, terms)


def _product(left: dict, right: dict) -> dict:
    """The term dict of the product of two term dicts."""
    terms: dict[tuple[int, ...], int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(add, e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return terms


def _format_exponent(q: int) -> str:
    """Render a quarter-unit exponent; empty string for exponent 1."""
    if not q % 4:
        return "" if q == 4 else f"^{q // 4}"
    f = Fraction(q, 4)
    return f"^({f.numerator}/{f.denominator})"


# One factor of a term, with the operator that joins it to the text
# before it: "" or "-" before the first factor, "*" within a term, "+" or
# "-" between terms.  Whitespace may stand between any two tokens.
_FACTOR = re.compile(
    r"""\s* (?P<join> [-+*]? ) \s*
    (?:
        (?P<int> [0-9]+ )                        # an integer, in ASCII digits
      | (?P<name> [A-Za-z_][A-Za-z0-9_]* )       # a variable, with an optional
        (?: \s* \^ \s* (?P<paren> \( \s* )?       # exponent ^n, ^-n, ^(n),
            (?P<sign> -? ) \s* (?P<num> [0-9]+ )  # ^(-n) or ^(p/q), ^(-p/q)
            (?(paren) \s* (?: / \s* (?P<den> [0-9]+ ) \s* )? \) )
        )?
    ) \s*""",
    re.VERBOSE,
)


def parse_poly(text: str, variables) -> LaurentPoly:
    """Module-level convenience alias for LaurentPoly.parse."""
    return LaurentPoly.parse(text, variables)
