"""Tests for the exact Laurent polynomial engine."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkbr.laurent import LaurentPoly, PolyError, parse_poly

ABD = ("A", "B", "d")
T = ("t",)
TU = ("t", "u")


def mono(coeff=1, **exps):
    return LaurentPoly.monomial(ABD, coeff, exps)


class Index:
    """An integer type that is not int, as numpy's are: it has only
    __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def bracket_of_sample_knot():
    # A^3 + 3A^2Bd + 2AB^2 + AB^2d^2 + B^3d, assembled term by term.
    return (
        mono(1, A=3)
        + mono(3, A=2, B=1, d=1)
        + mono(2, A=1, B=2)
        + mono(1, A=1, B=2, d=2)
        + mono(1, B=3, d=1)
    )


def fraction_exponent(q):
    """A quarter-unit exponent rendered through Fraction, as the formatter
    did before its integer fast path."""
    f = Fraction(q, 4)
    if f == 1:
        return ""
    if f.denominator == 1:
        return f"^{f.numerator}"
    return f"^({f.numerator}/{f.denominator})"


def exponent_spellings(q):
    """The tokens after a variable that spell the quarter-unit exponent q:
    ^n or ^-n, ^(n) or ^(-n), an unreduced ^(p/q), and nothing for 1."""
    f = Fraction(q, 4)
    sign = ["-"] if f < 0 else []
    p, d = abs(f.numerator), f.denominator
    unreduced = st.integers(1, 3).map(lambda k: ["^", "(", *sign, str(p * k), "/", str(d * k), ")"])
    if d != 1:
        return unreduced
    plain = [["^", *sign, str(p)], ["^", "(", *sign, str(p), ")"]] + ([[]] if f == 1 else [])
    return st.one_of(st.sampled_from(plain), unreduced)


def random_poly(rng, variables, nterms=6, span=4):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        exps = tuple(rng.randrange(-span, span + 1) for _ in variables)
        terms[exps] = rng.randrange(-9, 10)
    return LaurentPoly(variables, terms)


class TestConstruction:
    def test_zero_is_falsy_and_prints_0(self):
        z = LaurentPoly.zero(ABD)
        assert not z
        assert str(z) == "0"

    def test_zero_coefficients_are_dropped(self):
        p = mono(2, A=1) + mono(-2, A=1)
        assert p == LaurentPoly.zero(ABD)
        assert list(p.terms()) == []

    def test_duplicate_keys_accumulate(self):
        p = LaurentPoly(ABD, {(4, 0, 0): 1})
        q = mono(1, A=1)
        assert p == q
        # Two keys that operator.index reads as one exponent tuple: their
        # coefficients add up, and a sum that cancels leaves no term.
        assert LaurentPoly(ABD, {(Index(4), 0, 0): 2, (4, 0, 0): 1}) == mono(3, A=1)
        cancelled = LaurentPoly(ABD, {(Index(4), 0, 0): 2, (4, 0, 0): -2, (0, 0, 4): 1})
        assert cancelled == mono(1, d=1) and cancelled._terms == {(0, 0, 4): 1}

    def test_off_lattice_exponent_rejected(self):
        with pytest.raises(PolyError):
            LaurentPoly.monomial(T, 1, t=Fraction(1, 3))

    def test_unknown_variable_rejected(self):
        with pytest.raises(PolyError):
            LaurentPoly.monomial(ABD, 1, q=2)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(PolyError):
            mono(1, A=1) + LaurentPoly.one(T)

    def test_exponent_tuple_of_the_wrong_width_rejected(self):
        with pytest.raises(PolyError, match=r"^exponent tuple \(4, 0\) does not match 3 var"):
            LaurentPoly(ABD, {(4, 0): 1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LaurentPoly(T, {(1.5,): 2}),
            lambda: LaurentPoly(T, {(1,): 2.7}),
            lambda: LaurentPoly(T, {("4",): 1}),
            lambda: LaurentPoly(T, {(4,): "1"}),
            lambda: LaurentPoly.constant(T, 2.0),
            lambda: LaurentPoly.constant(T, "3"),
            lambda: LaurentPoly.monomial(T, 2.7, t=1),
            lambda: LaurentPoly.monomial(T, 1, t=0.5),
            lambda: LaurentPoly.monomial(T, 1, t="1/2"),
        ],
    )
    def test_non_integers_are_refused_not_truncated(self, build):
        with pytest.raises(PolyError):
            build()

    def test_integer_types_are_read_as_ints(self):
        p = LaurentPoly(T, {(Index(4),): Index(3), (True,): True})
        assert p == LaurentPoly(T, {(4,): 3, (1,): 1})
        assert all(type(c) is int for _, c in p.terms())

    @pytest.mark.parametrize("value", [0, 1, -7, 2**70])
    def test_a_constant_hashes_like_its_int(self, value):
        const = LaurentPoly.constant(T, value)
        assert const == value and hash(const) == hash(value)
        assert const in {value} and len({value, const}) == 1

    def test_equal_polynomials_hash_alike(self):
        assert hash(mono(2, A=1) + mono(3)) == hash(LaurentPoly(ABD, {(4, 0, 0): 2, (0, 0, 0): 3}))


class TestCanonicalString:
    def test_bracket_of_sample_knot(self):
        # Canonical order is descending lex on exponent vectors, which puts
        # A*B^2*d^2 before 2*A*B^2.
        expected = "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d"
        assert str(bracket_of_sample_knot()) == expected

    def test_exponent_one_is_bare(self):
        assert str(mono(1, A=1)) == "A"
        assert str(mono(-1, A=1)) == "-A"

    def test_constants(self):
        assert str(LaurentPoly.constant(ABD, 7)) == "7"
        assert str(LaurentPoly.constant(ABD, -7)) == "-7"

    def test_fractional_exponents_reduced(self):
        p = LaurentPoly.monomial(T, -1, t=Fraction(-3, 4))
        assert str(p) == "-t^(-3/4)"
        q = LaurentPoly.monomial(T, 1, t=Fraction(2, 4))
        assert str(q) == "t^(1/2)"

    def test_negative_integer_exponent(self):
        p = LaurentPoly.monomial(T, 1, t=-2) + LaurentPoly.one(T)
        assert str(p) == "1 + t^-2"

    @pytest.mark.parametrize("position", range(3))
    def test_exponents_render_as_fractions_do(self, position):
        for q in range(-40, 41):
            exps = [1, 0, -3]
            exps[position] = q
            rendered = "*".join(name + fraction_exponent(e) for name, e in zip(ABD, exps) if e)
            assert str(LaurentPoly(ABD, {tuple(exps): 5})) == "5*" + rendered
            assert str(LaurentPoly(T, {(q,): -1})) == ("-t" + fraction_exponent(q) if q else "-1")

    def test_mixed_signs_join(self):
        p = LaurentPoly.monomial(T, -1, t=1) + LaurentPoly.monomial(T, -1, t=-1)
        assert str(p) == "-t - t^-1"

    def test_repr_names_the_variables(self):
        p = parse_poly("2*t^(1/2)*u^-1 - t + 3", TU)
        assert repr(p) == "LaurentPoly(t*u: -t + 2*t^(1/2)*u^-1 + 3)"


class TestParse:
    def test_parse_bracket_string(self):
        text = "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d"
        assert parse_poly(text, ABD) == bracket_of_sample_knot()

    def test_parse_accepts_unsorted_terms(self):
        assert parse_poly("B^3*d + A^3", ABD) == mono(1, A=3) + mono(1, B=3, d=1)

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_poly(rng, ABD)
            assert parse_poly(str(p), ABD) == p
        for _ in range(200):
            terms = {
                (rng.randrange(-8, 9),): rng.randrange(-5, 6)
                for _ in range(rng.randrange(5))
            }
            p = LaurentPoly(T, terms)
            assert parse_poly(str(p), T) == p

    @pytest.mark.parametrize("variables", [T, ABD])
    def test_roundtrip_random_wide_exponents(self, variables):
        rng = random.Random(11)
        for _ in range(300):
            p = random_poly(rng, variables, nterms=8, span=40)
            assert parse_poly(str(p), variables) == p

    def test_parse_fractional_exponents(self):
        p = parse_poly("t^(1/2) - t^(-1/2)", T)
        assert p == LaurentPoly.monomial(T, 1, t=Fraction(1, 2)) + LaurentPoly.monomial(
            T, -1, t=Fraction(-1, 2)
        )

    def test_parse_rejects_garbage(self):
        for bad in ("A +", "A ^", "A^(1/3)", "Q", "A A", "2 **", "A^(1/2/3)"):
            with pytest.raises(PolyError):
                parse_poly(bad, ABD)
        # A zero denominator, and a digit outside ASCII (Arabic-Indic three).
        for bad in ("A^(1/0)", "t^( 3 / 0 )", "\u0663*A"):
            with pytest.raises(PolyError):
                parse_poly(bad, ABD + T)

    def test_overlong_numbers_raise_poly_error(self):
        """A coefficient, exponent, numerator or denominator with more
        digits than Python converts from text raises PolyError naming the
        limit, not a bare ValueError; one of exactly the limit parses."""
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            long = "1" * 4301
            for text in (long + "*A", "A^" + long, "A^(-" + long + "/4)", "A^(4/" + long + ")",
                         "A + 2*B^(" + long + ")"):
                with pytest.raises(PolyError, match="more than 4300 digits"):
                    parse_poly(text, ABD)
            assert parse_poly("9" * 4300 + "*A", ABD) == mono(int("9" * 4300), A=1)
            assert parse_poly("A^" + "0" * 4299 + "3", ABD) == mono(A=3)
            zeros = "0" * 4299
            assert parse_poly(f"B^(-{zeros}8/{zeros}4)", ABD) == mono(B=-2)
        finally:
            sys.set_int_max_str_digits(old)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_parse_reads_every_spelling(self, data):
        """A polynomial built by arithmetic, spelled with random whitespace,
        shuffled factors, coefficients split into integer factors, repeated
        variables and every exponent form, reads back as itself."""
        variables = ABD + T
        expected = LaurentPoly.zero(variables)
        tokens = []
        for i in range(data.draw(st.integers(1, 4))):
            negative = data.draw(st.booleans())
            term = LaurentPoly.constant(variables, -1 if negative else 1)
            factors = []
            for n in data.draw(st.lists(st.integers(0, 12), max_size=2)):
                term = term * n
                factors.append([str(n)])
            powers = st.tuples(st.sampled_from(variables), st.integers(-12, 12))
            for name, q in data.draw(st.lists(powers, max_size=4)):
                term = term * LaurentPoly.monomial(variables, 1, {name: Fraction(q, 4)})
                factors.append([name, *data.draw(exponent_spellings(q))])
            expected = expected + term
            tokens += ["-"] if negative else ["+"] if i else []
            for j, factor in enumerate(data.draw(st.permutations(factors or [["1"]]))):
                tokens += (["*"] if j else []) + factor
        gap = st.sampled_from(["", "", " ", "\t", " \t "])
        text = data.draw(gap) + "".join(token + data.draw(gap) for token in tokens)
        assert parse_poly(text, variables) == expected


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(11)
        one = LaurentPoly.one(ABD)
        for _ in range(60):
            p = random_poly(rng, ABD)
            q = random_poly(rng, ABD)
            r = random_poly(rng, ABD)
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * one == p
            assert (p + q) - q == p

    def test_int_promotion(self):
        p = mono(1, A=1)
        assert p + 1 == p + LaurentPoly.one(ABD)
        assert 2 * p == p + p
        assert 1 - p == LaurentPoly.one(ABD) - p

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(13)
        for _ in range(20):
            p = random_poly(rng, T, nterms=3, span=2)
            acc = LaurentPoly.one(T)
            for k in range(5):
                assert p**k == acc
                acc = acc * p

    def test_negative_pow_of_monomial(self):
        p = LaurentPoly.monomial(T, -1, t=2)
        assert p**-1 == LaurentPoly.monomial(T, -1, t=-2)
        assert p**-2 == LaurentPoly.monomial(T, 1, t=-4)

    def test_non_integer_pow_rejected(self):
        with pytest.raises(PolyError, match="use substitute"):
            mono(1, A=1) ** 0.5

    def test_other_types_do_not_combine(self):
        with pytest.raises(PolyError, match="^cannot combine LaurentPoly with str$"):
            mono(1, A=1) + "A"

    def test_equality_with_other_types_is_left_to_them(self):
        assert mono(1, A=1).__eq__("A") is NotImplemented

    def test_negative_pow_of_sum_rejected(self):
        p = LaurentPoly.one(T) + LaurentPoly.variable(T, "t")
        with pytest.raises(PolyError):
            p**-1


    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                        st.integers(-5, 5).filter(bool), min_size=1, max_size=4),
        st.integers(0, 8),
    )
    def test_pow_is_the_repeated_product(self, terms, m):
        # exponents in quarter-units, so off the integers too
        p = LaurentPoly(TU, terms)
        product = LaurentPoly.one(TU)
        for _ in range(m):
            product = product * p
        assert p**m == product

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.sampled_from([1, -1]),
           st.integers(0, 8))
    def test_unit_terms_have_inverse_powers(self, exps, coeff, m):
        p = LaurentPoly(TU, {exps: coeff})
        assert p**-m * p**m == 1

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-8, 8),
           st.integers(-8, 8))
    def test_quarter_powers_compose(self, exps, i, j):
        # integer exponents, so every quarter power stays on the lattice
        p = LaurentPoly(TU, {(4 * exps[0], 4 * exps[1]): 1})
        root = p._fractional_power(Fraction(i, 4))
        assert root * p._fractional_power(Fraction(j, 4)) == p._fractional_power(Fraction(i + j, 4))
        assert root**j == p._fractional_power(Fraction(i * j, 4))

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                        st.integers(-5, 5).filter(bool), min_size=2, max_size=4),
        st.integers(1, 8),
        st.integers(1, 31).filter(lambda q: q % 4),
    )
    def test_powers_that_are_not_laurent_polynomials_raise(self, terms, m, q):
        p = LaurentPoly(TU, terms)
        with pytest.raises(PolyError):
            p**-m
        for power in (Fraction(q, 4), Fraction(-q, 4)):
            with pytest.raises(PolyError):
                p._fractional_power(power)
        off_lattice = LaurentPoly(TU, {(q, 0): 1})  # t^(q/4), q not a multiple of 4
        with pytest.raises(PolyError):
            off_lattice._fractional_power(Fraction(1, 4))
        with pytest.raises(PolyError):
            LaurentPoly(TU, {(4, 0): -1})._fractional_power(Fraction(q, 4))
        with pytest.raises(PolyError):
            LaurentPoly(TU, {(4, 0): 2})**-m


class TestSubstitution:
    def test_jones_substitution_of_sample_bracket(self):
        # A -> t^(-1/4), B -> t^(1/4), d -> -t^(1/2) - t^(-1/2) turns the
        # sample bracket into -t^(-3/4); the value was derived by hand from
        # the five terms (the t^(1/4) and t^(5/4) contributions cancel).
        d_poly = parse_poly("-t^(1/2) - t^(-1/2)", T)
        sub = {
            "A": LaurentPoly.monomial(T, 1, t=Fraction(-1, 4)),
            "B": LaurentPoly.monomial(T, 1, t=Fraction(1, 4)),
            "d": d_poly,
        }
        value = bracket_of_sample_knot().substitute(sub, T)
        assert str(value) == "-t^(-3/4)"

    def test_monomial_substitution_with_fractional_power(self):
        xyz = ("x", "y", "z")
        p = LaurentPoly.monomial(xyz, 1, x=Fraction(1, 2), y=Fraction(-1, 2))
        sub = {
            "x": LaurentPoly.monomial(ABD, 1, B=1, d=1, A=-1),
            "y": LaurentPoly.monomial(ABD, 1, A=1, d=1, B=-1),
            "z": LaurentPoly.monomial(ABD, 1, d=-1),
        }
        value = p.substitute(sub, ABD)
        assert value == LaurentPoly.monomial(ABD, 1, A=-1, B=1)

    def test_fractional_power_of_sum_rejected(self):
        xy = ("x", "y")
        p = LaurentPoly.monomial(xy, 1, x=Fraction(1, 2))
        sub = {
            "x": parse_poly("t + 1", T),
            "y": LaurentPoly.one(T),
        }
        with pytest.raises(PolyError):
            p.substitute(sub, T)

    def test_assignment_over_other_variables_rejected(self):
        sub = {"A": LaurentPoly.one(T), "B": LaurentPoly.one(T), "d": LaurentPoly.one(TU)}
        with pytest.raises(PolyError, match=r"^assignment for 'd' is over \('t', 'u'\)"):
            mono(1, A=1).substitute(sub, T)

    def test_missing_assignment_rejected(self):
        p = mono(1, A=1, B=1)
        with pytest.raises(PolyError):
            p.substitute({"A": LaurentPoly.one(T)}, T)

    def test_shifted_argument_substitution(self):
        # R(x-1, y-1, 1) style shift: check (x+y)^2 at x -> x-1, y -> 1.
        xy = ("x", "y")
        p = (LaurentPoly.variable(xy, "x") + LaurentPoly.variable(xy, "y")) ** 2
        shifted = p.substitute(
            {"x": parse_poly("x - 1", xy), "y": LaurentPoly.one(xy)},
            xy,
        )
        assert shifted == parse_poly("x^2", xy)

    def test_grouped_substitution_matches_term_by_term(self):
        # Two multi-term replacements and one single-term replacement with a
        # sign and negative powers, against the plain product of each
        # term's powers.
        xyz = ("x", "y", "z")
        sub = {
            "x": parse_poly("t + 2 - t^-1", T),
            "y": parse_poly("-t^(1/2)", T),
            "z": parse_poly("1 - t^(3/4)", T),
        }
        rng = random.Random(8)
        for _ in range(20):
            terms = {}
            for _ in range(rng.randrange(1, 12)):
                exps = (4 * rng.randrange(5), 4 * rng.randrange(-2, 3), 4 * rng.randrange(4))
                terms[exps] = rng.randrange(-9, 10)
            p = LaurentPoly(xyz, terms)
            expected = LaurentPoly.zero(T)
            for exps, coeff in p.terms():
                term = LaurentPoly.constant(T, coeff)
                for name, e in zip(xyz, exps):
                    if e:
                        term = term * sub[name]._fractional_power(e)
                expected = expected + term
            assert p.substitute(sub, T) == expected

    def test_substitution_computes_each_power_once(self, monkeypatch):
        calls = []
        original = LaurentPoly._fractional_power

        def counted(self, power):
            calls.append((str(self), power))
            return original(self, power)

        monkeypatch.setattr(LaurentPoly, "_fractional_power", counted)
        bracket = mono(1, A=2, d=3) + mono(2, B=2, d=3) + mono(1, A=2, B=1, d=1)
        bracket.substitute(
            {
                "A": LaurentPoly.monomial(T, 1, t=Fraction(-1, 4)),
                "B": LaurentPoly.monomial(T, 1, t=Fraction(1, 4)),
                "d": parse_poly("-t^(1/2) - t^(-1/2)", T),
            },
            T,
        )
        assert len(calls) == len(set(calls))

    def test_each_power_of_a_sum_is_built_from_the_one_below(self, monkeypatch):
        """Substituting D = -t^(1/2) - t^(-1/2) for d in the sum of d^k,
        k = 0..200, takes at most two products per distinct power of D:
        one to build it from the power below, one to apply it.  Repeated
        squaring for each power would take about 2000."""
        p = LaurentPoly(("d",), {(4 * k,): 1 for k in range(201)})
        big_d = parse_poly("-t^(1/2) - t^(-1/2)", T)
        calls = []
        original = LaurentPoly.__mul__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        value = p.substitute({"d": big_d}, T)
        monkeypatch.undo()
        assert len(calls) <= 2 * 200
        expected, power = LaurentPoly.one(T), LaurentPoly.one(T)
        for _ in range(200):
            power = power * big_d
            expected = expected + power
        assert value == expected

    def test_substitution_values_compose_to_one(self):
        # x, y, z as substituted satisfy x*y*z^2 = 1, which is why the
        # bracket has one variable fewer than the rank polynomial.
        x = LaurentPoly.monomial(ABD, 1, B=1, d=1, A=-1)
        y = LaurentPoly.monomial(ABD, 1, A=1, d=1, B=-1)
        z = LaurentPoly.monomial(ABD, 1, d=-1)
        assert x * y * z * z == LaurentPoly.one(ABD)


class TestAccessors:
    def test_coefficient_lookup(self):
        p = bracket_of_sample_knot()
        assert p.coefficient(A=2, B=1, d=1) == 3
        assert p.coefficient(A=1, B=2) == 2
        assert p.coefficient(A=5) == 0

    def test_coefficient_of_an_unknown_variable_rejected(self):
        with pytest.raises(PolyError, match="^unknown variable 'q'"):
            bracket_of_sample_knot().coefficient(q=1)

    def test_terms_iteration_in_canonical_order(self):
        p = mono(2, A=1) + mono(1, B=1)
        rows = list(p.terms())
        assert rows == [
            ((Fraction(1), Fraction(0), Fraction(0)), 2),
            ((Fraction(0), Fraction(1), Fraction(0)), 1),
        ]
