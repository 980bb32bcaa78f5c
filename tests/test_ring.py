"""Polynomial carrier: parsing, arithmetic, substitution, translation."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ref_parser import ref_parse

from segrenum import AffinePoint, InputError, Polynomial, Ring
from segrenum import ring as ring_module
from segrenum.ring import MAX_DEGREE, MAX_DIGITS, MAX_NESTING, MAX_TERMS, MAX_VARS

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])
R4 = Ring(["x", "y", "z", "w"])


# -- construction and validation ------------------------------------------------


def test_ring_validation():
    with pytest.raises(InputError):
        Ring(["x", "x"])
    with pytest.raises(InputError):
        Ring(["2bad"])
    with pytest.raises(InputError):
        Ring(["a-b"])
    assert Ring(["_s", "x1"]).arity == 2


def test_variable_count_limit(monkeypatch):
    def no_polynomial(self_or_cls, ring, terms):
        raise AssertionError("built a polynomial")

    monkeypatch.setattr(Polynomial, "__init__", no_polynomial)
    monkeypatch.setattr(Polynomial, "_make", classmethod(no_polynomial))
    names = [f"x{i}" for i in range(MAX_VARS + 1)]
    with pytest.raises(InputError, match=f"{MAX_VARS + 1} variables exceed the limit {MAX_VARS}"):
        Ring(names)
    assert Ring(names[:-1]).arity == MAX_VARS


def test_polys_coerces_one_polynomial_its_text_or_a_list():
    x = R2.parse("x")
    assert R2.polys(x) == (x,)
    assert R2.polys("x + y") == (R2.parse("x + y"),)
    assert R2.polys(["y", x]) == R2.polys(iter([R2.parse("y"), "x"])) == (R2.parse("y"), x)
    assert R2.polys(()) == ()
    for bad in (3, None, [3], ["y", 2.5]):
        with pytest.raises(InputError, match="not a polynomial"):
            R2.polys(bad)
    with pytest.raises(InputError, match="polynomial from a different ring"):
        R2.polys(["y", Ring(["x"]).parse("x")])


def test_polys_parses_each_text_through_ring_parse(monkeypatch):
    seen = []
    parse = Ring.parse

    def spy(self, text):
        seen.append(text)
        return parse(self, text)

    monkeypatch.setattr(Ring, "parse", spy)
    y = R2.var(1)
    assert R2.polys(["x^2", y, "x - y"]) == (R2.var(0) ** 2, y, R2.var(0) - y)
    assert R2.polys("x") == (R2.var(0),)
    assert seen == ["x^2", "x - y", "x"]


def test_public_constructor_checks_every_term():
    for bad in ((1,), (1, 0, 0), (-1, 2), (0, -1)):
        with pytest.raises(InputError, match="bad exponent tuple"):
            Polynomial(R2, {(0, 0): Fraction(1), bad: Fraction(2)})
    p = Polynomial(R2, {(1, 0): 3, (0, 1): Fraction(0), (0, 0): Fraction(1, 2)})
    assert list(p.terms.items()) == [((1, 0), 3), ((0, 0), Fraction(1, 2))]
    assert all(type(c) is Fraction for c in p.terms.values())


def test_powers_take_nonnegative_integer_exponents():
    x = R2.var(0)
    for p in (x, x + 1):
        for k in (0.5, Fraction(1, 2), 2.0):
            with pytest.raises(InputError, match="exponent must be a nonnegative integer"):
                p**k
        with pytest.raises(InputError, match="negative powers"):
            p**-1
    assert list(((2 * x) ** 3).terms.items()) == [((3, 0), Fraction(8))]
    assert (x + 1) ** 0 == R2.one()


def test_from_terms_drops_zeros_and_checks_arity():
    p = R2.from_terms({(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert str(p) == "x"
    with pytest.raises(InputError):
        R2.from_terms({(1,): Fraction(1)})
    with pytest.raises(InputError):
        R2.from_terms({(-1, 0): Fraction(1)})


# -- parsing ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,canon",
    [
        ("x", "x"),
        ("x + y", "x + y"),
        ("y + x", "x + y"),
        ("x - x", "0"),
        ("2*x^2 - 3*y + 1", "2*x^2 - 3*y + 1"),
        ("1/2*x*y", "1/2*x*y"),
        ("-x", "-x"),
        ("x^2*y - y^2*x", "x^2*y - x*y^2"),
        ("(x + y)*(x - y)", "x^2 - y^2"),
        ("-(x - y)", "-x + y"),
        ("7", "7"),
        ("-3/4", "-3/4"),
        ("x*x*x", "x^3"),
        ("2*x - х" if False else "2*x - x", "x"),
    ],
)
def test_parse_canonical(text, canon):
    assert str(R2.parse(text)) == canon


def test_parse_rejects_juxtaposition_and_garbage():
    for bad in ("x y", "2x", "x**2", "x^-1", "x +", "(x", "x)", "", "x..y", "x/y"):
        with pytest.raises(InputError):
            R2.parse(bad)


@pytest.mark.parametrize(
    "text",
    [
        "x^1000000000",
        "(x + y)^100000",
        "x^" + "9" * 5000,
        "(x^10000)^10000 - y",
        "((x^10000)^10000)^10000",
        "(x*y)^5001",
        "x^10000*y",
        "x^5000*y^5000*x",
    ],
)
def test_parse_rejects_huge_degrees_before_the_power(text, monkeypatch):
    pow_, mul, degree = ring_module._pow, ring_module._mul, ring_module._degree

    def capped_pow(t, k, one):
        assert k <= MAX_DEGREE and degree(t) * k <= MAX_DEGREE, "expanded"
        return pow_(t, k, one)

    def capped_mul(a, b):
        assert degree(a) + degree(b) <= MAX_DEGREE, "expanded"
        return mul(a, b)

    monkeypatch.setattr(ring_module, "_pow", capped_pow)
    monkeypatch.setattr(ring_module, "_mul", capped_mul)
    with pytest.raises(InputError, match="exceeds the limit"):
        R2.parse(text)


def test_parse_accepts_degrees_up_to_the_limit():
    assert R2.parse("x^007") == R2.parse("x^7")
    assert R2.parse(f"x^{MAX_DEGREE}").total_degree() == MAX_DEGREE
    assert R2.parse("(x^100)^100 - y").total_degree() == MAX_DEGREE
    assert R2.parse("x^5000*y^5000 + (x - x)^10000").total_degree() == MAX_DEGREE
    assert R2.parse("2^10000").total_degree() == 0


def _height_digits(t):
    return math.log10(max(max(abs(c.numerator), c.denominator) for c in t.values()))


@pytest.mark.parametrize(
    "text",
    [
        "(2^10000)^10000",
        "((2^10000)^10000)^10000",
        "(1/3)^10000",
        "(x + 3)^9000",
        "2^3000*2^3000*2^3000*2^3000*2^3000",
        "9" * 3000 + "*" + "9" * 3000 + "*x",
        "(1/7)^4000*(1/7)^4000",
    ],
    ids=lambda text: text[:40],
)
def test_parse_rejects_huge_constants_before_the_power(text, monkeypatch):
    pow_, mul = ring_module._pow, ring_module._mul

    # a constant's height is exact, and the cases keep the largest
    # coefficient of each power at a vertex, where c^k survives
    def capped_pow(t, k, one):
        assert k * _height_digits(t) <= MAX_DIGITS, "expanded"
        return pow_(t, k, one)

    def capped_mul(a, b):
        assert _height_digits(a) + _height_digits(b) <= MAX_DIGITS, "expanded"
        return mul(a, b)

    monkeypatch.setattr(ring_module, "_pow", capped_pow)
    monkeypatch.setattr(ring_module, "_mul", capped_mul)
    with pytest.raises(InputError, match="exceeds the limit"):
        R2.parse(text)


@pytest.mark.parametrize(
    "text",
    [
        "(x + y + z + w)^5000",
        "((x + y + z + w)^20)^20",
        "(x + y)^200*(z + w)^200*(x + z)^200",
        "(x + y + z + w)^20*(x - y + z - w)^20",
    ],
)
def test_parse_rejects_huge_expansions_before_expanding(text, monkeypatch):
    pow_, mul = ring_module._pow, ring_module._mul

    # every term of t^k is a product of k terms of t
    def capped_pow(t, k, one):
        assert math.comb(len(t) + k - 1, k) <= MAX_TERMS, "expanded"
        return pow_(t, k, one)

    def capped_mul(a, b):
        assert len(a) * len(b) <= MAX_TERMS, "expanded"
        return mul(a, b)

    monkeypatch.setattr(ring_module, "_pow", capped_pow)
    monkeypatch.setattr(ring_module, "_mul", capped_mul)
    with pytest.raises(InputError, match=f"terms exceeds the limit {MAX_TERMS}"):
        R4.parse(text)


def test_expansion_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(ring_module, "MAX_TERMS", 100)
    assert len(R4.parse("(x + y)^99").terms) == 100
    assert len(R4.parse("(x + y)^9*(z + w)^9").terms) == 100
    # 286 products of 10 terms, but only 31 degrees
    assert len(R4.parse("(x + x^2 + x^3 + x^4)^10").terms) == 31
    for text in ("(x + y)^100", "(x + y)^9*(z + w)^10"):
        with pytest.raises(InputError, match="exceeds the limit 100"):
            R4.parse(text)


def test_translate_rejects_huge_expansions_before_expanding(monkeypatch):
    p = R4.parse("(x*y*z*w)^2500")  # one term, but 2501^4 at (1, 1, 1, 1)

    def no_substitution(self, bindings, target=None):
        raise AssertionError("expanded")

    monkeypatch.setattr(Polynomial, "substitute", no_substitution)
    with pytest.raises(InputError, match=f"terms exceeds the limit {MAX_TERMS}"):
        p.translate(R4.parse_point("1, 1, 1, 1"))
    assert p.translate(R4.parse_point("0, 0, 0, 0")) is p


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000], ids=["numerator", "denominator"])
def test_parse_rejects_long_literals(text):
    with pytest.raises(InputError, match="5000 digits exceeds the limit"):
        R2.parse(text)


def test_parse_accepts_constants_up_to_the_limit():
    nines = "9" * MAX_DIGITS
    assert R2.parse(nines) == R2.constant(int(nines))
    assert R2.parse("1/" + nines) == R2.constant(Fraction(1, int(nines)))
    assert R2.parse("0" * 5000 + "7") == R2.constant(7)
    assert R2.parse("(2^1000)^4") == R2.constant(2**4000)
    assert R2.parse("2^3000*2^3000*x").terms == {(1, 0): 2**6000}


def test_parse_unknown_variable():
    with pytest.raises(InputError):
        R2.parse("x + w")


@pytest.mark.parametrize("text, char", [("٣*x^٢", "٣"), ("x^٢", "٢"), ("x²", "²"), ("1/٣", "٣")])
def test_parse_takes_ascii_digits_only(text, char):
    with pytest.raises(InputError, match=f"unexpected character '{char}'"):
        R2.parse(text)


def test_parse_caps_the_nesting_depth():
    deep = "(" * MAX_NESTING + "x - y" + ")" * MAX_NESTING
    assert R2.parse(deep) == R2.parse("x - y")
    for text in ("(" + deep + ")", "(" * 1000 + "x" + ")" * 1000, "(" * 300):
        with pytest.raises(InputError, match=f"{MAX_NESTING + 1} parentheses exceeds the limit"):
            R2.parse(text)


def test_parse_reads_a_run_of_unary_minuses_in_a_loop():
    x = R2.var(0)
    assert R2.parse("-" * 1000 + "x") == x
    assert R2.parse("-" * 1001 + "x") == -x
    # a unary minus before ^ is refused; parentheses say which binds first
    with pytest.raises(InputError, match=r"unary minus before '\^' is ambiguous"):
        R2.parse("2*" + "-" * 999 + "x^2")
    assert R2.parse("2*" + "-" * 999 + "(x^2)") == -2 * x**2
    assert R2.parse("2*(" + "-" * 999 + "x)^2") == 2 * x**2
    assert R2.parse("y*(" + "-" * 5000 + "(x))") == R2.var(1) * x
    with pytest.raises(InputError, match="unexpected token"):
        R2.parse("x*" + "-" * 1000)


@pytest.mark.parametrize("text", ["x*-y^2", "2*-x^2", "x - -y^2", "--x^2", "x*-(x + y)^2", "-2*-3^2"])
def test_parse_refuses_a_unary_minus_before_a_power(text):
    with pytest.raises(InputError, match=r"write -\(a\^k\) or \(-a\)\^k"):
        R2.parse(text)


def test_parse_reads_the_sign_of_a_sum_and_a_parenthesised_minus():
    x, y = R2.var(0), R2.var(1)
    assert R2.parse("-x^2") == -(x**2)
    assert R2.parse("y - x^2*(-y^2)") == y + x**2 * y**2
    assert R2.parse("x*(-y)^2") == x * y**2
    assert R2.parse("x*-(y^2)") == -(x * y**2)
    assert R2.parse("x*-y") == -(x * y)


def test_parse_point():
    p = R2.parse_point("1, -3/2")
    assert p.coords == (Fraction(1), Fraction(-3, 2))
    assert not p.is_origin()
    assert AffinePoint(R2, (0, 0)).is_origin()
    with pytest.raises(InputError):
        R2.parse_point("1")
    with pytest.raises(InputError):
        R2.parse_point("1, 2, 3")


@pytest.mark.parametrize(
    "text, value", [("-3/2", Fraction(-3, 2)), ("+4", 4), ("007", 7), (" 0/5 ", 0)]
)
def test_point_coordinates_are_integer_or_a_over_b_literals(text, value):
    assert R2.parse_point(f"{text}, 1").coords == (value, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e3", "bad rational literal"),
        ("0.5", "bad rational literal"),
        ("1_000", "bad rational literal"),
        ("- 3", "bad rational literal"),
        ("1/", "bad rational literal"),
        ("1/0", "division by zero"),
        ("1e10000", "bad rational literal"),
        ("1" * 5000, "5000 digits exceeds the limit"),
        ("1/" + "1" * 5000, "5000 digits exceeds the limit"),
    ],
    ids=["exponent", "decimal", "underscore", "spaced-sign", "no-denominator", "zero-denominator",
         "huge-exponent", "long-numerator", "long-denominator"],
)  # fmt: skip
def test_point_coordinates_refuse_other_forms(text, message):
    with pytest.raises(InputError, match=message):
        R2.parse_point(f"1, {text}")


# -- arithmetic ------------------------------------------------------------------


def test_arithmetic_basics():
    x, y = R2.var(0), R2.var(1)
    assert str(x + y) == "x + y"
    assert str((x + y) * (x - y)) == "x^2 - y^2"
    assert str((x + y) ** 2) == "x^2 + 2*x*y + y^2"
    assert ((x + y) - (x + y)).is_zero()
    assert str(x.scale(Fraction(3, 2))) == "3/2*x"
    assert (x * R2.zero()).is_zero()
    assert str(x**0) == "1"


def test_degree_and_parts():
    p = R2.parse("x^3*y + 2*y - 5")
    assert p.total_degree() == 4
    assert p.constant_term() == -5
    assert not p.is_constant()
    assert R2.parse("9").is_constant()
    assert R2.zero().total_degree() == -1
    assert p.variables() == {0, 1}


def test_substitute_and_rings():
    p = R2.parse("x^2 + y")
    q = p.substitute({0: R3.parse("y + z")}, R3)
    assert str(q) == "y^2 + 2*y*z + z^2 + y"
    # name-based carryover for unbound variables
    assert str(p.substitute({}, R3)) == "x^2 + y"
    tiny = Ring(["y"])
    with pytest.raises(InputError):
        p.substitute({}, tiny)  # x cannot be carried into a ring without x


def test_translate_moves_point_to_origin():
    p = R2.parse("x^2 + y")
    at = AffinePoint(R2, (1, 2))
    q = p.translate(at)
    # q(v) = p(v + a)
    assert q.constant_term() == Fraction(3)
    assert str(q) == "x^2 + 2*x + y + 3"
    back = q.translate(at.negate())
    assert back == p


def test_str_fraction_and_sign_layout():
    assert str(R2.parse("-1/2*x + y")) == "-1/2*x + y"
    assert str(R2.parse("y - x")) == "-x + y"
    assert str(R2.zero()) == "0"


# -- property tests --------------------------------------------------------------

_coeff = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
).filter(lambda f: f != 0)
_exp2 = st.tuples(st.integers(0, 5), st.integers(0, 5))


def _polys(ring=R2, exp=_exp2):
    return st.dictionaries(exp, _coeff, max_size=5).map(ring.from_terms)


@settings(max_examples=120, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + R2.zero() == p
    assert p * R2.one() == p
    assert (p - p).is_zero()


@settings(max_examples=120, deadline=None)
@given(_polys())
def test_parse_str_round_trip(p):
    assert R2.parse(str(p)) == p


# monomials with small coefficients, so that the terms of a sum often cancel,
# and parenthesized polynomials, whose terms arrive in their printed order
_summand = st.one_of(
    st.builds(
        lambda c, a, b: f"{c}*x^{a}*y^{b}", st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)
    ),
    _polys().map(lambda p: f"({p})"),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), _summand), min_size=1, max_size=12))
def test_parsed_sum_matches_the_pairwise_fold(summands):
    (sign, first), rest = summands[0], summands[1:]
    text = ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)
    want = -R2.parse(first) if sign == "-" else R2.parse(first)
    for s, t in rest:
        want = want + R2.parse(t) if s == "+" else want - R2.parse(t)
    got = R2.parse(text)
    assert got == want
    assert list(got.terms) == list(want.terms)


@settings(max_examples=60, deadline=None)
@given(_polys(), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_translate_round_trip(p, coords):
    at = AffinePoint(R2, coords)
    assert p.translate(at).translate(at.negate()) == p


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys())
def test_pow_matches_repeated_product(p, q):
    assert (p * p * p) == p**3
    assert (p * q) ** 2 == p * p * q * q


def _substitute_by_sums(p, bindings, target):
    """Reference substitution: the term images added one at a time."""
    out = target.zero()
    for exp, c in p.terms.items():
        term = target.constant(c)
        for i, k in enumerate(exp):
            if k:
                image = bindings[i] if i in bindings else target.var(target._index[p.ring.names[i]])
                term = term * image**k
        out = out + term
    return out


# small integer images, so that term images often cancel
_images = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-2, 2).filter(bool),
    min_size=1,
    max_size=4,
).map(R3.from_terms)


@settings(max_examples=80, deadline=None)
@given(_polys(), _images, st.one_of(st.none(), _images))
def test_substitute_matches_the_sum_of_term_images(p, a, b):
    bindings = {0: a} if b is None else {0: a, 1: b}
    got = p.substitute(bindings, R3)
    want = _substitute_by_sums(p, bindings, R3)
    assert got == want
    assert list(got.terms) == list(want.terms)


# -- the term-dict parser against the Polynomial-arithmetic reference ----------

_literals = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 10**14).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_sum = st.sampled_from([" + ", " - ", "*", " * "])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, _sum, inner).map("".join),
        st.tuples(inner, _sum, inner, _sum, inner).map("".join),
        st.lists(inner, min_size=2, max_size=3).map(lambda ts: "*".join(f"({t})" for t in ts)),
        st.tuples(inner, st.integers(0, 4) | st.integers(0, 15)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda t: f"({t})"),
        st.tuples(st.integers(1, 3), inner).map(lambda t: "-" * t[0] + t[1]),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} - {t[1]}*({t[0]})"),  # terms that cancel
    )


_texts = st.recursive(st.sampled_from(["x", "y", "x", "y"]) | _literals, _compound, max_leaves=12)
# a valid text with one piece of junk put in: a bad character, a stray
# operator or a non-ASCII digit
_broken = st.tuples(
    _texts, st.integers(0, 60), st.sampled_from(list("xy+-*^()/0 .٣²") + ["**", "z", "1/"])
).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :])


def _outcome(parse, text):
    try:
        p = parse(R2, text)
    except InputError as exc:
        return str(exc)
    assert all(type(c) is Fraction for c in p.terms.values())
    return list(p.terms.items())


@settings(max_examples=400, deadline=None)
@given(st.one_of(_texts, _texts, _texts, _broken))
@example("(3)*x^2*y + (-5)*x*y^1 + 1/2*y - (x + 1/3)^3*(2*x - y)^2 - --(x^2)*y")
@example("x*-y^2 + 2*-x^2 - -(-x)^2")  # a unary minus before a power
@example("0^0 + (x - x)^0 - 0*x^8 + (x - x)^8*y^8")
@example("(1/2*x - 2/3*y)^4*(3*x + 1/5) - (x + y)^4")
@example("(x + y + 1)*(x - y + 2)*(2*x + y - 1) + y")  # the term cap
@example("(x^3*y)^3")  # the degree cap
@example("(123456*x + 1)^3")  # the digit cap
@example("(1/123456*x)^3")  # the digit cap on a denominator
@example("(x + 1)^7")  # the term cap on a power
@example("1234567890123*x")  # the literal cap
@example("x^9")  # the exponent cap
def test_parser_matches_the_polynomial_reference(text):
    # small caps, so that the degree, digit, term and literal limits fire
    with mock.patch.multiple(ring_module, MAX_DEGREE=8, MAX_DIGITS=12, MAX_TERMS=6):
        assert _outcome(Ring.parse, text) == _outcome(ref_parse, text)
