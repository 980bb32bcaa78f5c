"""Buchberger engine and the ideal lattice."""

import hashlib
import itertools
import weakref
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import budget

from segrenum import (
    GREVLEX,
    GRLEX,
    LEX,
    AffinePoint,
    HilbertData,
    Ideal,
    InputError,
    Polynomial,
    Ring,
    normal_form,
)
from segrenum import groebner, kernel
from segrenum.groebner import _minimalize, _num_mul, _numerator, exact_div, hilbert_of_leads
from segrenum.orders import block_order

R2 = Ring(["x", "y"])
R3 = Ring(["x", "y", "z"])


# -- reduced Groebner bases ------------------------------------------------------


def test_twisted_cubic_grevlex_and_lex():
    T = Ideal(R3, ["y - x^2", "z - x^3"])
    assert T.canonical_strings() == ["x^2 - y", "x*y - z", "y^2 - x*z"]
    lex_gb = [str(g) for g in T.groebner(LEX)]
    assert lex_gb == ["x^2 - y", "x*y - z", "-y^2 + x*z", "y^3 - z^2"]


def test_gb_is_monic_reduced_deterministic():
    I = Ideal(R2, ["2*x^2 + 3*y", "4*y^2 - x"])
    gb = I.groebner()
    # leading coefficients are 1 under the order
    for g in gb:
        lead = max(g.terms, key=GREVLEX.key)
        assert g.terms[lead] == 1
    # generator order/scaling does not matter
    J = Ideal(R2, ["y^2 - 1/4*x", "x^2 + 3/2*y"])
    assert I == J
    assert hash(I) == hash(J)
    assert I.canonical_strings() == J.canonical_strings()


def test_zero_and_unit_ideals():
    Z = Ideal(R2, ())
    assert Z.is_zero() and not Z.is_unit()
    assert Z.krull_dimension() == 2
    U = Ideal(R2, ["3"])
    assert U.is_unit()
    assert U.krull_dimension() == -1
    assert U.canonical_strings() == ["1"]
    assert Ideal(R2, ["0"]).is_zero()


def test_contains_and_membership():
    I = Ideal(R3, ["y - x^2", "z - x^3"])
    assert I.contains(R3.parse("y^2 - x*z"))
    assert not I.contains(R3.parse("x"))
    assert I.contains_ideal(Ideal(R3, ["x*y - z", "x^2 - y"]))


def test_normal_form_exactness():
    I = Ideal(R2, ["x^2 - y"])
    gb = I.groebner()
    p = R2.parse("x^4 + x^2 + 1")
    r = normal_form(p, gb, GREVLEX)
    assert r == R2.parse("y^2 + y + 1")
    # NF is linear over adding ideal members
    q = p + R2.parse("7/3*y") * R2.parse("x^2 - y")
    assert normal_form(q, gb, GREVLEX) == r
    # exact fractions survive
    r2 = normal_form(R2.parse("1/3*x^2"), gb, GREVLEX)
    assert r2 == R2.parse("1/3*y")
    # the divisors may be given as text, as every polynomial input may
    assert normal_form(p, ["x^2 - y"]) == normal_form(p, "x^2 - y") == r
    with pytest.raises(InputError, match="polynomial from a different ring"):
        normal_form(p, [R3.parse("x")])


def test_exact_div():
    f = R2.parse("x^2*y + 1/2*x*y^2")
    g = R2.parse("x*y")
    assert exact_div(f, g) == R2.parse("x + 1/2*y")
    with pytest.raises(InputError):
        exact_div(R2.parse("x + 1"), g)


@pytest.mark.parametrize(
    "method", ["contains", "normal_form", "radical_contains", "saturate_poly", "saturate"]
)
def test_argument_from_another_ring_is_input_error(method):
    # same arity, other names: nothing may be computed by position
    S = Ring(["u", "v"])
    arg = Ideal(S, ["u"]) if method == "saturate" else S.parse("u*v")
    with pytest.raises(InputError):
        getattr(Ideal(R2, ["x*y"]), method)(arg)


_S2 = Ring(["u", "v"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Ideal(R2, ["x*y"]).contains(_S2.zero()),
        lambda: Ideal(R2, ["x*y"]).radical_contains(_S2.zero()),
        lambda: Ideal(R2, []).normal_form(_S2.parse("u*v")),
        lambda: Ideal(R2, ["x*y"]).translate(AffinePoint(_S2, (0, 0))),
        lambda: Ideal(R2, []).translate(AffinePoint(_S2, (0, 0))),
        lambda: R2.parse("x").translate(AffinePoint(_S2, (0, 0))),
    ],
    ids=[
        "contains-zero", "radical-zero", "nf-zero-ideal",
        "translate", "translate-zero-ideal", "poly-translate",
    ],
)  # fmt: skip
def test_foreign_ring_checked_before_shortcuts(call):
    with pytest.raises(InputError):
        call()


# -- pinned work counts ------------------------------------------------------------

R4 = Ring(["w", "x", "y", "z"])
DENSE4 = [
    "-3*w^2 + 3*w*x + 6*x^2 + 6*w*y - 6*x*y - 7*y^2 + 5*w*z - x*z + 9*y*z - 5*z^2 + 3*w - 9*x + 6*y - 6*z + 4",
    "-9*w^2 - 9*w*x - 6*x^2 - 9*w*y + 9*x*y - y^2 + w*z - 2*x*z + 5*y*z - 9*z^2 - 3*w + 3*x - 9*y + 8*z + 4",
    "-2*w^2 - 2*w*x + 8*x^2 + 2*w*y + 6*x*y - 2*y^2 - 2*w*z + 5*x*z + 7*y*z - 9*z^2 + 4*w - 9*x + 5*z + 8",
    "-3*w*x + 7*x^2 + 7*w*y + x*y + 4*w*z - 6*x*z - 4*y*z - 6*z^2 + 7*w + 6*x + 9*y + 3",
]  # fmt: skip
SPOLYS, ZEROS = 11, 0
LEADS = [
    "z^5", "w*z^3", "x*z^3", "y*z^3", "x*y^2", "y^3", "x*y*z", "y^2*z", "w^2", "w*x", "x^2", "w*y"
]  # fmt: skip
BASIS_SHA256 = "9735bf4f4bd6b88e553f7d29a175aaa916575563e0cf79a464236be0e30d2821"


def test_dense_quadrics_pair_counts_and_basis(monkeypatch):
    """Four dense quadrics in four variables: the S-polynomials formed, the
    remainders that vanish and the basis are pinned, so a change to the
    reducer rows cannot change which pairs the loop reduces."""
    K = kernel.get()
    spoly, reduce_full = K.spoly, K.reduce_full
    counts = {"spoly": 0, "zero": 0}

    def counted_spoly(*args):
        counts["spoly"] += 1
        return spoly(*args)

    def counted_reduce_full(*args):
        out = reduce_full(*args)
        counts["zero"] += not out[0]
        return out

    monkeypatch.setattr(K, "spoly", counted_spoly)
    monkeypatch.setattr(K, "reduce_full", counted_reduce_full)
    I = Ideal(R4, DENSE4)
    gb = I.groebner()
    assert counts == {"spoly": SPOLYS, "zero": ZEROS}
    assert [str(R4.from_terms({e: 1})) for e in I.leading_exponents()] == LEADS
    text = "\n".join(str(g) for g in gb)
    assert hashlib.sha256(text.encode()).hexdigest() == BASIS_SHA256


# -- lattice operations ----------------------------------------------------------


def test_intersect_oracles():
    X, Y = Ideal(R3, ["x"]), Ideal(R3, ["y"])
    assert X.intersect(Y) == Ideal(R3, ["x*y"])
    XY, Zid = Ideal(R3, ["x", "y"]), Ideal(R3, ["z"])
    assert XY.intersect(Zid) == Ideal(R3, ["x*z", "y*z"])
    I = Ideal(R3, ["x^2 - y"])
    assert I.intersect(Ideal(R3, ["1"])) == I
    assert I.intersect(Ideal(R3, ())).is_zero()


def test_quotient_oracles():
    I = Ideal(R2, ["x*y"])
    assert I.quotient(R2.parse("x")) == Ideal(R2, ["y"])
    f, g = R2.parse("x + y"), R2.parse("x - y")
    meet = Ideal(R2, [str(f)]).intersect(Ideal(R2, [str(g)]))
    assert meet.quotient(f) == Ideal(R2, [str(g)])
    with pytest.raises(InputError):
        I.quotient(R2.zero())


def test_saturate_poly():
    I = Ideal(R2, ["x^2*y^3"])
    assert I.saturate_poly(R2.parse("y")) == Ideal(R2, ["x^2"])
    # nothing inside the divisor
    P = Ideal(R2, ["x - 1"])
    assert P.saturate_poly(R2.parse("y")) == P


def test_saturate_ideal_regression_unit_first_factor():
    # I = x*(x, y) has the line {x=0} plus an embedded origin; saturating by
    # the maximal ideal must strip the embedded part and keep the line.  The
    # first generator x is nilpotent mod I, so its partial saturation is (1);
    # the unit factor must act as the identity of the meet, not absorb it.
    I = Ideal(R2, ["x^2", "x*y"])
    M = Ideal(R2, ["x", "y"])
    assert I.saturate(M) == Ideal(R2, ["x"])
    # saturating by something entirely nilpotent gives the unit ideal
    assert Ideal(R2, ["x^2"]).saturate(Ideal(R2, ["x"])).is_unit()
    with pytest.raises(InputError):
        I.saturate(Ideal(R2, ()))


def _iterated_quotient(I, g):
    """Reference I : g^inf: quotients by g until the ideal stops growing."""
    cur = I
    while True:
        nxt = cur.quotient(g)
        if nxt == cur:
            return cur
        cur = nxt


def test_saturate_matches_iterated_quotient():
    I = Ideal(R3, ["x^2*z", "y*z^2"])
    z = R3.parse("z")
    ref = _iterated_quotient(I, z)
    assert ref == Ideal(R3, ["x^2", "y"])
    assert I.saturate(Ideal(R3, ["z"])) == ref
    assert I.saturate_poly(z) == ref


def test_saturating_by_rows_builds_no_polynomials():
    # J = (y - x^2), born from the rows of an elimination: the saturation
    # reads its int terms, so J never builds Fraction generators
    J = Ideal(R3, ["x - z", "y - z^2"]).eliminate([2])
    assert J.ring == R2 and J._gens is None
    I = Ideal(R2, ["x*y - x^3", "x^2*y - x^4"])
    assert I.saturate(J) == Ideal(R2, ["x"])
    assert J._gens is None
    # a generator repeated up to a scalar is saturated by once
    assert I.saturate(Ideal(R2, ["y - x^2", "2*y - 2*x^2"])) == Ideal(R2, ["x"])


@pytest.mark.parametrize("names", [["_s", "y"], ["_rb", "y"], ["_h", "y"], ["_t", "_t_"]])
def test_elimination_variable_never_clashes(names):
    R = Ring(names)
    a, b = (R.parse(n) for n in names)
    I = Ideal(R, [a * a * b])
    assert Ideal(R, [a]).intersect(Ideal(R, [b])) == Ideal(R, [a * b])
    assert I.quotient(b) == Ideal(R, [a * a])
    assert I.saturate(Ideal(R, [a])) == Ideal(R, [b])
    assert I.radical_contains(a * b)
    assert not I.radical_contains(a)


def test_radical_membership():
    I = Ideal(R2, ["x^2"])
    assert I.radical_contains(R2.parse("x"))
    assert not I.radical_contains(R2.parse("x + y"))
    assert Ideal(R2, ["x^2 + y^2"]).radical_contains(R2.parse("x^2 + y^2"))


def test_eliminate():
    T = Ideal(R3, ["y - x^2", "z - x^3"])
    E = T.eliminate([0])  # drop x
    assert E.ring.names == ("y", "z")
    assert E == Ideal(E.ring, ["y^3 - z^2"])
    with pytest.raises(InputError):
        T.eliminate([5])


def test_krull_dimension_samples():
    assert Ideal(R3, ["x"]).krull_dimension() == 2
    assert Ideal(R3, ["x", "y"]).krull_dimension() == 1
    assert Ideal(R3, ["x", "y", "z"]).krull_dimension() == 0
    assert Ideal(R3, ["y - x^2", "z - x^3"]).krull_dimension() == 1
    assert Ideal(R2, ["x^2", "x*y"]).krull_dimension() == 1
    assert Ideal(R2, ["x^2 - 1"]).krull_dimension() == 1


def test_krull_dimension_of_many_variables_is_fast():
    # a search over variable subsets would visit all 2^24 of them
    ring = Ring([f"x{i}" for i in range(24)])
    ideal = Ideal(ring, [f"x{i}^2 - x{(i + 1) % 24}" for i in range(24)])
    with budget(2):
        assert ideal.krull_dimension() == 0


def test_translate_to_origin_keeps_the_ideal():
    I = Ideal(R2, ["x^2 - y"])
    gb = I.groebner()
    rows = I._gb[GREVLEX]
    for point in (None, AffinePoint(R2, (0, 0))):
        assert I.translate(point) is I
        assert I.translate(point)._gb[GREVLEX] is rows
        assert I.translate(point).groebner() is gb
        assert R2.parse("x").translate(point) == R2.parse("x")


def test_hilbert_data_samples():
    hd = Ideal(R2, ["x^2", "x*y"]).hilbert_data()
    assert (hd.dimension, hd.degree) == (1, 1)
    hd2 = Ideal(R2, ["x^3", "y^4"]).hilbert_data()
    assert (hd2.dimension, hd2.degree) == (0, 12)
    hd3 = Ideal(R3, ["x*y", "x*z", "y*z"]).hilbert_data()  # three lines
    assert (hd3.dimension, hd3.degree) == (1, 3)
    assert isinstance(hd, HilbertData)


def test_hilbert_of_leads_staircase():
    # N(t) for (x^2, x*y): free monomials 1, x, y, y^2, ... -> 1/(1-t) + t
    hd = hilbert_of_leads([(2, 0), (1, 1)], 2)
    assert hd.dimension == 1 and hd.degree == 1


def _unit_pivot_numerator(gens: frozenset) -> dict:
    """Reference: the Hilbert numerator pivoting on the bare variable, one
    recursion per unit of exponent."""
    if any(sum(g) == 0 for g in gens):
        return {}
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        out = {0: 1}
        for g in gens:
            out = _num_mul(out, {0: 1, sum(g): -1})
        return out
    counts = [sum(1 for g in mixed if g[i]) for i in range(len(mixed[0]))]
    pivot = counts.index(max(counts))
    xi = tuple(int(i == pivot) for i in range(len(counts)))
    plus = _minimalize(gens | {xi})
    quot = _minimalize(
        frozenset(tuple(e - 1 if i == pivot and e else e for i, e in enumerate(g)) for g in gens)
    )
    out = dict(_unit_pivot_numerator(plus))
    for k, c in _unit_pivot_numerator(quot).items():
        out[k + 1] = out.get(k + 1, 0) + c
    return {k: c for k, c in out.items() if c}


_monomial_ideals = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(_monomial_ideals)
def test_numerator_matches_unit_pivot_reference(gens):
    gens = _minimalize(frozenset(gens))
    assert _numerator(gens, {}) == _unit_pivot_numerator(gens)


def test_ideal_sum_and_translate():
    I = Ideal(R2, ["x"])
    J = I + (R2.parse("y - 1"),)
    assert J == Ideal(R2, ["x", "y - 1"])
    from segrenum import AffinePoint

    K = J.translate(AffinePoint(R2, (0, 1)))
    assert K == Ideal(R2, ["x", "y"])


def test_block_order_gb():
    I = Ideal(R3, ["x^2 - y", "x*y - z"])
    gb = I.groebner(block_order(1))
    # the elimination ideal (no x) must be generated by the x-free elements
    xfree = [g for g in gb if all(e[0] == 0 for e in g.terms)]
    assert any(g == R3.parse("y^3 - z^2") or g == R3.parse("-y^3 + z^2") for g in xfree)


def test_block_wider_than_ring_is_input_error():
    T = Ideal(R3, ["y - x^2", "z - x^3"])
    with pytest.raises(InputError):
        T.groebner(block_order(9))
    # a block of all three variables is grevlex on them
    assert T.groebner(block_order(3)) == T.groebner(GREVLEX)


# -- property tests --------------------------------------------------------------

_coeff = st.integers(-9, 9).filter(lambda n: n != 0).map(Fraction)
_exp2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
_poly2 = st.dictionaries(_exp2, _coeff, min_size=1, max_size=3).map(R2.from_terms)


def _independent_set_dimension(ideal):
    """Size of the largest variable set that contains the support of no
    grevlex lead monomial; -1 when a lead is constant."""
    n = ideal.ring.arity
    supports = [{i for i, e in enumerate(le) if e} for le in ideal.leading_exponents()]
    if any(not s for s in supports):
        return -1
    for k in range(n, -1, -1):
        for free in itertools.combinations(range(n), k):
            if not any(s <= set(free) for s in supports):
                return k


@st.composite
def _ideals(draw):
    ring = Ring(["x", "y", "z", "w"][: draw(st.integers(2, 4))])
    exps = st.tuples(*[st.integers(0, 2)] * ring.arity)
    polys = st.dictionaries(exps, _coeff, min_size=1, max_size=3).map(ring.from_terms)
    return Ideal(ring, draw(st.lists(polys, max_size=4)))


@settings(max_examples=60, deadline=None)
@given(_ideals())
@example(Ideal(R3, []))
@example(Ideal(R3, ["-2"]))
@example(Ideal(Ring(["x", "y", "z", "w"]), ["x*y", "z*w", "x*z^2"]))
def test_krull_dimension_matches_independent_sets(ideal):
    assert ideal.krull_dimension() == _independent_set_dimension(ideal)


@settings(max_examples=40, deadline=None)
@given(st.lists(_poly2, min_size=1, max_size=3))
def test_spoly_residuals_vanish(gens):
    I = Ideal(R2, gens)
    gb = I.groebner()
    if not gb:
        return
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            li = max(gb[i].terms, key=GREVLEX.key)
            lj = max(gb[j].terms, key=GREVLEX.key)
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            mi = R2.from_terms({tuple(l - a for l, a in zip(lcm, li)): Fraction(1)})
            mj = R2.from_terms({tuple(l - a for l, a in zip(lcm, lj)): Fraction(1)})
            s = mi * gb[i] - mj * gb[j]
            assert normal_form(s, gb, GREVLEX).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.lists(_poly2, min_size=1, max_size=2), _poly2)
def test_saturation_idempotent(gens, g):
    I = Ideal(R2, gens)
    s1 = I.saturate_poly(g)
    assert s1.saturate_poly(g) == s1


@settings(max_examples=30, deadline=None)
@given(st.lists(_poly2, min_size=1, max_size=2), _poly2)
def test_saturate_poly_matches_iterated_quotient(gens, g):
    I = Ideal(R2, gens)
    assert I.saturate_poly(g) == _iterated_quotient(I, g)


def _sympy_basis(sympy, gens, order_name):
    """SymPy's reduced basis of gens, as monic polynomials of their ring."""
    ring = gens[0].ring
    syms = sympy.symbols(ring.names)
    exprs = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()}, *syms
        ).as_expr()
        for g in gens
    ]
    basis = sympy.groebner(exprs, *syms, order=order_name, domain="QQ")
    polys = [
        ring.from_terms({e: Fraction(int(c.p), int(c.q)) for e, c in q.as_dict().items()})
        for q in basis.polys
    ]
    order = LEX if order_name == "lex" else GREVLEX
    return [p.scale(1 / p.terms[max(p.terms, key=order.key)]) for p in polys]


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_poly2, min_size=1, max_size=3))
    def check(gens):
        for order, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
            ours = [str(g) for g in Ideal(R2, gens).groebner(order)]
            theirs = _sympy_basis(sympy, gens, name)
            assert sorted(ours) == sorted(str(p) for p in theirs), name

    check()


_MONOS3 = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
_quad3 = st.dictionaries(st.sampled_from(_MONOS3), _coeff, min_size=1, max_size=4).map(
    R3.from_terms
)


def test_reduced_bases_match_sympy_in_three_variables():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_quad3, min_size=2, max_size=3))
    def check(gens):
        I = Ideal(R3, gens)
        for order, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
            ours = [str(g) for g in I.groebner(order)]
            assert sorted(ours) == sorted(str(p) for p in _sympy_basis(sympy, gens, name)), name
        # the x-free part of a lex basis generates the elimination ideal
        out = I.eliminate([0])
        free = [
            Polynomial(out.ring, {e[1:]: c for e, c in p.terms.items()})
            for p in _sympy_basis(sympy, gens, "lex")
            if not any(e[0] for e in p.terms)
        ]
        assert out == Ideal(out.ring, free)

    check()


@pytest.mark.parametrize("nd", range(4))
@settings(max_examples=20, deadline=None)
@given(gens=st.lists(_quad3, min_size=1, max_size=3), perm=st.permutations(range(3)))
def test_eliminate_caches_its_grevlex_basis(nd, gens, perm):
    out = Ideal(R3, gens).eliminate(perm[:nd])
    assert out.groebner() == Ideal(out.ring, out.gens).groebner()


@settings(max_examples=30, deadline=None)
@given(st.lists(_poly2, min_size=1, max_size=2), st.lists(_poly2, min_size=1, max_size=2))
def test_intersection_contains_product_and_members(f, g):
    I, J = Ideal(R2, f), Ideal(R2, g)
    meet = I.intersect(J)
    for p in f:
        for q in g:
            assert meet.contains(p * q)
    for p in meet.gens:
        assert I.contains(p) and J.contains(p)


# -- exact division and the quotient ----------------------------------------------

def test_exact_div_of_a_long_power_is_fast():
    # each step used to copy the whole remainder: 14 s for these 3060 terms
    g = R4.parse("w + x + y + z + 1")
    p = g**14
    with budget(2):
        assert exact_div(p, g) == g**13


@settings(max_examples=40, deadline=None)
@given(_poly2, _poly2)
def test_exact_div_inverts_multiplication(p, g):
    assert exact_div(p * g, g) == p
    if g.total_degree() > 0:  # g would divide 1
        with pytest.raises(InputError):
            exact_div(p * g + R2.one(), g)


def _front(ring):
    """ring with a fresh first variable u, and the lift of ring into it."""
    ext = Ring(["_u", *ring.names])
    return ext, lambda p: ext.from_terms({(0,) + e: c for e, c in p.terms.items()})


def _intersect_reference(I, J):
    """I cap J by the t-trick, read off a block(1) basis by hand."""
    ext, lift = _front(I.ring)
    t = ext.var(0)
    gens = [t * lift(p) for p in I.gens] + [(ext.one() - t) * lift(q) for q in J.gens]
    kept = [g for g in Ideal(ext, gens).groebner(block_order(1)) if not any(e[0] for e in g.terms)]
    return Ideal(I.ring, [I.ring.from_terms({e[1:]: c for e, c in g.terms.items()}) for g in kept])


@settings(max_examples=30, deadline=None)
@given(st.lists(_poly2, min_size=1, max_size=2), _poly2)
def test_quotient_is_unit_on_members_and_matches_the_meet(gens, g):
    I = Ideal(R2, gens)
    if I.contains(g):
        assert I.quotient(g).is_unit()
    meet = _intersect_reference(I, Ideal(R2, [g]))
    assert I.quotient(g) == Ideal(R2, [exact_div(h, g) for h in meet.gens])
    assert I.quotient(gens[0] * g).is_unit()


# -- seeded completion ------------------------------------------------------------

_RINGS = {n: Ring(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}


@st.composite
def _seeded_case(draw):
    ring = _RINGS[draw(st.integers(2, 4))]
    exps = st.tuples(*[st.integers(0, 2)] * ring.arity).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, _coeff, min_size=1, max_size=3).map(ring.from_terms)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    extra = draw(st.lists(poly, min_size=1, max_size=2))
    order = draw(st.sampled_from([GREVLEX, LEX, block_order(1)]))
    return ring, gens, extra, order


@settings(max_examples=40, deadline=None)
@given(_seeded_case())
def test_sum_seeded_from_a_cached_basis_equals_a_fresh_one(case):
    ring, gens, extra, order = case
    I = Ideal(ring, gens)
    I.groebner(order)
    S = I + extra
    assert S._base() is I
    assert S.groebner(order) == Ideal(ring, gens + extra).groebner(order)


@settings(max_examples=30, deadline=None)
@given(_seeded_case())
def test_seeded_saturation_equals_an_unseeded_one(case):
    ring, gens, extra, _ = case
    I = Ideal(ring, gens)
    I.groebner()
    g = extra[0]
    out = I.saturate_poly(g)
    assert out == Ideal(ring, gens).saturate_poly(g)
    # the elimination from the generators alone, with no seeded rows
    ext, lift = _front(ring)
    rab = Ideal(ext, [lift(p) for p in gens] + [ext.one() - ext.var(0) * lift(g)])
    assert out == rab.eliminate([0])


# -- textbook Buchberger as an oracle ------------------------------------------------


def _ref_groebner(polys, order):
    """Reduced basis by textbook Buchberger over Fraction, a kept reference:
    the S-pair of least sugar formed first, ties by least lcm under order
    (normal selection), pairs skipped by Buchberger's criteria (coprime
    leads; a third lead dividing the lcm, its two pairs done), division by
    the whole basis so far; then minimal, tail-reduced, monic and sorted by
    decreasing lead, as ``Ideal.groebner`` returns it."""
    lead = lambda p: max(p, key=order.key)  # noqa: E731
    divides = lambda b, a: all(x >= y for x, y in zip(a, b))  # noqa: E731

    def monic(p):
        c0 = p[lead(p)]
        return {e: c / c0 for e, c in p.items()}

    def axpy(p, c, m, g):  # p - c * x^m * g, g monic
        for e, v in g.items():
            k = tuple(x + y for x, y in zip(e, m))
            p[k] = p.get(k, 0) - c * v
            if not p[k]:
                del p[k]

    def reduce(p, G):
        p, r = dict(p), {}
        while p:
            e = lead(p)
            lg, g = next(((lg, g) for lg, g, _ in G if divides(lg, e)), (None, None))
            if g is None:
                r[e] = p.pop(e)
            else:
                axpy(p, p[e], tuple(x - y for x, y in zip(e, lg)), g)
        return r

    G = []  # (lead, monic polynomial, sugar)
    pairs = {}  # (i, j) -> (sugar, lcm key, i, j), for i < j

    def add(p, sugar):
        j = len(G)
        G.append((lead(p), monic(p), sugar))
        for i in range(j):
            L = tuple(map(max, G[i][0], G[j][0]))
            s = max(G[k][2] + sum(L) - sum(G[k][0]) for k in (i, j))
            pairs[i, j] = (s, order.key(L), i, j)

    for p in filter(None, polys):
        add(p, max(map(sum, p)))
    while pairs:
        sugar, _, i, j = min(pairs.values())
        del pairs[i, j]
        (lf, f, _), (lg, g, _) = G[i], G[j]
        L = tuple(map(max, lf, lg))
        if not any(map(min, lf, lg)) or any(
            divides(G[k][0], L) and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(G))
            if k not in (i, j)
        ):
            continue
        s = {}
        axpy(s, -1, tuple(x - y for x, y in zip(L, lf)), f)
        axpy(s, 1, tuple(x - y for x, y in zip(L, lg)), g)
        h = reduce(s, G)
        if h:
            add(h, sugar)
    G.sort(key=lambda lg: order.key(lg[0]))
    kept = [g for k, g in enumerate(G) if not any(divides(h[0], g[0]) for h in G[:k])]
    out = [reduce(g, [h for h in kept if h[1] is not g]) for _, g, _ in kept]
    return sorted(out, key=lambda r: order.key(lead(r)), reverse=True)


def _terms(basis):
    return [g.terms for g in basis]


@st.composite
def _oracle_case(draw):
    ring, gens, extra, _ = draw(_seeded_case())
    return ring, gens, extra, draw(st.sampled_from([GREVLEX, LEX, GRLEX, block_order(1)]))


@settings(max_examples=60, deadline=None)
@given(_oracle_case())
# the twisted cubic plus z^2 - x under lex, a sum that seeding once made costly
@example((R3, [R3.parse("y - x^2"), R3.parse("z - x^3")], [R3.parse("z^2 - x")], LEX))
# a lex sum whose reference, with every pair in FIFO order, ran for minutes
@example(
    (
        _RINGS[4],
        _RINGS[4].polys(
            ["-x^2*w - x*w^2 - 5*w", "-8*x*y^2 + 6*z^2*w - 3*x*z", "-7*x^2*y + 4*y*z^2 - 4*x*y"]
        ),
        _RINGS[4].polys(["4*y*z^2 - 3*y^2*w"]),
        LEX,
    )
)
def test_bases_match_textbook_buchberger(case):
    ring, gens, extra, order = case
    terms = [g.terms for g in gens + extra]
    I = Ideal(ring, gens)
    assert _terms(I.groebner(order)) == _ref_groebner([g.terms for g in gens], order)
    seeded = I + extra
    want = _ref_groebner(terms, order)
    assert _terms(seeded.groebner(order)) == want
    assert _terms(Ideal(ring, gens + extra).groebner(order)) == want
    # I : g^inf = (I + (1 - t*g)) cap k[x], read off a block(1) reference basis
    ext, lift = _front(ring)
    g = extra[0]
    rab = [lift(p).terms for p in gens] + [(ext.one() - ext.var(0) * lift(g)).terms]
    free = [
        {e[1:]: c for e, c in b.items()}
        for b in _ref_groebner(rab, block_order(1))
        if not any(e[0] for e in b)
    ]
    assert _terms(I.saturate_poly(g).groebner()) == _ref_groebner(free, GREVLEX)


def test_seed_slot_keeps_no_ideal_alive():
    I = Ideal(R3, ["x^2 - y"])
    S = I + (R3.parse("z"),)
    assert S._base() is I
    del I
    assert S._base() is None
    assert S.groebner() == (R3.parse("x^2 - y"), R3.parse("z"))


def test_sum_takes_one_polynomial_or_text_as_one_generator():
    I = Ideal(R2, ["x^2"])
    assert [str(g) for g in (I + "x+y").gens] == ["x^2", "x + y"]
    assert (I + R2.parse("y")) == Ideal(R2, ["x^2", "y"])
    assert (I + ["y", R2.parse("x")]) == (I + Ideal(R2, ["y", "x"])) == Ideal(R2, ["x", "y"])
    for bad in (3, None, [3], ["y", 2.5]):
        with pytest.raises(InputError, match="not a polynomial"):
            I + bad
    with pytest.raises(InputError, match="different ring"):
        I + R3.parse("z")


def test_ideals_born_from_rows_print_their_generators():
    # monic reduced basis elements, as Polynomials built from the cached rows
    E = Ideal(R3, ["y - x^2", "2*z - 3*x^3"]).eliminate([0])
    assert [str(g) for g in E.gens] == ["y^3 - 4/9*z^2"]
    assert repr(Ideal(R3, ["3*y - x^2", "z - 1/2*x*y"]).eliminate([1])) == "Ideal(x^3 - 6*z)"
    S = Ideal(R3, ["x*y - 2*z^2", "3*x^2*z - y"]).saturate_poly(R3.parse("1/2*x + 3"))
    assert [str(g) for g in S.gens] == [
        "z^5 - 1/12*y^3", "x*z^3 - 1/6*y^2", "x^2*z - 1/3*y", "x*y - 2*z^2"
    ]  # fmt: skip
    # a sum keeps the Polynomials it was given
    assert repr(E + [E.ring.parse("2/3*y + 5")]) == "Ideal(y^3 - 4/9*z^2, 2/3*y + 5)"


def test_saturation_keeps_no_lifted_base_alive(monkeypatch):
    made = []
    of = Ideal._of.__func__

    def spy(cls, *args, **kwargs):
        out = of(cls, *args, **kwargs)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(Ideal, "_of", classmethod(spy))
    I = Ideal(R3, ["x*y - z^2", "x^2 - y"])
    mine = weakref.ref(I)
    S = I.saturate_poly(R3.parse("x"))
    # the lifted rows go straight to the completion: S is the one ideal made
    assert len(made) == 1
    assert [r() for r in made if r() is not None] == [S]
    del I
    assert mine() is None
    assert S == Ideal(R3, ["x*y - z^2", "x^2 - y"])


def test_eliminations_build_no_ring_of_their_own(monkeypatch):
    # saturations, intersections and eliminations all complete the lifted or
    # permuted rows directly; only the projected ring is new
    arities, real_init = [], Ring.__init__

    def recorded(self, names):
        real_init(self, names)
        arities.append(self.arity)

    monkeypatch.setattr(Ring, "__init__", recorded)
    gens = ["x^2*y - z^3", "x*z^2 - y^2*z"]
    I = Ideal(R3, gens)
    assert I.saturate_poly(R3.parse("x")).canonical_strings() == [
        "x^3*z^2 - y*z^4", "x^2*y - z^3", "y^3 - x*y*z", "y^2*z - x*z^2"
    ]  # fmt: skip
    assert I.saturate(Ideal(R3, ["x", "y"])).canonical_strings() == [
        "x^3*z^2 - y*z^4", "x^2*y - z^3", "y^2*z - x*z^2"
    ]  # fmt: skip
    assert Ideal(R3, gens).intersect(Ideal(R3, ["z"])).canonical_strings() == [
        "x^3*z^2 - y*z^4", "x^2*y*z - z^4", "y^2*z - x*z^2"
    ]  # fmt: skip
    for i, (names, basis) in enumerate(
        [(("y", "z"), "y^5*z - z^6"), (("x", "z"), "x^5*z^2 - z^7"), (("x", "y"), "x^7*y - x^2*y^6")]
    ):
        E = Ideal(R3, gens).eliminate([i])
        assert E.ring.names == names and E.canonical_strings() == [basis]
    assert arities and max(arities) <= R3.arity  # the projected rings


@pytest.mark.parametrize("bad", ["a", 0.5, None, -1, 3])
def test_eliminate_rejects_a_bad_index(bad):
    with pytest.raises(InputError, match="no variable with index"):
        Ideal(R3, ["y - x^2"]).eliminate([0, bad])


@st.composite
def _fraction_case(draw):
    ring = _RINGS[draw(st.integers(2, 3))]
    exps = st.tuples(*[st.integers(0, 2)] * ring.arity).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, _coeff, min_size=1, max_size=3).map(ring.from_terms)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    probes = draw(st.lists(poly, min_size=1, max_size=3))
    return ring, gens, probes, draw(st.sampled_from([GREVLEX, LEX, GRLEX, block_order(1)]))


@settings(max_examples=60, deadline=None)
@given(_fraction_case())
def test_rows_agree_with_the_fraction_path(case):
    # the reference reads only the public Polynomial bases, reduced over Fraction
    ring, gens, probes, order = case

    def leads(basis, o):
        return tuple(max(g.terms, key=o.key) for g in basis)

    def member(J, p):
        return normal_form(p, J.groebner(), GREVLEX).is_zero()

    I = Ideal(ring, gens)
    same = Ideal(ring, gens[::-1] + [gens[0] * probes[0]])
    for J in (I, same, I + probes[:1], I.saturate_poly(probes[0]), I.eliminate([0])):
        if J.ring != ring:  # eliminated: compare it with its own generators
            assert J == Ideal(J.ring, J.gens) and hash(J) == hash(Ideal(J.ring, J.gens))
            continue
        assert J.leading_exponents(order) == leads(J.groebner(order), order)
        assert J.is_unit() == member(J, ring.one())
        dim = hilbert_of_leads(leads(J.groebner(), GREVLEX), ring.arity).dimension
        assert J.krull_dimension() == dim
        for p in probes:
            assert J.contains(p) == member(J, p)
            assert J.normal_form(p, order) == normal_form(p, J.groebner(order), order)
        equal = all(member(I, g) for g in J.gens) and all(member(J, g) for g in I.gens)
        assert (J == I) == equal
        if equal:
            assert hash(J) == hash(I)


def test_seeded_rows_form_no_s_pair_among_themselves(monkeypatch):
    K = kernel.get()
    real, formed = K.spoly, []

    def counted(*args):
        formed.append((args[1], args[4]))
        return real(*args)

    monkeypatch.setattr(K, "spoly", counted)
    T = Ideal(R3, ["y - x^2", "z - x^3"])
    basis = T.groebner()  # x^2 - y, x*y - z, y^2 - x*z
    leads = set(T.leading_exponents())
    h = R3.parse("x*z - 1")
    formed.clear()
    seeded = (T + (h,)).groebner()
    assert len(formed) == 2
    assert not [p for p in formed if set(p) <= leads]
    # the same rows unseeded: one of the three S-pairs joins basis rows
    formed.clear()
    assert Ideal(R3, basis + (h,)).groebner() == seeded
    assert len(formed) == 3
    assert len([p for p in formed if set(p) <= leads]) == 1


# -- the intersect shortcut -------------------------------------------------------


def test_nested_intersections_eliminate_nothing(monkeypatch):
    def fail(self, var_indices):
        raise AssertionError("intersect eliminated")

    J, K = Ideal(R3, ["x - y", "z^2"]), Ideal(R3, ["x*y", "y^2 + z"])
    JK = Ideal(R3, [p * q for p in J.gens for q in K.gens])
    monkeypatch.setattr(Ideal, "eliminate", fail)
    assert JK.intersect(K) is JK
    assert K.intersect(JK) is JK
    assert K.intersect(K) is K
    zero = Ideal(R3, ())
    assert K.intersect(zero) is zero and zero.intersect(K) is zero


@st.composite
def _meet_case(draw):
    I = Ideal(R2, draw(st.lists(_poly2, min_size=1, max_size=2)))
    J = Ideal(R2, draw(st.lists(_poly2, min_size=1, max_size=2)))
    kind = draw(st.sampled_from(["any", "sum", "product", "same"]))
    if kind == "sum":
        J = I + J
    elif kind == "product":
        J = Ideal(R2, [p * q for p in I.gens for q in J.gens])
    elif kind == "same":
        J = Ideal(R2, I.gens)
    return (I, J) if draw(st.booleans()) else (J, I)


@settings(max_examples=40, deadline=None)
@given(_meet_case())
def test_intersect_matches_the_t_trick(pair):
    I, J = pair
    assert I.intersect(J) == _intersect_reference(I, J)


def test_a_corpus_chain_step_still_intersects(monkeypatch):
    # one certification step of the scaled plane (scaled_plane.prob): every
    # generator of f gives the same saturation, and they are still met
    T3 = Ring(["t1", "t2", "t3"])
    fid = Ideal(T3, ["t3*t1", "t3*t2", "t3^2"])
    off0 = Ideal(T3, ()).saturate(fid)
    h = T3.parse("2*t3*t1 - 3*t3*t2 + 5*t3^2")
    real, calls = Ideal.intersect, []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Ideal, "intersect", counted)
    off1 = (off0 + (h,)).saturate(fid)
    assert off1 == Ideal(T3, ["2*t1 - 3*t2 + 5*t3"])
    assert len(calls) == 2


# -- the signature step's bookkeeping --------------------------------------------


def _ref_interreduce(rows, order):
    """Minimalize, then tail-reduce every kept row against the others: the
    interreduction before untouched rows were kept, a reference."""
    K = kernel.get()
    kept = []
    for r in sorted(rows, key=lambda r: order.key(r[0])):
        if not any(K.exp_div(r[0], k[0]) for k in kept):
            kept.append(r)
    out = []
    for i, (le, lc, z) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if others:
            z = K.make_primitive(dict(K.reduce_full(z, others, order.code, order.block)[0]))
            lc = z[le]
        if lc < 0:
            lc, z = -lc, {e: -c for e, c in z.items()}
        out.append((le, lc, z))
    out.sort(key=lambda r: order.key(r[0]), reverse=True)
    return out


def _items(rows):
    return [(le, lc, list(z.items())) for le, lc, z in rows]


@contextmanager
def _interreductions_checked():
    """Every ``_interreduce`` call inside must return the reference's rows,
    dict orders included; yields the list of calls checked."""
    real, calls = groebner._interreduce, []

    def checked(old, new, order):
        got = real(old, new, order)
        assert _items(got) == _items(_ref_interreduce(old + new, order))
        calls.append(len(old))
        return got

    with mock.patch.object(groebner, "_interreduce", checked):
        yield calls


@settings(max_examples=40, deadline=None)
@given(_oracle_case())
def test_interreduce_keeps_the_rows_of_the_full_tail_reduction(case):
    ring, gens, extra, order = case
    with _interreductions_checked() as calls:
        I = Ideal(ring, gens)
        I.groebner(order)
        (I + extra).groebner(order)  # seeded by I's rows
        I.saturate_poly(extra[0])  # seeded by I's lifted grevlex rows
    assert calls


def test_interreduce_keeps_the_rows_of_the_full_tail_reduction_on_the_corpus():
    from segrenum.cli import corpus_files, corpus_path, run

    with _interreductions_checked() as calls:
        for name in corpus_files():
            assert run(["check", corpus_path(name)])[2] == 0
    assert sum(1 for n in calls if n == 1) and sum(1 for n in calls if n > 1)
