"""Bit-for-bit agreement between the pure and compiled kernels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrenum import Ideal, Ring, kernel, segre_at
from segrenum.kernel import _pure

_speed = pytest.importorskip(
    "segrenum.kernel._speed", reason="compiled kernel not built"
)

GREVLEX_CODE, LEX_CODE, LOCAL_CODE = 0, 1, 3

_exp = st.tuples(*[st.integers(0, 4)] * 3)
_coeff = st.integers(-20, 20).filter(lambda n: n != 0)
_dict = st.dictionaries(_exp, _coeff, min_size=1, max_size=6)


def _prim(d):
    return _pure.make_primitive(dict(d))


@settings(max_examples=150, deadline=None)
@given(_exp, _exp, st.sampled_from([GREVLEX_CODE, LEX_CODE, LOCAL_CODE]))
def test_cmp_exp_parity(a, b, code):
    assert _pure.cmp_exp(a, b, code, 0) == _speed.cmp_exp(a, b, code, 0)
    # block orders too
    assert _pure.cmp_exp(a, b, 2, 1) == _speed.cmp_exp(a, b, 2, 1)


@settings(max_examples=100, deadline=None)
@given(_dict, st.sampled_from([GREVLEX_CODE, LEX_CODE, LOCAL_CODE]))
def test_primitive_and_lead_parity(d, code):
    assert _prim(d) == _speed.make_primitive(dict(d))
    p = _prim(d)
    assert _pure.lead_exp(p, code, 0) == _speed.lead_exp(p, code, 0)
    assert _pure.content(p) == _speed.content(p)


@settings(max_examples=80, deadline=None)
@given(_dict, st.lists(_dict, min_size=1, max_size=3), st.sampled_from([GREVLEX_CODE, LEX_CODE]))
def test_reduce_full_parity(p, gens, code):
    basis = []
    for g in gens:
        z = _prim(g)
        le = _pure.lead_exp(z, code, 0)
        basis.append((le, z[le], z))
    pp = _prim(p)
    assert _pure.reduce_full(dict(pp), basis, code, 0) == _speed.reduce_full(
        dict(pp), basis, code, 0
    )


@settings(max_examples=80, deadline=None)
@given(_dict, st.lists(_dict, max_size=4), st.sampled_from(range(5)), st.integers(0, 3))
def test_reduce_full_returns_its_terms_largest_first_in_both_kernels(p, gens, code, block):
    # codes 0-4: grevlex, lex, block, local, grlex
    block = block if code == 2 else 0
    basis = []
    for g in gens:
        z = _prim(g)
        if code == LOCAL_CODE:  # one degree, so that the reduction terminates
            d = sum(next(iter(z)))
            z = _prim({e: c for e, c in z.items() if sum(e) == d})
        le = _pure.lead_exp(z, code, block)
        basis.append((le, z[le], z))
    pp = _prim(p)
    got = _pure.reduce_full(dict(pp), basis, code, block)
    want = _speed.reduce_full(dict(pp), basis, code, block)
    assert got == want and list(got[0]) == list(want[0])
    r = list(got[0])
    assert all(_speed.cmp_exp(a, b, code, block) > 0 for a, b in zip(r, r[1:]))


def test_reduce_full_parity_over_the_divisor_index(monkeypatch):
    # 6 to 12 rows exceed the 3 variables, so the pure kernel switches from
    # its scan to the divisor index; most examples must take that path, so
    # every lead is shifted into x*y*z, and the terms of p without one of
    # the variables fail the scan
    builds = []
    real = _pure._divisor_index
    monkeypatch.setattr(_pure, "_divisor_index", lambda basis: builds.append(1) or real(basis))
    examples = []

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(_exp, _coeff, min_size=9, max_size=16),
        st.lists(_dict, min_size=6, max_size=12),
        st.sampled_from([GREVLEX_CODE, LEX_CODE]),
    )
    def check(p, gens, code):
        before = len(builds)
        basis = []
        for g in gens:
            z = _prim({tuple(x + 1 for x in e): c for e, c in g.items()})
            le = _pure.lead_exp(z, code, 0)
            basis.append((le, z[le], z))
        pp = _prim(p)
        got = _pure.reduce_full(dict(pp), basis, code, 0)
        want = _speed.reduce_full(dict(pp), basis, code, 0)
        assert got == want
        assert list(got[0]) == list(want[0])
        examples.append(len(builds) - before)

    check()
    assert sum(examples) > len(examples) / 2


@settings(max_examples=80, deadline=None)
@given(_dict, _dict, st.sampled_from([GREVLEX_CODE, LEX_CODE]))
def test_spoly_parity(f, g, code):
    zf, zg = _prim(f), _prim(g)
    lf = _pure.lead_exp(zf, code, 0)
    lg = _pure.lead_exp(zg, code, 0)
    args = (zf, lf, zf[lf], zg, lg, zg[lg], code, 0)
    assert _pure.spoly(*args) == _speed.spoly(*args)


def _mora_entries(dicts):
    basis = []
    for z in dicts:
        le = _pure.lead_exp(z, LOCAL_CODE, 0)
        ec = max(sum(e) for e in z) - sum(le)
        basis.append((le, z[le], ec, z))
    return basis


# arbitrary reducer sets make Mora reduction combinatorially explosive, so the
# random inputs stay within the realistic shapes: monomial reducers (bounded
# staircase) and an actual standard basis (true normal forms)
_monomial = st.builds(lambda e, c: {e: c}, _exp, _coeff)


@settings(max_examples=80, deadline=None)
@given(_dict, st.lists(_monomial, min_size=1, max_size=4))
def test_mora_nf_parity_monomial_reducers(p, gens):
    basis = _mora_entries([_prim(g) for g in gens])
    pp = _prim(p)
    assert _pure.mora_nf(dict(pp), basis, LOCAL_CODE, 0) == _speed.mora_nf(
        dict(pp), basis, LOCAL_CODE, 0
    )


_exp2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
_dict2 = st.dictionaries(_exp2, _coeff, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(_dict2)
def test_mora_nf_parity_standard_basis_reducers(p):
    from segrenum import Ideal, Ring
    from segrenum.localmult import standard_basis

    R = Ring(["x", "y"])
    sb = standard_basis(Ideal(R, ["x^2 - y^3", "x*y"])._zgens())
    basis = _mora_entries(sb)
    pp = _prim({(e[0], e[1]): c for e, c in p.items()})
    assert _pure.mora_nf(dict(pp), basis, LOCAL_CODE, 0) == _speed.mora_nf(
        dict(pp), basis, LOCAL_CODE, 0
    )


def test_mora_nf_limit_parity():
    from segrenum import Ideal, Ring
    from segrenum.localmult import standard_basis

    R = Ring(["x", "y"])
    sb = standard_basis(Ideal(R, ["x^2 - y^3", "x*y"])._zgens())
    basis = _mora_entries(sb)
    p = _prim({(7, 5): 3, (0, 9): 2, (4, 0): 1})
    full_pure = _pure.mora_nf(dict(p), basis, LOCAL_CODE, 0)
    full_speed = _speed.mora_nf(dict(p), basis, LOCAL_CODE, 0)
    assert full_pure == full_speed
    # a one-step budget must trip identically in both backends
    assert _pure.mora_nf(dict(p), basis, LOCAL_CODE, 0, limit=1) is None
    assert _speed.mora_nf(dict(p), basis, LOCAL_CODE, 0, limit=1) is None
    # a generous budget must not change the answer
    assert _pure.mora_nf(dict(p), basis, LOCAL_CODE, 0, limit=10_000) == full_pure
    assert _speed.mora_nf(dict(p), basis, LOCAL_CODE, 0, limit=10_000) == full_speed


# -- whole-pipeline parity -----------------------------------------------------


def _on_each_backend(monkeypatch, compute):
    outs = []
    for backend in (_pure, _speed):
        monkeypatch.setattr(kernel, "_active", backend)
        outs.append(compute())
    return outs


def test_groebner_identical_across_backends(monkeypatch):
    R = Ring(["x1", "x2", "x3"])
    pure, compiled = _on_each_backend(
        monkeypatch,
        lambda: Ideal(R, ["x2 - x1^2", "x3 - x1^3"]).canonical_strings(),
    )
    assert pure == compiled


def test_segre_identical_across_backends(monkeypatch):
    T3 = Ring(["t1", "t2", "t3"])

    def segre():
        res = segre_at(["t3*t1", "t3*t2", "t3^2"], Ideal(T3, ()), trials=2)
        return res.values, res.trial_vectors

    pure, compiled = _on_each_backend(monkeypatch, segre)
    assert pure == compiled
