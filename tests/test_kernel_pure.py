"""The pure kernel against reference copies of its rescanning loops.

``reduce_full`` and ``mora_nf`` take each lead from a heap of order keys,
and ``lead_exp`` takes ``min`` over the same keys.  The references below
find every lead by rescanning the whole polynomial with ``cmp_exp``, and
Mora's reducer by scanning every row for the least ecart;
results, multipliers and dict orders must agree exactly, on every order
code, including block elimination with an empty front block and with the
whole ring in front.  These tests run whether or not the compiled kernel
is built.
"""

from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segrenum.kernel import _pure

GREVLEX, LEX, BLOCK, LOCAL, GRLEX = range(5)


def _ref_lead(p, code, block):
    best = None
    for e in p:
        if best is None or _pure.cmp_exp(e, best, code, block) > 0:
            best = e
    return best


def _divides(b, a):
    return all(x >= y for x, y in zip(a, b))


def _ref_cancel(h, e, b, le, lc, g):
    d = gcd(lc, b)
    a = lc // d
    b = b // d
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for k in h:
            h[k] *= a
    shift = tuple(x - y for x, y in zip(e, le))
    for ge, gc in g.items():
        k = tuple(x + y for x, y in zip(ge, shift))
        v = h.get(k, 0) - b * gc
        if v:
            h[k] = v
        else:
            h.pop(k, None)
    return a


def _ref_reduce_full(p, basis, code, block):
    h = dict(p)
    r = {}
    mnum = mden = 1
    steps = 0
    while h:
        e = _ref_lead(h, code, block)
        hit = next((t for t in basis if _divides(t[0], e)), None)
        if hit is None:
            r[e] = h.pop(e)
            continue
        a = _ref_cancel(h, e, h[e], *hit)
        if a != 1:
            for k in r:
                r[k] *= a
            mnum *= a
        steps += 1
        if steps & 7 == 0 and h:
            g0 = _pure.content(h)
            if r:
                g0 = gcd(g0, _pure.content(r))
            if g0 > 1:
                for k in h:
                    h[k] //= g0
                for k in r:
                    r[k] //= g0
                mden *= g0
    g1 = gcd(mnum, mden)
    return r, mnum // g1, mden // g1


def _ref_mora_nf(p, basis, code, block, limit=0):
    T = list(basis)
    h = _pure.make_primitive(dict(p))
    steps = 0
    while h:
        steps += 1
        if limit and steps > limit:
            return None
        e = _ref_lead(h, code, block)
        best = None
        for entry in T:
            if _divides(entry[0], e) and (best is None or entry[2] < best[2]):
                best = entry
        if best is None:
            return h
        eh = max(sum(k) for k in h) - sum(e)
        if best[2] > eh:
            T.append((e, h[e], eh, dict(h)))
        _ref_cancel(h, e, h[e], best[0], best[1], best[3])
        h = _pure.make_primitive(h)
    return {}


# small coefficients, so that cancellations beyond the lead term are common
_coeff = st.integers(-4, 4).filter(bool)


@st.composite
def _setting(draw):
    """(arity, code, block): every order code, block from 0 to the arity."""
    n = draw(st.integers(1, 4))
    code = draw(st.sampled_from([GREVLEX, LEX, BLOCK, LOCAL, GRLEX]))
    block = draw(st.integers(0, n)) if code == BLOCK else 0
    return n, code, block


def _poly(draw, n, max_size=8, min_size=1):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return draw(st.dictionaries(exps, _coeff, min_size=min_size, max_size=max_size))


def _homogeneous(p):
    """Terms of p in the degree of its first term: under the local order,
    reducing by these only moves terms within one degree, so it terminates."""
    d = sum(next(iter(p)))
    return {e: c for e, c in p.items() if sum(e) == d}


@settings(max_examples=300, deadline=None)
@given(st.data(), _setting())
def test_lead_exp_is_the_cmp_exp_maximum(data, setting):
    n, code, block = setting
    p = _poly(data.draw, n, max_size=12)
    assert _pure.lead_exp(p, code, block) == _ref_lead(p, code, block)


@settings(max_examples=300, deadline=None)
@given(st.data(), _setting())
def test_reduce_full_matches_the_rescanning_loop(data, setting):
    n, code, block = setting
    p = _pure.make_primitive(_poly(data.draw, n))
    basis = []
    for _ in range(data.draw(st.integers(1, 3))):
        g = _poly(data.draw, n, max_size=4)
        if code == LOCAL:
            g = _homogeneous(g)
        g = _pure.make_primitive(g)
        le = _ref_lead(g, code, block)
        basis.append((le, g[le], g))
    got = _pure.reduce_full(dict(p), basis, code, block)
    want = _ref_reduce_full(dict(p), basis, code, block)
    assert got == want
    assert list(got[0]) == list(want[0])


@settings(max_examples=300, deadline=None)
@given(st.data(), _setting())
def test_reduce_full_returns_its_terms_largest_first(data, setting):
    # callers read the remainder's first key as its lead
    n, code, block = setting
    p = _pure.make_primitive(_poly(data.draw, n, max_size=12))
    basis = data.draw(st.one_of(st.just([]), _long_basis(n, code, block)))
    r = list(_pure.reduce_full(dict(p), basis, code, block)[0])
    assert all(_pure.cmp_exp(a, b, code, block) > 0 for a, b in zip(r, r[1:]))


def _row(g, code, block):
    le = _ref_lead(g, code, block)
    return le, g[le], g


@st.composite
def _long_basis(draw, n, code, block):
    """4 to 16 rows: drawn ones, ones repeating an earlier lead with another
    tail (the earlier row must win) and monomials whose lead exceeds every
    exponent of the drawn terms (they never divide, and keep the lookups
    inside each variable's list)."""
    basis = []
    for _ in range(draw(st.integers(4, 16))):
        kind = draw(st.sampled_from(["drawn", "repeat", "high"]))
        if kind == "repeat" and basis:
            le, _, g = basis[draw(st.integers(0, len(basis) - 1))]
            g = {e: c if e == le else -c for e, c in g.items()}
        elif kind == "high":
            g = {tuple(draw(st.integers(4, 6)) for _ in range(n)): draw(_coeff)}
        else:
            g = _poly(draw, n, max_size=4)
            if code == LOCAL:
                g = _homogeneous(g)
            shift = tuple(draw(st.integers(1, 2)) for _ in range(n))
            g = {_pure.exp_add(e, shift): c for e, c in g.items()}
        basis.append(_row(_pure.make_primitive(g), code, block))
    return basis


def test_reduce_full_with_a_long_basis_matches_the_rescanning_loop(monkeypatch):
    # a basis longer than the arity n builds the divisor index once n scans
    # have failed with n terms left; count the examples that build it
    builds = []
    real = _pure._divisor_index
    monkeypatch.setattr(_pure, "_divisor_index", lambda rows: builds.append(1) or real(rows))
    examples = []  # index builds per example

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _setting())
    def check(data, setting):
        n, code, block = setting
        # enough terms that the arity's count of scans can fail
        p = _pure.make_primitive(_poly(data.draw, n, max_size=12, min_size=3 * n))
        basis = data.draw(_long_basis(n, code, block))
        before = len(builds)
        got = _pure.reduce_full(dict(p), basis, code, block)
        examples.append(len(builds) - before)
        assert examples[-1] <= 1
        want = _ref_reduce_full(dict(p), basis, code, block)
        assert got == want
        assert list(got[0]) == list(want[0])

    check()
    assert sum(examples) > len(examples) / 2


@settings(max_examples=100, deadline=None)
@given(st.data(), _setting())
def test_reduce_full_by_an_empty_basis_sorts_the_terms(data, setting):
    n, code, block = setting
    p = _poly(data.draw, n)
    got = _pure.reduce_full(dict(p), [], code, block)
    assert got == (p, 1, 1)
    assert list(got[0]) == list(_ref_reduce_full(dict(p), [], code, block)[0])


def test_reduce_full_over_an_arity_0_ring():
    # every lead divides the constant: the first row cancels it
    basis = [((), 2, {(): 2}), ((), -3, {(): -3})]
    got = _pure.reduce_full({(): 3}, basis, GREVLEX, 0)
    assert got == ({}, 2, 1) == _ref_reduce_full({(): 3}, basis, GREVLEX, 0)
    assert _pure.reduce_full({(): 3}, [], GREVLEX, 0) == ({(): 3}, 1, 1)
    # the index of an arity-0 basis selects every row, so the first
    assert _pure._divisor_index(basis) == []


def test_the_divisor_index_picks_the_first_dividing_row(monkeypatch):
    # leads x^2, y, x*y, y (again); bit j is basis[j]
    basis = [_row(g, GREVLEX, 0) for g in ({(2, 0): 1}, {(0, 1): 1}, {(1, 1): 1}, {(0, 1): 2})]
    assert _pure._divisor_index(basis) == [([0b1010, 0b1110], 2), ([0b0001], 1)]
    # y^5 and x*y^4 fail the scan of x^2 + y, x^2 - y, x^2 + 1 with two terms
    # left, which builds the index; x^3 and x^2 then go to the first row
    builds = []
    real = _pure._divisor_index
    monkeypatch.setattr(_pure, "_divisor_index", lambda rows: builds.append(1) or real(rows))
    tails = ({(0, 1): 1}, {(0, 1): -1}, {(0, 0): 1})
    basis = [_row({(2, 0): 1, **t}, GREVLEX, 0) for t in tails]
    got = _pure.reduce_full({(0, 5): 1, (1, 4): 1, (3, 0): 1, (2, 0): 1}, basis, GREVLEX, 0)
    assert got == ({(0, 5): 1, (1, 4): 1, (1, 1): -1, (0, 1): -1}, 1, 1)
    assert builds == [1]


def _mora_entry(g):
    g = _pure.make_primitive(g)
    le = _ref_lead(g, LOCAL, 0)
    return le, g[le], max(map(sum, g)) - sum(le), g


def _check_mora_nf(p, basis, limit):
    got = _pure.mora_nf(dict(p), basis, LOCAL, 0, limit)
    want = _ref_mora_nf(dict(p), basis, LOCAL, 0, limit)
    assert got == want
    assert got is None or list(got) == list(want)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_mora_nf_matches_the_rescanning_loop(data, n):
    # homogeneous reducers keep every cancellation inside one degree, so the
    # weak normal form is reached in few steps
    p = _pure.make_primitive(_poly(data.draw, n))
    count = data.draw(st.integers(1, 4))
    gens = [_homogeneous(_poly(data.draw, n, max_size=4)) for _ in range(count)]
    basis = [_mora_entry(g) for g in gens]
    _check_mora_nf(p, basis, data.draw(st.sampled_from([0, 1, 3])))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_mora_nf_with_mixed_ecarts_matches_the_full_scan(data, n):
    # reducers with terms in several degrees have positive ecarts, often tied,
    # and reducing by them adds rows to the reducer set
    p = _pure.make_primitive(_poly(data.draw, n, max_size=6))
    count = data.draw(st.integers(1, 4))
    basis = [_mora_entry(_poly(data.draw, n, max_size=3)) for _ in range(count)]
    limit = data.draw(st.sampled_from([0, 1, 3, 20]))
    if limit == 0:  # uncapped only where both finish within 20 steps
        assume(_ref_mora_nf(dict(p), basis, LOCAL, 0, 20) is not None)
        _check_mora_nf(p, basis, 20)
    _check_mora_nf(p, basis, limit)


def test_mora_nf_takes_the_earliest_of_the_least_ecart_divisors():
    # x + y^3 (ecart 2), x + y and x - y (ecart 0) all divide the lead x
    a, b, c = {(1, 0): 1, (0, 3): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}
    for gens, want in (([a, b, c], {(0, 1): -1}), ([a, c, b], {(0, 1): 1})):
        basis = [_mora_entry(g) for g in gens]
        assert _pure.mora_nf({(1, 0): 1}, basis, LOCAL, 0) == want
        _check_mora_nf({(1, 0): 1}, basis, 0)


def test_an_added_reducer_goes_after_the_rows_of_its_ecart():
    # reducing x^2*y^3 + x*y^3 by x*y + x^3 (ecart 1) adds rows of ecart 0:
    # the lead x^4*y^2 must then go to the added row of lead x^3*y^2, not to
    # x*y + x^3, and the lead x^3*y^3 to the input row x^3*y^3, not to the
    # added one; either wrong choice leaves a second term
    p = {(2, 3): 1, (1, 3): 1}
    basis = [_mora_entry({(3, 3): 1}), _mora_entry({(1, 1): 1, (3, 0): 1})]
    assert _pure.mora_nf(dict(p), basis, LOCAL, 0) == {(7, 0): -1}
    _check_mora_nf(p, basis, 0)


# the standard basis of (x^2 - y^3, x*y) under the local order; x^2 - y^3 has
# ecart 1, so reducing a polynomial of ecart 0 by it grows the reducer set
_STANDARD_BASIS = [
    {(2, 0): 1, (0, 3): -1},
    {(1, 1): 1},
    {(0, 4): 1},
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mora_nf_by_a_standard_basis_matches_the_rescanning_loop(data):
    p = _pure.make_primitive(_poly(data.draw, 2, max_size=6))
    _check_mora_nf(p, [_mora_entry(g) for g in _STANDARD_BASIS], 0)


def test_stale_heap_entries_are_skipped():
    # x*y cancels along with the lead, so its heap entry goes stale and is
    # the next one popped
    p = {(1, 0): 1, (1, 1): 1, (0, 2): 1}
    g = {(1, 0): 1, (1, 1): 1}
    assert _pure.mora_nf(dict(p), [_mora_entry(g)], LOCAL, 0) == {(0, 2): 1}
    p = {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    g = {(2, 0): 1, (1, 1): 1}
    got = _pure.reduce_full(dict(p), [((2, 0), 1, g)], GREVLEX, 0)
    assert got == ({(0, 2): 1}, 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_exponent_arithmetic(data, n):
    exps = st.tuples(*[st.integers(0, 6)] * n)
    a, b = data.draw(exps), data.draw(exps)
    assert _pure.exp_add(a, b) == tuple(x + y for x, y in zip(a, b))
    assert _pure.exp_sub(a, b) == tuple(x - y for x, y in zip(a, b))
    assert _pure.exp_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    assert _pure.exp_div(a, b) == _divides(b, a)
