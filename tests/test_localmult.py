"""Local standard bases, tangent cones, multiplicities, colength."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segrenum import (
    AffinePoint,
    Ideal,
    InputError,
    Ring,
    colength,
    kernel,
    local_dim_mult,
    tangent_cone,
)
from segrenum.groebner import _minimalize, hilbert_of_leads
from segrenum.orders import LOCAL

R2 = Ring(["x", "y"])
RZ = Ring(["z1", "z2"])


# -- tangent cones ---------------------------------------------------------------


def test_tangent_cone_plane_curve():
    C = tangent_cone(Ideal(RZ, ["z1^2 - z2^3"]))
    assert C == Ideal(RZ, ["z1^2"])


def test_tangent_cone_needs_standard_basis():
    # lowest forms of the given generators are NOT enough here: in-ideal
    # combination x*(x^2-y^3) - y^2*(x*y) = x^3 - x*y^3 - x*y^3 ... the cone
    # must be computed from a local standard basis.
    I = Ideal(R2, ["x^2 - y^3", "x*y"])
    C = tangent_cone(I)
    assert C == Ideal(R2, ["x^2", "x*y", "y^4"])


def test_tangent_cone_prints_its_forms():
    # the lowest forms of the standard basis, with their own coefficients
    C = tangent_cone(Ideal(R2, ["2*x^2 - 3*y^3", "6*x*y + 4*y^4"]))
    assert [str(g) for g in C.gens] == ["3*x*y", "2*x^2", "9*y^4"]
    assert repr(tangent_cone(Ideal(R2, ["4*x^2 - 6*y^3 + 2*x^3"]))) == "Ideal(2*x^2)"


def test_tangent_cone_smooth():
    assert tangent_cone(Ideal(R2, ["y - x^2"])) == Ideal(R2, ["y"])
    assert tangent_cone(Ideal(R2, ())).is_zero()
    assert tangent_cone(Ideal(R2, ["1 + x"])).is_unit()


# -- local dimension and multiplicity --------------------------------------------


def test_cusp_family_multiplicity():
    for r, s in [(2, 3), (3, 4), (3, 5), (5, 7), (2, 9)]:
        I = Ideal(RZ, [f"z1^{r} - z2^{s}"])
        assert local_dim_mult(I) == (1, min(r, s))


def test_smooth_point_and_node():
    assert local_dim_mult(Ideal(R2, ["y - x^2"])) == (1, 1)
    assert local_dim_mult(Ideal(R2, ["y^2 - x^2 - x^3"])) == (1, 2)
    R3 = Ring(["x", "y", "z"])
    # cone x^2+y^2-z^2: surface of multiplicity 2
    assert local_dim_mult(Ideal(R3, ["x^2 + y^2 - z^2"])) == (2, 2)


def test_point_not_on_variety():
    # variety of (x-1) does not pass through the origin
    assert local_dim_mult(Ideal(R2, ["x - 1"])) == (-1, 0)
    assert local_dim_mult(Ideal(R2, ["1"])) == (-1, 0)


def test_mult_at_translated_point():
    # cusp centered at (1, 2)
    I = Ideal(R2, ["(y - 2)^2 - (x - 1)^3"])
    at = AffinePoint(R2, (1, 2))
    assert local_dim_mult(I.translate(at)) == (1, 2)
    assert local_dim_mult(I) == (-1, 0) or local_dim_mult(I)[0] >= 0  # origin off-curve
    assert local_dim_mult(I) == (-1, 0)


def test_full_ring_local():
    assert local_dim_mult(Ideal(R2, ())) == (2, 1)


def test_isolated_point_multiplicity():
    # the cusp meets the axes x and y with multiplicities 3 and 2
    assert local_dim_mult(Ideal(R2, ["x^2 - y^3", "x*y"])) == (0, 5)


_LOCAL_CASES = (
    test_cusp_family_multiplicity,
    test_smooth_point_and_node,
    test_point_not_on_variety,
    test_mult_at_translated_point,
    test_full_ring_local,
    test_isolated_point_multiplicity,
)


def _from_the_cone(I):
    """(dimension, degree) of the tangent cone's Hilbert data at the origin,
    checked against the local leads of both standard basis routes: Mora's
    whenever it stays within budget, and Lazard's."""
    from segrenum.localmult import _complete, _standard_basis_lazard

    hd = tangent_cone(I).hilbert_data()
    want = (hd.dimension, hd.degree)
    lead = kernel.get().lead_exp

    def from_leads(basis):
        h = hilbert_of_leads([lead(z, LOCAL.code, 0) for z in basis], I.ring.arity)
        return (h.dimension, h.degree)

    via_mora = _complete(I._zgens())
    if via_mora is not None:
        assert from_leads(via_mora) == want
    assert from_leads(_standard_basis_lazard(I._zgens())) == want
    return want


def test_local_dim_mult_matches_the_cone_on_every_case(monkeypatch):
    # the cases look local_dim_mult up in this module, so each of their
    # answers is also checked against the cone
    real = local_dim_mult

    def checked(ideal, point=None):
        got = real(ideal, point)
        assert got == _from_the_cone(ideal.translate(point))
        return got

    monkeypatch.setitem(globals(), "local_dim_mult", checked)
    for case in _LOCAL_CASES:
        case()


def _ideals(ring):
    exps = st.tuples(*[st.integers(0, 3)] * ring.arity).filter(lambda e: sum(e) <= 4)
    poly = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    return st.lists(poly.map(ring.from_terms), min_size=1, max_size=3).map(
        lambda gens: Ideal(ring, gens)
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([R2, Ring(["x", "y", "z"])]).flatmap(_ideals))
def test_local_dim_mult_matches_the_cone_property(I):
    assert local_dim_mult(I) == _from_the_cone(I)


def test_local_dim_mult_builds_no_cone(monkeypatch):
    import segrenum.localmult as lm

    def built(*args):
        raise AssertionError("local_dim_mult built a tangent cone")

    monkeypatch.setattr(lm, "tangent_cone", built)
    monkeypatch.setattr(Ideal, "hilbert_data", built)
    for case in _LOCAL_CASES:
        case()


def test_constant_term_is_a_unit_at_the_origin(monkeypatch):
    import segrenum.localmult as lm

    def completed(gens):
        raise AssertionError("a unit at the origin went to Mora's loop")

    monkeypatch.setattr(lm, "_complete", completed)
    I = Ideal(R2, ["2 + 3*x"])
    assert lm.standard_basis(I._zgens()) == [{(0, 0): 1}]
    assert lm.standard_basis(Ideal(R2, ["x*y", "y - 5"])._zgens()) == [{(0, 0): 1}]
    assert repr(tangent_cone(I)) == "Ideal(1)"
    assert local_dim_mult(I) == (-1, 0)


# -- colength --------------------------------------------------------------------


def test_colength_staircases():
    assert colength(Ideal(R2, ["x", "y"])) == 1
    assert colength(Ideal(R2, ["x^2", "y^3"])) == 6
    assert colength(Ideal(R2, ["x^2", "x*y", "y^2"])) == 3
    R3 = Ring(["x1", "x2", "x3"])
    assert colength(Ideal(R3, ["x1^2", "x2^3", "x3"])) == 6


def test_colength_requires_finite():
    with pytest.raises(InputError):
        colength(Ideal(R2, ["x"]))  # dim 1 at the origin


def test_colength_requires_origin_on_variety():
    with pytest.raises(InputError, match="the point is not on V"):
        colength(Ideal(R2, ["x - 1", "y"]))
    # R/(1) = 0: the quotient is not infinite, the point is off the empty V(1)
    with pytest.raises(InputError, match="the point is not on V"):
        colength(Ideal(R2, ["1"]))


def test_colength_is_global_staircase_count():
    # (x^2 - x) vanishes at x=0 and x=1; the contract counts the full
    # staircase of a grevlex basis, i.e. both points, after checking that
    # the origin is an isolated point
    I = Ideal(R2, ["x^2 - x", "y"])
    assert colength(I) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_monomial_ci_colength_is_product(a, b):
    I = Ideal(R2, [f"x^{a}", f"y^{b}"])
    assert colength(I) == a * b
    assert local_dim_mult(I) == (0, a * b)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_cusp_cone_consistency(r, s):
    I = Ideal(RZ, [f"z1^{r} - z2^{s}"])
    cone = tangent_cone(I)
    d, m = local_dim_mult(I)
    assert cone.hilbert_data().dimension == d
    assert cone.hilbert_data().degree == m


# -- homogenization fallback -------------------------------------------------------


def _cone_from(dicts, ring):
    from segrenum.groebner import _from_int_terms

    forms = []
    for z in dicts:
        d = min(sum(e) for e in z)
        forms.append(_from_int_terms(ring, {e: c for e, c in z.items() if sum(e) == d}))
    return Ideal(ring, forms)


def test_lazard_route_matches_mora_on_known_cones():
    from segrenum.localmult import _standard_basis_lazard, standard_basis

    for gens in [["x^2 - y^3", "x*y"], ["x^2 - y^3"], ["x", "y"], ["x*y - y^3"]]:
        I = Ideal(R2, gens)
        via_mora = _cone_from(standard_basis(I._zgens()), R2)
        via_lazard = _cone_from(_standard_basis_lazard(I._zgens()), R2)
        assert via_mora == via_lazard, gens


def test_mora_budget_trip_returns_none(monkeypatch):
    import segrenum.localmult as lm

    # one S-polynomial of these needs two Mora steps
    gens = Ideal(R2, ["y^2 - x^5", "x^2*y - y^4"])._zgens()
    assert lm._complete(gens) is not None
    monkeypatch.setattr(lm, "MORA_STEP_LIMIT", 1)
    assert lm._complete(gens) is None
    assert lm.standard_basis(gens) == lm._standard_basis_lazard(gens)


def test_runaway_reduction_falls_back(monkeypatch):
    # force every Mora reduction over budget: results must still be correct
    import segrenum.localmult as lm

    monkeypatch.setattr(lm, "MORA_STEP_LIMIT", 1)
    assert local_dim_mult(Ideal(R2, ["x^2 - y^3", "x*y"])) == (0, 5)
    assert tangent_cone(Ideal(RZ, ["z1^2 - z2^3"])) == Ideal(RZ, ["z1^2"])
    # these trip the budget at one step (test_mora_budget_trip_returns_none)
    I = Ideal(R2, ["y^2 - x^5", "x^2*y - y^4"])
    assert local_dim_mult(I) == (0, 9)
    assert tangent_cone(I) == Ideal(R2, ["x^2*y", "y^2", "x^7"])


def test_vogel_blowup_instance_completes():
    # this exact tuple once drove the ecart reduction into unbounded
    # degree/coefficient growth; the step budget + homogenization fallback
    # must keep it both terminating and exact
    from segrenum import segre_at

    U3 = Ring(["x1", "x2", "x3"])
    X = Ideal(U3, ["x2*x1^3 - x3^2"])
    f = ["x2", "x3", "3*x1*x2 - 2*x1*x3", "-3*x1*x3 + x2*x3"]
    assert segre_at(f, X, trials=2, seed=9).values == (0, 1, 3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(
    ["x^2 - y^3", "x*y", "x^3", "y^2 - x^5", "x^2*y - y^4", "x - y^2"]
), min_size=1, max_size=3, unique=True))
def test_lazard_route_matches_mora_property(gens):
    from segrenum.localmult import _standard_basis_lazard, standard_basis

    I = Ideal(R2, gens)
    assert _cone_from(standard_basis(I._zgens()), R2) == _cone_from(
        _standard_basis_lazard(I._zgens()), R2
    )


def test_mora_chain_criterion_saves_a_normal_form(monkeypatch):
    # the inputs' S-polynomial adds x*y^3; its pair with y^3 + 3*y*z is then
    # pruned by the chain criterion through x*y*z: one Mora normal form, not two
    from segrenum import kernel
    from segrenum.localmult import standard_basis

    K = kernel.get()
    calls = []
    mora_nf = K.mora_nf

    def counted(*args):
        calls.append(args)
        return mora_nf(*args)

    monkeypatch.setattr(K, "mora_nf", counted)
    R3 = Ring(["x", "y", "z"])
    I = Ideal(R3, ["y^3 + 3*y*z", "3*x*y*z"])
    cone = _cone_from(standard_basis(I._zgens()), R3)
    assert len(calls) == 1
    assert cone.canonical_strings() == ["x*y^3", "y*z"]


_exp3 = st.sampled_from(
    [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if 2 <= a + b + c <= 3]
)
_term3 = st.tuples(_exp3, st.integers(-3, 3).filter(bool))
_poly3 = st.lists(_term3, min_size=1, max_size=3, unique_by=lambda t: t[0])


@settings(max_examples=100, deadline=None)
@given(st.lists(_poly3, min_size=2, max_size=4))
def test_lazard_route_matches_mora_in_three_variables(polys):
    from segrenum.localmult import _standard_basis_lazard, standard_basis

    R3 = Ring(["x", "y", "z"])
    I = Ideal(R3, [R3.from_terms(dict(terms)) for terms in polys])
    assert _cone_from(standard_basis(I._zgens()), R3) == _cone_from(
        _standard_basis_lazard(I._zgens()), R3
    )


# -- the pair criteria ---------------------------------------------------------------


# The certificate's own budget per normal form, apart from the engine's
# MORA_STEP_LIMIT: a pair the criteria skip can take far more steps than the
# engine ever needs.
CERTIFICATE_STEPS = 400


def _is_standard_basis(basis) -> bool | None:
    """Whether every S-polynomial of basis has Mora normal form {} against
    basis, the criterion for a standard basis (Greuel & Pfister, 1.7).
    Every pair is reduced, coprime leads included, so no pair criterion is
    trusted.  None when no normal form is nonzero but one passed
    CERTIFICATE_STEPS steps: a pair the criteria skip can take thousands."""
    K = kernel.get()
    rows = []
    for z in basis:
        le = K.lead_exp(z, LOCAL.code, 0)
        rows.append((le, z[le], max(map(sum, z)) - sum(le), z))
    verdict = True
    for i, (li, ci, _, zi) in enumerate(rows):
        for lj, cj, _, zj in rows[:i]:
            s = K.spoly(zi, li, ci, zj, lj, cj, LOCAL.code, 0)
            r = K.mora_nf(s, rows, LOCAL.code, 0, CERTIFICATE_STEPS) if s else {}
            if r:
                return False
            if r is None:
                verdict = None
    return verdict


def test_the_certificate_sees_a_missing_element():
    # y^2 - x^3 and x*y: their S-polynomial x^4 is no multiple of either lead
    from segrenum.localmult import standard_basis

    gens = Ideal(R2, ["y^2 - x^3", "x*y"])._zgens()
    assert _is_standard_basis(gens) is False
    assert _is_standard_basis(standard_basis(gens)) is True


@st.composite
def _local_gens(draw):
    """2 to 4 int term dicts in 2 to 4 variables with no constant term."""
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 1 <= sum(e) <= 4)
    poly = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    return draw(st.lists(poly, min_size=2, max_size=4))


@settings(max_examples=60, deadline=None)
@given(_local_gens())
def test_mora_returns_a_standard_basis(gens):
    from segrenum.localmult import _complete

    basis = _complete(gens)
    assume(basis is not None)
    verdict = _is_standard_basis(basis)
    assume(verdict is not None)
    assert verdict


def test_mora_returns_standard_bases_on_the_image_threefold(monkeypatch):
    import segrenum.localmult as lm
    from segrenum.cli import corpus_path, run

    bases, seeded = [], []
    complete = lm._complete

    def kept(gens, prefix=()):
        bases.append(complete(gens, prefix))
        seeded.append(bool(prefix))
        return bases[-1]

    monkeypatch.setattr(lm, "_complete", kept)
    path = corpus_path("image_threefold.prob")
    doc, _, code = run(["circ", path, "--ideal", "A", "--cycle", "Z", "--point", "O",
                        "--trials", "1", "--seed", "4", "--format", "json"])  # fmt: skip
    assert code == 0 and doc["result"]["by_codim"] == [0, 1, 1, 2]
    assert len(bases) == 6 and any(seeded)
    assert all(b is not None and _is_standard_basis(b) is True for b in bases)


def _mora_nf_calls(monkeypatch, ring, gens):
    """(Mora normal forms, standard basis) of _complete on the gens."""
    from segrenum.localmult import _complete

    K = kernel.get()
    calls = []
    mora_nf = K.mora_nf

    def counted(*args):
        calls.append(args)
        return mora_nf(*args)

    monkeypatch.setattr(K, "mora_nf", counted)
    basis = _complete(Ideal(ring, gens)._zgens())
    return len(calls), basis


def test_gebauer_moeller_b_drops_a_pending_pair(monkeypatch):
    # the pair of x*y*z + x*z^2 and x^3, pending when z is added, goes: z
    # divides its lcm x^3*y*z, and neither x*y*z nor x^3*z equals it.
    # Reducing it would take a second normal form
    R3 = Ring(["x", "y", "z"])
    count, basis = _mora_nf_calls(monkeypatch, R3, ["x*y*z + x*z^2", "x^3", "z"])
    assert count == 1
    assert _is_standard_basis(basis) is True


def test_gebauer_moeller_keeps_one_of_equal_lcms(monkeypatch):
    # the inputs' one normal form adds y*z^2, whose pairs with the two rows
    # of lead x*y^2 share the lcm x*y^2*z^2: only the earlier is kept.
    # Keeping both would reduce the later one too: two normal forms.  The
    # basis is minimal: of the two rows of lead x*y^2 the earlier stays
    R3 = Ring(["x", "y", "z"])
    count, basis = _mora_nf_calls(monkeypatch, R3, ["y*z^2 - x*y^2", "x^3*z", "x*y^2"])
    assert count == 1
    assert len(basis) == 3 and _is_standard_basis(basis) is True


# -- seeded and minimal bases ----------------------------------------------------------


def _minimal_leads(basis):
    lead = kernel.get().lead_exp
    return _minimalize(frozenset(lead(z, LOCAL.code, 0) for z in basis))


@settings(max_examples=60, deadline=None)
@given(_local_gens(), st.integers(1, 3))
def test_local_bases_are_minimal_and_seeded_ones_agree(gens, split):
    from segrenum.localmult import _complete, standard_basis

    K = kernel.get()
    basis = _complete(gens)
    assume(basis is not None)
    leads = [K.lead_exp(z, LOCAL.code, 0) for z in basis]
    assert not any(i != j and K.exp_div(a, b) for i, a in enumerate(leads) for j, b in enumerate(leads))
    # completed from the basis of the first generators: the same lead ideal
    seeded = standard_basis(gens[split:], standard_basis(gens[:split]))
    assert _minimal_leads(seeded) == _minimal_leads(basis)


@pytest.fixture
def seeded_bases(monkeypatch):
    """Checks every local basis completed from a sum's base against the basis
    of the sum's generators (their lead ideals); yields the count of them."""
    import segrenum.localmult as lm

    real, count = lm._local_basis, [0]

    def checked(ideal):
        base = ideal._base and ideal._base()
        seeded = ideal._local is None and base is not None and base._local is not None
        basis = real(ideal)
        if seeded:
            count[0] += 1
            assert _minimal_leads(basis) == _minimal_leads(lm.standard_basis(ideal._zgens()))
        return basis

    monkeypatch.setattr(lm, "_local_basis", checked)
    return count


def test_seeded_local_bases_match_the_generators_on_the_corpus(seeded_bases):
    from segrenum.cli import corpus_files, corpus_path, run

    for name in corpus_files():
        assert run(["check", corpus_path(name)])[2] == 0
    assert seeded_bases[0] > 0


def test_seeded_local_bases_match_the_generators_on_criterion_07(seeded_bases):
    from segrenum import segre_at
    from test_acceptance import _image_threefold, _instances_small

    for _, f, X in [*_instances_small(), ("image-threefold", *_image_threefold())]:
        for seed in range(1, 11):
            segre_at(f, X, trials=2, seed=seed)
    assert seeded_bases[0] > 0
