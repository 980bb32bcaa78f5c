"""Vogel sequences, Segre numbers, polar multiplicities, fixed/moving parts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrenum import (
    AffinePoint,
    Ideal,
    InputError,
    Ring,
    fixed_support,
    point_part,
    polar_at,
    random_vogel_sequence,
    run_trials,
    segre_at,
    verify_vogel_condition,
    vogel_run,
)

T3 = Ring(["t1", "t2", "t3"])
R2 = Ring(["x", "y"])
RZ = Ring(["z1", "z2"])
U3 = Ring(["x1", "x2", "x3"])

SCALED_PLANE = ["t3*t1", "t3*t2", "t3^2"]


# -- the scaled-plane workhorse ---------------------------------------------------


def test_scaled_plane_segre():
    res = segre_at(SCALED_PLANE, Ideal(T3, ()))
    assert res.values == (0, 1, 1, 2)
    assert res.stable is True
    assert len(res.trial_vectors) == 4


def test_scaled_plane_polar():
    res = polar_at(SCALED_PLANE, Ideal(T3, ()))
    assert res.values == (1, 1, 1, 0)
    assert res.stable is True


def test_scaled_plane_fixed_report():
    rep = fixed_support(SCALED_PLANE, Ideal(T3, ()))
    by_k = {e.k: e for e in rep.per_codim}
    assert by_k[0].status == "none"
    assert by_k[1].status == "fixed"
    assert by_k[1].ideal == Ideal(T3, ["t3"])
    assert by_k[1].dim == 2
    assert by_k[2].status == "moving"
    assert by_k[3].status == "fixed" and by_k[3].dim == 0


def test_scaled_plane_point_part():
    pp = point_part(SCALED_PLANE, Ideal(T3, ()))
    assert pp.point == 3
    assert pp.e == (0, 1, 1, 2)
    assert len(pp.fixed) == 1
    codim, ideal, mult = pp.fixed[0]
    assert (codim, mult) == (1, 1)
    assert ideal == Ideal(T3, ["t3"])
    # the codim-2 moving mass persists only at the origin
    assert any("point" in n for n in pp.notes)


# -- restricted multiplicities on a singular surface ------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_umbrella_restricted_segre(m):
    X = Ideal(U3, [f"x2*x1^{m} - x3^2"])
    res = segre_at(["x2", "x3"], X)
    assert res.values == (0, 1, m)
    assert res.stable is True


def test_umbrella_restricted_point_part():
    X = Ideal(U3, ["x2*x1^2 - x3^2"])
    pp = point_part(["x2", "x3"], X)
    assert pp.point == 2
    codim, ideal, mult = pp.fixed[0]
    assert ideal == Ideal(U3, ["x2", "x3"]) and mult == 1 and codim == 1


# -- simple oracles ---------------------------------------------------------------


def test_line_on_axis_pair():
    # X = V(xy), f = (x): the y-axis is the fixed part (e_0 = 1) and the
    # residual x-axis meets V(x) at the reduced origin (e_1 = 1)
    res = segre_at(["x"], Ideal(R2, ["x*y"]))
    assert res.values == (1, 1)


def test_complete_intersection_point_mass():
    for a, b in [(1, 1), (2, 3), (4, 2)]:
        res = segre_at([f"x^{a}", f"y^{b}"], Ideal(R2, ()))
        assert res.values == (0, 0, a * b)


def test_unit_tuple_gives_empty_cycle():
    # vectors run k = 0..dim X: length 3 on the ambient plane, 2 on the curve
    res = segre_at(["1"], Ideal(R2, ()))
    assert res.values == (0, 0, 0)
    pol = polar_at(["1"], Ideal(RZ, ["z1^2 - z2^3"]))
    assert pol.values == (2, 0)


def test_point_off_variety():
    X = Ideal(RZ, ["z1^2 - z2^3"])
    res = segre_at(["z1"], X, point=AffinePoint(RZ, (2, 1)))
    assert res.values == (0, 0)


def test_translated_point_matches_origin():
    at = AffinePoint(RZ, (1, 1))
    X = Ideal(RZ, ["(z1 - 1)^2 - (z2 - 1)^3"])
    X0 = Ideal(RZ, ["z1^2 - z2^3"])
    assert segre_at(["z1 - 1"], X, point=at).values == segre_at(["z1"], X0).values


# -- trial plumbing ---------------------------------------------------------------


def test_same_seed_is_deterministic():
    a = segre_at(SCALED_PLANE, Ideal(T3, ()), seed=7)
    b = segre_at(SCALED_PLANE, Ideal(T3, ()), seed=7)
    assert a.values == b.values and a.trial_vectors == b.trial_vectors


def test_reported_min_is_lex_min_of_trials():
    res = segre_at(SCALED_PLANE, Ideal(T3, ()), trials=5, seed=23)
    assert res.values == min(res.trial_vectors)
    for v in res.trial_vectors:
        assert v >= res.values


def test_trial_count_validation():
    with pytest.raises(InputError):
        run_trials(["x"], Ideal(R2, ()), trials=0)
    with pytest.raises(InputError):
        fixed_support(["x"], Ideal(R2, ()), trials=1)
    with pytest.raises(InputError):
        point_part(["x"], Ideal(R2, ()), trials=1)


def test_run_step_bookkeeping():
    runs = run_trials(SCALED_PLANE, Ideal(T3, ()), trials=1)
    steps = runs[0].steps
    assert [s.k for s in steps] == [0, 1, 2, 3]
    assert runs[0].mult_z == tuple(s.z_mult for s in steps)
    assert runs[0].sequence.certified is True
    # the inside ideal at codim 1 is the fixed plane
    assert runs[0].inside(1) == Ideal(T3, ["t3"])


# -- explicit certification -------------------------------------------------------


def test_verify_vogel_condition_good_and_bad():
    X = Ideal(R2, ())
    J = Ideal(R2, ["x", "y"])
    ok, k = verify_vogel_condition(["x", "y"], X, J)
    assert ok is True and k is None
    bad, where = verify_vogel_condition(["x", "x"], X, J)
    assert bad is False and where == 2


def test_vogel_run_reads_the_certified_chain(monkeypatch):
    f = [T3.parse(p) for p in SCALED_PLANE]
    X, fid = Ideal(T3, ()), Ideal(T3, SCALED_PLANE)
    seq = random_vogel_sequence(f, X, random.Random(7))
    # off_k = (off_{k-1} + h_k) : f^inf equals (X + h_1..h_k) : f^inf
    for k, off in enumerate(seq.off):
        assert off == (X + seq.elements[:k]).saturate(fid)
    assert verify_vogel_condition(["x", "x"], Ideal(R2, ()), Ideal(R2, ["x", "y"])) == (False, 2)
    expected = vogel_run(X, seq)

    def no_saturation(self, other):
        raise AssertionError("vogel_run saturated an ideal")

    monkeypatch.setattr(Ideal, "saturate", no_saturation)
    run = vogel_run(X, seq)
    assert run.mult_z == expected.mult_z and run.mult_off == expected.mult_off


def test_verify_vogel_condition_membership():
    X = Ideal(R2, ())
    J = Ideal(R2, ["x"])
    with pytest.raises(InputError):
        verify_vogel_condition(["y"], X, J)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_ci_oracle_any_seed(a, b, seed):
    res = segre_at([f"x^{a}", f"y^{b}"], Ideal(R2, ()), trials=2, seed=seed)
    assert res.values == (0, 0, a * b)
