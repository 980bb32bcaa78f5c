"""Vogel sequences, Segre numbers, polar multiplicities, fixed/moving parts."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segrenum import (
    AffinePoint,
    GenericityError,
    Ideal,
    InputError,
    Polynomial,
    Ring,
    fixed_support,
    local_dim_mult,
    point_part,
    polar_at,
    random_vogel_sequence,
    run_trials,
    segre_at,
    verify_vogel_condition,
    vogel_run,
)
from segrenum import vogel

T3 = Ring(["t1", "t2", "t3"])
R2 = Ring(["x", "y"])
RZ = Ring(["z1", "z2"])
U3 = Ring(["x1", "x2", "x3"])
XYZ = Ring(["x", "y", "z"])

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
    # I_k = off_{k-1} + (h_k)
    assert len(seq.sums) == len(seq.elements)
    for k, I in enumerate(seq.sums, start=1):
        assert I == seq.off[k - 1] + (seq.elements[k - 1],)
    assert verify_vogel_condition(["x", "x"], Ideal(R2, ()), Ideal(R2, ["x", "y"])) == (False, 2)
    expected = vogel_run(X, seq)

    def refuse(self, other):
        raise AssertionError("vogel_run built an ideal of its own")

    monkeypatch.setattr(Ideal, "saturate", refuse)
    monkeypatch.setattr(Ideal, "__add__", refuse)
    run = vogel_run(X, seq)
    assert run.mult_z == expected.mult_z and run.mult_off == expected.mult_off
    assert [s.ideal for s in run.steps] == [X, *seq.sums]


def test_an_off_part_that_is_its_step_ideal_is_measured_once(monkeypatch):
    X = Ideal(R2, ())
    seq = random_vogel_sequence(["x", "y"], X, random.Random(7))
    measured = []
    real = vogel.local_dim_mult
    monkeypatch.setattr(vogel, "local_dim_mult", lambda I: measured.append(I) or real(I))
    run = vogel_run(X, seq)
    # off_0 = X : (x, y)^inf and off_1 = I_1 : (x, y)^inf remove nothing
    assert [s.off is s.ideal for s in run.steps] == [True, True, False]
    assert measured == [X, seq.sums[0], seq.sums[1], seq.off[2]]
    assert [(s.off_dim, s.off_mult) for s in run.steps] == [(2, 1), (1, 1), (-1, 0)]
    assert run.mult_z == (0, 0, 1)


def test_vogel_trial_inputs_are_validated():
    f = [T3.parse(p) for p in SCALED_PLANE]
    X = Ideal(T3, ())
    assert random_vogel_sequence(SCALED_PLANE, X, random.Random(7)) == random_vogel_sequence(
        f, X, random.Random(7)
    )
    with pytest.raises(InputError, match="polynomial from a different ring"):
        random_vogel_sequence([R2.parse("x")], X, random.Random(7))
    with pytest.raises(InputError, match="trials must be an integer"):
        segre_at(SCALED_PLANE, X, trials="3")
    with pytest.raises(InputError, match="coefficient bound must be an integer"):
        segre_at(SCALED_PLANE, X, bound=2.5)
    with pytest.raises(InputError, match="coefficient bound must be an integer"):
        random_vogel_sequence(SCALED_PLANE, X, random.Random(7), bound=0)
    for check in (fixed_support, point_part):
        with pytest.raises(InputError, match="trials must be an integer"):
            check(SCALED_PLANE, X, trials="3")


def test_verify_vogel_condition_membership():
    X = Ideal(R2, ())
    J = Ideal(R2, ["x"])
    with pytest.raises(InputError):
        verify_vogel_condition(["y"], X, J)
    with pytest.raises(InputError, match="polynomial from a different ring"):
        verify_vogel_condition([U3.parse("x1")], X, J)
    # one text is one element, not a string of one-character elements
    assert verify_vogel_condition("x*y", X, J) == (True, None)


def test_trial_generators_are_polynomials_of_the_space_ring():
    with pytest.raises(InputError, match="int is not a polynomial"):
        segre_at(3, Ideal(R2, ()))
    with pytest.raises(InputError, match="polynomial from a different ring"):
        segre_at([U3.parse("x1")], Ideal(R2, ()))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_ci_oracle_any_seed(a, b, seed):
    res = segre_at([f"x^{a}", f"y^{b}"], Ideal(R2, ()), trials=2, seed=seed)
    assert res.values == (0, 0, a * b)


class _Scripted:
    """A random stream that returns the given integers in order."""

    def __init__(self, values):
        self._values = iter(values)

    def randint(self, lo, hi):
        return next(self._values)


def test_off_zero_is_saturated_once_per_sequence(monkeypatch):
    X = Ideal(R2, ())
    f = [R2.parse("x"), R2.parse("y")]
    calls = []
    saturate = Ideal.saturate

    def counted(self, other):
        if self is X:
            calls.append(other)
        return saturate(self, other)

    monkeypatch.setattr(Ideal, "saturate", counted)
    # the first draw h = (x, x) fails at codim 2, the second h = (x, y) is certified
    seq = random_vogel_sequence(f, X, _Scripted([1, 0, 1, 0, 1, 0, 0, 1]))
    assert seq.alpha == ((1, 0), (0, 1))
    assert calls == [Ideal(R2, f)]


# -- runs shared inside vogel.sharing ------------------------------------------------


def test_library_calls_draw_every_time(draws):
    count, _ = draws
    for _ in range(2):
        assert segre_at(SCALED_PLANE, Ideal(T3, ()), trials=2).values == (0, 1, 1, 2)
    assert count[0] == 4


def test_shared_runs_come_in_fresh_lists(draws):
    count, _ = draws
    memo = {}
    with vogel.sharing(memo):
        runs = run_trials(SCALED_PLANE, Ideal(T3, ()), trials=2)
        kept = list(runs)
        runs.clear()
        again = run_trials(SCALED_PLANE, Ideal(T3, ()), trials=2)
    assert again == kept and again is not runs  # the same runs, a new list
    assert list(memo.values()) == [tuple(kept)] and count[0] == 2
    assert vogel._memo is None


def test_shared_runs_are_keyed_on_every_argument(draws):
    count, _ = draws
    X = Ideal(T3, ())
    base = (SCALED_PLANE, X, None, 2, 101)
    variants = [
        (SCALED_PLANE, X, AffinePoint(T3, (0, 0, 1)), 2, 101),
        (SCALED_PLANE, Ideal(T3, ["t1 - t2"]), None, 2, 101),
        (SCALED_PLANE, X, None, 2, 5),
        (SCALED_PLANE, X, None, 1, 101),
    ]
    memo = {}
    with vogel.sharing(memo):
        for variant in variants:
            run_trials(*base)  # drawn once, then shared
            run_trials(*variant)
        assert count[0] == 2 + 2 + 2 + 2 + 1
        assert len(memo) == vogel.MEMO_CALLS
        run_trials(*variants[0])  # dropped as the least recent
    assert count[0] == 9 + 2


def test_a_failed_run_is_not_shared(draws):
    count, fail = draws
    fail[0] = 1
    memo = {}
    with vogel.sharing(memo):
        with pytest.raises(GenericityError):
            run_trials(SCALED_PLANE, Ideal(T3, ()), trials=2)
        assert memo == {}
        runs = run_trials(SCALED_PLANE, Ideal(T3, ()), trials=2)
    assert count[0] == 3 and len(runs) == 2 and len(memo) == 1


# -- independent oracles ------------------------------------------------------------


def _order(p):
    return min(sum(e) for e in p.terms)


@pytest.mark.parametrize(
    "ring, f",
    [(R2, "x^2*y + y^3 + x^5"), (R2, "x^2 - y^3"), (U3, "x1*x2*x3 + x1^4 + x3^5")],
)
def test_king_principal_ideal(ring, f):
    # King: for J = (f) on C^n the Segre numbers at 0 are (0, ord_0 f, 0, ..., 0)
    res = segre_at([f], Ideal(ring, ()), trials=2)
    assert res.values == (0, _order(ring.parse(f))) + (0,) * (ring.arity - 1)


_LOW_TERMS = [(i, j) for i in range(5) for j in range(5) if 1 <= i + j <= 4]


@settings(max_examples=10, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_LOW_TERMS), st.integers(-3, 3).filter(bool), min_size=1),
    st.integers(0, 2**31 - 1),
)
def test_king_oracle_any_curve(terms, seed):
    p = R2.from_terms(terms)
    res = segre_at([p], Ideal(R2, ()), trials=2, seed=seed)
    assert res.values == (0, _order(p), 0)


def _newton_multiplicity(exps):
    """e(J) = 2 covol(Newton polyhedron) for an m-primary monomial ideal in two
    variables: twice the area under the lower convex chain from (0, b) to
    (a, 0), by the shoelace formula."""
    a = min(i for i, j in exps if j == 0)
    b = min(j for i, j in exps if i == 0)
    hull = []
    inside = {e for e in exps if e[0] < a and e[1] < b}  # the others are dominated
    for p in sorted(inside | {(0, b), (a, 0)}):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) > 0:
                break
            hull.pop()
        hull.append(p)
    poly = [(0, 0), *hull]
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1])))


def test_newton_multiplicity_examples():
    assert _newton_multiplicity([(2, 0), (0, 3)]) == 6
    assert _newton_multiplicity([(4, 0), (0, 4), (1, 1)]) == 8
    assert _newton_multiplicity([(3, 0), (0, 3), (1, 1), (4, 4)]) == 6
    assert _newton_multiplicity([(1, 0), (0, 1), (1, 1)]) == 1


@settings(max_examples=10, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3),
    st.integers(0, 2**31 - 1),
)
# two draws whose Mora normal forms blew up their coefficients for minutes
# inside a step limit of 400
@example(2, 5, [(4, 4), (2, 4), (1, 2)], 2426)
@example(3, 3, [(1, 4), (1, 1), (3, 4)], 3802)
def test_teissier_monomial_ideal(a, b, mixed, seed):
    # Teissier: for an m-primary monomial J on C^2 the Segre numbers at 0
    # are (0, 0, e(J)) with e(J) = 2 covol(Newton polyhedron)
    exps = [(a, 0), (0, b), *mixed]
    gens = [f"x^{i}*y^{j}" for i, j in exps]
    res = segre_at(gens, Ideal(R2, ()), trials=2, seed=seed)
    assert res.values == (0, 0, _newton_multiplicity(exps))


def test_the_teissier_runaways_answer_within_the_mora_budget():
    # both ran for minutes inside one Mora normal form at a step limit of 400;
    # at the shipped limit that form trips and Lazard answers at once
    from test_acceptance import budget

    for exps, seed, e in (
        ([(2, 0), (0, 5), (4, 4), (2, 4), (1, 2)], 2426, 9),
        ([(3, 0), (0, 3), (1, 4), (1, 1), (3, 4)], 3802, 6),
    ):
        with budget(5):
            res = segre_at([f"x^{i}*y^{j}" for i, j in exps], Ideal(R2, ()), trials=2, seed=seed)
        assert res.values == (0, 0, e)


def _newton_multiplicity3(exps):
    """e(J) = 3! covol(Newton polyhedron) for an m-primary monomial ideal in
    three variables: the box under the pure powers less the part of the
    polyhedron inside it, the hull of every exponent in the box pushed up to
    the box faces in each subset of coordinates."""
    spatial = pytest.importorskip("scipy.spatial")
    top = [min(e[i] for e in exps if e[i] and not any(e[:i] + e[i + 1 :])) for i in range(3)]
    inside = [e for e in exps if all(x < t for x, t in zip(e, top))]  # the others are dominated
    corners = [tuple(t if i in s else 0 for i, t in enumerate(top)) for s in ({0}, {1}, {2})]
    points = {
        tuple(t if mask >> i & 1 else x for i, (x, t) in enumerate(zip(e, top)))
        for e in inside + corners
        for mask in range(8)
    }
    covol = top[0] * top[1] * top[2] - spatial.ConvexHull(sorted(points)).volume
    assert abs(6 * covol - round(6 * covol)) < 1e-6
    return round(6 * covol)


def test_newton_multiplicity3_examples():
    assert _newton_multiplicity3([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert _newton_multiplicity3([(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)]) == 24
    assert _newton_multiplicity3([(3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]) == 10
    assert _newton_multiplicity3([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


@settings(max_examples=10, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=2),
    st.integers(0, 2**31 - 1),
)
@example((2, 3, 4), [(1, 1, 1)], 1)
@example((3, 2, 2), [(1, 1, 0)], 1)
def test_teissier_monomial_ideal_in_three_variables(powers, mixed, seed):
    # Teissier on C^3: Segre numbers (0, 0, 0, e(J)), e(J) = 3! covol
    exps = [tuple(p if i == k else 0 for i in range(3)) for k, p in enumerate(powers)] + mixed
    exps = [e for e in exps if any(e)]
    gens = ["*".join(f"{v}^{k}" for v, k in zip("xyz", e)) for e in exps]
    res = segre_at(gens, Ideal(Ring(["x", "y", "z"]), ()), trials=2, seed=seed)
    assert res.values == (0, 0, 0, _newton_multiplicity3(exps))


def _partials(f):
    def d(i):
        return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in f.terms.items() if e[i]}

    return [Polynomial(f.ring, d(i)) for i in range(f.ring.arity)]


def _mu_star(f, planes=3, seed=11):
    """Teissier's (mu^(0), ..., mu^(n+1)) of f at 0, by a route that shares
    no Vogel or saturation code: mu^(i) is the Milnor number, the local
    multiplicity of the partials' ideal, of f restricted to a seeded random
    linear i-plane through 0, the least over the planes whose restriction has
    an isolated singularity there (the generic value is the least)."""
    rng = random.Random(seed)
    out = [1]
    for i in range(1, f.ring.arity + 1):
        T = Ring([f"s{j}" for j in range(i)])
        found = []
        for _ in range(planes):
            plane = {
                k: sum((T.var(j) * rng.randint(-5, 5) for j in range(i)), T.zero())
                for k in range(f.ring.arity)
            }
            dim, mult = local_dim_mult(Ideal(T, _partials(f.substitute(plane, T))))
            if dim == 0:
                found.append(mult)
        out.append(min(found))
    return out


@pytest.mark.parametrize(
    "ring, f",
    [
        (R2, "x^3 + y^4"),
        (R2, "x^2*y + y^5"),
        (XYZ, "x^2 + y^3 + z^5"),
        (XYZ, "x^3 + y^3 + z^3"),
        (XYZ, "x*y*z + x^4 + y^4 + z^4"),
    ],
    ids=["E6", "D6", "E8", "P8", "T444"],
)
def test_jacobian_polar_and_segre_numbers_are_the_mu_star_sequence(ring, f):
    # Teissier, Gaffney-Gassler: for an isolated singularity f in n + 1
    # variables, the polar multiplicities of J(f) on the whole space are
    # (mu^(0), ..., mu^(n), 0) and its Segre numbers (0, ..., 0, mu)
    f = ring.parse(f)
    mu = _mu_star(f)
    J, X = _partials(f), Ideal(ring, ())
    assert polar_at(J, X, trials=2, seed=5).values == (*mu[:-1], 0)
    assert segre_at(J, X, trials=2, seed=5).values == (0,) * (len(mu) - 1) + (mu[-1],)
