"""Cycles, divisor cuts, proper/extended intersection products, implicitization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_acceptance import budget

from segrenum import (
    AffinePoint,
    CycleRep,
    Ideal,
    ImproperIntersectionError,
    InputError,
    Polynomial,
    Ring,
    circ_index,
    cycle_local_mult,
    divisor_cut,
    implicitize,
    proper_intersect,
    restricted_point_part,
    tworzewski_index,
    tworzewski_point_part,
)
from segrenum import cycles

R2 = Ring(["x", "y"])
R3 = Ring(["x1", "x2", "x3"])


# -- cycle construction ------------------------------------------------------------


def test_build_drops_trivial_parts():
    z = CycleRep.build(R2, [(Ideal(R2, ["x"]), 2), (Ideal(R2, ["1"]), 5), (Ideal(R2, ["y"]), 0)])
    assert z.parts == ((Ideal(R2, ["x"]), 2),)
    assert not z.is_empty()
    assert CycleRep.build(R2, []).is_empty()
    with pytest.raises(InputError):
        CycleRep.build(R2, [(Ideal(R3, ["x1"]), 1)])


def test_translate_round_trip():
    z = CycleRep.from_ideal(Ideal(R2, ["y - x^2"]))
    at = AffinePoint(R2, (1, 1))
    back = z.translate(at).translate(at.negate())
    assert back.parts == z.parts


# -- divisor cuts -------------------------------------------------------------------


def test_cut_component_inside_divisor_is_annihilated():
    z = CycleRep.from_ideal(Ideal(R2, ["x"]))
    assert divisor_cut(R2.parse("x*y"), z).is_empty()


def test_cut_union_keeps_off_branch():
    z = CycleRep.from_ideal(Ideal(R2, ["x*y"]))
    out = divisor_cut(R2.parse("x"), z)
    assert out.parts == ((Ideal(R2, ["x", "y"]), 1),)


def test_cut_ambient_space():
    z = CycleRep.from_ideal(Ideal(R2, ()))
    out = divisor_cut(R2.parse("x"), z)
    assert out.parts == ((Ideal(R2, ["x"]), 1),)


def test_cut_keeps_scheme_structure():
    z = CycleRep.from_ideal(Ideal(R2, ["y - x^2"]))
    out = divisor_cut(R2.parse("y"), z)
    assert out.parts == ((Ideal(R2, ["y", "x^2"]), 1),)
    assert cycle_local_mult(out) == 2


def test_cut_is_linear_in_parts():
    z = CycleRep.build(R2, [(Ideal(R2, ["y - x^2"]), 2), (Ideal(R2, ["y - 1"]), 3)])
    out = divisor_cut(R2.parse("x"), z)
    assert out.parts == (
        (Ideal(R2, ["x", "y"]), 2),
        (Ideal(R2, ["x", "y - 1"]), 3),
    )


def test_cut_validation():
    z = CycleRep.from_ideal(Ideal(R2, ["x"]))
    with pytest.raises(InputError):
        divisor_cut(R2.zero(), z)
    with pytest.raises(InputError):
        divisor_cut(R3.parse("x1"), z)


# -- local multiplicity of a cycle ---------------------------------------------------


def test_cycle_local_mult_weights_and_point():
    z = CycleRep.build(
        R2,
        [
            (Ideal(R2, ["y^2 - x^3"]), 2),  # cusp through 0: mult 2
            (Ideal(R2, ["x - 1", "y"]), 5),  # point away from 0
        ],
    )
    assert cycle_local_mult(z) == 4
    assert cycle_local_mult(z, AffinePoint(R2, (1, 0))) == 5


# -- proper intersections -------------------------------------------------------------


def test_transverse_lines():
    a = CycleRep.from_ideal(Ideal(R2, ["x"]))
    b = CycleRep.from_ideal(Ideal(R2, ["y"]))
    out = proper_intersect([a, b], point=AffinePoint(R2, (0, 0)))
    assert out.mult == 1
    assert out.cycle.parts == ((Ideal(R2, ["x", "y"]), 1),)


def test_tangent_curve_and_line():
    par = CycleRep.from_ideal(Ideal(R2, ["y - x^2"]))
    ax = CycleRep.from_ideal(Ideal(R2, ["y"]))
    out = proper_intersect([par, ax], point=AffinePoint(R2, (0, 0)))
    assert out.mult == 2
    assert out.cycle.parts == ((Ideal(R2, ["x^2", "y"]), 1),)


def test_three_coordinate_planes():
    planes = [CycleRep.from_ideal(Ideal(R3, [g])) for g in ("x1", "x2", "x3")]
    out = proper_intersect(planes, point=AffinePoint(R3, (0, 0, 0)))
    assert out.mult == 1


@pytest.mark.parametrize("skip_identity", [False, True], ids=["then-identity", "then-random"])
@pytest.mark.parametrize(
    "ring, gens",
    [(R2, ["x", "y"]), (R2, ["y - x^2", "y"]), (R3, ["x1", "x2", "x3"])],
    ids=["transverse-lines", "tangent-curve-and-line", "three-planes"],
)
def test_rejected_shear_costs_no_reduction(ring, gens, skip_identity, monkeypatch):
    parts = [CycleRep.from_ideal(Ideal(ring, [g])) for g in gens]
    origin = AffinePoint(ring, (0,) * ring.arity)
    plain = proper_intersect(parts, point=origin)
    real_shears, real_reduce = cycles._shears, cycles.linear_reduce
    drawn, reductions = [], []

    def shears(count, rng, retries):
        drawn.append("zero")
        yield [[0] * count for _ in range(count)]  # every form zero
        drawn.append("ones")
        yield [[1] * count for _ in range(count)]  # singular: the second form is the first
        stream = real_shears(count, rng, retries)
        if skip_identity:
            next(stream)
        for mat in stream:
            drawn.append(mat)
            yield mat

    def reduce(*args, **kwargs):
        reductions.append(args)
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(cycles, "_shears", shears)
    monkeypatch.setattr(cycles, "linear_reduce", reduce)
    out = proper_intersect(parts, point=origin)
    assert (out.cycle, out.mult) == (plain.cycle, plain.mult)
    assert len(drawn) == 3  # both singular matrices were rejected, the next shear passed
    assert len(reductions) == 1  # the product's: the cuts certify on its ring


def test_the_cycle_is_the_meet_and_the_cuts_only_certify(monkeypatch):
    parts = [CycleRep.from_ideal(Ideal(R3, [g])) for g in ("x1 - x2^2", "x1", "x3")]
    origin = AffinePoint(R3, (0, 0, 0))
    plain = proper_intersect(parts, point=origin)
    real_product, certified = cycles._product, []

    def refuse(*args, **kwargs):
        raise AssertionError("reduced after the product")

    def product(*args, **kwargs):
        prod = real_product(*args, **kwargs)
        monkeypatch.setattr(cycles, "linear_reduce", refuse)
        certified.append(cycles._cut_combo(prod, 7))
        return prod

    monkeypatch.setattr(cycles, "_product", product)
    out = proper_intersect(parts, point=origin)
    assert (out.cycle, out.mult) == (plain.cycle, plain.mult)
    assert certified == [None]
    assert out.mult == 2 and out.cycle.parts == ((Ideal(R3, ["x1", "x2^2", "x3"]), 1),)


_CORPUS_AND_PLANES = pytest.mark.parametrize(
    "gens",
    [["x1", "x2"], ["x2 - x1^2", "x2"], ["x1", "x2", "x3"]],
    ids=["corpus-H1-H2", "corpus-Par-H2", "three-planes"],
)


def _products(gens):
    _, products = cycles._part_products([CycleRep.from_ideal(Ideal(R3, [g])) for g in gens])
    return [prod for prod, _ in products]


@_CORPUS_AND_PLANES
def test_the_last_cut_is_the_meet(gens):
    # these shears are invertible, so all the cuts together are the meet of the
    # product and the diagonal, which proper_intersect builds for its dimension
    for prod in _products(gens):
        meet = prod.space + prod.eta
        for mat in itertools.islice(cycles._shears(len(prod.eta), random.Random(5), 3), 4):
            ring = prod.space.ring
            forms = prod.eta if mat is None else [cycles._combos(prod.eta, r, ring) for r in mat]
            cur = prod.space
            for form in forms:
                cur = cur + (form,)
            assert cur == meet


@_CORPUS_AND_PLANES
def test_the_cuts_build_no_sum_for_the_last_form(gens, monkeypatch):
    for prod in _products(gens):
        sums, real_add = [], Ideal.__add__
        monkeypatch.setattr(Ideal, "__add__", lambda I, h: sums.append(h) or real_add(I, h))
        cycles._cut_combo(prod, 7)
        monkeypatch.undo()
        assert len(sums) == len(prod.eta) - 1


def test_a_meet_below_the_expected_dimension_is_refused():
    # the plane x1 = 0 misses the plane x1 = 1; only the line x2 = x3 = 0 meets it
    a = CycleRep.from_ideal(Ideal(R3, ["x1*x2", "x1*x3"]))
    b = CycleRep.from_ideal(Ideal(R3, ["x1 - 1"]))
    with pytest.raises(InputError, match="not pure-dimensional"):
        proper_intersect([a, b])


def test_improper_rejected():
    c1 = CycleRep.from_ideal(Ideal(R3, ["x1", "x2"]))  # a line
    c2 = CycleRep.from_ideal(Ideal(R3, ["x1", "x3"]))  # another line
    with pytest.raises(ImproperIntersectionError):
        proper_intersect([c1, c2], point=AffinePoint(R3, (0, 0, 0)))


def test_disjoint_parts_give_empty_product():
    a = CycleRep.from_ideal(Ideal(R2, ["x"]))
    b = CycleRep.from_ideal(Ideal(R2, ["x - 1"]))
    out = proper_intersect([a, b], point=AffinePoint(R2, (0, 0)))
    assert out.cycle.is_empty()
    assert out.mult == 0


def test_intersection_mult_is_symmetric():
    par = CycleRep.from_ideal(Ideal(R2, ["y - x^2"]))
    ax = CycleRep.from_ideal(Ideal(R2, ["y"]))
    p = AffinePoint(R2, (0, 0))
    m1 = proper_intersect([par, ax], point=p).mult
    m2 = proper_intersect([ax, par], point=p).mult
    assert m1 == m2 == 2


def test_needs_two_cycles():
    with pytest.raises(InputError):
        proper_intersect([CycleRep.from_ideal(Ideal(R2, ["x"]))])


@pytest.mark.parametrize(
    "product", [proper_intersect, tworzewski_index, tworzewski_point_part]
)
def test_products_reject_cycles_from_different_rings(product):
    R5 = Ring(["u", "v", "w"])
    a = CycleRep.from_ideal(Ideal(R2, ["x"]))
    b = CycleRep.from_ideal(Ideal(R5, ["u", "v"]))
    with pytest.raises(InputError, match="cycles from different rings"):
        product([a, b])


# -- extended indices ----------------------------------------------------------------


def _umbrella(m=2):
    return Ideal(R3, [f"x2*x1^{m} - x3^2"]), Ideal(R3, ["x2", "x3"])


def test_circ_index_umbrella():
    Z, A = _umbrella(2)
    idx = circ_index(["x2", "x3"], CycleRep.from_ideal(Z), trials=2)
    assert idx.by_dim == (2, 1, 0)
    assert idx.by_codim == (0, 1, 2)
    assert idx.total == 3
    assert idx.n_top == 2
    assert idx.stable is True


def test_restricted_point_part_umbrella():
    Z, A = _umbrella(3)
    rep = restricted_point_part(["x2", "x3"], CycleRep.from_ideal(Z), trials=2)
    assert rep.point == 3
    assert rep.fixed == ((A, 1, 1),)


ORIGIN3 = Ideal(R3, ["x1", "x2", "x3"])


def test_tworzewski_pairs():
    Z, A = _umbrella(2)
    O = CycleRep.from_ideal(ORIGIN3)
    idx_oa = tworzewski_index([O, CycleRep.from_ideal(A)], trials=2)
    assert (idx_oa.total, idx_oa.by_dim) == (1, (1,))
    idx_oz = tworzewski_index([O, CycleRep.from_ideal(Z)], trials=2)
    assert (idx_oz.total, idx_oz.by_dim) == (2, (2,))


def test_tworzewski_triple_and_nonassociativity():
    Z, A = _umbrella(2)
    O = CycleRep.from_ideal(ORIGIN3)
    triple = tworzewski_index([O, CycleRep.from_ideal(A), CycleRep.from_ideal(Z)], trials=2)
    assert triple.total == 2
    # A bullet Z = A + 2*{0}; pairing with {0} afterwards totals 3, not 2
    pp = tworzewski_point_part([CycleRep.from_ideal(A), CycleRep.from_ideal(Z)], trials=2)
    assert pp.point == 2
    assert pp.fixed == ((A, 1, 1),)
    az = CycleRep.build(R3, [(A, 1), (ORIGIN3, pp.point)])
    idx = tworzewski_index([O, az], trials=2)
    assert idx.total == 3


def test_tworzewski_multilinearity():
    Z, A = _umbrella(2)
    O = CycleRep.from_ideal(ORIGIN3)
    doubled = CycleRep.build(R3, [(A, 2)])
    idx = tworzewski_index([O, doubled], trials=2)
    assert idx.total == 2 * tworzewski_index([O, CycleRep.from_ideal(A)], trials=2).total


def test_tworzewski_part_away_from_point():
    O = CycleRep.from_ideal(ORIGIN3)
    far = CycleRep.from_ideal(Ideal(R3, ["x1 - 1", "x2", "x3"]))
    idx = tworzewski_index([O, far], trials=2)
    assert idx.total == 0
    # the plane x1 = 1 misses the origin, so its product with x2 = 0 has
    # nothing there; at (1, 0, 0) the two planes meet in a line through it
    A, B = (CycleRep.from_ideal(Ideal(R3, [g])) for g in ("x1 - 1", "x2"))
    origin = AffinePoint(R3, (0, 0, 0))
    idx = tworzewski_index([A, B], point=origin, trials=2)
    assert (idx.total, idx.by_dim) == (0, (0, 0, 0))
    pp = tworzewski_point_part([A, B], point=origin, trials=2)
    assert (pp.point, pp.fixed) == (0, ())
    assert tworzewski_index([A, B], point=AffinePoint(R3, (1, 0, 0)), trials=2).total == 1


def test_point_part_translated_instance():
    at = AffinePoint(R3, (2, 1, -1))
    Z0, A0 = _umbrella(2)
    shift = at.negate()
    Z, A = Z0.translate(shift), A0.translate(shift)  # umbrella centered at `at`
    rep = restricted_point_part(
        [str(g) for g in A.gens], CycleRep.from_ideal(Z), point=at, trials=2
    )
    assert rep.point == 2
    assert rep.fixed == ((A, 1, 1),)


# -- Fulton's algorithm as an oracle ---------------------------------------------------


def _fulton(f, g, cap):
    """I_0(f, g) of plane curves by Fulton's algorithm (Algebraic Curves, 3.3),
    on {(i, j): Fraction} dicts in x, y.  The local number is finite unless f
    and g share a component through 0, and at most deg f * deg g (Bezout), so
    None when the count passes ``cap`` or a shared factor shows."""
    total = 0
    while True:
        if not f or not g:
            return None
        if (0, 0) in f or (0, 0) in g:
            return total
        fr = {i: c for (i, j), c in f.items() if j == 0}  # f(x, 0)
        gr = {i: c for (i, j), c in g.items() if j == 0}
        if not fr and not gr:
            return None  # y divides both
        if not gr or (fr and max(fr) > max(gr)):
            f, g, fr, gr = g, f, gr, fr  # now f(x, 0) = 0 or deg f(x, 0) <= deg g(x, 0)
        if not fr:
            # f = y*h: I(f, g) = I(y, g) + I(h, g), and I(y, g) = ord_x g(x, 0)
            total += min(gr)
            if total > cap:
                return None
            f = {(i, j - 1): c for (i, j), c in f.items()}
            continue
        # I(f, g) = I(f, lc(f0)*g - lc(g0)*x^(s-r)*f), whose g(x, 0) has lower degree
        r, s = max(fr), max(gr)
        out = {e: c * fr[r] for e, c in g.items()}
        for (i, j), c in f.items():
            e = (i + s - r, j)
            v = out.get(e, 0) - gr[s] * c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        g = out


def test_fulton_oracle_examples():
    x, y = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    cusp = {(2, 0): Fraction(1), (0, 3): Fraction(-1)}  # x^2 - y^3
    assert _fulton(x, y, 1) == 1
    assert _fulton(cusp, y, 6) == 2
    assert _fulton(cusp, x, 3) == 3
    assert _fulton({(1, 1): Fraction(1)}, x, 2) is None  # x*y and x share x


_PLANE_TERMS = [(i, j) for i in range(4) for j in range(4) if 1 <= i + j <= 3]
_plane_curve = st.dictionaries(
    st.sampled_from(_PLANE_TERMS),
    st.sampled_from([-3, -2, -1, 1, 2, 3]).map(Fraction),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(_plane_curve, _plane_curve)
# two quartics on which Mora normal forms run out of budget, so the index
# goes through the Lazard fallback and the global engine
@example(
    R2.parse("-2*x*y^3 - y^4 + 2*x^3 - y").terms,
    R2.parse("3*x^4 + 2*x*y^3 - y^3 + 3*x*y + 3*y^2").terms,
)
def test_plane_curve_index_matches_fulton(f, g):
    def deg(p):
        return max(i + j for i, j in p)

    want = _fulton(f, g, deg(f) * deg(g))
    assume(want is not None)  # a common component through 0
    origin = AffinePoint(R2, (0, 0))
    cycles = [CycleRep.from_ideal(Ideal(R2, [R2.from_terms(p)])) for p in (f, g)]
    assert tworzewski_index(cycles, point=origin, trials=2).total == want
    try:
        mult = proper_intersect(cycles, point=origin).mult
    except ImproperIntersectionError:
        # proper means proper everywhere: f and g share a component away from 0
        assert Ideal(R2, [R2.from_terms(f), R2.from_terms(g)]).krull_dimension() == 1
    else:
        assert mult == want


# -- linear reduction ------------------------------------------------------------------


def _power_map(k):
    """The map (t, a, b, c) -> (t + a + b + c, t^k, a, b) as linear_reduce sees it."""
    ring = Ring(["t", "a", "b", "c", "z1", "z2", "z3", "z4"])
    gens = [ring.parse(g) for g in ("z1 - t - a - b - c", f"z2 - t^{k}", "z3 - a", "z4 - b")]
    return ring, gens


def test_linear_reduce_expands_a_power_within_budget():
    # t = z1 - a - b - c turns z2 - t^20 into C(23, 3) + 1 = 1772 terms
    ring, gens = _power_map(20)
    with budget(5):
        red = cycles.linear_reduce(ring, gens, 4)
    assert red.ring.names == ("c", "z1", "z2", "z3", "z4")
    assert [len(g.terms) for g in red.gens] == [1772]


def test_linear_reduce_rejects_a_huge_substitution(monkeypatch):
    # t^100 would expand to C(103, 3) = 176851 terms, over ring.MAX_TERMS
    ring, gens = _power_map(100)

    real_pow = Polynomial.__pow__

    def small_power(self, k):
        assert k < 100, "the substitution was expanded"
        return real_pow(self, k)

    monkeypatch.setattr(Polynomial, "__pow__", small_power)
    with pytest.raises(InputError, match="exceeds the limit"):
        cycles.linear_reduce(ring, gens, 4)


# -- implicitization -----------------------------------------------------------------


def test_implicitize_twisted_cubic():
    P = Ring(["t"])
    T = implicitize(["t", "t^2", "t^3"], P, R3)
    assert T == Ideal(R3, ["x2 - x1^2", "x3 - x1^3"])
    assert T.krull_dimension() == 1


@pytest.mark.parametrize(
    "params, components, target",
    [
        (["t"], ["t + 1", "t^2"], ["z1", "z2"]),
        (["s", "t"], ["t + s^2", "s", "s*t"], ["z1", "z2", "z3"]),
        (["t"], ["t", "t^2", "t^3"], ["x", "y", "z"]),
        (["t1", "t2", "t3"], ["t1", "t2", "t3*t1", "t3*t2", "t3^2", "t3^3"],
         ["x1", "x2", "x3", "x4", "x5", "x6"]),
    ],
    ids=["constant", "nonlinear", "corpus-twisted-cubic", "corpus-threefold"],
)
def test_implicitize_is_the_elimination_of_the_graph(params, components, target):
    # parameters that enter with a constant or only nonlinearly are left to
    # the elimination; the linear ones are substituted first
    P, T = Ring(params), Ring(target)
    graph = Ring(params + target)
    gens = [f"{z} - ({gamma})" for z, gamma in zip(target, components)]
    want = Ideal(graph, gens).eliminate(range(len(params)))
    assert implicitize(components, P, T).canonical_strings() == want.canonical_strings()


def test_implicitize_arity_check():
    P = Ring(["t"])
    with pytest.raises(InputError):
        implicitize(["t", "t^2"], P, R3)


def test_implicitize_rejects_components_from_another_ring():
    # components from the target ring would pass substitution by name
    with pytest.raises(InputError, match="different ring"):
        implicitize([R2.parse("x"), R2.parse("y")], Ring(["t"]), R2)


@settings(max_examples=10, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_shifted_transverse_lines(a, b):
    za = CycleRep.from_ideal(Ideal(R2, [f"x - {a}"]))
    zb = CycleRep.from_ideal(Ideal(R2, [f"y - {b}"]))
    out = proper_intersect([za, zb], point=AffinePoint(R2, (a, b)))
    assert out.mult == 1
