"""Algebraic cycles: divisor cuts, proper intersections, Tworzewski products.

A cycle is a formal integer combination of ideals (its parts); products of
cycles are computed on the product space in (w, eta) coordinates, where block
one keeps the original variable names and block j maps v -> w_v + eta_j_v, so
the diagonal ideal is spanned by the eta variables.  Products walk every
combination of one part per cycle (``_part_products``): each combination is
moved to the point, built and linearly reduced once, with the diagonal forms
carried along, and combinations with an empty part are skipped.  Each step of
that reduction is a linear isomorphism of quotients that fixes the origin, and
its eliminating generators are recorded, so ideals on the reduced ring can be
mapped back to the original coordinates.  A proper intersection is the meet of
the product and the diagonal forms; the diagonal cuts only certify it, one
form at a time on the reduced ring, under the identity or a random shear of
the forms (a singular shear fails the cut checks).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenericityError, ImproperIntersectionError, InputError
from .groebner import Ideal
from .localmult import local_dim_mult
from .ring import AffinePoint, Polynomial, Ring, _check_shift, _check_terms, _power_terms
from .vogel import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    _combos,
    point_part,
    segre_at,
)

SHEAR_RETRIES = 8


@dataclass(frozen=True)
class CycleRep:
    """Formal sum of ideals with integer coefficients on a common ring."""

    ring: Ring
    parts: tuple[tuple[Ideal, int], ...]

    @classmethod
    def build(cls, ring: Ring, weighted) -> "CycleRep":
        parts = []
        for ideal, c in weighted:
            if ideal.ring != ring:
                raise InputError("cycle part from a different ring")
            c = int(c)
            if c == 0 or ideal.is_unit():
                continue
            parts.append((ideal, c))
        return cls(ring, tuple(parts))

    @classmethod
    def from_ideal(cls, ideal: Ideal, coeff: int = 1) -> "CycleRep":
        return cls.build(ideal.ring, [(ideal, coeff)])

    def is_empty(self) -> bool:
        return not self.parts

    def translate(self, point: AffinePoint) -> "CycleRep":
        return CycleRep(
            self.ring,
            tuple((ideal.translate(point), c) for ideal, c in self.parts),
        )


def divisor_cut(h: Polynomial, cycle: CycleRep) -> CycleRep:
    """Cut a cycle by the divisor of h: parts inside {h = 0} are discarded,
    the rest meet it with the induced scheme structure."""
    if h.is_zero():
        raise InputError("cannot cut by the zero divisor")
    if h.ring != cycle.ring:
        raise InputError("divisor from a different ring")
    parts = []
    for ideal, c in cycle.parts:
        off = ideal.saturate_poly(h)
        if off.is_unit():
            continue
        parts.append((off + (h,), c))
    return CycleRep(cycle.ring, tuple(parts))


# -- linear substitution reduction -------------------------------------------


@dataclass
class Reduction:
    """Outcome of linear_reduce: the shrunken ring plus the back-mapping trail."""

    ring: Ring
    gens: list[Polynomial]
    aux: list[Polynomial]
    trail: list[Polynomial]  # the eliminating generators, each on its own ring


def linear_reduce(ring, gens, front, aux=()) -> Reduction:
    """Substitute away front variables isolated in linear generators.

    A generator g = c*x_i + r eliminates x_i when g is linear with no
    constant term (so x_i occurs once in g) and x_i is among the first
    ``front`` variables of the current ring; each step is a linear
    isomorphism of quotients that fixes the origin, and the front variables
    left over stay first.  The ``aux`` polynomials are carried along:
    substituted, never read.  The trail records the eliminating generators
    in elimination order, each on the ring current at that step.
    """
    cur_ring = ring
    cur_gens = [g for g in gens if not g.is_zero()]
    cur_aux = list(aux)
    trail: list[Polynomial] = []
    while True:
        for gi, g in enumerate(cur_gens):
            unit = max(g.terms)  # for a linear g, the term of its first variable
            if all(sum(e) == 1 for e in g.terms) and unit.index(1) < front - len(trail):
                break
        else:
            return Reduction(cur_ring, cur_gens, cur_aux, trail)
        i = unit.index(1)
        rest = Polynomial(g.ring, {e: v for e, v in g.terms.items() if e != unit})
        new_ring = Ring(cur_ring.names[:i] + cur_ring.names[i + 1 :])
        repl = rest.scale(Fraction(-1) / g.terms[unit]).substitute({}, new_ring)
        for p in (*cur_gens, *cur_aux):
            # x_i^k goes to at most _power_terms(repl, k) terms
            _check_terms(sum(_power_terms(repl, e[i]) for e in p.terms))
        trail.append(g)
        bind = {i: repl}
        cur_gens = [
            q
            for j, p in enumerate(cur_gens)
            if j != gi and not (q := p.substitute(bind, new_ring)).is_zero()
        ]
        cur_aux = [p.substitute(bind, new_ring) for p in cur_aux]
        cur_ring = new_ring


# -- products -----------------------------------------------------------------


@dataclass(frozen=True)
class _Product:
    """Product of the translated parts in (w, eta) coordinates, reduced once."""

    trail: list[Polynomial]  # from the (w, eta) ring to the reduced one
    space: Ideal  # the product on the reduced ring
    eta: list[Polynomial]  # the (r-1)*n diagonal forms on the reduced ring
    dim: int  # sum of the part dimensions
    min_dim: int


def _product(ideals, base: Ring, point: AffinePoint | None = None) -> _Product | None:
    """The product of the parts moved to the point; None when a part is empty."""
    moved = [ideal.translate(point) for ideal in ideals]
    dims = [ideal.krull_dimension() for ideal in moved]
    if any(d < 0 for d in dims):
        return None
    n = base.arity
    names = list(base.names)
    for j in range(2, len(moved) + 1):
        names += [f"{nm}__d{j}" for nm in base.names]
    full = Ring(names)
    gens = [g.substitute({}, full) for g in moved[0].gens]
    for j, ideal in enumerate(moved[1:], start=1):
        bind = {i: full.var(i) + full.var(n * j + i) for i in range(n)}
        for g in ideal.gens:
            _check_shift(g, bind)
            gens.append(g.substitute(bind, full))
    eta = [full.var(q) for q in range(n, full.arity)]
    red = linear_reduce(full, gens, full.arity, aux=eta)
    return _Product(red.trail, Ideal(red.ring, red.gens), red.aux, sum(dims), min(dims))


def _to_base(trail, ideal: Ideal, base: Ring) -> Ideal:
    """Map an ideal on a reduced product ring back to the base ring: add the
    eliminating generators of the trail, then restrict to the diagonal, where
    every eta variable (every name outside the base ring) is zero."""

    def down(p: Polynomial) -> Polynomial:
        eta = {i: base.zero() for i, nm in enumerate(p.ring.names) if nm not in base._index}
        return p.substitute(eta, base)

    gens = [down(g) for g in (*ideal.groebner(), *trail)]
    return Ideal(base, [g for g in gens if not g.is_zero()])


def _shears(count: int, rng: random.Random, retries: int):
    """Identity first, then random integer matrices; a singular one fails
    the cut checks, since one of its forms is zero or in the earlier cuts."""
    yield None  # identity
    for _ in range(retries):
        yield [[rng.randint(-3, 3) for _ in range(count)] for _ in range(count)]


def _cut_combo(prod: _Product, seed: int) -> None:
    """Certify the diagonal cuts of one product under the first shear that
    passes: each form lies in no component of the cuts before it, and each
    but the last drops the dimension by one (the last cut is the meet, whose
    dimension the caller checks).  GenericityError when no shear passes."""
    # integer-derived stream, decoupled from the Vogel draws for the same seed
    rng = random.Random(seed * 0x9E3779B97F4A7C15 + 0x5EA8)
    failures = []
    for mat in _shears(len(prod.eta), rng, SHEAR_RETRIES):
        cur = prod.space
        forms = prod.eta if mat is None else [_combos(prod.eta, row, cur.ring) for row in mat]
        for i, form in enumerate(forms, start=1):
            if form.is_zero() or cur.saturate_poly(form) != cur:
                failures.append("component inside the divisor")
                break
            if i < len(forms):
                cur = cur + (form,)
                if cur.krull_dimension() != prod.dim - i:
                    failures.append(f"cut dropped dimension to {cur.krull_dimension()}")
                    break
        else:
            return
    raise GenericityError(
        f"no shear passed the cut checks: {failures[-SHEAR_RETRIES:]}"
    )


def cycle_local_mult(cycle: CycleRep, point: AffinePoint | None = None) -> int:
    """Local multiplicity of a cycle at a point: coefficient-weighted
    Hilbert-Samuel multiplicities of the parts through the point."""
    total = 0
    for ideal, c in cycle.parts:
        expected = ideal.krull_dimension()
        ld, m = local_dim_mult(ideal, point)
        if ld == expected:
            total += c * m
    return total


def _part_products(cycles, point: AffinePoint | None = None):
    """The common ring, and (product, coefficient product) for each combination
    of one part per cycle whose parts, moved to the point, are all nonempty;
    InputError unless there are two or more cycles, all on one ring."""
    cycles = list(cycles)
    if len(cycles) < 2:
        raise InputError("need at least two cycles")
    ring = cycles[0].ring
    if any(z.ring != ring for z in cycles):
        raise InputError("cycles from different rings")

    def walk():
        for combo in itertools.product(*[z.parts for z in cycles]):
            prod = _product([i for i, _ in combo], ring, point)
            if prod is not None:
                yield prod, math.prod(k for _, k in combo)

    return ring, walk()


@dataclass(frozen=True)
class ProperIntersection:
    cycle: CycleRep
    mult: int | None  # local multiplicity at the requested point


def proper_intersect(
    cycles,
    point: AffinePoint | None = None,
    seed: int = DEFAULT_SEED,
) -> ProperIntersection:
    """Proper intersection product of two or more cycles.

    Each combination of parts contributes its meet with the diagonal, once
    iterated divisor cuts by the diagonal forms (sheared when the checks
    demand it) certify it; the result is a cycle on the common ring together
    with its local multiplicity at the point.  Raises
    ImproperIntersectionError when a combination meets in excess dimension,
    InputError when it meets below the proper dimension (a part is not
    pure-dimensional).
    """
    ring, products = _part_products(cycles)
    out_parts = []
    for prod, coeff in products:
        # linear_reduce carries every aux form, zero ones included, so the
        # diagonal keeps all its (r - 1) * n forms and codimension
        expected = prod.dim - len(prod.eta)
        # the substitutions are isomorphisms, so the reduced ring gives the dimension
        meet = prod.space + prod.eta
        d_actual = meet.krull_dimension()
        if d_actual == -1:
            continue
        if d_actual != expected:
            msg = f"components meet in dimension {d_actual}, proper is {expected}"
            if d_actual > expected:
                raise ImproperIntersectionError(msg)
            # pure-dimensional parts never meet below it (affine dimension theorem)
            raise InputError(f"{msg}: a part is not pure-dimensional")
        _cut_combo(prod, seed)
        # the map back is an isomorphism of quotients, so a nonempty meet stays nonempty
        out_parts.append((_to_base(prod.trail, meet, ring), coeff))
    result = CycleRep(ring, tuple(out_parts))
    mult = cycle_local_mult(result, point) if point is not None else None
    return ProperIntersection(result, mult)


# -- pointwise intersection indices -------------------------------------------


@dataclass(frozen=True)
class ExtendedIndex:
    """Intersection index organized by component dimension.

    by_dim[d] is the mass in dimension d; by_codim counts down from the top
    dimension among the contributing parts.
    """

    by_dim: tuple[int, ...]
    stable: bool = True

    @property
    def n_top(self) -> int:
        return len(self.by_dim) - 1

    @property
    def total(self) -> int:
        return sum(self.by_dim)

    @property
    def by_codim(self) -> tuple[int, ...]:
        return tuple(reversed(self.by_dim))


@dataclass(frozen=True)
class PointPartReport:
    point: int
    fixed: tuple[tuple[Ideal, int, int], ...]  # (ideal, dimension, multiplicity)
    notes: tuple[str, ...]


# A piece is one summand of an index: the Segre data of (f) on X at a point,
# weighted by coeff and placed from dimension dim down; top is the dimension
# the piece offers the index, and back(k, ideal) maps a fixed codim-k part to
# the base ring together with its dimension.


def _cycle_pieces(f, cycle: CycleRep, point: AffinePoint | None):
    """The nonempty parts of a cycle, with (f) restricted to each."""
    for ideal, c in cycle.parts:
        n = ideal.krull_dimension()
        if n >= 0:
            yield f, ideal, point, c, n, n, lambda k, fid: (fid, fid.krull_dimension())


def _product_pieces(cycles, point: AffinePoint | None):
    """The part products at the point, with the diagonal forms on each."""
    ring, products = _part_products(cycles, point)
    back = None if point is None else point.negate()
    for prod, coeff in products:

        def to_base(k, fid, prod=prod):
            return _to_base(prod.trail, fid, ring).translate(back), prod.dim - k

        yield prod.eta, prod.space, None, coeff, prod.dim, prod.min_dim, to_base


def _index(pieces, trials: int, seed: int, bound: int) -> ExtendedIndex:
    by_dim: dict[int, int] = {}
    top = -1
    stable = True
    for f, X, point, coeff, dim, piece_top, _ in pieces:
        top = max(top, piece_top)
        res = segre_at(f, X, point, trials, seed, bound)
        stable = stable and res.stable
        for k, ek in enumerate(res.values):
            if ek:
                by_dim[dim - k] = by_dim.get(dim - k, 0) + coeff * ek
    return ExtendedIndex(tuple(by_dim.get(d, 0) for d in range(top + 1)), stable)


def _point_part(pieces, trials: int, seed: int, bound: int) -> PointPartReport:
    mass = 0
    fixed: list = []
    notes: list[str] = []
    for f, X, point, coeff, _, _, back in pieces:
        pp = point_part(f, X, point, trials, seed, bound)
        mass += coeff * pp.point
        notes.extend(pp.notes)
        for k, fid, m in pp.fixed:
            ideal, dim = back(k, fid)
            for i, (other, d, acc) in enumerate(fixed):
                if d == dim and other == ideal:
                    fixed[i] = (other, d, acc + coeff * m)
                    break
            else:
                fixed.append((ideal, dim, coeff * m))
    return PointPartReport(mass, tuple(fixed), tuple(notes))


def circ_index(
    f,
    cycle: CycleRep,
    point: AffinePoint | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> ExtendedIndex:
    """Restriction index A o Z at a point: Segre numbers of (f) on each part,
    aggregated by dimension."""
    return _index(_cycle_pieces(f, cycle, point), trials, seed, bound)


def tworzewski_index(
    cycles,
    point: AffinePoint | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> ExtendedIndex:
    """Pointwise Tworzewski product index of two or more cycles at x:
    diagonal Segre numbers on the product, multilinear in the parts."""
    return _index(_product_pieces(cycles, point), trials, seed, bound)


def tworzewski_point_part(
    cycles,
    point: AffinePoint | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> PointPartReport:
    """Coefficient of {x} in the Tworzewski product, with the positive-
    dimensional fixed components (mapped back to the base ring)."""
    return _point_part(_product_pieces(cycles, point), trials, seed, bound)


def restricted_point_part(
    f,
    cycle: CycleRep,
    point: AffinePoint | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> PointPartReport:
    """Point part of A o Z (valid as the product point part when V(A) is
    smooth): per-part Vogel point parts, aggregated."""
    return _point_part(_cycle_pieces(f, cycle, point), trials, seed, bound)


# -- implicitization ----------------------------------------------------------


def implicitize(components, param_ring: Ring, target_ring: Ring) -> Ideal:
    """Vanishing ideal of the closure of the image of t -> (gamma_1(t), ...).

    Components live in the parameter ring; the result lives in the target
    ring, whose arity must match the number of components.
    """
    components = param_ring.polys(components)
    if len(components) != target_ring.arity:
        raise InputError(
            f"{len(components)} components cannot parametrize a space of"
            f" dimension {target_ring.arity}"
        )
    combined = Ring(param_ring.names + target_ring.names)
    np = param_ring.arity
    gens = []
    for i, gamma in enumerate(components):
        z = combined.var(np + i)
        gens.append(z - gamma.substitute({}, combined))
    red = linear_reduce(combined, gens, np)
    leftover = range(np - len(red.trail))
    ideal = Ideal(red.ring, red.gens)
    if leftover:
        # the parameters left over come first, so what is left is the target ring
        ideal = ideal.eliminate(leftover)
    return Ideal._of(target_ring, ideal.groebner(), ideal._rows())
