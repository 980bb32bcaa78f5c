"""Vogel sequences, Segre numbers and polar multiplicities.

Given generators f = (f_1, ..., f_m) of an ideal on a space X = V(I_X) and a
point x, a Vogel sequence h_1, ..., h_n (n = dim X) of random integer linear
combinations h_j = sum alpha_ji f_i drives the inductive cycle construction

    I_0 = I_X,   I_k^off = I_k : (f)^inf,   I_{k+1} = I_k^off + (h_{k+1}),

whose Z-part multiplicities at x (guarded by the expected dimension n - k)
give one trial vector.  The reported Segre numbers are the lexicographic
minimum of the trial vectors over certified sequences; polar multiplicities
are the same minimum taken over the off-part vectors.  ``_lex_min`` is the one
place the reported trial and its stability are chosen.  A sequence is
certified when, for every k >= 1, I_k^off = (I_X + (h_1..h_k)) : (f)^inf is
the unit ideal or has dimension exactly n - k; the runs reuse these I_k and
I_k^off.

Runs are pure functions of (f, X, point, trials, seed, bound): while the CLI
runs a command on a loaded problem, equal ``run_trials`` calls share runs
through that problem's memo (``sharing``), which keeps the last
``MEMO_CALLS`` distinct calls; library calls compute afresh every time.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field

from .errors import GenericityError, InputError, UnresolvedMovingSupportError
from .groebner import Ideal
from .localmult import local_dim_mult
from .ring import AffinePoint, Polynomial

DEFAULT_SEED = 101
DEFAULT_TRIALS = 4
DEFAULT_BOUND = 99
CERT_RETRIES = 64

_memo: dict | None = None  # the runs shared by run_trials, set only by sharing()
# Distinct run_trials calls whose runs a memo keeps, the least recent dropped
# first: a kept entry holds its runs' ideals as long as its problem lives, and
# the shipped files reuse a trial within one other trial call, but for one
# tworzewski line of bullet_nonassoc.
MEMO_CALLS = 2


@dataclass(frozen=True)
class VogelSequence:
    """A certified tuple h_1..h_n of combinations of the input generators."""

    alpha: tuple[tuple[int, ...], ...]
    elements: tuple[Polynomial, ...]
    off: tuple[Ideal, ...] = field(compare=False, repr=False)  # I_0^off..I_n^off
    sums: tuple[Ideal, ...] = field(compare=False, repr=False)  # I_1..I_n


@dataclass(frozen=True)
class VogelStep:
    k: int
    ideal: Ideal
    off: Ideal
    local_dim: int
    mult: int
    off_dim: int
    off_mult: int
    z_mult: int


class VogelRun:
    """The full cycle trace of one Vogel sequence, at the origin."""

    def __init__(self, sequence: VogelSequence, steps: list[VogelStep]):
        self.sequence = sequence
        self.steps = steps

    @property
    def mult_z(self) -> tuple[int, ...]:
        return tuple(s.z_mult for s in self.steps)

    @property
    def mult_off(self) -> tuple[int, ...]:
        return tuple(s.off_mult for s in self.steps)

    def inside(self, k: int) -> Ideal:
        """The Z-part ideal I_k : (I_k^off)^inf of step k."""
        step = self.steps[k]
        if step.off.is_zero():
            return Ideal(step.ideal.ring, (step.ideal.ring.one(),))
        if step.off.is_unit():
            return step.ideal
        return step.ideal.saturate(step.off)


def _combos(f: list[Polynomial], alpha_row, ring) -> Polynomial:
    h = ring.zero()
    for a, p in zip(alpha_row, f):
        if a:
            h = h + p.scale(a)
    return h


def _certify(h: list[Polynomial], off0: Ideal, fid: Ideal, n: int):
    """The sums I_k = off_{k-1} + (h_k) and the chain from off_0 = X : fid^inf
    (dim X = n), off_k = I_k : fid^inf, up to the first k whose off_k is
    neither (1) nor of dimension n - k; (sums, chain, that k or None)."""
    sums, chain = [], [off0]
    for k, p in enumerate(h, start=1):
        sums.append(chain[-1] + (p,))
        off = sums[-1].saturate(fid)
        chain.append(off)
        if not off.is_unit() and off.krull_dimension() != n - k:
            return tuple(sums), tuple(chain), k
    return tuple(sums), tuple(chain), None


def verify_vogel_condition(h, X: Ideal, J: Ideal) -> tuple[bool, int | None]:
    """Check the inductive cut condition for given elements h_1..h_k of J:
    each partial family must cut the off-J locus properly.  Returns
    (True, None) or (False, first failing k)."""
    h = X.ring.polys(h)
    for p in h:
        if not J.contains(p):
            raise InputError("h must consist of elements of J")
    *_, bad = _certify(h, X.saturate(J), J, X.krull_dimension())
    return bad is None, bad


def random_vogel_sequence(
    f,
    X: Ideal,
    rng: random.Random,
    bound: int = DEFAULT_BOUND,
) -> VogelSequence:
    """Draw integer coefficient rows in [-bound, bound] until certified."""
    if not isinstance(bound, int) or bound < 1:
        raise InputError(f"the coefficient bound must be an integer of at least 1, not {bound!r}")
    ring = X.ring
    n = X.krull_dimension()
    if n < 0:
        raise InputError("the space ideal is the unit ideal")
    f = ring.polys(f)
    nonzero = [p for p in f if not p.is_zero()]
    if not nonzero:
        unit = Ideal(ring, (ring.one(),))  # no point lies off V(0)
        return VogelSequence(((0,) * len(f),) * n, (ring.zero(),) * n, (unit,) * (n + 1), (unit,) * n)
    fid = Ideal(ring, nonzero)
    off0 = X.saturate(fid)
    last_bad = None
    for _ in range(CERT_RETRIES):
        alpha = tuple(
            tuple(rng.randint(-bound, bound) for _ in f) for _ in range(n)
        )
        h = [_combos(f, row, ring) for row in alpha]
        if any(p.is_zero() for p in h):
            continue
        sums, chain, bad = _certify(h, off0, fid, n)
        if bad is None:
            return VogelSequence(alpha, tuple(h), chain, sums)
        last_bad = bad
    raise GenericityError(
        f"no certified Vogel sequence in {CERT_RETRIES} draws (failing codim {last_bad})"
    )


def _step_mass(ideal: Ideal, expected: int, k: int, what: str) -> tuple[int, int]:
    """Local dimension at the origin and the multiplicity counted only in the
    expected dimension; GenericityError above it."""
    ld, m = local_dim_mult(ideal)
    if ld > expected:
        raise GenericityError(f"step {k}{what} has local dimension {ld} > {expected}")
    return ld, m if ld == expected else 0


def vogel_run(X: Ideal, sequence: VogelSequence) -> VogelRun:
    """Run the cycle construction for one sequence; everything at the origin."""
    n = len(sequence.elements)
    steps: list[VogelStep] = []
    for k, (cur, off) in enumerate(zip((X, *sequence.sums), sequence.off)):
        ld, mult = _step_mass(cur, n - k, k, "")
        # a saturation that removes nothing returns its ideal: same mass
        old, off_mult = (ld, mult) if off is cur else _step_mass(off, n - k, k, " off-part")
        steps.append(VogelStep(k, cur, off, ld, mult, old, off_mult, mult - off_mult))
    return VogelRun(sequence, steps)


def _translated(f, X: Ideal, point: AffinePoint | None):
    return [p.translate(point) for p in X.ring.polys(f)], X.translate(point)


def run_trials(
    f,
    X: Ideal,
    point: AffinePoint | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    bound: int = DEFAULT_BOUND,
) -> list[VogelRun]:
    """Certified runs for consecutive draws of one seeded stream."""
    if not isinstance(trials, int) or trials < 1:
        raise InputError(f"trials must be an integer of at least 1, not {trials!r}")
    ft, Xt = _translated(f, X, point)
    memo = _memo
    if memo is not None:
        # the ring is in the key because the zero ideal has no generators
        key = (tuple(ft), Xt.ring, Xt.gens, trials, seed, bound)
        if key in memo:
            memo[key] = memo.pop(key)  # now the most recent
            return list(memo[key])
    rng = random.Random(seed)
    runs = []
    for _ in range(trials):
        seq = random_vogel_sequence(ft, Xt, rng, bound)
        runs.append(vogel_run(Xt, seq))
    if memo is not None:
        memo[key] = tuple(runs)
        if len(memo) > MEMO_CALLS:
            del memo[next(iter(memo))]
    return runs


@contextlib.contextmanager
def sharing(memo: dict):
    """Inside the block, equal run_trials calls share the runs kept in ``memo``;
    callers only read runs, so one set can serve them all."""
    global _memo
    previous, _memo = _memo, memo
    try:
        yield
    finally:
        _memo = previous


@dataclass(frozen=True)
class MultResult:
    """Lex-min multiplicity vector over trials, with the per-trial vectors."""

    values: tuple[int, ...]
    stable: bool
    trial_vectors: tuple[tuple[int, ...], ...]
    runs: list = field(compare=False, repr=False, default=None)


def _lex_min(runs, vectors) -> MultResult:
    """The reported result: the lexicographic minimum of the trial vectors,
    stable when at least two trials reach it."""
    best = min(vectors)
    return MultResult(best, vectors.count(best) >= 2, tuple(vectors), runs)


def segre_at(f, X, point=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, bound=DEFAULT_BOUND) -> MultResult:
    """Segre numbers (e_0, ..., e_n) of (f) on X at the point."""
    runs = run_trials(f, X, point, trials, seed, bound)
    return _lex_min(runs, [r.mult_z for r in runs])


def polar_at(f, X, point=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, bound=DEFAULT_BOUND) -> MultResult:
    """Polar multiplicities (m_0, ..., m_n): the off-part masses at the point."""
    runs = run_trials(f, X, point, trials, seed, bound)
    return _lex_min(runs, [r.mult_off for r in runs])


@dataclass(frozen=True)
class FixedCodim:
    k: int
    expected_dim: int
    status: str  # "none" | "fixed" | "moving"
    ideal: Ideal | None
    dim: int | None


@dataclass(frozen=True)
class FixedReport:
    per_codim: tuple[FixedCodim, ...]


def _merged_inside(runs, k) -> Ideal | None:
    """Sum of the trial Z-part ideals at codim k; None when all are empty."""
    parts = [r.inside(k) for r in runs]
    if all(p.is_unit() for p in parts):
        return None
    ring = parts[0].ring
    rows = Ideal._of(ring, [r for p in parts for r in p._rows()])._rows()
    return Ideal._of(ring, rows, rows)


def fixed_support(f, X, point=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, bound=DEFAULT_BOUND) -> FixedReport:
    """Classify the Z-part in each codimension as fixed or moving.

    F_k is the sum over trials of the step-k Z-part ideals; its variety is
    the intersection of the trial supports.  A codim-k part is fixed when
    V(F_k) still has dimension dim X - k, moving when the intersection drops
    dimension (or is empty while some trial had mass).
    """
    if isinstance(trials, int) and trials < 2:  # run_trials rejects the rest
        raise InputError("fixed/moving classification needs at least 2 trials")
    runs = run_trials(f, X, point, trials, seed, bound)
    back = None if point is None else point.negate()
    n = len(runs[0].steps) - 1
    entries = []
    for k in range(n + 1):
        expected = n - k
        merged = _merged_inside(runs, k)
        if merged is None:
            entries.append(FixedCodim(k, expected, "none", None, None))
            continue
        if merged.is_unit():
            entries.append(FixedCodim(k, expected, "moving", None, None))
            continue
        d = merged.krull_dimension()
        status = "fixed" if d == expected else "moving"
        entries.append(FixedCodim(k, expected, status, merged.translate(back), d))
    return FixedReport(tuple(entries))


@dataclass(frozen=True)
class PointPart:
    """Decomposition of the total Segre mass at x into the point coefficient
    and positive-dimensional fixed components."""

    point: int
    e: tuple[int, ...]
    fixed: tuple[tuple[int, Ideal, int], ...]  # (codim, ideal, multiplicity)
    notes: tuple[str, ...]


def point_part(f, X, point=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, bound=DEFAULT_BOUND) -> PointPart:
    """Point coefficient of the Segre/Vogel class at x.

    Total mass sum(e_k) minus the mass sitting on positive-dimensional fixed
    components through x.  Moving mass in positive expected dimension is
    point-supported for a generic limit and is counted into the point with a
    note; a fixed support of intermediate dimension is ambiguous and raises
    UnresolvedMovingSupportError.
    """
    if isinstance(trials, int) and trials < 2:  # run_trials rejects the rest
        raise InputError("point-part needs at least 2 trials")
    res = segre_at(f, X, point, trials, seed, bound)
    e, runs = res.values, res.runs
    n = len(e) - 1
    mass = 0
    fixed = []
    notes = []
    for k in range(n + 1):
        ek = e[k]
        if ek == 0:
            continue
        expected = n - k
        if expected == 0:
            mass += ek
            continue
        merged = _merged_inside(runs, k)
        ld, m_fix = (-1, 0) if merged is None else local_dim_mult(merged)
        if ld == expected:
            m_eff = min(m_fix, ek)
            fixed.append((k, merged, m_eff))
            if ek > m_eff:
                mass += ek - m_eff
                notes.append(
                    f"codim {k}: moving remainder {ek - m_eff} assumed point-supported"
                )
        elif ld <= 0:
            mass += ek
            if ld == 0:
                notes.append(
                    f"codim {k}: persistent support is the point itself"
                )
            else:
                notes.append(
                    f"codim {k}: moving mass {ek} assumed point-supported"
                )
        else:
            raise UnresolvedMovingSupportError(
                f"codim {k}: fixed support has dimension {ld}, expected {expected} or 0"
            )
    back = None if point is None else point.negate()
    fixed = [(k, ideal.translate(back), m) for k, ideal, m in fixed]
    return PointPart(mass, e, tuple(fixed), tuple(notes))
