"""Local invariants at a point: tangent cones, local dimension, multiplicity.

Standard bases are computed under the local order (negative degree
grevlex) by Mora's pair loop, ``_complete``, with Mora's normal form and
the Gebauer-Moeller pair criteria (Gebauer & Moeller, J. Symb. Comput. 6,
1988), which hold under local orders too (Greuel & Pfister, A Singular
Introduction to Commutative Algebra, 1.7).  Their local leads generate
the lead ideal of the tangent cone, so its Hilbert data, the local
dimension and Hilbert-Samuel multiplicity, needs no cone;
``tangent_cone`` alone takes lowest forms.  All of it runs on the int
term dicts of the ideal's generators (basis rows, for a sum or a
saturation).
"""

from __future__ import annotations

import heapq

from . import kernel
from .errors import InputError
from .groebner import Ideal, _det_key, _minimalize, _reduced_groebner, hilbert_of_leads
from .orders import LOCAL, block_order
from .ring import AffinePoint

# Mora reduction occasionally runs away (degree/coefficient blow-up on
# unlucky inputs, with per-step cost growing as the coefficients swell);
# past this many steps per normal form we abandon it and recompute through
# homogenization, which terminates under a global order.  Healthy local
# reductions finish in far fewer steps; a false trip only costs speed.
# Measured over the benchmark workloads (at most 20 steps) and the
# hypothesis strategies of the local and Vogel tests (median 2, 99th
# percentile 67 of 6463 normal forms); the runaways seen there pass 20 000-bit
# coefficients by step 170, and at a limit of 400 one of them ran for minutes.
# The healthy forms past 100 steps send their basis to Lazard, which took at
# most 17 ms more on each than Mora at 400 (README, "Notes on the local
# engine").
MORA_STEP_LIMIT = 100


def standard_basis(gens, prefix=()) -> list[dict]:
    """Standard basis (primitive int dicts) under the local order of the
    ideal that the int term dicts gens generate, together with prefix, when
    given: a basis this returned for the ideal of the first generators.

    [1] when a generator has a constant term or prefix is [1] (a unit at the
    origin; no other basis this returns has a constant term); else Mora's
    loop from the prefix, or, if a reduction exceeds its step budget, Lazard
    homogenization of prefix and gens (one fresh variable,
    elimination-block order).
    """
    one = next((e for z in (*prefix[:1], *gens) for e in z if not any(e)), None)
    if one is not None:
        return [{one: 1}]
    basis = _complete(gens, prefix)
    return _standard_basis_lazard([*prefix, *gens]) if basis is None else basis


def _complete(gens, prefix=()) -> list[dict] | None:
    """Mora's standard basis loop under the local order, from the rows of
    prefix, a standard basis, followed by those of gens.

    Each element's row is (lead exp, lead coeff, ecart, primitive int term
    dict); ``kernel.mora_nf`` reduces an S-polynomial against the rows so
    far, {} when it vanishes, and None past ``MORA_STEP_LIMIT`` steps, when
    this returns None too.  Pairs (i, t), i < t, sit in a heap keyed once,
    when pushed, by (order key of the lcm of the leads, i, t): rows never
    change, so the key stays valid.  ``live`` maps the pending pairs to
    their lcms, and a popped pair it no longer holds is skipped.  No pair of
    two prefix rows is formed: their S-polynomials have standard
    representations by the prefix already, so they count as reduced (the
    chain argument of Gebauer & Moeller 1988).

    Pairs are pruned by the Gebauer-Moeller criteria when row t is added
    (Becker & Weispfenning's UPDATE).  B: a pending pair goes when lead(t)
    divides its lcm L and L is the lcm of t with neither side.  M and F: a
    new pair (i, t) goes when an earlier kept new pair's lcm divides its
    lcm or a later one's divides it properly, so the earliest of equal lcms
    stays.  Product: pairs with coprime leads witness in M and F, then go.
    The criteria rest on the syzygies of the leads alone, so they hold
    under any monomial order (Gebauer & Moeller 1988; Greuel & Pfister,
    1.7).  Returns the term dicts of the rows, in the order found, less
    each row whose lead that of another divides (the earliest of equal
    leads stays): the same lead ideal, so still a standard basis.
    """
    K = kernel.get()
    code = LOCAL.code
    G = [K.make_primitive(z) for z in gens if z]
    G.sort(key=lambda z: _det_key(z, LOCAL))

    def row(z):
        le = K.lead_exp(z, code, 0)
        return (le, z[le], max(sum(e) for e in z) - sum(le), z)

    rows = [row(z) for z in (*prefix, *G)]
    pairs: list = []
    live: dict = {}

    def update(t):
        lt = rows[t][0]
        for (i, j), L in list(live.items()):
            if K.exp_div(L, lt) and K.exp_lcm(rows[i][0], lt) != L != K.exp_lcm(rows[j][0], lt):
                del live[i, j]
        new = [K.exp_lcm(r[0], lt) for r in rows[:t]]
        coprime = [L == K.exp_add(r[0], lt) for L, r in zip(new, rows)]
        kept = []
        for i, L in enumerate(new):
            if coprime[i] or not (
                any(K.exp_div(L, new[k]) for k in kept)
                or any(M != L and K.exp_div(L, M) for M in new[i + 1 :])
            ):
                kept.append(i)
        for i in kept:
            if not coprime[i]:
                live[i, t] = new[i]
                heapq.heappush(pairs, (LOCAL.key(new[i]), i, t))

    for t in range(len(prefix), len(rows)):
        update(t)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        li, lj = rows[i][0], rows[j][0]
        s = K.spoly(rows[i][-1], li, rows[i][1], rows[j][-1], lj, rows[j][1], code, 0)
        if not s:
            continue
        r = K.mora_nf(s, rows, code, 0, MORA_STEP_LIMIT)
        if r is None:
            return None
        if r:
            rows.append(row(r))
            update(len(rows) - 1)
    first: dict = {}
    for le, _, _, z in rows:
        first.setdefault(le, z)  # the earliest row of each lead
    keep = _minimalize(frozenset(first))
    return [z for le, z in first.items() if le in keep]


def _standard_basis_lazard(gens) -> list[dict]:
    """Standard basis through homogenization: lift each generator to a
    homogeneous polynomial with a fresh front variable, take a basis under
    the order that eliminates it (which on homogeneous input agrees with
    the homogenized local order), and set the variable back to 1."""
    hz = []
    for z in gens:
        top = max(map(sum, z), default=0)
        hz.append({(top - sum(e),) + e: c for e, c in z.items()})
    out = []
    for _, _, h in _reduced_groebner(hz, block_order(1)):
        terms: dict = {}
        for e, c in h.items():
            terms[e[1:]] = terms.get(e[1:], 0) + c
        z = {e: c for e, c in terms.items() if c}
        if z:
            out.append(kernel.get().make_primitive(z))
    out.sort(key=lambda z: _det_key(z, LOCAL))
    return out


def _local_basis(ideal: Ideal) -> list[dict]:
    """The standard basis of the ideal at the origin, computed once: kept in
    ``Ideal._local``, and for a sum I + (h) whose I still lives with its own
    (``Ideal._base``), completed from I's."""
    if ideal._local is None:
        base = ideal._base and ideal._base()
        if base is not None and base._local is not None:
            ideal._local = standard_basis(ideal._zgens(len(base._src)), base._local)
        else:
            ideal._local = standard_basis(ideal._zgens())
    return ideal._local


def tangent_cone(ideal: Ideal) -> Ideal:
    """Ideal of the tangent cone at the origin (lowest forms of a standard
    basis).  The input must already be translated so the point of interest is
    the origin; if the origin is not on V(I) the unit ideal is returned.
    """
    forms = []
    for z in _local_basis(ideal):
        d = min(map(sum, z))
        forms.append({e: c for e, c in z.items() if sum(e) == d})
    return Ideal._of(ideal.ring, forms)


def local_dim_mult(ideal: Ideal, point: AffinePoint | None = None) -> tuple[int, int]:
    """(local dimension, Hilbert-Samuel multiplicity) of V(I) at the point,
    read off the local leads of a standard basis.

    Points off the variety give (-1, 0), the Hilbert data of the unit ideal.
    The zero ideal gives (arity, 1).
    """
    lead = kernel.get().lead_exp
    basis = _local_basis(ideal.translate(point))
    hd = hilbert_of_leads([lead(z, LOCAL.code, 0) for z in basis], ideal.ring.arity)
    return (hd.dimension, hd.degree)


def colength(ideal: Ideal, point: AffinePoint | None = None) -> int:
    """Vector-space dimension of R/I for a zero-dimensional ideal.

    The point (default origin) must be an isolated point of V(I), checked by
    its local dimension; the count itself is the global staircase count, i.e. it
    sums the contributions of every point of V(I).
    """
    at = ideal.translate(point)
    hd = at.hilbert_data()
    if hd.dimension > 0:
        raise InputError(
            f"colength is infinite: the quotient has dimension {hd.dimension}"
        )
    ld, _ = local_dim_mult(at)
    if ld != 0:
        raise InputError("the point is not on V(I)")
    return hd.degree
