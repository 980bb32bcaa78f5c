"""Groebner bases and ideal arithmetic over Q.

Generators are added one at a time to a reduced basis, the F5C shape
(Eder and Perry 2010): the basis starts as the seeded prefix, possibly
empty, and after each generator it is interreduced (minimal, tail-reduced)
before the next is added.  Each step is a signature-based completion
(Faugere 2002; Eder and Faugere 2017, the RB algorithm): an element of the
step carries a signature, the monomial m with which m*f, f the generator
being added, heads its representation, compared under the target order;
the basis rows sit below every signature.  Pairs are taken in increasing
signature, at most one per signature, and a pair whose two sides have equal
signatures is never formed.  Three criteria drop a signature: it is
divisible by a basis lead (Koszul), by the signature of a principal syzygy
of two new elements, or by that of an earlier reduction to zero; and a pair
is dropped when its larger side is not the rewriter of its signature under
the ratio rewrite order.  Reduction is regular: a row may cancel the lead E
of an element of signature sigma only when its multiple x^(E - lead) sits
below sigma in signature.  When each generator is a nonzerodivisor modulo
the basis it is added to, as for generic dense systems, a Koszul signature
divides every syzygy signature and no S-polynomial reduces to zero (Faugere
2002).  The output is the reduced basis, unique for the ideal and
the order, so it is the one any correct completion gives.
A sum ``I + (h)`` starts from I's cached basis.  Every elimination is one
block(nd) completion of int term dicts whose nd front variables are dropped,
and ``_eliminated`` keeps its rows free of them: a fresh t in front for
I : g^inf = (I + (1 - t*g)) cap k[x], seeded with I's grevlex basis, and for
I cap K = (t*I + (1 - t)*K) cap k[x]; the dropped variables moved in front
for ``Ideal.eliminate``.  Mora's local standard bases (``localmult``) keep
their own Buchberger pair loop.
All reductions run fraction-free over int through the kernel backends, with
content removed as coefficients grow.  An ideal caches each reduced basis as
the kernel's rows (lead, lead coeff, primitive int term dict), sorted by
decreasing lead, lead coeff positive, so they are the monic basis up to that
coeff and equal ideals have equal rows under a fixed order.  Sums,
saturations, eliminations, membership, equality and the Hilbert data read
the rows; Fraction Polynomials are built once, and only for ``Ideal.gens``
and the public ``Ideal.groebner``.  The grevlex basis is the canonical one
used for equality tests and printed reports.  Dimension and degree both come
from the Hilbert series of the grevlex lead ideal, computed once per ideal.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernel
from .errors import InputError
from .orders import GREVLEX, MonomialOrder, block_order
from .ring import AffinePoint, Polynomial, Ring


def _to_int_terms(p: Polynomial) -> tuple[dict, Fraction]:
    """Split p as scale * primitive-int-dict (scale Fraction, dict content 1)."""
    if not p.terms:
        return {}, Fraction(1)
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    q = {e: int(c * den) for e, c in p.terms.items()}
    g = 0
    for v in q.values():
        g = gcd(g, v)
    if g > 1:
        q = {e: v // g for e, v in q.items()}
        return q, Fraction(g, den)
    return q, Fraction(1, den)


def _zpoly(p: Polynomial) -> dict:
    return _to_int_terms(p)[0]


def _from_int_terms(ring: Ring, z: dict, scale=Fraction(1)) -> Polynomial:
    """scale * z for an int term dict z with no zero coefficient, each
    coefficient built as one Fraction."""
    n, d = scale.numerator, scale.denominator
    return Polynomial._make(ring, {e: Fraction(c * n, d) for e, c in z.items()})


def _det_key(z: dict, order: MonomialOrder):
    return (order.key(max(z, key=order.key)), len(z), sorted(z.items()))


def _interreduce(old: list, new: list, order: MonomialOrder) -> list:
    """The reduced basis of the ideal that old, rows (lead, lead coeff,
    primitive int term dict) of a reduced basis, and the rows new of a
    ``_signature_step`` on it generate: drop every row whose lead another
    kept lead divides, then tail-reduce each kept row against the others and
    make its lead coeff positive.  Sorted by decreasing lead, one-to-one
    with the monic reduced basis.

    No old lead divides a term of another old row or of a new row (the step
    reduced them by every old row), and under a global order no lead divides
    another term of its own row.  So only new leads drop rows, and a row is
    tail-reduced only when a kept new lead divides one of its terms other
    than its lead; otherwise it is what reduce_full would return, its terms
    largest first.  Each row of the step, and of a reduced basis of two rows
    or more, has that order already, since reduce_full made it; a lone old
    row is sorted."""
    K = kernel.get()
    key, div = order.key, K.exp_div
    fresh = {id(r) for r in new}
    kept, leads = [], []  # leads: those of the kept new rows
    for r in sorted(old + new, key=lambda r: key(r[0])):
        if not any(div(r[0], n) for n in leads):
            kept.append(r)
            if id(r) in fresh:
                leads.append(r[0])
    out = []
    for i, (le, lc, z) in enumerate(kept):
        if any(div(e, n) for e in z if e != le for n in leads):
            others = kept[:i] + kept[i + 1 :]
            z = K.make_primitive(dict(K.reduce_full(z, others, order.code, order.block)[0]))
            lc = z[le]
        elif len(old) == 1 and kept[i] is old[0]:
            z = dict(sorted(z.items(), key=lambda t: key(t[0]), reverse=True))
        if lc < 0:
            lc, z = -lc, {e: -c for e, c in z.items()}
        out.append((le, lc, z))
    out.sort(key=lambda r: key(r[0]), reverse=True)
    return out


def _signature_step(f: dict, old: list, order: MonomialOrder) -> list:
    """Rows that extend the reduced basis old (rows as ``_interreduce``
    returns them) to a Groebner basis of old + (f): one F5C step.

    Each new element carries a signature s, an exponent standing for the
    multiple x^s * f it reduces from; old rows sit below every signature.
    Pairs wait in a heap keyed by the signature sigma of their larger side
    (the generating side); at most one S-polynomial is reduced per sigma, and
    a pair whose sides have equal signatures is never formed.  A pair is
    dropped when sigma is divisible by an old lead (Koszul), by the
    signature of a principal syzygy of two new elements, or by that of an
    earlier reduction to zero (checked when pushed, the syzygies again when
    popped); or when its generating side is not the rewriter of sigma:
    among the new elements c with s_c | sigma, the one with the smallest
    lead of x^(sigma - s_c) * c, the newest on ties (the ratio rewrite order
    of Eder and Faugere 2017).  Reduction is regular: by the old rows and
    the new rows d with x^(E - l_d) * d below sigma in signature, E the
    current lead and l_d that of d.  Every order here is a group order on
    exponent vectors, so that is E < sigma + l_d - s_d, one add and one key
    per row and pop, with l_d - s_d kept from the push.  The set grows as E
    falls, so reduce_full runs again only while it grows; it returns its
    terms largest first, so E is the first.  A result whose lead a new row
    reduces at signature exactly sigma is redundant and dropped; a zero
    result's sigma is a syzygy.  The signatures and syzygies live only as
    long as the step.
    """
    K = kernel.get()
    code, block, key = order.code, order.block, order.key
    add, sub, div = K.exp_add, K.exp_sub, K.exp_div
    if not old:
        le = K.lead_exp(f, code, block)
        return [(le, f[le], f)]
    f = K.make_primitive(K.reduce_full(f, old, code, block)[0])
    if not f:
        return []
    sigs: list = []
    offs: list = []  # l - s per new row
    rows: list = []
    syz: list = []
    pairs: list = []

    def dead(s):  # a Koszul or known syzygy signature divides s
        return any(div(s, r[0]) for r in old) or any(div(s, y) for y in syz)

    def push(sig, z, le):
        t = len(rows)
        for k, (lk, _, _) in enumerate(old):
            s = add(sig, sub(K.exp_lcm(le, lk), le))
            if not dead(s):
                heapq.heappush(pairs, (key(s), s, t, -1 - k))
        for i in range(t):
            li, si = rows[i][0], sigs[i]
            L = K.exp_lcm(le, li)
            a, b = add(si, sub(L, li)), add(sig, sub(L, le))
            if a == b:
                continue
            p = max((key(a), a, i, t), (key(b), b, t, i))
            # the principal syzygy's signature: the larger side times gcd of the leads
            y = add(p[1], sub(add(le, li), L))
            if not dead(y):
                syz.append(y)
            if not dead(p[1]):
                heapq.heappush(pairs, p)
        sigs.append(sig)
        offs.append(sub(le, sig))
        rows.append((le, z[le], z))

    push((0,) * len(next(iter(f))), f, next(iter(f)))
    last = None
    while pairs:
        _, sig, g, o = heapq.heappop(pairs)
        if sig == last or any(div(sig, y) for y in syz):
            continue
        bounds = [key(add(sig, d)) for d in offs]  # x^(sigma - s_c) * c's lead
        if min((b, -c) for c, (b, s) in enumerate(zip(bounds, sigs)) if div(sig, s))[1] != -g:
            continue
        last = sig
        (lg, cg, zg), (lo, co, zo) = rows[g], (rows[o] if o >= 0 else old[-1 - o])
        h = K.spoly(zg, lg, cg, zo, lo, co, code, block)
        E = K.lead_exp(h, code, block) if h else None
        red = None
        while h:
            kE = key(E)
            now = old + [r for r, b in zip(rows, bounds) if kE < b]
            if red is not None and len(now) == len(red):
                break
            red = now
            h = K.make_primitive(K.reduce_full(h, red, code, block)[0])
            E = next(iter(h), None)
        if not h:
            syz.append(sig)
        elif not any(div(E, r[0]) and E == add(sig, d) for r, d in zip(rows, offs)):
            push(sig, h, E)
    return rows


def _reduced_groebner(zgens: list[dict], order: MonomialOrder, prefix=()) -> tuple:
    """Reduced Groebner basis as ``_interreduce`` rows, lead coeff positive
    and sorted by decreasing lead.  prefix, such rows of a reduced basis
    under order, is the basis the generators are added to."""
    G = [kernel.get().make_primitive(dict(z)) for z in zgens if z]
    G.sort(key=lambda z: _det_key(z, order))
    basis = list(prefix)
    for f in G:
        new = _signature_step(f, basis, order)
        if new:
            basis = _interreduce(basis, new, order)
    return tuple(basis)


def _eliminated(ring: Ring, rows, nd: int) -> "Ideal":
    """(rows) cap ring, for rows a reduced block(nd) basis over nd front
    variables followed by ring's: the one owner of every elimination.  A row
    whose lead is free of the front block is free of it, and block(nd)
    restricts to grevlex on the rest, so those rows are the reduced grevlex
    basis, in its order."""
    kept = tuple(
        (le[nd:], c, {e[nd:]: v for e, v in z.items()}) for le, c, z in rows if not any(le[:nd])
    )
    return Ideal._of(ring, kept, kept)


def normal_form(p: Polynomial, gens, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of p on division by the given polynomials (exact, Fraction).

    Canonical (depends only on the ideal) when gens is a Groebner basis for
    the order; otherwise some remainder under the fixed reduction strategy.
    """
    K = kernel.get()
    basis = []
    for z in filter(None, map(_zpoly, p.ring.polys(gens))):
        le = K.lead_exp(z, order.code, order.block)
        basis.append((le, z[le], z))
    return _nf(p, basis, order)


def _nf(p: Polynomial, rows, order: MonomialOrder) -> Polynomial:
    """Remainder of p on division by the kernel rows, under order."""
    z, scale = _to_int_terms(p)
    if not z:
        return p.ring.zero()
    r, mn, md = kernel.get().reduce_full(z, rows, order.code, order.block)
    return _from_int_terms(p.ring, r, scale * Fraction(md, mn))


def exact_div(p: Polynomial, g: Polynomial) -> Polynomial:
    """p / g when g divides p exactly; InputError otherwise.  The remainder
    is one dict whose grevlex leads come off a heap, never to come back."""
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    glead = max(g.terms, key=GREVLEX.key)
    gc = g.terms[glead]
    tail = [(e, c / gc) for e, c in g.terms.items() if e != glead]
    rem = dict(p.terms)
    heap = [(-sum(e), e[::-1]) for e in rem]  # smallest entry = grevlex lead
    heapq.heapify(heap)
    q: dict = {}
    while heap:
        e = heapq.heappop(heap)[1][::-1]
        c = rem.pop(e)
        if not c:
            continue
        de = tuple(a - b for a, b in zip(e, glead))
        if any(x < 0 for x in de):
            raise InputError("inexact polynomial division")
        q[de] = c / gc
        for te, tc in tail:
            m = tuple(a + b for a, b in zip(de, te))
            if m not in rem:
                rem[m] = 0
                heapq.heappush(heap, (-sum(m), m[::-1]))
            rem[m] -= c * tc
    return Polynomial(p.ring, q)


def _poly_of(ring: Ring, g) -> Polynomial:
    """A generator as a Polynomial: a kernel row as its monic basis element,
    an int term dict with its own coefficients."""
    if isinstance(g, tuple):
        return _from_int_terms(ring, g[2], Fraction(1, g[1]))
    return g if isinstance(g, Polynomial) else _from_int_terms(ring, g)


class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases, kept as
    kernel rows (``_rows``).  Generators are kept as they came (``_src``):
    Polynomials, kernel rows or int term dicts; ``gens`` and ``groebner``
    build Polynomials once, when first asked.  A sum I + (h) seeds its bases,
    the standard basis at the origin (``_local``) too, from I's while I lives
    (``_base``, a weakref)."""

    __slots__ = (
        "ring", "_src", "_gens", "_z", "_gb", "_polys", "_hilbert", "_local", "_base",
        "__weakref__",
    )

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        self._src = self._gens = tuple(g for g in ring.polys(gens) if not g.is_zero())
        self._z = None
        self._gb: dict = {}
        self._polys: dict | None = None
        self._hilbert = None
        self._local = None  # the standard basis at the origin, see localmult
        self._base = None

    @classmethod
    def _of(cls, ring: Ring, src, rows=None, base=None) -> "Ideal":
        """The ideal src generates, src as ``_src`` holds it; rows, when
        given, is its reduced grevlex basis; base, when given, is the ideal
        of src's first generators, whose bases seed this one's."""
        out = cls(ring, ())
        out._src, out._gens = tuple(src), None
        if rows is not None:
            out._gb[GREVLEX] = rows
        out._base = base and weakref.ref(base)
        return out

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        if self._gens is None:
            self._gens = tuple(_poly_of(self.ring, g) for g in self._src)
        return self._gens

    def _zgens(self, start: int = 0) -> list[dict]:
        """The generators from start on as int term dicts, converted once;
        callers read the dicts and never change them."""
        if self._z is None:
            self._z = [
                _zpoly(g) if isinstance(g, Polynomial) else g[2] if isinstance(g, tuple) else g
                for g in self._src
            ]
        return self._z[start:]

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"

    # -- bases ---------------------------------------------------------------

    def _rows(self, order: MonomialOrder = GREVLEX) -> tuple:
        """The reduced basis under order as ``_reduced_groebner`` rows,
        computed once; every consumer inside the package reads these."""
        rows = self._gb.get(order)
        if rows is None:
            if order.block > self.ring.arity:
                raise InputError(f"{order} eliminates {order.block} of {self.ring.arity} variables")
            base = self._base and self._base()
            prefix = base._gb.get(order, ()) if base else ()
            zgens = self._zgens(len(base._src) if prefix else 0)
            rows = self._gb[order] = _reduced_groebner(zgens, order, prefix)
        return rows

    def groebner(self, order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
        """Reduced monic Groebner basis, sorted by decreasing lead."""
        self._polys = self._polys or {}
        if order not in self._polys:
            self._polys[order] = tuple(_poly_of(self.ring, r) for r in self._rows(order))
        return self._polys[order]

    def leading_exponents(self, order: MonomialOrder = GREVLEX) -> tuple:
        return tuple(r[0] for r in self._rows(order))

    def canonical_strings(self) -> list[str]:
        return [str(_poly_of(self.ring, r)) for r in self._rows()]

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._src

    def is_unit(self) -> bool:
        rows = self._rows()
        return len(rows) == 1 and not any(rows[0][0])

    def _check_ring(self, p: Polynomial):
        if p.ring != self.ring:
            raise InputError("polynomial from a different ring")

    def _holds(self, z: dict) -> bool:
        return not z or not kernel.get().reduce_full(z, self._rows(), GREVLEX.code, 0)[0]

    def contains(self, p: Polynomial) -> bool:
        self._check_ring(p)
        return self._holds(_zpoly(p))

    def contains_ideal(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            raise InputError("ideals from different rings")
        return all(self._holds(z) for z in other._zgens())

    def normal_form(self, p: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        self._check_ring(p)
        return _nf(p, self._rows(order), order)

    def radical_contains(self, p: Polynomial) -> bool:
        """Membership in the radical: p lies in rad(I) iff I : p^inf = (1)."""
        self._check_ring(p)
        if p.is_zero():
            return True
        return self.saturate_poly(p).is_unit()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self._rows() == other._rows()

    def __hash__(self):
        return hash((self.ring, tuple(frozenset(r[2].items()) for r in self._rows())))

    # -- constructions ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Ideal):
            other = Ideal(self.ring, other)
        elif other.ring != self.ring:
            raise InputError("ideals from different rings")
        return Ideal._of(self.ring, self._src + other._src, base=self)

    def translate(self, point: AffinePoint | None) -> "Ideal":
        """Generators composed with z -> z + x, moving x to the origin.

        No point, or the origin, gives this ideal itself, cached bases and all.
        """
        if point is not None and point.ring != self.ring:
            raise InputError("point from a different ring")
        if point is None or point.is_origin():
            return self
        return Ideal(self.ring, tuple(g.translate(point) for g in self.gens))

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap K: the smaller ideal itself when one contains the other (read
        off the cached grevlex bases, as on equal saturations), otherwise
        (t*I + (1-t)*K) cap k[x], one elimination of a fresh t."""
        if other.ring != self.ring:
            raise InputError("ideals from different rings")
        if self.contains_ideal(other):
            return other
        if other.contains_ideal(self):
            return self
        gens = [{(1,) + e: c for e, c in z.items()} for z in self._zgens()]
        for z in other._zgens():
            gens.append({(0,) + e: c for e, c in z.items()} | {(1,) + e: -c for e, c in z.items()})
        return _eliminated(self.ring, _reduced_groebner(gens, block_order(1)), 1)

    def quotient(self, g: Polynomial) -> "Ideal":
        """Ideal quotient I : g."""
        if g.is_zero():
            raise InputError("quotient by the zero polynomial")
        if self.is_zero():
            return self
        meet = self.intersect(Ideal(self.ring, (g,)))
        return Ideal(self.ring, tuple(exact_div(h, g) for h in meet.gens))

    def saturate_poly(self, g: Polynomial) -> "Ideal":
        """I : g^inf, which is I : z^inf for g's primitive int terms z."""
        self._check_ring(g)
        if g.is_zero():
            raise InputError("saturation by the zero polynomial")
        return self._saturate_by(_zpoly(g))

    def _saturate_by(self, z: dict) -> "Ideal":
        """I : z^inf = (I + (1 - t*z)) cap k[x] for a nonzero int term dict z:
        one elimination of a fresh t, 1 - t*z added to I's grevlex rows, which
        block(1) orders alike since no term has t."""
        lifted = tuple(
            ((0,) + le, c, {(0,) + e: v for e, v in w.items()}) for le, c, w in self._rows()
        )
        one_tz = {(0,) * (self.ring.arity + 1): 1}
        one_tz.update(((1,) + e, -v) for e, v in z.items())
        return _eliminated(self.ring, _reduced_groebner([one_tz], block_order(1), lifted), 1)

    def saturate(self, other: "Ideal") -> "Ideal":
        """I : J^inf as the intersection of the per-generator saturations."""
        if other.ring != self.ring:
            raise InputError("ideals from different rings")
        zs = {frozenset(z.items()): z for z in other._zgens() if z}
        if not zs:
            raise InputError("saturation by the zero ideal")
        sats = []
        for z in zs.values():
            s = self._saturate_by(z)
            if s == self:
                # z is a nonzerodivisor mod I, so nothing saturates away
                return self
            if not s.is_unit():
                sats.append(s)
        if not sats:
            # every generator is nilpotent mod I, so some power of J lies in I
            return Ideal(self.ring, (self.ring.one(),))
        out = sats[0]
        for s in sats[1:]:
            out = out.intersect(s)
        return out

    def eliminate(self, var_indices) -> "Ideal":
        """Eliminate the given variables; result lives in the projected ring."""
        drop = list(var_indices)
        for i in drop:
            if not isinstance(i, int) or not 0 <= i < self.ring.arity:
                raise InputError(f"no variable with index {i!r}")
        drop = sorted(set(drop))
        keep = [i for i in range(self.ring.arity) if i not in drop]
        perm = drop + keep  # position p of the permuted terms holds old var perm[p]
        gens = [{tuple(e[i] for i in perm): c for e, c in z.items()} for z in self._zgens()]
        rows = _reduced_groebner(gens, block_order(len(drop)))
        return _eliminated(Ring(tuple(self.ring.names[i] for i in keep)), rows, len(drop))

    # -- numeric invariants ------------------------------------------------------

    def krull_dimension(self) -> int:
        """Dimension of V(I), read off the cached Hilbert data.

        Unit ideal gives -1; the zero ideal gives the ambient dimension.
        """
        return self.hilbert_data().dimension

    def hilbert_data(self) -> "HilbertData":
        """Hilbert data of the grevlex lead-term ideal.  Its dimension is that
        of I; the rest is that of I when I is homogeneous."""
        if self._hilbert is None:
            self._hilbert = hilbert_of_leads(
                self.leading_exponents(GREVLEX), self.ring.arity
            )
        return self._hilbert


@dataclass(frozen=True)
class HilbertData:
    """dimension/degree of R/I plus the Hilbert series numerator.

    The series is numerator(t) / (1-t)^arity; dimension is the pole order at
    t = 1 and degree the value there after clearing the pole (0 for the zero
    module, whose dimension is reported as -1).
    """

    dimension: int
    degree: int
    numerator: tuple[int, ...]


def _minimalize(gens: frozenset) -> frozenset:
    out = []
    for g in sorted(gens, key=lambda e: (sum(e), e)):
        if not any(all(x >= y for x, y in zip(g, h)) for h in out):
            out.append(g)
    return frozenset(out)


def _num_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            k = i + j
            v = out.get(k, 0) + c * d
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _numerator(gens: frozenset, memo: dict) -> dict:
    """Hilbert series numerator of a monomial ideal, as {degree: coeff}."""
    if gens in memo:
        return memo[gens]
    for g in gens:
        if sum(g) == 0:
            memo[gens] = {}
            return {}
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        out = {0: 1}
        for g in gens:
            out = _num_mul(out, {0: 1, sum(g): -1})
        memo[gens] = out
        return out
    counts: dict[int, int] = {}
    for g in mixed:
        for i, e in enumerate(g):
            if e:
                counts[i] = counts.get(i, 0) + 1
    pivot = max(sorted(counts), key=lambda i: counts[i])
    # N(I) = N(I + (x^m)) + t^m N(I : x^m), x^m the least pivot power among
    # the mixed generators: each branch takes the pivot out of at least one
    # mixed generator, so the depth grows with the generators, not exponents
    m = min(g[pivot] for g in mixed if g[pivot])
    n = len(next(iter(gens)))
    plus = _minimalize(gens | {tuple(m if i == pivot else 0 for i in range(n))})
    quot = _minimalize(
        frozenset(
            tuple(max(e - m, 0) if i == pivot else e for i, e in enumerate(g))
            for g in gens
        )
    )
    out = dict(_numerator(plus, memo))
    for k, c in _numerator(quot, memo).items():
        v = out.get(k + m, 0) + c
        if v:
            out[k + m] = v
        else:
            out.pop(k + m, None)
    memo[gens] = out
    return out


def hilbert_of_leads(lead_exps, arity: int) -> HilbertData:
    """Hilbert data for the monomial ideal generated by the given exponents."""
    num = _numerator(_minimalize(frozenset(lead_exps)), {})
    if not num:
        return HilbertData(-1, 0, (0,))
    coeffs = [0] * (max(num) + 1)
    for k, c in num.items():
        coeffs[k] = c
    poly = list(coeffs)
    drops = 0
    while sum(poly) == 0:
        # divide by (1 - t): prefix sums
        acc = 0
        nxt = []
        for c in poly[:-1]:
            acc += c
            nxt.append(acc)
        poly = nxt or [0]
        drops += 1
    return HilbertData(arity - drops, sum(poly), tuple(coeffs))
