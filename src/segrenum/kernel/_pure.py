"""Pure-Python reduction kernel.

Polynomials here are dicts mapping exponent tuples to nonzero ints, kept
primitive (coefficient gcd 1) wherever noted.  Order codes match
segrenum.orders: 0 grevlex, 1 lex, 2 block elimination, 3 local
(negative-degree grevlex), 4 grlex.

Leads are found through ``_key``, one sort key per order whose smallest
value belongs to the largest monomial, built from C-level tuple operations
so that ``min`` and ``heapq`` compare keys without calling back into Python.
``reduce_full`` and ``mora_nf`` keep a heap of ``(key, exponent)`` entries
over the terms still to be reduced.  A cancellation pushes an entry only for
an exponent that is not yet a term; stale entries (terms that cancelled or
moved to the remainder) are popped and dropped until the top is still a
term.  Each step still takes the largest remaining term, as a full rescan
would, so remainders, multipliers and dict orders are those of the rescan.
``mora_nf`` keeps its reducers stably sorted by ecart, so its first divisor is
the least-ecart one, earliest on ties, that the compiled twin's scan picks.
``reduce_full`` scans its rows in order until, over a basis longer than the
number of variables n, n scans have failed, which costs about what building
a divisor index does, and n terms or more are left; the rest of the call
reads each lead's first divisor off that index (``_divisor_index``, per
variable the bitsets of the rows by lead exponent, bit j for row j), which
lives for that call only.
Exponent arithmetic maps ``operator`` functions over the tuples.
"""

from bisect import insort
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, inf
from operator import add, ge, itemgetter, neg, or_, sub


def cmp_exp(a, b, code, block):
    """Compare exponent tuples under the coded order: -1, 0 or 1."""
    if code == 0:  # grevlex
        da = sum(a)
        db = sum(b)
        if da != db:
            return 1 if da > db else -1
        for i in range(len(a) - 1, -1, -1):
            d = a[i] - b[i]
            if d:
                return -1 if d > 0 else 1
        return 0
    if code == 1:  # lex
        for i in range(len(a)):
            d = a[i] - b[i]
            if d:
                return 1 if d > 0 else -1
        return 0
    if code == 2:  # block: grevlex front, then grevlex back
        da = sum(a[:block])
        db = sum(b[:block])
        if da != db:
            return 1 if da > db else -1
        for i in range(block - 1, -1, -1):
            d = a[i] - b[i]
            if d:
                return -1 if d > 0 else 1
        da = sum(a[block:])
        db = sum(b[block:])
        if da != db:
            return 1 if da > db else -1
        for i in range(len(a) - 1, block - 1, -1):
            d = a[i] - b[i]
            if d:
                return -1 if d > 0 else 1
        return 0
    if code == 3:  # local: smaller degree is bigger
        da = sum(a)
        db = sum(b)
        if da != db:
            return 1 if da < db else -1
        for i in range(len(a) - 1, -1, -1):
            d = a[i] - b[i]
            if d:
                return -1 if d > 0 else 1
        return 0
    # grlex
    da = sum(a)
    db = sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in range(len(a)):
        d = a[i] - b[i]
        if d:
            return 1 if d > 0 else -1
    return 0


def _key(code, block):
    """Sort key for the coded order: the smallest key is the largest monomial."""
    if code == 0:  # grevlex
        return lambda e: (-sum(e), e[::-1])
    if code == 1:  # lex
        return lambda e: tuple(map(neg, e))
    if code == 2:  # block: grevlex front, then grevlex back
        return lambda e: (
            -sum(e[:block]),
            e[:block][::-1],
            -sum(e[block:]),
            e[block:][::-1],
        )
    if code == 3:  # local: smaller degree is bigger
        return lambda e: (sum(e), e[::-1])
    return lambda e: (-sum(e), tuple(map(neg, e)))  # grlex


def lead_exp(p, code, block):
    """Largest exponent of a nonempty term dict."""
    return min(p, key=_key(code, block))


def exp_div(a, b):
    """True when monomial b divides monomial a."""
    return all(map(ge, a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def exp_add(a, b):
    return tuple(map(add, a, b))


def exp_sub(a, b):
    return tuple(map(sub, a, b))


def content(p):
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def make_primitive(p):
    """Divide out the coefficient gcd (in place is avoided; returns p or a copy)."""
    if not p:
        return p
    g = content(p)
    if g <= 1:
        return p
    return {e: c // g for e, c in p.items()}


def _cancel_lead(h, e, le, lc, g, heap, key):
    """h := a*h - b*x^(e-le)*g, which cancels the lead term e; returns a.

    Exponents the cancellation adds to h are pushed onto the lead heap."""
    c = h[e]
    d = gcd(lc, c)
    a = lc // d
    b = c // d
    if a < 0:
        a = -a
        b = -b
    if a != 1:
        for k in h:
            h[k] *= a
    shift = tuple(map(sub, e, le))
    for ke, gc in g.items():
        k = tuple(map(add, ke, shift))
        v = h.get(k)
        if v is None:
            h[k] = -b * gc
            heappush(heap, (key(k), k))
        else:
            v -= b * gc
            if v:
                h[k] = v
            else:
                del h[k]
    return a


def _pop_lead(h, heap):
    """Pop heap entries until one is still a term of h; return its exponent."""
    e = heappop(heap)[1]
    while e not in h:
        e = heappop(heap)[1]
    return e


def _divisor_index(basis):
    """Per variable, (bitsets, top): entry v of bitsets holds the rows (bit j
    for basis[j]) whose lead has exponent <= v in that variable, for v below
    top, the largest such exponent; an exponent of top or more selects every
    row."""
    cols = []
    for i in range(len(basis[0][0])):
        exps = [row[0][i] for row in basis]
        top = max(exps)
        col = [0] * top
        for j, x in enumerate(exps):
            if x < top:
                col[x] |= 1 << j
        cols.append((list(accumulate(col, or_)), top))
    return cols


def reduce_full(p, basis, code, block):
    """Fully reduce p by basis; fraction-free with multiplier tracking.

    basis is a list of (lead_exp, lead_coeff, term_dict) with nonzero dicts.
    Returns (remainder_dict, mnum, mden) where remainder == (mnum/mden) * p
    modulo the ideal generated by the basis; the exact normal form is
    remainder * mden / mnum.

    Each lead is cancelled by the first basis row whose lead divides it.
    Rows are first scanned in order; once as many scans have failed as there
    are variables, over a basis longer than that and with as many terms left,
    the rest of the call looks the row up in ``_divisor_index``: the AND of
    the bitsets that the lead's exponents select holds the dividing rows, and
    its lowest bit is the first.
    """
    key = _key(code, block)
    h = dict(p)
    heap = [(key(e), e) for e in h]
    heapify(heap)
    r = {}
    mnum = 1
    mden = 1
    steps = 0
    # the index costs about n scans: it is built once n scans have failed
    # over a basis longer than n, if n terms or more are left to reduce
    n = len(basis[0][0]) if basis else 0
    scans = n if len(basis) > n else inf
    index = None
    while h:
        e = _pop_lead(h, heap)
        if index is None:
            for le, lc, g in basis:
                if all(map(ge, e, le)):
                    break
            else:
                r[e] = h.pop(e)
                scans -= 1
                if scans <= 0 and len(h) >= n:
                    index = _divisor_index(basis)
                    full = (1 << len(basis)) - 1
                continue
        else:
            m = full
            for (col, top), x in zip(index, e):
                if x < top:
                    m &= col[x]
            if not m:
                r[e] = h.pop(e)
                continue
            le, lc, g = basis[(m & -m).bit_length() - 1]
        a = _cancel_lead(h, e, le, lc, g, heap, key)
        if a != 1:
            for k in r:
                r[k] *= a
            mnum *= a
        steps += 1
        if steps & 7 == 0 and h:
            g0 = content(h)
            if r:
                g0 = gcd(g0, content(r))
            if g0 > 1:
                for k in h:
                    h[k] //= g0
                for k in r:
                    r[k] //= g0
                mden *= g0
    g1 = gcd(mnum, mden)
    if g1 > 1:
        mnum //= g1
        mden //= g1
    return r, mnum, mden


def spoly(f, lf, cf, g, lg, cg, code, block):
    """Primitive S-polynomial of primitive inputs with precomputed leads."""
    L = tuple(map(max, lf, lg))
    d = gcd(cf, cg)
    af = cg // d
    ag = cf // d
    sf = tuple(map(sub, L, lf))
    sg = tuple(map(sub, L, lg))
    out = {}
    for e, c in f.items():
        out[tuple(map(add, e, sf))] = af * c
    for e, c in g.items():
        k = tuple(map(add, e, sg))
        v = out.get(k, 0) - ag * c
        if v:
            out[k] = v
        else:
            del out[k]
    return make_primitive(out)


def mora_nf(p, basis, code, block, limit=0):
    """Mora weak normal form for local orders.

    basis is a list of (lead_exp, lead_coeff, ecart, term_dict).  Each lead
    is cancelled by its divisor of least ecart, the earliest on ties: the
    first in a stably ecart-sorted copy of the rows, which may grow by
    intermediate results (the ecart trick, each after the rows of its ecart)
    so that the loop terminates for non-well-orders.  Returns a primitive
    remainder dict whose lead is not divisible by any basis lead (or {}).

    A nonzero ``limit`` caps the reduction steps; when exceeded, returns None
    so the caller can fall back to a homogenization-based computation.
    """
    key = _key(code, block)
    T = sorted(basis, key=itemgetter(2))
    h = make_primitive(dict(p))
    heap = [(key(e), e) for e in h]
    heapify(heap)
    steps = 0
    while h:
        steps += 1
        if limit and steps > limit:
            return None
        e = _pop_lead(h, heap)
        for best in T:
            if all(map(ge, e, best[0])):
                break
        else:
            return h
        if best[2]:
            eh = max(map(sum, h)) - sum(e)
            if best[2] > eh:
                insort(T, (e, h[e], eh, dict(h)), key=itemgetter(2))
        _cancel_lead(h, e, best[0], best[1], best[3], heap, key)
        h = make_primitive(h)
    return {}
