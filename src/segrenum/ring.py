"""Polynomial rings over Q with exact sparse arithmetic.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
Fractions; storage is order-agnostic, monomial orders only enter when
printing or running division-type algorithms.  The text format accepted by
``Ring.parse`` (and produced by ``Polynomial.__str__``) is the one exchange
format used everywhere: identifiers for variables, ``+ - * ^``, integer and
``a/b`` rational literals of ASCII digits.  Multiplication is always explicit
(``2*x``, not ``2x``); exponents are integer literals, and neither an
exponent nor the total degree of a power or product may exceed
``MAX_DEGREE``.  No literal, and no coefficient a power or product could
build, may have more than ``MAX_DIGITS`` decimal digits, no power, product or
translation may expand to more than ``MAX_TERMS`` terms, and no more than
``MAX_NESTING`` parentheses may be open at once.  A ring has at most
``MAX_VARS`` variables.

The parser and the arithmetic work on term dicts and wrap the result once,
through ``Polynomial._make``, which trusts its terms; ``Polynomial(ring,
terms)`` checks every term.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import InputError
from .orders import GREVLEX

# Largest exponent literal, and largest total degree of a power or product,
# the parser accepts.  Hilbert data allocate one coefficient per degree, so a
# degree like 10^9 would ask for gigabytes; the shipped inputs stay below 100.
MAX_DEGREE = 10_000
# Most decimal digits of an integer literal, and of any numerator or
# denominator a power or product could build, the parser accepts.  It keeps
# every parsed coefficient printable: Python converts at most 4300 digits
# between int and str.  2^10000 has 3011 digits.
MAX_DIGITS = 4_000
# Most terms a power, product or translation may expand to, bounded before it
# is expanded: (x+y+z+w)^5000 passes both caps above but has about 2*10^10
# terms.  No shipped input or benchmark workload needs more than 1, no test
# more than 441.
MAX_TERMS = 100_000
# Most variables a ring may have, checked before the names are.  Every
# term carries one exponent per variable; the shipped inputs need at most 9
# (the product space of three cycles in 3-space), no test more than 24.
MAX_VARS = 64
# Most parentheses open at once.  Each one is four parser frames deep, so
# this keeps the parser far from Python's recursion limit; no shipped input
# opens more than one.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?\Z")
# a token (name, ASCII integer or operator), or else the character that
# starts no token
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[-+*^()/])|(\S))")
_ONE = Fraction(1)


class Ring:
    """An ordered tuple of variable names; the ambient polynomial ring."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) > MAX_VARS:
            raise InputError(f"{len(names)} variables exceed the limit {MAX_VARS}")
        for nm in names:
            if not _NAME_RE.match(nm):
                raise InputError(f"bad variable name {nm!r}")
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial._make(self, {(0,) * self.arity: c})

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.arity
        e[i] = 1
        return Polynomial._make(self, {tuple(e): _ONE})

    def from_terms(self, terms: Mapping[tuple, Fraction]) -> "Polynomial":
        return Polynomial(self, terms)

    def polys(self, items) -> tuple["Polynomial", ...]:
        """One polynomial, its text, or an iterable of them, as this ring's
        Polynomials; InputError for anything else or another ring's."""
        if isinstance(items, (str, Polynomial)):
            items = (items,)
        elif not isinstance(items, Iterable):
            raise InputError(f"{type(items).__name__} is not a polynomial or a list of them")
        out = tuple(p if isinstance(p, Polynomial) else self.parse(p) for p in items)
        if any(p.ring != self for p in out):
            raise InputError("polynomial from a different ring")
        return out

    def parse(self, text: str) -> "Polynomial":
        if not isinstance(text, str):
            raise InputError(f"{type(text).__name__} is not a polynomial or its text")
        return _Parser(self, text).parse()

    def parse_point(self, text: str) -> "AffinePoint":
        parts = [t.strip() for t in text.split(",")]
        if parts == [""]:
            parts = []
        if len(parts) != self.arity:
            raise InputError(
                f"point has {len(parts)} coordinates, ring has {self.arity}"
            )
        return AffinePoint(self, tuple(parse_rational(t) for t in parts))


def parse_rational(text: str) -> Fraction:
    """Parse an integer or a/b literal, with an optional sign; each part is
    checked by ``_literal``, so no decimal, exponent or underscore form and
    no part of more than MAX_DIGITS digits gets through."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise InputError(f"bad rational literal {text!r}")
    sign, num, den = m.groups()
    num = _literal(num)
    den = _literal(den) if den else 1
    if den == 0:
        raise InputError(f"division by zero in {text!r}")
    return Fraction(-num if sign == "-" else num, den)


class AffinePoint:
    """A rational point of the ambient affine space."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: Ring, coords: Iterable):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != ring.arity:
            raise InputError("point arity does not match ring")
        self.ring = ring
        self.coords = coords

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, AffinePoint)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        return f"AffinePoint({', '.join(str(c) for c in self.coords)})"

    def __str__(self):
        return ", ".join(str(c) for c in self.coords)

    def negate(self) -> "AffinePoint":
        return AffinePoint(self.ring, tuple(-c for c in self.coords))


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[tuple, Fraction]):
        clean = {}
        for exp, c in terms.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c == 0:
                continue
            if len(exp) != ring.arity or any(e < 0 for e in exp):
                raise InputError(f"bad exponent tuple {exp!r}")
            clean[tuple(exp)] = c
        self.ring = ring
        self.terms = clean
        self._hash = None

    @classmethod
    def _make(cls, ring: Ring, terms: dict) -> "Polynomial":
        """The polynomial of terms, taken as they are: exponent tuples of
        ring's arity, nonnegative, and nonzero Fractions."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._hash = None
        return p

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.arity, Fraction(0))

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return _degree(self.terms)

    def variables(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.terms.items()))))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise InputError("polynomials from different rings")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial._make(self.ring, out)

    def __neg__(self):
        return Polynomial._make(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Polynomial._make(self.ring, _mul(self.terms, other.terms))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise InputError(f"exponent must be a nonnegative integer, not {type(k).__name__}")
        if k < 0:
            raise InputError("negative powers are not polynomials")
        return Polynomial._make(self.ring, _pow(self.terms, k, (0,) * self.ring.arity))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        raise InputError(f"cannot combine polynomial with {type(other).__name__}")

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._make(self.ring, {e: cc * c for e, cc in self.terms.items()} if c else {})

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[int, "Polynomial"], target: Ring = None) -> "Polynomial":
        """Replace variables by polynomials.

        ``bindings`` maps variable indices of this ring to polynomials of the
        target ring (default: this ring).  Unbound variables must exist in the
        target ring under the same name.
        """
        tgt = target or self.ring
        cache: dict[tuple[int, int], Polynomial] = {}
        images: dict[int, Polynomial] = {}

        def image(i: int) -> Polynomial:
            if i not in images:
                if i in bindings:
                    img = bindings[i]
                    if img.ring != tgt:
                        raise InputError("binding lands in the wrong ring")
                else:
                    try:
                        j = tgt._index[self.ring.names[i]]
                    except KeyError:
                        raise InputError(
                            f"variable {self.ring.names[i]} missing from target ring"
                        ) from None
                    img = tgt.var(j)
                images[i] = img
            return images[i]

        def power(i: int, k: int) -> Polynomial:
            key = (i, k)
            if key not in cache:
                cache[key] = image(i) ** k
            return cache[key]

        out: dict = {}  # one running sum, with __add__'s add-or-pop rule
        for exp, c in self.terms.items():
            term = tgt.constant(c)
            for i, k in enumerate(exp):
                if k:
                    term = term * power(i, k)
            for e, v in term.terms.items():
                s = out.get(e, 0) + v
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial._make(tgt, out)

    def translate(self, point: AffinePoint | None) -> "Polynomial":
        """p(z + x): move the point x to the origin; no point, or the
        origin, gives p itself."""
        if point is not None and point.ring != self.ring:
            raise InputError("point from a different ring")
        if point is None or point.is_origin():
            return self
        bindings = {
            i: self.ring.var(i) + self.ring.constant(c)
            for i, c in enumerate(point.coords)
            if c != 0
        }
        _check_shift(self, bindings)
        return self.substitute(bindings)

    # -- text --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=GREVLEX.key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(exp)
                if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


# -- term dicts and the parser ---------------------------------------------


def _mul(a: dict, b: dict) -> dict:
    """The product of two term dicts, each pair of terms folded in with
    __add__'s add-or-pop rule.  No two products with a one-term operand
    meet, so that costs one exponent add and one coefficient multiply per
    term of the other operand, whose order it keeps."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {tuple(map(add, e, eb)): c * cb for e, c in a.items()}
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pow(a: dict, k: int, one: tuple) -> dict:
    """a^k by repeated squaring from the unit term at exponent one."""
    out = {one: _ONE}
    while k:
        if k & 1:
            out = _mul(out, a)
        a = _mul(a, a) if k > 1 else a
        k >>= 1
    return out


def _degree(t: dict) -> int:
    return max(map(sum, t), default=-1)


def _digits(t: dict) -> float:
    """Decimal digits bounding every numerator and denominator of the term
    dict t, so that k * _digits(t) bounds those of t^k and sums bound
    products: with d the least common denominator, each coefficient of
    (d*t)^k is at most the k-th power of the 1-norm of d*t."""
    d = math.lcm(*(c.denominator for c in t.values()))
    norm = sum(abs(c.numerator) * (d // c.denominator) for c in t.values())
    return math.log10(max(norm, d))


def _power_terms(t: dict, k: int) -> int:
    """Bound on the terms of t^k: the multisets of k terms of t, and the
    monomials of degree at most k * deg t in the variables of t."""
    if len(t) <= 1:
        return 1
    v = sum(map(any, zip(*t)))
    return min(math.comb(len(t) + k - 1, k), math.comb(v + k * _degree(t), v))


def _check_terms(terms: int) -> None:
    if terms > MAX_TERMS:
        raise InputError(
            f"an expansion of up to 10^{math.log10(terms):.1f} terms exceeds the limit {MAX_TERMS}"
        )


def _check_shift(p: Polynomial, moved) -> None:
    """Rejects p before the moved variables v -> v + (a new term) expand it:
    x^e expands to one term per monomial dividing it in those variables."""
    _check_terms(sum(math.prod(e[i] + 1 for i in moved) for e in p.terms))


def _check_size(degree: int, digits: float, terms: int) -> None:
    """Rejects a power or product before it is expanded past any cap."""
    if degree > MAX_DEGREE:
        raise InputError(f"degree {degree} exceeds the limit {MAX_DEGREE}")
    if digits > MAX_DIGITS:
        raise InputError(
            f"a coefficient of up to {math.ceil(digits)} digits exceeds the limit {MAX_DIGITS}"
        )
    _check_terms(terms)


def _literal(text: str) -> int:
    """An integer literal, its length checked before int() reads it."""
    text = text.lstrip("0") or "0"
    if len(text) > MAX_DIGITS:
        raise InputError(f"a literal of {len(text)} digits exceeds the limit {MAX_DIGITS}")
    return int(text)


_MINUS_POWER = "a unary minus before '^' is ambiguous in {0!r}: write -(a^k) or (-a)^k"


class _Parser:
    """Recursive descent over: expr := term (+|- term)*, term := factor (* factor)*,
    factor := atom (^ INT)?, atom := NAME | NUMBER | ( expr ) | - atom.
    A factor whose atom starts with a unary minus takes no ``^``: whether
    the minus or the power binds first is left to parentheses.

    Every value is a term dict; ``parse`` wraps the one for the whole text.
    A run of unary minuses is read in a loop, and parentheses open at most
    MAX_NESTING deep, so no text reaches Python's recursion limit."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.text = text
        self.tokens = []
        for tok, bad in _TOKEN_RE.findall(text):
            if bad:
                raise InputError(f"unexpected character {bad!r}")
            self.tokens.append(tok)
        self.end = len(self.tokens)
        self.tokens.append("")  # past the end; every caller that takes it raises
        self.pos = 0
        self.depth = 0
        self.one = (0,) * ring.arity

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.end:
            raise InputError("empty polynomial")
        t = self.expr()
        if self.pos != self.end:
            raise InputError(f"trailing {self.peek()!r} in {self.text!r} (use explicit '*')")
        return Polynomial._make(self.ring, t)

    def expr(self) -> dict:
        """The terms fold into one running sum, with __add__'s add-or-pop
        rule, so a sum of k terms is not rebuilt k times."""
        out: dict = {}
        sign = self.take() if self.peek() == "-" else "+"
        while True:
            for e, c in self.term().items():
                s = out.get(e, 0) + c if sign == "+" else out.get(e, 0) - c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
            sign = self.peek()
            if sign != "+" and sign != "-":
                return out
            self.take()

    def term(self) -> dict:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            q = self.factor()
            _check_size(_degree(p) + _degree(q), _digits(p) + _digits(q), len(p) * len(q))
            p = _mul(p, q)
        return p

    def factor(self) -> dict:
        minus = self.peek() == "-"  # a unary minus, which the atom applies
        p = self.atom()
        if self.peek() == "^":
            if minus:
                raise InputError(_MINUS_POWER.format(self.text))
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise InputError("exponent must be a nonnegative integer")
            k = _literal(tok)
            if k > MAX_DEGREE:
                raise InputError(f"exponent {k} exceeds the limit {MAX_DEGREE}")
            _check_size(_degree(p) * k, _digits(p) * k, _power_terms(p, k))
            p = _pow(p, k, self.one)
        return p

    def atom(self) -> dict:
        negate = False
        tok = self.take()
        while tok == "-":
            negate = not negate
            tok = self.take()
        if tok in self.ring._index:
            e = list(self.one)
            e[self.ring._index[tok]] = 1
            t = {tuple(e): _ONE}
        elif tok.isdigit():
            num, den = _literal(tok), 1
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise InputError("denominator must be an integer")
                den = _literal(den)
                if den == 0:
                    raise InputError(f"division by zero in {self.text!r}")
            t = {self.one: Fraction(num, den)} if num else {}
        elif tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise InputError(
                    f"a nesting of {self.depth} parentheses exceeds the limit {MAX_NESTING}"
                )
            t = self.expr()
            if self.take() != ")":
                raise InputError(f"expected ')' in {self.text!r}")
            self.depth -= 1
        elif tok.isidentifier():
            raise InputError(f"unknown variable {tok!r}")
        else:
            raise InputError(f"unexpected token in {self.text!r}")
        return {e: -c for e, c in t.items()} if negate else t
