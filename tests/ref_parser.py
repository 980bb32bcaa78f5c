"""The Polynomial-arithmetic parser that ``Ring.parse`` replaced, kept as a
reference for the term-dict parser: every atom, power, product and sum is a
``Polynomial`` built by the checking constructor, with the product and power
code that ``Polynomial`` had then.  Its tokenizer takes ASCII digits, as the package's
does; it reads the caps off ``segrenum.ring`` at call time, so a test that
lowers them lowers them for both parsers.  Parentheses are not capped, so
only texts nested well below ``ring.MAX_NESTING`` compare."""

import math
import re
from fractions import Fraction

from segrenum import InputError, Polynomial, Ring
from segrenum import ring as ring_module

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[-+*^()/]))"
)


def ref_parse(ring: Ring, text: str) -> Polynomial:
    return _Parser(ring, text).parse()


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def _constant(ring: Ring, c) -> Polynomial:
    return Polynomial(ring, {(0,) * ring.arity: Fraction(c)})


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Polynomial(p.ring, out)


def _pow(p: Polynomial, k: int) -> Polynomial:
    result = _constant(p.ring, 1)
    base = p
    while k:
        if k & 1:
            result = _mul(result, base)
        base = _mul(base, base) if k > 1 else base
        k >>= 1
    return result


def _digits(p: Polynomial) -> float:
    d = math.lcm(*(c.denominator for c in p.terms.values()))
    norm = sum(abs(c.numerator) * (d // c.denominator) for c in p.terms.values())
    return math.log10(max(norm, d))


def _power_terms(p: Polynomial, k: int) -> int:
    v, deg = len(p.variables()), max(p.total_degree(), 0)
    return min(math.comb(max(len(p.terms), 1) + k - 1, k), math.comb(v + k * deg, v))


class _Parser:
    """expr := term (+|- term)*, term := factor (* factor)*,
    factor := atom (^ INT)?, atom := NAME | NUMBER | ( expr ) | - atom."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise InputError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise InputError("empty polynomial")
        p = self.expr()
        if self.pos != len(self.tokens):
            kind, val = self.peek()
            raise InputError(f"trailing {val!r} in {self.text!r} (use explicit '*')")
        return p

    def expr(self) -> Polynomial:
        out: dict = {}
        sign = self.take()[1] if self.peek() == ("op", "-") else "+"
        while True:
            for e, c in self.term().terms.items():
                s = out.get(e, 0) + c if sign == "+" else out.get(e, 0) - c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
            kind, sign = self.peek()
            if kind != "op" or sign not in "+-":
                return Polynomial(self.ring, out)
            self.take()

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            q = self.factor()
            ring_module._check_size(
                p.total_degree() + q.total_degree(),
                _digits(p) + _digits(q),
                len(p.terms) * len(q.terms),
            )
            p = _mul(p, q)
        return p

    def factor(self) -> Polynomial:
        minus = self.peek() == ("op", "-")
        p = self.atom()
        if self.peek() == ("op", "^"):
            if minus:
                raise InputError(ring_module._MINUS_POWER.format(self.text))
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise InputError("exponent must be a nonnegative integer")
            k = ring_module._literal(val)
            if k > ring_module.MAX_DEGREE:
                raise InputError(f"exponent {k} exceeds the limit {ring_module.MAX_DEGREE}")
            ring_module._check_size(p.total_degree() * k, _digits(p) * k, _power_terms(p, k))
            p = _pow(p, k)
        return p

    def atom(self) -> Polynomial:
        kind, val = self.take()
        if kind == "name":
            if val not in self.ring._index:
                raise InputError(f"unknown variable {val!r}")
            e = [0] * self.ring.arity
            e[self.ring._index[val]] = 1
            return Polynomial(self.ring, {tuple(e): Fraction(1)})
        if kind == "int":
            num = ring_module._literal(val)
            if self.peek() == ("op", "/"):
                self.take()
                kind2, val2 = self.take()
                if kind2 != "int":
                    raise InputError("denominator must be an integer")
                den = ring_module._literal(val2)
                if den == 0:
                    raise InputError(f"division by zero in {self.text!r}")
                return _constant(self.ring, Fraction(num, den))
            return _constant(self.ring, num)
        if (kind, val) == ("op", "("):
            p = self.expr()
            self.expect_op(")")
            return p
        if (kind, val) == ("op", "-"):
            return Polynomial(self.ring, {e: -c for e, c in self.atom().terms.items()})
        raise InputError(f"unexpected token in {self.text!r}")
