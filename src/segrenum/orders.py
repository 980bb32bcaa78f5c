"""Monomial orders.

Each order is a small frozen descriptor exposing a sort key on exponent
tuples (bigger key = bigger monomial) plus the integer code the reduction
kernel dispatches on.  Supported families:

* grevlex            degree, ties broken by smallest last exponent
* lex                plain lexicographic
* block(k)           eliminate the first k variables: grevlex on the front
                     block dominates grevlex on the rest
* graded(lex)        total degree first, then lex
* local              negative-degree grevlex; the local order used for
                     standard bases and tangent cones
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .errors import InputError

CODE_GREVLEX = 0
CODE_LEX = 1
CODE_BLOCK = 2
CODE_LOCAL = 3
CODE_GRLEX = 4

_CODES = {
    "grevlex": CODE_GREVLEX,
    "lex": CODE_LEX,
    "block": CODE_BLOCK,
    "local": CODE_LOCAL,
    "grlex": CODE_GRLEX,
}


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    block: int = 0  # front block size, only for kind == "block"

    @property
    def code(self) -> int:
        return _CODES[self.kind]

    def key(self, exp: tuple) -> tuple:
        """Sort key; comparing keys compares monomials."""
        code = _CODES[self.kind]
        if code == CODE_GREVLEX:
            return (sum(exp), tuple(map(neg, reversed(exp))))
        if code == CODE_LEX:
            return exp
        if code == CODE_BLOCK:
            f, b = exp[: self.block], exp[self.block :]
            return (
                sum(f),
                tuple(map(neg, reversed(f))),
                sum(b),
                tuple(map(neg, reversed(b))),
            )
        if code == CODE_LOCAL:
            return (-sum(exp), tuple(map(neg, reversed(exp))))
        return (sum(exp), exp)  # grlex

    def is_global(self) -> bool:
        """True when 1 is the smallest monomial (well-ordering)."""
        return self.kind != "local"

    def __str__(self):
        return f"block({self.block})" if self.kind == "block" else self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")
LOCAL = MonomialOrder("local")


def block_order(front: int) -> MonomialOrder:
    """Elimination order whose front block is the first ``front`` variables."""
    if front < 0:
        raise InputError("front block size must be nonnegative")
    return MonomialOrder("block", front)


def order_from_name(name: str) -> MonomialOrder:
    """Parse a CLI order spec: grevlex | lex | grlex | elim:<k>."""
    name = name.strip()
    if name in ("grevlex", "lex", "grlex"):
        return MonomialOrder(name)
    if name.startswith("elim:"):
        try:
            return block_order(int(name[5:]))
        except ValueError as exc:
            raise InputError(f"bad order spec {name!r}") from exc
    raise InputError(f"unknown order {name!r}")
