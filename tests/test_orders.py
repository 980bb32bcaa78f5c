"""Monomial orders: comparison semantics and block elimination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrenum import GREVLEX, GRLEX, LEX, LOCAL, InputError, MonomialOrder, block_order
from segrenum.kernel import _pure
from segrenum.orders import order_from_name

_exp3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
# small exponents, so that equal total degrees (the tie-break paths) are common
_exp4 = st.tuples(*[st.integers(0, 3)] * 4)


def _sorted_desc(order, exps):
    return sorted(exps, key=order.key, reverse=True)


def test_grevlex_oracle():
    # x > y > z; degree first, then reversed-negated exponent comparison
    exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 0, 2)]
    assert _sorted_desc(GREVLEX, exps) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 0, 2),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    # the classic grevlex vs grlex separator: x*z^2 vs y^3 vs x*y*z
    assert _sorted_desc(GREVLEX, [(1, 0, 2), (0, 3, 0), (1, 1, 1)]) == [
        (0, 3, 0),
        (1, 1, 1),
        (1, 0, 2),
    ]


def test_lex_oracle():
    exps = [(1, 0, 0), (0, 5, 5), (1, 0, 1), (0, 6, 0)]
    assert _sorted_desc(LEX, exps) == [(1, 0, 1), (1, 0, 0), (0, 6, 0), (0, 5, 5)]


def test_grlex_differs_from_grevlex():
    # same degree: grlex compares exponents left to right
    a, b = (1, 0, 2), (0, 3, 0)
    assert _sorted_desc(GRLEX, [a, b]) == [a, b]
    assert _sorted_desc(GREVLEX, [a, b]) == [b, a]


def test_local_order_prefers_low_degree():
    assert LOCAL.key((0, 0, 0)) > LOCAL.key((1, 0, 0))
    assert LOCAL.key((1, 0, 0)) > LOCAL.key((2, 0, 0))
    assert not LOCAL.is_global()
    assert GREVLEX.is_global()


def test_block_order_eliminates_front():
    ord2 = block_order(1)
    # any monomial involving the first variable beats any that does not
    assert ord2.key((1, 0, 0)) > ord2.key((0, 9, 9))
    assert ord2.key((2, 0, 0)) > ord2.key((1, 0, 0))


def test_order_from_name():
    assert order_from_name("grevlex") == GREVLEX
    assert order_from_name("lex") == LEX
    assert order_from_name("grlex") == GRLEX
    assert order_from_name("elim:2") == block_order(2)
    with pytest.raises(InputError):
        order_from_name("mystery")
    with pytest.raises(InputError):
        order_from_name("elim:x")


@settings(max_examples=200, deadline=None)
@given(_exp3, _exp3)
def test_total_and_antisymmetric(a, b):
    for order in (GREVLEX, LEX, GRLEX, LOCAL, block_order(1)):
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        assert (ka < kb) != (ka > kb) or a == b


@settings(max_examples=200, deadline=None)
@given(_exp3, _exp3, _exp3)
def test_multiplicative_compatibility(a, b, c):
    for order in (GREVLEX, LEX, GRLEX, LOCAL, block_order(1)):
        ka, kb = order.key(a), order.key(b)
        shifted_a = tuple(x + y for x, y in zip(a, c))
        shifted_b = tuple(x + y for x, y in zip(b, c))
        ksa, ksb = order.key(shifted_a), order.key(shifted_b)
        assert (ka < kb) == (ksa < ksb)


@settings(max_examples=200, deadline=None)
@given(_exp3)
def test_global_orders_bound_below_by_one(e):
    one = (0, 0, 0)
    for order in (GREVLEX, LEX, GRLEX, block_order(1)):
        assert order.key(e) >= order.key(one)
    if e != one:
        assert LOCAL.key(e) < LOCAL.key(one)


@settings(max_examples=300, deadline=None)
@given(_exp4, _exp4)
def test_key_agrees_with_kernel_comparison(a, b):
    # the kernel compares by order code; MonomialOrder.key is the second definition
    for order in (GREVLEX, LEX, GRLEX, LOCAL, block_order(1), block_order(2)):
        ka, kb = order.key(a), order.key(b)
        sign = (ka > kb) - (ka < kb)
        assert sign == _pure.cmp_exp(a, b, order.code, order.block), (order, a, b)
