"""Reduction kernel with two interchangeable backends.

``_pure`` is plain Python; ``_speed`` is a C extension compiled from the
shipped ``_speed.c``, which Cython generates from ``_speed.pyx``.  The two
share one API and return the same results bit for bit, on primitive
integer-coefficient term dicts, though each finds leads and divisors its
own way.  Both return the remainder of ``reduce_full`` with its terms
largest first under the order, so its first key is its lead.  The build
decides the backend: ``setup.py`` compiles the extension when a C compiler
is present, and this module binds it once, at import; without it the pure
backend is used.
"""

from . import _pure

try:
    from . import _speed as _active  # type: ignore[attr-defined]
except ImportError:  # extension not built
    _active = _pure


def backend_name() -> str:
    return "pure" if _active is _pure else "compiled"


def get():
    return _active
