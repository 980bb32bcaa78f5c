"""Build hook for the optional compiled kernel.

The package is pure Python.  The extension is compiled from the shipped
``_speed.c`` by any C compiler, so Cython is needed only to regenerate that
file after editing ``_speed.pyx``.  If the compiler is missing or fails, the
extension is skipped and segrenum.kernel uses the pure twin.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "segrenum.kernel._speed",
            ["src/segrenum/kernel/_speed.c"],
            optional=True,
        )
    ]
)
