"""Build hook for the optional compiled kernel.

The package is fully functional without the extension (a pure-Python
fallback is selected at import time), so the extension is optional: a
failed build leaves a pure-Python install instead of failing it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "sopra._kernel._chabits",
            sources=["src/sopra/_kernel/_chabits.cpp"],
            # -ffp-contract=off: no fused multiply-add, so results stay
            # bit-identical with the pure-Python backend.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
