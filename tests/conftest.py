"""Hypothesis profiles and the BLAS report header for the test suite.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and
prints a blob that reproduces a failing one; without it the default
profile draws new examples each run.  Tests keep their own
``max_examples``.

The header names the BLAS core that runs, which the corrector's
bit-identity tests depend on.  An OpenBLAS built with ``DYNAMIC_ARCH``
picks its kernel when it loads, so the core it reports can differ from
the build target that ``numpy.show_config()`` prints.
"""

import ctypes
import os
from pathlib import Path

import numpy as np
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
# an empty HYPOTHESIS_PROFILE, as an unset one, means the default profile
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")

# the core-name function of the OpenBLAS in NumPy 2 wheels and in NumPy 1 wheels
_CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def blas_core() -> str:
    """The runtime core of the OpenBLAS that NumPy's Linux wheel bundles, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            blas = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in _CORENAME:
            corename = getattr(blas, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"BLAS runtime core: {blas_core()}"
