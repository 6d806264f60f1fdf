"""Exception hierarchy shared across the package.

Two failure families matter to callers: bad input (malformed files,
inconsistent bundles, out-of-domain arguments) and numeric divergence
during training.  The CLI maps them to exit codes 2 and 3.
``check_int`` checks every integer argument, ``check_float`` every real one.
"""

import math
from numbers import Integral, Real


class DoctextError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DoctextError):
    """Invalid argument, malformed file, or inconsistent input bundle."""


class DegenerateQuadError(InputError):
    """Quadrilateral is not strictly convex or yields a singular mapping."""


class FormatError(InputError):
    """Serialized artifact is malformed or truncated."""


class VersionError(FormatError):
    """Serialized artifact declares an unsupported format version."""


class DivergenceError(DoctextError):
    """Training produced a non-finite loss."""


def check_int(value, what: str, minimum: int | None) -> None:
    """``InputError`` unless ``value`` is an integer, Python's or NumPy's
    but not a bool, of at least ``minimum`` (when it is not None);
    ``what`` names it."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{what} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{what} must be >= {minimum}")


def check_float(value, what: str) -> float:
    """``value`` as a float when it is a finite real number (Python's or
    NumPy's, not a bool), else ``InputError`` naming ``what``."""
    try:
        # float and int skip the numbers.Real check, about 0.4 us a call: it adds a
        # tenth to the benchmark's layout-dense setup_s, which builds 19,500 boxes
        if type(value) in (float, int) or not isinstance(value, bool) and isinstance(value, Real):
            if math.isfinite(f := float(value)):
                return f
    except OverflowError:  # an integer beyond the float range
        pass
    raise InputError(f"{what} must be a finite real number, not {value!r}")
