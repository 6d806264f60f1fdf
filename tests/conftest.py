"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and
prints a blob that reproduces a failing one; without it the default
profile draws new examples each run.  Tests keep their own
``max_examples``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
