"""The suite's hypothesis profile setting (tests/conftest.py)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent


@pytest.mark.parametrize("value", ["", "default", "ci"])
def test_profile_setting_loads(value):
    # an empty value, as a shell's `HYPOTHESIS_PROFILE=` leaves it, reads as unset
    env = {**os.environ, "HYPOTHESIS_PROFILE": value}
    code = "import conftest, hypothesis; print(hypothesis.settings.default.derandomize)"
    run = subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == str(value == "ci")
