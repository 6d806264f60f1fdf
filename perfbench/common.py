"""Paths and specs shared by the benchmark's scripts."""

from pathlib import Path

from doctext.synth import SynthSpec

HERE = Path(__file__).resolve().parent
CORRECTOR_PATH = HERE / "corrector.json"
CORRECTOR_SHA_PATH = HERE / "corrector.sha256"


def criterion7_spec() -> SynthSpec:
    """The document spec of acceptance criterion 7: short groups of
    2-5 words, decoded at about 15% word error."""
    return SynthSpec(
        seed=0, temperature=0.515, jitter=0.2, lines_per_block=(1, 2), words_per_line=(2, 5)
    )
