"""Synthetic documents with known ground truth.

Everything the pipeline consumes can be generated here with a seed:
word boxes laid out in blocks, lines, and words (so grouping and
reading order have an exact reference), per-box recognition frames
(so decoding has a controllable upstream), and noisy/clean phrase
corpora (so the corrector has training data).

Corruption realism comes from a table of visually confusable
characters; the same table drives both frame softening and string
noise, so a corrector trained on generated corpora faces the error
distribution the decoder actually produces.
"""

import json
import string
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .ctc import Alphabet
from .errors import InputError, check_float, check_int
from .geometry import GrayImage, _paint_boxes
from .layout import DocumentLayout, TextBox

__all__ = [
    "DEFAULT_WORDS",
    "CONFUSIONS",
    "SynthSpec",
    "word_alphabet",
    "gen_document",
    "render_page",
    "render_frame_probs",
    "gen_frames",
    "induce_noise",
    "sample_phrase",
    "gen_corpus",
]

DEFAULT_WORDS = (
    "time", "year", "people", "way", "day", "man", "thing", "woman", "life",
    "child", "world", "school", "state", "family", "student", "group",
    "country", "problem", "hand", "part", "place", "case", "week", "company",
    "system", "program", "question", "work", "number", "night", "point",
    "home", "water", "room", "mother", "area", "money", "story", "fact",
    "month", "right", "study", "book", "eye", "job", "word", "business",
    "issue", "side", "kind", "head", "house", "service", "friend", "father",
    "blue-green", "well-known",
)

# Fraction of a character frame's softening that also applies to the
# neighbouring blank frames; blanks are far easier to classify, so they
# stay essentially incorruptible at workable temperatures.  Kept small
# so a blank's stray mass cannot team up with a neighbouring character
# frame's confusable and outvote the true label.
_BLANK_SOFTNESS = 0.05


def _load_confusions() -> dict[str, tuple[str, ...]]:
    text = resources.files("doctext").joinpath("confusions.json").read_text("utf-8")
    table = json.loads(text)
    return {k: tuple(v) for k, v in table.items()}


CONFUSIONS = _load_confusions()


def _check_range(name: str, rng_pair) -> tuple[int, int]:
    if not isinstance(rng_pair, Sequence) or len(rng_pair) != 2:
        raise InputError(f"{name} must be an integer range with 1 <= lo <= hi")
    lo, hi = rng_pair
    check_int(lo, f"{name} lo", 1)
    check_int(hi, f"{name} hi", lo)
    return int(lo), int(hi)


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the generator.

    ``jitter`` is the full width of the vertical jitter band as a
    fraction of box height: each box's vertical centre is offset by a
    uniform draw from +-jitter/2 of a height.  ``temperature`` scales
    frame softening; character frames begin to flip only above 0.5.
    ``p_sub``/``p_del``/``p_ins`` drive string-level noise for corpora.
    """

    seed: int = 0
    page_width: int = 1000
    page_height: int = 1000
    blocks: tuple[int, int] = (1, 3)
    lines_per_block: tuple[int, int] = (2, 5)
    words_per_line: tuple[int, int] = (2, 6)
    box_height: float = 20.0
    jitter: float = 0.0
    temperature: float = 0.0
    p_sub: float = 0.0
    p_del: float = 0.0
    p_ins: float = 0.0
    words: tuple[str, ...] = DEFAULT_WORDS

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        check_int(self.page_width, "page_width", 1)
        check_int(self.page_height, "page_height", 1)
        for name in ("blocks", "lines_per_block", "words_per_line"):
            object.__setattr__(self, name, _check_range(name, getattr(self, name)))
        if not check_float(self.box_height, "box_height") > 0:
            raise InputError("box_height must be positive")
        if not check_float(self.temperature, "temperature") >= 0.0:
            raise InputError("temperature must be >= 0")
        for name in ("jitter", "p_sub", "p_del", "p_ins"):
            if not 0.0 <= check_float(getattr(self, name), name) <= 1.0:
                raise InputError(f"{name} must lie in [0, 1]")
        if self.p_sub + self.p_del > 1.0:
            raise InputError("p_sub + p_del must not exceed 1")
        if isinstance(self.words, str) or not isinstance(self.words, Sequence):
            raise InputError(f"words must be a sequence of words, not {self.words!r}")
        words = tuple(self.words)
        if not words:
            raise InputError("word list must not be empty")
        for w in words:
            if not isinstance(w, str) or not w or any(c.isspace() for c in w):
                raise InputError(f"word {w!r} must be a non-empty string without spaces")
        object.__setattr__(self, "words", words)


def word_alphabet(words) -> Alphabet:
    """Recognition alphabet covering every character of the word list."""
    chars = sorted({c for w in words for c in w})
    return Alphabet(tuple(chars))


def _rng(spec: SynthSpec, rng):
    return np.random.default_rng(spec.seed) if rng is None else rng


def gen_document(spec: SynthSpec, rng=None) -> DocumentLayout:
    """Generate one page of word boxes with ground-truth layout.

    Blocks stack top to bottom, lines within a block advance by 1.4
    box heights, words advance left to right with gaps of 0.25 to 0.6
    heights, and every box's vertical position is jittered inside the
    spec's band.  The returned layout's groups are the blocks, each
    ordered as generated, and each box's ``word`` field holds the
    truth.  The same spec and seed always generate the same page.

    Raises InputError if a sampled page cannot fit its words.
    """
    rng = _rng(spec, rng)
    h = spec.box_height
    char_w = 0.55 * h
    margin = h
    n_blocks = int(rng.integers(spec.blocks[0], spec.blocks[1] + 1))
    boxes: list[TextBox] = []
    order: dict[int, list[int]] = {}
    next_id = 0
    y = margin
    for blk in range(n_blocks):
        order[blk] = []
        n_lines = int(rng.integers(spec.lines_per_block[0], spec.lines_per_block[1] + 1))
        block_x = margin + float(rng.uniform(0.0, 2.0 * h))
        for _ in range(n_lines):
            n_words = int(rng.integers(spec.words_per_line[0], spec.words_per_line[1] + 1))
            x = block_x
            for k in range(n_words):
                word = spec.words[int(rng.integers(len(spec.words)))]
                jit = float(rng.uniform(-0.5, 0.5)) * spec.jitter * h
                if k > 0:
                    x += float(rng.uniform(0.25, 0.6)) * h
                top = y + jit
                box = TextBox(
                    id=next_id,
                    left=x,
                    top=top,
                    right=x + len(word) * char_w,
                    bottom=top + h,
                    word=word,
                )
                if box.right > spec.page_width - margin:
                    raise InputError(
                        "infeasible page: a sampled line does not fit the page width"
                    )
                boxes.append(box)
                order[blk].append(next_id)
                next_id += 1
                x = box.right
            y += 1.4 * h
        y += 4.0 * h - 1.4 * h  # inter-block gap on top of the last line pitch
    if y - 4.0 * h + 1.4 * h + spec.jitter * h > spec.page_height - margin:
        raise InputError("infeasible page: sampled blocks do not fit the page height")
    return DocumentLayout(boxes=tuple(boxes), order=order)


def render_page(layout: DocumentLayout, spec: SynthSpec) -> GrayImage:
    """Flat visual of a generated page: dark word bars on white."""
    return _paint_boxes(layout.boxes, [0.25] * len(layout.boxes), spec.page_width, spec.page_height)


def _frame_confusable(char_index: int, alphabet: Alphabet, rng) -> int:
    """Index the softened mass moves to; always consumes the same number
    of draws so results are reproducible across temperatures."""
    ch = alphabet.chars[char_index]
    candidates = [alphabet.index(c) for c in CONFUSIONS.get(ch, ()) if c in alphabet.chars]
    if not candidates:
        candidates = [i for i in range(len(alphabet.chars)) if i != char_index]
    if not candidates:
        candidates = [char_index]  # single-character alphabet: nothing to confuse
    return candidates[int(rng.integers(len(candidates)))]


def render_frame_probs(word: str, alphabet: Alphabet, spec: SynthSpec, rng=None) -> np.ndarray:
    """Per-frame class distributions for a word: 2 * len(word) + 1 rows.

    Rows alternate blank, character, blank, ...  At temperature zero
    every row is one-hot; otherwise each character row moves mass
    ``min(1, temperature * u)`` onto a confusable character, with ``u``
    uniform per frame.  The draws do not depend on the temperature, so
    for a fixed seed raising the temperature only ever corrupts more
    frames, never different ones.  Blank rows soften 4x more slowly.

    Raises InputError if the word uses characters outside the alphabet.
    """
    rng = _rng(spec, rng)
    ids = alphabet.encode(word)
    k = alphabet.size
    rows = np.zeros((2 * len(ids) + 1, k), dtype=np.float64)
    for m in range(rows.shape[0]):
        u = float(rng.uniform())
        if m % 2 == 0:
            intruder = int(rng.integers(len(alphabet.chars)))
            mass = min(1.0, spec.temperature * u * _BLANK_SOFTNESS)
            rows[m, alphabet.blank] = 1.0 - mass
            rows[m, intruder] += mass
        else:
            c = ids[m // 2]
            d = _frame_confusable(c, alphabet, rng)
            mass = min(1.0, spec.temperature * u)
            rows[m, c] = 1.0 - mass
            rows[m, d] += mass
    return rows


def gen_frames(layout: DocumentLayout, spec: SynthSpec, alphabet: Alphabet | None = None, rng=None):
    """Recognition frames for every box of a generated document.

    Returns (alphabet, dict box id -> frame matrix).  Boxes are
    processed in ascending id order off one generator, so the output is
    reproducible from ``spec.seed`` alone.
    """
    rng = _rng(spec, rng)
    alphabet = alphabet or word_alphabet(spec.words)
    frames: dict[int, np.ndarray] = {}
    for b in sorted(layout.boxes, key=lambda t: t.id):
        if b.word is None:
            raise InputError(f"box {b.id} has no ground-truth word to render")
        frames[b.id] = render_frame_probs(b.word, alphabet, spec, rng)
    return alphabet, frames


def _confused_char(ch: str, rng) -> str:
    candidates = CONFUSIONS.get(ch)
    if not candidates:
        candidates = [c for c in string.ascii_lowercase if c != ch]
    return candidates[int(rng.integers(len(candidates)))]


def induce_noise(phrase: str, spec: SynthSpec, rng=None) -> str:
    """Corrupt a phrase at the character level.

    Each non-space character independently: deleted with ``p_del``,
    replaced by a confusable with ``p_sub``, kept otherwise; after it,
    a random lowercase character is inserted with ``p_ins``.  Spaces
    are never touched, so the word count is preserved.
    """
    rng = _rng(spec, rng)
    out: list[str] = []
    for ch in phrase:
        if ch == " ":
            out.append(ch)
            continue
        u = float(rng.uniform())
        if u < spec.p_del:
            pass
        elif u < spec.p_del + spec.p_sub:
            out.append(_confused_char(ch, rng))
        else:
            out.append(ch)
        if spec.p_ins > 0.0 and float(rng.uniform()) < spec.p_ins:
            out.append(string.ascii_lowercase[int(rng.integers(26))])
    return "".join(out)


def sample_phrase(spec: SynthSpec, rng=None) -> str:
    """One phrase of ``words_per_line`` words, sampled uniformly."""
    rng = _rng(spec, rng)
    n = int(rng.integers(spec.words_per_line[0], spec.words_per_line[1] + 1))
    return " ".join(spec.words[int(rng.integers(len(spec.words)))] for _ in range(n))


def gen_corpus(spec: SynthSpec, n_pairs: int, rng=None) -> list[tuple[str, str]]:
    """(noisy, clean) phrase pairs using the string-level noise knobs."""
    check_int(n_pairs, "corpus size", 1)
    rng = _rng(spec, rng)
    pairs = []
    for _ in range(n_pairs):
        clean = sample_phrase(spec, rng)
        pairs.append((induce_noise(clean, spec, rng), clean))
    return pairs
