"""Sequence probability, loss, and decoding for frame-wise classifiers.

The recognizer for a text box produces one categorical distribution per
frame over an alphabet plus a blank symbol.  A label sequence's
probability is the summed probability of every frame path that
collapses onto it, where collapsing merges adjacent repeats and then
drops blanks.  The forward (prefix-sum) recursion computes that sum in
O(frames x labels) instead of enumerating the exponentially many
paths; all sums run in log space.

The blank occupies the LAST column of every frame distribution, index
``len(alphabet)``.  Probabilities are floored at ``PROB_FLOOR`` when
converted to logs so that impossible frames degrade gracefully instead
of producing NaNs downstream.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "PROB_FLOOR",
    "Alphabet",
    "validate_frame_probs",
    "collapse",
    "log_prob",
    "loss",
    "greedy_decode",
    "beam_decode",
]

PROB_FLOOR = 1e-12
_NEG_INF = -np.inf


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of characters; the blank is implicit and last.

    Frame distributions over this alphabet have ``len(chars) + 1``
    columns, the final column being the blank.
    """

    chars: tuple[str, ...]

    def __post_init__(self):
        chars = tuple(self.chars)
        if not chars:
            raise InputError("alphabet must contain at least one character")
        for c in chars:
            if not isinstance(c, str) or len(c) != 1:
                raise InputError(f"alphabet entries must be single characters, got {c!r}")
        if len(set(chars)) != len(chars):
            raise InputError("alphabet contains duplicate characters")
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(chars)})

    @property
    def blank(self) -> int:
        """Index of the blank symbol (one past the last character)."""
        return len(self.chars)

    @property
    def size(self) -> int:
        """Number of frame-distribution columns: characters plus blank."""
        return len(self.chars) + 1

    def index(self, char: str) -> int:
        try:
            return self._index[char]
        except KeyError:
            raise InputError(f"character {char!r} is not in the alphabet") from None

    def encode(self, text: str) -> list[int]:
        return [self.index(c) for c in text]

    def decode(self, labels: Sequence[int]) -> str:
        out = []
        for i in labels:
            if not 0 <= i < len(self.chars):
                raise InputError(f"label {i} outside alphabet of size {len(self.chars)}")
            out.append(self.chars[i])
        return "".join(out)


def _as_frames(probs) -> np.ndarray:
    """``probs`` as float64 frames x classes (two or more), all finite."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InputError("frame probabilities must be a 2-D array with at least two classes")
    if not np.all(np.isfinite(arr)):
        raise InputError("frame probabilities must be finite")
    return arr


def validate_frame_probs(probs, n_columns: int | None = None, tol: float = 1e-9) -> np.ndarray:
    """Check a frames-by-classes probability matrix and return it as float64.

    Every row must be a distribution: entries in [0, 1] and summing to
    1 within ``tol``.  ``n_columns``, when given, pins the expected
    number of classes (alphabet size plus blank).
    """
    arr = _as_frames(probs)
    if arr.shape[0] < 1:
        raise InputError("frame probabilities need at least one frame")
    if n_columns is not None and arr.shape[1] != n_columns:
        raise InputError(f"expected {n_columns} probability columns, got {arr.shape[1]}")
    if arr.min() < -tol or arr.max() > 1.0 + tol:
        raise InputError("frame probabilities must lie in [0, 1]")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise InputError("every frame row must sum to 1")
    return arr


def collapse(path: Sequence[int], blank: int) -> list[int]:
    """Collapse a frame path: merge adjacent repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for p in path:
        if p != prev:
            if p != blank:
                out.append(p)
            prev = p
    return out


def _check_labels(labels: Sequence[int], blank: int) -> list[int]:
    labels = [int(v) for v in labels]
    for v in labels:
        if not 0 <= v < blank:
            raise InputError(f"label {v} outside alphabet of size {blank}")
    return labels


def log_prob(probs, labels: Sequence[int]) -> float:
    """Log probability that the frame distributions emit ``labels``.

    Parameters
    ----------
    probs : array_like, shape (frames, classes)
        Per-frame distributions; the last column is the blank.
    labels : sequence of int
        Character indices in [0, classes - 1).

    Returns
    -------
    float
        log p(labels | probs), at most 0.0; ``-inf`` when no frame path
        collapses to the labels (for example more labels than frames).
        With zero frames only the empty label has a path: 0.0.

    Raises
    ------
    InputError
        For frames that :func:`beam_decode` refuses or a label outside
        the alphabet.

    Notes
    -----
    Runs the forward recursion over the blank-interleaved label
    sequence in log space.  Frame probabilities are floored at
    ``PROB_FLOOR`` before taking logs.
    """
    arr = _as_frames(probs)
    n_frames, n_classes = arr.shape
    blank = n_classes - 1
    labels = _check_labels(labels, blank)
    if n_frames == 0:
        return 0.0 if not labels else float(_NEG_INF)
    logp = np.log(np.maximum(arr, PROB_FLOOR))

    # Interleave blanks around the labels: blank y1 blank y2 ... blank.
    s = 2 * len(labels) + 1
    ext = np.full(s, blank)
    ext[1::2] = labels
    emit = logp[:, ext]
    # A skip over the separating blank is allowed only between distinct
    # non-blank labels: the states j >= 2 listed here.
    skip = 2 + np.flatnonzero((ext[2:] != blank) & (ext[2:] != ext[:-2]))

    alpha = np.full(s, _NEG_INF)
    alpha[:2] = emit[0, :2]
    for t in range(1, n_frames):
        a = alpha.copy()
        a[1:] = np.logaddexp(alpha[1:], alpha[:-1])
        a[skip] = np.logaddexp(a[skip], alpha[skip - 2])
        alpha = a + emit[t]
    total = alpha[s - 1]
    if s > 1:
        total = np.logaddexp(total, alpha[s - 2])
    # A probability can exceed 1 by a hair only through the floor; clamp.
    return float(min(total, 0.0))


def loss(batch: Sequence[tuple]) -> float:
    """Mean negative log probability over (probs, labels) pairs.

    Returns ``inf`` when any pair has zero probability; raises
    InputError on an empty batch.
    """
    if len(batch) == 0:
        raise InputError("loss needs at least one (probs, labels) pair")
    values = [log_prob(probs, labels) for probs, labels in batch]
    if any(v == _NEG_INF for v in values):
        return float("inf")
    return float(-np.mean(values))


def greedy_decode(probs) -> list[int]:
    """Best-path decode: collapse the per-frame argmax sequence.

    Frame ties break toward the lower class index.  Raises
    ``InputError`` for the same frames as :func:`beam_decode`.
    """
    arr = _as_frames(probs)
    path = np.argmax(arr, axis=1)
    return collapse(path.tolist(), blank=arr.shape[1] - 1)


def beam_decode(probs, beam_width: int = 8) -> list[int]:
    """Prefix beam search for the most probable label sequence.

    Each surviving prefix carries two scores: the log probability of
    ending in a blank and of ending in its last character.  With a beam
    at least as wide as the number of reachable prefixes the search is
    exact; narrow beams are an approximation, and ``beam_width=1`` need
    not coincide with :func:`greedy_decode`, which maximizes over paths
    rather than label sequences.

    Parameters
    ----------
    probs : array_like, shape (frames, classes)
        Per-frame distributions; the last column is the blank.
    beam_width : int
        Number of prefixes kept per frame; must be >= 1.

    Returns
    -------
    list of int
        The best label sequence, possibly empty.

    Raises
    ------
    InputError
        For a beam width below 1, a shape other than frames x classes
        with at least two classes, or a NaN or infinite probability.

    Notes
    -----
    One frame is one set of array operations over the beam x characters
    grid (Hannun et al. 2014).  Every prefix in the beam stays (a blank
    adds its total mass to the blank score, a repeat of its last
    character adds its non-blank mass to the non-blank score) and
    extends by every character.  An extension by the prefix's own last
    character needs a blank in between, so its source is the blank
    score alone; an extension whose source is ``-inf`` is not a
    candidate.

    An extension that lands on a prefix already in the beam is found by
    looking that prefix's parent (all but its last character) up in the
    beam, and its mass merges into the prefix's non-blank score.  So a
    prefix collects at most one blank term and two non-blank terms, and
    since ``logaddexp`` of two terms does not depend on their order the
    scores are the same, bit for bit, as those of a decoder that adds
    the terms up one candidate at a time.

    The next beam is the ``beam_width`` candidates of highest total log
    probability; equal totals go to the lexicographically smaller
    prefix.  ``np.partition`` finds the cut, and only the candidates at
    or above it are sorted by ``(-total, prefix)``.
    """
    if beam_width < 1:
        raise InputError("beam width must be >= 1")
    arr = _as_frames(probs)
    logp = np.log(np.maximum(arr, PROB_FLOOR))
    blank = arr.shape[1] - 1
    chars = np.arange(blank)

    # The beam, best first: its prefixes, their last characters (-1 for
    # the empty prefix), log p(ending in blank), log p(ending in the last
    # character) and log p(either).
    prefixes: list[tuple[int, ...]] = [()]
    last = np.array([-1])
    pb = np.array([0.0])
    pnb = np.array([_NEG_INF])
    total = np.logaddexp(pb, pnb)
    for lp in logp:
        n = len(prefixes)
        # Stay: a blank keeps all the mass, a repeat of the last character
        # keeps the mass ending in it.
        stay_pb = total + lp[blank]
        stay_pnb = np.where(last >= 0, pnb + lp[last], _NEG_INF)
        # Extend by every character; doubling the last one needs a blank
        # in between, so only the blank-ending mass moves.
        src = np.where(chars == last[:, None], pb[:, None], total[:, None])
        ext = src + lp[:blank]
        live = src != _NEG_INF

        # An extension that is already in the beam merges into it.
        index = {p: i for i, p in enumerate(prefixes)}
        dest = [j for j, p in enumerate(prefixes) if p and p[:-1] in index]
        if dest:
            rows = [index[prefixes[j][:-1]] for j in dest]
            cols = last[dest]
            merged = np.where(live[rows, cols], ext[rows, cols], _NEG_INF)
            stay_pnb[dest] = np.logaddexp(stay_pnb[dest], merged)
            live[rows, cols] = False

        grown = np.flatnonzero(live)
        cand_last = np.concatenate([last, grown % blank])
        cand_pb = np.concatenate([stay_pb, np.full(len(grown), _NEG_INF)])
        cand_pnb = np.concatenate([stay_pnb, ext.ravel()[grown]])
        neg = -np.logaddexp(cand_pb, cand_pnb)
        keep = min(beam_width, len(neg))
        if keep < len(neg):
            cut = np.partition(neg, keep - 1)[keep - 1]
            picked = np.flatnonzero(neg <= cut).tolist()
        else:
            picked = range(len(neg))

        ranked = []
        for s in picked:
            if s < n:
                prefix = prefixes[s]
            else:
                g = int(grown[s - n])
                prefix = prefixes[g // blank] + (g % blank,)
            ranked.append((float(neg[s]), prefix, s))
        ranked.sort()
        chosen = [s for _, _, s in ranked[:keep]]
        prefixes = [p for _, p, _ in ranked[:keep]]
        last, pb, pnb = cand_last[chosen], cand_pb[chosen], cand_pnb[chosen]
        total = -neg[chosen]

    return list(prefixes[0])
