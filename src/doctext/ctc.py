"""Sequence probability and decoding for frame-wise classifiers.

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

from .errors import InputError, check_int

__all__ = [
    "PROB_FLOOR",
    "Alphabet",
    "validate_frame_probs",
    "collapse",
    "log_prob",
    "greedy_decode",
    "beam_decode",
    "beam_decode_batch",
]

PROB_FLOOR = 1e-12
# how far a frame probability may stray outside [0, 1], and a row sum from 1
_PROB_TOL = 1e-9
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


def _as_frames(probs_list, n_columns: int | None = None) -> list[np.ndarray]:
    """The frame rule: each matrix as float64 frames x classes (two or more,
    one count for all, ``n_columns`` if given; shapes first), then every
    row a distribution: entries in [0, 1] summing to 1, both within 1e-9."""
    mats = []
    for probs in probs_list:
        try:
            arr = np.asarray(probs, dtype=np.float64)
        except (TypeError, ValueError):
            # ragged rows, or entries that are not numbers
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] < 2:
            raise InputError("frame probabilities must be a 2-D array with at least two classes")
        mats.append(arr)
    if not mats:
        return mats
    if any(m.shape[1] != mats[0].shape[1] for m in mats):
        raise InputError("the frame matrices of a batch must have the same number of classes")
    if n_columns is not None and mats[0].shape[1] != n_columns:
        raise InputError(f"expected {n_columns} probability columns, got {mats[0].shape[1]}")
    rows = np.concatenate(mats) if len(mats) > 1 else mats[0]
    # written so that NaN, which min() and max() propagate, fails it
    if rows.size and not (rows.min() >= -_PROB_TOL and rows.max() <= 1.0 + _PROB_TOL):
        raise InputError("frame probabilities must be finite and lie in [0, 1]")
    if np.any(np.abs(rows.sum(axis=1) - 1.0) > _PROB_TOL):
        raise InputError("every frame row must sum to 1")
    return mats


def validate_frame_probs(probs, n_columns: int | None = None) -> np.ndarray:
    """Check a frames-by-classes probability matrix and return it as float64.

    The frame rule of every function here, plus at least one frame and,
    when ``n_columns`` is given, that many classes (alphabet plus blank).
    """
    (arr,) = _as_frames([probs], n_columns)
    if arr.shape[0] < 1:
        raise InputError("frame probabilities need at least one frame")
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
    labels = list(labels)
    for v in labels:
        check_int(v, "label", 0)
        if v >= blank:
            raise InputError(f"label {v} outside alphabet of size {blank}")
    return [int(v) for v in labels]


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
    (arr,) = _as_frames([probs])
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


def greedy_decode(probs) -> list[int]:
    """Best-path decode: collapse the per-frame argmax sequence.

    Frame ties break toward the lower class index.  Raises
    ``InputError`` for the same frames as :func:`beam_decode`.
    """
    (arr,) = _as_frames([probs])
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
        with at least two classes, or a row that is not a distribution.

    Notes
    -----
    This is :func:`beam_decode_batch` on a batch of one box.  A page
    decodes all its boxes in one batch: one frame step is one set of
    array operations over every box still reading, and a box's labels
    do not depend on the boxes it shares the batch with.

    Every prefix in the beam stays (a blank adds its total mass to the
    blank score, a repeat of its last character adds its non-blank mass
    to the non-blank score) and extends by every character (Hannun et
    al. 2014).  An extension by the prefix's own last character needs a
    blank in between, so its source is the blank score alone; an
    extension whose source is ``-inf`` is not a candidate.

    A prefix is a node of a trie, so an extension that lands on a prefix
    already in the beam is found by looking its parent's node up in the
    beam, and its mass merges into the prefix's non-blank score.  A
    prefix collects at most one blank term and two non-blank terms, and
    since ``logaddexp`` of two terms does not depend on their order the
    scores are the same, bit for bit, as those of a decoder that adds
    the terms up one candidate at a time.

    The next beam is the ``beam_width`` candidates of highest total log
    probability; equal totals go to the lexicographically smaller
    prefix.  ``np.argpartition`` finds each box's cut, and prefixes are
    compared only when candidates tie exactly at the cut, or for the
    best prefix after the last frame.
    """
    return beam_decode_batch([probs], beam_width)[0]


# Trie node 0 is the parent of every root; the prefixes start at 1.
_NO_PARENT = 0


class _PrefixTrie:
    """The prefixes of a batch's beams, one node per prefix.

    A node has a parent, a last character and a child per character, so
    a prefix keeps its id when it leaves a beam and comes back.  Each
    box has its own root, so no two boxes share a node.
    """

    def __init__(self, n_roots: int, n_chars: int, capacity: int):
        self.n_chars = n_chars
        self.size = 1 + n_roots
        self.roots = np.arange(1, self.size)
        # per node: its child per character (-1 for none yet), its parent,
        # its last character, and the flat beam row it held when it was
        # last in a beam
        self.child, self.parent, self.char, self.row = self._empty(max(capacity, self.size))

    def _empty(self, capacity: int) -> tuple:
        # roots end in the blank, which nothing extends by
        return (
            np.full((capacity, self.n_chars), -1, dtype=np.intp),
            np.zeros(capacity, dtype=np.intp),
            np.full(capacity, self.n_chars, dtype=np.intp),
            np.zeros(capacity, dtype=np.intp),
        )

    def _grow(self) -> None:
        arrays = self._empty(2 * self.size)
        for new, old in zip(arrays, (self.child, self.parent, self.char, self.row)):
            new[: len(old)] = old
        self.child, self.parent, self.char, self.row = arrays

    def children(self, parents: np.ndarray, chars: np.ndarray) -> np.ndarray:
        """The nodes of ``parents`` extended by ``chars``, made if new.

        The (parent, char) pairs must be distinct.
        """
        ids = self.child[parents, chars]
        new = (ids < 0).nonzero()[0]
        if new.size == 0:
            return ids
        if new.size < ids.size:
            parents, chars = parents[new], chars[new]
        start = self.size
        self.size += new.size
        if self.size > len(self.parent):
            self._grow()
        made = np.arange(start, self.size)
        self.child[parents, chars] = made
        self.parent[start : self.size] = parents
        self.char[start : self.size] = chars
        ids[new] = made
        return ids

    def prefix(self, node: int) -> tuple[int, ...]:
        out = []
        while self.parent[node] != _NO_PARENT:
            out.append(int(self.char[node]))
            node = self.parent[node]
        return tuple(reversed(out))


def _best_prefixes(trie: _PrefixTrie, nodes: np.ndarray, totals: np.ndarray) -> list[list[int]]:
    """Each box's prefix of highest total, the smaller prefix on a tie."""
    out = []
    for row_nodes, row_totals in zip(nodes.tolist(), totals.tolist()):
        top = max(row_totals)
        out.append(list(min(trie.prefix(x) for x, v in zip(row_nodes, row_totals) if v == top)))
    return out


def beam_decode_batch(probs_list, beam_width: int = 8) -> list[list[int]]:
    """:func:`beam_decode` for many frame matrices in one search.

    Parameters
    ----------
    probs_list : sequence of array_like, each shape (frames, classes)
        Per-frame distributions, the last column the blank.  All share
        one number of classes; the numbers of frames may differ, and a
        matrix with no frames decodes to the empty label.
    beam_width : int
        Number of prefixes kept per box and frame; must be >= 1.

    Returns
    -------
    list of list of int
        ``beam_decode(probs, beam_width)`` for each matrix, in input
        order; ``[]`` for an empty batch.

    Raises
    ------
    InputError
        For a beam width below 1 (also with an empty batch), a matrix
        that :func:`beam_decode` refuses, or matrices with different
        numbers of classes.

    Notes
    -----
    The boxes go longest first, and their floored log probabilities are
    stacked into one frames x boxes x classes array, so the boxes still
    reading at frame t are the first few and a box drops out when its
    frames run out.  The beams are boxes x rows arrays, as every box
    keeps the same number of prefixes.  A frame's candidates form a
    boxes x (rows x classes) grid: column ``c < blank`` of a row extends
    it by ``c``, and column ``blank`` is the row itself.  A frame step
    is the same array program for one box or many, so a box's labels do
    not depend on the boxes it shares the batch with.
    """
    check_int(beam_width, "beam width", 1)
    mats = _as_frames(probs_list)
    if not mats:
        return []
    n_classes = mats[0].shape[1]
    blank = n_classes - 1
    order = sorted(range(len(mats)), key=lambda i: -len(mats[i]))
    lengths = [len(mats[i]) for i in order]
    logp = np.ones((lengths[0], len(mats), n_classes))
    for k, i in enumerate(order):
        logp[: lengths[k], k] = mats[i]
    np.log(np.maximum(logp, PROB_FLOOR, out=logp), out=logp)

    # The beams: each row's trie node, log p(ending in blank), log p(ending
    # in the last character) and log p(either).
    trie = _PrefixTrie(len(mats), blank, min(beam_width, blank) * sum(lengths))
    node = trie.roots[:, None]
    pb = np.zeros(node.shape)
    pnb = np.full(node.shape, _NEG_INF)
    total = np.logaddexp(pb, pnb)
    labels: list = [None] * len(mats)
    live = len(mats)
    # Every box keeps the same number of prefixes.  Until the beams first
    # fill, a box's beam after t frames holds every prefix of at most t
    # characters, so its number of candidates depends on t alone; once
    # they are full (``full``), a beam's beam_width stays are candidates,
    # so it keeps beam_width again.
    full = beam_width == 1
    keep = beam_width
    shape = None
    for t, lp in enumerate(logp):
        if lengths[live - 1] <= t:
            done = live
            while lengths[live - 1] <= t:
                live -= 1
            labels[live:done] = _best_prefixes(trie, node[live:], total[live:])
            node, pb, pnb, total = node[:live], pb[:live], pnb[:live], total[:live]
        lp = lp[:live]
        if node.shape != shape:
            shape = node.shape
            n = shape[1]
            width = n * n_classes
            rows = np.arange(live * n)
            row_cells = rows * n_classes
            box_cells = np.arange(0, live * n_classes, n_classes)[:, None]
            box_cands = np.arange(0, live * width, width)[:, None]
        last = trie.char[node]
        at_last = lp.ravel()[last + box_cells]
        # Stay: a blank keeps all the mass, a repeat of the last character
        # keeps the mass ending in it.
        stay_pb = total + lp[:, blank:]
        stay_pnb = pnb + at_last
        # Extend by every character; doubling the last one needs a blank
        # in between, so only the blank-ending mass moves.
        grid = total[:, :, None] + lp[:, None, :]
        cells = grid.ravel()
        cells[row_cells + last.ravel()] = (pb + at_last).ravel()

        # An extension that is already in the beam merges into it: the
        # prefix's parent is looked up by the row its node was last put in.
        parent = trie.parent[node]
        trie.row[node.ravel()] = rows
        up = trie.row[parent]
        hit = (node.take(up, mode="clip") == parent).ravel().nonzero()[0]
        if hit.size:
            into = up.ravel()[hit] * n_classes + last.ravel()[hit]
            merged = stay_pnb.ravel()
            merged[hit] = np.logaddexp(merged[hit], cells[into])
            cells[into] = _NEG_INF
        # Column ``blank`` is the row itself, staying.
        grid[:, :, blank] = np.logaddexp(stay_pb, stay_pnb)
        scores = grid.reshape(live, width)

        # Keep each box's best candidates; an extension scored -inf is none.
        if not full:
            keep = min(beam_width, int(np.count_nonzero(scores[0] > _NEG_INF)))
            full = keep == beam_width
        if keep < width:
            cut = width - keep
            pick = scores.argpartition((cut - 1, cut), axis=1)
            # the best candidate left out and the worst one kept
            edge = cells[pick[:, cut - 1 : cut + 1] + box_cands]
            for b in (edge[:, 0] == edge[:, 1]).nonzero()[0].tolist():
                if edge[b, 0] > _NEG_INF:
                    pick[b, cut:] = _break_tie(trie, node[b], scores[b], edge[b, 0], keep, n_classes)
            pick = pick[:, cut:]
        else:
            pick = np.broadcast_to(np.arange(width), scores.shape)
        chosen = pick + box_cands
        src, char = np.divmod(chosen, n_classes)
        total = cells[chosen]
        pb = stay_pb.ravel()[src]
        pnb = stay_pnb.ravel()[src]
        node = node.ravel()[src]
        # an extension ends in its last character
        grown = char != blank
        pb[grown] = _NEG_INF
        pnb[grown] = total[grown]
        grown = grown.ravel().nonzero()[0]
        nodes = node.ravel()
        nodes[grown] = trie.children(nodes[grown], char.ravel()[grown])

    labels[:live] = _best_prefixes(trie, node, total)
    out: list = [None] * len(mats)
    for k, i in enumerate(order):
        out[i] = labels[k]
    return out


def _break_tie(trie, nodes, scores, cut, keep, n_classes) -> list[int]:
    """The ``keep`` best candidates of one box whose candidates tie at
    the cut: the tied ones go in order of their prefixes."""
    above = (scores > cut).nonzero()[0].tolist()
    tied = (scores == cut).nonzero()[0].tolist()
    blank = n_classes - 1
    prefixes: dict[int, tuple[int, ...]] = {}
    keyed = []
    for s in tied:
        r, c = divmod(s, n_classes)
        p = prefixes.get(r)
        if p is None:
            p = prefixes[r] = trie.prefix(nodes[r])
        keyed.append((p if c == blank else p + (c,), s))
    keyed.sort()
    return above + [s for _, s in keyed[: keep - len(above)]]
