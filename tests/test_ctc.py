"""Tests for frame-probability scoring and decoding.

The ground truth here is exhaustive enumeration: for small frame
counts every possible frame path is scored directly and aggregated by
its collapsed label, which the dynamic program must reproduce in log
space.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doctext.ctc import (
    PROB_FLOOR,
    Alphabet,
    beam_decode,
    beam_decode_batch,
    collapse,
    greedy_decode,
    log_prob,
    validate_frame_probs,
)
from doctext.errors import InputError


# ---------------------------------------------------------------- oracles


def collapse_reference(path, blank):
    """Independent collapse: groupby-dedupe, then drop blanks."""
    deduped = [k for k, _ in itertools.groupby(path)]
    return [k for k in deduped if k != blank]


def enumerate_label_probs(probs):
    """Map every reachable label (as a tuple) to its total probability.

    Walks all ``classes ** frames`` paths.  Only usable for tiny
    inputs, which is the point: no dynamic programming, no log space,
    nothing shared with the implementation under test.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n_frames, n_classes = probs.shape
    blank = n_classes - 1
    totals = {}
    for path in itertools.product(range(n_classes), repeat=n_frames):
        p = 1.0
        for t, c in enumerate(path):
            p *= probs[t, c]
        key = tuple(collapse_reference(path, blank))
        totals[key] = totals.get(key, 0.0) + p
    return totals


def random_frame_probs(rng, n_frames, n_classes):
    raw = rng.random((n_frames, n_classes)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def _beam_decode_reference(probs, beam_width=8):
    """Prefix beam search one candidate at a time, with a dict per frame.

    This was the library's decoder before it worked on whole frames at
    once; the array version must return exactly the same labels.
    """
    if beam_width < 1:
        raise InputError("beam width must be >= 1")
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InputError("frame probabilities must be a 2-D array with at least two classes")
    logp = np.log(np.maximum(arr, PROB_FLOOR))
    n_frames, n_classes = arr.shape
    blank = n_classes - 1

    # prefix -> [log p(ending in blank), log p(ending in last char)]
    beams = {(): [0.0, -np.inf]}
    for t in range(n_frames):
        nxt = {}

        def bucket(prefix):
            entry = nxt.get(prefix)
            if entry is None:
                entry = [-np.inf, -np.inf]
                nxt[prefix] = entry
            return entry

        for prefix, (pb, pnb) in beams.items():
            total = np.logaddexp(pb, pnb)
            # Emit a blank: prefix unchanged, now ends in blank.
            e = bucket(prefix)
            e[0] = np.logaddexp(e[0], total + logp[t, blank])
            # Re-emit the final character: merges into the same prefix.
            if prefix:
                e[1] = np.logaddexp(e[1], pnb + logp[t, prefix[-1]])
            for c in range(blank):
                ext = prefix + (c,)
                # Extending with the same character requires a blank in
                # between, so only the blank-ending mass moves.
                src = pb if (prefix and c == prefix[-1]) else total
                if src == -np.inf:
                    continue
                e2 = bucket(ext)
                e2[1] = np.logaddexp(e2[1], src + logp[t, c])
        ranked = sorted(
            nxt.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0])
        )
        beams = dict(ranked[:beam_width])

    best = min(beams.items(), key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]))
    return list(best[0])


def _log_prob_reference(probs, labels):
    """CTC forward recursion one extended state at a time.

    This was the library's ``log_prob`` before it stepped each frame as
    arrays; the array version must return exactly the same value.
    """
    arr = np.asarray(probs, dtype=np.float64)
    n_frames, n_classes = arr.shape
    blank = n_classes - 1
    if n_frames == 0:
        return 0.0 if not labels else float(-np.inf)
    logp = np.log(np.maximum(arr, PROB_FLOOR))
    ext = [blank]
    for y in labels:
        ext.append(y)
        ext.append(blank)
    s = len(ext)

    alpha = np.full(s, -np.inf)
    alpha[0] = logp[0, ext[0]]
    if s > 1:
        alpha[1] = logp[0, ext[1]]
    for t in range(1, n_frames):
        prev = alpha
        alpha = np.full(s, -np.inf)
        for j in range(s):
            a = prev[j]
            if j >= 1:
                a = np.logaddexp(a, prev[j - 1])
            if j >= 2 and ext[j] != blank and ext[j] != ext[j - 2]:
                a = np.logaddexp(a, prev[j - 2])
            alpha[j] = a + logp[t, ext[j]]
    total = alpha[s - 1]
    if s > 1:
        total = np.logaddexp(total, alpha[s - 2])
    return float(min(total, 0.0))


@st.composite
def frame_matrices(draw, max_frames=14, max_classes=8, quantized=None, n_classes=None):
    """Row-stochastic frames-by-classes matrices, possibly with no rows.

    Quantized rows (weights 0 to 3) hold exact zeros and make many
    candidate scores tie, which exercises the prefix tie-break.
    """
    n_frames = draw(st.integers(0, max_frames))
    if n_classes is None:
        n_classes = draw(st.integers(2, max_classes))
    if quantized is None:
        quantized = draw(st.booleans())
    if quantized:
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(1e-3, 1.0)
    weights = draw(arrays(np.float64, (n_frames, n_classes), elements=elements))
    weights += weights.sum(axis=1, keepdims=True) == 0.0
    return weights / weights.sum(axis=1, keepdims=True)


@st.composite
def frame_batches(draw, max_boxes=6, max_frames=10, max_classes=6):
    """Lists of frame matrices that share a column count: lengths mixed,
    zero frames included, each matrix quantized or not."""
    n_classes = draw(st.integers(2, max_classes))
    n_boxes = draw(st.integers(0, max_boxes))
    return [draw(frame_matrices(max_frames=max_frames, n_classes=n_classes)) for _ in range(n_boxes)]


# ---------------------------------------------------------------- alphabet


class TestAlphabet:
    def test_blank_is_last_index(self):
        a = Alphabet("abc")
        assert a.blank == 3
        assert a.size == 4

    def test_encode_decode_roundtrip(self):
        a = Alphabet("abc-")
        assert a.decode(a.encode("cab-a")) == "cab-a"

    def test_encode_unknown_char_rejected(self):
        a = Alphabet("ab")
        with pytest.raises(InputError):
            a.encode("abc")

    def test_duplicate_chars_rejected(self):
        with pytest.raises(InputError):
            Alphabet("aba")

    def test_empty_alphabet_rejected(self):
        with pytest.raises(InputError):
            Alphabet("")

    def test_decode_blank_rejected(self):
        a = Alphabet("ab")
        with pytest.raises(InputError):
            a.decode([0, 2])


# ------------------------------------------------------------- validation


class TestValidateFrameProbs:
    def test_valid_passes_and_casts(self):
        arr = validate_frame_probs([[0.5, 0.5], [1.0, 0.0]])
        assert arr.dtype == np.float64

    def test_row_sum_violation(self):
        with pytest.raises(InputError):
            validate_frame_probs([[0.6, 0.6]])

    def test_negative_entry(self):
        with pytest.raises(InputError):
            validate_frame_probs([[-0.1, 1.1]])

    def test_nan_entry(self):
        with pytest.raises(InputError):
            validate_frame_probs([[float("nan"), 1.0]])

    def test_wrong_column_count(self):
        with pytest.raises(InputError):
            validate_frame_probs([[0.5, 0.5]], n_columns=3)

    @pytest.mark.parametrize("row", [[0.9, 0.9], [float("nan"), 1.0], [2.0, 0.5, 0.5, 0.5]], ids=repr)
    def test_column_count_checked_before_values(self, row):
        # a frames file of another alphabet is reported as that, not as bad rows
        with pytest.raises(InputError, match=f"expected 3 probability columns, got {len(row)}"):
            validate_frame_probs([row], n_columns=3)

    def test_one_dimensional_rejected(self):
        with pytest.raises(InputError):
            validate_frame_probs([0.5, 0.5])

    @pytest.mark.parametrize("probs, message", [
        ([], "2-D array"), (np.zeros((0,)), "2-D array"), (np.zeros((0, 1)), "2-D array"),
        (np.zeros((0, 2)), "expected 3 probability columns, got 2"), (np.zeros((0, 3)), "at least one frame"),
    ], ids=["empty-list", "1-D", "one-column", "two-columns", "no-frames"])
    def test_frame_count_checked_last(self, probs, message):
        # a matrix with no frames is refused by its shape first
        with pytest.raises(InputError, match=message):
            validate_frame_probs(probs, n_columns=3)


FRAME_READERS = [
    pytest.param(lambda p: beam_decode(p, 8), id="beam_decode"),
    pytest.param(lambda p: beam_decode_batch([p], 8)[0], id="beam_decode_batch"),
    pytest.param(greedy_decode, id="greedy_decode"),
    pytest.param(lambda p: log_prob(p, []), id="log_prob"),
]


@st.composite
def perturbed_frames(draw):
    """Frame matrices of at least one frame: row-stochastic ones, and ones
    with an entry or a row moved off a distribution, by far or by about
    the 1e-9 tolerance of the frame rule."""
    probs = draw(frame_matrices(max_frames=6, max_classes=5).filter(len)).copy()
    kind = draw(st.sampled_from(["none", "entry", "shift", "scale"]))
    t = draw(st.integers(0, len(probs) - 1))
    c = draw(st.integers(0, probs.shape[1] - 1))
    if kind == "entry":
        probs[t, c] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 1.5, 1.0 + 1e-6, -1e-6, 0.0, 1.0]))
    elif kind == "shift":
        # by less or more than the tolerance, off one entry or both ways
        probs[t, c] += draw(st.sampled_from([-2e-9, -5e-10, 5e-10, 2e-9, 1e-6]))
    elif kind == "scale":
        probs[t] *= draw(st.sampled_from([0.0, 0.9, 1.0 - 1e-10, 1.0 + 1e-10, 1.1, 2.0]))
    return probs


# frames refused by their shape, a conversion, or their column count:
# perturbed_frames draws at most five columns
LATER_BAD_FRAMES = [[0.5, 0.5], [[0.5, 0.5], [1.0]], [["a", "b"]], [[10**400, 0]],
                    np.full((1, 6), 1 / 6), np.full((1, 7), 0.5)]


class TestFrameCheck:
    """The scorer, both decoders and the batch decoder refuse the same
    frame matrices: those that :func:`validate_frame_probs` refuses, bar
    its pins on the number of frames and of columns."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("read", FRAME_READERS)
    def test_non_finite_frames_rejected(self, read, bad):
        with pytest.raises(InputError, match="finite"):
            read([[0.2, 0.8], [bad, 0.5]])

    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["huge", "-huge"])
    @pytest.mark.parametrize(
        "read", FRAME_READERS + [pytest.param(validate_frame_probs, id="validate_frame_probs")])
    def test_integers_beyond_the_float_range_rejected(self, read, bad):
        # float() of such an integer raises OverflowError, not a DoctextError
        with pytest.raises(InputError, match=r"finite and lie in \[0, 1\]"):
            read([[0.5, 0.5], [bad, 0]])

    @pytest.mark.parametrize(
        "probs",
        [[0.5, 0.5], [[1.0], [1.0]], [[0.5, 0.5], [1.0]], [["a", "b"]]],
        ids=["1-D", "one-column", "ragged", "not-numbers"],
    )
    @pytest.mark.parametrize("read", FRAME_READERS)
    def test_shape_rejected(self, read, probs):
        with pytest.raises(InputError, match="at least two classes"):
            read(probs)

    @pytest.mark.parametrize(
        "probs",
        [[[5.0, -3.0, 0.0]], [[0.0, 0.0, 0.0]], [[1.5, -0.5]], [[0.45, 0.45]], [[0.0, 0.0]],
         [[1.0 + 1e-6, 0.0]], [[0.5, 0.5], [0.6, 0.6]]],
        ids=["sums-to-2", "all-zero-3", "outside-0-1", "sums-short", "all-zero", "above-1", "second-row"],
    )
    @pytest.mark.parametrize("read", FRAME_READERS)
    def test_non_distributions_rejected(self, read, probs):
        with pytest.raises(InputError, match=r"lie in \[0, 1\]|sum to 1"):
            read(probs)
        with pytest.raises(InputError):
            validate_frame_probs(probs)

    @settings(max_examples=300, deadline=None)
    @given(perturbed_frames())
    def test_refuse_exactly_what_validate_refuses(self, probs):
        try:
            validate_frame_probs(probs)
            refused = False
        except InputError:
            refused = True
        for read in [p.values[0] for p in FRAME_READERS]:
            if refused:
                with pytest.raises(InputError):
                    read(probs)
            else:
                read(probs)

    @settings(max_examples=100, deadline=None)
    @given(perturbed_frames(), st.data())
    def test_batch_refuses_any_refused_box(self, probs, data):
        # the batch checks its stacked rows once; a bad box anywhere in it
        # is found, and a batch of good boxes decodes
        partners = data.draw(st.lists(frame_matrices(max_frames=6, n_classes=probs.shape[1]), max_size=4))
        at = data.draw(st.integers(0, len(partners)))
        batch = partners[:at] + [probs] + partners[at:]
        try:
            validate_frame_probs(probs)
        except InputError as exc:
            # boxes after it may be bad in any other way: the refusal is
            # still the first bad box's, named by its index
            batch += data.draw(st.lists(st.sampled_from(LATER_BAD_FRAMES), max_size=2))
            with pytest.raises(InputError) as refused:
                beam_decode_batch(batch, 4)
            assert refused.value.index == at
            assert str(refused.value) == str(exc)
        else:
            assert beam_decode_batch(batch, 4)[at] == beam_decode(probs, 4)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_verdict_does_not_depend_on_memory_order(self, order):
        # rows off by about the tolerance, where a row summed in another
        # order can round to the other side of it
        rng = np.random.default_rng(33)
        good = np.full((1, 40), 1 / 40)
        for _ in range(200):
            probs = rng.random((2, 40))
            probs /= probs.sum(axis=1, keepdims=True)
            probs[0] *= 1.0 + 1e-9 * (1.0 + rng.uniform(-1e-6, 1e-6))
            probs = np.asarray(probs, order=order)
            verdicts = []
            for read in (validate_frame_probs, lambda p: beam_decode_batch([good, p], 2),
                         lambda p: validate_frame_probs(np.ascontiguousarray(p))):
                try:
                    read(probs)
                    verdicts.append(None)
                except InputError as exc:
                    verdicts.append(str(exc))
            assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_zero_frames(self):
        # Only the empty frame path exists, and it collapses to the
        # empty label.
        empty = np.zeros((0, 3))
        assert log_prob(empty, []) == 0.0
        assert log_prob(empty, [0]) == float("-inf")
        assert greedy_decode(empty) == []
        assert beam_decode(empty) == []
        assert beam_decode_batch([empty, np.zeros((0, 3))], 8) == [[], []]


# --------------------------------------------------------------- collapse


class TestCollapse:
    def test_merges_repeats_then_drops_blank(self):
        # aa-b-bb -> a b b with blank 2
        assert collapse([0, 0, 2, 1, 2, 1, 1], blank=2) == [0, 1, 1]

    def test_all_blank(self):
        assert collapse([3, 3, 3], blank=3) == []

    def test_empty(self):
        assert collapse([], blank=0) == []

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=12),
        st.integers(min_value=0, max_value=3),
    )
    def test_matches_reference(self, path, blank):
        assert collapse(path, blank) == collapse_reference(path, blank)

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
    def test_idempotent_when_no_blank(self, path):
        # Collapsing an already-collapsed blank-free sequence only
        # merges repeats, so a second pass changes nothing.
        once = collapse(path, blank=99)
        assert collapse(once, blank=99) == once


# ------------------------------------------------- probability of a label


class TestLogProb:
    def test_single_frame_single_char(self):
        # One frame: p(label [0]) is exactly the frame's class-0 mass.
        p = [[0.7, 0.1, 0.2]]
        assert math.isclose(log_prob(p, [0]), math.log(0.7), rel_tol=1e-12)

    def test_empty_label_probability(self):
        # Empty label needs all-blank frames.
        p = [[0.25, 0.75], [0.5, 0.5]]
        assert math.isclose(log_prob(p, []), math.log(0.75 * 0.5), rel_tol=1e-12)

    def test_too_many_labels_impossible(self):
        p = [[0.5, 0.5], [0.5, 0.5]]
        assert log_prob(p, [0, 0]) == float("-inf")
        # Distinct labels need no separating blank, so two fit in two frames.
        p3 = [[0.4, 0.4, 0.2], [0.4, 0.4, 0.2]]
        assert log_prob(p3, [0, 1]) > float("-inf")

    def test_repeated_label_needs_separator(self):
        # [a, a] in three frames forces the path a blank a.
        p = [[0.6, 0.4], [0.6, 0.4], [0.6, 0.4]]
        assert math.isclose(log_prob(p, [0, 0]), math.log(0.6 * 0.4 * 0.6), rel_tol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n_frames = int(rng.integers(1, 6))
            n_classes = int(rng.integers(2, 5))
            probs = random_frame_probs(rng, n_frames, n_classes)
            oracle = enumerate_label_probs(probs)
            for label, p in oracle.items():
                got = log_prob(probs, list(label))
                assert math.isclose(got, math.log(p), rel_tol=0, abs_tol=1e-10)

    def test_conservation(self):
        # The label probabilities of a valid input partition the path
        # space, so they must sum to one.
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs = random_frame_probs(rng, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
            total = sum(enumerate_label_probs(probs).values())
            assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9)
            dp_total = sum(
                math.exp(log_prob(probs, list(label)))
                for label in enumerate_label_probs(probs)
            )
            assert math.isclose(dp_total, 1.0, rel_tol=0, abs_tol=1e-9)

    def test_column_permutation_covariance(self):
        # Shuffling the character columns (blank stays last) and
        # relabeling accordingly leaves every probability unchanged.
        rng = np.random.default_rng(9)
        probs = random_frame_probs(rng, 5, 4)
        perm = [2, 0, 1]  # permutation of the three character classes
        shuffled = probs[:, perm + [3]]
        for label in [(0,), (1, 2), (2, 0, 1)]:
            relabeled = [perm.index(v) for v in label]
            assert math.isclose(
                log_prob(probs, list(label)),
                log_prob(shuffled, relabeled),
                rel_tol=0,
                abs_tol=1e-12,
            )

    def test_zero_probability_entries_floored(self):
        # Hard zeros must not produce NaN; the floor keeps the math
        # finite while leaving the result effectively impossible.
        p = [[1.0, 0.0], [1.0, 0.0]]
        v = log_prob(p, [])
        assert v <= math.log(PROB_FLOOR) * 1.9
        assert np.isfinite(v)

    def test_never_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            probs = random_frame_probs(rng, int(rng.integers(1, 7)), int(rng.integers(2, 5)))
            length = int(rng.integers(0, 4))
            label = list(rng.integers(0, probs.shape[1] - 1, size=length))
            assert log_prob(probs, label) <= 0.0

    def test_label_outside_alphabet_rejected(self):
        with pytest.raises(InputError):
            log_prob([[0.5, 0.5]], [1])  # 1 is the blank column
        with pytest.raises(InputError):
            log_prob([[0.5, 0.5]], [-1])

    @pytest.mark.parametrize("label", [0.5, 0.0, True, False, "1", None], ids=repr)
    def test_non_integer_label_rejected(self, label):
        # int() would score 0.5 as label 0 and True or "1" as label 1
        probs = [[0.3, 0.3, 0.4], [0.2, 0.5, 0.3]]
        with pytest.raises(InputError, match="label"):
            log_prob(probs, [label])

    def test_numpy_integer_labels_accepted(self):
        probs = np.array([[0.3, 0.3, 0.4], [0.2, 0.5, 0.3]])
        assert log_prob(probs, np.array([0, 1])) == log_prob(probs, [0, 1])

    @settings(max_examples=300, deadline=None)
    @given(frame_matrices(), st.data())
    def test_matches_reference_exactly(self, probs, data):
        # Peaked frames put nearly all mass on one class, so that most
        # paths sit at the probability floor.
        if data.draw(st.booleans()):
            probs = probs**8 / (probs**8).sum(axis=1, keepdims=True)
        # Few distinct labels make repeats, which forbid the skip.
        n_chars = min(probs.shape[1] - 1, data.draw(st.integers(1, 3)))
        labels = data.draw(st.lists(st.integers(0, n_chars - 1), max_size=probs.shape[0] + 2))
        assert log_prob(probs, labels) == _log_prob_reference(probs, labels)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_more_frames_never_hurt_empty_label(self, data):
        # Appending a frame multiplies the all-blank path by at most 1.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = random_frame_probs(rng, int(rng.integers(1, 5)), 3)
        extended = np.vstack([probs, [[0.0, 0.0, 1.0]]])
        assert log_prob(extended, []) <= log_prob(probs, []) + 1e-12


# ---------------------------------------------------------------- decoding


class TestGreedyDecode:
    def test_collapses_best_path(self):
        a, b, blank = 0, 1, 2
        p = np.full((5, 3), 0.1)
        for t, c in enumerate([a, a, blank, b, b]):
            p[t, c] = 0.8
        assert greedy_decode(p / p.sum(axis=1, keepdims=True)) == [a, b]

    def test_ties_break_to_lower_index(self):
        p = [[0.5, 0.5, 0.0]]
        assert greedy_decode(p) == [0]

    def test_all_blank_gives_empty(self):
        p = [[0.1, 0.1, 0.8], [0.2, 0.2, 0.6]]
        assert greedy_decode(p) == []


class TestBeamDecode:
    def test_wide_beam_matches_enumeration_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            probs = random_frame_probs(rng, int(rng.integers(1, 6)), int(rng.integers(2, 5)))
            oracle = enumerate_label_probs(probs)
            best = max(oracle.items(), key=lambda kv: (kv[1], kv[0]))
            # With random inputs the argmax is unique by a wide margin
            # almost surely; skip the rare near-tie.
            ranked = sorted(oracle.values(), reverse=True)
            if len(ranked) > 1 and ranked[0] - ranked[1] < 1e-9:
                continue
            got = beam_decode(probs, beam_width=4096)
            assert tuple(got) == best[0]

    def test_beam_can_beat_greedy(self):
        # Classic case: the best single path collapses to one label
        # while another label aggregates more total mass.
        p = np.array(
            [
                [0.4, 0.0, 0.6],
                [0.4, 0.0, 0.6],
            ]
        )
        # Greedy path is blank-blank -> empty label, p = 0.36.
        # Label [0] sums 0.4*0.6 + 0.6*0.4 + 0.4*0.4 = 0.4.
        assert greedy_decode(p) == []
        assert beam_decode(p, beam_width=8) == [0]

    def test_beam_one_is_deterministic(self):
        rng = np.random.default_rng(12)
        probs = random_frame_probs(rng, 8, 5)
        assert beam_decode(probs, 1) == beam_decode(probs, 1)

    def test_invalid_width_rejected(self):
        with pytest.raises(InputError):
            beam_decode([[0.5, 0.5]], 0)

    @settings(max_examples=150, deadline=None)
    @given(frame_matrices())
    def test_matches_reference_exactly(self, probs):
        for width in (1, 2, 3, 8, 64):
            got = beam_decode(probs, width)
            assert got == _beam_decode_reference(probs, width)
            assert all(type(v) is int for v in got)

    @settings(max_examples=60, deadline=None)
    @given(frame_matrices(max_frames=5, max_classes=4, quantized=False))
    def test_unpruned_beam_is_enumeration_argmax(self, probs):
        n_frames, n_classes = probs.shape
        oracle = enumerate_label_probs(probs)
        ranked = sorted(oracle.values(), reverse=True)
        assume(len(ranked) == 1 or ranked[0] - ranked[1] >= 1e-9)
        # Fewer prefixes than this exist after the last frame, so the
        # beam never prunes.
        never_prunes = sum((n_classes - 1) ** n for n in range(n_frames + 1))
        best = max(oracle, key=oracle.get)
        assert tuple(beam_decode(probs, never_prunes)) == best

    def test_unpruned_beam_dominates_any_width(self):
        # Beam search is not monotone in width, but a beam wide enough
        # to never prune is an exhaustive search, so nothing beats it.
        rng = np.random.default_rng(13)
        for _ in range(20):
            probs = random_frame_probs(rng, 6, 4)
            exact = log_prob(probs, beam_decode(probs, 4096))
            for w in (1, 2, 4, 8, 64):
                assert exact >= log_prob(probs, beam_decode(probs, w)) - 1e-12


class TestBeamDecodeBatch:
    """The batch is the one-box search run on every box: checked against
    the one-candidate-at-a-time reference, box by box."""

    @settings(max_examples=80, deadline=None)
    @given(frame_batches())
    def test_matches_reference_box_by_box(self, mats):
        for width in (1, 2, 3, 8, 64):
            got = beam_decode_batch(mats, width)
            assert got == [_beam_decode_reference(m, width) for m in mats]
            assert all(type(v) is int for label in got for v in label)

    @settings(max_examples=60, deadline=None)
    @given(frame_batches(), st.data())
    def test_box_does_not_depend_on_its_partners(self, mats, data):
        perm = data.draw(st.permutations(range(len(mats))))
        for width in (1, 2, 3, 8, 64):
            got = beam_decode_batch(mats, width)
            assert beam_decode_batch([mats[i] for i in perm], width) == [got[i] for i in perm]

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 64])
    def test_empty_batch(self, width):
        assert beam_decode_batch([], width) == []

    @settings(max_examples=30, deadline=None)
    @given(frame_matrices(), frame_matrices())
    def test_mismatched_columns_rejected(self, a, b):
        assume(a.shape[1] != b.shape[1])
        with pytest.raises(InputError, match="same number of classes"):
            beam_decode_batch([a, b], 8)

    @pytest.mark.parametrize("mats", [[], [np.full((2, 3), 1 / 3)]], ids=["empty", "one-box"])
    def test_width_below_one_rejected(self, mats):
        with pytest.raises(InputError, match="beam width"):
            beam_decode_batch(mats, 0)

    @pytest.mark.parametrize("width", [2.5, 2.0, True], ids=repr)
    def test_non_integer_width_rejected(self, width):
        with pytest.raises(InputError, match="beam width"):
            beam_decode_batch([np.full((2, 3), 1 / 3)], width)

    def test_numpy_integer_width_accepted(self):
        probs = np.array([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3]])
        assert beam_decode_batch([probs], np.int64(4)) == beam_decode_batch([probs], 4)

    def test_non_finite_box_rejected(self):
        good = np.full((2, 3), 1 / 3)
        with pytest.raises(InputError, match="finite"):
            beam_decode_batch([good, np.array([[0.5, np.nan, 0.5]])], 8)
