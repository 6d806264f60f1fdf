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
    collapse,
    greedy_decode,
    log_prob,
    loss,
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


@st.composite
def frame_matrices(draw, max_frames=14, max_classes=8, quantized=None):
    """Row-stochastic frames-by-classes matrices, possibly with no rows.

    Quantized rows (weights 0 to 3) hold exact zeros and make many
    candidate scores tie, which exercises the prefix tie-break.
    """
    n_frames = draw(st.integers(0, max_frames))
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

    def test_one_dimensional_rejected(self):
        with pytest.raises(InputError):
            validate_frame_probs([0.5, 0.5])


FRAME_READERS = [
    pytest.param(lambda p: beam_decode(p, 8), id="beam_decode"),
    pytest.param(greedy_decode, id="greedy_decode"),
    pytest.param(lambda p: log_prob(p, []), id="log_prob"),
]


class TestFrameCheck:
    """The scorer and both decoders refuse the same frame matrices."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("read", FRAME_READERS)
    def test_non_finite_frames_rejected(self, read, bad):
        with pytest.raises(InputError, match="finite"):
            read([[0.2, 0.8], [bad, 0.5]])

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [[1.0], [1.0]]], ids=["1-D", "one-column"])
    @pytest.mark.parametrize("read", FRAME_READERS)
    def test_shape_rejected(self, read, probs):
        with pytest.raises(InputError, match="at least two classes"):
            read(probs)

    def test_zero_frames(self):
        # Only the empty frame path exists, and it collapses to the
        # empty label.
        empty = np.zeros((0, 3))
        assert log_prob(empty, []) == 0.0
        assert log_prob(empty, [0]) == float("-inf")
        assert greedy_decode(empty) == []
        assert beam_decode(empty) == []


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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_more_frames_never_hurt_empty_label(self, data):
        # Appending a frame multiplies the all-blank path by at most 1.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = random_frame_probs(rng, int(rng.integers(1, 5)), 3)
        extended = np.vstack([probs, [[0.0, 0.0, 1.0]]])
        assert log_prob(extended, []) <= log_prob(probs, []) + 1e-12


class TestLoss:
    def test_mean_of_negative_logs(self):
        p = [[0.5, 0.5]]
        batch = [(p, []), (p, [0])]
        assert math.isclose(loss(batch), -math.log(0.5), rel_tol=1e-12)

    def test_impossible_pair_gives_inf(self):
        p = [[0.5, 0.5]]
        assert loss([(p, [0, 0])]) == float("inf")

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            loss([])


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
