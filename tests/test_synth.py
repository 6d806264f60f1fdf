"""Tests for the synthetic document and recognition-frame generator."""

import numpy as np
import pytest

from doctext.ctc import beam_decode
from doctext.errors import InputError
from doctext.layout import arrange_document
from doctext.synth import (
    CONFUSIONS,
    DEFAULT_WORDS,
    SynthSpec,
    gen_corpus,
    gen_document,
    gen_frames,
    induce_noise,
    render_frame_probs,
    render_page,
    sample_phrase,
    word_alphabet,
)


class TestSpecValidation:
    def test_defaults_valid(self):
        SynthSpec()

    def test_jitter_range(self):
        with pytest.raises(InputError):
            SynthSpec(jitter=1.5)
        with pytest.raises(InputError):
            SynthSpec(jitter=-0.1)

    def test_noise_budget(self):
        with pytest.raises(InputError):
            SynthSpec(p_sub=0.7, p_del=0.5)
        SynthSpec(p_sub=0.5, p_del=0.5)

    def test_bad_ranges(self):
        with pytest.raises(InputError):
            SynthSpec(blocks=(3, 1))
        with pytest.raises(InputError):
            SynthSpec(lines_per_block=(0, 2))
        for pair in [(1,), (1, 2, 3)]:
            with pytest.raises(InputError):
                SynthSpec(words_per_line=pair)

    @pytest.mark.parametrize("pair", [(True, 2), (1, True), (1.0, 2), (1, 2.5), (np.True_, 2)])
    def test_non_integer_range_ends(self, pair):
        with pytest.raises(InputError, match="must be an integer"):
            SynthSpec(blocks=pair)

    def test_numpy_integer_range_ends(self):
        assert SynthSpec(blocks=(np.int64(1), np.int32(2))).blocks == (1, 2)

    @pytest.mark.parametrize("value", [3, None, 2.5], ids=repr)
    def test_range_must_be_a_sequence(self, value):
        with pytest.raises(InputError, match="blocks must be an integer range"):
            SynthSpec(blocks=value)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None], ids=repr)
    def test_non_integer_seed(self, seed):
        with pytest.raises(InputError, match="seed must be an integer"):
            SynthSpec(seed=seed)

    def test_negative_seed(self):
        with pytest.raises(InputError, match="seed must be >= 0"):
            SynthSpec(seed=-1)

    def test_numpy_integer_seed(self):
        assert gen_document(SynthSpec(seed=np.int64(5))).boxes == gen_document(SynthSpec(seed=5)).boxes

    @pytest.mark.parametrize("field", ["page_width", "page_height"])
    @pytest.mark.parametrize("value", [1000.5, 1000.0, True, "1000"])
    def test_non_integer_page_size(self, field, value):
        with pytest.raises(InputError, match="must be an integer"):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("field", ["page_width", "page_height"])
    def test_page_size_positive(self, field):
        with pytest.raises(InputError, match=f"{field} must be >= 1"):
            SynthSpec(**{field: 0})

    def test_bad_words(self):
        with pytest.raises(InputError):
            SynthSpec(words=())
        with pytest.raises(InputError):
            SynthSpec(words=("two words",))

    @pytest.mark.parametrize("words", ["abc", "", 3, None], ids=repr)
    def test_words_must_be_a_sequence_of_words(self, words):
        # a string used to become the word list ('a', 'b', 'c')
        with pytest.raises(InputError, match="words must be a sequence of words"):
            SynthSpec(words=words)

    @pytest.mark.parametrize("word", [1, None, b"ab", ("a", "b")], ids=repr)
    def test_words_must_be_strings(self, word):
        # [1] used to end in a bare TypeError
        with pytest.raises(InputError, match="must be a non-empty string without spaces"):
            SynthSpec(words=["time", word])

    def test_word_list_kinds_accepted(self):
        assert SynthSpec(words=["ab", "cd"]).words == SynthSpec(words=("ab", "cd")).words == ("ab", "cd")

    def test_negative_temperature(self):
        with pytest.raises(InputError):
            SynthSpec(temperature=-1.0)


class TestAlphabet:
    def test_covers_default_words(self):
        alpha = word_alphabet(DEFAULT_WORDS)
        for w in DEFAULT_WORDS:
            alpha.encode(w)  # must not raise

    def test_sorted_and_deduplicated(self):
        alpha = word_alphabet(["ba", "ab"])
        assert alpha.chars == ("a", "b")


class TestGenDocument:
    def test_deterministic_from_seed(self):
        a = gen_document(SynthSpec(seed=5, jitter=0.2))
        b = gen_document(SynthSpec(seed=5, jitter=0.2))
        assert a.boxes == b.boxes
        assert a.labels == b.labels and a.order == b.order

    def test_every_box_carries_a_word(self):
        doc = gen_document(SynthSpec(seed=6))
        assert all(b.word in DEFAULT_WORDS for b in doc.boxes)

    def test_boxes_fit_page(self):
        spec = SynthSpec(seed=7, jitter=0.3)
        doc = gen_document(spec)
        for b in doc.boxes:
            assert 0 <= b.left and b.right <= spec.page_width
            assert 0 <= b.top and b.bottom <= spec.page_height

    def test_layout_recovery_under_jitter(self):
        # At jitter 0.3 the vertical offset stays below half the line
        # tolerance, so grouping and ordering recover the generation
        # truth exactly.
        for seed in range(30):
            spec = SynthSpec(seed=seed, jitter=0.3)
            doc = gen_document(spec)
            got = arrange_document(doc.boxes)
            assert got.labels == doc.labels
            assert got.order == doc.order

    def test_infeasible_page_rejected(self):
        with pytest.raises(InputError):
            gen_document(SynthSpec(seed=0, page_height=40, blocks=(3, 3), lines_per_block=(5, 5)))

    def test_render_page_paints_boxes(self):
        spec = SynthSpec(seed=8)
        doc = gen_document(spec)
        img = render_page(doc, spec)
        assert img.width == spec.page_width and img.height == spec.page_height
        assert img.pixels.min() < 1.0


class TestFrameProbs:
    def test_shape_and_row_sums(self):
        alpha = word_alphabet(DEFAULT_WORDS)
        spec = SynthSpec(seed=9, temperature=0.8)
        probs = render_frame_probs("mother", alpha, spec)
        assert probs.shape == (2 * len("mother") + 1, alpha.size)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0

    def test_zero_temperature_is_one_hot(self):
        alpha = word_alphabet(DEFAULT_WORDS)
        probs = render_frame_probs("word", alpha, SynthSpec(seed=10, temperature=0.0))
        assert np.array_equal(np.sort(probs, axis=1)[:, :-1], np.zeros((9, alpha.size - 1)))
        # Odd rows carry the character, even rows the blank.
        for m in range(9):
            couple = alpha.blank if m % 2 == 0 else alpha.index("word"[m // 2])
            assert probs[m, couple] == 1.0

    def test_decodes_exactly_at_zero_temperature(self):
        alpha = word_alphabet(DEFAULT_WORDS)
        for w in ["mother", "book", "yellow-red", "a"]:
            probs = render_frame_probs(w, alpha, SynthSpec(temperature=0.0))
            assert alpha.decode(beam_decode(probs, 4)) == w

    def test_word_outside_alphabet_rejected(self):
        alpha = word_alphabet(["abc"])
        with pytest.raises(InputError):
            render_frame_probs("xyz", alpha, SynthSpec())

    def test_same_draws_across_temperatures(self):
        # The random draws are temperature-independent, so the set of
        # corrupted frames only ever grows with temperature.
        alpha = word_alphabet(DEFAULT_WORDS)
        lo = render_frame_probs("mother", alpha, SynthSpec(seed=11, temperature=0.2))
        hi = render_frame_probs("mother", alpha, SynthSpec(seed=11, temperature=0.9))
        # Wherever the true class lost mass at low temperature, it lost
        # at least as much at high temperature.
        ids = alpha.encode("mother")
        for m in range(lo.shape[0]):
            own = alpha.blank if m % 2 == 0 else ids[m // 2]
            assert hi[m, own] <= lo[m, own] + 1e-12

    def test_accuracy_monotone_in_temperature(self):
        # Pointwise over a fixed evaluation set: if the decoder gets a
        # word right at temperature t, it also gets it right at every
        # lower temperature (same draws, more corruption only).
        alpha = word_alphabet(DEFAULT_WORDS)
        temps = [0.0, 0.25, 0.5, 0.75, 1.0]
        hits = []
        for t in temps:
            ok = 0
            for k in range(120):
                rng = np.random.default_rng([13, k])
                word = DEFAULT_WORDS[k % len(DEFAULT_WORDS)]
                probs = render_frame_probs(word, alpha, SynthSpec(temperature=t), rng)
                ok += alpha.decode(beam_decode(probs, 8)) == word
            hits.append(ok)
        for a, b in zip(hits, hits[1:]):
            assert b <= a
        assert hits[0] == 120  # perfect at zero temperature


class TestGenFrames:
    def test_one_matrix_per_box(self):
        spec = SynthSpec(seed=14, temperature=0.4)
        doc = gen_document(spec)
        alpha, frames = gen_frames(doc, spec)
        assert set(frames) == {b.id for b in doc.boxes}
        for b in doc.boxes:
            assert frames[b.id].shape == (2 * len(b.word) + 1, alpha.size)

    def test_deterministic(self):
        spec = SynthSpec(seed=15, temperature=0.4)
        doc = gen_document(spec)
        _, f1 = gen_frames(doc, spec)
        _, f2 = gen_frames(doc, spec)
        for i in f1:
            assert np.array_equal(f1[i], f2[i])


class TestStringNoise:
    def test_preserves_word_count_and_spaces(self):
        spec = SynthSpec(seed=16, p_sub=0.3, p_del=0.2, p_ins=0.2)
        rng = np.random.default_rng(17)
        for _ in range(50):
            clean = sample_phrase(spec, rng)
            noisy = induce_noise(clean, spec, rng)
            assert noisy.count(" ") == clean.count(" ")

    def test_noise_rates_match_monte_carlo(self):
        # Substitution-only: the observed per-character substitution
        # rate over many draws concentrates near p_sub.
        spec = SynthSpec(seed=18, p_sub=0.3)
        rng = np.random.default_rng(19)
        text = "abcdefghij" * 500
        noisy = induce_noise(text, spec, rng)
        assert len(noisy) == len(text)
        rate = sum(a != b for a, b in zip(text, noisy)) / len(text)
        assert abs(rate - 0.3) < 0.03

    def test_deletion_rate(self):
        spec = SynthSpec(seed=20, p_del=0.25)
        rng = np.random.default_rng(21)
        text = "x" * 4000
        noisy = induce_noise(text, spec, rng)
        rate = 1.0 - len(noisy) / len(text)
        assert abs(rate - 0.25) < 0.03

    def test_insertion_rate(self):
        spec = SynthSpec(seed=22, p_ins=0.2)
        rng = np.random.default_rng(23)
        text = "y" * 4000
        noisy = induce_noise(text, spec, rng)
        rate = len(noisy) / len(text) - 1.0
        assert abs(rate - 0.2) < 0.03

    def test_substitutions_prefer_confusables(self):
        spec = SynthSpec(seed=24, p_sub=1.0)
        rng = np.random.default_rng(25)
        noisy = induce_noise("o" * 200, spec, rng)
        allowed = set(CONFUSIONS["o"])
        assert set(noisy) <= allowed
        assert "o" not in noisy  # p_sub 1 always substitutes

    def test_zero_noise_is_identity(self):
        spec = SynthSpec(seed=26)
        assert induce_noise("hello world", spec) == "hello world"


class TestCorpus:
    def test_shape_and_determinism(self):
        spec = SynthSpec(seed=27, p_sub=0.2)
        a = gen_corpus(spec, 40)
        b = gen_corpus(spec, 40)
        assert a == b
        assert len(a) == 40
        for noisy, clean in a:
            assert clean.count(" ") == noisy.count(" ")
            words = clean.split()
            assert all(w in DEFAULT_WORDS for w in words)

    def test_word_count_range(self):
        spec = SynthSpec(seed=28, words_per_line=(2, 6))
        for _, clean in gen_corpus(spec, 60):
            assert 2 <= len(clean.split()) <= 6

    def test_invalid_size_rejected(self):
        with pytest.raises(InputError):
            gen_corpus(SynthSpec(), 0)

    @pytest.mark.parametrize("n_pairs", [2.0, 2.5, True])
    def test_non_integer_size_rejected(self, n_pairs):
        with pytest.raises(InputError, match="must be an integer"):
            gen_corpus(SynthSpec(), n_pairs)
