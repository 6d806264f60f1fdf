"""Batched corrector inference against a one-hypothesis-at-a-time oracle.

``correct_batch`` steps every live hypothesis of every phrase together.
Its outputs are meant to be bit-identical to stepping each hypothesis
alone, which rests on two properties of the BLAS underneath: the rows of
``x @ W`` do not depend on how many rows (two or more) the product has,
and the rows of a batched 3-D ``matmul`` equal the rows computed alone.
Both are pinned here, so a BLAS that breaks them fails loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctext.corrector import correct, correct_batch
from doctext.corrector.model import CorrectorModel, Hyper, init_model, param_shapes
from doctext.corrector.network import (
    CorrectionResult,
    _beam_search,
    _encode_batch,
    _infer_logprobs,
    _start_state,
)
from doctext.corrector.vocab import Vocab
from doctext.errors import InputError


def reference_correct(model, phrase, beam_width):
    """``correct`` as it was before batching, except that each hypothesis
    steps alone on a two-row batch of itself.  Returns the result and
    the final live and closed (score, tokens) hypotheses."""
    if beam_width < 1:
        raise InputError("beam width must be >= 1")
    vb = model.vocab
    ids = vb.preprocess(phrase)
    content = [i for i in ids if i != vb.sep_id]
    degraded = all(i == vb.unk_id for i in content)
    cap = 4 * len(ids)
    enc = _encode_batch(model, np.asarray([ids, ids], dtype=np.int64))
    att = [(enc.keys, enc.hsum, enc.mask_x)]
    h0, c0 = _start_state(model, enc)

    live = [(0.0, (), h0, c0)]
    closed = []
    banned = (vb.go_id, vb.pad_id)
    for _ in range(cap):
        expanded = []
        for score, toks, h, c in live:
            prev = toks[-1] if toks else vb.go_id
            logprobs, nh, nc = _infer_logprobs(model, att, h, c, np.array([prev, prev]))
            logprobs = logprobs[0]
            order = np.argsort(-logprobs, kind="stable")[: beam_width + len(banned) + 1]
            for cand in order:
                cand = int(cand)
                if cand in banned:
                    continue
                cand_score = score + float(logprobs[cand])
                if cand == vb.end_id:
                    closed.append((cand_score, toks))
                else:
                    expanded.append((cand_score, toks + (cand,), nh, nc))
        if not expanded:
            break
        expanded.sort(key=lambda e: (-e[0], e[1]))
        live = expanded[:beam_width]
        if closed and all(s <= max(cs for cs, _ in closed) for s, _, _, _ in live):
            break
    final = [(s, toks) for s, toks, _, _ in live], list(closed)
    if closed:
        closed.sort(key=lambda e: (-e[0], e[1]))
        best_score, best_toks = closed[0]
        hit_cap = False
        if live:
            top_live = max(live, key=lambda e: e[0])
            if top_live[0] > best_score:
                best_toks = top_live[1]
                hit_cap = True
    else:
        live.sort(key=lambda e: (-e[0], e[1]))
        best_toks = live[0][1]
        hit_cap = True
    result = CorrectionResult(
        text=vb.render(best_toks),
        tokens=tuple(int(t) for t in best_toks),
        hit_cap=hit_cap,
        degraded=degraded,
    )
    return result, final


def bits(hyps):
    """(score, tokens) hypotheses with each score as its exact bits."""
    return [(float(s).hex(), toks) for s, toks in hyps]


def check_against_reference(model, phrases, beam_width):
    refs = [reference_correct(model, p, beam_width) for p in phrases]
    assert correct_batch(model, phrases, beam_width) == [r for r, _ in refs]
    seqs = [model.vocab.preprocess(p) for p in phrases]
    for (live, closed), (_, (ref_live, ref_closed)) in zip(_beam_search(model, seqs, beam_width), refs):
        assert bits(live) == bits(ref_live)
        assert bits(closed) == bits(ref_closed)


VOCAB = Vocab.from_chars("abcd")


def zero_model(vocab, hyper):
    shapes = param_shapes(hyper, vocab.size)
    return CorrectorModel(vocab=vocab, hyper=hyper, params={k: np.zeros(s) for k, s in shapes.items()})


@pytest.fixture(scope="module")
def model():
    return init_model(VOCAB, Hyper(emb_dim=4, hidden_dim=5, enc_layers=2, dec_layers=2), seed=11)


def random_model(vocab, hyper, seed, scale, end_bias):
    """A random model with its weights scaled by ``scale`` and ``end_bias``
    added to the <end> logit.  An untrained model emits <end> at once;
    a lower <end> logit lets hypotheses grow, close late or reach the cap."""
    params = {k: scale * v for k, v in init_model(vocab, hyper, seed=seed).params.items()}
    params["gen.b"][vocab.end_id] += end_bias
    return CorrectorModel(vocab, hyper, params)


PHRASES = st.lists(st.text(alphabet="abcdz ", min_size=1, max_size=12).filter(str.strip), min_size=1, max_size=6)
END_BIAS = st.sampled_from([0.0, -1.0, -2.0, -4.0])


class TestAgainstReference:
    # Phrases of eight characters or more make padded attention keys
    # change the bits of the score sums; "z" is unknown to the vocabulary.
    @settings(max_examples=60, deadline=None)
    @given(
        phrases=PHRASES,
        beam_width=st.integers(1, 5),
        seed=st.integers(0, 3),
        scale=st.sampled_from([1.0, 8.0]),
        end_bias=END_BIAS,
        layers=st.sampled_from([(1, 1), (2, 2), (1, 3)]),
    )
    def test_equals_stepping_each_hypothesis_alone(self, phrases, beam_width, seed, scale, end_bias, layers):
        # Larger weights make attention and the output far from uniform.
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=layers[0], dec_layers=layers[1])
        check_against_reference(random_model(VOCAB, hyper, seed, scale, end_bias), phrases, beam_width)

    @settings(max_examples=8, deadline=None)
    @given(phrases=PHRASES, beam_width=st.integers(1, 5), seed=st.integers(0, 3), end_bias=END_BIAS)
    def test_bundled_sizes(self, phrases, beam_width, seed, end_bias):
        # The default network sizes with a 30-token vocabulary, as the
        # bundled corrector has: products wide enough that the BLAS
        # blocks them.
        vocab = Vocab.from_chars("abcdefghijklmnopqrstuvwxy")
        check_against_reference(random_model(vocab, Hyper(), seed, 4.0, end_bias), phrases, beam_width)

    @pytest.mark.parametrize("beam_width", [1, 2, 5])
    def test_all_ties_break_alike(self, beam_width):
        # An all-zero model gives every token the same log probability,
        # so every choice falls to the tie-breaks.
        zm = zero_model(VOCAB, Hyper(emb_dim=4, hidden_dim=5, enc_layers=1, dec_layers=2))
        check_against_reference(zm, ["ab", "c", "ab cd", "d", "zz"], beam_width)

    def test_one_phrase_is_correct(self, model):
        phrases = ["ab cad", "d", "abcd ab", "ba"]
        for beam_width in (1, 3):
            got = correct_batch(model, phrases, beam_width)
            assert got == [correct(model, p, beam_width) for p in phrases]


class TestInputs:
    def test_no_phrases(self, model):
        assert correct_batch(model, [], 2) == []

    def test_empty_phrase_rejected(self, model):
        with pytest.raises(InputError):
            correct_batch(model, ["ab", "  "], 1)

    def test_invalid_beam_rejected(self, model):
        with pytest.raises(InputError):
            correct_batch(model, ["ab"], 0)
        with pytest.raises(InputError):
            correct_batch(model, [], 0)


# The corrector's multiply shapes at the bundled sizes (Hyper defaults and
# a 30-token vocabulary) and at the small test sizes.
def _shapes(emb, hid, voc):
    return [(emb + hid, 4 * hid), (hid, 4 * hid), (2 * hid, hid), (hid, voc), (emb, 4 * hid), (2 * hid, 4 * hid)]


class TestBlasRowStability:
    @pytest.mark.parametrize("shape", _shapes(32, 64, 30) + _shapes(4, 5, 9), ids=str)
    def test_product_rows_do_not_depend_on_row_count(self, shape):
        rng = np.random.default_rng(sum(shape))
        w = rng.standard_normal(shape)
        x = rng.standard_normal((64, shape[0]))
        full = x @ w
        for n in range(2, 65):
            assert np.array_equal(x[:n] @ w, full[:n]), f"{n} rows"

    @pytest.mark.parametrize("length", [1, 3, 17])
    def test_batched_attention_rows_equal_rows_alone(self, length):
        rng = np.random.default_rng(length)
        keys = rng.standard_normal((6, length, 64))
        hsum = rng.standard_normal((6, length, 64))
        q = rng.standard_normal((6, 64))
        alpha = rng.random((6, length))
        e = (keys @ q[:, :, None])[:, :, 0]
        ctx = (alpha[:, None, :] @ hsum)[:, 0]
        for i in range(6):
            one = slice(i, i + 1)
            assert np.array_equal(e[one], (keys[one] @ q[one, :, None])[:, :, 0])
            assert np.array_equal(ctx[one], (alpha[one, None, :] @ hsum[one])[:, 0])
