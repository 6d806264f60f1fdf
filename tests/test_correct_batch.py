"""Batched corrector inference against a one-hypothesis-at-a-time oracle.

``correct_batch`` steps every live hypothesis of every phrase together,
and its outputs must be bit-identical to stepping each hypothesis alone.
That holds by construction: every forward product with a row per phrase
or hypothesis goes through ``network._mm``, whose BLAS calls all have
``_ROWS`` rows, and the hypotheses of a phrase attend, in one batched
3-D ``matmul``, a view of that phrase's keys that they share by
broadcasting.  What the construction rests on is checked here, on the
BLAS the tests run on, at the corrector's own shapes and over random
ones: a row of ``_mm`` has the same bits whatever rows share its
product, and a row of the batched attention, on its own keys or on a
shared view, equals that row attended alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doctext.corrector import correct, correct_batch
from doctext.corrector.model import CorrectorModel, Hyper, init_model, param_shapes
from doctext.corrector.network import (
    CorrectionResult,
    _attend_cached,
    _beam_search,
    _cell,
    _encode_batch,
    _infer_logprobs,
    _mm,
    _pack,
    _pad_batch,
    _paired_scan,
    _start_state,
)
from doctext.corrector.vocab import Vocab
from doctext.errors import InputError


def reference_correct(model, phrase, beam_width):
    """``correct`` as it was before batching: each hypothesis steps alone,
    on a one-row batch.  Returns the result and the final live and
    closed (score, tokens) hypotheses."""
    if beam_width < 1:
        raise InputError("beam width must be >= 1")
    vb = model.vocab
    ids = vb.preprocess(phrase)
    content = [i for i in ids if i != vb.sep_id]
    degraded = all(i == vb.unk_id for i in content)
    cap = 4 * len(ids)
    enc = _encode_batch(model, np.asarray([ids], dtype=np.int64))
    att = [(1, enc.keys, enc.hsum, enc.src.mask)]
    h0, c0 = _start_state(model, enc)

    live = [(0.0, (), h0, c0)]
    closed = []
    banned = (vb.go_id, vb.pad_id)
    for _ in range(cap):
        expanded = []
        for score, toks, h, c in live:
            prev = toks[-1] if toks else vb.go_id
            logprobs, nh, nc = _infer_logprobs(model, att, h, c, np.array([prev]))
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

    @pytest.mark.parametrize("chars", ["abcd", "abcdefghijklmnopqrstuvwxy"])
    def test_hidden_33(self, chars):
        # Widths that BLAS kernels block unevenly: without fixed-size
        # products, rows of one batch change their bits with its size.
        vocab = Vocab.from_chars(chars)
        model = random_model(vocab, Hyper(emb_dim=16, hidden_dim=33), 1, 4.0, -2.0)
        phrases = ["ab cd", "a", "dcba ab", "bad", "cab dab ba", "c", "abcdabcd", "da bc"]
        check_against_reference(model, phrases, 4)

    def test_hidden_33_document_of_60_phrases(self):
        # 60 phrases at beam 4 step up to 240 decoder rows at once; past
        # about 150, OpenBLAS's SkylakeX kernel computes a plain product of
        # the decoder's 49x132 input weights with another kernel.
        model = random_model(VOCAB, Hyper(emb_dim=16, hidden_dim=33), 1, 4.0, -2.0)
        rng = np.random.default_rng(0)
        phrases = ["".join(rng.choice(list("abcd "), size=int(rng.integers(2, 10)))).strip() or "a" for _ in range(60)]
        seqs = [VOCAB.preprocess(p) for p in phrases]
        for seq, (live, closed) in zip(seqs, _beam_search(model, seqs, 4)):
            [(alone_live, alone_closed)] = _beam_search(model, [seq], 4)
            assert bits(live) == bits(alone_live) and bits(closed) == bits(alone_closed)

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

    @pytest.mark.parametrize("beam_width", [2.5, 2.0, True], ids=repr)
    def test_non_integer_beam_rejected(self, model, beam_width):
        with pytest.raises(InputError, match="beam width"):
            correct_batch(model, ["ab"], beam_width)
        with pytest.raises(InputError, match="beam width"):
            correct(model, "ab", beam_width)


def reference_scan(xw, pk, u, reverse):
    """One encoder direction as inference scanned it before the two
    directions were paired: its own loop, each step's recurrent product
    through ``_mm``.  Returns the (R, H) packed states and the (B, H)
    final carried state in sorted row order."""
    hdim = u.shape[0]
    h = np.zeros((pk.counts[0], hdim))
    c = np.zeros((pk.counts[0], hdim))
    states = np.empty((len(xw), hdim))
    for t in reversed(range(len(pk.counts))) if reverse else range(len(pk.counts)):
        s, n = pk.offs[t], pk.counts[t]
        z = _mm(h[:n], u)
        z += xw[s : s + n]
        h[:n], c[:n], _ = _cell(z, c[:n].copy())
        states[s : s + n] = h[:n]
    return states, h


def same_bits(a, b):
    """Equal shapes and equal bits, the sign of a zero included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_paired_scan(lengths, hdim, seed):
    """The paired scan over a random ragged batch with rows of ``lengths``
    has the bits of each direction scanned alone: its packed states and
    its final states."""
    rng = np.random.default_rng(seed)
    pk = _pack(VOCAB, _pad_batch([[VOCAB.sep_id] * n for n in lengths], VOCAB.pad_id), "source")
    xw = [rng.standard_normal((pk.offs[-1], 4 * hdim)) for _ in range(2)]
    u = [rng.standard_normal((hdim, 4 * hdim)) / np.sqrt(hdim) for _ in range(2)]
    states, final = _paired_scan(xw, pk, u)
    for k, reverse in enumerate((False, True)):
        ref_states, ref_final = reference_scan(xw[k], pk, u[k], reverse)
        half = slice(k * hdim, (k + 1) * hdim)
        assert same_bits(states[:, half], ref_states), ("states", reverse)
        assert same_bits(final[:, half], ref_final), ("final", reverse)


class TestPairedScan:
    # Rows of 1-13 make each step's running rows cross blocks of four in
    # both directions: forward rows finish inside a block and keep
    # stepping, and backward rows wait inside one until they start.
    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=13),
        hdim=st.sampled_from([16, 33, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[5, 1, 3, 3, 2], hdim=33, seed=0)
    def test_equals_each_direction_scanned_alone(self, lengths, hdim, seed):
        check_paired_scan(lengths, hdim, seed)

    def test_hidden_33_document_of_60_phrases(self):
        rng = np.random.default_rng(1)
        check_paired_scan(rng.integers(2, 41, size=60).tolist(), 33, seed=2)

    def test_encoder_equals_training_scans(self):
        # Inference's encoder and training's, which scans each direction
        # apart with plain products, agree up to rounding.
        model = random_model(VOCAB, Hyper(emb_dim=8, hidden_dim=16), 3, 1.0, 0.0)
        x = _pad_batch([VOCAB.preprocess(p) for p in ["ab cd", "a", "dcba", "bad"]], VOCAB.pad_id)
        paired, apart = _encode_batch(model, x), _encode_batch(model, x, mm=np.matmul)
        for name in ("hcat", "bridge_in", "keys", "hsum", "s0"):
            assert np.allclose(getattr(paired, name), getattr(apart, name), rtol=0, atol=1e-12), name
        assert paired.scans == [] and paired.inputs == []


def check_rows(k, n, counts, seed):
    """Every row of ``_mm`` over a random batch of ``max(counts)`` rows has
    the bits it gets alone and in the first m rows, for each m of ``counts``."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k, n))
    x = rng.standard_normal((max(counts), k))
    full = _mm(x, w)
    for i in range(len(x)):
        assert np.array_equal(_mm(x[i : i + 1], w), full[i : i + 1]), f"row {i} alone"
    for m in counts:
        assert np.array_equal(_mm(x[:m], w), full[:m]), f"{m} rows"


# The corrector's product shapes at the bundled sizes (Hyper defaults and a
# 30-token vocabulary), at the small test sizes and at hidden 33.
def _shapes(emb, hid, voc):
    return [(emb + hid, 4 * hid), (hid, 4 * hid), (2 * hid, hid), (hid, voc), (emb, 4 * hid), (2 * hid, 4 * hid)]


class TestBlasRowStability:
    # On OpenBLAS's SkylakeX kernel a plain product's rows change their
    # bits with the row count at 16x9 and 64x33, and at 49x132 (the input
    # weights of a hidden-33 decoder) a product switches kernels past
    # about 150 rows, even with its rows padded to a multiple of four.
    @pytest.mark.parametrize("shape", _shapes(32, 64, 30) + _shapes(4, 5, 9) + _shapes(16, 33, 9), ids=str)
    def test_product_rows_do_not_depend_on_row_count(self, shape):
        check_rows(*shape, range(1, 257), seed=sum(shape))

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 300),
        n=st.integers(1, 300),
        more=st.lists(st.integers(65, 256), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=16, n=9, more=[], seed=0)
    @example(k=64, n=33, more=[], seed=0)
    def test_rows_of_any_shape_do_not_depend_on_row_count(self, k, n, more, seed):
        check_rows(k, n, [*range(1, 65), *more], seed)

    @pytest.mark.parametrize("length", [1, 3, 17])
    def test_batched_attention_rows_equal_rows_alone(self, length):
        check_attention(6, length, 64, seed=length)

    @pytest.mark.parametrize("length", [1, 3, 17])
    def test_batched_attention_rows_equal_rows_alone_at_width_33(self, length):
        # A key of width 33 takes 264 bytes, not a multiple of 64, so a
        # phrase's view and its positions do not start on 64-byte boundaries.
        check_attention(6, length, 33, seed=length)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 12),
        length=st.integers(1, 40),
        width=st.integers(1, 130),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=6, length=17, width=64, seed=0)
    def test_batched_attention_rows_of_any_shape_equal_rows_alone(self, rows, length, width, seed):
        check_attention(rows, length, width, seed)


def check_attention(rows, length, width, seed):
    """Every row of ``_attend_cached`` over a random batch of ``rows`` rows
    has the bits it gets attended alone.  So does every row of a run of
    ``rows`` queries that share, by broadcasting, one phrase's unpadded
    (1, L, H) view inside a padded batch of phrases, as the beam search
    attends: each has the bits of the same row on a gathered copy of
    that phrase's keys and of the row attended alone."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((rows, length, width))
    hsum = rng.standard_normal((rows, length, width))
    query = rng.standard_normal((rows, width))
    mask = np.ones((rows, length))
    ctx, alpha = _attend_cached(keys, hsum, mask, query)
    for i in range(rows):
        one = slice(i, i + 1)
        ctx_i, alpha_i = _attend_cached(keys[one], hsum[one], mask[one], query[one])
        assert np.array_equal(ctx_i, ctx[one]) and np.array_equal(alpha_i, alpha[one]), f"row {i}"

    # phrase 1 of a padded batch of three, with 3 padded positions after it
    padded_keys = rng.standard_normal((3, length + 3, width))
    padded_hsum = rng.standard_normal((3, length + 3, width))
    padded_mask = np.ones((3, length + 3))
    view = (padded_keys[1, None, :length], padded_hsum[1, None, :length], padded_mask[1, None, :length])
    assert all(np.shares_memory(v, a) for v, a in zip(view, (padded_keys, padded_hsum, padded_mask)))
    ctx, alpha = _attend_cached(*view, query)
    gathered = tuple(a[[1] * rows, :length] for a in (padded_keys, padded_hsum, padded_mask))
    ctx_g, alpha_g = _attend_cached(*gathered, query)
    assert np.array_equal(ctx_g, ctx) and np.array_equal(alpha_g, alpha), "gathered copy"
    for i in range(rows):
        one = slice(i, i + 1)
        ctx_i, alpha_i = _attend_cached(*(a.copy() for a in view), query[one])
        assert np.array_equal(ctx_i, ctx[one]) and np.array_equal(alpha_i, alpha[one]), f"view row {i}"
