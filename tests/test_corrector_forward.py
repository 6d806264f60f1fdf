"""Forward-pass tests for the attention encoder-decoder."""

import math
from dataclasses import replace

import numpy as np
import pytest

from doctext.corrector.model import CorrectorModel, Hyper, init_model, param_shapes
from doctext.corrector.network import (
    CorrectionResult,
    _attend_cached,
    _encode_batch,
    _forward_batch,
    _infer_logprobs,
    _start_state,
    correct,
    loss,
)
from doctext.corrector.vocab import Vocab
from doctext.errors import InputError


SMALL = Hyper(emb_dim=4, hidden_dim=5, enc_layers=1, dec_layers=1)


@pytest.fixture(scope="module")
def vocab():
    return Vocab.from_chars("abcd")


@pytest.fixture(scope="module")
def model(vocab):
    return init_model(vocab, SMALL, seed=3)


def zero_model(vocab, hyper):
    shapes = param_shapes(hyper, vocab.size)
    params = {k: np.zeros(s) for k, s in shapes.items()}
    return CorrectorModel(vocab=vocab, hyper=hyper, params=params)


def encode_one(model, ids):
    return _encode_batch(model, np.asarray([ids], dtype=np.int64))


def padded_hcat(enc):
    """The top encoder layer's packed states of a bundle, as a (B, Tx, 2H)
    array in batch rows, zero at padded positions."""
    out = np.zeros(enc.src.mask.shape + enc.hcat.shape[1:])
    out[enc.src.order[enc.src.row], enc.src.col] = enc.hcat
    return out


def directions(enc):
    """The top encoder layer's (forward, backward) states of a bundle."""
    hdim = enc.hsum.shape[2]
    hcat = padded_hcat(enc)
    return hcat[:, :, :hdim], hcat[:, :, hdim:]


# Reference decoder for one sequence, written out without the batched
# kernel, so that teacher forcing is checked against independent code.


def _ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _ref_attend(model, s_prev, fwd, bwd):
    keys = np.concatenate([fwd, bwd], axis=1) @ model.params["att.score"]
    e = keys @ s_prev
    e -= e.max()
    w = np.exp(e)
    alpha = w / w.sum()
    return alpha @ (fwd + bwd), alpha


def _ref_start(model, fwd, bwd):
    s0 = np.concatenate([fwd[-1], bwd[0]]) @ model.params["bridge"]
    n = model.hyper.dec_layers
    return [s0.copy() for _ in range(n)], [np.zeros_like(s0) for _ in range(n)]


def _ref_decode_step(model, y_prev, h, c, ctx):
    p = model.params
    hdim = model.hyper.hidden_dim
    xi = np.concatenate([p["embedding"][y_prev], ctx])
    new_h, new_c = [], []
    for l in range(model.hyper.dec_layers):
        z = xi @ p[f"dec.{l}.W"] + h[l] @ p[f"dec.{l}.U"] + p[f"dec.{l}.b"]
        i = _ref_sigmoid(z[:hdim])
        f = _ref_sigmoid(z[hdim : 2 * hdim])
        g = np.tanh(z[2 * hdim : 3 * hdim])
        o = _ref_sigmoid(z[3 * hdim :])
        new_c.append(f * c[l] + i * g)
        new_h.append(o * np.tanh(new_c[-1]))
        xi = new_h[-1]
    htilde = np.tanh(np.concatenate([new_h[-1], ctx]) @ p["att.out"])
    logits = htilde @ p["gen.W"] + p["gen.b"]
    logits -= logits.max()
    expl = np.exp(logits)
    return expl / expl.sum(), new_h, new_c


class TestEncode:
    def test_output_shapes(self, model, vocab):
        ids = vocab.preprocess("ab cad")
        enc = encode_one(model, ids)
        assert padded_hcat(enc).shape == (1, len(ids), 2 * SMALL.hidden_dim)
        assert enc.hsum.shape == (1, len(ids), SMALL.hidden_dim)
        assert enc.s0.shape == (1, SMALL.hidden_dim)

    def test_deterministic(self, model, vocab):
        ids = vocab.preprocess("abba")
        a = encode_one(model, ids)
        b = encode_one(model, ids)
        assert np.array_equal(a.hcat, b.hcat)

    def test_directions_mirror_on_palindrome_weights(self, vocab):
        # With zero parameters both directions are all zeros; this pins
        # the degenerate fixed point h = o * tanh(c) = 0.5 * tanh(0).
        zm = zero_model(vocab, SMALL)
        enc = encode_one(zm, vocab.preprocess("abc"))
        assert np.all(enc.hcat == 0.0)

    def test_prefix_locality_of_forward_direction(self, model, vocab):
        # The forward direction at position t only sees tokens <= t, so
        # extending the sequence must not change earlier states.
        short = vocab.preprocess("abc")
        long = vocab.preprocess("abcd")
        assert short == long[:3]
        s_short = encode_one(model, short)
        s_long = encode_one(model, long)
        fwd_short, fwd_long = directions(s_short)[0], directions(s_long)[0]
        assert np.allclose(fwd_short[0], fwd_long[0, :3], atol=1e-12)
        # ... while the backward direction may change everywhere.

    def test_rejects_out_of_range_ids(self, model):
        with pytest.raises(InputError):
            encode_one(model, [0, 99])


class TestAttend:
    def test_weights_are_distribution(self, model, vocab):
        enc = encode_one(model, vocab.preprocess("ab cad"))
        rng = np.random.default_rng(40)
        for _ in range(10):
            s = rng.normal(size=(1, SMALL.hidden_dim))
            ctx, alpha = _attend_cached(enc.keys, enc.hsum, enc.src.mask, s)
            assert alpha.shape == (1, enc.src.mask.shape[1])
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
            assert ctx.shape == (1, SMALL.hidden_dim)

    def test_context_is_weighted_state_sum(self, model, vocab):
        enc = encode_one(model, vocab.preprocess("abcd"))
        s = np.full((1, SMALL.hidden_dim), 0.3)
        ctx, alpha = _attend_cached(enc.keys, enc.hsum, enc.src.mask, s)
        fwd, bwd = directions(enc)
        want = sum(a * (f + b) for a, f, b in zip(alpha[0], fwd[0], bwd[0]))
        assert np.allclose(ctx[0], want, atol=1e-12)

    def test_uniform_when_query_is_zero(self, model, vocab):
        enc = encode_one(model, vocab.preprocess("abc"))
        _, alpha = _attend_cached(enc.keys, enc.hsum, enc.src.mask, np.zeros((1, SMALL.hidden_dim)))
        assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)

    def test_padded_positions_get_zero_weight(self, model, vocab):
        short = vocab.preprocess("ab")
        long = vocab.preprocess("abcd")
        x = np.full((2, len(long)), vocab.pad_id)
        x[0] = long
        x[1, : len(short)] = short
        enc = _encode_batch(model, x)
        s = np.random.default_rng(41).normal(size=(2, SMALL.hidden_dim))
        ctx, alpha = _attend_cached(enc.keys, enc.hsum, enc.src.mask, s)
        assert np.all(alpha[1, len(short) :] == 0.0)
        assert alpha[1].sum() == pytest.approx(1.0, abs=1e-12)
        # the padded row attends exactly as its unpadded batch of one does
        alone = encode_one(model, short)
        ctx1, alpha1 = _attend_cached(alone.keys, alone.hsum, alone.src.mask, s[1:])
        assert np.allclose(alpha[1, : len(short)], alpha1[0], atol=1e-12)
        assert np.allclose(ctx[1], ctx1[0], atol=1e-12)


class TestDecoderLoop:
    def test_initial_state_shared_across_layers(self, vocab):
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=1, dec_layers=3)
        m = init_model(vocab, hyper, seed=4)
        enc = encode_one(m, vocab.preprocess("ab"))
        h, c = _start_state(m, enc)
        assert len(h) == len(c) == 3
        for layer in range(3):
            assert np.array_equal(h[layer], enc.s0)
        for cell in c:
            assert np.all(cell == 0.0)

    def test_step_emits_distribution(self, model, vocab):
        ids = vocab.preprocess("ab")
        enc = _encode_batch(model, np.asarray([ids, ids]))
        h, c = _start_state(model, enc)
        tok = np.array([vocab.go_id, ids[0]])
        logprobs, h2, c2 = _infer_logprobs(model, [(2, enc.keys, enc.hsum, enc.src.mask)], h, c, tok)
        assert logprobs.shape == (2, vocab.size)
        dist = np.exp(logprobs)
        assert np.all(dist > 0)
        assert dist.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert h2[-1].shape == h[-1].shape
        assert c2[-1].shape == c[-1].shape

    def test_batched_step_matches_rows(self, vocab):
        # Each row of a padded batch steps as its own batch of one.
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=2, dec_layers=2)
        m = init_model(vocab, hyper, seed=5)
        rows = [vocab.preprocess("abcd a"), vocab.preprocess("dc")]
        x = np.full((2, len(rows[0])), vocab.pad_id)
        for i, r in enumerate(rows):
            x[i, : len(r)] = r
        tok = np.array([vocab.go_id, vocab.preprocess("a")[0]])
        enc = _encode_batch(m, x)
        h, c = _start_state(m, enc)
        logp, h2, _ = _infer_logprobs(m, [(2, enc.keys, enc.hsum, enc.src.mask)], h, c, tok)
        for i, r in enumerate(rows):
            one = encode_one(m, r)
            hi, ci = _start_state(m, one)
            li, hi2, _ = _infer_logprobs(m, [(1, one.keys, one.hsum, one.src.mask)], hi, ci, tok[i : i + 1])
            assert np.allclose(logp[i], li[0], atol=1e-12)
            assert np.allclose(h2[-1][i], hi2[-1][0], atol=1e-12)


class TestLoss:
    def test_zero_model_gives_uniform_loss(self, vocab):
        # All-zero parameters make every output distribution uniform,
        # so the summed cross-entropy is exactly len(y) * log V.
        zm = zero_model(vocab, SMALL)
        x = vocab.preprocess("ab")
        y = vocab.preprocess("ab") + [vocab.end_id]
        got = loss(zm, x, y)
        assert got == pytest.approx(len(y) * math.log(vocab.size), rel=1e-12)

    def test_requires_end_token(self, model, vocab):
        x = vocab.preprocess("ab")
        with pytest.raises(InputError):
            loss(model, x, vocab.preprocess("ab"))

    def test_rejects_padding_inside_sequences(self, model, vocab):
        x = vocab.preprocess("ab")
        with pytest.raises(InputError):
            loss(model, x + [vocab.pad_id], x + [vocab.end_id])

    def test_rejects_two_dimensional_sequence(self, model, vocab):
        x = vocab.preprocess("ab")
        y = x + [vocab.end_id]
        for src, tgt in (([x], y), (x, [y])):
            with pytest.raises(InputError, match="1-D"):
                loss(model, src, tgt)

    def test_matches_manual_step_loop(self, vocab):
        # The teacher-forced loss must equal stepping the reference
        # decoder by hand and accumulating -log p of each target.
        # The second model has larger weights, so that attention is far
        # from uniform and the query and the layer stacking both matter.
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=2, dec_layers=2)
        big = init_model(vocab, hyper, seed=6)
        big = CorrectorModel(vocab, hyper, {k: 10.0 * v for k, v in big.params.items()})
        for m in (init_model(vocab, SMALL, seed=3), big):
            x = vocab.preprocess("acb ad")
            y = vocab.preprocess("abc ad") + [vocab.end_id]
            enc = encode_one(m, x)
            fwd, bwd = (d[0] for d in directions(enc))
            h, c = _ref_start(m, fwd, bwd)
            prev = vocab.go_id
            total = 0.0
            for target in y:
                ctx, _ = _ref_attend(m, h[-1], fwd, bwd)
                dist, h, c = _ref_decode_step(m, prev, h, c, ctx)
                total -= math.log(dist[target])
                prev = target
            assert loss(m, x, y) == pytest.approx(total, rel=1e-10)

    def test_batch_equals_sum_of_singles(self, model, vocab):
        # Tail padding must not leak into the loss: the padded batch
        # loss is exactly the sum of the unpadded pair losses.
        pairs = [
            ("ab", "ab"),
            ("acb dac", "abc dab"),
            ("d", "d"),
        ]
        singles = 0.0
        xs, ys = [], []
        for noisy, clean in pairs:
            x = vocab.preprocess(noisy)
            y = vocab.preprocess(clean) + [vocab.end_id]
            singles += loss(model, x, y)
            xs.append(x)
            ys.append(y)
        t_x = max(len(v) for v in xs)
        t_y = max(len(v) for v in ys)
        xb = np.full((len(xs), t_x), vocab.pad_id)
        yb = np.full((len(ys), t_y), vocab.pad_id)
        for i, (x, y) in enumerate(zip(xs, ys)):
            xb[i, : len(x)] = x
            yb[i, : len(y)] = y
        batch_loss, _ = _forward_batch(model, xb, yb)
        assert batch_loss == pytest.approx(singles, rel=1e-10)


def _batch(vocab, rows):
    out = np.full((len(rows), max(len(r) for r in rows)), vocab.pad_id)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


class TestBatchCheck:
    @pytest.mark.parametrize("what", ["source", "target"])
    @pytest.mark.parametrize("case", ["out_of_range", "all_padding", "interior_padding", "not_2d"])
    def test_malformed_batch_rejected(self, model, vocab, what, case):
        a, b, c = vocab.preprocess("abc")
        pad, end = vocab.pad_id, vocab.end_id
        good = {
            "source": np.array([[a, b, c], [a, b, pad]]),
            "target": np.array([[a, end, pad], [b, c, end]]),
        }
        _forward_batch(model, good["source"], good["target"])
        bad = good[what].copy()
        if case == "out_of_range":
            bad[1, 0] = vocab.size
        elif case == "all_padding":
            bad[1] = pad
        elif case == "interior_padding":
            bad[0] = [a, pad, b]
        else:
            bad = bad[0]
        batch = {**good, what: bad}
        with pytest.raises(InputError, match=what):
            _forward_batch(model, batch["source"], batch["target"])


class TestDropout:
    def test_applies_only_with_a_generator(self, vocab):
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=2, dec_layers=2, dropout=0.5)
        m = init_model(vocab, hyper, seed=7)
        plain = CorrectorModel(vocab, replace(hyper, dropout=0.0), m.params)
        x = _batch(vocab, [vocab.preprocess("acb ad"), vocab.preprocess("db")])
        y = _batch(vocab, [vocab.preprocess("abc ad") + [vocab.end_id],
                           vocab.preprocess("dab") + [vocab.end_id]])
        value, _ = _forward_batch(m, x, y)
        assert value == _forward_batch(plain, x, y)[0]
        assert _forward_batch(m, x, y, rng=np.random.default_rng(0))[0] != value


class TestCorrect:
    def test_result_fields(self, model):
        res = correct(model, "ab cad")
        assert isinstance(res, CorrectionResult)
        assert isinstance(res.text, str)
        assert isinstance(res.tokens, tuple)

    def test_deterministic(self, model):
        a = correct(model, "ab cad", beam_width=3)
        b = correct(model, "ab cad", beam_width=3)
        assert a == b

    def test_degraded_flag_for_unknown_input(self, model):
        res = correct(model, "zzz 999")
        assert res.degraded
        assert not correct(model, "ab").degraded

    def test_empty_phrase_rejected(self, model):
        with pytest.raises(InputError):
            correct(model, "   ")

    def test_invalid_beam_rejected(self, model):
        with pytest.raises(InputError):
            correct(model, "ab", beam_width=0)

    def test_output_never_contains_markers(self, model):
        from doctext.corrector.vocab import GO, PAD

        res = correct(model, "ab cad", beam_width=2)
        for t in res.tokens:
            assert model.vocab.token(t) not in (GO, PAD)
        assert "<" not in res.text
