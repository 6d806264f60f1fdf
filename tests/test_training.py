"""Tests for the SGD trainer and its schedule."""

import numpy as np
import pytest

from doctext.corrector.model import Hyper, init_model
from doctext.corrector.training import TrainConfig, build_pairs, learning_rate, train
from doctext.corrector.vocab import Vocab
from doctext.errors import DivergenceError, InputError


TINY = Hyper(emb_dim=3, hidden_dim=4, enc_layers=1, dec_layers=1)


@pytest.fixture(scope="module")
def vocab():
    return Vocab.from_chars("abcd")


def tiny_corpus():
    words = ["ab", "cad", "dab", "bc", "abcd"]
    return [(w, w) for w in words]


class TestSchedule:
    def test_flat_then_halving(self):
        cfg = TrainConfig(lr0=2.0, decay_start=10, halve_every=5)
        assert learning_rate(cfg, 1) == 2.0
        assert learning_rate(cfg, 9) == 2.0
        assert learning_rate(cfg, 10) == 2.0  # first halving interval begins
        assert learning_rate(cfg, 14) == 2.0
        assert learning_rate(cfg, 15) == 1.0
        assert learning_rate(cfg, 19) == 1.0
        # Two full intervals past the decay start: a quarter.
        assert learning_rate(cfg, 20) == 0.5

    def test_quarter_point_identity(self):
        # Spot the pinned relation lr(decay_start + 2 * halve_every) = lr0 / 4
        for ds, he in [(100, 30), (7, 3), (1, 1)]:
            cfg = TrainConfig(lr0=0.8, decay_start=ds, halve_every=he)
            assert learning_rate(cfg, ds + 2 * he) == pytest.approx(0.2)

    def test_steps_are_one_based(self):
        cfg = TrainConfig()
        with pytest.raises(InputError):
            learning_rate(cfg, 0)

    def test_config_validation(self):
        with pytest.raises(InputError):
            TrainConfig(lr0=0.0)
        with pytest.raises(InputError):
            TrainConfig(batch_size=0)
        with pytest.raises(InputError):
            TrainConfig(max_steps=-1)
        with pytest.raises(InputError):
            TrainConfig(clip_norm=float("inf"))
        TrainConfig(max_steps=0)  # explicitly allowed

    @pytest.mark.parametrize(
        "field", [{"batch_size": 2.5}, {"max_steps": 1.5}, {"seed": 1.5}, {"decay_start": 2.5},
                  {"halve_every": True}, {"batch_size": True}, {"seed": -1}],
        ids=str,
    )
    def test_integer_fields_refuse_non_integers(self, field):
        # each used to reach train, which raised a NumPy TypeError or
        # (decay_start) used it as it was
        with pytest.raises(InputError):
            TrainConfig(**field)

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(4), max_steps=np.int64(1), seed=np.uint8(3))
        assert cfg.batch_size == 4


class TestBuildPairs:
    def test_targets_end_with_end_token(self, vocab):
        pairs = build_pairs(vocab, [("ab", "ab"), ("cad ab", "cab ab")])
        for x, y in pairs:
            assert y[-1] == vocab.end_id
            assert vocab.end_id not in x

    def test_empty_corpus_rejected(self, vocab):
        with pytest.raises(InputError):
            build_pairs(vocab, [])

    def test_empty_phrase_rejected(self, vocab):
        with pytest.raises(InputError):
            build_pairs(vocab, [("", "ab")])


class TestTrain:
    def test_zero_steps_returns_copy_untouched(self, vocab):
        model = init_model(vocab, TINY, seed=12)
        out, curve = train(model, tiny_corpus(), TrainConfig(max_steps=0))
        assert curve == []
        assert out is not model
        for k in model.params:
            assert np.array_equal(out.params[k], model.params[k])

    def test_input_model_never_mutated(self, vocab):
        model = init_model(vocab, TINY, seed=13)
        before = {k: v.copy() for k, v in model.params.items()}
        train(model, tiny_corpus(), TrainConfig(max_steps=5, batch_size=4, lr0=0.5))
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_loss_curve_length_and_finiteness(self, vocab):
        model = init_model(vocab, TINY, seed=14)
        _, curve = train(model, tiny_corpus(), TrainConfig(max_steps=25, batch_size=4, lr0=0.5))
        assert len(curve) == 25
        assert all(np.isfinite(v) for v in curve)

    def test_bit_exact_reproducibility(self, vocab):
        model = init_model(vocab, TINY, seed=15)
        cfg = TrainConfig(max_steps=30, batch_size=4, lr0=0.5, seed=123)
        m1, c1 = train(model, tiny_corpus(), cfg)
        m2, c2 = train(model, tiny_corpus(), cfg)
        assert c1 == c2  # bit-for-bit, not approximately
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    def test_different_seed_changes_curve(self, vocab):
        model = init_model(vocab, TINY, seed=16)
        _, c1 = train(model, tiny_corpus(), TrainConfig(max_steps=20, batch_size=4, lr0=0.5, seed=0))
        _, c2 = train(model, tiny_corpus(), TrainConfig(max_steps=20, batch_size=4, lr0=0.5, seed=1))
        assert c1 != c2

    def test_copy_task_loss_drops(self, vocab):
        model = init_model(vocab, TINY, seed=17)
        cfg = TrainConfig(max_steps=300, batch_size=4, lr0=1.0, decay_start=200, halve_every=50)
        _, curve = train(model, tiny_corpus(), cfg)
        head = float(np.mean(curve[:10]))
        tail = float(np.mean(curve[-10:]))
        assert tail < 0.5 * head

    def test_divergence_raises(self, vocab):
        # A learning rate big enough to overflow float64 must make the
        # trainer fail loudly, not return NaNs.  (Merely saturating the
        # nonlinearities is survivable: log-softmax keeps the loss
        # finite, so the rate has to push the parameters to overflow.)
        model = init_model(vocab, TINY, seed=18)
        cfg = TrainConfig(max_steps=20, batch_size=4, lr0=1e150, clip_norm=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train(model, tiny_corpus(), cfg)

    def test_dropout_training_still_deterministic(self, vocab):
        hyper = Hyper(emb_dim=3, hidden_dim=4, enc_layers=2, dec_layers=1, dropout=0.5)
        model = init_model(vocab, hyper, seed=19)
        cfg = TrainConfig(max_steps=10, batch_size=4, lr0=0.1, seed=7)
        _, c1 = train(model, tiny_corpus(), cfg)
        _, c2 = train(model, tiny_corpus(), cfg)
        assert c1 == c2
