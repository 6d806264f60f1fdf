"""Gradient tests for the hand-written backward pass.

Every parameter of a small model is checked against central finite
differences of the forward loss.  The error bound is
``|analytic - fd| <= atol + rtol * |fd|`` with rtol 1e-4 and atol 1e-8:
a pure relative bound is meaningless for near-zero gradients, where the
finite difference itself carries ~1e-11 of cancellation noise.
"""

import numpy as np
import pytest

from doctext.corrector.model import Hyper, init_model
from doctext.corrector.network import _backward_batch, _forward_batch, backward, loss
from doctext.corrector.vocab import Vocab
from doctext.errors import InputError


EPS = 1e-4


def finite_difference(model, x, y, name, index):
    theta = model.params[name]
    orig = theta[index]
    theta[index] = orig + EPS
    up = loss(model, x, y)
    theta[index] = orig - EPS
    down = loss(model, x, y)
    theta[index] = orig
    return (up - down) / (2.0 * EPS)


def check_all_params(model, x, y):
    _, grads = backward(model, x, y)
    for name, g in grads.items():
        fd = np.zeros_like(g)
        for index in np.ndindex(g.shape):
            fd[index] = finite_difference(model, x, y, name, index)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8, err_msg=name)


@pytest.fixture(scope="module")
def vocab():
    return Vocab.from_chars("ab")


class TestFiniteDifferences:
    def test_single_layer_model(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=2, hidden_dim=3, enc_layers=1, dec_layers=1), seed=5)
        x = vocab.preprocess("ab a")
        y = vocab.preprocess("ab b") + [vocab.end_id]
        check_all_params(model, x, y)

    def test_two_layer_model(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=2, dec_layers=2), seed=6)
        x = vocab.preprocess("ba")
        y = vocab.preprocess("ab") + [vocab.end_id]
        check_all_params(model, x, y)

    def test_single_token_sequences(self, vocab):
        # Degenerate lengths exercise the recursion boundaries.
        model = init_model(vocab, Hyper(emb_dim=2, hidden_dim=3, enc_layers=1, dec_layers=1), seed=7)
        x = vocab.preprocess("a")
        y = [vocab.end_id]
        check_all_params(model, x, y)


class TestBatchSemantics:
    @staticmethod
    def _pad(vocab, seqs):
        width = max(len(s) for s in seqs)
        out = np.full((len(seqs), width), vocab.pad_id)
        for i, s in enumerate(seqs):
            out[i, : len(s)] = s
        return out

    def test_ragged_batch_grads_are_per_pair_sums(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=3, hidden_dim=4, enc_layers=2, dec_layers=2), seed=8)
        pairs = [
            ("ab", "ab"),
            ("ba abb", "ab abb"),
            ("b", "b"),
        ]
        xs = [vocab.preprocess(n) for n, _ in pairs]
        ys = [vocab.preprocess(c) + [vocab.end_id] for _, c in pairs]

        summed = None
        total = 0.0
        for x, y in zip(xs, ys):
            value, grads = backward(model, x, y)
            total += value
            if summed is None:
                summed = grads
            else:
                summed = {k: summed[k] + grads[k] for k in grads}

        batch_value, tape = _forward_batch(model, self._pad(vocab, xs), self._pad(vocab, ys))
        batch_grads = _backward_batch(model, tape)

        assert batch_value == pytest.approx(total, rel=1e-10)
        for k in summed:
            np.testing.assert_allclose(batch_grads[k], summed[k], rtol=1e-9, atol=1e-12, err_msg=k)

    def test_row_order_changes_nothing(self, vocab):
        # The recurrences run on rows sorted by length; any row order of
        # the same pairs gives the same loss and gradients.
        model = init_model(vocab, Hyper(emb_dim=3, hidden_dim=4, enc_layers=2, dec_layers=2), seed=12)
        pairs = [("b", "ab ba"), ("ba abb", "ab"), ("ab", "abb a"), ("a", "a")]
        xs = self._pad(vocab, [vocab.preprocess(n) for n, _ in pairs])
        ys = self._pad(vocab, [vocab.preprocess(c) + [vocab.end_id] for _, c in pairs])
        value, tape = _forward_batch(model, xs, ys)
        grads = _backward_batch(model, tape)
        for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
            v, t = _forward_batch(model, xs[perm], ys[perm])
            g = _backward_batch(model, t)
            assert v == pytest.approx(value, rel=1e-12)
            for k in grads:
                np.testing.assert_allclose(g[k], grads[k], rtol=1e-10, atol=1e-14, err_msg=k)

    def test_interior_padding_rejected(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=2, hidden_dim=3, enc_layers=1, dec_layers=1), seed=13)
        a, b = vocab.preprocess("ab")
        pad, end = vocab.pad_id, vocab.end_id
        good_x = np.array([[a, b, a]])
        good_y = np.array([[a, b, end]])
        _forward_batch(model, good_x, good_y)
        with pytest.raises(InputError, match="source padding"):
            _forward_batch(model, np.array([[a, pad, b]]), good_y)
        with pytest.raises(InputError, match="target padding"):
            _forward_batch(model, good_x, np.array([[a, pad, end]]))

    def test_duplicated_pair_doubles_everything(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=3, hidden_dim=4, enc_layers=1, dec_layers=1), seed=9)
        x = vocab.preprocess("ab b")
        y = vocab.preprocess("ab a") + [vocab.end_id]
        value, grads = backward(model, x, y)
        batch_value, tape = _forward_batch(model, np.array([x, x]), np.array([y, y]))
        batch_grads = _backward_batch(model, tape)
        assert batch_value == pytest.approx(2.0 * value, rel=1e-12)
        for k in grads:
            np.testing.assert_allclose(batch_grads[k], 2.0 * grads[k], rtol=1e-12, atol=1e-15, err_msg=k)

    def test_gradient_covers_every_parameter(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=2, hidden_dim=3, enc_layers=1, dec_layers=1), seed=10)
        _, grads = backward(model, vocab.preprocess("ab"), vocab.preprocess("ab") + [vocab.end_id])
        assert set(grads) == set(model.params)
        for k, g in grads.items():
            assert g.shape == model.params[k].shape, k
            assert np.all(np.isfinite(g)), k

    def test_backward_does_not_mutate_params(self, vocab):
        model = init_model(vocab, Hyper(emb_dim=2, hidden_dim=3, enc_layers=1, dec_layers=1), seed=11)
        before = {k: v.copy() for k, v in model.params.items()}
        backward(model, vocab.preprocess("ab"), vocab.preprocess("ba") + [vocab.end_id])
        for k in before:
            assert np.array_equal(model.params[k], before[k])
