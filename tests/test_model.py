"""Tests for model construction and checkpointing."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doctext.corrector.model import (
    CorrectorModel,
    Hyper,
    init_model,
    load_model,
    model_from_dict,
    model_to_dict,
    param_shapes,
    save_model,
)
from doctext.corrector.vocab import Vocab
from doctext.errors import FormatError, InputError, VersionError
from doctext.formats import canonical_dumps


@pytest.fixture(scope="module")
def vocab():
    return Vocab.from_chars("abc")


class TestHyper:
    def test_validation(self):
        with pytest.raises(InputError):
            Hyper(emb_dim=0)
        with pytest.raises(InputError):
            Hyper(dropout=1.0)
        with pytest.raises(InputError):
            Hyper(enc_layers=-1)
        Hyper(dropout=0.0)


class TestShapes:
    def test_first_layer_input_sizes(self, vocab):
        hyper = Hyper(emb_dim=6, hidden_dim=8, enc_layers=2, dec_layers=2)
        shapes = param_shapes(hyper, vocab.size)
        # First encoder layer reads embeddings; deeper layers read the
        # concatenated bidirectional output.
        assert shapes["enc.0.fwd.W"] == (6, 32)
        assert shapes["enc.1.fwd.W"] == (16, 32)
        # First decoder layer reads embedding plus context.
        assert shapes["dec.0.W"] == (6 + 8, 32)
        assert shapes["dec.1.W"] == (8, 32)
        assert shapes["embedding"] == (vocab.size, 6)
        assert shapes["gen.W"] == (8, vocab.size)

    def test_init_deterministic_and_forget_gate(self, vocab):
        hyper = Hyper(emb_dim=4, hidden_dim=5, enc_layers=1, dec_layers=1)
        m1 = init_model(vocab, hyper, seed=42)
        m2 = init_model(vocab, hyper, seed=42)
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])
        b = m1.params["enc.0.fwd.b"]
        h = hyper.hidden_dim
        assert np.all(b[h : 2 * h] == 1.0)  # forget gate open at start
        assert np.all(b[:h] == 0.0)
        assert np.all(m1.params["gen.b"] == 0.0)

    def test_weights_within_init_range(self, vocab):
        m = init_model(vocab, Hyper(emb_dim=4, hidden_dim=5, enc_layers=1, dec_layers=1), seed=1)
        w = m.params["att.score"]
        assert np.all(np.abs(w) <= 0.1)

    def test_n_parameters(self, vocab):
        hyper = Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)
        m = init_model(vocab, hyper, seed=0)
        assert m.n_parameters() == sum(
            int(np.prod(s)) for s in param_shapes(hyper, vocab.size).values()
        )

    def test_shape_mismatch_rejected(self, vocab):
        hyper = Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)
        params = {k: np.zeros(s) for k, s in param_shapes(hyper, vocab.size).items()}
        params["bridge"] = np.zeros((1, 1))
        with pytest.raises(InputError):
            CorrectorModel(vocab=vocab, hyper=hyper, params=params)

    def test_missing_param_rejected(self, vocab):
        hyper = Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)
        params = {k: np.zeros(s) for k, s in param_shapes(hyper, vocab.size).items()}
        del params["gen.b"]
        with pytest.raises(InputError):
            CorrectorModel(vocab=vocab, hyper=hyper, params=params)

    def test_nonfinite_param_rejected(self, vocab):
        hyper = Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)
        params = {k: np.zeros(s) for k, s in param_shapes(hyper, vocab.size).items()}
        params["gen.b"][0] = float("nan")
        with pytest.raises(InputError):
            CorrectorModel(vocab=vocab, hyper=hyper, params=params)

    def test_copy_is_deep(self, vocab):
        m = init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1), seed=2)
        c = m.copy()
        c.params["gen.b"][0] = 0.5
        assert m.params["gen.b"][0] == 0.0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, vocab, tmp_path):
        m = init_model(vocab, Hyper(emb_dim=3, hidden_dim=4, enc_layers=2, dec_layers=1), seed=3)
        p = tmp_path / "model.json"
        save_model(m, p)
        back = load_model(p)
        assert back.vocab.tokens == m.vocab.tokens
        assert back.hyper == m.hyper
        for k in m.params:
            assert np.array_equal(back.params[k], m.params[k])

    @settings(max_examples=25, deadline=None)
    @given(
        emb=st.integers(1, 4),
        hidden=st.integers(1, 4),
        enc_layers=st.integers(1, 2),
        dec_layers=st.integers(1, 3),
        dropout=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, vocab, emb, hidden, enc_layers, dec_layers, dropout, seed):
        hyper = Hyper(emb_dim=emb, hidden_dim=hidden, enc_layers=enc_layers,
                      dec_layers=dec_layers, dropout=dropout)
        m = init_model(vocab, hyper, seed=seed)
        payload = model_to_dict(m)
        assert json.loads(canonical_dumps(payload)) == payload
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_model(m, p1)
            back = load_model(p1)
            save_model(back, p2)
            assert p1.read_bytes() == p2.read_bytes()
        assert back.hyper == hyper
        assert set(back.params) == set(m.params)
        for k, v in m.params.items():
            assert back.params[k].tobytes() == v.tobytes()

    def test_save_is_canonical(self, vocab, tmp_path):
        m = init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1), seed=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(m.copy(), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_wrong_format_tag(self, vocab):
        payload = model_to_dict(init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)))
        payload["format"] = "something-else"
        with pytest.raises(FormatError):
            model_from_dict(payload)

    def test_wrong_version(self, vocab):
        payload = model_to_dict(init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)))
        payload["version"] = 99
        with pytest.raises(VersionError):
            model_from_dict(payload)

    def test_malformed_payload(self):
        with pytest.raises(FormatError):
            model_from_dict({"format": "doctext-corrector", "version": 1})
        with pytest.raises(FormatError):
            model_from_dict([1, 2, 3])

    @pytest.mark.parametrize("params", [[], {"embedding": "wide"}, {"embedding": [[0.1, 0.2], [0.3]]}],
                             ids=["params_not_object", "non_numeric", "ragged"])
    def test_malformed_params(self, vocab, params):
        payload = model_to_dict(init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)))
        payload["params"] = params
        with pytest.raises(FormatError):
            model_from_dict(payload)

    @pytest.mark.parametrize("edit", [
        lambda p: p["hyper"].update(enc_layers=True),
        lambda p: p["hyper"].update(depth=3),
        lambda p: p.update(hyper=[]),
    ], ids=["bool_for_int", "unknown_key", "not_an_object"])
    def test_malformed_hyper(self, vocab, edit):
        payload = model_to_dict(init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)))
        edit(payload)
        with pytest.raises(FormatError, match="malformed checkpoint"):
            model_from_dict(payload)

    def test_corrupt_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            load_model(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_model(tmp_path / "absent.json")

    @pytest.mark.parametrize("edit, error, message", [
        (lambda p: p.update(format="something-else"), FormatError, "not a corrector checkpoint"),
        (lambda p: p.update(version=99), VersionError, "unsupported checkpoint version 99"),
        (lambda p: p.update(params=[]), FormatError, "malformed checkpoint: params must be"),
        (lambda p: p["params"].pop("gen.b"), InputError, "parameter names mismatch"),
    ], ids=["format", "version", "params_not_object", "missing_parameter"])
    def test_refusal_names_the_file(self, vocab, tmp_path, edit, error, message):
        payload = model_to_dict(init_model(vocab, Hyper(emb_dim=2, hidden_dim=2, enc_layers=1, dec_layers=1)))
        edit(payload)
        p = tmp_path / "model.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(error, match=f"^{re.escape(str(p))}: {message}"):
            load_model(p)
