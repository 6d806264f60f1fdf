"""Corrector parameters, initialization, and checkpoint serialization.

A model is a plain dict of named float64 arrays plus its vocabulary
and hyperparameters.  Parameter names spell out their place in the
network:

* ``embedding``                 (V, E) shared input embedding
* ``enc.{l}.fwd|bwd.W|U|b``     encoder LSTM layer l, each direction
* ``dec.{l}.W|U|b``             decoder LSTM layer l
* ``att.score``                 (2H, H) attention score projection
* ``att.out``                   (2H, H) pre-output mix of state and context
* ``bridge``                    (2H, H) encoder final states -> decoder start
* ``gen.W``, ``gen.b``          (H, V), (V,) output projection

LSTM weights follow the x @ W + h @ U + b layout with gates ordered
input, forget, cell, output along the last axis.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, InputError, VersionError, check_float
from ..formats import from_json_value, read_json_file, to_json_value, write_json_file
from .vocab import Vocab

__all__ = [
    "Hyper",
    "CorrectorModel",
    "param_shapes",
    "init_model",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_FORMAT = "doctext-corrector"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Hyper:
    """Network sizes.  Defaults are the small configuration used by the
    bundled tooling; dropout, kept as a float for the checkpoint, applies
    between stacked layers and only while training."""

    emb_dim: int = 32
    hidden_dim: int = 64
    enc_layers: int = 2
    dec_layers: int = 2
    dropout: float = 0.0

    def __post_init__(self):
        for name in ("emb_dim", "hidden_dim", "enc_layers", "dec_layers"):
            v = getattr(self, name)
            if type(v) is not int or v < 1:  # a bool or a NumPy integer is not JSON's
                raise InputError(f"{name} must be a positive integer")
        object.__setattr__(self, "dropout", check_float(self.dropout, "dropout"))
        if not 0.0 <= self.dropout < 1.0:
            raise InputError("dropout must lie in [0, 1)")


@dataclass
class CorrectorModel:
    vocab: Vocab
    hyper: Hyper
    params: dict[str, np.ndarray]

    def __post_init__(self):
        expected = param_shapes(self.hyper, self.vocab.size)
        if set(self.params) != set(expected):
            missing = sorted(set(expected) - set(self.params))
            extra = sorted(set(self.params) - set(expected))
            raise InputError(f"parameter names mismatch: missing {missing}, extra {extra}")
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=np.float64)
            if arr.shape != shape:
                raise InputError(f"parameter {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"parameter {name} contains non-finite values")
            self.params[name] = arr

    def copy(self) -> "CorrectorModel":
        return CorrectorModel(
            vocab=self.vocab,
            hyper=self.hyper,
            params={k: v.copy() for k, v in self.params.items()},
        )

    def n_parameters(self) -> int:
        return int(sum(v.size for v in self.params.values()))


def param_shapes(hyper: Hyper, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Expected name -> shape map for a model of this size."""
    e, h = hyper.emb_dim, hyper.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {"embedding": (vocab_size, e)}
    for l in range(hyper.enc_layers):
        din = e if l == 0 else 2 * h
        for d in ("fwd", "bwd"):
            shapes[f"enc.{l}.{d}.W"] = (din, 4 * h)
            shapes[f"enc.{l}.{d}.U"] = (h, 4 * h)
            shapes[f"enc.{l}.{d}.b"] = (4 * h,)
    for l in range(hyper.dec_layers):
        din = e + h if l == 0 else h
        shapes[f"dec.{l}.W"] = (din, 4 * h)
        shapes[f"dec.{l}.U"] = (h, 4 * h)
        shapes[f"dec.{l}.b"] = (4 * h,)
    shapes["att.score"] = (2 * h, h)
    shapes["att.out"] = (2 * h, h)
    shapes["bridge"] = (2 * h, h)
    shapes["gen.W"] = (h, vocab_size)
    shapes["gen.b"] = (vocab_size,)
    return shapes


def init_model(vocab: Vocab, hyper: Hyper | None = None, seed: int = 0) -> CorrectorModel:
    """Fresh model with uniform(-0.1, 0.1) weights.

    Biases start at zero except the forget gate, which starts at 1 so
    early training does not wipe the cell state.  The same seed always
    produces the same parameters.
    """
    hyper = hyper or Hyper()
    rng = np.random.default_rng(seed)
    h = hyper.hidden_dim
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(hyper, vocab.size).items():
        if name.endswith(".b") or name == "gen.b":
            arr = np.zeros(shape)
            if name.endswith(".b") and not name.startswith("gen"):
                arr[h : 2 * h] = 1.0  # forget gate bias
        else:
            arr = rng.uniform(-0.1, 0.1, size=shape)
        params[name] = arr
    return CorrectorModel(vocab=vocab, hyper=hyper, params=params)


def model_to_dict(model: CorrectorModel) -> dict:
    """JSON-ready checkpoint dict; float lists round-trip bit-exactly."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "hyper": to_json_value(model.hyper),
        "vocab": list(model.vocab.tokens),
        "params": {name: arr.tolist() for name, arr in sorted(model.params.items())},
    }


def model_from_dict(payload: dict) -> CorrectorModel:
    if not isinstance(payload, dict):
        raise FormatError("checkpoint must be a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise FormatError("not a corrector checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise VersionError(
            f"unsupported checkpoint version {payload.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    try:
        hyper = from_json_value(Hyper, payload["hyper"])
        vocab = Vocab(from_json_value(tuple[str, ...], payload["vocab"]))
        if not isinstance(payload["params"], dict):
            raise FormatError("malformed checkpoint: params must be an object")
        params = {name: np.asarray(v, dtype=np.float64) for name, v in payload["params"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: a parameter that is not numeric or is ragged
        raise FormatError(f"malformed checkpoint: {exc}") from exc
    return CorrectorModel(vocab=vocab, hyper=hyper, params=params)


def save_model(model: CorrectorModel, path) -> None:
    """Write a checkpoint as canonical JSON (sorted keys, fixed
    separators) so identical models produce identical bytes."""
    write_json_file(path, model_to_dict(model))


def load_model(path) -> CorrectorModel:
    """Read a checkpoint written by :func:`save_model`.  A malformed one
    raises the error of :func:`model_from_dict`, its message prefixed
    with the path."""
    payload = read_json_file(path)
    try:
        return model_from_dict(payload)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
