"""Plain SGD training for the corrector.

The schedule keeps the learning rate constant until ``decay_start``
steps, then halves it every ``halve_every`` further steps.  Gradients
are averaged over the batch and clipped by global norm.  Runs are
deterministic for a fixed seed: example sampling and dropout share one
generator, so the loss curve reproduces bit for bit.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DivergenceError, InputError
from .model import CorrectorModel
from .network import _backward_batch, _forward_batch, _pad_batch
from .vocab import Vocab

__all__ = ["TrainConfig", "learning_rate", "build_pairs", "train"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.

    ``max_steps`` may be zero (train returns the model untouched); the
    remaining fields must be positive.
    """

    lr0: float = 1.0
    decay_start: int = 50000
    halve_every: int = 10000
    batch_size: int = 64
    clip_norm: float = 5.0
    max_steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lr0) and self.lr0 > 0.0):
            raise InputError("lr0 must be positive")
        if not (np.isfinite(self.clip_norm) and self.clip_norm > 0.0):
            raise InputError("clip_norm must be positive")
        for name in ("decay_start", "halve_every", "batch_size"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.max_steps < 0:
            raise InputError("max_steps must be >= 0")


def learning_rate(cfg: TrainConfig, step: int) -> float:
    """Learning rate for a 1-based step index.

    Constant at ``lr0`` before ``decay_start``; from there on, halved
    once per completed ``halve_every`` interval, so the rate at step
    ``decay_start + 2 * halve_every`` is ``lr0 / 4``.
    """
    if step < 1:
        raise InputError("step numbers start at 1")
    if step < cfg.decay_start:
        return cfg.lr0
    return cfg.lr0 * 0.5 ** ((step - cfg.decay_start) // cfg.halve_every)


def build_pairs(vocab: Vocab, corpus: Sequence[tuple[str, str]]):
    """Tokenize a (noisy, clean) corpus into (source, target) id arrays.

    Targets get the <end> token appended; sources are content tokens
    only.  Empty corpora and empty phrases are rejected.
    """
    pairs = []
    for noisy, clean in corpus:
        x = np.asarray(vocab.preprocess(noisy), dtype=np.int64)
        y = np.asarray(vocab.preprocess(clean) + [vocab.end_id], dtype=np.int64)
        pairs.append((x, y))
    if not pairs:
        raise InputError("training corpus is empty")
    return pairs


def train(model: CorrectorModel, corpus: Sequence[tuple[str, str]], cfg: TrainConfig):
    """SGD-train a copy of ``model`` on a (noisy, clean) phrase corpus.

    Returns the trained model and the loss curve: one mean per-sequence
    loss per step.  Raises DivergenceError as soon as a non-finite loss
    or gradient appears.
    """
    pairs = build_pairs(model.vocab, corpus)
    model = model.copy()
    if cfg.max_steps == 0:
        return model, []
    rng = np.random.default_rng(cfg.seed)
    pad = model.vocab.pad_id
    drop_rng = rng if model.hyper.dropout > 0.0 else None
    curve: list[float] = []
    for step in range(1, cfg.max_steps + 1):
        idx = rng.integers(0, len(pairs), size=cfg.batch_size)
        xs = _pad_batch([pairs[i][0] for i in idx], pad)
        ys = _pad_batch([pairs[i][1] for i in idx], pad)
        loss_sum, tape = _forward_batch(model, xs, ys, rng=drop_rng)
        mean_loss = loss_sum / cfg.batch_size
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"non-finite loss {mean_loss!r} at step {step}")
        grads = _backward_batch(model, tape)

        sq = 0.0
        for g in grads.values():
            g /= cfg.batch_size
            sq += float((g * g).sum())
        gnorm = np.sqrt(sq)
        if not np.isfinite(gnorm):
            raise DivergenceError(f"non-finite gradient norm at step {step}")
        scale = learning_rate(cfg, step)
        if gnorm > cfg.clip_norm:
            scale *= cfg.clip_norm / gnorm
        for name, g in grads.items():
            model.params[name] -= scale * g
        curve.append(float(mean_loss))
    return model, curve
