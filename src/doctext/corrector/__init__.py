"""Character-level seq2seq spelling corrector with hand-written training.

The corrector reads a noisy phrase one character at a time (spaces
shown as a dedicated separator token), encodes it with a bidirectional
LSTM stack, and re-emits the corrected phrase with an attention
decoder.  Forward pass, backward pass, and SGD updates are all
explicit numpy; gradients are validated against finite differences in
the test suite.
"""

from .model import CorrectorModel, Hyper, init_model, load_model, model_from_dict, model_to_dict, save_model
from .network import CorrectionResult, backward, correct, correct_batch, loss
from .training import TrainConfig, build_pairs, learning_rate, train
from .vocab import GO, END, PAD, SEP, UNK, SPECIAL_TOKENS, Vocab

__all__ = [
    "GO",
    "END",
    "PAD",
    "SEP",
    "UNK",
    "SPECIAL_TOKENS",
    "Vocab",
    "Hyper",
    "CorrectorModel",
    "init_model",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "CorrectionResult",
    "loss",
    "backward",
    "correct",
    "correct_batch",
    "TrainConfig",
    "learning_rate",
    "build_pairs",
    "train",
]
