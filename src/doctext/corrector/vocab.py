"""Character vocabulary for the corrector.

Phrases are split into characters, with the space between words
replaced by a separator token written as a grave accent.  Five special
tokens occupy the first five indices in a fixed order so that
checkpoints agree on them regardless of the character set:

====== ===== =======================================
token  index role
====== ===== =======================================
<go>   0     decoder start-of-sequence input
<end>  1     decoder end-of-sequence target
<pad>  2     batch padding, masked out of the loss
`      3     word separator
<unk>  4     character missing from the vocabulary
====== ===== =======================================
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import InputError

__all__ = ["GO", "END", "PAD", "SEP", "UNK", "SPECIAL_TOKENS", "Vocab"]

GO = "<go>"
END = "<end>"
PAD = "<pad>"
SEP = "`"
UNK = "<unk>"
SPECIAL_TOKENS = (GO, END, PAD, SEP, UNK)


@dataclass(frozen=True)
class Vocab:
    """An ordered token list with the five specials fixed up front."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        tokens = tuple(self.tokens)
        if tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise InputError(
                "vocabulary must start with the special tokens "
                + ", ".join(SPECIAL_TOKENS)
            )
        if len(set(tokens)) != len(tokens):
            raise InputError("vocabulary contains duplicate tokens")
        for t in tokens[len(SPECIAL_TOKENS) :]:
            if not isinstance(t, str) or len(t) != 1:
                raise InputError(f"vocabulary characters must be single characters, got {t!r}")
            if t == " ":
                raise InputError("space cannot be a vocabulary character; it maps to the separator")
        object.__setattr__(self, "tokens", tokens)
        # the one table tokenizing reads: every token's index, and a space's
        index = {t: i for i, t in enumerate(tokens)}
        index[" "] = self.sep_id
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_chars(cls, chars: Iterable[str]) -> "Vocab":
        """Vocabulary over a character set, specials prepended.

        Characters are kept in first-seen order; duplicates and
        collisions with the special tokens are rejected.
        """
        seen: list[str] = []
        for c in chars:
            if c in SPECIAL_TOKENS:
                raise InputError(f"character {c!r} collides with a special token")
            if c in seen:
                raise InputError(f"duplicate character {c!r}")
            seen.append(c)
        return cls(SPECIAL_TOKENS + tuple(seen))

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def go_id(self) -> int:
        return 0

    @property
    def end_id(self) -> int:
        return 1

    @property
    def pad_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    @property
    def unk_id(self) -> int:
        return 4

    def id(self, token: str) -> int:
        """Index of a token; a space maps to the separator and unknown
        characters to the <unk> index."""
        return self._index.get(token, self.unk_id)

    def token(self, index: int) -> str:
        if not 0 <= index < len(self.tokens):
            raise InputError(f"token index {index} out of range")
        return self.tokens[index]

    def preprocess(self, phrase: str) -> list[int]:
        """Tokenize a phrase into character ids with separators for spaces.

        Leading and trailing whitespace is trimmed and runs of spaces
        inside the phrase produce a single separator token.  The result
        contains content tokens only: no start, end, or padding markers.
        An empty (or all-space) phrase is rejected.
        """
        text = " ".join(phrase.split())
        if not text:
            raise InputError("cannot tokenize an empty phrase")
        get, unk = self._index.get, self.unk_id
        return [get(ch, unk) for ch in text]

    def render(self, ids: Sequence[int]) -> str:
        """Inverse of :meth:`preprocess` for display.

        Separators become spaces; start, end, and padding tokens are
        dropped; <unk> renders as its literal token text.
        """
        out: list[str] = []
        for i in ids:
            t = self.token(int(i))
            if t in (GO, END, PAD):
                continue
            out.append(" " if t == SEP else t)
        return "".join(out)

    def spell(self, ids: Sequence[int]) -> str:
        """Space-separated token text, mostly for debugging and docs."""
        return " ".join(self.token(int(i)) for i in ids)
