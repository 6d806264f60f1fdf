"""Tests for the corrector's character vocabulary and tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from doctext.corrector.vocab import (
    END,
    GO,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    Vocab,
)
from doctext.errors import InputError


LOWER = "abcdefghijklmnopqrstuvwxyz"


@pytest.fixture(scope="module")
def vocab():
    return Vocab.from_chars(LOWER + "-")


class TestConstruction:
    def test_specials_occupy_leading_indices(self, vocab):
        assert vocab.tokens[: len(SPECIAL_TOKENS)] == SPECIAL_TOKENS
        assert vocab.go_id == 0
        assert vocab.end_id == 1
        assert vocab.pad_id == 2
        assert vocab.sep_id == 3
        assert vocab.unk_id == 4

    def test_token_id_bijection(self, vocab):
        for i, t in enumerate(vocab.tokens):
            assert vocab.id(t) == i
            assert vocab.token(i) == t

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.id("Z") == vocab.unk_id
        assert vocab.id("7") == vocab.unk_id

    def test_separator_collision_rejected(self):
        with pytest.raises(InputError):
            Vocab.from_chars(["a", SEP])

    def test_duplicate_char_rejected(self):
        with pytest.raises(InputError):
            Vocab.from_chars(["a", "a"])

    def test_multichar_content_rejected(self):
        with pytest.raises(InputError):
            Vocab.from_chars(["ab"])

    def test_space_content_rejected(self):
        with pytest.raises(InputError):
            Vocab.from_chars([" "])

    def test_out_of_range_token_rejected(self, vocab):
        with pytest.raises(InputError):
            vocab.token(vocab.size)


class TestPreprocess:
    # Word pairs become letter sequences joined by the separator.
    @pytest.mark.parametrize(
        "phrase, spelled",
        [
            ("sitting room", "s i t t i n g ` r o o m"),
            ("black or yellow-red", "b l a c k ` o r ` y e l l o w - r e d"),
            ("respect for all", "r e s p e c t ` f o r ` a l l"),
            ("all lifes matter", "a l l ` l i f e s ` m a t t e r"),
        ],
    )
    def test_phrase_fixtures(self, vocab, phrase, spelled):
        assert vocab.spell(vocab.preprocess(phrase)) == spelled

    def test_no_go_end_pad_in_output(self, vocab):
        ids = vocab.preprocess("sitting room")
        banned = {vocab.go_id, vocab.end_id, vocab.pad_id}
        assert not banned & set(ids)

    def test_whitespace_normalised(self, vocab):
        assert vocab.preprocess("  a   b ") == vocab.preprocess("a b")

    def test_empty_phrase_rejected(self, vocab):
        with pytest.raises(InputError):
            vocab.preprocess("   ")

    def test_unknown_chars_become_unk(self, vocab):
        ids = vocab.preprocess("a7c")
        assert ids == [vocab.id("a"), vocab.unk_id, vocab.id("c")]

    @given(st.lists(st.text(alphabet=LOWER, min_size=1, max_size=8), min_size=1, max_size=6))
    def test_render_inverts_preprocess(self, words):
        v = Vocab.from_chars(LOWER)
        phrase = " ".join(words)
        assert v.render(v.preprocess(phrase)) == phrase

    def test_render_drops_markers(self, vocab):
        ids = [vocab.go_id] + vocab.preprocess("sitting room") + [vocab.end_id, vocab.pad_id]
        assert vocab.render(ids) == "sitting room"


def preprocess_reference(vocab, phrase):
    """``preprocess`` as it was before it read one table: a method call
    per character and a separator between words."""
    words = phrase.split()
    if not words:
        raise InputError("cannot tokenize an empty phrase")
    ids = []
    for k, word in enumerate(words):
        if k > 0:
            ids.append(vocab.sep_id)
        for ch in word:
            ids.append(vocab.id(ch))
    return ids


class TestPreprocessAgainstFrozen:
    # Runs of spaces, tabs, newlines and other Unicode whitespace; the
    # backtick, which is the separator's own token; characters outside
    # the vocabulary.
    @given(st.text(alphabet="ab-" + SEP + "Z7\u00e9 \t\n\r\x0b\x0c\u00a0\u2003", max_size=30))
    def test_equals_the_word_loop(self, phrase):
        vocab = Vocab.from_chars(LOWER + "-")
        try:
            want = preprocess_reference(vocab, phrase)
        except InputError:
            with pytest.raises(InputError):
                vocab.preprocess(phrase)
        else:
            assert vocab.preprocess(phrase) == want

    @pytest.mark.parametrize("phrase", ["", " ", "\t\n ", "\u00a0\u2003"], ids=repr)
    def test_all_whitespace_refused(self, phrase):
        with pytest.raises(InputError):
            Vocab.from_chars(LOWER).preprocess(phrase)

    def test_space_reads_as_the_separator(self):
        vocab = Vocab.from_chars(LOWER)
        assert vocab.id(" ") == vocab.sep_id == vocab.id(SEP)
