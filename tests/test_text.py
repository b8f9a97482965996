import numpy as np
import pytest

from querysumm.text import (
    RESERVED,
    UNK_ID,
    build_vocab,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_detached(self):
        # Hand-tokenized: & is its own token, words lowercase.
        assert tokenize("Rock & Roll Hall") == ["rock", "&", "roll", "hall"]
        assert tokenize("it's a no-go.") == ["it", "'", "s", "a", "no", "-", "go", "."]

    def test_no_whitespace_or_empty_tokens(self):
        for text in ["a  b\t c\nd", " x ", "a,b.c!d"]:
            for tok in tokenize(text):
                assert tok and not any(ch.isspace() for ch in tok)

    def test_idempotent_on_joined_output(self):
        rng = np.random.default_rng(0)
        pool = ["Alpha", "beta.", "x,y", "&", "(z)", "it's", "42", "?!"]
        for _ in range(50):
            text = " ".join(rng.choice(pool, size=rng.integers(1, 8)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once


class TestSplitSentences:
    def test_two_periods(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_single_segment(self):
        assert split_sentences("no terminal punct") == ["no terminal punct"]

    def test_naive_abbreviation_split(self):
        # Known limitation: the naive rule splits after "Mr." too.
        assert split_sentences("Mr. Smith went. He left.") == [
            "Mr.",
            "Smith went.",
            "He left.",
        ]

    def test_preserves_non_whitespace_characters(self):
        rng = np.random.default_rng(1)
        pool = ["Stop.", "go", "now!", "why?", "a.b", "... ok"]
        for _ in range(50):
            text = " ".join(rng.choice(pool, size=rng.integers(1, 6)))
            joined = "".join(split_sentences(text))
            assert sorted(c for c in joined if not c.isspace()) == sorted(
                c for c in text if not c.isspace()
            )


class TestVocabulary:
    def test_reserved_layout(self):
        v = build_vocab([["a"]], 6)
        assert v.id_to_token[:5] == RESERVED
        assert len(v) == 6

    def test_frequency_then_lexicographic(self):
        # a and b both occur twice, c once; with room for all three every
        # token is kept, ordered by frequency then alphabet.
        v = build_vocab([["a", "a", "b"], ["b", "c"]], 8)
        assert v.id_to_token[5:] == ["a", "b", "c"]

    def test_capacity_drops_lowest_frequency(self):
        # Capacity is max_size - 5: one slot fewer drops c (frequency 1,
        # while a and b have frequency 2).  Hand frequency count.
        v = build_vocab([["a", "a", "b"], ["b", "c"]], 7)
        assert v.id_to_token[5:] == ["a", "b"]
        assert v.lookup("c") == UNK_ID

    def test_unseen_maps_to_unknown(self):
        v = build_vocab([["a"]], 6)
        assert v.lookup("zebra") == UNK_ID

    def test_roundtrip(self):
        v = build_vocab([["cat", "dog", "cat"]], 10)
        for tok in v.id_to_token:
            assert v.id_to_token[v.token_to_id[tok]] == tok

    def test_errors(self):
        with pytest.raises(ValueError):
            build_vocab([], 10)
        with pytest.raises(ValueError):
            build_vocab([["a"]], 5)
