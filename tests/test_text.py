import re
import sys

import numpy as np
import pytest

from querysumm.text import (
    RESERVED,
    TOKEN_RE,
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


    def test_regex_classes_match_the_str_predicates_at_every_code_point(self):
        # tokenize relies on both equivalences to skip the regex for chunks
        # that pass isalnum(); see its docstring.
        word, space = re.compile(r"\w"), re.compile(r"\s")
        for cp in range(sys.maxunicode + 1):
            c = chr(cp)
            assert bool(word.match(c)) == (c.isalnum() or c == "_"), hex(cp)
            assert bool(space.match(c)) == c.isspace(), hex(cp)
        # str.split() separates on exactly the isspace() characters.
        spaces = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
        assert all(f"a{c}b".split() == ["a", "b"] for c in spaces)
        others = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not chr(cp).isspace())
        assert others.split() == [others]

    def test_equals_the_regex_on_mixed_unicode(self):
        rng = np.random.default_rng(5)
        pieces = [
            "Storm", "coast", "42", "x_y", "_", "__init__", "café", "İstanbul", "STRASSE",
            "Straße", "ΣΟΦΙΑ", "漢字", "٣٤", "²", "½", "🙂", "e\u0301", "no-go", "it's",
            "(z)", "a,b.c!d", "?!", "...", "—", "«q»", "\u200b", "\x00",
        ]
        gaps = [" ", "  ", "\t", "\n", "\x1c", "\x1f", "\x85", "\xa0", "\u2003",
                "\u2028", "\u3000", "", ",", "."]
        for _ in range(2000):
            k = int(rng.integers(0, 12))
            text = "".join(
                str(rng.choice(pieces)) + str(rng.choice(gaps)) for _ in range(k)
            )
            assert tokenize(text) == TOKEN_RE.findall(text.lower()), repr(text)


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
        assert v.encode(["c"]) == [UNK_ID]

    def test_unseen_maps_to_unknown(self):
        v = build_vocab([["a"]], 6)
        assert v.encode(["zebra"]) == [UNK_ID]

    def test_roundtrip(self):
        v = build_vocab([["cat", "dog", "cat"]], 10)
        for tok in v.id_to_token:
            assert v.id_to_token[v.token_to_id[tok]] == tok

    def test_errors(self):
        with pytest.raises(ValueError):
            build_vocab([], 10)
        with pytest.raises(ValueError):
            build_vocab([["a"]], 5)
