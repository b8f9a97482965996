"""Word-level tokenization, naive sentence splitting, and vocabulary handling.

Every other module tokenizes through here, so thresholds defined in terms of
"tokens" or "sentences" (document lengths, coverage filters, chunk statistics)
are all relative to these two deliberately simple rules:

* ``tokenize`` lowercases and splits on whitespace after detaching punctuation
  into standalone tokens.
* ``split_sentences`` breaks after ``.``, ``!`` or ``?`` followed by
  whitespace.  Abbreviations such as "Mr." therefore split too; this is a
  documented limitation, not a bug.
"""

from __future__ import annotations

import re
from collections import Counter

TOKEN_RE = re.compile(r"\w+|[^\w\s]")
SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

# Reserved vocabulary slots, ids 0..4 in this order.
PAD, UNK, BOS, EOS, QSEP = "<pad>", "<unk>", "<s>", "</s>", "<q>"
RESERVED = [PAD, UNK, BOS, EOS, QSEP]
PAD_ID, UNK_ID, BOS_ID, EOS_ID, QSEP_ID = range(5)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word/punctuation tokens.

    Runs of word characters become one token; every other non-space
    character becomes its own token.  Deterministic, never raises.

    The result is ``TOKEN_RE.findall(text.lower())``, computed without the
    regex for plain words: in ``re``, ``\\s`` is exactly ``str.isspace``,
    the separator set of ``str.split()``, so no token spans a split; and
    ``\\w`` is exactly ``str.isalnum`` or ``"_"``, so a chunk that passes
    ``isalnum()`` is a single ``\\w+`` match.  Any other chunk goes
    through the regex.
    """
    tokens = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            tokens += TOKEN_RE.findall(chunk)
    return tokens


def split_sentences(text: str) -> list[str]:
    """Split on terminal punctuation (. ! ?) followed by whitespace.

    All non-whitespace characters are preserved across the output segments.
    Empty segments are dropped, so ``""`` yields ``[]``.
    """
    return [seg for seg in SENTENCE_RE.split(text) if seg]


class Vocabulary:
    """Immutable token <-> id mapping with five reserved ids.

    Ids 0..4 are pad, unknown, sequence-start, sequence-end and
    query-separator.  Content tokens occupy ids 5 and up, most frequent
    first, frequency ties broken lexicographically.  ``max_size`` bounds the
    total size including the reserved slots.
    """

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(RESERVED) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(corpus: list[list[str]], max_size: int) -> Vocabulary:
    """Build a vocabulary from tokenized sequences.

    Keeps the ``max_size - 5`` most frequent tokens (ties broken
    lexicographically) on top of the five reserved slots.

    Raises ``ValueError`` on an empty corpus or ``max_size <= 5``.
    """
    if max_size <= 5:
        raise ValueError(f"max_size must exceed the 5 reserved slots, got {max_size}")
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    freq = Counter()
    for seq in corpus:
        freq.update(seq)
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    return Vocabulary(ranked[: max_size - 5])
