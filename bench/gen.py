"""Seeded benchmark inputs built on ``querysumm.synthetic``.

The stock generators draw from a pool of well under 200 tokens, which hides
the cost of a realistic output vocabulary (logits, embedding gradients and
Adam state all scale with it).  This generator keeps their structure (topic
words, markers, verbs, verbatim summary sentences, planted IR-log defects)
and widens the pool to about 2,000 words: the stock topics plus generated
ones, and a Zipf-weighted general pool in place of the short filler list.

The word pool is a constant of the benchmark; only the sampling depends on
the workload seed, so every seed yields the same vocabulary size.
"""

from __future__ import annotations

import numpy as np

from querysumm import synthetic
from querysumm.data import (
    REJECT_LOW_COVERAGE,
    REJECT_TOO_FEW_DOCUMENTS,
    REJECT_TOO_FEW_SENTENCES,
    Article,
    IrRecord,
)

_CONSONANTS = "b c d f g h j k l m n p r s t v w z".split()
_VOWELS = "a e i o u".split()
_POOL_SEED = 20210302
TOPIC_COUNT = 32
TOPIC_SIZE = 6
GENERAL_SIZE = 1900
TOPIC_SHARE = 0.4
MARKER_SHARE = 0.3
DEFECT_RATE = 0.25  # share of IR-log records with a planted defect
# Never generated from the consonant/vowel syllables above, so a sentence
# made of them is guaranteed to be uncovered by every document.
UNCOVERED_SENTENCE = "quasar jukebox fjord puzzle ."


def _pseudo_words(n: int, exclude: set[str]) -> list[str]:
    rng = np.random.default_rng(_POOL_SEED)
    words: list[str] = []
    seen = set(exclude)
    while len(words) < n:
        w = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(int(rng.integers(2, 4)))
        )
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _build_pool():
    stock = {w for topic in synthetic.TOPICS for w in topic}
    stock |= set(synthetic.FILLER) | set(synthetic.VERBS) | set(synthetic.MARKERS)
    extra_topics = TOPIC_COUNT - len(synthetic.TOPICS)
    fresh = _pseudo_words(extra_topics * TOPIC_SIZE + GENERAL_SIZE, stock)
    topics = [tuple(t) for t in synthetic.TOPICS] + [
        tuple(fresh[i * TOPIC_SIZE : (i + 1) * TOPIC_SIZE]) for i in range(extra_topics)
    ]
    general = list(synthetic.FILLER) + fresh[extra_topics * TOPIC_SIZE :]
    weights = np.cumsum(1.0 / (np.arange(len(general)) + 10.0))
    return topics, general, weights / weights[-1]


TOPICS, GENERAL, _GENERAL_CDF = _build_pool()


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, 0xBE7C, *key])


def _sentence(rng, topic, n_words: int) -> str:
    words = []
    if rng.random() < MARKER_SHARE:
        words.append(synthetic.MARKERS[rng.integers(len(synthetic.MARKERS))])
    words.append(topic[rng.integers(len(topic))])
    n = max(0, n_words - len(words))
    from_topic = rng.random(n) < TOPIC_SHARE
    topic_ids = rng.integers(len(topic), size=n)
    general_ids = np.searchsorted(_GENERAL_CDF, rng.random(n), side="right")
    words += [
        topic[t] if pick else GENERAL[g]
        for pick, t, g in zip(from_topic, topic_ids, general_ids)
    ]
    verbs = synthetic.VERBS
    words.insert(1 + int(rng.integers(len(words) - 1)), verbs[rng.integers(len(verbs))])
    return " ".join(words) + " ."


def _paragraph(rng, topic, sentences: tuple[int, int], words: tuple[int, int]) -> str:
    n = int(rng.integers(sentences[0], sentences[1] + 1))
    return " ".join(
        _sentence(rng, topic, int(rng.integers(words[0], words[1] + 1))) for _ in range(n)
    )


def make_articles(
    n: int,
    seed: int,
    paragraphs: tuple[int, int] = (5, 12),
    sentences: tuple[int, int] = (1, 3),
    words: tuple[int, int] = (5, 10),
    summary_sentences: int = 3,
) -> list[Article]:
    """``n`` articles over rotating topics; ranges are inclusive.

    As in ``querysumm.synthetic.make_articles``, the summary copies the first
    sentence of distinct paragraphs verbatim, so summaries span documents.
    """
    articles = []
    markers, verbs = synthetic.MARKERS, synthetic.VERBS
    for i in range(n):
        rng = _rng(seed, 1, i)
        topic = TOPICS[i % len(TOPICS)]
        title = (
            f"{markers[i % len(markers)]} {topic[0]} {topic[1]} "
            f"{verbs[int(rng.integers(len(verbs)))]}"
        )
        paras = [
            _paragraph(rng, topic, sentences, words)
            for _ in range(int(rng.integers(paragraphs[0], paragraphs[1] + 1)))
        ]
        picks = rng.choice(len(paras), size=min(summary_sentences, len(paras)), replace=False)
        summary = " ".join(paras[int(p)].split(" .")[0].strip() + " ." for p in sorted(picks))
        articles.append(Article(f"art-{seed}-{i:04d}", title, paras, summary))
    return articles


def make_ir_records(n: int, seed: int) -> tuple[list[IrRecord], list[str | None]]:
    """IR-log records plus the rejection reason each must get (``None`` for
    records that must be kept).

    Every answer sentence is appended verbatim to a document other than the
    answer source, so a record without a planted defect is kept.  A defect
    fails exactly one criterion, checked in the filter's order: a one-line
    answer, too few documents, or an answer sentence no document covers.
    """
    records, expected = [], []
    markers = synthetic.MARKERS
    for i in range(n):
        rng = _rng(seed, 2, i)
        topic = TOPICS[i % len(TOPICS)]
        picks = rng.choice(len(topic), size=2, replace=False)
        query = " ".join([markers[i % len(markers)]] + [topic[int(j)] for j in picks])
        answer = [
            _sentence(rng, topic, int(rng.integers(6, 10)))
            for _ in range(int(rng.integers(2, 4)))
        ]
        n_docs = int(rng.integers(5, 8))
        docs = [_paragraph(rng, topic, (2, 4), (6, 12)) for _ in range(n_docs)]
        source = int(rng.integers(n_docs))
        for s in answer:
            slot = int(rng.integers(n_docs - 1))
            slot += slot >= source
            docs[slot] = docs[slot] + " " + s
        reason = None
        if rng.random() < DEFECT_RATE:
            kind = int(rng.integers(3))
            if kind == 0:
                answer = answer[:1]
                reason = REJECT_TOO_FEW_SENTENCES
            elif kind == 1:
                docs = docs[: source + 1][-3:]
                source = len(docs) - 1
                reason = REJECT_TOO_FEW_DOCUMENTS
            else:
                answer.append(UNCOVERED_SENTENCE)
                reason = REJECT_LOW_COVERAGE
        records.append(IrRecord(query, " ".join(answer), docs, source))
        expected.append(reason)
    return records, expected
