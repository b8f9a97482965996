"""Okapi BM25 over an in-memory inverted index of text chunks.

The index is built once from ``(tokens, article_id)`` pairs and is
immutable afterwards, so concurrent queries are safe.  A chunk's id is its
position in that list.  Scores use the non-negative idf variant
``ln(1 + (N - df + 0.5) / (df + 0.5))``; duplicate query terms contribute
once per occurrence.

Each term's postings are two int arrays, the ids (ascending) and tf of the
chunks that hold it, stored with the term's idf.  Each chunk's length
normaliser and article code are arrays by id, computed once at build time,
where one sort of every token's (term, id) key counts all postings at once.
``top_k`` zero-fills one float64 accumulator per query and, for each query
occurrence, adds that term's contribution at its ids in one numpy
expression; exclusion and ``> 0`` are masks, and a partition picks the top
k.  Its cost is numpy work per posting of the query terms plus one
O(chunks) fill and mask per query, with no Python per posting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# BM25 term-frequency saturation and length normalisation.
K1_DEFAULT = 1.2
B_DEFAULT = 0.75


class Postings(NamedTuple):
    positions: np.ndarray  # int64, strictly ascending ids of the chunks holding the term
    tf: np.ndarray  # int64, the term's count in each of those chunks
    idf: float


@dataclass(frozen=True)
class RetrievalIndex:
    postings: dict[str, Postings]
    norm: np.ndarray  # float64 by chunk id: k1 * (1 - b + b * len / avg_len)
    article_codes: np.ndarray  # int64 by chunk id: the code of the chunk's article
    articles: dict[object, int]  # article id -> code


def build_index(chunks: list[tuple[list[str], object]]) -> RetrievalIndex:
    """Index chunks for BM25 scoring.

    ``chunks`` holds ``(tokens, source_article_id)`` pairs; a chunk's id is
    its position in the list.  Raises ``ValueError`` on empty input and when
    no chunk holds a token (the average length would be zero).
    """
    if not chunks:
        raise ValueError("cannot index an empty chunk list")
    articles: dict[object, int] = {}
    codes = [articles.setdefault(article_id, len(articles)) for _, article_id in chunks]

    n_docs = len(chunks)
    lengths = np.array([len(tokens) for tokens, _ in chunks], dtype=np.int64)
    total_len = int(lengths.sum())
    if total_len == 0:
        raise ValueError(f"cannot index {n_docs} chunks that hold no tokens")
    avg_len = total_len / n_docs

    # Key every token by term id * n_docs + chunk id: one sort then groups
    # the postings by term with chunk ids ascending, and each key's count
    # is its tf.  Term ids follow first appearance, the order of ``vocab``.
    vocab: dict[str, int] = {}
    term_ids = [vocab.setdefault(t, len(vocab)) for tokens, _ in chunks for t in tokens]
    token_positions = np.repeat(np.arange(n_docs), lengths)
    token_keys = np.array(term_ids, dtype=np.int64) * n_docs + token_positions
    keys, tf = np.unique(token_keys, return_counts=True)
    term_of_posting, positions = np.divmod(keys, n_docs)
    ends = np.cumsum(np.bincount(term_of_posting, minlength=len(vocab))).tolist()
    postings = {}
    start = 0
    for term, end in zip(vocab, ends):
        df = end - start
        postings[term] = Postings(
            positions=positions[start:end],
            tf=tf[start:end],
            idf=math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)),
        )
        start = end
    return RetrievalIndex(
        postings=postings,
        norm=K1_DEFAULT * (1.0 - B_DEFAULT + B_DEFAULT * lengths / avg_len),
        article_codes=np.array(codes, dtype=np.int64),
        articles=articles,
    )


def score(index: RetrievalIndex, query: list[str], chunk_id: int) -> float:
    """BM25 score of one chunk for the query.

    Sums ``idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avg_len))``
    over query token occurrences, so a term repeated in the query counts
    once per occurrence.
    """
    if not 0 <= chunk_id < index.norm.size:
        raise KeyError(f"unknown chunk id {chunk_id}")
    norm = float(index.norm[chunk_id])
    total = 0.0
    for term in query:
        p = index.postings.get(term)
        if p is None:
            continue
        i = int(np.searchsorted(p.positions, chunk_id))
        if i == p.positions.size or p.positions[i] != chunk_id:
            continue
        tf = int(p.tf[i])
        total += p.idf * tf * (K1_DEFAULT + 1.0) / (tf + norm)
    return total


def _accumulate(index: RetrievalIndex, query: list[str]) -> np.ndarray:
    """Every chunk's score by id, from the operands of ``score`` in the
    same order, so each entry equals ``score`` bit for bit.  A term's
    chunk ids are unique, so the fancy-indexed ``+=`` adds once per chunk."""
    acc = np.zeros(index.norm.size)
    for term in query:
        p = index.postings.get(term)
        if p is not None:
            acc[p.positions] += p.idf * p.tf * (K1_DEFAULT + 1.0) / (p.tf + index.norm[p.positions])
    return acc


def top_k(
    index: RetrievalIndex,
    query: list[str],
    k: int,
    exclude_article: object = None,
) -> list[int]:
    """The at most ``k`` chunk ids that score above zero, ranked by
    descending BM25 score, ties by ascending id.

    Chunks whose source article equals ``exclude_article`` are skipped.
    Fewer than ``k`` ids come back when fewer eligible chunks share a
    query term; an empty or unknown query gets ``[]``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = _accumulate(index, query)
    eligible = scores > 0.0
    if exclude_article is not None and exclude_article in index.articles:
        eligible &= index.article_codes != index.articles[exclude_article]
    ids = np.flatnonzero(eligible)
    # Only chunks scoring at least the k-th best score can rank in the top
    # k, ties included.
    if ids.size > k:
        kept = scores[ids]
        cut = np.partition(kept, ids.size - k)[ids.size - k]
        ids = ids[kept >= cut]
    return ids[np.lexsort((ids, -scores[ids]))][:k].tolist()
