"""Okapi BM25 over an in-memory inverted index of text chunks.

The index is built once from ``(chunk_id, tokens, article_id)`` triples and
is immutable afterwards, so concurrent queries are safe.  Scores use the
non-negative idf variant ``ln(1 + (N - df + 0.5) / (df + 0.5))``; duplicate
query terms contribute once per occurrence.

The index addresses a chunk by its position, its rank in ascending chunk-id
order.  Each term's postings are two int arrays, the positions (ascending)
and tf of the chunks that hold it, stored with the term's idf.  Each chunk's
length normaliser and article code are arrays by position, computed once at
build time, where one sort of every token's (term, position) key counts all
postings at once.  ``top_k`` zero-fills one float64 accumulator per query
and, for each query occurrence, adds that term's contribution at its
positions in one numpy expression; exclusion and ``> 0`` are masks, and a
partition picks the top k.  Its cost is numpy work per posting of the query terms plus one
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
    positions: np.ndarray  # int64, strictly ascending positions of the chunks holding the term
    tf: np.ndarray  # int64, the term's count in each of those chunks
    idf: float


@dataclass(frozen=True)
class RetrievalIndex:
    postings: dict[str, Postings]
    chunk_ids: np.ndarray  # int64, ascending: position -> chunk id
    norm: np.ndarray  # float64 by position: k1 * (1 - b + b * len / avg_len)
    article_codes: np.ndarray  # int64 by position: the code of the chunk's article
    articles: dict[object, int]  # article id -> code
    avg_len: float
    n_docs: int


def build_index(chunks: list[tuple[int, list[str], object]]) -> RetrievalIndex:
    """Index chunks for BM25 scoring.

    ``chunks`` holds ``(chunk_id, tokens, source_article_id)`` entries with
    unique chunk ids.  Raises ``ValueError`` on duplicates, on empty input
    and when no chunk holds a token (the average length would be zero).
    """
    if not chunks:
        raise ValueError("cannot index an empty chunk list")
    ordered = sorted(chunks, key=lambda c: c[0])
    chunk_ids = np.array([c[0] for c in ordered], dtype=np.int64)
    repeated = np.flatnonzero(chunk_ids[1:] == chunk_ids[:-1])
    if repeated.size:
        raise ValueError(f"duplicate chunk id {chunk_ids[repeated[0]]}")
    articles: dict[object, int] = {}
    codes = [articles.setdefault(article_id, len(articles)) for _, _, article_id in ordered]

    n_docs = len(ordered)
    lengths = np.array([len(tokens) for _, tokens, _ in ordered], dtype=np.int64)
    total_len = int(lengths.sum())
    if total_len == 0:
        raise ValueError(f"cannot index {n_docs} chunks that hold no tokens")
    avg_len = total_len / n_docs

    # Key every token by term id * n_docs + position: one sort then groups
    # the postings by term with positions ascending, and each key's count
    # is its tf.  Term ids follow first appearance, the order of ``vocab``.
    vocab: dict[str, int] = {}
    term_ids = [vocab.setdefault(t, len(vocab)) for _, tokens, _ in ordered for t in tokens]
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
        chunk_ids=chunk_ids,
        norm=K1_DEFAULT * (1.0 - B_DEFAULT + B_DEFAULT * lengths / avg_len),
        article_codes=np.array(codes, dtype=np.int64),
        articles=articles,
        avg_len=avg_len,
        n_docs=n_docs,
    )


def score(index: RetrievalIndex, query: list[str], chunk_id: int) -> float:
    """BM25 score of one chunk for the query.

    Sums ``idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avg_len))``
    over query token occurrences, so a term repeated in the query counts
    once per occurrence.
    """
    pos = int(np.searchsorted(index.chunk_ids, chunk_id))
    if pos == index.n_docs or index.chunk_ids[pos] != chunk_id:
        raise KeyError(f"unknown chunk id {chunk_id}")
    norm = float(index.norm[pos])
    total = 0.0
    for term in query:
        p = index.postings.get(term)
        if p is None:
            continue
        i = int(np.searchsorted(p.positions, pos))
        if i == p.positions.size or p.positions[i] != pos:
            continue
        tf = int(p.tf[i])
        total += p.idf * tf * (K1_DEFAULT + 1.0) / (tf + norm)
    return total


def _accumulate(index: RetrievalIndex, query: list[str]) -> np.ndarray:
    """Every chunk's score by position, from the operands of ``score`` in
    the same order, so each entry equals ``score`` bit for bit.  A term's
    positions are unique, so the fancy-indexed ``+=`` adds once per chunk."""
    acc = np.zeros(index.n_docs)
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
    # Only positions scoring at least the k-th best score can rank in the
    # top k, ties included; positions ascend with chunk id.
    if ids.size > k:
        kept = scores[ids]
        cut = np.partition(kept, ids.size - k)[ids.size - k]
        ids = ids[kept >= cut]
    ids = ids[np.lexsort((ids, -scores[ids]))][:k]
    return index.chunk_ids[ids].tolist()
