"""Okapi BM25 over an in-memory inverted index of text chunks.

The index is built once from ``(chunk_id, tokens, article_id)`` triples and
is immutable afterwards, so concurrent queries are safe.  Scores use the
non-negative idf variant ``ln(1 + (N - df + 0.5) / (df + 0.5))``; duplicate
query terms contribute once per occurrence.

Each ``(term, chunk, tf)`` is stored once, in the term's posting list, which
is sorted by chunk id; each chunk's length normaliser is computed once, at
build time.  ``top_k`` evaluates term at a time: it walks the postings of
each query occurrence and adds that term's contribution to a per-chunk
accumulator, so its work grows with the query terms' posting lengths, not
with the corpus.  Only chunks that share a query term can score above zero.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

# BM25 term-frequency saturation and length normalisation.
K1_DEFAULT = 1.2
B_DEFAULT = 0.75


@dataclass
class RetrievalIndex:
    postings: dict[str, list[tuple[int, int]]]  # term -> [(chunk_id, tf)] by chunk_id
    # chunk_id -> k1 * (1 - b + b * len / avg_len), in ascending chunk_id
    norm: dict[int, float]
    avg_len: float
    n_docs: int
    chunk_meta: dict[int, tuple[object, int]]  # chunk_id -> (article_id, ordinal)


def build_index(chunks: list[tuple[int, list[str], object]]) -> RetrievalIndex:
    """Index chunks for BM25 scoring.

    ``chunks`` holds ``(chunk_id, tokens, source_article_id)`` entries with
    unique chunk ids.  Raises ``ValueError`` on duplicates, on empty input
    and when no chunk holds a token (the average length would be zero).
    """
    if not chunks:
        raise ValueError("cannot index an empty chunk list")
    chunk_meta: dict[int, tuple[object, int]] = {}
    ordinals: dict[object, int] = {}
    for chunk_id, _, article_id in chunks:
        if chunk_id in chunk_meta:
            raise ValueError(f"duplicate chunk id {chunk_id}")
        ordinal = ordinals.get(article_id, 0)
        ordinals[article_id] = ordinal + 1
        chunk_meta[chunk_id] = (article_id, ordinal)

    doc_len: dict[int, int] = {}
    postings: dict[str, list[tuple[int, int]]] = {}
    for chunk_id, tokens, _ in sorted(chunks, key=lambda c: c[0]):
        doc_len[chunk_id] = len(tokens)
        freqs: dict[str, int] = {}
        for t in tokens:
            freqs[t] = freqs.get(t, 0) + 1
        for term, tf in freqs.items():
            postings.setdefault(term, []).append((chunk_id, tf))

    n_docs = len(doc_len)
    total_len = sum(doc_len.values())
    if total_len == 0:
        raise ValueError(f"cannot index {n_docs} chunks that hold no tokens")
    avg_len = total_len / n_docs
    k1, b = K1_DEFAULT, B_DEFAULT
    return RetrievalIndex(
        postings=postings,
        norm={cid: k1 * (1.0 - b + b * n / avg_len) for cid, n in doc_len.items()},
        avg_len=avg_len,
        n_docs=n_docs,
        chunk_meta=chunk_meta,
    )


def idf(index: RetrievalIndex, term: str) -> float:
    df = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))


def score(index: RetrievalIndex, query: list[str], chunk_id: int) -> float:
    """BM25 score of one chunk for the query.

    Sums ``idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len / avg_len))``
    over query token occurrences, so a term repeated in the query counts
    once per occurrence.
    """
    if chunk_id not in index.norm:
        raise KeyError(f"unknown chunk id {chunk_id}")
    norm = index.norm[chunk_id]
    total = 0.0
    for term in query:
        plist = index.postings.get(term)
        if not plist:
            continue
        i = bisect_left(plist, (chunk_id,))
        if i == len(plist) or plist[i][0] != chunk_id:
            continue
        tf = plist[i][1]
        total += idf(index, term) * tf * (K1_DEFAULT + 1.0) / (tf + norm)
    return total


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

    Each chunk's score is accumulated from the operands of ``score`` in the
    same order, so it equals ``score(index, query, chunk_id)`` bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    meta, norms = index.chunk_meta, index.norm
    k1_plus_1 = K1_DEFAULT + 1.0
    scores: dict[int, float] = {}
    for term in query:
        plist = index.postings.get(term)
        if not plist:
            continue
        w = idf(index, term)
        for chunk_id, tf in plist:
            if exclude_article is not None and meta[chunk_id][0] == exclude_article:
                continue
            s = scores.get(chunk_id, 0.0)
            scores[chunk_id] = s + w * tf * k1_plus_1 / (tf + norms[chunk_id])

    # Partial sort: only chunks scoring at least the k-th best score can
    # rank in the top k, ties included.
    best = heapq.nlargest(k, scores.values())
    floor = best[-1] if best else 0.0
    return sorted(
        (cid for cid, s in scores.items() if s >= floor and s > 0.0),
        key=lambda cid: (-scores[cid], cid),
    )[:k]
