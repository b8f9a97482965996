"""Construction of query-documents-summary triplet datasets.

Two builders produce the universal ``Triplet`` record:

* ``build_qmdscnn`` restructures a single-document news corpus: the article
  title becomes the query, paragraphs are grouped into chunks of one to four
  (each chunk a new document), and the top BM25 chunks retrieved with the
  title from the rest of the corpus are appended as extra documents.
* ``filter_qmdsir`` converts search-log records (query, answer passage,
  ranked documents) into triplets, dropping the document the answer was
  extracted from and rejecting records that fail the sentence-count,
  document-count, or per-sentence coverage criteria.

Also here: query-type variants for ablations, the summary-to-document
alignment histogram, and corpus statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bm25
from .rouge import rouge_l, rouge_n
from .text import split_sentences, tokenize

ORIGIN_CHUNK = "original-chunk"
ORIGIN_RETRIEVED = "retrieved"
DULL_QUERY = "what is it ?"
DISSIMILAR_MAX_F1 = 0.2
COVERAGE_THRESHOLD = 0.8


@dataclass
class Article:
    id: object
    title: str
    paragraphs: list[str]
    summary: str

    def __post_init__(self):
        if not self.paragraphs:
            raise ValueError(f"article {self.id} has no paragraphs")
        if not self.title:
            raise ValueError(f"article {self.id} has an empty title")


@dataclass
class Triplet:
    query: str
    documents: list[str]
    summary: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.documents:
            raise ValueError("triplet needs at least one document")
        if any(not d.strip() for d in self.documents):
            raise ValueError("triplet documents must contain non-whitespace text")
        origins = self.meta.get("origins")
        if origins is not None and len(origins) != len(self.documents):
            raise ValueError("origin tags must cover all documents")


@dataclass
class IrRecord:
    query: str
    answer_passage: str
    ranked_documents: list[str]
    answer_source_index: int

    def __post_init__(self):
        if not 0 <= self.answer_source_index < len(self.ranked_documents):
            raise ValueError(
                f"answer_source_index {self.answer_source_index} out of range"
            )


@dataclass(frozen=True)
class Chunk:
    article_id: object
    ordinal: int
    paragraphs: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.paragraphs)


def _spawn(seed: int, *key: int):
    return np.random.default_rng([seed & 0xFFFFFFFF, *key])


def chunk_article(article: Article, seed: int) -> list[Chunk]:
    """Partition the paragraph sequence into chunks of 1-4 paragraphs.

    Chunk sizes are drawn uniformly from {1,2,3,4} by a generator seeded with
    ``(seed, article position-independent hash)``; when fewer paragraphs
    remain than the drawn size, the final chunk takes the remainder.  Order
    is preserved and the output is deterministic for a fixed seed.
    """
    rng = _spawn(seed, _stable_key(article.id))
    n = len(article.paragraphs)
    chunks = []
    pos = 0
    while pos < n:
        size = min(int(rng.integers(1, 5)), n - pos)
        chunks.append(
            Chunk(article.id, len(chunks), tuple(article.paragraphs[pos : pos + size]))
        )
        pos += size
    return chunks


def _stable_key(article_id) -> int:
    # Stable across processes (unlike hash()) so builds are reproducible.
    data = str(article_id).encode("utf-8")
    key = 2166136261
    for byte in data:
        key = ((key ^ byte) * 16777619) & 0xFFFFFFFF
    return key


def build_qmdscnn(
    corpus: list[Article], seed: int, k_retrieved: int = 4
) -> list[Triplet]:
    """One triplet per article: title as query, own chunks as documents,
    plus the top ``k_retrieved`` BM25 chunks from other articles.

    Retrieved chunks with zero BM25 score are discarded, so triplets may
    carry fewer than ``k_retrieved`` foreign documents on small corpora.
    """
    if len(corpus) < 2:
        raise ValueError("retrieval augmentation needs at least 2 articles")
    per_article = [chunk_article(a, seed) for a in corpus]
    flat = []
    for chunks in per_article:
        flat.extend(chunks)
    indexed = [(i, tokenize(c.text), c.article_id) for i, c in enumerate(flat)]
    index = bm25.build_index(indexed)

    triplets = []
    for article, own in zip(corpus, per_article):
        query_tokens = tokenize(article.title)
        hits = bm25.top_k(index, query_tokens, k_retrieved, exclude_article=article.id)
        hits = [cid for cid in hits if bm25.score(index, query_tokens, cid) > 0.0]
        documents = [c.text for c in own] + [flat[cid].text for cid in hits]
        origins = [ORIGIN_CHUNK] * len(own) + [ORIGIN_RETRIEVED] * len(hits)
        ranks = [None] * len(own) + list(range(1, len(hits) + 1))
        meta = {
            "source_id": article.id,
            "origins": origins,
            "ranks": ranks,
            "retrieved_from": [flat[cid].article_id for cid in hits],
        }
        triplets.append(Triplet(article.title, documents, article.summary, meta))
    return triplets


def make_query_variant(
    triplets: list[Triplet], variant: str, seed: int = 0
) -> list[Triplet]:
    """Replace queries for the query-type ablations.

    ``original`` returns the triplets unchanged.  ``distractor`` swaps in the
    other triplet's query with the highest ROUGE-1 F1 against the current
    one (ties to the lowest index).  ``dull`` uses the fixed string
    ``"what is it ?"``.  ``dissimilar`` takes the first other query (by
    ascending index) whose ROUGE-1 F1 with the current one is below 0.2 and
    raises if no query qualifies.

    Every variant is deterministic given its inputs; ``seed`` is accepted
    for interface stability but unused by the current selection rules.
    """
    if variant == "original":
        return [
            Triplet(t.query, list(t.documents), t.summary, dict(t.meta))
            for t in triplets
        ]
    if variant == "dull":
        return [_with_query(t, DULL_QUERY, variant) for t in triplets]
    if variant not in ("distractor", "dissimilar"):
        raise ValueError(f"unknown query variant {variant!r}")
    if len(triplets) < 2:
        raise ValueError(f"{variant} variant needs at least 2 triplets")

    token_cache = [tokenize(t.query) for t in triplets]
    out = []
    for i, t in enumerate(triplets):
        if variant == "distractor":
            best_j, best_f1 = -1, -1.0
            for j, other in enumerate(token_cache):
                if j == i:
                    continue
                f1 = rouge_n(other, token_cache[i], 1).f1
                if f1 > best_f1:
                    best_j, best_f1 = j, f1
            out.append(_with_query(t, triplets[best_j].query, variant))
        else:
            for j, other in enumerate(token_cache):
                if j != i and rouge_n(other, token_cache[i], 1).f1 < DISSIMILAR_MAX_F1:
                    out.append(_with_query(t, triplets[j].query, variant))
                    break
            else:
                raise ValueError(
                    f"no query with ROUGE-1 F1 < {DISSIMILAR_MAX_F1} for triplet {i}"
                )
    return out


def _with_query(t: Triplet, query: str, variant: str) -> Triplet:
    meta = dict(t.meta)
    meta["query_variant"] = variant
    return Triplet(query, list(t.documents), t.summary, meta)


def alignment_histogram(triplets: list[Triplet]) -> dict[int, int]:
    """Histogram of how many original documents each summary spans.

    Each summary sentence is assigned to the original-chunk document with
    the highest ROUGE-L F1 (ties to the lowest document index); retrieved
    documents are excluded.  The span count of a triplet is the number of
    distinct assigned documents.
    """
    if not triplets:
        raise ValueError("no triplets to analyze")
    hist: dict[int, int] = {}
    for t in triplets:
        origins = t.meta.get("origins", [ORIGIN_CHUNK] * len(t.documents))
        doc_tokens = [
            tokenize(d)
            for d, o in zip(t.documents, origins)
            if o == ORIGIN_CHUNK
        ]
        if not doc_tokens:
            raise ValueError("triplet has no original-chunk documents")
        assigned = set()
        for sentence in split_sentences(t.summary):
            sent_tokens = tokenize(sentence)
            scores = [rouge_l(sent_tokens, d).f1 for d in doc_tokens]
            assigned.add(max(range(len(scores)), key=lambda i: (scores[i], -i)))
        spans = len(assigned)
        hist[spans] = hist.get(spans, 0) + 1
    return hist


def sentence_coverage(sentence_tokens: list[str], doc_tokens: list[str]) -> float:
    """ROUGE-1 recall of the sentence against the document: the matching
    score used by the coverage filter (the document is typically much longer
    than the sentence, so recall is the informative direction)."""
    return rouge_n(doc_tokens, sentence_tokens, 1).recall


REJECT_TOO_FEW_SENTENCES = "answer_under_2_sentences"
REJECT_TOO_FEW_DOCUMENTS = "under_3_documents"
REJECT_LOW_COVERAGE = "sentence_coverage_below_threshold"


def filter_qmdsir(
    records: list[IrRecord],
) -> tuple[list[Triplet], list[tuple[int, str]]]:
    """Filter search-log records into triplets.

    A record is kept iff (i) the answer passage has at least 2 sentences,
    (ii) at least 3 documents remain after dropping the answer-source
    document, and (iii) every answer sentence reaches ROUGE-1 coverage
    >= 0.8 against some remaining document.  Returns the kept triplets and
    ``(record_index, reason)`` pairs for rejections; each rejected record
    gets exactly one reason, the first criterion it fails.
    """
    kept: list[Triplet] = []
    rejected: list[tuple[int, str]] = []
    for i, rec in enumerate(records):
        sentences = split_sentences(rec.answer_passage)
        if len(sentences) < 2:
            rejected.append((i, REJECT_TOO_FEW_SENTENCES))
            continue
        remaining = [
            (rank, doc)
            for rank, doc in enumerate(rec.ranked_documents)
            if rank != rec.answer_source_index
        ]
        if len(remaining) < 3:
            rejected.append((i, REJECT_TOO_FEW_DOCUMENTS))
            continue
        doc_tokens = [tokenize(doc) for _, doc in remaining]
        covered = all(
            max(sentence_coverage(tokenize(s), d) for d in doc_tokens)
            >= COVERAGE_THRESHOLD
            for s in sentences
        )
        if not covered:
            rejected.append((i, REJECT_LOW_COVERAGE))
            continue
        kept.append(
            Triplet(
                query=rec.query,
                documents=[doc for _, doc in remaining],
                summary=rec.answer_passage,
                meta={
                    "source_id": i,
                    "origins": [ORIGIN_RETRIEVED] * len(remaining),
                    "ranks": [rank + 1 for rank, _ in remaining],
                },
            )
        )
    return kept, rejected


@dataclass(frozen=True)
class TripletStats:
    samples: int
    avg_documents: float
    avg_document_tokens: float
    avg_query_tokens: float


def triplet_stats(triplets: list[Triplet]) -> TripletStats:
    """Sample count plus mean documents per triplet, mean document token
    length, and mean query token length."""
    if not triplets:
        raise ValueError("no triplets")
    n_docs = sum(len(t.documents) for t in triplets)
    doc_tokens = sum(len(tokenize(d)) for t in triplets for d in t.documents)
    query_tokens = sum(len(tokenize(t.query)) for t in triplets)
    return TripletStats(
        samples=len(triplets),
        avg_documents=n_docs / len(triplets),
        avg_document_tokens=doc_tokens / n_docs,
        avg_query_tokens=query_tokens / len(triplets),
    )


# --- JSON-lines IO ---------------------------------------------------------


def load_articles(path) -> list[Article]:
    articles = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                articles.append(
                    Article(obj["id"], obj["title"], obj["paragraphs"], obj["summary"])
                )
    return articles


def save_articles(articles: list[Article], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(
                json.dumps(
                    {
                        "id": a.id,
                        "title": a.title,
                        "paragraphs": a.paragraphs,
                        "summary": a.summary,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def load_ir_records(path) -> list[IrRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                records.append(
                    IrRecord(
                        obj["query"],
                        obj["answer_passage"],
                        obj["documents"],
                        obj["answer_source_index"],
                    )
                )
    return records


def save_ir_records(records: list[IrRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(
                json.dumps(
                    {
                        "query": r.query,
                        "answer_passage": r.answer_passage,
                        "documents": r.ranked_documents,
                        "answer_source_index": r.answer_source_index,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def load_triplets(path) -> list[Triplet]:
    triplets = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                triplets.append(
                    Triplet(
                        obj["query"],
                        obj["documents"],
                        obj["summary"],
                        obj.get("meta", {}),
                    )
                )
    return triplets


def save_triplets(triplets: list[Triplet], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triplets:
            fh.write(
                json.dumps(
                    {
                        "query": t.query,
                        "documents": t.documents,
                        "summary": t.summary,
                        "meta": t.meta,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
