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
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import bm25
from .checkpoint import atomic_write
# ``rouge_n`` is not called here; bench/test_bench.py asserts that the
# benchmark's tracer wraps this binding of it.
from .rouge import _f1, rouge_l, rouge_n
from .text import split_sentences, tokenize

ORIGIN_CHUNK = "original-chunk"
ORIGIN_RETRIEVED = "retrieved"
DULL_QUERY = "what is it ?"
DISSIMILAR_MAX_F1 = 0.2
COVERAGE_THRESHOLD = 0.8


def _require_list(value, what: str) -> None:
    # A JSON string would otherwise pass as a sequence of one-character items.
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {type(value).__name__}")


def _require_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {type(value).__name__}")


@dataclass
class Article:
    id: str | int
    title: str
    paragraphs: list[str]
    summary: str

    def __post_init__(self):
        # A list id is unhashable; a bool or float id would alias an int one.
        if isinstance(self.id, bool) or not isinstance(self.id, (str, int)):
            raise TypeError(
                f"article id must be a string or an integer, got {type(self.id).__name__}"
            )
        _require_str(self.title, f"article {self.id} title")
        _require_str(self.summary, f"article {self.id} summary")
        _require_list(self.paragraphs, f"article {self.id} paragraphs")
        if not self.paragraphs:
            raise ValueError(f"article {self.id} has no paragraphs")
        if not self.title.strip():
            raise ValueError(f"article {self.id} has a blank title")
        for i, paragraph in enumerate(self.paragraphs):
            _require_str(paragraph, f"article {self.id} paragraph {i}")
            if not paragraph.strip():
                raise ValueError(f"article {self.id} has a blank paragraph {i}")


@dataclass
class Triplet:
    query: str
    documents: list[str]
    summary: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_str(self.query, "triplet query")
        _require_str(self.summary, "triplet summary")
        _require_list(self.documents, "triplet documents")
        if not self.documents:
            raise ValueError("triplet needs at least one document")
        if any(not isinstance(d, str) or not d.strip() for d in self.documents):
            raise ValueError("triplet documents must be strings holding non-whitespace text")
        if not isinstance(self.meta, dict):
            raise TypeError(f"triplet meta must be an object, got {type(self.meta).__name__}")
        origins = self.meta.get("origins")
        if origins is not None:
            _require_list(origins, "triplet meta origins")
            if len(origins) != len(self.documents):
                raise ValueError("origin tags must cover all documents")


@dataclass
class IrRecord:
    query: str
    answer_passage: str
    documents: list[str]
    answer_source_index: int

    def __post_init__(self):
        _require_str(self.query, "IR record query")
        _require_str(self.answer_passage, "IR record answer_passage")
        _require_list(self.documents, "IR record documents")
        for i, document in enumerate(self.documents):
            _require_str(document, f"IR record document {i}")
        # bool is an int subclass; a float would never equal a rank.
        index = self.answer_source_index
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise TypeError(
                f"answer_source_index must be an integer, got {type(index).__name__}"
            )
        if not 0 <= index < len(self.documents):
            raise ValueError(f"answer_source_index {index} out of range")


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

    ``top_k`` returns only chunks that score above zero, so triplets may
    carry fewer than ``k_retrieved`` foreign documents on small corpora.
    """
    if len(corpus) < 2:
        raise ValueError("retrieval augmentation needs at least 2 articles")
    per_article = [chunk_article(a, seed) for a in corpus]
    flat = []
    for chunks in per_article:
        flat.extend(chunks)
    index = bm25.build_index([(tokenize(c.text), c.article_id) for c in flat])

    triplets = []
    for article, own in zip(corpus, per_article):
        query_tokens = tokenize(article.title)
        hits = bm25.top_k(index, query_tokens, k_retrieved, exclude_article=article.id)
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

    ``original`` returns the triplets unchanged.  ``dull`` uses the fixed
    string ``"what is it ?"``.  ``distractor`` swaps in the other triplet's
    query with the highest ROUGE-1 F1 against the current one (ties to the
    lowest index); when no other query shares a token, every F1 is 0 and
    the lowest other index wins.  ``dissimilar`` takes the first other
    query (by ascending index) whose ROUGE-1 F1 with the current one is
    below 0.2 and raises if no query qualifies.

    Each query's tokens are counted once, and no ``rouge_n`` call is made.
    The distractor search indexes the counts as postings
    ``token -> [(j, count)]``; per query, one pass over the postings of its
    distinct tokens sums the clipped overlap ``min(c_i, c_j)`` for every
    query ``j`` it shares a token with, and a query absent from that sum
    has F1 0.  The dissimilar search sums the same overlap pair by pair
    from the counts, stopping at the first query that qualifies.  Each F1
    is computed from the overlap with ``rouge``'s own arithmetic, so it is
    the double ``rouge_n(tokens_j, tokens_i, 1).f1`` would give.

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

    counts = [Counter(tokenize(t.query)) for t in triplets]
    lengths = [sum(c.values()) for c in counts]
    if variant == "distractor":
        picks = _distractor_picks(counts, lengths)
    else:
        picks = [_dissimilar_pick(counts, lengths, i) for i in range(len(triplets))]
    return [_with_query(t, triplets[j].query, variant) for t, j in zip(triplets, picks)]


def _distractor_picks(counts: list[Counter], lengths: list[int]) -> list[int]:
    """Per query, the index of the other query with the highest ROUGE-1 F1,
    from one pass over the postings of its distinct tokens."""
    postings: dict[str, list[tuple[int, int]]] = {}
    for j, c in enumerate(counts):
        for token, k in c.items():
            postings.setdefault(token, []).append((j, k))
    picks = []
    for i, c_i in enumerate(counts):
        overlap: dict[int, int] = {}
        for token, k in c_i.items():
            for j, k_j in postings[token]:
                overlap[j] = overlap.get(j, 0) + (k if k < k_j else k_j)
        overlap.pop(i, None)
        best_j, best_f1 = (1 if i == 0 else 0), 0.0
        for j in sorted(overlap):
            o = overlap[j]
            f1 = _f1(o / lengths[j], o / lengths[i])
            if f1 > best_f1:
                best_j, best_f1 = j, f1
        picks.append(best_j)
    return picks


def _dissimilar_pick(counts: list[Counter], lengths: list[int], i: int) -> int:
    """The first other query whose ROUGE-1 F1 with query ``i`` is below
    ``DISSIMILAR_MAX_F1``.  It is nearly always among the first few, so each
    pair's overlap is summed from the counts instead of from postings."""
    for j, c_j in enumerate(counts):
        if j == i:
            continue
        o = _clipped_overlap(counts[i], c_j)
        if o == 0 or _f1(o / lengths[j], o / lengths[i]) < DISSIMILAR_MAX_F1:
            return j
    raise ValueError(f"no query with ROUGE-1 F1 < {DISSIMILAR_MAX_F1} for triplet {i}")


def _clipped_overlap(counts: Counter, other: Counter) -> int:
    """ROUGE-1's clipped overlap: the sum over tokens of the smaller count."""
    overlap = 0
    for token, k in counts.items():
        k_other = other.get(token, 0)
        overlap += k if k < k_other else k_other
    return overlap


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


def _is_covered(sentence_tokens: list[str], doc_counts: list[Counter]) -> bool:
    """Whether the sentence's ROUGE-1 recall against some document's unigram
    counts reaches ``COVERAGE_THRESHOLD``: the matching rule of the coverage
    filter (a document is typically much longer than the sentence, so
    recall is the informative direction).  Stops at the first document that
    reaches it; an empty sentence is never covered."""
    if not sentence_tokens:
        return False
    sentence = Counter(sentence_tokens)
    n = len(sentence_tokens)
    return any(_clipped_overlap(sentence, doc) / n >= COVERAGE_THRESHOLD for doc in doc_counts)


REJECT_TOO_FEW_SENTENCES = "answer_under_2_sentences"
REJECT_TOO_FEW_DOCUMENTS = "under_3_documents"
REJECT_LOW_COVERAGE = "sentence_coverage_below_threshold"
# The order ``filter_qmdsir`` checks them in.
REJECT_REASONS = (REJECT_TOO_FEW_SENTENCES, REJECT_TOO_FEW_DOCUMENTS, REJECT_LOW_COVERAGE)


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
            for rank, doc in enumerate(rec.documents)
            if rank != rec.answer_source_index
        ]
        if len(remaining) < 3:
            rejected.append((i, REJECT_TOO_FEW_DOCUMENTS))
            continue
        doc_counts = [Counter(tokenize(doc)) for _, doc in remaining]
        if not all(_is_covered(tokenize(s), doc_counts) for s in sentences):
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


def load_records(path, cls) -> list:
    """The ``cls`` records (``Article``, ``IrRecord`` or ``Triplet``) on the
    non-blank lines of a JSONL file.  A record's keys are its dataclass
    fields: other keys are ignored and only a field with a default may be
    left out.  A line that is not a JSON object, lacks a field or holds a
    malformed one raises ``ValueError`` naming ``path:line``."""
    required = {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    }
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                kwargs = {
                    f.name: obj[f.name]
                    for f in fields(cls)
                    if f.name in obj or f.name in required
                }
                records.append(cls(**kwargs))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_jsonl(rows, path) -> None:
    """One ``json.dumps`` line per row, non-ASCII kept as UTF-8, written
    through ``atomic_write``: ``path`` changes only once every row is
    written and synced to disk, so a failure while ``rows`` is produced
    leaves ``path`` as it was and no temporary file behind."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write((json.dumps(row, ensure_ascii=False) + "\n").encode("utf-8"))


def save_records(records, path) -> None:
    """One line per record, its dataclass fields as keys in field order."""
    write_jsonl((asdict(r) for r in records), path)
