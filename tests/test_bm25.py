import math
from collections.abc import Mapping

import numpy as np
import pytest

from querysumm.bm25 import build_index, idf, score, top_k


def reference_top_k(index, chunk_ids, query, k, exclude_article=None):
    """The sort-every-chunk ranking that ``top_k`` replaced: score every
    eligible chunk, drop those scoring zero and sort by (-score, chunk_id)."""
    eligible = [
        cid
        for cid in sorted(chunk_ids)
        if exclude_article is None or index.chunk_meta[cid][0] != exclude_article
    ]
    positive = [cid for cid in eligible if score(index, query, cid) > 0.0]
    return sorted(positive, key=lambda cid: (-score(index, query, cid), cid))[:k]


def formula_score(chunks, query, chunk_id, k1=1.2, b=0.75):
    """The documented BM25 formula evaluated from the raw token lists."""
    n_docs = len(chunks)
    avg_len = sum(len(tokens) for _, tokens, _ in chunks) / n_docs
    tokens = next(t for cid, t, _ in chunks if cid == chunk_id)
    total = 0.0
    for term in query:
        tf = tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for _, t, _ in chunks if term in t)
        term_idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        total += term_idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(tokens) / avg_len))
    return total


def random_corpus(rng, n_chunks, vocab, first_id=0, id_gap=1, n_articles=7):
    """Chunks with ids ``first_id, first_id + id_gap, ...`` in shuffled input
    order; every fifth chunk copies the previous one, so scores tie."""
    chunks = []
    for i in range(n_chunks):
        cid = first_id + i * id_gap
        if i % 5 == 4:
            tokens = list(chunks[-1][1])
        else:
            tokens = [f"t{int(j)}" for j in rng.integers(0, vocab, size=rng.integers(1, 14))]
        chunks.append((cid, tokens, f"art{int(rng.integers(n_articles))}"))
    order = rng.permutation(n_chunks)
    return [chunks[i] for i in order]


class RecordingMapping(Mapping):
    """Read-only mapping that records every key it is asked for."""

    def __init__(self, data):
        self.data = data
        self.keys_read = set()
        self.iterated = False

    def __getitem__(self, key):
        self.keys_read.add(key)
        return self.data[key]

    def __iter__(self):
        self.iterated = True
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def two_doc_index():
    return build_index([(0, ["a", "a", "b"], "art0"), (1, ["b", "c"], "art1")])


class TestBuildIndex:
    def test_statistics(self):
        idx = two_doc_index()
        assert idx.n_docs == 2
        assert idx.avg_len == pytest.approx(2.5)
        assert [cid for cid, _ in idx.postings["b"]] == [0, 1]
        assert idx.postings["a"] == [(0, 2)]

    def test_single_chunk(self):
        idx = build_index([(7, ["x", "y", "z"], "a")])
        assert idx.avg_len == 3.0
        assert idx.n_docs == 1

    def test_duplicate_and_empty_errors(self):
        with pytest.raises(ValueError):
            build_index([(0, ["a"], "x"), (0, ["b"], "x")])
        with pytest.raises(ValueError):
            build_index([])

    def test_corpus_without_tokens_rejected(self):
        with pytest.raises(ValueError, match="2 chunks that hold no tokens"):
            build_index([(0, [], "a"), (1, [], "b")])
        # One token anywhere is enough; empty chunks then score zero.
        idx = build_index([(0, [], "a"), (1, ["x"], "b"), (2, [], "c")])
        assert top_k(idx, ["x"], 3) == [1]
        assert score(idx, ["x"], 0) == 0.0

    def test_postings_match_brute_force_counts(self):
        rng = np.random.default_rng(0)
        chunks = []
        for cid in range(200):
            tokens = [f"t{int(i)}" for i in rng.integers(0, 40, size=rng.integers(3, 20))]
            chunks.append((cid, tokens, f"art{cid % 17}"))
        idx = build_index(chunks)
        for cid, tokens, _ in chunks[::13]:
            for term in set(tokens):
                tf = dict(idx.postings[term])[cid]
                assert tf == tokens.count(term)


class TestScore:
    def test_absent_terms_contribute_zero(self):
        idx = two_doc_index()
        assert score(idx, ["zzz"], 0) == 0.0
        assert score(idx, ["c"], 0) == 0.0  # c only occurs in chunk 1

    def test_formula_against_direct_evaluation(self):
        # Corpus {d0=[a,a,b], d1=[b,c]}, query [a], k1=1.2, b=0.75:
        # idf(a) = ln(1 + 1.5/1.5); tf=2, len=3, avg=2.5.
        idx = two_doc_index()
        expected = math.log(1.0 + 1.5 / 1.5) * (2 * 2.2) / (
            2 + 1.2 * (0.25 + 0.75 * 3 / 2.5)
        )
        assert score(idx, ["a"], 0) == pytest.approx(expected, rel=1e-12)

    def test_repeated_query_term_doubles_score(self):
        idx = two_doc_index()
        assert score(idx, ["a", "a"], 0) == pytest.approx(2 * score(idx, ["a"], 0))

    def test_equals_documented_formula_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            chunks = random_corpus(rng, 40, vocab=20, first_id=7, id_gap=1 + trial)
            idx = build_index(chunks)
            for _ in range(20):
                query = [f"t{int(i)}" for i in rng.integers(0, 24, size=rng.integers(0, 6))]
                for cid, _, _ in chunks:
                    assert score(idx, query, cid) == formula_score(chunks, query, cid)

    def test_unknown_chunk(self):
        with pytest.raises(KeyError):
            score(two_doc_index(), ["a"], 99)

    def test_nonnegative_and_zero_iff_no_overlap(self):
        rng = np.random.default_rng(1)
        chunks = [
            (cid, [f"t{int(i)}" for i in rng.integers(0, 30, size=10)], cid)
            for cid in range(50)
        ]
        idx = build_index(chunks)
        for _ in range(30):
            query = [f"t{int(i)}" for i in rng.integers(0, 35, size=4)]
            cid = int(rng.integers(50))
            s = score(idx, query, cid)
            overlap = set(query) & set(chunks[cid][1])
            assert s >= 0.0
            assert (s == 0.0) == (not overlap)

    def test_monotone_in_term_frequency(self):
        # Same length, same df; tf 2 beats tf 1.
        idx = build_index(
            [(0, ["q", "q", "x"], "a"), (1, ["q", "x", "x"], "b"), (2, ["q", "y", "y"], "c")]
        )
        assert score(idx, ["q"], 0) > score(idx, ["q"], 1)

    def test_idf_nonnegative_even_for_common_terms(self):
        idx = build_index([(i, ["common"], i) for i in range(10)])
        assert idf(idx, "common") > 0.0


class TestTopK:
    def test_k_larger_than_corpus(self):
        idx = two_doc_index()
        assert top_k(idx, ["b"], 10) == [0, 1] or len(top_k(idx, ["b"], 10)) == 2

    def test_exclude_article(self):
        idx = two_doc_index()
        hits = top_k(idx, ["b"], 10, exclude_article="art0")
        assert hits == [1]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        chunks = [
            (cid, [f"t{int(i)}" for i in rng.integers(0, 25, size=rng.integers(2, 12))], f"a{cid % 7}")
            for cid in range(50)
        ]
        idx = build_index(chunks)
        for _ in range(20):
            query = [f"t{int(i)}" for i in rng.integers(0, 25, size=3)]
            got = top_k(idx, query, 4)
            ranked = sorted(
                (cid for cid, _, _ in chunks),
                key=lambda cid: (-score(idx, query, cid), cid),
            )
            assert got == ranked[:4]

    def test_prefix_property(self):
        rng = np.random.default_rng(3)
        chunks = [
            (cid, [f"t{int(i)}" for i in rng.integers(0, 12, size=8)], cid)
            for cid in range(30)
        ]
        idx = build_index(chunks)
        query = ["t1", "t5", "t9"]
        for k in range(1, 8):
            assert top_k(idx, query, k) == top_k(idx, query, k + 1)[:k]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k(two_doc_index(), ["a"], 0)

    @pytest.mark.parametrize("first_id,id_gap", [(0, 1), (7, 1), (7, 3)])
    def test_matches_sort_every_chunk_reference(self, first_id, id_gap):
        # Small vocabularies with duplicated chunks give many exact ties;
        # queries repeat terms, hold terms outside the vocabulary or are empty;
        # k runs past the eligible set; exclusion on and off.
        rng = np.random.default_rng(first_id * 10 + id_gap)
        for trial in range(6):
            n_chunks = int(rng.integers(1, 45))
            chunks = random_corpus(rng, n_chunks, vocab=12 + 4 * trial, first_id=first_id, id_gap=id_gap)
            idx = build_index(chunks)
            ids = [cid for cid, _, _ in chunks]
            articles = sorted({art for _, _, art in chunks}) + [None, "no-such-article"]
            for _ in range(25):
                query = [f"t{int(i)}" for i in rng.integers(0, 36, size=rng.integers(0, 7))]
                if query and rng.random() < 0.3:
                    query += query[: int(rng.integers(1, len(query) + 1))]
                exclude = articles[int(rng.integers(len(articles)))]
                for k in (1, 3, 10, n_chunks + 5):
                    got = top_k(idx, query, k, exclude_article=exclude)
                    assert got == reference_top_k(idx, ids, query, k, exclude), (query, k, exclude)

    def test_empty_and_unknown_queries_return_nothing(self):
        chunks = [(cid, ["x", "y"], f"a{cid % 2}") for cid in (9, 7, 11, 8)]
        idx = build_index(chunks)
        assert top_k(idx, [], 3) == []
        assert top_k(idx, ["nope", "never"], 10) == []
        assert top_k(idx, [], 10, exclude_article="a1") == []
        # Only positive scores come back, even when k asks for more.
        idx = build_index([(7, ["p"], "a"), (8, ["q"], "b"), (9, ["r", "p"], "c")])
        assert top_k(idx, ["p"], 3) == [7, 9]

    def test_reads_only_chunks_in_query_postings(self):
        # No chunk outside the query terms' postings may be looked at.
        rng = np.random.default_rng(8)
        chunks = random_corpus(rng, 300, vocab=60, first_id=7, id_gap=2)
        chunks.extend((1000 + i, ["shared", f"u{i}"], f"art{i % 3}") for i in range(6))
        idx = build_index(chunks)
        query = ["shared", "t3", "t3", "unknown"]
        expected = reference_top_k(idx, [c for c, _, _ in chunks], query, 4, "art1")
        in_postings = {cid for term in query for cid, _ in idx.postings.get(term, ())}
        idx.chunk_meta = RecordingMapping(idx.chunk_meta)
        idx.norm = RecordingMapping(idx.norm)
        assert top_k(idx, query, 4, exclude_article="art1") == expected
        for mapping in (idx.chunk_meta, idx.norm):
            assert not mapping.iterated
            assert mapping.keys_read <= in_postings
        assert len(in_postings) < len(chunks) // 2

