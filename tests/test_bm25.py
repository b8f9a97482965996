import math

import numpy as np
import pytest

from querysumm.bm25 import B_DEFAULT, K1_DEFAULT, _accumulate, build_index, score, top_k


def reference_top_k(chunks, index, query, k, exclude_article=None):
    """The sort-every-chunk ranking: score every eligible chunk, drop those
    scoring zero and sort by (-score, chunk id)."""
    eligible = [
        cid
        for cid, (_, article) in enumerate(chunks)
        if exclude_article is None or article != exclude_article
    ]
    positive = [cid for cid in eligible if score(index, query, cid) > 0.0]
    return sorted(positive, key=lambda cid: (-score(index, query, cid), cid))[:k]


def dict_oracle_top_k(chunks, query, k, exclude_article=None):
    """The dict-of-tuples BM25 that the array index replaced, kept here as a
    test oracle only: per-term ``[(chunk_id, tf)]`` postings, Python-float
    norms and one dict update per posting.  Returns ``(ids, scores)``, where
    ``scores`` maps each chunk that shares a query term to its accumulated
    score."""
    meta = {}
    ordinals = {}
    for chunk_id, _, article_id in chunks:
        ordinal = ordinals.get(article_id, 0)
        ordinals[article_id] = ordinal + 1
        meta[chunk_id] = (article_id, ordinal)
    doc_len = {}
    postings = {}
    for chunk_id, tokens, _ in sorted(chunks, key=lambda c: c[0]):
        doc_len[chunk_id] = len(tokens)
        freqs = {}
        for t in tokens:
            freqs[t] = freqs.get(t, 0) + 1
        for term, tf in freqs.items():
            postings.setdefault(term, []).append((chunk_id, tf))
    n_docs = len(doc_len)
    avg_len = sum(doc_len.values()) / n_docs
    k1, b = K1_DEFAULT, B_DEFAULT
    norms = {cid: k1 * (1.0 - b + b * n / avg_len) for cid, n in doc_len.items()}

    k1_plus_1 = K1_DEFAULT + 1.0
    scores = {}
    for term in query:
        plist = postings.get(term)
        if not plist:
            continue
        df = len(plist)
        w = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for chunk_id, tf in plist:
            if exclude_article is not None and meta[chunk_id][0] == exclude_article:
                continue
            s = scores.get(chunk_id, 0.0)
            scores[chunk_id] = s + w * tf * k1_plus_1 / (tf + norms[chunk_id])
    best = sorted(scores.values(), reverse=True)[:k]
    floor = best[-1] if best else 0.0
    ids = sorted(
        (cid for cid, s in scores.items() if s >= floor and s > 0.0),
        key=lambda cid: (-scores[cid], cid),
    )[:k]
    return ids, scores


def formula_score(chunks, query, chunk_id, k1=1.2, b=0.75):
    """The documented BM25 formula evaluated from the raw token lists."""
    n_docs = len(chunks)
    avg_len = sum(len(tokens) for tokens, _ in chunks) / n_docs
    tokens = chunks[chunk_id][0]
    total = 0.0
    for term in query:
        tf = tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for t, _ in chunks if term in t)
        term_idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        total += term_idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(tokens) / avg_len))
    return total


def random_corpus(rng, n_chunks, vocab, n_articles=7):
    """``(tokens, article)`` chunks; every fifth chunk copies the previous
    one's tokens, so scores tie."""
    chunks = []
    for i in range(n_chunks):
        if i % 5 == 4:
            tokens = list(chunks[-1][0])
        else:
            tokens = [f"t{int(j)}" for j in rng.integers(0, vocab, size=rng.integers(1, 14))]
        chunks.append((tokens, f"art{int(rng.integers(n_articles))}"))
    return chunks


def with_ids(chunks):
    """``(chunk_id, tokens, article)`` triples, the form the dict oracle
    takes, with each chunk's position as its id."""
    return [(cid, tokens, article) for cid, (tokens, article) in enumerate(chunks)]


def two_doc_index():
    return build_index([(["a", "a", "b"], "art0"), (["b", "c"], "art1")])


class TestBuildIndex:
    def test_statistics(self):
        idx = two_doc_index()
        # Lengths 3 and 2 around an average of 2.5.
        assert idx.norm.tolist() == pytest.approx(
            [K1_DEFAULT * (1.0 - B_DEFAULT + B_DEFAULT * n / 2.5) for n in (3, 2)]
        )
        assert idx.postings["b"].positions.tolist() == [0, 1]
        assert idx.postings["b"].tf.tolist() == [1, 1]
        assert idx.postings["a"].positions.tolist() == [0]
        assert idx.postings["a"].tf.tolist() == [2]
        assert idx.article_codes.tolist() == [0, 1]
        assert idx.articles == {"art0": 0, "art1": 1}

    def test_single_chunk(self):
        idx = build_index([(["x", "y", "z"], "a")])
        # The one chunk has the average length, so its normaliser is k1.
        assert idx.norm.tolist() == [K1_DEFAULT]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty chunk list"):
            build_index([])

    def test_corpus_without_tokens_rejected(self):
        with pytest.raises(ValueError, match="2 chunks that hold no tokens"):
            build_index([([], "a"), ([], "b")])
        # One token anywhere is enough; empty chunks then score zero.
        idx = build_index([([], "a"), (["x"], "b"), ([], "c")])
        assert top_k(idx, ["x"], 3) == [1]
        assert score(idx, ["x"], 0) == 0.0

    def test_postings_match_brute_force_counts(self):
        rng = np.random.default_rng(0)
        chunks = []
        for cid in range(200):
            tokens = [f"t{int(i)}" for i in rng.integers(0, 40, size=rng.integers(3, 20))]
            chunks.append((tokens, f"art{cid % 17}"))
        idx = build_index(chunks)
        vocabulary = {term for tokens, _ in chunks for term in tokens}
        assert set(idx.postings) == vocabulary
        for term, p in idx.postings.items():
            assert p.positions.dtype == p.tf.dtype == np.int64
            assert np.all(np.diff(p.positions) > 0)
            holders = [cid for cid, (tokens, _) in enumerate(chunks) if term in tokens]
            assert p.positions.tolist() == holders
            assert p.tf.tolist() == [chunks[cid][0].count(term) for cid in holders]
            df = len(holders)
            assert p.idf == math.log(1.0 + (len(chunks) - df + 0.5) / (df + 0.5))
        avg_len = sum(len(tokens) for tokens, _ in chunks) / len(chunks)
        expected_norm = [
            K1_DEFAULT * (1.0 - B_DEFAULT + B_DEFAULT * len(tokens) / avg_len)
            for tokens, _ in chunks
        ]
        assert idx.norm.dtype == np.float64
        assert idx.norm.tobytes() == np.array(expected_norm).tobytes()
        articles = list(idx.articles)
        assert [articles[code] for code in idx.article_codes] == [a for _, a in chunks]


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
            chunks = random_corpus(rng, 40, vocab=20)
            idx = build_index(chunks)
            for _ in range(20):
                query = [f"t{int(i)}" for i in rng.integers(0, 24, size=rng.integers(0, 6))]
                for cid in range(len(chunks)):
                    assert score(idx, query, cid) == formula_score(chunks, query, cid)

    def test_unknown_chunk(self):
        for chunk_id in (-1, 2, 99):
            with pytest.raises(KeyError, match=f"unknown chunk id {chunk_id}"):
                score(two_doc_index(), ["a"], chunk_id)

    def test_nonnegative_and_zero_iff_no_overlap(self):
        rng = np.random.default_rng(1)
        chunks = [([f"t{int(i)}" for i in rng.integers(0, 30, size=10)], cid) for cid in range(50)]
        idx = build_index(chunks)
        for _ in range(30):
            query = [f"t{int(i)}" for i in rng.integers(0, 35, size=4)]
            cid = int(rng.integers(50))
            s = score(idx, query, cid)
            overlap = set(query) & set(chunks[cid][0])
            assert s >= 0.0
            assert (s == 0.0) == (not overlap)

    def test_monotone_in_term_frequency(self):
        # Same length, same df; tf 2 beats tf 1.
        idx = build_index([(["q", "q", "x"], "a"), (["q", "x", "x"], "b"), (["q", "y", "y"], "c")])
        assert score(idx, ["q"], 0) > score(idx, ["q"], 1)

    def test_idf_nonnegative_even_for_common_terms(self):
        idx = build_index([(["common"], i) for i in range(10)])
        assert idx.postings["common"].idf > 0.0


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
            ([f"t{int(i)}" for i in rng.integers(0, 25, size=rng.integers(2, 12))], f"a{cid % 7}")
            for cid in range(50)
        ]
        idx = build_index(chunks)
        for _ in range(20):
            query = [f"t{int(i)}" for i in rng.integers(0, 25, size=3)]
            got = top_k(idx, query, 4)
            ranked = sorted(range(50), key=lambda cid: (-score(idx, query, cid), cid))
            assert got == ranked[:4]

    def test_prefix_property(self):
        rng = np.random.default_rng(3)
        chunks = [([f"t{int(i)}" for i in rng.integers(0, 12, size=8)], cid) for cid in range(30)]
        idx = build_index(chunks)
        query = ["t1", "t5", "t9"]
        for k in range(1, 8):
            assert top_k(idx, query, k) == top_k(idx, query, k + 1)[:k]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k(two_doc_index(), ["a"], 0)

    @pytest.mark.parametrize("seed,n_articles", [(0, 1), (7, 1), (7, 3)])
    def test_matches_sort_every_chunk_reference(self, seed, n_articles):
        # Small vocabularies with duplicated chunks give many exact ties;
        # queries repeat terms, hold terms outside the vocabulary or are empty;
        # k runs past the eligible set; exclusion on and off, where excluding
        # the one article of a one-article corpus leaves nothing.
        rng = np.random.default_rng([seed, n_articles])
        for trial in range(6):
            n_chunks = int(rng.integers(1, 45))
            chunks = random_corpus(rng, n_chunks, vocab=12 + 4 * trial, n_articles=n_articles)
            idx = build_index(chunks)
            articles = sorted({art for _, art in chunks}) + [None, "no-such-article"]
            for _ in range(25):
                query = [f"t{int(i)}" for i in rng.integers(0, 36, size=rng.integers(0, 7))]
                if query and rng.random() < 0.3:
                    query += query[: int(rng.integers(1, len(query) + 1))]
                exclude = articles[int(rng.integers(len(articles)))]
                for k in (1, 3, 10, n_chunks + 5):
                    got = top_k(idx, query, k, exclude_article=exclude)
                    assert got == reference_top_k(chunks, idx, query, k, exclude), (query, k, exclude)

    def test_empty_and_unknown_queries_return_nothing(self):
        idx = build_index([(["x", "y"], f"a{cid % 2}") for cid in range(4)])
        assert top_k(idx, [], 3) == []
        assert top_k(idx, ["nope", "never"], 10) == []
        assert top_k(idx, [], 10, exclude_article="a1") == []
        # Only positive scores come back, even when k asks for more.
        idx = build_index([(["p"], "a"), (["q"], "b"), (["r", "p"], "c")])
        assert top_k(idx, ["p"], 3) == [0, 2]


class TestAgainstDictOracle:
    """The array index against the dict-of-tuples BM25 it replaced."""

    @pytest.mark.parametrize("seed,n_articles", [(0, 1), (5, 2), (11, 7)])
    def test_ids_and_accumulated_score_bytes(self, seed, n_articles):
        # Every fifth chunk duplicated for ties; queries repeat terms and
        # hold unknown ones; exclusion of a known article, an unknown one
        # and none; k from 1 past the corpus.
        rng = np.random.default_rng([100, seed, n_articles])
        for trial in range(8):
            n_chunks = int(rng.integers(1, 60))
            vocab = 10 + 5 * trial
            chunks = random_corpus(rng, n_chunks, vocab, n_articles=n_articles)
            idx = build_index(chunks)
            known = sorted({article for _, article in chunks})
            for _ in range(15):
                query = [f"t{int(i)}" for i in rng.integers(0, vocab + 8, size=rng.integers(0, 7))]
                if query and rng.random() < 0.5:
                    query += query[: int(rng.integers(1, len(query) + 1))]
                acc = _accumulate(idx, query)
                assert acc.dtype == np.float64 and acc.shape == (n_chunks,)
                for cid in range(n_chunks):
                    assert float.hex(float(acc[cid])) == float.hex(score(idx, query, cid))
                for exclude in (None, known[int(rng.integers(len(known)))], "no-such-article"):
                    for k in (1, 2, 4, n_chunks, n_chunks + 3):
                        ids, oracle_scores = dict_oracle_top_k(with_ids(chunks), query, k, exclude)
                        got = top_k(idx, query, k, exclude_article=exclude)
                        assert got == ids, (query, k, exclude)
                    for cid, s in oracle_scores.items():
                        assert float.hex(float(acc[cid])) == float.hex(s)
                    for cid in got:
                        assert float.hex(score(idx, query, cid)) == float.hex(oracle_scores[cid])
