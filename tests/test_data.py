import json
from collections import Counter

import numpy as np
import pytest

from querysumm import data
from querysumm.data import (
    Article,
    IrRecord,
    REJECT_LOW_COVERAGE,
    REJECT_TOO_FEW_DOCUMENTS,
    REJECT_TOO_FEW_SENTENCES,
    Triplet,
    alignment_histogram,
    build_qmdscnn,
    chunk_article,
    filter_qmdsir,
    load_records,
    make_query_variant,
    save_records,
    triplet_stats,
)
from querysumm.rouge import rouge_n
from querysumm.synthetic import make_articles, make_ir_records
from querysumm.text import tokenize


def article(n_paragraphs, ident="a0"):
    return Article(
        id=ident,
        title=f"title for {ident}",
        paragraphs=[f"paragraph {i} of {ident} ." for i in range(n_paragraphs)],
        summary=f"summary of {ident} .",
    )


class TestChunkArticle:
    def test_single_paragraph(self):
        chunks = chunk_article(article(1), seed=0)
        assert len(chunks) == 1
        assert chunks[0].paragraphs == (article(1).paragraphs[0],)

    def test_partition_properties_over_seeds(self):
        art = article(20)
        for seed in range(1000):
            chunks = chunk_article(art, seed=seed)
            sizes = [len(c.paragraphs) for c in chunks]
            assert all(1 <= s <= 4 for s in sizes)
            flat = [p for c in chunks for p in c.paragraphs]
            assert flat == art.paragraphs  # order-preserving partition
            assert [c.ordinal for c in chunks] == list(range(len(chunks)))

    def test_deterministic_per_seed(self):
        art = article(15)
        a = [c.paragraphs for c in chunk_article(art, seed=42)]
        b = [c.paragraphs for c in chunk_article(art, seed=42)]
        assert a == b

    def test_empty_article_rejected(self):
        with pytest.raises(ValueError):
            Article("x", "t", [], "s")

    @pytest.mark.parametrize("title", ["", "   ", "\n\t"])
    def test_blank_title_rejected_with_article_id(self, title):
        with pytest.raises(ValueError, match="article art-7 has a blank title"):
            Article("art-7", title, ["a paragraph ."], "s .")

    @pytest.mark.parametrize("blank", ["", " ", " \n\t "])
    def test_blank_paragraph_rejected_with_article_id(self, blank):
        with pytest.raises(ValueError, match="article art-7 has a blank paragraph 1"):
            Article("art-7", "a title", ["first .", blank, "third ."], "s .")

    @pytest.mark.parametrize("ident", [[1], True, 1.0, None], ids=["list", "bool", "float", "null"])
    def test_id_must_be_a_string_or_an_integer(self, ident):
        with pytest.raises(TypeError, match="article id must be a string or an integer, got "):
            Article(ident, "a title", ["a paragraph ."], "s .")


class TestBuildQmdscnn:
    def test_needs_two_articles(self):
        with pytest.raises(ValueError):
            build_qmdscnn([article(3)], seed=0)

    def test_triplet_layout(self):
        corpus = make_articles(6, seed=0, min_paragraphs=3, max_paragraphs=5)
        triplets = build_qmdscnn(corpus, seed=0, k_retrieved=4)
        assert len(triplets) == len(corpus)
        for art, t in zip(corpus, triplets):
            assert t.query == art.title
            origins = t.meta["origins"]
            own = origins.count("original-chunk")
            retrieved = origins.count("retrieved")
            assert own + retrieved == len(t.documents)
            assert retrieved <= 4
            # own chunks come first and reproduce the paragraphs in order
            own_text = " ".join(t.documents[:own])
            assert own_text == " ".join(art.paragraphs)
            # no retrieved document comes from the triplet's own article
            assert all(src != art.id for src in t.meta["retrieved_from"])
            ranks = t.meta["ranks"]
            assert ranks[:own] == [None] * own
            assert ranks[own:] == list(range(1, retrieved + 1))

    def test_mini_corpus_retrieval_counts(self):
        # Three articles of two paragraphs; every paragraph and every title
        # shares the token "shared", so all foreign chunks score > 0.  With
        # a seed under which each article splits into two 1-paragraph
        # chunks, each triplet is 2 own + min(4, 4 foreign) = 6 documents.
        corpus = [
            Article("a", "shared alpha", ["shared one .", "shared two ."], "s ."),
            Article("b", "shared beta", ["shared three .", "shared four ."], "s ."),
            Article("c", "shared gamma", ["shared five .", "shared six ."], "s ."),
        ]
        seed = next(
            s
            for s in range(200)
            if all(len(chunk_article(a, s)) == 2 for a in corpus)
        )
        triplets = build_qmdscnn(corpus, seed=seed, k_retrieved=4)
        for t in triplets:
            assert t.meta["origins"].count("original-chunk") == 2
            assert t.meta["origins"].count("retrieved") == 4
            assert len(t.documents) == 6

    def test_zero_score_title_retrieves_nothing(self):
        corpus = [
            Article("a", "xylophone quartz", ["common words here .", "more common words ."], "s ."),
            Article("b", "common words", ["common words again .", "common words more ."], "s ."),
        ]
        triplets = build_qmdscnn(corpus, seed=0, k_retrieved=4)
        a = triplets[0]
        # Title shares no token with the other article's chunks.
        assert a.meta["origins"].count("retrieved") == 0
        assert a.meta["origins"] == ["original-chunk"] * len(a.documents)

    def test_deterministic(self):
        corpus = make_articles(5, seed=2)
        t1 = build_qmdscnn(corpus, seed=9)
        t2 = build_qmdscnn(corpus, seed=9)
        assert [t.documents for t in t1] == [t.documents for t in t2]


class TestQueryVariants:
    def make(self, titles):
        return [
            Triplet(q, ["doc one ."], "summary .", {"source_id": i})
            for i, q in enumerate(titles)
        ]

    def test_original_is_identity(self):
        trips = self.make(["alpha beta", "gamma delta"])
        out = make_query_variant(trips, "original")
        assert [(t.query, t.documents, t.summary) for t in out] == [
            (t.query, t.documents, t.summary) for t in trips
        ]

    def test_dull_constant(self):
        out = make_query_variant(self.make(["a b", "c d"]), "dull")
        assert all(t.query == "what is it ?" for t in out)

    def test_disjoint_titles_are_mutual_distractor_and_dissimilar(self):
        # ROUGE-1 F1 between "alpha beta" and "gamma delta" is 0 < 0.2, and
        # each is the only other candidate, hence also the distractor.
        trips = self.make(["alpha beta", "gamma delta"])
        distract = make_query_variant(trips, "distractor")
        assert distract[0].query == "gamma delta"
        assert distract[1].query == "alpha beta"
        dissim = make_query_variant(trips, "dissimilar")
        assert dissim[0].query == "gamma delta"
        assert dissim[1].query == "alpha beta"

    def test_distractor_picks_highest_f1(self):
        trips = self.make(["storm coast flood", "storm coast rain", "market shares"])
        out = make_query_variant(trips, "distractor")
        assert out[0].query == "storm coast rain"

    def test_dissimilar_error_when_all_titles_close(self):
        trips = self.make(["storm coast", "storm coast flood"])
        with pytest.raises(ValueError):
            make_query_variant(trips, "dissimilar")

    def test_needs_two_triplets(self):
        with pytest.raises(ValueError):
            make_query_variant(self.make(["only one"]), "distractor")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_query_variant(self.make(["a", "b"]), "nonsense")


    @staticmethod
    def scan(queries, variant):
        """Oracle: score every ordered pair, as the selection rules read.
        Returns the picked index per query, None where none qualifies."""
        tokens = [tokenize(q) for q in queries]
        picks = []
        for i in range(len(tokens)):
            if variant == "distractor":
                best_j, best_f1 = -1, -1.0
                for j, other in enumerate(tokens):
                    if j == i:
                        continue
                    f1 = rouge_n(other, tokens[i], 1).f1
                    if f1 > best_f1:
                        best_j, best_f1 = j, f1
                picks.append(best_j)
            else:
                for j, other in enumerate(tokens):
                    if j != i and rouge_n(other, tokens[i], 1).f1 < data.DISSIMILAR_MAX_F1:
                        picks.append(j)
                        break
                else:
                    picks.append(None)
        return picks

    GROUPS = [
        # F1 ties: rows 1 and 2 both score 0.5 against row 0.
        ["storm coast", "storm rain", "storm wind", "market shares"],
        # Row 0 shares no token with any other: the fallback is row 1.
        ["market shares", "storm coast", "storm rain"],
        # Empty-token queries, first and later.
        ["", "storm coast", "storm", "", "coast flood"],
        ["?", ""],
    ]

    @pytest.mark.parametrize("variant", ["distractor", "dissimilar"])
    def test_variants_equal_the_all_pairs_scan(self, variant):
        rng = np.random.default_rng(23)
        words = [f"w{k}" for k in range(10)]
        groups = list(self.GROUPS)
        for _ in range(60):
            n = int(rng.integers(2, 25))
            groups.append(
                [" ".join(rng.choice(words, int(rng.integers(0, 5)))) for _ in range(n)]
            )
        for queries in groups:
            expected = self.scan(queries, variant)
            if None in expected:
                with pytest.raises(ValueError):
                    make_query_variant(self.make(queries), variant)
                continue
            out = make_query_variant(self.make(queries), variant)
            assert [t.query for t in out] == [queries[j] for j in expected], queries

    @pytest.mark.parametrize("variant", ["distractor", "dissimilar"])
    def test_variants_equal_the_scan_on_large_sets(self, variant):
        # A few hundred queries with repeated tokens, many F1 ties and empty
        # queries.  Over 30 Zipf-weighted words most pairs share a common
        # word; over 6 words the dissimilar search must look far for a
        # query under the cap.
        rng = np.random.default_rng(31)
        zipf = 1.0 / np.arange(1, 31)
        words = [f"w{k}" for k in range(30)]
        # (n queries, word pool, word weights, fewest words, most words)
        sets = [
            (300, words, zipf / zipf.sum(), 0, 6),
            (200, words, None, 0, 6),
            (200, ["a", "b", "c", "d", "e", "f"], None, 2, 4),
        ]
        depths = []
        for n, pool, weights, fewest, most in sets:
            queries = [
                " ".join(rng.choice(pool, int(rng.integers(fewest, most + 1)), p=weights))
                for _ in range(n)
            ]
            expected = self.scan(queries, variant)
            out = make_query_variant(self.make(queries), variant)
            assert [t.query for t in out] == [queries[j] for j in expected]
            depths += expected
        assert max(depths) > 20


class TestAlignmentHistogram:
    def triplet(self, docs, summary, origins=None):
        return Triplet(
            "q",
            docs,
            summary,
            {"origins": origins or ["original-chunk"] * len(docs)},
        )

    def test_single_document_span(self):
        t = self.triplet(
            ["the storm hit the coast hard .", "markets fell sharply today ."],
            "the storm hit the coast hard .",
        )
        assert alignment_histogram([t]) == {1: 1}

    def test_three_sentence_three_document_span(self):
        docs = [
            "alpha event happened in the north .",
            "beta event followed in the south .",
            "gamma event ended in the west .",
        ]
        summary = " ".join(docs)
        assert alignment_histogram([self.triplet(docs, summary)]) == {3: 1}

    def test_tie_goes_to_lowest_index(self):
        docs = ["tied words here .", "other thing .", "tied words here ."]
        t = self.triplet(docs, "tied words here .")
        assert alignment_histogram([t]) == {1: 1}

    def test_retrieved_documents_excluded(self):
        docs = ["original text about storms .", "retrieved text about storms ."]
        t = self.triplet(
            docs,
            "retrieved text about storms .",
            origins=["original-chunk", "retrieved"],
        )
        # retrieved doc can't be the alignment target even though it matches
        assert alignment_histogram([t]) == {1: 1}

    def test_errors(self):
        with pytest.raises(ValueError):
            alignment_histogram([])
        bad = self.triplet(["doc ."], "s .", origins=["retrieved"])
        with pytest.raises(ValueError):
            alignment_histogram([bad])


def record(sentences=2, docs=4, covered=True, source=0):
    words = ["storm", "coast", "flood", "wind", "rain", "peak", "dune", "tide"]
    sents = [
        " ".join(words[i : i + 4]) + " ." for i in range(sentences)
    ]
    doc_texts = [f"filler text number {i} ." for i in range(docs)]
    if covered:
        for k, s in enumerate(sents):
            doc_texts[(source + 1 + k) % docs] += " " + s
    return IrRecord(" ".join(words[:3]), " ".join(sents), doc_texts, source)


def sentence_coverage(sentence_tokens, doc_tokens):
    """Oracle: ROUGE-1 recall of the sentence against one document."""
    return rouge_n(doc_tokens, sentence_tokens, 1).recall


class TestFilterQmdsir:
    def test_coverage_verdict_equals_rouge_n_recall_at_the_threshold(self):
        rng = np.random.default_rng(29)
        words = [f"w{k}" for k in range(8)]

        def seq(max_len):
            return list(rng.choice(words, int(rng.integers(0, max_len + 1))))

        verdicts = Counter()
        for _ in range(600):
            sentence = seq(8)
            docs = [seq(12) for _ in range(int(rng.integers(1, 5)))]
            counts = [Counter(d) for d in docs]
            best = max(sentence_coverage(sentence, d) for d in docs)
            expected = best >= data.COVERAGE_THRESHOLD
            assert data._is_covered(sentence, counts) == expected
            verdicts[expected, best == data.COVERAGE_THRESHOLD] += 1
        # Both verdicts occur, and some sentences sit exactly at the threshold.
        assert verdicts[False, False] and verdicts[True, False] and verdicts[True, True]


    def test_good_record_kept(self):
        kept, rejected = filter_qmdsir([record()])
        assert len(kept) == 1 and not rejected
        t = kept[0]
        assert len(t.documents) == 3  # source document removed
        assert t.meta["origins"] == ["retrieved"] * 3
        assert t.meta["ranks"] == [2, 3, 4]  # 1-based ranks minus the source

    def test_source_document_omitted(self):
        rec = record(source=2)
        kept, _ = filter_qmdsir([rec])
        assert rec.documents[2] not in kept[0].documents
        assert kept[0].meta["ranks"] == [1, 2, 4]

    def test_single_sentence_rejected(self):
        kept, rejected = filter_qmdsir([record(sentences=1)])
        assert not kept
        assert rejected == [(0, REJECT_TOO_FEW_SENTENCES)]

    def test_too_few_documents_rejected(self):
        kept, rejected = filter_qmdsir([record(docs=3)])
        assert not kept
        assert rejected == [(0, REJECT_TOO_FEW_DOCUMENTS)]

    def test_uncovered_rejected(self):
        kept, rejected = filter_qmdsir([record(covered=False)])
        assert rejected == [(0, REJECT_LOW_COVERAGE)]

    def test_coverage_boundary(self):
        # Sentence of 100 distinct tokens; a document holding exactly 79 of
        # them scores 0.79 (rejected), 80 scores 0.80 (kept: >= threshold).
        tokens = [f"tok{i}" for i in range(100)]
        sent = " ".join(tokens) + " ."
        other = "second sentence is fully covered here ."
        answer = sent + " " + other
        base_docs = ["pad one .", "pad two .", "pad three .", other]

        doc79 = " ".join(tokens[:79]) + " ."
        kept, rejected = filter_qmdsir(
            [IrRecord("q", answer, base_docs + [doc79], 0)]
        )
        assert rejected == [(0, REJECT_LOW_COVERAGE)]

        doc80 = " ".join(tokens[:80]) + " ."
        kept, rejected = filter_qmdsir(
            [IrRecord("q", answer, base_docs + [doc80], 0)]
        )
        assert len(kept) == 1 and not rejected

    def test_kept_triplets_repass_criteria(self):
        records = make_ir_records(40, seed=4, defect_rate=0.4)
        kept, rejected = filter_qmdsir(records)
        assert kept, "generator should produce some passing records"
        # re-filter the emitted triplets as pseudo-records with no source doc
        for t in kept:
            rec = IrRecord(t.query, t.summary, ["unused ."] + t.documents, 0)
            re_kept, re_rejected = filter_qmdsir([rec])
            assert re_kept and not re_rejected

    def test_rejection_reasons_partition(self):
        records = make_ir_records(60, seed=5, defect_rate=0.5)
        kept, rejected = filter_qmdsir(records)
        assert len(kept) + len(rejected) == len(records)
        assert len({idx for idx, _ in rejected}) == len(rejected)


class TestTripletStats:
    def test_hand_counted(self):
        t = Triplet("a query", ["one two three", "w x y z p"], "s", {})
        stats = triplet_stats([t])
        assert stats.samples == 1
        assert stats.avg_documents == 2
        assert stats.avg_document_tokens == pytest.approx(4.0)
        assert stats.avg_query_tokens == pytest.approx(2.0)

    def test_pooled_equals_weighted_mean(self):
        a = make_articles(8, seed=6)
        trips = build_qmdscnn(a, seed=6)
        s_all = triplet_stats(trips)
        s1, s2 = triplet_stats(trips[:3]), triplet_stats(trips[3:])
        n1, n2 = s1.samples, s2.samples
        assert s_all.avg_documents == pytest.approx(
            (s1.avg_documents * n1 + s2.avg_documents * n2) / (n1 + n2)
        )
        d1 = s1.avg_documents * n1
        d2 = s2.avg_documents * n2
        assert s_all.avg_document_tokens == pytest.approx(
            (s1.avg_document_tokens * d1 + s2.avg_document_tokens * d2) / (d1 + d2)
        )

    def test_empty(self):
        with pytest.raises(ValueError):
            triplet_stats([])


def test_triplet_jsonl_roundtrip(tmp_path):
    trips = build_qmdscnn(make_articles(4, seed=7), seed=7)
    path = tmp_path / "trips.jsonl"
    save_records(trips, path)
    again = load_records(path, Triplet)
    assert [t.query for t in again] == [t.query for t in trips]
    assert [t.documents for t in again] == [t.documents for t in trips]
    assert [t.meta for t in again] == [json.loads(json.dumps(t.meta)) for t in trips]


def test_whitespace_only_document_rejected():
    with pytest.raises(ValueError, match="non-whitespace"):
        Triplet("q", ["ok", " \n\t "], "s")


def test_triplet_invariants():
    with pytest.raises(ValueError):
        Triplet("q", [], "s")
    with pytest.raises(ValueError):
        Triplet("q", ["ok", ""], "s")
    with pytest.raises(ValueError):
        Triplet("q", ["a"], "s", {"origins": ["x", "y"]})
    with pytest.raises(ValueError):
        IrRecord("q", "a", ["d"], 1)


@pytest.mark.parametrize("meta", [5, ["origins"], "meta"], ids=["int", "list", "string"])
def test_triplet_meta_must_be_an_object(meta):
    with pytest.raises(TypeError, match="triplet meta must be an object"):
        Triplet("q", ["a"], "s", meta)


def test_triplet_origins_must_be_a_list():
    # A two-character string would otherwise pass as two origin tags.
    with pytest.raises(TypeError, match="triplet meta origins must be a list, got str"):
        Triplet("q", ["a", "b"], "s", {"origins": "ab"})


def test_jsonl_golden_lines_and_blank_line_tolerant_reads(tmp_path):
    art = Article("é1", "Grüße", ["Ünïcode pará", "zwei"], "résumé — fin")
    rec = IrRecord("naïve query", "the answer ✓", ["doc ä", "doc ø"], 1)
    trip = Triplet("qüery", ["dóc"], "sümmary", {"ranks": [None], "from": "日本"})
    golden = {
        "articles.jsonl": (
            art,
            '{"id": "é1", "title": "Grüße", "paragraphs": ["Ünïcode pará", "zwei"], '
            '"summary": "résumé — fin"}\n',
        ),
        "records.jsonl": (
            rec,
            '{"query": "naïve query", "answer_passage": "the answer ✓", '
            '"documents": ["doc ä", "doc ø"], "answer_source_index": 1}\n',
        ),
        "triplets.jsonl": (
            trip,
            '{"query": "qüery", "documents": ["dóc"], "summary": "sümmary", '
            '"meta": {"ranks": [null], "from": "日本"}}\n',
        ),
    }
    for name, (item, line) in golden.items():
        path = tmp_path / name
        save_records([item, item], path)
        assert path.read_bytes() == (line * 2).encode("utf-8")
        path.write_text("\n" + line + "  \n\n" + line, encoding="utf-8")
        assert load_records(path, type(item)) == [item, item]
    # A triplet line without ``meta`` reads back with an empty one.
    path = tmp_path / "bare.jsonl"
    path.write_text('{"query": "q", "documents": ["d"], "summary": "s"}\n', encoding="utf-8")
    assert load_records(path, Triplet) == [Triplet("q", ["d"], "s")]


@pytest.mark.parametrize(
    "cls, obj",
    [
        (Article, {"id": 1, "title": "t", "paragraphs": "pq", "summary": "s"}),
        (IrRecord, {"query": "q", "answer_passage": "a", "documents": "xyz",
                    "answer_source_index": 0}),
        (Triplet, {"query": "q", "documents": "abc", "summary": "s"}),
    ],
    ids=["article-paragraphs", "record-documents", "triplet-documents"],
)
def test_a_string_where_a_list_belongs_is_refused(tmp_path, cls, obj):
    """A string would otherwise load as one item per character."""
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: .* must be a list, got str"):
        load_records(path, cls)


@pytest.mark.parametrize("index", [1.5, True, "1"])
def test_answer_source_index_must_be_an_integer(tmp_path, index):
    """A float index would match no rank, so the answer-source document
    would be kept; ``True`` would pass as 1."""
    obj = {"query": "q", "answer_passage": "a", "documents": ["d0", "d1", "d2"],
           "answer_source_index": index}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: answer_source_index must be an integer"):
        load_records(path, IrRecord)
    assert IrRecord("q", "a", ["d0", "d1"], np.int64(1)).answer_source_index == 1


@pytest.mark.parametrize(
    "cls, obj, named",
    [
        (Triplet, {"query": 5, "documents": ["d"], "summary": "s"}, "triplet query"),
        (Triplet, {"query": "q", "documents": ["d"], "summary": None}, "triplet summary"),
        (IrRecord, {"query": ["q"], "answer_passage": "a", "documents": ["d"],
                    "answer_source_index": 0}, "IR record query"),
        (IrRecord, {"query": "q", "answer_passage": 1, "documents": ["d"],
                    "answer_source_index": 0}, "IR record answer_passage"),
        (IrRecord, {"query": "q", "answer_passage": "a", "documents": ["d", {"t": 1}],
                    "answer_source_index": 0}, "IR record document 1"),
    ],
    ids=["triplet-query", "triplet-summary", "record-query", "record-answer", "record-document"],
)
def test_text_fields_must_be_strings(tmp_path, cls, obj, named):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.jsonl:1: {named} must be a string"):
        load_records(path, cls)
