import json

import pytest

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
    load_triplets,
    make_query_variant,
    save_triplets,
    triplet_stats,
)
from querysumm.synthetic import make_articles, make_ir_records


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


class TestFilterQmdsir:
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
        assert rec.ranked_documents[2] not in kept[0].documents
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
    save_triplets(trips, path)
    again = load_triplets(path)
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
