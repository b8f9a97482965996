"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here; the suite is deterministic.
"""

import json
import math
import os
import time
from collections import Counter

import numpy as np

from querysumm import autodiff as ad
from querysumm import cli
from querysumm.autodiff import backward
from querysumm.bm25 import B_DEFAULT, K1_DEFAULT, build_index, score, top_k
from querysumm.data import (
    Triplet,
    build_qmdscnn,
    chunk_article,
    filter_qmdsir,
    load_records,
    make_query_variant,
    save_records,
)
from querysumm.decoding import DecodeConfig, beam_search, greedy_decode, length_penalty
from querysumm.model import (
    ModelConfig,
    ModelInput,
    SummModel,
    ordering_encoding,
    prepare_input,
)
from querysumm.optim import AdamNoam
from querysumm.rouge import rouge_l, rouge_n, rouge_su4
from querysumm.synthetic import make_articles, make_ir_records
from querysumm.text import build_vocab, split_sentences, tokenize
from querysumm.verification import TOLERANCE, run_gradient_suite

from conftest import corpus_tokens


def report(n, ok, detail=""):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_gradient_suite():
    t0 = time.time()
    results = run_gradient_suite()
    elapsed = time.time() - t0
    worst = max(results.values())
    ok = worst < TOLERANCE and elapsed < 120.0
    detail = (
        f"12 checks, max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 120s): "
        + ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    )
    report(1, ok, detail)


def test_criterion_02_overfit():
    t0 = time.time()
    articles = make_articles(8, seed=3, min_paragraphs=2, max_paragraphs=3)
    triplets = build_qmdscnn(articles, seed=3, k_retrieved=1)
    vocab = build_vocab(corpus_tokens(triplets), 300)
    assert len(vocab) <= 200, "overfit vocabulary must stay small"
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=64, ffn_hidden=256, heads=4,
        local_layers=2, global_layers=1, dropout=0.0,
        use_query_encoder=True, use_hierarchical_merge=True, use_ordering=True,
        max_doc_tokens=30, max_docs=3, max_summary_tokens=20,
    )
    model = SummModel(cfg, seed=0)
    inputs = [prepare_input(t, vocab, cfg) for t in triplets]
    opt = AdamNoam(model.params, d_model=cfg.d_model, base_lr=2.0, warmup=200)
    final_loss, steps_used = float("inf"), 0
    for step in range(2000):
        opt.zero_grad()
        total, count = 0.0, 0
        for inp in inputs:
            loss_sum, c = model.loss_sum(inp)
            backward(loss_sum)
            total += loss_sum.item()
            count += c
        for p in model.params.values():
            if p.grad is not None:
                p.grad /= count
        opt.step()
        final_loss, steps_used = total / count, step + 1
        if final_loss < 0.1:
            break
    elapsed = time.time() - t0
    ok = final_loss < 0.1 and steps_used <= 2000 and elapsed < 2400.0
    report(2, ok, f"loss {final_loss:.4f} (< 0.1) at step {steps_used} (<= 2000), {elapsed:.0f}s (< 2400s)")


def test_criterion_03_permutation_equivariance():
    cfg = ModelConfig(
        vocab_size=80, d_model=16, ffn_hidden=32, heads=2,
        local_layers=1, global_layers=1, dropout=0.0,
        use_ordering=True, use_hierarchical_merge=True,
        max_doc_tokens=12, max_docs=6, max_summary_tokens=8,
    )
    model = SummModel(cfg, seed=2, dtype=np.float64)
    rng = np.random.default_rng(0)
    inp = ModelInput(
        doc_ids=rng.integers(5, 80, size=(4, 6)).astype(np.int64),
        query_ids=np.array([7], dtype=np.int64),
        target_ids=rng.integers(5, 80, size=5).astype(np.int64),
    )
    base_loss = model.loss(inp).item()
    base_r = model.encode(inp).ordering.values
    worst_loss_dev, worst_r_dev = 0.0, 0.0
    for _ in range(100):
        perm = rng.permutation(4)
        pinp = ModelInput(
            doc_ids=inp.doc_ids[perm], query_ids=inp.query_ids, target_ids=inp.target_ids,
        )
        loss = model.loss(pinp).item()
        r = model.encode(pinp).ordering.values
        worst_loss_dev = max(worst_loss_dev, abs(loss - base_loss) / abs(base_loss))
        worst_r_dev = max(worst_r_dev, float(np.abs(r - base_r[perm]).max()))
    ok = worst_loss_dev < 1e-5 and worst_r_dev < 1e-8
    report(3, ok, f"100 permutations: max loss rel dev {worst_loss_dev:.2e} (< 1e-5), max r dev {worst_r_dev:.2e}")


def _oracle_lcs(a, b):
    """Independent LCS dynamic program (full table, recursive definition)."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _oracle_ngram_overlap(a, b, n):
    ca = Counter(tuple(a[i : i + n]) for i in range(len(a) - n + 1))
    cb = Counter(tuple(b[i : i + n]) for i in range(len(b) - n + 1))
    return sum(min(ca[g], cb[g]) for g in ca), sum(ca.values()), sum(cb.values())


def _oracle_su4(a, b):
    def units(seq):
        c = Counter(seq)
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if j - i <= 4:
                    c[(seq[i], seq[j])] += 1
        return c

    ua, ub = units(a), units(b)
    return sum(min(ua[u], ub[u]) for u in ua), sum(ua.values()), sum(ub.values())


def test_criterion_04_rouge_oracles():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(1000):
        a = [f"w{int(i)}" for i in rng.integers(0, 8, size=rng.integers(0, 31))]
        b = [f"w{int(i)}" for i in rng.integers(0, 8, size=rng.integers(0, 31))]
        lcs = _oracle_lcs(a, b)
        got = rouge_l(a, b)
        want_p = lcs / len(a) if a and b else 0.0
        want_r = lcs / len(b) if a and b else 0.0
        assert got.precision == want_p and got.recall == want_r
        for n in (1, 2):
            overlap, na, nb = _oracle_ngram_overlap(a, b, n)
            s = rouge_n(a, b, n)
            if na == 0 or nb == 0:
                assert s.precision == 0.0 and s.recall == 0.0
            else:
                assert s.precision == overlap / na and s.recall == overlap / nb
        overlap, na, nb = _oracle_su4(a, b)
        s = rouge_su4(a, b)
        if na == 0 or nb == 0:
            assert s.precision == 0.0 and s.recall == 0.0
        else:
            assert s.precision == overlap / na and s.recall == overlap / nb
        checked += 1
    report(4, checked == 1000, f"{checked} random pairs exact vs LCS/ngram/skip-bigram oracles")


def test_criterion_05_bm25_oracle():
    rng = np.random.default_rng(5)
    chunks = []
    for cid in range(200):
        if cid % 11 == 10:  # duplicated content forces score ties
            tokens = list(chunks[cid - 1][1])
        else:
            tokens = [f"t{int(i)}" for i in rng.integers(0, 35, size=rng.integers(3, 18))]
        chunks.append((cid, tokens, f"art{cid % 13}"))
    index = build_index([(tokens, article) for _, tokens, article in chunks])
    k1, b = K1_DEFAULT, B_DEFAULT
    n_docs = len(chunks)
    avg_len = sum(len(t) for _, t, _ in chunks) / n_docs
    df = Counter()
    for _, tokens, _ in chunks:
        df.update(set(tokens))

    def oracle_score(query, tokens):
        total = 0.0
        for term in query:
            tf = tokens.count(term)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(tokens) / avg_len))
        return total

    mismatches = 0
    for q in range(50):
        query = [f"t{int(i)}" for i in rng.integers(0, 38, size=rng.integers(1, 5))]
        positive = [cid for cid in range(n_docs) if oracle_score(query, chunks[cid][1]) > 0.0]
        ranked = sorted(positive, key=lambda cid: (-oracle_score(query, chunks[cid][1]), cid))
        for k in (1, 4, 10):
            if top_k(index, query, k) != ranked[:k]:
                mismatches += 1
    report(5, mismatches == 0, f"50 queries x k in (1,4,10) vs exhaustive oracle, {mismatches} mismatches")


def test_criterion_06_dataset_builders():
    failures = []
    articles = make_articles(20, seed=6, min_paragraphs=3, max_paragraphs=8)
    triplets = build_qmdscnn(articles, seed=6, k_retrieved=4)
    for art, t in zip(articles, triplets):
        if t.query != art.title:
            failures.append(f"{art.id}: query != title")
        chunks = chunk_article(art, seed=6)
        own = t.meta["origins"].count("original-chunk")
        if [c.text for c in chunks] != t.documents[:own]:
            failures.append(f"{art.id}: own chunks not order-preserving")
        if any(not 1 <= len(c.paragraphs) <= 4 for c in chunks):
            failures.append(f"{art.id}: chunk size out of [1,4]")
        if t.meta["origins"].count("retrieved") > 4:
            failures.append(f"{art.id}: more than 4 retrieved")
        if any(src == art.id for src in t.meta["retrieved_from"]):
            failures.append(f"{art.id}: retrieved own chunk")

    records = make_ir_records(50, seed=6, defect_rate=0.4)
    kept, rejected = filter_qmdsir(records)
    kept_sources = {t.meta["source_id"] for t in kept}
    if kept_sources | {i for i, _ in rejected} != set(range(len(records))):
        failures.append("kept/rejected do not partition the records")
    if len(kept) + len(rejected) != len(records):
        failures.append("rejection reasons do not partition")
    for t in kept:
        rec = records[t.meta["source_id"]]
        source_doc = rec.documents[rec.answer_source_index]
        if source_doc in t.documents:
            failures.append(f"record {t.meta['source_id']}: source document kept")
        if len(split_sentences(t.summary)) < 2:
            failures.append(f"record {t.meta['source_id']}: criterion (i) fails on re-check")
        if len(t.documents) < 3:
            failures.append(f"record {t.meta['source_id']}: criterion (ii) fails on re-check")
        doc_tokens = [tokenize(d) for d in t.documents]
        for sent in split_sentences(t.summary):
            st = tokenize(sent)
            cov = max(rouge_n(d, st, 1).recall for d in doc_tokens)
            if cov < 0.8:
                failures.append(f"record {t.meta['source_id']}: coverage {cov:.2f} < 0.8 on re-check")
    ok = not failures
    report(6, ok, f"{len(triplets)} triplets + {len(kept)}/{len(records)} records compliant"
           + ("" if ok else f"; failures: {failures[:3]}"))


def test_criterion_07_query_ablations():
    articles = make_articles(16, seed=7, min_paragraphs=2, max_paragraphs=4)
    triplets = build_qmdscnn(articles, seed=7, k_retrieved=2)
    dull = make_query_variant(triplets, "dull")
    dissimilar = make_query_variant(triplets, "dissimilar")
    failures = []
    if any(t.query != "what is it ?" for t in dull):
        failures.append("dull variant not constant")
    worst_f1 = 0.0
    for orig, var in zip(triplets, dissimilar):
        f1 = rouge_n(tokenize(var.query), tokenize(orig.query), 1).f1
        worst_f1 = max(worst_f1, f1)
        if f1 >= 0.2:
            failures.append(f"dissimilar query '{var.query}' has F1 {f1:.2f} vs '{orig.query}'")
    report(7, not failures, f"dull constant; dissimilar max title F1 {worst_f1:.3f} (< 0.2)")


def test_criterion_08_ordering_encoding_values():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.choice([4, 8, 16, 32, 64]))
        r_values = rng.random(int(rng.integers(1, 6))) * 2.0
        pe = ordering_encoding(ad.tensor(r_values, np.float64), d).values
        half = d // 2
        expected = np.zeros((r_values.size, d))
        for row, r in enumerate(r_values):
            for j in range(half):
                angle = r / 10000 ** (2 * j / d)
                expected[row, 2 * j] = math.sin(angle)
                expected[row, 2 * j + 1] = math.cos(angle)
        worst = max(worst, float(np.abs(pe - expected).max()))
    zero = ordering_encoding(ad.tensor(np.zeros(2), np.float64), 8).values
    alternating = np.allclose(zero[:, 0::2], 0.0) and np.allclose(zero[:, 1::2], 1.0)
    ok = worst < 1e-6 and alternating
    report(8, ok, f"1000 random (r, d) pairs, max dev {worst:.2e} (< 1e-6); r=0 alternating pattern {alternating}")


def test_criterion_09_parameter_count_ordering():
    vocab_size = 2000
    variants = {
        "baseline": {},
        "merge": dict(use_hierarchical_merge=True),
        "ordering": dict(use_ordering=True),
        "query": dict(use_query_encoder=True),
    }
    counts = {}
    for name, flags in variants.items():
        cfg = ModelConfig(vocab_size=vocab_size, d_model=256, ffn_hidden=1024, heads=8, **flags)
        counts[name] = SummModel(cfg, seed=0).parameter_count()
    ok = counts["baseline"] < counts["merge"] < counts["ordering"] < counts["query"]
    detail = "reported counts (test vocab 2000): " + ", ".join(
        f"{k}={v:,}" for k, v in counts.items()
    )
    report(9, ok, detail)


def test_criterion_10_decode_contracts():
    vocab_size = 60
    cfg = ModelConfig(
        vocab_size=vocab_size, d_model=16, ffn_hidden=32, heads=2,
        local_layers=1, global_layers=1, dropout=0.0,
        max_doc_tokens=10, max_docs=3, max_summary_tokens=8,
    )
    rng = np.random.default_rng(10)
    failures = []
    lp = length_penalty(5, 0.4)
    # Direct formula evaluation: ((5+5)/6)**0.4 = 1.2267032...
    if abs(lp - 1.2267032046963888) > 1e-5:
        failures.append(f"lp(5, 0.4) = {lp}")
    for trial in range(50):
        model = SummModel(cfg, seed=trial % 5)
        inp = ModelInput(
            doc_ids=rng.integers(5, vocab_size, size=(2, 6)).astype(np.int64),
            query_ids=np.array([6], dtype=np.int64),
        )
        enc = model.encode(inp)
        plain = DecodeConfig(beam=1, alpha=0.0, min_len=2, max_len=7, block_trigrams=False)
        g = greedy_decode(model, enc, plain)
        bs = beam_search(model, enc, plain)
        if g != bs:
            failures.append(f"trial {trial}: beam1 {bs} != greedy {g}")
        if not 2 <= len(g) <= 7:
            failures.append(f"trial {trial}: greedy length {len(g)}")
        blocked = DecodeConfig(beam=3, alpha=0.4, min_len=2, max_len=10, block_trigrams=True)
        out = beam_search(model, enc, blocked)
        grams = [tuple(out[i : i + 3]) for i in range(len(out) - 2)]
        if len(grams) != len(set(grams)):
            failures.append(f"trial {trial}: repeated trigram {out}")
        if not 2 <= len(out) <= 10:
            failures.append(f"trial {trial}: blocked length {len(out)}")
    report(10, not failures, f"50 inputs: beam1==greedy, no repeated trigrams, lengths in bounds, lp(5)={lp:.7f}"
           + ("" if not failures else f"; failures: {failures[:3]}"))


def test_criterion_11_end_to_end_smoke(tmp_path):
    t0 = time.time()
    os.chdir(tmp_path)
    save_records(make_articles(30, seed=11, min_paragraphs=2, max_paragraphs=4), "articles.jsonl")
    rc = cli.main(["build-qmdscnn", "--corpus", "articles.jsonl", "--seed", "11",
                   "--k", "1", "--out", "triplets.jsonl"])
    assert rc == 0
    triplets = load_records("triplets.jsonl", Triplet)
    save_records(triplets[:24], "train.jsonl")
    save_records(triplets[24:], "val.jsonl")
    config = {
        "vocab_max_size": 400,
        "model": {
            "d_model": 32, "ffn_hidden": 64, "heads": 2, "local_layers": 1,
            "global_layers": 1, "dropout": 0.1,
            "max_doc_tokens": 24, "max_docs": 3, "max_summary_tokens": 16,
        },
        "train": {
            "steps": 500, "checkpoint_dir": "ckpt", "batch_tokens": 512,
            "accum_steps": 1, "val_interval": 250, "seed": 11,
            "base_lr": 2.0, "warmup": 400,
            "train_path": "train.jsonl", "val_path": "val.jsonl",
        },
    }
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    assert cli.main(["train", "--config", "config.json"]) == 0
    assert cli.main(["decode", "--ckpt", "ckpt/best.ckpt", "--in", "val.jsonl",
                     "--out", "decodes.jsonl", "--beam", "2", "--alpha", "0.4",
                     "--max-len", "12", "--block-trigrams"]) == 0
    rows = [json.loads(line) for line in open("decodes.jsonl")]
    assert len(rows) == 6 and all({"id", "summary"} == set(r) for r in rows)
    assert cli.main(["evaluate", "--ckpt", "ckpt/best.ckpt", "--in", "val.jsonl",
                     "--mode", "f1", "--beam", "1", "--max-len", "12"]) == 0
    elapsed = time.time() - t0
    ok = elapsed < 900.0
    report(11, ok, f"build -> train 500 steps -> decode -> evaluate in {elapsed:.0f}s (< 900s)")
