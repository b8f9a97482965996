"""The benchmark's three workloads: ``build``, ``train`` and ``decode``.

Each workload generates its inputs from the seed in ``setup`` and runs one
fixed unit of work per ``iterate`` call through querysumm's public
functions.  Every iteration of a run does identical work, so its output
digest must repeat.  ``iterate`` times three stages and returns samples of
each in milliseconds per unit of work (the ``primary``/``secondary``/
``tertiary`` metrics; units per workload are listed in ``bench/README.md``).
``REFERENCE`` names the host-speed reference in ``reference.py`` whose
instruction mix the workload's stages share; ``iterate`` calls ``probe``
right before each timed section, so the run samples the reference as often
as its stages.
Output checks run outside the timed sections.

Calls go through module attributes (``qdata.build_qmdscnn``), never names
imported into this module, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import gen
from querysumm import bm25, decoding, evaluation, text, training
from querysumm import data as qdata
from querysumm import model as qmodel

K_RETRIEVED = 4  # build_qmdscnn's default, checked against the brute force


@dataclass(frozen=True)
class Size:
    build_articles: int
    build_records: int
    record_batch: int
    ablation_group: int
    check_sample: int
    corpus_articles: int
    paragraphs: tuple[int, int]
    sentences: tuple[int, int]
    words: tuple[int, int]
    summary_sentences: int
    vocab_max: int
    d_model: int
    ffn_hidden: int
    heads: int
    max_doc_tokens: int
    max_docs: int
    summary_len: int
    train_examples: int
    train_steps: int
    batch_tokens: int
    decode_triplets: int


SIZES = {
    # Paragraphs of 18-22 sentences of 12-16 tokens fill the 200-token
    # document truncation; 13+ paragraphs give at least 4 own chunks, and 4
    # retrieved chunks fill max_docs=8.  vocab_max is the README config's.
    # Records are filtered in batches and the query ablations run per group
    # of triplets, so one iteration yields several samples of each stage.
    "full": Size(
        build_articles=400,
        build_records=2000,
        record_batch=250,
        ablation_group=100,
        check_sample=8,
        corpus_articles=12,
        paragraphs=(13, 16),
        sentences=(18, 22),
        words=(10, 14),
        summary_sentences=6,
        vocab_max=2000,
        d_model=128,
        ffn_hidden=512,
        heads=8,
        max_doc_tokens=200,
        max_docs=8,
        summary_len=100,
        train_examples=8,
        train_steps=1,
        batch_tokens=2048,
        decode_triplets=2,
    ),
    # For the benchmark's own tests: every code path in a few seconds.
    "tiny": Size(
        build_articles=40,
        build_records=60,
        record_batch=20,
        ablation_group=20,
        check_sample=4,
        corpus_articles=6,
        paragraphs=(4, 6),
        sentences=(2, 3),
        words=(5, 8),
        summary_sentences=2,
        vocab_max=300,
        d_model=16,
        ffn_hidden=32,
        heads=2,
        max_doc_tokens=24,
        max_docs=3,
        summary_len=12,
        train_examples=4,
        train_steps=2,
        batch_tokens=256,
        decode_triplets=2,
    ),
}


@dataclass
class Iteration:
    stages: tuple[list[float], list[float], list[float]]  # ms per unit samples
    wall_s: float  # summed timed sections
    digest: str
    attempted: int
    failed: int


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _triplet_rows(triplets) -> list[dict]:
    return [
        {"query": t.query, "documents": t.documents, "summary": t.summary, "meta": t.meta}
        for t in triplets
    ]


def _no_probe() -> None:
    pass


def _report_error(stage: str) -> None:
    print(f"bench: {stage} raised", file=sys.stderr)
    traceback.print_exc()


def _unigram_f1(candidate: list[str], reference: list[str]) -> float:
    """ROUGE-1 F1 written out from its definition, in the same operation
    order as ``querysumm.rouge`` so ties compare equal."""
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    p = overlap / len(candidate)
    r = overlap / len(reference)
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


# --- build ------------------------------------------------------------------


class Build:
    """Dataset construction: ``build_qmdscnn`` on the article corpus,
    ``filter_qmdsir`` on the IR-log records in batches, then per group of
    built triplets both query ablations, ``alignment_histogram`` and
    ``triplet_stats``.

    Stage units: ms per article, ms per IR record (one sample per batch),
    ms per built triplet through the ablation and analysis stage (one
    sample per group)."""

    WARMUP = 0  # pure Python on ~70 MB; the first iteration is not special
    REFERENCE = "python"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size = seed, size

    def setup(self) -> None:
        self.articles = gen.make_articles(self.size.build_articles, self.seed)
        records, expected = gen.make_ir_records(self.size.build_records, self.seed)
        step = self.size.record_batch
        self.record_batches = [
            (records[i : i + step], expected[i : i + step]) for i in range(0, len(records), step)
        ]

    def iterate(self, check: bool, probe=_no_probe) -> Iteration:
        n_art = len(self.articles)
        n_rec = sum(len(records) for records, _ in self.record_batches)
        attempted = n_art + n_rec + 2 * n_art
        gc.collect()
        probe()
        t0 = time.perf_counter()
        try:
            triplets = qdata.build_qmdscnn(self.articles, self.seed)
        except Exception:
            _report_error("build_qmdscnn")
            return Iteration(([], [], []), 0.0, "error", attempted, attempted)
        wall_s = time.perf_counter() - t0
        stages = ([wall_s * 1000.0 / n_art], [], [])
        failed, outputs = 0, [_triplet_rows(triplets)]
        if check:
            failed += self._check_triplets(triplets)

        for records, expected in self.record_batches:
            probe()
            t0 = time.perf_counter()
            try:
                kept, rejected = qdata.filter_qmdsir(records)
            except Exception:
                _report_error("filter_qmdsir")
                failed += len(records)
                continue
            elapsed = time.perf_counter() - t0
            wall_s += elapsed
            stages[1].append(elapsed * 1000.0 / len(records))
            outputs += [_triplet_rows(kept), rejected]
            if check:
                failed += self._check_filter(kept, rejected, expected)

        step = self.size.ablation_group
        for group in (triplets[i : i + step] for i in range(0, n_art, step)):
            probe()
            t0 = time.perf_counter()
            try:
                distractor = qdata.make_query_variant(group, "distractor", self.seed)
                dissimilar = qdata.make_query_variant(group, "dissimilar", self.seed)
                hist = qdata.alignment_histogram(group)
                stats = qdata.triplet_stats(group)
            except Exception:
                _report_error("query ablations")
                failed += 2 * len(group)
                continue
            elapsed = time.perf_counter() - t0
            wall_s += elapsed
            stages[2].append(elapsed * 1000.0 / len(group))
            outputs += [
                [t.query for t in distractor],
                [t.query for t in dissimilar],
                hist,
                stats.__dict__,
            ]
            if check:
                failed += self._check_ablations(group, distractor, dissimilar, hist, stats)
        return Iteration(stages, wall_s, _digest(*outputs), attempted, failed)

    def final_check(self) -> tuple[int, int]:
        return 0, 0

    def _check_triplets(self, triplets) -> int:
        """Own chunks first, nothing retrieved from its own article, and
        BM25 top-k for a sample of titles equal to a brute-force ranking
        from the documented formula.  Returns the number of failed
        articles."""
        per_article = [qdata.chunk_article(a, self.seed) for a in self.articles]
        flat = [c for chunks in per_article for c in chunks]
        bad = set()
        for i, (article, own, t) in enumerate(zip(self.articles, per_article, triplets)):
            hits = len(t.documents) - len(own)
            origins = [qdata.ORIGIN_CHUNK] * len(own) + [qdata.ORIGIN_RETRIEVED] * hits
            if (
                t.meta.get("source_id") != article.id
                or t.documents[: len(own)] != [c.text for c in own]
                or t.meta.get("origins") != origins
                or not 0 <= hits <= K_RETRIEVED
                or article.id in t.meta.get("retrieved_from", [])
            ):
                bad.add(i)

        counts = [Counter(text.tokenize(c.text)) for c in flat]
        lengths = [sum(c.values()) for c in counts]
        n, avg_len = len(flat), sum(lengths) / len(flat)
        df = Counter(term for c in counts for term in c)
        k1, b = bm25.K1_DEFAULT, bm25.B_DEFAULT
        step = max(1, len(self.articles) // self.size.check_sample)
        for i in range(0, len(self.articles), step)[: self.size.check_sample]:
            article, t = self.articles[i], triplets[i]
            query = text.tokenize(article.title)
            scored = []
            for cid, (c, length) in enumerate(zip(counts, lengths)):
                if flat[cid].article_id == article.id:
                    continue
                norm = k1 * (1.0 - b + b * length / avg_len)
                total = 0.0
                for term in query:
                    tf = c.get(term, 0)
                    if tf:
                        idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
                        total += idf * tf * (k1 + 1.0) / (tf + norm)
                scored.append((-total, cid))
            top = [cid for neg, cid in sorted(scored)[:K_RETRIEVED] if -neg > 0.0]
            own = len(per_article[i])
            if t.documents[own:] != [flat[cid].text for cid in top] or t.meta[
                "retrieved_from"
            ] != [flat[cid].article_id for cid in top]:
                bad.add(i)
        return len(bad)

    @staticmethod
    def _check_filter(kept, rejected, expected) -> int:
        """Each rejected record has exactly one reason, the one its planted
        defect calls for; every clean record is kept.  Returns the number
        of failed records."""
        reasons: dict[int, list[str]] = {}
        for idx, reason in rejected:
            reasons.setdefault(idx, []).append(reason)
        kept_ids = {t.meta.get("source_id") for t in kept}
        bad = 0
        for i, reason in enumerate(expected):
            if reason is None:
                bad += i not in kept_ids or i in reasons
            else:
                bad += reasons.get(i) != [reason] or i in kept_ids
        return bad

    def _check_ablations(self, triplets, distractor, dissimilar, hist, stats) -> int:
        """Variants keep documents and summary; dissimilar queries stay
        under the ROUGE-1 cap; the distractor is the other query with the
        highest ROUGE-1 F1 (brute force on a sample).  Returns the number
        of failed ablated triplets."""
        n = len(triplets)
        if sum(hist.values()) != n or stats.samples != n:
            return 2 * n
        tokens = [text.tokenize(t.query) for t in triplets]
        bad = 0
        for variant, out in (("distractor", distractor), ("dissimilar", dissimilar)):
            for orig, new in zip(triplets, out):
                bad += (
                    new.documents != orig.documents
                    or new.summary != orig.summary
                    or new.meta.get("query_variant") != variant
                )
        for i, new in enumerate(dissimilar):
            bad += not _unigram_f1(text.tokenize(new.query), tokens[i]) < qdata.DISSIMILAR_MAX_F1
        step = max(1, n // self.size.check_sample)
        for i in range(0, n, step)[: self.size.check_sample]:
            best = max(
                (j for j in range(n) if j != i),
                key=lambda j: (_unigram_f1(tokens[j], tokens[i]), -j),
            )
            bad += distractor[i].query != triplets[best].query
        return bad


# --- train / decode shared inputs ---------------------------------------------


def _corpus_tokens(triplets) -> list[list[str]]:
    out = []
    for t in triplets:
        out.append(text.tokenize(t.query))
        out.append(text.tokenize(t.summary))
        out.extend(text.tokenize(d) for d in t.documents)
    return out


class _ModelWorkload:
    """Generated triplets, vocabulary and the d=128 joint model shared by
    ``train`` and ``decode``."""

    # The first iteration pays for first-touch page faults on hundreds of MB
    # of activations, a once-per-process cost; it runs untimed.
    WARMUP = 1
    REFERENCE = "numpy"

    def __init__(self, seed: int, size: Size, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir

    def setup(self) -> None:
        s = self.size
        articles = gen.make_articles(
            s.corpus_articles,
            self.seed,
            paragraphs=s.paragraphs,
            sentences=s.sentences,
            words=s.words,
            summary_sentences=s.summary_sentences,
        )
        self.triplets = qdata.build_qmdscnn(articles, self.seed)
        self.vocab = text.build_vocab(_corpus_tokens(self.triplets), s.vocab_max)
        self.config = qmodel.ModelConfig(
            vocab_size=len(self.vocab),
            d_model=s.d_model,
            ffn_hidden=s.ffn_hidden,
            heads=s.heads,
            dropout=0.1,
            max_doc_tokens=s.max_doc_tokens,
            max_docs=s.max_docs,
            max_summary_tokens=s.summary_len,
            **qmodel.joint_flags("qmdscnn"),
        )
        self.model = qmodel.SummModel(self.config, seed=self.seed)
        self.fixed_len = decoding.DecodeConfig(
            beam=1, alpha=0.0, min_len=s.summary_len, max_len=s.summary_len
        )

    def final_check(self) -> tuple[int, int]:
        """Checks made once per run; returns (attempted, failed)."""
        return 0, 0


class Train(_ModelWorkload):
    """``training.train`` for a fixed number of steps on a freshly seeded
    model (token-budget batching, 2 accumulated micro-batches per step,
    one checkpoint write at the end), then one greedy validation pass and
    the forward-only loss of a few training examples.

    Stage units: ms per train token (``example_size`` of every example
    consumed), ms per validation token, ms per token of forward-only loss
    (``example_size``, one sample per example).  The last is the control
    for backward and dropout changes: it runs neither."""

    ACCUM_STEPS = 2
    FORWARD_EXAMPLES = 2

    def setup(self) -> None:
        super().setup()
        n = self.size.train_examples
        self.train_set = self.triplets[:n]
        val = self.triplets[n : n + 1]
        self.val_inputs = [qmodel.prepare_input(t, self.vocab, self.config) for t in val]
        self.val_refs = [text.tokenize(t.summary) for t in val]
        self.train_inputs = [
            qmodel.prepare_input(t, self.vocab, self.config) for t in self.train_set
        ]
        self.tokens_per_iteration = self._consumed_tokens()

    def _consumed_tokens(self) -> int:
        """Tokens of the examples ``train`` consumes: its documented order
        (a seeded permutation per epoch, packed to the token budget)."""
        sizes = [training.example_size(inp) for inp in self.train_inputs]
        batches, epoch = [], 0
        needed = self.size.train_steps * self.ACCUM_STEPS
        while len(batches) < needed:
            order = np.random.default_rng([self.seed & 0xFFFFFFFF, 7, epoch]).permutation(
                len(sizes)
            )
            batches.extend(training.pack_batches(sizes, order, self.size.batch_tokens))
            epoch += 1
        return sum(sizes[i] for batch in batches[:needed] for i in batch)

    def iterate(self, check: bool, probe=_no_probe) -> Iteration:
        steps = self.size.train_steps
        # train() updates the model in place, so later iterations start
        # from a freshly seeded copy.
        model = self.model or qmodel.SummModel(self.config, seed=self.seed)
        self.model = None
        with tempfile.TemporaryDirectory(dir=self.workdir) as ckpt_dir:
            cfg = training.TrainConfig(
                steps=steps,
                checkpoint_dir=ckpt_dir,
                batch_tokens=self.size.batch_tokens,
                accum_steps=self.ACCUM_STEPS,
                val_interval=steps,
                seed=self.seed,
            )
            gc.collect()
            try:
                # Validation runs below, timed on its own, so train() gets
                # no validation set; it still writes its checkpoints.
                probe()
                t0 = time.perf_counter()
                result = training.train(model, cfg, self.train_set, [], self.vocab)
                train_s = time.perf_counter() - t0
                probe()
                t0 = time.perf_counter()
                score = training.validate(
                    model, self.val_inputs, self.val_refs, self.vocab, self.fixed_len
                )
                validate_s = time.perf_counter() - t0
                forward_s, forward_ms, forward_losses = 0.0, [], []
                for inp in self.train_inputs[: self.FORWARD_EXAMPLES]:
                    probe()
                    t0 = time.perf_counter()
                    loss, count = model.loss_sum(inp)
                    elapsed = time.perf_counter() - t0
                    forward_s += elapsed
                    forward_ms.append(elapsed * 1000.0 / training.example_size(inp))
                    forward_losses.append((loss.item(), count))
                round_trips = not check or self._round_trips(
                    model, *training.load_model_checkpoint(result.latest_path)
                )
            except Exception:
                _report_error("train")
                return Iteration(([], [], []), 0.0, "error", steps, steps)

        failed = sum(not math.isfinite(x) for x in result.losses)
        if not round_trips:
            failed = steps
        params = b"".join(model.params[k].values.tobytes() for k in sorted(model.params))
        val_tokens = len(self.val_inputs) * self.size.summary_len
        return Iteration(
            (
                [train_s * 1000.0 / self.tokens_per_iteration],
                [validate_s * 1000.0 / val_tokens],
                forward_ms,
            ),
            train_s + validate_s + forward_s,
            _digest(
                [repr(x) for x in result.losses], params, repr(score), repr(forward_losses)
            ),
            steps,
            failed,
        )

    def _round_trips(self, model, loaded, vocab, meta) -> bool:
        return (
            meta.get("step") == self.size.train_steps
            and vocab.id_to_token == self.vocab.id_to_token
            and loaded.config == model.config
            and loaded.params.keys() == model.params.keys()
            and all(
                np.array_equal(loaded.params[k].values, p.values)
                for k, p in model.params.items()
            )
        )


class Decode(_ModelWorkload):
    """The untrained, freshly seeded model decodes generated triplets:
    ``encode`` plus ``greedy_decode``, then ``evaluate(mode="f1")`` with
    beam 4 and trigram blocking.  min_len = max_len, so the token count
    does not depend on the weights.

    Stage units: greedy ms per token (encode included), beam ms per token
    (the whole ``evaluate`` call), encode ms per triplet.  Greedy decodes
    every triplet and beam search only the first: a beam sample takes about
    four greedy ones, and a run needs several samples of each."""

    BEAM = 4
    BEAM_TRIPLETS = 1

    def setup(self) -> None:
        super().setup()
        self.decode_set = self.triplets[: self.size.decode_triplets]
        self.beam_set = self.decode_set[: self.BEAM_TRIPLETS]
        self.inputs = [qmodel.prepare_input(t, self.vocab, self.config) for t in self.decode_set]
        self.beam_cfg = replace(self.fixed_len, beam=self.BEAM, alpha=0.4, block_trigrams=True)
        self.first_greedy: list[int] | None = None

    def iterate(self, check: bool, probe=_no_probe) -> Iteration:
        attempted = len(self.inputs) + len(self.beam_set)
        length = self.size.summary_len
        gc.collect()
        encode_ms, greedy_ms, greedy_ids = [], [], []
        greedy_s = 0.0
        try:
            for inp in self.inputs:
                probe()
                t0 = time.perf_counter()
                enc = self.model.encode(inp)
                t1 = time.perf_counter()
                ids = decoding.greedy_decode(self.model, enc, self.fixed_len)
                t2 = time.perf_counter()
                greedy_s += t2 - t0
                encode_ms.append((t1 - t0) * 1000.0)
                greedy_ms.append((t2 - t0) * 1000.0 / max(len(ids), 1))
                greedy_ids.append(ids)
            probe()
            t3 = time.perf_counter()
            report = evaluation.evaluate(
                self.model, self.beam_set, self.vocab, self.beam_cfg, mode="f1"
            )
            beam_s = time.perf_counter() - t3
        except Exception:
            _report_error("decode")
            return Iteration(([], [], []), 0.0, "error", attempted, attempted)
        beams = [row["summary"].split() for row in report.rows]
        if self.first_greedy is None:
            self.first_greedy = greedy_ids[0]
        failed = 0
        if check:
            failed += sum(len(ids) != length for ids in greedy_ids)
            failed += sum(len(b) != length or _repeats_trigram(b) for b in beams)
        beam_tokens = sum(len(b) for b in beams)
        return Iteration(
            (greedy_ms, [beam_s * 1000.0 / max(beam_tokens, 1)], encode_ms),
            greedy_s + beam_s,
            _digest(greedy_ids, beams),
            attempted,
            failed,
        )

    def final_check(self) -> tuple[int, int]:
        """Beam 1 must reproduce greedy on the first triplet."""
        try:
            enc = self.model.encode(self.inputs[0])
            ids = decoding.beam_search(self.model, enc, self.fixed_len)
        except Exception:
            _report_error("beam 1")
            return 1, 1
        return 1, int(ids != self.first_greedy)


def _repeats_trigram(tokens: list[str]) -> bool:
    grams = [tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2)]
    return len(grams) != len(set(grams))


WORKLOADS = {"build": Build, "train": Train, "decode": Decode}
