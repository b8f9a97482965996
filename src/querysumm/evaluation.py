"""Corpus evaluation and the train-transfer-evaluate pipeline.

``evaluate`` decodes every triplet through ``decoding.decode_inputs``, the
one forward-only loop, and reports macro-averaged ROUGE.  Two modes:
``f1`` reports precision/recall/F1 for R-1/2/L; ``recall250`` truncates
each decode to 250 words and reports recall for R-1/2/L/SU4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Triplet
from .decoding import DecodeConfig, decode_inputs
from .model import SummModel, prepare_input
from .rouge import rouge_l, rouge_n, rouge_recall_truncated
from .text import Vocabulary, tokenize
from .training import TrainConfig, TrainResult, train

RECALL_WORD_LIMIT = 250
F1_METRICS = ("rouge-1", "rouge-2", "rouge-l")
RECALL_METRICS = ("rouge-1", "rouge-2", "rouge-l", "rouge-su4")

# Full-scale transfer evaluation protocol: wide beam, long minimum length,
# long per-document truncation, many documents.  Desk-scale runs override
# every field; the recall report truncates at RECALL_WORD_LIMIT regardless.
TRANSFER_DECODE_DEFAULTS = DecodeConfig(
    beam=15,
    alpha=0.4,
    min_len=400,
    max_len=500,
    block_trigrams=True,
    max_doc_tokens=800,
    max_docs=25,
)


@dataclass
class EvalReport:
    mode: str
    rows: list[dict]  # per-example: {"id", metric -> value(s)}
    averages: dict[str, object] = field(default_factory=dict)

    def format(self) -> str:
        lines = []
        if self.mode == "f1":
            lines.append("metric precision recall f1")
            for m in F1_METRICS:
                p, r, f1 = self.averages[m]
                lines.append(f"{m} {p:.4f} {r:.4f} {f1:.4f}")
        else:
            lines.append(f"metric recall@{RECALL_WORD_LIMIT}")
            for m in RECALL_METRICS:
                lines.append(f"{m} {self.averages[m]:.4f}")
        return "\n".join(lines)


def decode_triplets(
    model: SummModel,
    triplets: list[Triplet],
    vocab: Vocabulary,
    decode_cfg: DecodeConfig,
):
    """Yield ``(id, token ids)`` per triplet, the id being its
    ``source_id`` or else its position.

    Inputs are prepared under the model config with ``decode_cfg``'s
    document limits where set, one at a time, and decoded by
    ``decode_inputs``, the one forward-only loop."""
    cfg = model.config
    input_cfg = replace(
        cfg,
        max_doc_tokens=decode_cfg.max_doc_tokens or cfg.max_doc_tokens,
        max_docs=decode_cfg.max_docs or cfg.max_docs,
    )
    inputs = (prepare_input(t, vocab, input_cfg) for t in triplets)
    decoded = decode_inputs(model, inputs, decode_cfg)
    for i, (triplet, ids) in enumerate(zip(triplets, decoded)):
        yield triplet.meta.get("source_id", i), ids


def evaluate(
    model: SummModel,
    triplets: list[Triplet],
    vocab: Vocabulary,
    decode_cfg: DecodeConfig,
    mode: str = "f1",
) -> EvalReport:
    """Decode every triplet and average ROUGE against its reference summary."""
    if not triplets:
        raise ValueError("cannot evaluate an empty dataset")
    if mode not in ("f1", "recall250"):
        raise ValueError(f"unknown mode {mode!r}")

    rows = []
    decoded = decode_triplets(model, triplets, vocab, decode_cfg)
    for triplet, (row_id, ids) in zip(triplets, decoded):
        hyp = vocab.decode(ids)
        ref = tokenize(triplet.summary)
        row = {"id": row_id, "summary": " ".join(hyp)}
        if mode == "f1":
            for m, score in zip(
                F1_METRICS,
                (rouge_n(hyp, ref, 1), rouge_n(hyp, ref, 2), rouge_l(hyp, ref)),
            ):
                row[m] = (score.precision, score.recall, score.f1)
        else:
            recalls = rouge_recall_truncated(hyp, ref, RECALL_WORD_LIMIT)
            row.update(recalls)
        rows.append(row)

    averages: dict[str, object] = {}
    if mode == "f1":
        for m in F1_METRICS:
            triples = np.array([row[m] for row in rows], dtype=np.float64)
            averages[m] = tuple(triples.mean(axis=0))
    else:
        for m in RECALL_METRICS:
            averages[m] = float(np.mean([row[m] for row in rows]))
    return EvalReport(mode=mode, rows=rows, averages=averages)


def interleave(a: list, b: list, seed: int) -> list:
    """1:1 example-level interleaving of two shuffled datasets; whichever
    runs longer contributes its leftovers at the end."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 13, 0])
    a = [a[int(i)] for i in rng.permutation(len(a))]
    b = [b[int(i)] for i in rng.permutation(len(b))]
    merged = []
    for x, y in zip(a, b):
        merged.extend((x, y))
    longer = a if len(a) > len(b) else b
    merged.extend(longer[min(len(a), len(b)) :])
    return merged


@dataclass
class TransferSpec:
    """Everything the transfer pipeline needs besides the datasets."""

    model_config: object  # ModelConfig
    train_config: TrainConfig
    decode_config: DecodeConfig
    finetune_config: TrainConfig | None = None


def transfer_pipeline(
    spec: TransferSpec,
    train_triplets: list[Triplet],
    val_triplets: list[Triplet],
    eval_triplets: list[Triplet],
    vocab: Vocabulary,
    finetune_triplets: list[Triplet] | None = None,
) -> tuple[EvalReport, TrainResult]:
    """Train on the source dataset, optionally fine-tune, then evaluate in
    recall-truncated mode.  Returns the report and the (last) train result.

    At full scale, fine-tuning conventionally truncates documents to 600
    tokens and targets to 400; ``prepare_input`` applies whatever limits
    ``spec.model_config`` holds.  Evaluation decode settings, including its
    own document limits, come from ``spec.decode_config``, for which
    ``TRANSFER_DECODE_DEFAULTS`` holds the full-scale protocol.  An empty
    evaluation or validation set, finetune triplets without a finetune
    config, or an empty list of them raise ``ValueError`` before anything
    trains."""
    if not eval_triplets:
        raise ValueError("cannot evaluate an empty dataset")
    if not val_triplets:
        raise ValueError("no validation triplets")
    if finetune_triplets is not None:
        if spec.finetune_config is None:
            raise ValueError("finetune triplets supplied without a finetune config")
        if not finetune_triplets:
            raise ValueError("no finetune triplets")
    model = SummModel(spec.model_config, seed=spec.train_config.seed)
    result = train(model, spec.train_config, train_triplets, val_triplets, vocab)
    if finetune_triplets is not None:
        ft_cfg = replace(
            spec.finetune_config,
            fine_tune_from=result.best_path,
            checkpoint_dir=os.path.join(spec.train_config.checkpoint_dir, "finetune"),
        )
        result = train(model, ft_cfg, finetune_triplets, val_triplets, vocab)
    report = evaluate(model, eval_triplets, vocab, spec.decode_config, mode="recall250")
    return report, result
