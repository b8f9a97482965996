"""Command-line interface.

Dataset commands: ``build-qmdscnn``, ``build-qmdsir``, ``stats``,
``query-variant``, ``align-hist``.  Model commands: ``train``, ``decode``,
``evaluate``, ``transfer``, ``grad-check``.  Exit codes: 0 success,
1 validation error (a usage error included), 2 numerical abort.

``train`` and ``transfer`` read a JSON config file::

    {
      "vocab_max_size": 2000,
      "model": { ... ModelConfig fields except vocab_size ... },
      "train": { ... TrainConfig fields ... },              # paths: train only
      "decode": { ... DecodeConfig fields ... },            # transfer only
      "finetune": { ... TrainConfig fields ... },           # optional
      "sources": {"qmdscnn": {"train": P, "val": P}, ...}   # transfer only
    }

``model.use_query_encoder`` alone decides whether the query is encoded or
prepended.  Every section field is checked against its annotation, the
path fields (strings) included, so a bad one exits 1:
``error: <config>: <section>: ...``.  So does a top-level key other than
these six, a ``vocab_max_size`` that is not an integer > 5, a config that
is not a JSON object, a ``transfer`` config without ``sources``, or an
empty validation or ``--finetune`` set; all fail before anything trains.
``decode`` and ``evaluate`` check their search flags (``--max-len`` >= 1,
``--min-len`` >= 0, a finite ``--alpha``) before they load the checkpoint.
``build-qmdscnn`` also prints how many triplets got 0..k retrieved chunks,
and ``build-qmdsir`` how many records each reason rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import data as dataforge
from .data import Article, IrRecord, Triplet, load_records, save_records, write_jsonl
from .decoding import DecodeConfig
from .evaluation import (
    TRANSFER_DECODE_DEFAULTS,
    TransferSpec,
    decode_triplets,
    evaluate,
    interleave,
    transfer_pipeline,
)
from .model import ModelConfig, SummModel
from .text import build_vocab, tokenize
from .training import NumericalAbort, TrainConfig, load_model_checkpoint, train
from .verification import TOLERANCE, run_gradient_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, which is EXIT_NUMERICAL here
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    """The ``DecodeConfig`` search flags, defaulting to its own defaults."""
    d = DecodeConfig()
    p.add_argument("--beam", type=int, default=d.beam)
    p.add_argument("--alpha", type=float, default=d.alpha)
    p.add_argument("--min-len", type=int, default=d.min_len)
    p.add_argument("--max-len", type=int, default=d.max_len)
    p.add_argument("--block-trigrams", action="store_true", default=d.block_trigrams)


def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(
        beam=args.beam, alpha=args.alpha, min_len=args.min_len, max_len=args.max_len,
        block_trigrams=args.block_trigrams,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="querysumm",
        description="Query-focused multi-document summarization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-qmdscnn", help="article corpus -> retrieval-augmented triplets")
    p.add_argument("--corpus", required=True, help="articles JSONL")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=4, help="retrieved chunks per triplet")
    p.add_argument("--out", required=True, help="triplets JSONL")

    p = sub.add_parser("build-qmdsir", help="IR-log records -> filtered triplets")
    p.add_argument("--records", required=True, help="records JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--reject-log", default=None, help="JSONL of rejected record reasons")

    p = sub.add_parser("stats", help="triplet corpus statistics")
    p.add_argument("--in", dest="input", required=True)

    p = sub.add_parser("query-variant", help="swap triplet queries for ablations")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument(
        "--variant",
        required=True,
        choices=["original", "distractor", "dull", "dissimilar"],
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser("align-hist", help="summary-to-document span histogram")
    p.add_argument("--in", dest="input", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = sub.add_parser("decode", help="decode triplets with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    _add_decode_flags(p)

    p = sub.add_parser("evaluate", help="ROUGE report for a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mode", choices=["f1", "recall250"], default="f1")
    _add_decode_flags(p)

    p = sub.add_parser("transfer", help="train on a source tag, then evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--source", required=True, help="source tag or 'combined'")
    p.add_argument("--eval", dest="eval_path", required=True)
    p.add_argument("--finetune", default=None, help="fine-tuning triplets JSONL")

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--module", default=None, help="single check name to run")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _corpus_tokens(triplets):
    for t in triplets:
        yield tokenize(t.query)
        yield tokenize(t.summary)
        for d in t.documents:
            yield tokenize(d)


# Top-level keys of a ``train`` or ``transfer`` config: one set, so a config
# shared by both commands is valid for each.
CONFIG_KEYS = ("vocab_max_size", "model", "train", "decode", "finetune", "sources")


def _load_config(path) -> dict:
    """The config file's JSON object, its keys among ``CONFIG_KEYS`` and
    ``vocab_max_size`` checked and defaulted; errors name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = [key for key in cfg if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError(
            f"{path}: unknown top-level keys {unknown}; a config takes {list(CONFIG_KEYS)}"
        )
    size = cfg.setdefault("vocab_max_size", 2000)
    if isinstance(size, bool) or not isinstance(size, int) or size <= 5:
        raise ValueError(f"{path}: vocab_max_size must be an integer > 5, got {size!r}")
    return cfg


def _section(path, cfg: dict, name: str, cls, **fields):
    """``cls`` of section ``name`` (absent: empty) and ``fields``; errors name the section."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"{path}: {name}: section must be a JSON object")
    try:
        return cls(**fields, **section)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name}: {exc}") from exc


def _sources(path, cfg: dict) -> dict:
    """Section ``sources``, tag -> {"train": path, "val": path}, each path a
    string; errors name the file."""
    if "sources" not in cfg:
        raise ValueError(f"{path}: missing section 'sources'")
    sources = cfg["sources"]
    if not isinstance(sources, dict):
        raise ValueError(f"{path}: sources: section must be a JSON object")
    for tag, paths in sources.items():
        if not (isinstance(paths, dict) and "train" in paths and "val" in paths):
            raise ValueError(f"{path}: sources: {tag!r} must be an object with 'train' and 'val'")
        for part in ("train", "val"):
            if not isinstance(paths[part], str):
                raise ValueError(
                    f"{path}: sources: {tag!r}: {part} must be a string, got {paths[part]!r}"
                )
    return sources


def _vocab_and_model(path, cfg: dict, train_triplets):
    vocab = build_vocab(list(_corpus_tokens(train_triplets)), cfg["vocab_max_size"])
    return vocab, _section(path, cfg, "model", ModelConfig, vocab_size=len(vocab))


def cmd_build_qmdscnn(args) -> int:
    corpus = load_records(args.corpus, Article)
    triplets = dataforge.build_qmdscnn(corpus, seed=args.seed, k_retrieved=args.k)
    save_records(triplets, args.out)
    print(f"wrote {len(triplets)} triplets to {args.out}")
    hits = Counter(len(t.meta["retrieved_from"]) for t in triplets)
    buckets = " ".join(f"{n}:{hits[n]}" for n in range(args.k + 1))
    print(f"retrieved hits per triplet {buckets}")
    return EXIT_OK


def cmd_build_qmdsir(args) -> int:
    records = load_records(args.records, IrRecord)
    kept, rejected = dataforge.filter_qmdsir(records)
    save_records(kept, args.out)
    if args.reject_log:
        rows = ({"record": idx, "reason": reason} for idx, reason in rejected)
        write_jsonl(rows, args.reject_log)
    print(f"kept {len(kept)} of {len(records)} records ({len(rejected)} rejected)")
    reasons = Counter(reason for _, reason in rejected)
    print("rejected by reason " + " ".join(f"{r}:{reasons[r]}" for r in dataforge.REJECT_REASONS))
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = dataforge.triplet_stats(load_records(args.input, Triplet))
    print(f"samples {stats.samples}")
    print(f"avg_documents {stats.avg_documents:.4f}")
    print(f"avg_document_tokens {stats.avg_document_tokens:.4f}")
    print(f"avg_query_tokens {stats.avg_query_tokens:.4f}")
    return EXIT_OK


def cmd_query_variant(args) -> int:
    triplets = dataforge.make_query_variant(load_records(args.input, Triplet), args.variant)
    save_records(triplets, args.out)
    print(f"wrote {len(triplets)} {args.variant}-query triplets to {args.out}")
    return EXIT_OK


def cmd_align_hist(args) -> int:
    hist = dataforge.alignment_histogram(load_records(args.input, Triplet))
    for spans in sorted(hist):
        print(f"{spans} {hist[spans]}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    train_cfg = _section(args.config, cfg, "train", TrainConfig)
    if None in (train_cfg.train_path, train_cfg.val_path):
        raise ValueError(f"{args.config}: train.train_path and train.val_path must be set")
    train_triplets = load_records(train_cfg.train_path, Triplet)
    val_triplets = load_records(train_cfg.val_path, Triplet)
    if not val_triplets:
        raise ValueError(f"{args.config}: train.val_path {train_cfg.val_path} holds no triplets")
    vocab, model_cfg = _vocab_and_model(args.config, cfg, train_triplets)
    model = SummModel(model_cfg, seed=train_cfg.seed)
    result = train(model, train_cfg, train_triplets, val_triplets, vocab, resume_from=args.resume)
    print(f"best checkpoint {result.best_path} (val ROUGE-L {result.best_score:.4f})")
    print(f"latest checkpoint {result.latest_path} after {result.steps_run} steps")
    return EXIT_OK


def cmd_decode(args) -> int:
    decode_cfg = _decode_config(args)
    model, vocab, _ = load_model_checkpoint(args.ckpt)
    triplets = load_records(args.input, Triplet)
    decoded = decode_triplets(model, triplets, vocab, decode_cfg)
    write_jsonl(
        ({"id": row_id, "summary": " ".join(vocab.decode(ids))} for row_id, ids in decoded),
        args.out,
    )
    print(f"decoded {len(triplets)} triplets to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    decode_cfg = _decode_config(args)
    model, vocab, _ = load_model_checkpoint(args.ckpt)
    triplets = load_records(args.input, Triplet)
    report = evaluate(model, triplets, vocab, decode_cfg, mode=args.mode)
    print(report.format())
    return EXIT_OK


def cmd_transfer(args) -> int:
    cfg = _load_config(args.config)
    train_cfg = _section(args.config, cfg, "train", TrainConfig)
    sources = _sources(args.config, cfg)
    if args.source == "combined":
        if len(sources) != 2:
            raise ValueError(
                f"{args.config}: combined mode needs exactly two sources, config has {len(sources)}"
            )
        (tag_a, a), (tag_b, b) = sources.items()
        seed = train_cfg.seed
        train_triplets, val_triplets = (
            interleave(load_records(a[part], Triplet), load_records(b[part], Triplet), seed)
            for part in ("train", "val")
        )
    elif args.source in sources:
        src = sources[args.source]
        train_triplets = load_records(src["train"], Triplet)
        val_triplets = load_records(src["val"], Triplet)
    else:
        raise ValueError(
            f"{args.config}: unknown source {args.source!r}; config has {list(sources)}"
        )

    eval_triplets = load_records(args.eval_path, Triplet)
    vocab, model_cfg = _vocab_and_model(args.config, cfg, train_triplets)
    decode_cfg, finetune_cfg = TRANSFER_DECODE_DEFAULTS, None
    if "decode" in cfg:
        decode_cfg = _section(args.config, cfg, "decode", DecodeConfig)
    if "finetune" in cfg:
        finetune_cfg = _section(args.config, cfg, "finetune", TrainConfig)
    finetune_triplets = load_records(args.finetune, Triplet) if args.finetune else None
    spec = TransferSpec(model_cfg, train_cfg, decode_cfg, finetune_cfg)
    report, _ = transfer_pipeline(
        spec, train_triplets, val_triplets, eval_triplets, vocab, finetune_triplets
    )
    print(report.format())
    return EXIT_OK


def cmd_grad_check(args) -> int:
    names = [args.module] if args.module else None
    results = run_gradient_suite(names, seed=args.seed)
    worst = 0.0
    for name, err in results.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name} max_rel_err {err:.3e} {status}")
        worst = max(worst, err)
    return EXIT_OK if worst < TOLERANCE else EXIT_VALIDATION


COMMANDS = {
    "build-qmdscnn": cmd_build_qmdscnn,
    "build-qmdsir": cmd_build_qmdsir,
    "stats": cmd_stats,
    "query-variant": cmd_query_variant,
    "align-hist": cmd_align_hist,
    "train": cmd_train,
    "decode": cmd_decode,
    "evaluate": cmd_evaluate,
    "transfer": cmd_transfer,
    "grad-check": cmd_grad_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
