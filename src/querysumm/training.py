"""Training loop: token-budget batching, gradient accumulation, the warmup
optimizer, greedy validation decoding scored by ROUGE-L, and checkpointing.

One optimizer step consumes ``accum_steps`` micro-batches; gradients of the
per-example summed losses are accumulated and divided once by the total
token count, so k accumulated micro-batches update exactly like one k-fold
batch.  Batch order and dropout draws are pure functions of (seed, step),
which is what makes interrupted runs resumable bit-for-bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import backward, no_grad
from .checkpoint import load_arrays, load_meta, save_arrays
from .data import Triplet
from .decoding import DecodeConfig, greedy_decode
from .model import ModelConfig, ModelInput, SummModel, prepare_input
from .optim import AdamNoam
from .rouge import rouge_l
from .text import Vocabulary, tokenize


class NumericalAbort(RuntimeError):
    """Training stopped at ``step`` on a non-finite loss or gradient."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"{reason} at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    steps: int
    checkpoint_dir: str
    batch_tokens: int = 2048
    accum_steps: int = 1
    val_interval: int = 100
    seed: int = 0
    base_lr: float = 1.0
    warmup: int = 8000
    train_path: str | None = None
    val_path: str | None = None
    fine_tune_from: str | None = None

    def __post_init__(self):
        for name in ("steps", "batch_tokens", "accum_steps", "val_interval", "warmup"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.base_lr < float("inf"):
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")


@dataclass
class TrainResult:
    best_path: str
    latest_path: str
    best_score: float
    steps_run: int
    losses: list[float] = field(default_factory=list)
    val_scores: list[tuple[int, float]] = field(default_factory=list)


def example_size(inp: ModelInput) -> int:
    target = 0 if inp.target_ids is None else inp.target_ids.size
    return int(inp.token_mask.sum()) + target


def pack_batches(sizes: list[int], order: np.ndarray, budget: int) -> list[list[int]]:
    """Group example indices (in ``order``) greedily until the token budget
    is hit; every batch holds at least one example."""
    batches: list[list[int]] = []
    batch: list[int] = []
    used = 0
    for idx in order:
        size = sizes[int(idx)]
        if batch and used + size > budget:
            batches.append(batch)
            batch, used = [], 0
        batch.append(int(idx))
        used += size
    if batch:
        batches.append(batch)
    return batches


def validate(model: SummModel, val_inputs, val_refs, vocab: Vocabulary, decode_cfg=None) -> float:
    """Mean ROUGE-L F1 of greedy decodes against the references; encodes
    and decodes under ``no_grad``."""
    cfg = decode_cfg or DecodeConfig(
        beam=1, alpha=0.0, min_len=1, max_len=model.config.max_summary_tokens
    )
    scores = []
    for inp, ref_tokens in zip(val_inputs, val_refs):
        with no_grad():
            ids = greedy_decode(model, model.encode(inp), cfg)
        hyp = vocab.decode(ids)
        scores.append(rouge_l(hyp, ref_tokens).f1)
    return float(np.mean(scores)) if scores else 0.0


def save_model_checkpoint(path, model: SummModel, opt: AdamNoam, vocab: Vocabulary, meta: dict):
    """One atomic write of weights, optimizer moments, model config, vocabulary
    and ``meta``, whose ``step`` is where a resume continues."""
    meta = dict(meta, model_config=asdict(model.config), vocab=vocab.id_to_token[5:])
    save_arrays(path, {**model.state_arrays(), **opt.state_arrays()}, meta)


def _load_weights(model: SummModel, arrays: dict[str, np.ndarray], path) -> None:
    """``model.load_state_arrays`` whose missing-name or shape error is a
    ``ValueError`` naming the checkpoint ``path``."""
    try:
        model.load_state_arrays(arrays)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from exc


def load_model_checkpoint(path, dtype=np.float32) -> tuple[SummModel, Vocabulary, dict]:
    """Model, vocabulary and manifest of a checkpoint.  A manifest without
    ``model_config`` or ``vocab``, whose ``model_config`` ``ModelConfig``
    rejects, or whose ``vocab`` does not fill ``vocab_size`` raises a
    ``ValueError`` naming ``path``."""
    arrays, meta = load_arrays(path)
    for field in ("model_config", "vocab"):
        if field not in meta:
            raise ValueError(f"{path}: checkpoint manifest has no {field!r}")
    try:
        config = ModelConfig(**meta["model_config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model_config: {exc}") from exc
    vocab = Vocabulary(meta["vocab"])
    if len(vocab) != config.vocab_size:
        raise ValueError(
            f"{path}: vocab holds {len(vocab)} ids but model_config.vocab_size"
            f" is {config.vocab_size}"
        )
    model = SummModel(config, seed=0, dtype=dtype)
    _load_weights(model, arrays, path)
    return model, vocab, meta


def train(
    model: SummModel,
    cfg: TrainConfig,
    train_triplets: list[Triplet],
    val_triplets: list[Triplet],
    vocab: Vocabulary,
    resume_from: str | None = None,
) -> TrainResult:
    """Run the optimization loop and return paths to the best (by validation
    ROUGE-L) and latest checkpoints.  Each validation rewrites
    ``latest.ckpt``, and ``best.ckpt`` when the score improves, as one file
    each; either one resumes the run.  ``cfg.fine_tune_from`` loads only the
    weights of a checkpoint.  Raises ``NumericalAbort`` on a non-finite loss
    or gradient."""
    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    inputs = [prepare_input(t, vocab, model.config) for t in train_triplets]
    sizes = [example_size(inp) for inp in inputs]
    if max(sizes) > cfg.batch_tokens:
        raise ValueError(
            f"batch_tokens={cfg.batch_tokens} below largest example ({max(sizes)})"
        )
    val_inputs = [prepare_input(t, vocab, model.config) for t in val_triplets]
    val_refs = [tokenize(t.summary) for t in val_triplets]

    opt = AdamNoam(
        model.params, d_model=model.config.d_model, base_lr=cfg.base_lr, warmup=cfg.warmup
    )
    if resume_from or cfg.fine_tune_from:
        # A checkpoint of another vocabulary, or one without moments to
        # resume from, is refused before anything is loaded.
        path = resume_from or cfg.fine_tune_from
        arrays, meta = load_arrays(path)
        if meta.get("vocab") != vocab.id_to_token[5:]:
            raise ValueError(f"{path} was saved with a different vocabulary than this run's")
        if resume_from:
            try:
                opt.load_state_arrays(arrays, step=meta["step"])
            except KeyError as exc:
                raise ValueError(f"{path} holds no optimizer state to resume from") from exc
        _load_weights(model, arrays, path)
    start_step = opt.step_count

    def micro_batches():
        """Deterministic stream of micro-batches, reshuffled per epoch."""
        epoch = 0
        while True:
            order = np.random.default_rng([cfg.seed & 0xFFFFFFFF, 7, epoch]).permutation(
                len(inputs)
            )
            yield from pack_batches(sizes, order, cfg.batch_tokens)
            epoch += 1

    stream = micro_batches()
    for _ in range(start_step * cfg.accum_steps):
        next(stream)  # fast-forward a resumed run to its position

    best_path = os.path.join(cfg.checkpoint_dir, "best.ckpt")
    latest_path = os.path.join(cfg.checkpoint_dir, "latest.ckpt")
    best_score = -1.0
    if resume_from and os.path.exists(best_path):
        # Keep honoring the pre-interruption best instead of clobbering it.
        best_score = load_meta(best_path).get("val_rouge_l", -1.0)
    result = TrainResult(best_path, latest_path, best_score=best_score, steps_run=start_step)

    step = start_step
    while step < cfg.steps:
        opt.zero_grad()
        total_loss, total_count = 0.0, 0
        for a in range(cfg.accum_steps):
            micro = step * cfg.accum_steps + a
            for idx in next(stream):
                rng = np.random.default_rng([cfg.seed & 0xFFFFFFFF, 11, micro, idx])
                loss_sum, count = model.loss_sum(inputs[idx], rng=rng)
                backward(loss_sum)
                total_loss += loss_sum.item()
                total_count += count
                # Free this example's graph (activations and every node's
                # gradient) before the next forward builds its own.
                del loss_sum
        if not np.isfinite(total_loss):
            raise NumericalAbort(step, f"non-finite loss {total_loss}")
        for p in model.params.values():
            if p.grad is not None:
                p.grad /= total_count
        try:
            opt.step()
        except FloatingPointError as exc:
            raise NumericalAbort(step, str(exc)) from exc
        step += 1
        result.losses.append(total_loss / total_count)

        if step % cfg.val_interval == 0 or step == cfg.steps:
            score = validate(model, val_inputs, val_refs, vocab)
            result.val_scores.append((step, score))
            meta = {"step": step, "val_rouge_l": score}
            save_model_checkpoint(latest_path, model, opt, vocab, meta)
            if score > result.best_score:
                result.best_score = score
                save_model_checkpoint(best_path, model, opt, vocab, meta)
    result.steps_run = step
    return result
