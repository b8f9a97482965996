"""Greedy and beam-search decoding with length penalty and trigram blocking.

Finished hypotheses are ranked by ``logprob / lp(length)`` with
``lp(length) = ((5 + length) / 6) ** alpha``; length counts generated
summary tokens.  The end token is masked out until ``min_len`` tokens have
been produced and generation is cut off at ``max_len``.  With
``block_trigrams`` a hypothesis is never extended by a token that would
repeat one of its existing trigrams.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import log_softmax_values, no_grad
from .model import EncodedBatch, ModelInput, SummModel, check_fields
from .text import BOS_ID, EOS_ID, PAD_ID, QSEP_ID

# Never generated: structural ids that cannot appear inside a summary.
STRUCTURAL_IDS = (PAD_ID, BOS_ID, QSEP_ID)


@dataclass
class DecodeConfig:
    beam: int = 5
    alpha: float = 0.4
    min_len: int = 1
    max_len: int = 100
    block_trigrams: bool = False
    max_doc_tokens: int | None = None  # per-document truncation at decode time
    max_docs: int | None = None

    def __post_init__(self):
        check_fields(self, positive=("beam", "max_len", "max_doc_tokens", "max_docs"))
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.min_len < 0:
            raise ValueError(f"min_len must be >= 0, got {self.min_len}")
        if self.min_len > self.max_len:
            raise ValueError("min_len must not exceed max_len")


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def _add_trigram(continuations: dict, a: int, b: int, w: int) -> None:
    """Record that ``w`` followed the bigram ``(a, b)``.  The value is
    replaced, never changed in place, so a shallow copy of the map can be
    extended without touching the original."""
    continuations[a, b] = continuations.get((a, b), ()) + (w,)


def _extend_trigrams(maps: list[dict], parents: list[int], active) -> list[dict]:
    """Each kept hypothesis's trigram map: its parent's, plus the trigram
    that its newest token closes.  A parent's last kept child takes the map
    over; its earlier children copy it before that, so no map changes under
    another hypothesis."""
    last = {parent: j for j, parent in enumerate(parents)}
    out = []
    for j, (parent, (tokens, _)) in enumerate(zip(parents, active)):
        m = maps[parent] if last[parent] == j else dict(maps[parent])
        if len(tokens) >= 3:
            _add_trigram(m, *tokens[-3:])
        out.append(m)
    return out


def _masked_logprobs(logits: np.ndarray, active, trigrams, config) -> np.ndarray:
    """Next-token log-probabilities (B, vocab) of the B live hypotheses,
    which all have the same length, with every banned continuation at -inf.
    ``trigrams`` holds each hypothesis's map from a bigram to the tokens
    that followed it, or is ``None`` when trigrams are not blocked.

    A NaN or +inf logit raises ``FloatingPointError``: its row would mask
    to nothing and the hypothesis would finish as it is.  -inf is a logit
    of probability 0."""
    length = len(active[0][0])
    if not (logits < np.inf).all():
        raise FloatingPointError(
            f"decoding step {length + 1}: the model's logits are NaN or +inf"
        )
    logp = log_softmax_values(logits).astype(np.float64)
    logp[:, list(STRUCTURAL_IDS)] = -np.inf
    if length < config.min_len:
        logp[:, EOS_ID] = -np.inf
    if trigrams is not None and length >= 2:
        rows, ids = [], []
        for row, ((tokens, _), m) in enumerate(zip(active, trigrams)):
            banned = m.get((tokens[-2], tokens[-1]), ())
            rows += [row] * len(banned)
            ids += banned
        if rows:
            logp[rows, ids] = -np.inf
    return logp


def _best_ids(logp: np.ndarray, beam: int) -> np.ndarray:
    """Ids of the ``beam`` highest finite entries of ``logp``, best first,
    ties to the lowest id.  Only the entries at or above the ``beam``-th
    best score are sorted, so ties at the cut still go to the lowest ids."""
    ids = np.flatnonzero(np.isfinite(logp))
    if ids.size > beam:
        scores = logp[ids]
        cut = np.partition(scores, ids.size - beam)[ids.size - beam]
        ids = ids[scores >= cut]
    return ids[np.lexsort((ids, -logp[ids]))][:beam]


def greedy_decode(model: SummModel, enc: EncodedBatch, config: DecodeConfig) -> list[int]:
    """Pick the argmax token every step; ties go to the lowest id.  This is
    beam search with a beam of one."""
    return beam_search_nbest(model, enc, replace(config, beam=1))[0][0]


def beam_search_nbest(
    model: SummModel, enc: EncodedBatch, config: DecodeConfig
) -> list[tuple[list[int], float]]:
    """All finished hypotheses sorted by length-normalized score, best
    first.  Ties break toward lexicographically smaller token sequences.

    Every live hypothesis has the same length, so one ``DecoderState.step``
    advances them all; the cache then follows the survivors of pruning."""
    state = model.start_decoding(enc)
    active: list[tuple[list[int], float]] = [([], 0.0)]
    trigrams = [{}] if config.block_trigrams else None
    finished: list[tuple[list[int], float]] = []
    while active and len(active[0][0]) < config.max_len:
        logits = state.step([tokens[-1] if tokens else BOS_ID for tokens, _ in active])
        logp = _masked_logprobs(logits, active, trigrams, config)
        expansions: list[tuple[list[int], float, int]] = []  # + row of the parent
        for row, (tokens, score) in enumerate(active):
            best = _best_ids(logp[row], config.beam)
            if not best.size:
                finished.append((tokens, score))
                continue
            for v in best:
                lp_v = logp[row, v]
                if v == EOS_ID:
                    finished.append((tokens, score + float(lp_v)))
                else:
                    expansions.append((tokens + [int(v)], score + float(lp_v), row))
        expansions.sort(key=lambda e: (-e[1], e[0]))
        kept = expansions[: config.beam]
        active = [(tokens, score) for tokens, score, _ in kept]
        parents = [row for _, _, row in kept]
        if trigrams is not None:
            trigrams = _extend_trigrams(trigrams, parents, active)
        state.reorder(parents)
    finished.extend(active)  # cut off at max_len
    ranked = [
        (tokens, score / length_penalty(len(tokens), config.alpha))
        for tokens, score in finished
    ]
    ranked.sort(key=lambda ts: (-ts[1], ts[0]))
    return ranked


def beam_search(model: SummModel, enc: EncodedBatch, config: DecodeConfig) -> list[int]:
    """Best hypothesis of ``beam_search_nbest``, which is never empty: the
    loop runs at least once, a row that cannot expand finishes, and the
    hypotheses still live at ``max_len`` finish too."""
    return beam_search_nbest(model, enc, config)[0][0]


def decode_inputs(model: SummModel, inputs: Iterable[ModelInput], config: DecodeConfig):
    """The one forward-only loop: yield ``beam_search``'s ids per input,
    encoded and decoded under ``no_grad``, then yielded outside it, so graph
    building is back on while the consumer runs."""
    for inp in inputs:
        with no_grad():
            ids = beam_search(model, model.encode(inp), config)
        yield ids
