"""Finite-difference verification of every differentiable building block.

Each named check builds a small float64 fragment (dropout off), wraps it in
a weighted-sum loss so gradients are asymmetric, and compares analytic
gradients against central differences.  No parameter is excluded: every
parameter of every fragment is checked (the full-model checks sample their
coordinates from all of them).  ``run_gradient_suite`` drives the whole
set; the CLI ``grad-check`` subcommand and the acceptance tests both call
it, so there is exactly one definition of "the model differentiates
correctly".
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import (
    DecoderLayer,
    GlobalLayer,
    Linear,
    LocalLayer,
    ModelConfig,
    ModelInput,
    MultiHeadPooling,
    OrderingScores,
    ParamStore,
    QueryLayer,
    SummModel,
    ordering_encoding,
    sinusoid_table,
)
from .optim import grad_check
from .text import PAD_ID

TOLERANCE = 1e-4
FULL_CHECK_COORDS = 250  # sampled from all parameters by each full-model check

def _toy_config(**flags) -> ModelConfig:
    return ModelConfig(
        vocab_size=13,
        d_model=8,
        ffn_hidden=16,
        heads=2,
        local_layers=1,
        global_layers=1,
        decoder_layers=1,
        dropout=0.0,
        max_doc_tokens=6,
        max_docs=3,
        max_summary_tokens=6,
        **flags,
    )


def _states(rng, shape):
    return ad.tensor(rng.standard_normal(shape), np.float64)


def _token_mask(n, t):
    mask = np.ones((n, t), dtype=bool)
    mask[-1, -1] = False  # keep one padded position in play
    return mask


def _fragment(seed, build, **flags):
    """The weighted-sum loss of one layer fragment and the parameters it
    reads.  ``build(rng, cfg, store)`` makes the fragment, draws its inputs
    from ``rng`` and returns its forward closure; the loss weights are drawn
    from the same ``rng`` afterwards, shaped like the fragment's output."""
    rng = np.random.default_rng(seed)
    cfg = _toy_config(**flags)
    store = ParamStore(seed, np.float64)
    forward = build(rng, cfg, store)
    with ad.no_grad():
        shape = forward().shape
    w = ad.tensor(rng.standard_normal(shape), np.float64)
    return (lambda: ad.tsum(ad.mul(forward(), w))), store.params


def _local(rng, cfg, store):
    layer = LocalLayer(store, "local", cfg)
    x = _states(rng, (2, 4, cfg.d_model))
    mask = _token_mask(2, 4)
    return lambda: layer(x, mask)


def _pooling(rng, cfg, store):
    pool = MultiHeadPooling(store, "pool", cfg.d_model, cfg.heads)
    x = _states(rng, (2, 4, cfg.d_model))
    mask = _token_mask(2, 4)
    return lambda: pool(x, mask)


def _query(rng, cfg, store):
    """Query layer including gradients into the query embedding table."""
    layer = QueryLayer(store, "query", cfg)
    table = store.kaiming("query_embed", (cfg.vocab_size, cfg.d_model), fan_in=cfg.d_model)
    ids = np.array([5, 7, 6])
    pos = ad.tensor(sinusoid_table(ids.size, cfg.d_model, np.float64), np.float64)
    x = _states(rng, (2, 4, cfg.d_model))
    mask = _token_mask(2, 4)
    return lambda: layer(x, ad.add(ad.embedding_lookup(table, ids), pos), mask)


def _global(rng, cfg, store):
    layer = GlobalLayer(store, "global", cfg)
    # Four real documents plus one padded keep the inter-document attention
    # well conditioned for finite differencing.
    x = _states(rng, (5, 4, cfg.d_model))
    mask = np.ones((5, 4), dtype=bool)
    mask[4, :] = False  # a fully padded document
    mask[1, 3] = False  # and one padded token
    return lambda: layer(x, mask)[0]


def _ordering(rng, cfg, store):
    """Importance scores through the sinusoid re-encoding."""
    scores = OrderingScores(store, "ordering", cfg.d_model)
    vecs = _states(rng, (3, cfg.d_model))
    doc_mask = np.array([True, True, True])
    return lambda: ordering_encoding(scores(vecs, doc_mask), cfg.d_model)


def _merge(rng, cfg, store):
    merge = Linear(store, "merge", 2 * cfg.d_model, cfg.d_model)
    local = _states(rng, (2, 4, cfg.d_model))
    global_ = _states(rng, (2, 4, cfg.d_model))
    return lambda: merge([local, global_])


def _decoder(rng, cfg, store):
    layer = DecoderLayer(store, "decoder", cfg)
    x = _states(rng, (3, cfg.d_model))
    memory = _states(rng, (6, cfg.d_model))
    memory_mask = np.array([True] * 5 + [False])
    return lambda: layer(x, layer.cross_attn.project_kv(memory), memory_mask)


def _toy_input(rng, cfg) -> ModelInput:
    n, t = 2, 4
    ids = rng.integers(5, cfg.vocab_size, size=(n, t))
    ids[1, 3] = PAD_ID
    return ModelInput(
        doc_ids=ids.astype(np.int64),
        query_ids=np.array([6, 9], dtype=np.int64),
        target_ids=rng.integers(5, cfg.vocab_size, size=4).astype(np.int64),
    )


def check_full(seed=0, **flags) -> float:
    """End-to-end encoder -> decoder -> cross-entropy check."""
    rng = np.random.default_rng(seed)
    cfg = _toy_config(**flags)
    model = SummModel(cfg, seed=seed, dtype=np.float64)
    inp = _toy_input(rng, cfg)
    loss = lambda: model.loss(inp)
    return grad_check(loss, model.params, max_coords=FULL_CHECK_COORDS, seed=seed)


# name -> (fragment builder, ``_toy_config`` flags)
LAYER_CHECKS = {
    "local": (_local, {}),
    "pooling": (_pooling, {}),
    "query": (_query, dict(use_query_encoder=True)),
    "global": (_global, {}),
    "ordering": (_ordering, {}),
    "merge": (_merge, {}),
    "decoder": (_decoder, {}),
}

FULL_CHECKS = {
    "full-baseline": {},
    "full-merge": dict(use_hierarchical_merge=True),
    "full-ordering": dict(use_ordering=True),
    "full-query": dict(use_query_encoder=True),
    "full-joint": dict(use_query_encoder=True, use_hierarchical_merge=True, use_ordering=True),
}


def run_gradient_suite(names: list[str] | None = None, seed: int = 0) -> dict[str, float]:
    """Run the named checks (default: all) and return max relative errors."""
    available = list(LAYER_CHECKS) + list(FULL_CHECKS)
    names = names or available
    results = {}
    for name in names:
        if name in LAYER_CHECKS:
            build, flags = LAYER_CHECKS[name]
            results[name] = grad_check(*_fragment(seed, build, **flags))
        elif name in FULL_CHECKS:
            results[name] = check_full(seed=seed, **FULL_CHECKS[name])
        else:
            raise ValueError(f"unknown check {name!r}; available: {available}")
    return results
