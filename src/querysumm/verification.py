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
        baseline_query_prepend=flags.pop("baseline_query_prepend", False),
        **flags,
    )


def _states(rng, shape):
    return ad.tensor(rng.standard_normal(shape), np.float64)


def _token_mask(n, t):
    mask = np.ones((n, t), dtype=bool)
    mask[-1, -1] = False  # keep one padded position in play
    return mask


def check_local(seed=0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_config()
    store = ParamStore(seed, np.float64)
    layer = LocalLayer(store, "local", cfg)
    x = _states(rng, (2, 4, cfg.d_model))
    mask = _token_mask(2, 4)
    w = rng.standard_normal((2, 4, cfg.d_model))
    loss = lambda: ad.tsum(ad.mul(layer(x, mask), ad.tensor(w, np.float64)))
    return grad_check(loss, store.params)


def check_pooling(seed=0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_config()
    store = ParamStore(seed, np.float64)
    pool = MultiHeadPooling(store, "pool", cfg.d_model, cfg.heads)
    x = _states(rng, (2, 4, cfg.d_model))
    mask = _token_mask(2, 4)
    w = rng.standard_normal((2, cfg.d_model))
    loss = lambda: ad.tsum(ad.mul(pool(x, mask), ad.tensor(w, np.float64)))
    return grad_check(loss, store.params)


def check_query(seed=0) -> float:
    """Query layer including gradients into the query embedding table."""
    rng = np.random.default_rng(seed)
    cfg = _toy_config(use_query_encoder=True)
    store = ParamStore(seed, np.float64)
    layer = QueryLayer(store, "query", cfg)
    table = store.kaiming("query_embed", (cfg.vocab_size, cfg.d_model), fan_in=cfg.d_model)
    ids = np.array([5, 7, 6])
    pos = sinusoid_table(ids.size, cfg.d_model, np.float64)
    x = _states(rng, (2, 4, cfg.d_model))
    mask = _token_mask(2, 4)
    w = rng.standard_normal((2, 4, cfg.d_model))

    def loss():
        q = ad.add(ad.embedding_lookup(table, ids), ad.tensor(pos, np.float64))
        return ad.tsum(ad.mul(layer(x, q, mask), ad.tensor(w, np.float64)))

    return grad_check(loss, store.params)


def check_global(seed=0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_config()
    store = ParamStore(seed, np.float64)
    layer = GlobalLayer(store, "global", cfg)
    # Four real documents plus one padded keep the inter-document attention
    # well conditioned for finite differencing.
    x = _states(rng, (5, 4, cfg.d_model))
    mask = np.ones((5, 4), dtype=bool)
    mask[4, :] = False  # a fully padded document
    mask[1, 3] = False  # and one padded token
    w = rng.standard_normal((5, 4, cfg.d_model))
    loss = lambda: ad.tsum(ad.mul(layer(x, mask)[0], ad.tensor(w, np.float64)))
    return grad_check(loss, store.params)


def check_ordering(seed=0) -> float:
    """Importance scores through the sinusoid re-encoding."""
    rng = np.random.default_rng(seed)
    cfg = _toy_config()
    store = ParamStore(seed, np.float64)
    scores = OrderingScores(store, "ordering", cfg.d_model)
    vecs = _states(rng, (3, cfg.d_model))
    doc_mask = np.array([True, True, True])
    w = rng.standard_normal((3, cfg.d_model))

    def loss():
        r = scores(vecs, doc_mask)
        return ad.tsum(ad.mul(ordering_encoding(r, cfg.d_model), ad.tensor(w, np.float64)))

    return grad_check(loss, store.params)


def check_merge(seed=0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_config()
    store = ParamStore(seed, np.float64)
    merge = Linear(store, "merge", 2 * cfg.d_model, cfg.d_model)
    local = _states(rng, (2, 4, cfg.d_model))
    global_ = _states(rng, (2, 4, cfg.d_model))
    w = rng.standard_normal((2, 4, cfg.d_model))
    loss = lambda: ad.tsum(
        ad.mul(merge(ad.concat([local, global_], axis=-1)), ad.tensor(w, np.float64))
    )
    return grad_check(loss, store.params)


def check_decoder(seed=0) -> float:
    rng = np.random.default_rng(seed)
    cfg = _toy_config()
    store = ParamStore(seed, np.float64)
    layer = DecoderLayer(store, "decoder", cfg)
    x = _states(rng, (3, cfg.d_model))
    memory = _states(rng, (6, cfg.d_model))
    memory_mask = np.array([True] * 5 + [False])
    w = rng.standard_normal((3, cfg.d_model))
    loss = lambda: ad.tsum(
        ad.mul(
            layer(x, layer.project_memory(memory), memory_mask)[0], ad.tensor(w, np.float64)
        )
    )
    return grad_check(loss, store.params)


def _toy_input(rng, cfg) -> ModelInput:
    n, t = 2, 4
    ids = rng.integers(5, cfg.vocab_size, size=(n, t))
    ids[1, 3] = PAD_ID
    return ModelInput(
        doc_ids=ids.astype(np.int64),
        query_ids=np.array([6, 9], dtype=np.int64),
        target_ids=rng.integers(5, cfg.vocab_size, size=4).astype(np.int64),
    )


def check_full(seed=0, max_coords=400, **flags) -> float:
    """End-to-end encoder -> decoder -> cross-entropy check."""
    rng = np.random.default_rng(seed)
    cfg = _toy_config(**flags)
    model = SummModel(cfg, seed=seed, dtype=np.float64)
    inp = _toy_input(rng, cfg)
    loss = lambda: model.loss(inp)
    return grad_check(loss, model.params, max_coords=max_coords, seed=seed)


LAYER_CHECKS = {
    "local": check_local,
    "pooling": check_pooling,
    "query": check_query,
    "global": check_global,
    "ordering": check_ordering,
    "merge": check_merge,
    "decoder": check_decoder,
}

FULL_CHECKS = {
    "full-baseline": dict(baseline_query_prepend=True),
    "full-merge": dict(use_hierarchical_merge=True, baseline_query_prepend=True),
    "full-ordering": dict(use_ordering=True, baseline_query_prepend=True),
    "full-query": dict(use_query_encoder=True),
    "full-joint": dict(
        use_query_encoder=True, use_hierarchical_merge=True, use_ordering=True
    ),
}


def run_gradient_suite(
    names: list[str] | None = None, seed: int = 0, max_full_coords: int = 250
) -> dict[str, float]:
    """Run the named checks (default: all) and return max relative errors."""
    available = list(LAYER_CHECKS) + list(FULL_CHECKS)
    names = names or available
    results = {}
    for name in names:
        if name in LAYER_CHECKS:
            results[name] = LAYER_CHECKS[name](seed=seed)
        elif name in FULL_CHECKS:
            results[name] = check_full(seed=seed, max_coords=max_full_coords, **FULL_CHECKS[name])
        else:
            raise ValueError(f"unknown check {name!r}; available: {available}")
    return results
