"""Hierarchical query-focused multi-document summarizer.

Encoder stack: shared token embeddings with concatenated inter-document /
intra-document sinusoid positions, per-document local transformer layers,
an optional query layer conditioning token states on a pooled query vector,
and global layers exchanging information across documents through
multi-head pooling plus inter-document attention.  Three switchable
components extend the baseline:

* query encoder  - a separate query embedding table and one query layer
  instead of prepending the query text to the first document;
* ordering       - a structured self-attention hop producing one importance
  score per document, re-encoded as a sinusoid and concatenated onto the
  global states (the inter-document position half of the input encoding is
  zeroed so document order itself carries no signal);
* hierarchical merge - decoder memory built from both the final local and
  final global states via a learned projection, instead of global alone.

The decoder is a standard causal transformer layer with cross-attention
over the flattened encoder memory; output logits reuse the tied input
embedding, scaled by d_model^-0.5 so an untrained model is near-uniform.

Every sub-layer of every block joins its input through one post-norm
residual, ``LayerNorm(x + Dropout(Sublayer(x)))`` (Vaswani et al., 2017),
whose parameters an ``AddNorm`` holds.  A block only wires its sub-layers
together.  Every join but the FFN's is one autodiff node, ``ad.add_norm``,
which keeps only its dropout mask, packed to one bit an element: backward
rebuilds the normalised sum.

A projection that a fused node computes itself is handed to it as the
projection operand ``(x, w, b)``, which only ``Linear.of`` builds.  The
node keeps ``x`` and the weights, not the projected output, which
backward rebuilds; ``x`` may be a list of parts read as their
concatenation (the global layer's ``fold``, ``ordering_fold``,
``merge``), so no concat is kept either.  Every join but the query
layer's joins such an operand of its sub-layer's last linear (attention's
``wo``, the global layer's ``fold``).  Every attention is one
``ad.attention`` node over the operands of its q, k and v projections; its
output is laid out so that merging its heads is a view.  The whole FFN
sub-layer with its join is one node too, ``ad.feed_forward``: it keeps
what the join keeps plus the packed mask of the hidden layer
``Dropout(relu(w1(x)))``, not the hidden layer itself, which backward
rebuilds from ``x`` and that mask, nor ``w2``'s output.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import kaiming_uniform
from .text import BOS_ID, EOS_ID, PAD_ID, QSEP_ID, Vocabulary, tokenize


# Annotation without "| None" -> the type a value must have (a bool is
# neither an integer nor a real number) and its noun.
FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
}


@functools.cache
def _field_kinds(cls) -> tuple:
    """(name, type, noun, None allowed) per field of dataclass ``cls``."""
    kinds = []
    for f in fields(cls):
        kind = str(f.type).removesuffix(" | None")
        if kind not in FIELD_KINDS:
            raise TypeError(f"{cls.__name__}.{f.name}: unsupported annotation {f.type!r}")
        kinds.append((f.name, *FIELD_KINDS[kind], kind != f.type))
    return tuple(kinds)


def check_fields(config, positive=()) -> None:
    """Raise ``ValueError`` naming the first field of dataclass ``config``
    that its annotation does not admit, then the first ``positive`` field
    that is set and below 1; an annotation not in ``FIELD_KINDS`` raises."""
    for name, kind, noun, optional in _field_kinds(type(config)):
        value = getattr(config, name)
        if value is None and optional:
            continue
        if (isinstance(value, bool) and kind is not bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {noun}, got {value!r}")
    for name in positive:
        value = getattr(config, name)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 256
    ffn_hidden: int = 1024
    heads: int = 8
    local_layers: int | None = None
    global_layers: int = 2
    decoder_layers: int = 1
    dropout: float = 0.1
    use_query_encoder: bool = False
    use_hierarchical_merge: bool = False
    use_ordering: bool = False
    max_doc_tokens: int = 200
    max_docs: int = 8
    max_summary_tokens: int = 100

    def __post_init__(self):
        if self.local_layers is None:
            self.local_layers = 5 if self.use_query_encoder else 6
        check_fields(self, positive=(
            "d_model", "ffn_hidden", "heads", "local_layers", "global_layers", "decoder_layers",
            "max_doc_tokens", "max_docs", "max_summary_tokens",
        ))
        if self.d_model % self.heads:
            raise ValueError("d_model must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % 4:
            raise ValueError("d_model must be divisible by 4 for split sinusoids")
        if self.vocab_size <= 5:
            raise ValueError("vocab_size must exceed the 5 reserved ids")


def joint_flags(dataset: str) -> dict:
    """Component combination of the joint model per dataset family.

    Title-query datasets with weak queries (``wikisum``) combine the
    hierarchical merge with the ordering component; datasets whose queries
    carry real signal (``qmdscnn``, ``qmdsir``) combine the merge with the
    query encoder instead.
    """
    if dataset in ("qmdscnn", "qmdsir"):
        return dict(use_hierarchical_merge=True, use_query_encoder=True)
    if dataset == "wikisum":
        return dict(use_hierarchical_merge=True, use_ordering=True)
    raise ValueError(f"unknown dataset family {dataset!r}")


def real_documents(token_mask) -> np.ndarray:
    """(N,) bool: a document is real iff it holds a real token."""
    return np.asarray(token_mask, dtype=bool).any(axis=-1)


@dataclass
class ModelInput:
    """Encoder input as ids only.  A token is real iff its id is not
    ``PAD_ID``; every encoder mask derives from that rule, so padding is
    stated once, in ``doc_ids``."""

    doc_ids: np.ndarray  # (N, T), each document padded with PAD_ID
    query_ids: np.ndarray  # (Tq,), read by the query encoder only
    target_ids: np.ndarray | None = None  # summary ids, no specials

    @property
    def token_mask(self) -> np.ndarray:
        """(N, T) bool, True at the real tokens of ``doc_ids``."""
        return self.doc_ids != PAD_ID


@dataclass
class EncodedBatch:
    """Encoder output: the decoder reads ``memory`` under ``memory_mask``,
    True at the real tokens of the flattened (N*T) document grid."""

    token_states: Tensor  # final global-layer output (N, T, d)
    local_states: Tensor  # final local-layer output (N, T, d)
    memory: Tensor  # flattened decoder memory (N*T, d)
    memory_mask: np.ndarray  # (N*T,) bool
    ordering: Tensor | None = None  # importance scores r (N,), only with ordering on


def prepare_input(triplet, vocab: Vocabulary, config: ModelConfig) -> ModelInput:
    """Tokenize, numericalize and truncate one triplet into encoder input.

    The only place input limits apply: at most ``max_docs`` documents,
    each document and the query cut to ``max_doc_tokens``, the target to
    ``max_summary_tokens``.  Without the query encoder a non-empty query
    plus separator become the head of document 1 before its cut.
    The model encodes the result as given."""
    docs = [vocab.encode(tokenize(d)) for d in triplet.documents[: config.max_docs]]
    query_ids = vocab.encode(tokenize(triplet.query))[: config.max_doc_tokens]
    if config.use_query_encoder and not query_ids:
        raise ValueError("query encoder requires a query with at least one token")
    if not config.use_query_encoder and query_ids and docs:
        docs[0] = query_ids + [QSEP_ID] + docs[0]
    doc_ids = [ids[: config.max_doc_tokens] for ids in docs]
    target = None
    if triplet.summary:
        target = np.array(
            vocab.encode(tokenize(triplet.summary))[: config.max_summary_tokens],
            dtype=np.int64,
        )
    width = max(1, max((len(ids) for ids in doc_ids), default=1))
    ids = np.full((len(doc_ids), width), PAD_ID, dtype=np.int64)
    for i, row in enumerate(doc_ids):
        ids[i, : len(row)] = row
    return ModelInput(
        doc_ids=ids,
        query_ids=np.asarray(query_ids, dtype=np.int64),
        target_ids=target,
    )


def sinusoid_table(n_positions: int, dim: int, dtype=np.float32, start: int = 0) -> np.ndarray:
    """Standard sin/cos position table of positions ``start`` ..
    ``start + n_positions - 1``: even column 2j is sin(pos / 10000^(2j/dim)),
    odd column 2j+1 the matching cosine.  Each row depends only on its
    position."""
    pos = np.arange(start, start + n_positions, dtype=np.float64)[:, None]
    j2 = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, j2 / dim)
    table = np.zeros((n_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table.astype(dtype)


def ordering_encoding(r: Tensor, d_model: int) -> Tensor:
    """Sinusoid encoding of real-valued importance scores, one row per
    document: column 2j is sin(r_i / 10000^(2j/d_model)), column 2j+1 the
    matching cosine.  Differentiable in r."""
    if d_model % 2:
        raise ValueError("d_model must be even")
    n = r.shape[0]
    half = d_model // 2
    inv = 1.0 / np.power(10000.0, 2.0 * np.arange(half) / d_model)
    angles = ad.mul(ad.reshape(r, (n, 1)), ad.tensor(inv[None, :], dtype=r.dtype))
    s = ad.reshape(ad.sin(angles), (n, half, 1))
    c = ad.reshape(ad.cos(angles), (n, half, 1))
    return ad.reshape(ad.concat([s, c], axis=2), (n, d_model))


class ParamStore:
    """Creates and registers named parameters with a shared seeded rng, so a
    fixed seed plus fixed construction order yields identical models."""

    def __init__(self, seed: int, dtype):
        self.rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x5EED])
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def _register(self, name: str, values) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name}")
        t = ad.parameter(values, dtype=self.dtype)
        self.params[name] = t
        return t

    def kaiming(self, name: str, shape, fan_in: int) -> Tensor:
        return self._register(name, kaiming_uniform(shape, fan_in, self.rng))

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape))


class Linear:
    def __init__(self, store, name, d_in, d_out, bias=True):
        self.w = store.kaiming(f"{name}.w", (d_in, d_out), fan_in=d_in)
        self.b = store.zeros(f"{name}.b", (d_out,)) if bias else None

    def of(self, x) -> tuple:
        """The projection operand ``(x, w, b)`` of ``x``, for a fused node
        to compute; ``x`` is a tensor or a list of parts read as their
        last-axis concatenation, which no node keeps."""
        return x, self.w, self.b

    def __call__(self, x) -> Tensor:
        return ad.linear(*self.of(x))


class AddNorm:
    """The post-norm residual join of every sub-layer:
    ``LayerNorm(x + Dropout(y))`` for a sub-layer output ``y`` of ``x``.
    ``y`` is a tensor or, where the join owns the sub-layer's output
    projection, that ``Linear``'s operand ``proj.of(out)``, so the
    projected output is never a graph node."""

    def __init__(self, store, name, cfg: ModelConfig):
        self.gain = store.ones(f"{name}.gain", (cfg.d_model,))
        self.bias = store.zeros(f"{name}.bias", (cfg.d_model,))
        self.rate = cfg.dropout

    def __call__(self, x: Tensor, y, rng=None) -> Tensor:
        return ad.add_norm(x, y, self.gain, self.bias, self.rate, rng)


class FeedForward:
    """The FFN sub-layer with its join,
    ``LayerNorm(x + Dropout(w2(Dropout(relu(w1(x))))))``, the hidden mask
    drawn before the join's.  It is one node, ``ad.feed_forward``, which
    keeps the join's mask and the hidden mask, and rebuilds the hidden
    layer and the join's normalised sum in backward instead of keeping
    them; the join's parameters are ``norm``'s."""

    def __init__(self, store, name, norm_name, cfg: ModelConfig):
        self.w1 = Linear(store, f"{name}.w1", cfg.d_model, cfg.ffn_hidden)
        self.w2 = Linear(store, f"{name}.w2", cfg.ffn_hidden, cfg.d_model)
        self.norm = AddNorm(store, norm_name, cfg)

    def __call__(self, x, rng=None):
        w1, w2, norm = self.w1, self.w2, self.norm
        return ad.feed_forward(x, w1.w, w1.b, w2.w, w2.b, norm.gain, norm.bias, norm.rate, rng)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., T, d) -> (..., heads, T, d // heads)."""
    *lead, t, d = x.shape
    return ad.swapaxes(ad.reshape(x, (*lead, t, heads, d // heads)), -2, -3)


class MultiHeadAttention:
    """Scaled dot-product attention, heads split from d_model.

    ``project_kv`` turns a source (..., Tk, d_model) into the key and value
    projections that ``__call__`` attends over with queries
    (..., Tq, d_model).  The attention node computes them, and the query
    projection, itself, so a graph keeps the source and the weights but no
    projected q, k or v.  ``cached_kv`` computes the keys and values
    instead, for decoding to keep; a size-1 leading axis there is shared by
    the whole query batch.  ``key_mask`` is (..., Tk) boolean and
    ``causal`` lets query i see keys up to ``Tk - Tq + i``: the keys end
    with the queries' own positions, possibly after cached earlier ones.
    ``context`` returns the context with heads merged, before the output
    projection ``wo``, for a join that owns ``wo``; ``__call__`` returns
    the projected context.
    """

    def __init__(self, store, name, d_model, heads):
        self.heads = heads
        self.dk = d_model // heads
        self.wq = Linear(store, f"{name}.wq", d_model, d_model)
        # Key bias would shift every logit of a softmax row equally, so it
        # is inert; omit it rather than carry a dead parameter.
        self.wk = Linear(store, f"{name}.wk", d_model, d_model, bias=False)
        self.wv = Linear(store, f"{name}.wv", d_model, d_model)
        self.wo = Linear(store, f"{name}.wo", d_model, d_model)

    def project_kv(self, source: Tensor) -> tuple[tuple, tuple]:
        """The key and value projection operands of ``source``, for the
        attention node to compute."""
        return self.wk.of(source), self.wv.of(source)

    def cached_kv(self, source: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of ``source`` as C-contiguous (..., heads, Tk,
        dk) constants, for decoding to keep and attend over at every step;
        call it under ``ad.no_grad``."""
        heads = (_split_heads(proj(source), self.heads).values for proj in (self.wk, self.wv))
        return tuple(ad.tensor(np.ascontiguousarray(h), source.dtype) for h in heads)

    def context(self, query, kv, key_mask=None, causal=False) -> Tensor:
        """(..., Tq, d_model) from ``kv``, the pair ``project_kv`` or
        ``cached_kv`` returns; ``attention``'s output layout makes the merge
        of heads a view."""
        k, v = kv
        tq = query.shape[-2]
        tk = (k if isinstance(k, Tensor) else k[0]).shape[-2]
        mask = None
        if key_mask is not None:
            mask = np.asarray(key_mask, dtype=bool)[..., None, None, :]
        if causal and tq > 1:  # one query sees every key
            tri = np.tril(np.ones((tq, tk), dtype=bool), k=tk - tq)
            mask = tri if mask is None else mask & tri
        ctx = ad.attention(self.wq.of(query), k, v, 1.0 / math.sqrt(self.dk), mask, self.heads)
        ctx = ad.swapaxes(ctx, -2, -3)
        *lead, t, h, dk = ctx.shape
        return ad.reshape(ctx, (*lead, t, h * dk))

    def __call__(self, query, kv, key_mask=None) -> Tensor:
        return self.wo(self.context(query, kv, key_mask))


class MultiHeadPooling:
    """Reduce token states (..., T, d) to one vector (..., d): per head, a
    learned scalar score per token is softmax-normalized (masked) and used
    to average per-head value projections; heads are concatenated and
    projected back to d_model.  A fully masked row averages nothing and
    pools to ``out(0)``, the output bias."""

    def __init__(self, store, name, d_model, heads):
        self.heads = heads
        # A score bias shifts a whole softmax row, so it is inert; skip it.
        self.score = Linear(store, f"{name}.score", d_model, heads, bias=False)
        self.value = Linear(store, f"{name}.value", d_model, d_model)
        self.out = Linear(store, f"{name}.out", d_model, d_model)

    def __call__(self, x: Tensor, mask=None):
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)[..., None, :]
        *lead, t, d = x.shape
        scores = ad.swapaxes(self.score(x), -1, -2)  # (..., H, T)
        attn = ad.softmax(scores, mask)
        v = _split_heads(self.value(x), self.heads)  # (..., H, T, dk)
        pooled = ad.matmul(ad.reshape(attn, (*lead, self.heads, 1, t)), v)
        return self.out(ad.reshape(pooled, (*lead, d)))


def _broadcast_vector(vec: Tensor, t: int) -> Tensor:
    """Expand (N, d) to (N, T, d) as a view."""
    n, d = vec.shape
    return ad.broadcast_to(ad.reshape(vec, (n, 1, d)), (n, t, d))


class LocalLayer:
    """Per-document transformer layer: self-attention never crosses
    document boundaries."""

    def __init__(self, store, name, cfg: ModelConfig):
        self.attn = MultiHeadAttention(store, f"{name}.attn", cfg.d_model, cfg.heads)
        self.ln1 = AddNorm(store, f"{name}.ln1", cfg)
        self.ffn = FeedForward(store, f"{name}.ffn", f"{name}.ln2", cfg)

    def __call__(self, x, token_mask, rng=None):
        ctx = self.attn.context(x, self.attn.project_kv(x), key_mask=token_mask)
        return self.ffn(self.ln1(x, self.attn.wo.of(ctx), rng), rng)


class QueryLayer:
    """Condition document token states on the query: the projected pooled
    query vector is added to every token of each real document, followed by
    the usual FFN sub-layer.

    This is the closed form of attention whose value is the pooled query at
    every key: the softmax weights over a document's real tokens sum to 1,
    so every token receives ``wv(pooled)`` whatever the queries and keys.
    A fully padded document has no weights and receives zero context, so
    ``wo(0)``.  Query/key projections could not affect the output, so the
    layer has none.
    """

    def __init__(self, store, name, cfg: ModelConfig):
        self.pool = MultiHeadPooling(store, f"{name}.pool", cfg.d_model, cfg.heads)
        # "attn.wv" and "attn.wo" are the checkpoint format's names.
        self.wv = Linear(store, f"{name}.attn.wv", cfg.d_model, cfg.d_model)
        self.wo = Linear(store, f"{name}.attn.wo", cfg.d_model, cfg.d_model)
        self.ln1 = AddNorm(store, f"{name}.ln1", cfg)
        self.ffn = FeedForward(store, f"{name}.ffn", f"{name}.ln2", cfg)

    def __call__(self, x, query_states, token_mask, rng=None):
        ctx = self.wv(self.pool(query_states))  # (d,)
        real = real_documents(token_mask)
        ctx = ad.mul(ad.tensor(real[:, None], dtype=x.dtype), ad.reshape(ctx, (1, -1)))
        a = _broadcast_vector(self.wo(ctx), x.shape[1])  # wo per document, not per token
        return self.ffn(self.ln1(x, a, rng), rng)


class GlobalLayer:
    """Cross-document layer: pool each document to a vector, run
    inter-document attention over the vectors, then fold each document's
    context back into its token states via a projection of their
    concatenation (which the join owns and never keeps), residual and FFN.
    Inter-document attention sees only real documents, those with a real
    token in ``token_mask``."""

    def __init__(self, store, name, cfg: ModelConfig):
        self.pool = MultiHeadPooling(store, f"{name}.pool", cfg.d_model, cfg.heads)
        self.inter = MultiHeadAttention(store, f"{name}.inter", cfg.d_model, cfg.heads)
        self.fold = Linear(store, f"{name}.fold", 2 * cfg.d_model, cfg.d_model)
        self.ln1 = AddNorm(store, f"{name}.ln1", cfg)
        self.ffn = FeedForward(store, f"{name}.ffn", f"{name}.ln2", cfg)

    def __call__(self, x, token_mask, rng=None):
        doc_mask = real_documents(token_mask)
        if not doc_mask.any():
            raise ValueError("global layer needs at least one real document")
        n, t, d = x.shape
        doc_vectors = self.pool(x, token_mask)  # (N, d)
        seq = ad.reshape(doc_vectors, (1, n, d))
        ctx = self.inter(seq, self.inter.project_kv(seq), key_mask=doc_mask[None, :])
        ctx = ad.reshape(ctx, (n, d))
        both = [x, _broadcast_vector(ctx, t)]
        return self.ffn(self.ln1(x, self.fold.of(both), rng), rng), doc_vectors


class OrderingScores:
    """Single-hop structured self-attention over document vectors: one
    non-negative importance score per real document, summing to 1."""

    def __init__(self, store, name, d_model):
        self.w1 = Linear(store, f"{name}.w1", d_model, d_model, bias=False)
        self.w2 = Linear(store, f"{name}.w2", d_model, 1, bias=False)

    def __call__(self, doc_vectors: Tensor, doc_mask) -> Tensor:
        n = doc_vectors.shape[0]
        logits = ad.reshape(self.w2(ad.tanh(self.w1(doc_vectors))), (1, n))
        r = ad.softmax(logits, np.asarray(doc_mask, dtype=bool)[None, :])
        return ad.reshape(r, (n,))


class DecoderLayer:
    def __init__(self, store, name, cfg: ModelConfig):
        self.self_attn = MultiHeadAttention(store, f"{name}.self", cfg.d_model, cfg.heads)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross", cfg.d_model, cfg.heads)
        self.ln1 = AddNorm(store, f"{name}.ln1", cfg)
        self.ln2 = AddNorm(store, f"{name}.ln2", cfg)
        self.ffn = FeedForward(store, f"{name}.ffn", f"{name}.ln3", cfg)

    def __call__(self, x, memory_kv, memory_mask, rng=None, self_kv=None):
        """Run positions x (..., S, d): causal self-attention, then
        cross-attention against ``memory_kv`` (``cross_attn.project_kv``'s
        of the encoder memory, or a decoding cache's), then the FFN.  x's
        queries attend over ``self_kv``: by default x's own K/V
        projections; incremental decoding passes its cache
        (``cached_kv``), whose positions end with x's own."""
        sa, ca = self.self_attn, self.cross_attn
        kv = sa.project_kv(x) if self_kv is None else self_kv
        x = self.ln1(x, sa.wo.of(sa.context(x, kv, causal=True)), rng)
        x = self.ln2(x, ca.wo.of(ca.context(x, memory_kv, key_mask=memory_mask)), rng)
        return self.ffn(x, rng)


class SummModel:
    """Complete encoder-decoder; see the module docstring for the layout.

    ``dtype=np.float64`` switches the whole model into checking mode where
    finite differences are meaningful; training uses float32.  Dropout runs
    iff an ``rng`` is given to ``encode``, ``decode_logits``, ``loss_sum``
    or ``loss``; without one they are deterministic.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        store = ParamStore(seed, dtype)
        cfg = config
        d = cfg.d_model
        self.embed = store.kaiming("embed", (cfg.vocab_size, d), fan_in=d)
        self.local = [LocalLayer(store, f"local.{i}", cfg) for i in range(cfg.local_layers)]
        if cfg.use_query_encoder:
            self.query_embed = store.kaiming("query_embed", (cfg.vocab_size, d), fan_in=d)
            # "query.0" is the checkpoint format's name for this layer.
            self.query = QueryLayer(store, "query.0", cfg)
        self.globals_ = [GlobalLayer(store, f"global.{i}", cfg) for i in range(cfg.global_layers)]
        if cfg.use_ordering:
            self.ordering = OrderingScores(store, "ordering", d)
            self.ordering_fold = Linear(store, "ordering_fold", 2 * d, d)
        if cfg.use_hierarchical_merge:
            self.merge = Linear(store, "merge", 2 * d, d)
        self.decoder = [DecoderLayer(store, f"decoder.{i}", cfg) for i in range(cfg.decoder_layers)]
        self.params = store.params

    # --- input embedding -----------------------------------------------

    def _embed(self, table: Tensor, ids: np.ndarray, pos: np.ndarray) -> Tensor:
        """Rows ``ids`` of ``table`` scaled by sqrt(d_model), plus ``pos``."""
        emb = ad.scale(ad.embedding_lookup(table, ids), math.sqrt(self.config.d_model))
        return ad.add(emb, ad.tensor(pos, dtype=self.dtype))

    def embed_inputs(self, inp: ModelInput) -> Tensor:
        """Token embedding plus [inter-document ; intra-document] sinusoid
        concatenation; the inter half is zeroed when ordering is on."""
        cfg = self.config
        n, t = inp.doc_ids.shape
        half = cfg.d_model // 2
        inter = sinusoid_table(n, half, self.dtype)
        if cfg.use_ordering:
            inter = np.zeros_like(inter)
        intra = sinusoid_table(t, half, self.dtype)
        pos = np.concatenate(
            [np.repeat(inter[:, None, :], t, axis=1), np.repeat(intra[None, :, :], n, axis=0)],
            axis=-1,
        )
        return self._embed(self.embed, inp.doc_ids, pos)

    def embed_query(self, query_ids: np.ndarray) -> Tensor:
        if query_ids.size == 0:
            raise ValueError("query encoder requires a non-empty query")
        pos = sinusoid_table(query_ids.size, self.config.d_model, self.dtype)
        return self._embed(self.query_embed, query_ids, pos)

    # --- encoder ---------------------------------------------------------

    def encode(self, inp: ModelInput, rng=None) -> EncodedBatch:
        cfg = self.config
        token_mask = inp.token_mask
        x = self.embed_inputs(inp)
        x = ad.dropout(x, cfg.dropout, rng)
        for layer in self.local:
            x = layer(x, token_mask, rng)
        local_states = x
        if cfg.use_query_encoder:
            q = self.embed_query(inp.query_ids)
            q = ad.dropout(q, cfg.dropout, rng)
            x = self.query(x, q, token_mask, rng)
        for layer in self.globals_:
            x, doc_vectors = layer(x, token_mask, rng)
        token_states = x

        r = None
        branch = token_states
        if cfg.use_ordering:
            r = self.ordering(doc_vectors, real_documents(token_mask))
            _, t, d = token_states.shape
            pe_b = _broadcast_vector(ordering_encoding(r, d), t)
            branch = self.ordering_fold([branch, pe_b])
        if cfg.use_hierarchical_merge:
            branch = self.merge([local_states, branch])

        n, t, d = token_states.shape
        memory = ad.reshape(branch, (n * t, d))
        return EncodedBatch(
            token_states=token_states,
            local_states=local_states,
            memory=memory,
            memory_mask=token_mask.reshape(-1),
            ordering=r,
        )

    # --- decoder ---------------------------------------------------------

    def embed_target(self, ids: np.ndarray, start: int) -> Tensor:
        """Decoder input: scaled embeddings of ``ids`` (..., S) plus the
        sinusoids of positions ``start`` .. ``start + S - 1``."""
        pos = sinusoid_table(ids.shape[-1], self.config.d_model, self.dtype, start)
        return self._embed(self.embed, ids, pos)

    def output_logits(self, x: Tensor) -> Tensor:
        """Vocabulary logits of final decoder states (..., d)."""
        logits = ad.linear(x, ad.swapaxes(self.embed, 0, 1))
        return ad.scale(logits, 1.0 / math.sqrt(self.config.d_model))

    def decode_logits(self, prefix_ids, memory: Tensor, memory_mask, rng=None) -> Tensor:
        """Logits (S, vocab) for every position of the decoder prefix, which
        must start with the sequence-start id.

        The full-sequence forward: ``loss_sum`` trains through it, and it is
        the oracle that ``DecoderState.step`` is tested against.  Decoding
        runs through ``start_decoding`` instead."""
        prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
        if prefix_ids.size == 0 or prefix_ids[0] != BOS_ID:
            raise ValueError("decoder prefix must start with the sequence-start token")
        x = ad.dropout(self.embed_target(prefix_ids, 0), self.config.dropout, rng)
        for layer in self.decoder:
            x = layer(x, layer.cross_attn.project_kv(memory), memory_mask, rng)
        return self.output_logits(x)

    def start_decoding(self, enc: EncodedBatch) -> DecoderState:
        """Incremental decoder over ``enc``; see ``DecoderState``."""
        return DecoderState(self, enc)

    # --- losses ----------------------------------------------------------

    def loss_sum(self, inp: ModelInput, rng=None) -> tuple[Tensor, int]:
        """Summed token cross-entropy against the target plus the token
        count, for exact gradient accumulation across micro-batches."""
        if inp.target_ids is None or inp.target_ids.size == 0:
            raise ValueError("loss needs target ids")
        enc = self.encode(inp, rng)
        dec_in = np.concatenate([[BOS_ID], inp.target_ids])
        dec_tgt = np.concatenate([inp.target_ids, [EOS_ID]])
        logits = self.decode_logits(dec_in, enc.memory, enc.memory_mask, rng)
        return ad.cross_entropy_sum(logits, dec_tgt)

    def loss(self, inp: ModelInput) -> Tensor:
        total, count = self.loss_sum(inp)
        return ad.scale(total, 1.0 / count)

    # --- bookkeeping -------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(p.values.size for p in self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.values for name, p in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """All or nothing: every name and shape is checked before any
        parameter is assigned."""
        for name, p in self.params.items():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {name}")
            if tuple(arrays[name].shape) != tuple(p.values.shape):
                raise ValueError(f"shape mismatch for {name}")
        for name, p in self.params.items():
            p.values = arrays[name].astype(self.dtype)


class DecoderState:
    """Incremental decoding of one encoded example, forward only.

    Each decoder layer's cross-attention K/V is projected from the memory
    once, as (1, heads, M, dk), copied C-contiguous so that each head's
    keys are dense rows, and shared by every hypothesis.  Each step feeds B
    live hypotheses one token each as a (B, 1, d) pass; the layers'
    self-attention K/V of the positions so far are cached per hypothesis
    row.  Attention takes the B one-query rows as one block, and over the
    shared memory K/V as the rows of one GEMM per head.  Everything runs
    under ``ad.no_grad``, so the K/V are constants and no graph is built,
    even over a memory that has one.  Step logits match the matching rows
    of ``SummModel.decode_logits`` up to floating-point summation order.
    """

    def __init__(self, model: SummModel, enc: EncodedBatch):
        self.model = model
        self.memory_mask = enc.memory_mask
        with ad.no_grad():
            memory = ad.reshape(enc.memory, (1, *enc.memory.shape))
            self.memory_kv = [layer.cross_attn.cached_kv(memory) for layer in model.decoder]
        self.self_kv: list[tuple[Tensor, Tensor] | None] = [None] * len(model.decoder)
        self.length = 0  # positions decoded so far

    def _live(self) -> int:
        """Hypotheses in the cache: the rows of the last step."""
        return self.self_kv[0][0].shape[0] if self.length else 0

    def step(self, last_ids) -> np.ndarray:
        """Advance every hypothesis by its latest token (the sequence-start
        id on the first step); returns next-token logits (B, vocab).  After
        the first step B must be the number of cached hypotheses."""
        ids = np.asarray(last_ids, dtype=np.int64).reshape(-1, 1)
        if ids.shape[0] == 0 or (self.length and ids.shape[0] != self._live()):
            raise ValueError(
                f"step needs one id per live hypothesis: got {ids.shape[0]} ids "
                f"for {self._live()} cached hypotheses"
            )
        if self.length == 0 and (ids != BOS_ID).any():
            raise ValueError("decoder prefix must start with the sequence-start token")
        with ad.no_grad():
            x = self.model.embed_target(ids, self.length)
            for i, layer in enumerate(self.model.decoder):
                kv = layer.self_attn.cached_kv(x)
                if self.self_kv[i] is not None:
                    past = self.self_kv[i]
                    kv = tuple(ad.concat([p, new], axis=-2) for p, new in zip(past, kv))
                self.self_kv[i] = kv
                x = layer(x, self.memory_kv[i], self.memory_mask, self_kv=kv)
            logits = self.model.output_logits(x)
        self.length += 1
        return logits.values[:, 0, :]

    def reorder(self, index) -> None:
        """Keep cache row ``index[j]`` as hypothesis j, e.g. the parent of
        each hypothesis that survives beam pruning.  The identity index
        keeps the cache arrays as they are."""
        index = np.asarray(index, dtype=np.int64)
        live = self._live()
        outside = index[(index < 0) | (index >= live)]
        if outside.size:
            raise ValueError(f"reorder: index {outside[0]} is outside the {live} live hypotheses")
        if index.size == live and (index == np.arange(live)).all():
            return
        self.self_kv = [
            tuple(ad.tensor(t.values[index], dtype=t.dtype) for t in kv) for kv in self.self_kv
        ]
