"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient and a closure that
pushes incoming gradients to its parents.  Graphs are built eagerly by the
primitive functions below and differentiated by ``backward``, which walks
the (acyclic) parent graph in reverse topological order and releases each
node as soon as its gradient has been passed on.

Every primitive builds its result through ``_node``, the one place that
decides whether it joins the graph; inside ``with no_grad():`` none does, so
forward-only passes free each activation once the next layer has read it.

Training runs in float32; gradient checking runs the same code in float64,
where central finite differences are meaningful.  The dtype is fixed by the
leaf tensors (parameters and inputs) and propagates through numpy promotion.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

LAYER_NORM_EPS = 1e-6  # added to the variance before its square root


class ShapeError(ValueError):
    """Raised when primitive operands have incompatible shapes."""


def _shape_check(ok: bool, op: str, *shapes):
    if not ok:
        raise ShapeError(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")


class Tensor:
    __slots__ = ("values", "grad", "parents", "backward_fn", "requires_grad")

    def __init__(self, values, parents=(), backward_fn=None, requires_grad=False):
        self.values = np.asarray(values)
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype})"


def tensor(values, dtype=np.float32) -> Tensor:
    """Leaf constant; carries no gradient."""
    return Tensor(np.asarray(values, dtype=dtype))


def parameter(values, dtype=np.float32) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(np.array(values, dtype=dtype), requires_grad=True)


_grad_enabled = True


@contextmanager
def no_grad():
    """Within the block primitives build no graph: every result is a
    constant.  Nests, and restores the previous mode on exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(values, parents, backward_fn) -> Tensor:
    """Result of a primitive: linked to ``parents`` through ``backward_fn``
    when gradients are on and some parent requires one, else a constant."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(values, parents, backward_fn, requires_grad=True)
    return Tensor(values)


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t.grad``.  The first gradient is copied into a fresh
    ``np.empty_like(t.values)`` rather than added to zeros: the layout (and
    so every later BLAS call) is the one ``zeros_like`` gave, adding +0.0
    turns -0.0 into +0.0 as the zero fill did, and no two tensors ever share
    a gradient array."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.values))
    else:
        t.grad += g


def _topo_order(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _release(node: Tensor) -> None:
    """Cut a differentiated node out of its graph: its gradient, backward
    closure and parent links go, and it no longer requires a gradient, so
    it is a constant from now on."""
    node.grad = None
    node.backward_fn = None
    node.parents = ()
    node.requires_grad = False


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable ``requires_grad``
    leaf, seeding the root's cotangent with ones.

    ``backward`` consumes the graph: each non-leaf node is released once its
    backward closure has run (reverse topological order means every
    consumer has already read its gradient and values), so a graph's memory
    falls as it is differentiated.  A root without a graph, whether built
    under ``no_grad`` or already consumed, raises ``ValueError``."""
    if not root.requires_grad:
        raise ValueError(
            "backward: root has no graph (built under no_grad, from constants, "
            "or already consumed by backward)"
        )
    _accumulate(root, np.ones_like(root.values))
    order = _topo_order(root)
    while order:
        node = order.pop()
        if node.backward_fn is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node.backward_fn(node.grad)
        _release(node)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along broadcast axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# --- arithmetic -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_values = a.values + b.values
    except ValueError:
        _shape_check(False, "add", a.shape, b.shape)

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(out_values, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_values = a.values * b.values
    except ValueError:
        _shape_check(False, "mul", a.shape, b.shape)

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.values, a.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.shape))

    return _node(out_values, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    return _node(a.values * c, (a,), lambda g: _accumulate(a, g * c))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of equal rank.  Each leading (batch) dim
    of ``b`` must equal ``a``'s or be 1, in which case that slice of ``b``
    is shared across the batch."""
    av, bv = a.values, b.values
    _shape_check(
        av.ndim == bv.ndim >= 2
        and av.shape[-1] == bv.shape[-2]
        and all(nb in (1, na) for na, nb in zip(av.shape[:-2], bv.shape[:-2])),
        "matmul",
        av.shape,
        bv.shape,
    )

    def bw(g):
        _accumulate(a, g @ bv.swapaxes(-1, -2))
        _accumulate(b, _unbroadcast(av.swapaxes(-1, -2) @ g, b.shape))

    return _node(av @ bv, (a, b), bw)


def _project(xv: np.ndarray, weight: Tensor, bias: Tensor | None) -> np.ndarray:
    """``xv @ weight + bias`` in one fresh array."""
    out = xv @ weight.values
    if bias is not None:
        out += bias.values
    return out


def _parts(source) -> tuple:
    """A projection's source as a tuple of tensors: ``source`` itself, or
    the list of parts that it reads as their concatenation on the last
    axis."""
    return (source,) if isinstance(source, Tensor) else tuple(source)


def _joined(source) -> np.ndarray:
    """The values a projection reads from its source: a tensor's own, or a
    fresh last-axis concatenation of its parts."""
    if isinstance(source, Tensor):
        return source.values
    return np.concatenate([p.values for p in source], axis=-1)


def _operand(x, op: str) -> np.ndarray:
    """The values of operand ``x``, which a fused node reads.

    An operand is a tensor or a projection ``(source, w, b)``, ``source @ w
    + b`` with ``w`` shaped (in, out) and ``b`` (out,) or ``None``, which
    the node computes itself and never keeps.  ``source`` is a tensor or a
    list of parts read as their concatenation on the last axis, which
    exists only while the GEMM reads it.  A projection's values are one
    fresh array, computed after its one shape check, named for ``op``.
    ``_operand_parents`` lists an operand's tensors and ``_project_grad``
    hands a gradient back through it."""
    if isinstance(x, Tensor):
        return x.values
    source, w, b = x
    parts = _parts(source)
    _shape_check(
        len(parts) >= 1
        and all(p.shape[:-1] == parts[0].shape[:-1] for p in parts)
        and w.values.ndim == 2
        and sum(p.shape[-1] for p in parts) == w.shape[0]
        and (b is None or b.shape == (w.shape[1],)),
        op,
        *(p.shape for p in parts),
        w.shape,
        *(() if b is None else (b.shape,)),
    )
    return _project(_joined(source), w, b)


def _operand_parents(x) -> tuple:
    """The tensors operand ``x`` reads: itself, or the source's parts, the
    weight and the bias if any."""
    if isinstance(x, Tensor):
        return (x,)
    source, w, b = x
    return (*_parts(source), w) if b is None else (*_parts(source), w, b)


def _project_grad(g: np.ndarray, x) -> None:
    """Hand ``g``, the gradient of operand ``x``'s values, back through it.
    A tensor takes ``g``.  A projection's source parts each take their
    slice of the input gradient, in order, as a concat's backward handed
    them, then the weight and the bias take theirs from the concatenation,
    which is rebuilt for the purpose."""
    if isinstance(x, Tensor):
        _accumulate(x, g)
        return
    source, w, b = x
    gx = g @ w.values.T
    end = 0
    for part in _parts(source):
        start, end = end, end + part.shape[-1]
        _accumulate(part, gx if part is source else gx[..., start:end])
    _weight_grads(g, _joined(source), w, b)


def _weight_grads(g: np.ndarray, xv: np.ndarray, weight: Tensor, bias: Tensor | None) -> None:
    """Accumulate the weight and bias gradients of ``xv @ weight + bias``
    whose output gradient is ``g``."""
    g2 = g.reshape(-1, g.shape[-1])
    _accumulate(weight, xv.reshape(-1, xv.shape[-1]).T @ g2)
    if bias is not None:
        _accumulate(bias, g2.sum(axis=0))


def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map on the last axis, ``x @ weight + bias`` with ``weight``
    shaped (in, out): the projection operand ``(x, weight, bias)`` as a
    node.  So ``x`` may be a list of parts, which the node keeps instead
    of their concatenation.  Values and gradients are bit-identical to
    ``linear(concat(parts, -1), weight, bias)``."""
    op = (x, weight, bias)
    return _node(_operand(op, "linear"), _operand_parents(op), lambda g: _project_grad(g, op))


# --- shape plumbing ---------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    return _node(a.values.reshape(shape), (a,), lambda g: _accumulate(a, g.reshape(a.shape)))


def swapaxes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out_values = a.values.swapaxes(axis1, axis2)
    return _node(out_values, (a,), lambda g: _accumulate(a, g.swapaxes(axis1, axis2)))


def broadcast_to(a: Tensor, shape) -> Tensor:
    """``a`` broadcast to ``shape`` as a read-only view, without a copy.
    Backward sums the gradient over the broadcast axes from a C-contiguous
    copy, so the sums round as they do over a dense gradient."""
    try:
        out_values = np.broadcast_to(a.values, shape)
    except ValueError:
        _shape_check(False, "broadcast_to", a.shape, shape)
    return _node(
        out_values, (a,), lambda g: _accumulate(a, _unbroadcast(np.ascontiguousarray(g), a.shape))
    )


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    _shape_check(len(tensors) >= 1, "concat")
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + size)
            _accumulate(t, g[tuple(idx)])
            offset += size

    return _node(np.concatenate([t.values for t in tensors], axis=axis), tuple(tensors), bw)


def split(a: Tensor, sizes: list[int], axis: int) -> list[Tensor]:
    """Inverse of ``concat``: cut ``a`` into consecutive blocks of the given
    sizes along ``axis``."""
    _shape_check(sum(sizes) == a.shape[axis], "split", a.shape)
    outs = []
    offset = 0
    for size in sizes:
        idx = [slice(None)] * a.values.ndim
        idx[axis] = slice(offset, offset + size)

        def bw(g, idx=tuple(idx)):
            full = np.zeros_like(a.values)
            full[idx] = g
            _accumulate(a, full)

        outs.append(_node(a.values[tuple(idx)], (a,), bw))
        offset += size
    return outs


# --- nonlinearities ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    return _node(np.maximum(a.values, 0), (a,), lambda g: _accumulate(a, g * (a.values > 0)))


def tanh(a: Tensor) -> Tensor:
    out_values = np.tanh(a.values)
    return _node(out_values, (a,), lambda g: _accumulate(a, g * (1.0 - out_values**2)))


def sin(a: Tensor) -> Tensor:
    return _node(np.sin(a.values), (a,), lambda g: _accumulate(a, g * np.cos(a.values)))


def cos(a: Tensor) -> Tensor:
    return _node(np.cos(a.values), (a,), lambda g: _accumulate(a, g * -np.sin(a.values)))


def _softmax_inplace(x: np.ndarray) -> np.ndarray:
    """Softmax of ``x`` over the last axis, computed in ``x`` itself and
    returned.  Positions at -inf get probability exactly 0; rows with no
    finite position, or with a NaN, come out all-zero rather than NaN."""
    x_max = np.max(x, axis=-1, keepdims=True)
    x_max[~np.isfinite(x_max)] = 0.0
    x -= x_max
    np.exp(x, out=x)
    z = x.sum(axis=-1, keepdims=True)
    empty = ~(z > 0)  # fully masked (or NaN) rows
    if empty.any():
        z[empty] = 1.0
        x[empty[..., 0]] = 0.0
    x /= z
    return x


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient through ``p = softmax(x)``: ``p * (g - sum(g * p))`` in one
    fresh buffer."""
    d = g * p
    inner = d.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=d)
    d *= p
    return d


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis.

    ``mask`` is boolean, broadcastable to ``a``; masked positions get
    probability exactly 0.  Rows with no valid position, or with a NaN, come
    out all-zero rather than NaN.  Forward and backward each fill one fresh
    buffer in place: the masked copy, or a copy that keeps ``a``'s strides.
    """
    if mask is None:
        x = a.values.copy(order="K")
    else:
        x = np.where(np.asarray(mask, dtype=bool), a.values, -np.inf)
        _shape_check(x.shape == a.shape, "softmax", a.shape, np.shape(mask))
    p = _softmax_inplace(x)
    return _node(p, (a,), lambda g: _accumulate(a, _softmax_grad(g, p)))


def _block(a: np.ndarray | None, i: int, ndim: int):
    """Slice ``i`` of ``a``'s first axis as ``a`` broadcasts against
    ``ndim``-axis operands: a size-1 first axis is shared by every slice,
    and an array with fewer axes is whole in each."""
    if a is None or a.ndim < ndim:
        return a
    return a[i if a.shape[0] > 1 else 0]


def _attention_probs(q, kt, scale: float, blocked, out: np.ndarray) -> np.ndarray:
    """``softmax(scale * q @ kt)`` with ``blocked`` positions at probability
    0, computed in ``out``."""
    scores = np.matmul(q, kt, out=out)
    scores *= scale
    if blocked is not None and blocked.any():
        np.copyto(scores, -np.inf, where=blocked)
    return _softmax_inplace(scores)


def _heads(y: np.ndarray, heads: int) -> np.ndarray:
    """A projection's values (..., T, d) split into ``heads`` heads,
    (..., heads, T, d / heads), as a view."""
    _shape_check(y.ndim >= 2 and y.shape[-1] % heads == 0, "attention", y.shape)
    return y.reshape(*y.shape[:-1], heads, -1).swapaxes(-2, -3)


def _heads_inside(lead: tuple, t: int, d: int, dtype) -> np.ndarray:
    """An empty (*lead, t, d) array laid out with the last leading axis (the
    heads) inside ``t``, so that swapping those two axes back, as the merge
    of heads does, gives a C-contiguous view."""
    return np.empty((*lead[:-1], t, lead[-1], d), dtype).swapaxes(-2, -3)


def _relay(a: Tensor) -> Tensor:
    """``a`` again as a node of its own: backward hands its gradient on to
    ``a`` when it reaches the node, not when the consumer runs."""
    return _node(a.values, (a,), lambda g: _accumulate(a, g))


def attention(
    q, k, v, scale: float, mask: np.ndarray | None = None, heads: int = 1
) -> Tensor:
    """Scaled dot-product attention, ``softmax(scale * q @ kᵀ, mask) @ v``,
    one slice of the first axis at a time, or, for one query per row (an
    incremental decoding step, Tq == 1), the whole batch at once.

    ``q`` is (B, ..., Tq, dk), ``k`` (B, ..., Tk, dk) and ``v``
    (B, ..., Tk, dv); each leading dim of ``k`` and ``v`` equals ``q``'s or
    is 1, in which case it is shared across that axis.  ``mask`` is boolean
    and broadcasts to the scores (B, ..., Tq, Tk); masked keys get
    probability exactly 0 and a row with none left attends to nothing.

    Each of ``q``, ``k`` and ``v`` is a tensor or a projection operand
    ``(source, w, b)`` of a source tensor (..., T, d_in), not a list of
    parts, which the node computes and splits into ``heads`` heads itself,
    as ``swapaxes(reshape(linear(source, w, b), (..., T, heads, -1)), -2,
    -3)``.

    Each slice's scores are computed into one reused buffer, so no
    probability tensor outlives its slice.  With Tq == 1 the scores of all
    slices are one small block instead.  When the batch shares K/V (their
    first axis and the mask's are 1, as over a decoder memory that a beam
    shares), the B queries are the rows of one ``(..., B, dk) @ (..., dk,
    Tk)`` GEMM per head rather than B GEMVs; that changes the summation
    order, so those values differ from the slice loop's by rounding (about
    1e-16 relative in float64).  The node keeps the tensors and
    the projections' sources and weights, which the graph holds anyway, but
    no projected q, k or v: backward rebuilds them with the same
    ``_operand`` calls, then recomputes each slice's probabilities in a
    buffer of its own.  A projection's source takes its gradient as the
    projection's own node would have.  Where the three do not share one
    source, a k or v source is reached through a ``_relay``, so it receives
    that gradient after whatever q's source feeds, as it did from a
    projection node.  The output is laid out with the last leading axis
    (the heads) inside the query axis, so swapping those two axes back, as
    the merge of heads does, gives a C-contiguous view.  Values and
    gradients are bit-identical to ``matmul(softmax(scale(matmul(q,
    swapaxes(k, -1, -2)), scale), mask), v)`` over those projections,
    except the values of that shared-K/V case.
    """
    projections = [x for x in (q, k, v) if not isinstance(x, Tensor)]
    if not all(isinstance(x[0], Tensor) for x in projections):
        raise ShapeError("attention: a projection's source is a tensor, not a list of parts")
    if len(projections) < 3 or len({id(x[0]) for x in projections}) > 1:
        k, v = (x if isinstance(x, Tensor) else (_relay(x[0]), *x[1:]) for x in (k, v))

    def split(x):
        return x.values if isinstance(x, Tensor) else _heads(_operand(x, "attention"), heads)

    qv, kv, vv = (split(x) for x in (q, k, v))
    lead = qv.shape[:-2]
    _shape_check(
        qv.ndim == kv.ndim == vv.ndim >= 3
        and qv.shape[-1] == kv.shape[-1]
        and kv.shape[-2] == vv.shape[-2]
        and all(
            nk in (1, nq) and nv in (1, nq)
            for nq, nk, nv in zip(lead, kv.shape[:-2], vv.shape[:-2])
        ),
        "attention",
        qv.shape,
        kv.shape,
        vv.shape,
    )
    scores_shape = (*lead, qv.shape[-2], kv.shape[-2])
    blocked = None
    if mask is not None:
        blocked = ~np.asarray(mask, dtype=bool)
        try:
            fits = np.broadcast_shapes(blocked.shape, scores_shape) == scores_shape
        except ValueError:
            fits = False
        _shape_check(fits, "attention", scores_shape, blocked.shape)
    ndim = qv.ndim
    scores_dtype = np.result_type(qv, kv)
    dtype = np.result_type(qv, kv, vv)
    out = _heads_inside(lead, qv.shape[-2], vv.shape[-1], dtype)
    if qv.shape[-2] > 1:
        buf = np.empty(scores_shape[1:], scores_dtype)
        for i in range(lead[0]):
            kt_i = _block(kv, i, ndim).swapaxes(-1, -2)
            p = _attention_probs(qv[i], kt_i, scale, _block(blocked, i, ndim), buf)
            np.matmul(p, _block(vv, i, ndim), out=out[i])
    elif lead[0] > 1 and kv.shape[0] == vv.shape[0] == 1 and (
        blocked is None or blocked.ndim < ndim or blocked.shape[0] == 1
    ):
        # One incremental step over K/V and a mask that the batch shares:
        # the batch's queries are the rows of one GEMM per head.
        rows = np.empty((*lead[1:], lead[0], kv.shape[-2]), scores_dtype)
        q_rows = np.moveaxis(qv[..., 0, :], 0, -2)
        kt = kv[0].swapaxes(-1, -2)
        p = _attention_probs(q_rows, kt, scale, _block(blocked, 0, ndim), rows)
        np.matmul(p, vv[0], out=np.moveaxis(out[..., 0, :], 0, -2))
    else:
        # One incremental step: the whole batch's scores are one small block.
        scores = np.empty(scores_shape, scores_dtype)
        p = _attention_probs(qv, kv.swapaxes(-1, -2), scale, blocked, scores)
        np.matmul(p, vv, out=out)

    def bw(g):
        qv, kv, vv = (split(x) for x in (q, k, v))
        # Gradients of shared K/V sum over the whole batch at the end.
        buf = np.empty(scores_shape[1:], scores_dtype)
        gq = _heads_inside(lead, qv.shape[-2], qv.shape[-1], dtype)
        gkt = np.empty((*lead, kv.shape[-1], kv.shape[-2]), dtype)
        gv = _heads_inside(lead, vv.shape[-2], vv.shape[-1], dtype)
        for i in range(lead[0]):
            k_i, v_i = _block(kv, i, ndim), _block(vv, i, ndim)
            p = _attention_probs(qv[i], k_i.swapaxes(-1, -2), scale, _block(blocked, i, ndim), buf)
            np.matmul(p.swapaxes(-1, -2), g[i], out=gv[i])
            d = _softmax_grad(g[i] @ v_i.swapaxes(-1, -2), p)
            d *= scale
            np.matmul(d, k_i, out=gq[i])
            np.matmul(qv[i].swapaxes(-1, -2), d, out=gkt[i])
        gk = _unbroadcast(gkt, kv.swapaxes(-1, -2).shape).swapaxes(-1, -2)
        gv = _unbroadcast(gv, vv.shape)
        # Tensors take their gradients in the order the chain's matmuls
        # handed them; projections pass theirs on in the order the chain's
        # projection nodes ran.
        for x, gx in ((v, gv), (q, gq), (k, gk)):
            if isinstance(x, Tensor):
                _accumulate(x, gx)
        for x, gx in ((q, gq), (k, gk), (v, gv)):
            if not isinstance(x, Tensor):
                merged = np.ascontiguousarray(gx.swapaxes(-2, -3))
                _project_grad(merged.reshape(*merged.shape[:-2], -1), x)

    return _node(out, [t for x in (q, k, v) for t in _operand_parents(x)], bw)


def _normalize(x: np.ndarray, out: np.ndarray | None = None):
    """``(xhat, inv)`` of ``x`` over the last axis: ``xhat`` is ``x``
    centred and scaled to unit variance, written into ``out`` (which may be
    ``x``) or a fresh array, and ``inv`` is the per-row scale."""
    xhat = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
    inv = 1.0 / np.sqrt((xhat**2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    return xhat, inv


def _affine(xhat: np.ndarray, gain: Tensor, bias: Tensor, out: np.ndarray | None = None):
    """``xhat * gain + bias`` in ``out`` (which may be ``xhat``) or a fresh
    array."""
    out = np.multiply(xhat, gain.values, out=out)
    out += bias.values
    return out


def _normalize_grad(g: np.ndarray, xhat: np.ndarray, inv, gain: Tensor, bias: Tensor):
    """Gradient through ``xhat * gain + bias`` back to the normalised
    input: accumulates the gain and bias gradients and returns the input's
    in a fresh array."""
    dim = xhat.shape[-1]
    dx = g * gain.values
    mean = dx.mean(axis=-1, keepdims=True)
    t = np.multiply(dx, xhat)
    np.multiply(xhat, t.mean(axis=-1, keepdims=True), out=t)
    dx -= mean
    dx -= t
    dx *= inv
    _accumulate(gain, np.multiply(g, xhat, out=t).reshape(-1, dim).sum(axis=0))
    _accumulate(bias, g.reshape(-1, dim).sum(axis=0))
    return dx


def _check_norm_params(op: str, x: Tensor, gain: Tensor, bias: Tensor) -> None:
    dim = x.shape[-1]
    _shape_check(
        gain.shape == (dim,) and bias.shape == (dim,), op, x.shape, gain.shape, bias.shape
    )


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply a
    learned elementwise gain and bias."""
    _check_norm_params("layer_norm", a, gain, bias)
    xhat, inv = _normalize(a.values)

    def bw(g):
        _accumulate(a, _normalize_grad(g, xhat, inv, gain, bias))

    return _node(_affine(xhat, gain, bias), (a, gain, bias), bw)


def _draw_keep(rng: np.random.Generator | None, shape, rate: float) -> np.ndarray | None:
    """Dropout's keep mask packed by ``np.packbits``, one bit an element,
    or ``None`` when dropout is off (no ``rng``, or rate 0).  An element is
    kept iff its 32-bit draw is at least ``round(rate * 2**32)`` (2**32,
    which keeps nothing, above rate 1 - 2**-33), so the drop rate is within
    2**-33 of ``rate``.  The draws are the halves of the generator's raw
    64-bit outputs, low half first, read little-endian so that the mask
    does not depend on byte order."""
    if rng is None or rate == 0.0:
        return None
    size = int(np.prod(shape))
    raw = rng.bit_generator.random_raw((size + 1) // 2)
    return np.packbits(raw.astype("<u8", copy=False).view("<u4")[:size] >= round(rate * 2**32))


def _drop(x: np.ndarray, keep: np.ndarray, rate: float, out: np.ndarray | None = None):
    """Inverted dropout of ``x`` under the packed mask ``keep``: ``x`` times
    the mask, then times 1/(1-rate) in ``x``'s dtype, written into ``out``
    (which may be ``x``) or a fresh array."""
    mask = np.unpackbits(keep, count=x.size).reshape(x.shape).view(bool)
    out = np.multiply(x, mask, out=out)
    out *= x.dtype.type(1.0) / x.dtype.type(1.0 - rate)
    return out


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout, run iff an ``rng`` is given: kept activations are
    scaled by 1/(1-rate), so without an rng (or at rate 0) it returns ``a``.
    The node keeps the mask as packed bits."""
    keep = _draw_keep(rng, a.shape, rate)
    if keep is None:
        return a
    return _node(_drop(a.values, keep, rate), (a,), lambda g: _accumulate(a, _drop(g, keep, rate)))


def _join(x: Tensor, z: np.ndarray, keep, rate: float):
    """The post-norm residual join of ``x`` and a sub-layer output ``z``
    short of the affine: ``(xhat, inv)`` of ``normalize(x + dropout(z))``
    under the packed mask ``keep`` (or none), the sum normalised in place.
    Backward reruns it on the same inputs instead of keeping them."""
    if keep is None:
        s = x.values + z
    else:
        s = _drop(z, keep, rate)
        s += x.values
    return _normalize(s, out=s)


def _join_grad(g, x: Tensor, z, keep, gain: Tensor, bias: Tensor, rate: float):
    """Backward of ``_join`` plus the affine, rebuilding the normalised sum
    from ``x``, ``z`` and ``keep``: accumulates the gain, bias and ``x``
    gradients and returns the sub-layer output's in a fresh array."""
    gs = _normalize_grad(g, *_join(x, z, keep, rate), gain, bias)
    _accumulate(x, gs)
    return gs if keep is None else _drop(gs, keep, rate, out=gs)


def add_norm(
    x: Tensor, y, gain: Tensor, bias: Tensor, rate: float, rng: np.random.Generator | None
) -> Tensor:
    """The post-norm residual join ``layer_norm(add(x, dropout(z, rate,
    rng)), gain, bias)`` as one node, where ``z`` is the values of operand
    ``y``: a tensor, or the sub-layer's output projection ``(source, w,
    b)``, which the node computes and never keeps.

    The node keeps only the packed keep mask beyond its inputs, which the
    graph holds anyway: backward rebuilds ``z`` (for a projection, one
    GEMM) and from it the normalised sum and per-row scale.  Values and
    gradients are bit-identical to the chain's."""
    z = _operand(y, "add_norm")
    _shape_check(x.shape == z.shape, "add_norm", x.shape, z.shape)
    _check_norm_params("add_norm", x, gain, bias)
    keep = _draw_keep(rng, x.shape, rate)
    xhat = _join(x, z, keep, rate)[0]
    out_values = _affine(xhat, gain, bias, out=xhat)

    def bw(g):
        _project_grad(_join_grad(g, x, _operand(y, "add_norm"), keep, gain, bias, rate), y)

    return _node(out_values, (x, *_operand_parents(y), gain, bias), bw)


def _hidden(h: np.ndarray, keep, rate: float) -> np.ndarray:
    """The FFN hidden layer ``dropout(relu(h))`` of the first projection's
    output ``h`` under the given packed mask, computed in ``h``."""
    np.maximum(h, 0, out=h)
    return h if keep is None else _drop(h, keep, rate, out=h)


def feed_forward(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    gain: Tensor,
    bias: Tensor,
    rate: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """The FFN sub-layer and its post-norm join, ``layer_norm(add(x,
    dropout(linear(dropout(relu(linear(x, w1, b1)), rate, rng), w2, b2),
    rate, rng)), gain, bias)``, as one node; the hidden mask is drawn
    before the join's.

    The node keeps the two packed masks beyond its inputs, not the
    (..., ffn_hidden) hidden layer, which is freed once ``w2`` has read it,
    nor the join's normalised sum: backward rebuilds the hidden layer from
    the projection operand ``(x, w1, b1)`` and its mask, one GEMM more,
    then ``z = h @ w2 + b2`` and the join from it, a second.  ReLU's mask
    is read back as ``h > 0`` from the dropped hidden, which differs from
    the pre-ReLU test only where the keep mask zeroes the gradient anyway.
    Values and gradients are bit-identical to the chain's."""
    first = (x, w1, b1)
    h = _operand(first, "feed_forward")
    _shape_check(
        w2.shape == (h.shape[-1], x.shape[-1]) and b2.shape == (x.shape[-1],),
        "feed_forward",
        h.shape,
        w2.shape,
        b2.shape,
    )
    _check_norm_params("feed_forward", x, gain, bias)
    hkeep = _draw_keep(rng, h.shape, rate)
    z = _project(_hidden(h, hkeep, rate), w2, b2)
    del h  # the hidden layer lives only while w2 reads it
    keep = _draw_keep(rng, x.shape, rate)
    xhat = _join(x, z, keep, rate)[0]
    out_values = _affine(xhat, gain, bias, out=xhat)

    def bw(g):
        h = _hidden(_operand(first, "feed_forward"), hkeep, rate)
        gs = _join_grad(g, x, _project(h, w2, b2), keep, gain, bias, rate)
        _weight_grads(gs, h, w2, b2)
        gh = gs @ w2.values.T
        gh *= h > 0
        if hkeep is not None:
            _drop(gh, hkeep, rate, out=gh)
        _project_grad(gh, first)

    return _node(out_values, (*_operand_parents(first), w2, b2, gain, bias), bw)


# --- embeddings and loss ----------------------------------------------------


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (vocab, dim) by integer ids of any shape."""
    ids = np.asarray(ids)
    _shape_check(table.values.ndim == 2, "embedding_lookup", table.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding_lookup: id out of range")

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        np.add.at(table.grad, ids, g)

    return _node(table.values[ids], (table,), bw)


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def cross_entropy_sum(logits: Tensor, targets: np.ndarray) -> tuple[Tensor, int]:
    """Summed token negative log-likelihood of every row's target.  Returns
    ``(loss_sum, counted_tokens)``."""
    targets = np.asarray(targets)
    _shape_check(
        logits.values.ndim == 2 and targets.shape == (logits.shape[0],),
        "cross_entropy",
        logits.shape,
        targets.shape,
    )
    logp = log_softmax_values(logits.values)
    rows = np.arange(targets.shape[0])
    nll = -logp[rows, targets]

    def bw(g):
        d = np.exp(logp)
        d[rows, targets] -= 1.0
        _accumulate(logits, g * d)

    return _node(np.asarray(nll.sum(), dtype=logits.dtype), (logits,), bw), rows.size


def tsum(a: Tensor) -> Tensor:
    """Sum of every entry, a scalar."""
    return _node(a.values.sum(), (a,), lambda g: _accumulate(a, np.broadcast_to(g, a.shape)))
