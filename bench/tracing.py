"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``querysumm`` layer
module in place, everywhere the same function object is bound (``data``
binds ``rouge_n``/``rouge_l`` and ``training`` binds ``backward`` and
``save_arrays`` by name, so wrapping only the defining module would miss
those calls).  Model blocks are wrapped at their classes' ``__call__``.
Autodiff primitives are wrapped at ``querysumm.autodiff.<prim>``, and the
``backward_fn`` of every tensor a primitive returns is wrapped too, so
backward time is charged to the primitive and to the model block whose
forward created the tensor.  ``Tracer.remove`` restores every original.

Spans stay in memory, aggregated per call path (calls, total seconds,
seconds covered by child spans), because ``bm25.score`` and ``rouge_n`` run
millions of times per build; a layer's self time is its total minus its
child time.  ``Tracer.write`` dumps the call tree at the end of a run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from querysumm import autodiff, bm25, checkpoint, data, decoding, evaluation
from querysumm import model, optim, rouge, text, training

# The primitives reported one by one; per-layer metrics name these.
REPORTED_PRIMS = (
    "matmul",
    "linear",
    "softmax",
    "layer_norm",
    "dropout",
    "embedding_lookup",
    "add",
    "mul",
    "concat",
    "cross_entropy_sum",
)
# Every primitive that builds its own graph node.  ``sub`` and
# ``cross_entropy`` are compositions of these and are left unwrapped so no
# backward function is timed twice.
TRACED_PRIMS = REPORTED_PRIMS + (
    "scale",
    "reshape",
    "swapaxes",
    "split",
    "relu",
    "tanh",
    "sin",
    "cos",
    "tsum",
)
BLOCKS = {
    "local": model.LocalLayer,
    "query": model.QueryLayer,
    "global": model.GlobalLayer,
    "decoder": model.DecoderLayer,
}
# Functions traced as span "<layer>.<function>".
FUNCTIONS = [
    (text, "tokenize"),
    (bm25, "build_index"),
    (bm25, "top_k"),
    (bm25, "score"),
    (rouge, "rouge_n"),
    (rouge, "rouge_l"),
    (data, "build_qmdscnn"),
    (data, "filter_qmdsir"),
    (data, "make_query_variant"),
    (data, "alignment_histogram"),
    (autodiff, "backward"),
    (decoding, "greedy_decode"),
    (decoding, "beam_search"),
    (training, "validate"),
    (checkpoint, "save_arrays"),
    (evaluation, "evaluate"),
]
METHODS = [
    (model.SummModel, "encode", "model.encode"),
    (model.SummModel, "decode_logits", "model.decode_logits"),
    (optim.AdamNoam, "step", "optim.step"),
]


def _tensors(result):
    if isinstance(result, autodiff.Tensor):
        return [result]
    if isinstance(result, (list, tuple)):
        return [r for r in result if isinstance(r, autodiff.Tensor)]
    return []


class Tracer:
    def __init__(self):
        self._ids: dict[tuple[int, str], int] = {}
        self.nodes: list[dict] = []  # id -> {"name", "parent", "calls", "total", "child"}
        self._stack: list[list] = []  # open spans: [node id, start, child seconds]
        self._blocks: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.step_ms: list[float] = []
        self._step_start: float | None = None
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        key = (parent, name)
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.nodes)
            self.nodes.append(
                {"name": name, "parent": parent, "calls": 0, "total": 0.0, "child": 0.0}
            )
        frame = [node, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        stats = self.nodes[frame[0]]
        stats["calls"] += 1
        stats["total"] += elapsed
        stats["child"] += frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def _timed(self, name: str, fn, after=None, block: str | None = None):
        def wrapper(*args, **kwargs):
            if block is not None:
                self._blocks.append(block)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
                if block is not None:
                    self._blocks.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- install / remove ----------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every ``querysumm`` module binding of ``original`` at
        ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "querysumm" or mod_name.startswith("querysumm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        afters = {
            "build_qmdscnn": self._after_build,
            "filter_qmdsir": self._after_filter,
            "greedy_decode": self._after_decode,
            "beam_search": self._after_decode,
            "save_arrays": self._after_save,
            "decode_logits": self._after_decode_logits,
            "step": self._after_opt_step,
        }
        for mod, fn_name in FUNCTIONS:
            layer = mod.__name__.rsplit(".", 1)[-1]
            original = getattr(mod, fn_name)
            self._rebind(
                original,
                self._timed(f"{layer}.{fn_name}", original, afters.get(fn_name)),
            )
        for prim in TRACED_PRIMS:
            original = getattr(autodiff, prim)
            self._rebind(original, self._timed(f"autodiff.{prim}", original, self._prim_after(prim)))
        for block, cls in BLOCKS.items():
            self._patch_attr(cls, "__call__", self._timed(f"model.{block}", cls.__call__, block=block))
        for cls, method, name in METHODS:
            self._patch_attr(
                cls, method, self._timed(name, cls.__dict__[method], afters.get(method))
            )
        zero_grad = optim.AdamNoam.zero_grad

        def marked_zero_grad(opt):
            self._step_start = time.perf_counter()
            return zero_grad(opt)

        self._patch_attr(optim.AdamNoam, "zero_grad", marked_zero_grad)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- hooks ------------------------------------------------------------

    def _prim_after(self, prim: str):
        def after(result, *args, **kwargs):
            inputs = {id(a) for a in args if isinstance(a, autodiff.Tensor)}
            block = self._blocks[-1] if self._blocks else None
            for out in _tensors(result):
                if id(out) in inputs:
                    continue  # identity (dropout off): no new node
                self.counters["autodiff.bytes_computed"] += out.values.nbytes
                if out.backward_fn is not None:
                    out.backward_fn = self._timed_backward(prim, block, out.backward_fn)

        return after

    def _timed_backward(self, prim: str, block: str | None, backward_fn):
        name = f"autodiff.{prim}.bwd"

        def timed(g):
            frame = self._enter(name)
            try:
                backward_fn(g)
            finally:
                elapsed = self._exit(frame)
            if block is not None:
                self.counters[f"model.{block}.bwd_s"] += elapsed

        return timed

    def _after_build(self, triplets, *args, **kwargs):
        self.counters["bm25.hits_kept"] += sum(len(t.meta["retrieved_from"]) for t in triplets)

    def _after_filter(self, result, records, *args, **kwargs):
        self.counters["data.qmdsir_records"] += len(records)
        self.counters["data.qmdsir_kept"] += len(result[0])

    def _after_decode(self, ids, *args, **kwargs):
        self.counters["decoding.tokens"] += len(ids)

    def _after_decode_logits(self, logits, summ_model, prefix_ids, memory, *args, **kwargs):
        self.counters["model.decode_logits.positions"] += len(prefix_ids)
        self.counters["decoding.memory_rows_projected"] += memory.shape[0] * len(summ_model.decoder)

    def _after_save(self, result, path, *args, **kwargs):
        self.counters["checkpoint.save_arrays.bytes"] += os.path.getsize(path)

    def _after_opt_step(self, result, *args, **kwargs):
        if self._step_start is not None:
            self.step_ms.append((time.perf_counter() - self._step_start) * 1000.0)
            self._step_start = None

    # --- results ----------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls and total seconds per span name, over every call path."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0})
        for node in self.nodes:
            out[node["name"]]["calls"] += node["calls"]
            out[node["name"]]["total"] += node["total"]
        return out

    def write(self, path) -> None:
        """Dump the aggregated call tree with self time per path."""
        rows = [
            {
                "id": i,
                "parent": n["parent"],
                "name": n["name"],
                "calls": n["calls"],
                "total_s": n["total"],
                "self_s": n["total"] - n["child"],
            }
            for i, n in enumerate(self.nodes)
        ]
        payload = {"spans": rows, "counters": dict(self.counters), "step_ms": self.step_ms}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)


def _percentile_tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value.  When that percentile is not above the median (twenty samples or
    fewer), the maximum is reported instead, at level 100."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    level = float(int(100.0 * (1.0 - 10.0 / n)))
    if level <= 50.0:
        return 100.0, float(max(samples))
    return level, float(np.percentile(samples, level))


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer values for one iteration: traced totals divided by the
    number of identical traced iterations.  Names absent from the run come
    out as 0."""
    spans = tracer.by_name()
    c = tracer.counters
    per = 1.0 / iterations
    m: dict[str, float] = {}

    def calls(name):
        return spans[name]["calls"] * per if name in spans else 0.0

    def secs(name):
        return spans[name]["total"] * per if name in spans else 0.0

    m["text.tokenize.calls"] = calls("text.tokenize")
    m["text.tokenize.s"] = secs("text.tokenize")
    m["bm25.build_index.s"] = secs("bm25.build_index")
    m["bm25.top_k.calls"] = calls("bm25.top_k")
    m["bm25.top_k.s"] = secs("bm25.top_k")
    m["bm25.score.calls"] = calls("bm25.score")
    scored = spans["bm25.score"]["calls"] if "bm25.score" in spans else 0
    m["bm25.useful_ratio"] = c["bm25.hits_kept"] / scored if scored else 0.0
    for fn in ("rouge_n", "rouge_l"):
        m[f"rouge.{fn}.calls"] = calls(f"rouge.{fn}")
        m[f"rouge.{fn}.s"] = secs(f"rouge.{fn}")
    for fn in ("build_qmdscnn", "filter_qmdsir", "make_query_variant", "alignment_histogram"):
        m[f"data.{fn}.s"] = secs(f"data.{fn}")
    records = c["data.qmdsir_records"]
    m["data.qmdsir_kept_ratio"] = c["data.qmdsir_kept"] / records if records else 0.0
    for prim in REPORTED_PRIMS:
        m[f"autodiff.{prim}.calls"] = calls(f"autodiff.{prim}")
        m[f"autodiff.{prim}.fwd_s"] = secs(f"autodiff.{prim}")
        m[f"autodiff.{prim}.bwd_s"] = secs(f"autodiff.{prim}.bwd")
    m["autodiff.backward.s"] = secs("autodiff.backward")
    m["autodiff.bytes_computed"] = c["autodiff.bytes_computed"] * per
    for block in BLOCKS:
        m[f"model.{block}.fwd_s"] = secs(f"model.{block}")
        m[f"model.{block}.bwd_s"] = c[f"model.{block}.bwd_s"] * per
    m["model.encode.calls"] = calls("model.encode")
    m["model.encode.s"] = secs("model.encode")
    m["model.decode_logits.calls"] = calls("model.decode_logits")
    m["model.decode_logits.s"] = secs("model.decode_logits")
    m["model.decode_logits.positions"] = c["model.decode_logits.positions"] * per
    tokens = c["decoding.tokens"]
    m["decoding.positions_per_token"] = (
        c["model.decode_logits.positions"] / tokens if tokens else 0.0
    )
    m["decoding.memory_rows_projected"] = c["decoding.memory_rows_projected"] * per
    m["decoding.greedy_decode.s"] = secs("decoding.greedy_decode")
    m["decoding.beam_search.s"] = secs("decoding.beam_search")
    m["decoding.tokens"] = tokens * per
    m["optim.step.calls"] = calls("optim.step")
    m["optim.step.s"] = secs("optim.step")
    level, tail = _percentile_tail(tracer.step_ms)
    m["training.step_ms.p50"] = float(np.median(tracer.step_ms)) if tracer.step_ms else 0.0
    m["training.step_ms.tail"] = tail
    m["training.step_ms.tail_pct"] = level
    m["training.step_ms.samples"] = float(len(tracer.step_ms))
    m["training.validate.s"] = secs("training.validate")
    m["checkpoint.save_arrays.s"] = secs("checkpoint.save_arrays")
    m["checkpoint.save_arrays.bytes"] = c["checkpoint.save_arrays.bytes"] * per
    m["evaluation.evaluate.s"] = secs("evaluation.evaluate")
    return m

