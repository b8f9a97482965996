"""Fixed reference computations that measure the speed of the host.

The benchmark runs on shared machines whose speed drifts by 20-30% over
minutes, which moves every stage of a run together.  Each run therefore
times one of these computations between its iterations, and the
end-to-end stage metrics are stage time divided by the median reference
time of the same run.  The references import nothing from ``querysumm`` and
their inputs are constants, so no change to the program can change them.

``python`` is interpreter-bound (dict counting and a sort over words), like
the ``build`` stages.  ``numpy`` is a chain of float32 matmuls and softmaxes
over a 1600 x 128 matrix, the shape of the encoder memory, like the model
code in ``train`` and ``decode``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SEED = 20210302
REPEATS = 3  # reference calls per sampling point


def _make_words() -> list[str]:
    rng = np.random.default_rng(_SEED)
    pool = ["w%03d" % i for i in range(800)]
    return [pool[i] for i in rng.zipf(1.3, size=18000) % len(pool)]


_WORDS = _make_words()
_RNG = np.random.default_rng(_SEED)
_MEMORY = _RNG.standard_normal((1600, 128)).astype(np.float32)
_WEIGHT = (_RNG.standard_normal((128, 128)) / np.sqrt(128)).astype(np.float32)


def _python() -> int:
    counts: dict[str, int] = {}
    for w in _WORDS:
        counts[w] = counts.get(w, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(ranked)


def _numpy() -> float:
    x = _MEMORY
    for _ in range(8):
        y = x @ _WEIGHT
        y = np.exp(y - y.max(axis=1, keepdims=True))
        x = (y / y.sum(axis=1, keepdims=True)).astype(np.float32)
    return float(x[0, 0])


KINDS = {"python": _python, "numpy": _numpy}


class Reference:
    """Samples of one reference computation, taken through a run."""

    def __init__(self, kind: str):
        self.kind = kind
        self._fn = KINDS[kind]
        self.samples_ms: list[float] = []

    def sample(self) -> None:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._fn()
            self.samples_ms.append((time.perf_counter() - t0) * 1000.0)

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)
