"""Parameter initialization, Adam with inverse-square-root warmup, and a
finite-difference gradient checker."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, backward

ADAM_BETA1, ADAM_BETA2 = 0.9, 0.998  # moment decay rates
ADAM_EPS = 1e-9  # added to the update's denominator
FD_EPS = 1e-5  # step of grad_check's central differences


def kaiming_uniform(shape, fan_in: int, rng) -> np.ndarray:
    """I.i.d. uniform on [-sqrt(6/fan_in), +sqrt(6/fan_in)].

    ``rng`` is a ``numpy.random.Generator`` or an integer seed.
    """
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


def warmup_lr(step: int, d_model: int, base_lr: float, warmup: int) -> float:
    """base_lr * d_model^-0.5 * min(step^-0.5, step * warmup^-1.5): linear
    ramp for ``warmup`` steps, then inverse-square-root decay."""
    if step < 1:
        raise ValueError("schedule is defined for step >= 1")
    return base_lr * d_model**-0.5 * min(step**-0.5, step * warmup**-1.5)


class AdamNoam:
    """Adam (bias-corrected) driven by the warmup/decay schedule above.

    Gradients are read from each parameter's ``.grad``; call ``zero_grad``
    between optimization steps.  Raises on non-finite gradients.
    """

    def __init__(self, params: dict[str, Tensor], d_model: int, base_lr=1.0, warmup=8000):
        self.params = params
        self.d_model = d_model
        self.base_lr = base_lr
        self.warmup = warmup
        self.step_count = 0
        self.exp_avg = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.exp_avg_sq = {k: np.zeros_like(p.values) for k, p in params.items()}

    def lr(self) -> float:
        return warmup_lr(self.step_count, self.d_model, self.base_lr, self.warmup)

    def step(self) -> float:
        """Apply one update; returns the learning rate used.  All or
        nothing: a non-finite gradient raises before any state changes.

        The moments and parameters are updated in place, and every
        intermediate goes into one of two scratch buffers per parameter.
        Each operation rounds as it does in ``(m / bc1) / (sqrt(v / bc2) +
        eps)`` written with fresh temporaries."""
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise FloatingPointError(f"non-finite gradient for {name}")
        self.step_count += 1
        lr = self.lr()
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.values)
            a, b = np.empty_like(p.values), np.empty_like(p.values)
            m = self.exp_avg[name]
            v = self.exp_avg_sq[name]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += ADAM_EPS
            np.divide(m, bc1, out=b)
            b /= a
            b *= lr
            p.values -= b
        return lr

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Both moments of every parameter, under ``opt/`` names that cannot
        clash with the model's own arrays in a shared checkpoint."""
        out = {}
        for name in self.params:
            out[f"opt/m.{name}"] = self.exp_avg[name]
            out[f"opt/v.{name}"] = self.exp_avg_sq[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step: int) -> None:
        """Restore what ``state_arrays`` saved; all or nothing: a missing
        moment raises ``KeyError`` before any state changes."""
        dtypes = {name: p.values.dtype for name, p in self.params.items()}
        exp_avg = {k: arrays[f"opt/m.{k}"].astype(dt) for k, dt in dtypes.items()}
        exp_avg_sq = {k: arrays[f"opt/v.{k}"].astype(dt) for k, dt in dtypes.items()}
        self.exp_avg, self.exp_avg_sq, self.step_count = exp_avg, exp_avg_sq, step


def grad_check(loss_fn, params: dict[str, Tensor], max_coords: int = 1000, seed: int = 0) -> float:
    """Compare analytic gradients of ``loss_fn()`` (a closure over ``params``
    returning a scalar ``Tensor``) against central finite differences.

    Checks every coordinate, or a random subsample when there are more than
    ``max_coords``.  Returns the max relative error
    ``|a - n| / max(|a|, |n|, 1e-8)``.  The closure must be deterministic;
    run fragments with dropout disabled.
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    if loss.values.shape != ():
        raise ValueError("loss_fn must return a scalar tensor")
    backward(loss)
    analytic = {
        k: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
        for k, p in params.items()
    }

    coords = [(k, i) for k, p in params.items() for i in range(p.values.size)]
    if len(coords) > max_coords:
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(i)] for i in picked]

    max_err = 0.0
    for key, flat_idx in coords:
        values = params[key].values.reshape(-1)
        orig = values[flat_idx]
        values[flat_idx] = orig + FD_EPS
        f_plus = loss_fn().item()
        values[flat_idx] = orig - FD_EPS
        f_minus = loss_fn().item()
        values[flat_idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError("non-finite loss during finite differencing")
        numeric = (f_plus - f_minus) / (2.0 * FD_EPS)
        a = float(analytic[key].reshape(-1)[flat_idx])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_err = max(max_err, err)
    return max_err
