"""The reverse-mode autodiff core and optimizer, bottom up.

Builds a graph by hand, differentiates it, verifies a layer against central
finite differences, and fits a toy regression with the warmup-scheduled
Adam optimizer the summarizer trains with.
"""

import numpy as np

from querysumm import autodiff as ad
from querysumm.autodiff import backward
from querysumm.optim import AdamNoam, grad_check, kaiming_uniform, warmup_lr

# ---- a tiny graph ----------------------------------------------------------

x = ad.parameter(np.array([1.0, 2.0, 3.0]), np.float64)
y = ad.tsum(ad.mul(x, x))  # sum of squares
backward(y)
print("d(sum x^2)/dx =", x.grad, "(expect 2x)")

# ---- masked softmax: padded positions get exactly zero ---------------------

logits = ad.tensor(np.array([[2.0, 1.0, 0.5, -1.0]]), np.float64)
mask = np.array([[True, True, False, True]])
p = ad.softmax(logits, mask)
print("masked softmax:", np.round(p.values, 4), "row sum", p.values.sum())

# ---- gradient checking a small layer ---------------------------------------

rng = np.random.default_rng(0)
w = ad.parameter(0.3 * rng.standard_normal((6, 4)), np.float64)
b = ad.parameter(np.zeros(4), np.float64)
inputs = ad.tensor(rng.standard_normal((5, 6)), np.float64)
target = rng.standard_normal((5, 4))


def loss_fn():
    diff = ad.add(ad.linear(inputs, w, b), ad.scale(ad.tensor(target, np.float64), -1.0))
    return ad.tsum(ad.mul(diff, diff))


err = grad_check(loss_fn, {"w": w, "b": b})
print(f"\nfinite-difference check of linear+squared loss: max rel err {err:.2e}")

# ---- the learning-rate schedule --------------------------------------------

print("\nwarmup schedule (d_model=256, warmup=8000):")
for step in (1, 2000, 8000, 32000, 128000):
    print(f"  step {step:>6}: lr = {warmup_lr(step, 256, 1.0, 8000):.3e}")

# ---- fitting a toy regression ----------------------------------------------

true_w = np.array([[2.0], [-3.0], [0.5]])
X = rng.standard_normal((64, 3))
Y = X @ true_w
w_hat = ad.parameter(kaiming_uniform((3, 1), fan_in=3, rng=1), np.float64)
opt = AdamNoam({"w": w_hat}, d_model=16, base_lr=3.0, warmup=50)
for step in range(300):
    opt.zero_grad()
    fit = ad.linear(ad.tensor(X, np.float64), w_hat)
    diff = ad.add(fit, ad.scale(ad.tensor(Y, np.float64), -1.0))
    loss = ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / len(X))
    backward(loss)
    opt.step()
    if step % 100 == 99:
        print(f"step {step + 1}: mse {loss.item():.2e}")
print("recovered weights:", np.round(w_hat.values.ravel(), 3), "(expect [2, -3, 0.5])")
