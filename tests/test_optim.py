import json
import struct
import tracemalloc

import numpy as np
import pytest

from querysumm import autodiff as ad
from querysumm.autodiff import backward
from querysumm import checkpoint, optim
from querysumm.checkpoint import MAGIC, load_arrays, load_meta, save_arrays
from querysumm.optim import AdamNoam, grad_check, kaiming_uniform, warmup_lr


class TestKaimingUniform:
    def test_bound_for_fan_in_six(self):
        samples = kaiming_uniform((1000,), fan_in=6, rng=0)
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_moments_match_uniform_closed_form(self):
        # U[-b, b] with b = sqrt(6/fan_in): mean 0, variance b^2/3 = 2/fan_in.
        fan_in = 100
        samples = kaiming_uniform((100_000,), fan_in=fan_in, rng=1)
        bound = np.sqrt(6.0 / fan_in)
        sigma_mean = bound / np.sqrt(3) / np.sqrt(samples.size)
        assert abs(samples.mean()) < 3 * sigma_mean
        assert abs(samples.var() / (2.0 / fan_in) - 1.0) < 0.05

    def test_deterministic_per_seed(self):
        a = kaiming_uniform((3, 4), fan_in=4, rng=7)
        b = kaiming_uniform((3, 4), fan_in=4, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_fan_in_validation(self):
        with pytest.raises(ValueError):
            kaiming_uniform((2,), fan_in=0, rng=0)


class TestWarmupSchedule:
    def test_value_at_warmup_step(self):
        # d=256, warmup=8000, base 1: (1/16) / sqrt(8000) = 6.98771e-4.
        lr = warmup_lr(8000, d_model=256, base_lr=1.0, warmup=8000)
        assert lr == pytest.approx(1 / 16 / np.sqrt(8000), rel=1e-12)
        assert lr == pytest.approx(6.988e-4, abs=1e-6)

    def test_monotone_ramp_then_decay(self):
        lrs = [warmup_lr(s, 64, 1.0, 100) for s in range(1, 300)]
        peak = int(np.argmax(lrs))
        assert all(b > a for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
        assert all(b < a for a, b in zip(lrs[peak:], lrs[peak + 1 :]))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            warmup_lr(0, 64, 1.0, 100)


class TestAdamNoam:
    def make_params(self):
        return {
            "w": ad.parameter(np.array([1.0, -2.0, 3.0]), np.float64),
            "b": ad.parameter(np.zeros(2), np.float64),
        }

    def test_zero_gradients_leave_params_unchanged(self):
        params = self.make_params()
        before = {k: p.values.copy() for k, p in params.items()}
        opt = AdamNoam(params, d_model=64)
        for p in params.values():
            p.grad = np.zeros_like(p.values)
        opt.step()
        for k, p in params.items():
            np.testing.assert_array_equal(p.values, before[k])

    def test_nonfinite_gradient_raises(self):
        params = self.make_params()
        opt = AdamNoam(params, d_model=64)
        params["w"].grad = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_nonfinite_gradient_leaves_every_state_unchanged(self):
        a = ad.parameter(np.array([1.0, 2.0]), np.float64)
        b = ad.parameter(np.array([3.0]), np.float64)
        opt = AdamNoam({"a": a, "b": b}, d_model=64, warmup=1)
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([0.1])
        opt.step()
        before = (a.values.copy(), opt.exp_avg["a"].copy(), opt.exp_avg_sq["a"].copy())
        a.grad, b.grad = np.array([1.0, 1.0]), np.array([np.nan])
        with pytest.raises(FloatingPointError, match="for b"):
            opt.step()
        assert opt.step_count == 1
        for now, then in zip((a.values, opt.exp_avg["a"], opt.exp_avg_sq["a"]), before):
            np.testing.assert_array_equal(now, then)

    def test_descends_on_quadratic(self):
        x = ad.parameter(np.array([5.0, -3.0]), np.float64)
        opt = AdamNoam({"x": x}, d_model=4, base_lr=5.0, warmup=10)
        for _ in range(400):
            opt.zero_grad()
            loss = ad.tsum(ad.mul(x, x))
            backward(loss)
            opt.step()
        assert np.abs(x.values).max() < 0.5

    def test_state_roundtrip(self, tmp_path):
        params = self.make_params()
        opt = AdamNoam(params, d_model=64)
        params["w"].grad = np.array([0.1, 0.2, 0.3])
        params["b"].grad = np.array([0.5, -0.5])
        opt.step()
        save_arrays(tmp_path / "opt.ckpt", opt.state_arrays(), {"step": opt.step_count})
        arrays, meta = load_arrays(tmp_path / "opt.ckpt")
        opt2 = AdamNoam(self.make_params(), d_model=64)
        opt2.load_state_arrays(arrays, step=meta["step"])
        assert opt2.step_count == 1
        np.testing.assert_allclose(opt2.exp_avg["w"], opt.exp_avg["w"], atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_is_byte_equal_to_the_formula(self, dtype):
        """Over 3 steps, parameters and both moments are byte-equal to the
        step written as one expression per line, with a temporary each:
        a table, a bias, a parameter without a gradient and one that a
        step leaves without one."""
        shapes = {"embed": (300, 16), "b": (16,), "idle": (4, 4), "w": (16, 5)}

        def run(step):
            params = {k: ad.parameter(rng.standard_normal(s), dtype) for k, s in shapes.items()}
            opt = AdamNoam(params, d_model=16, base_lr=2.0, warmup=2)
            for i in range(3):
                for k, p in params.items():
                    skip = k == "idle" or (k == "w" and i == 1)
                    p.grad = None if skip else rng.standard_normal(p.shape).astype(dtype)
                step(opt)
            return [
                a.tobytes()
                for k in shapes
                for a in (params[k].values, opt.exp_avg[k], opt.exp_avg_sq[k])
            ]

        rng = np.random.default_rng(8)
        got = run(AdamNoam.step)
        rng = np.random.default_rng(8)
        assert got == run(adam_step_formula)


def adam_step_formula(opt):
    """``AdamNoam.step`` as first written, with fresh temporaries."""
    opt.step_count += 1
    lr = opt.lr()
    bc1 = 1.0 - optim.ADAM_BETA1**opt.step_count
    bc2 = 1.0 - optim.ADAM_BETA2**opt.step_count
    for name, p in opt.params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.values)
        m = opt.exp_avg[name]
        v = opt.exp_avg_sq[name]
        m *= optim.ADAM_BETA1
        m += (1.0 - optim.ADAM_BETA1) * g
        v *= optim.ADAM_BETA2
        v += (1.0 - optim.ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + optim.ADAM_EPS)
        p.values -= (lr * update).astype(p.values.dtype)
    return lr


class TestGradCheck:
    def test_quadratic_is_exact_to_rounding(self):
        # Linear layer + squared loss: second derivative is constant, so
        # central differences are exact up to float64 rounding.
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.standard_normal((4, 3)), np.float64)
        b = ad.parameter(rng.standard_normal(3), np.float64)
        x = ad.tensor(rng.standard_normal((5, 4)), np.float64)
        target = rng.standard_normal((5, 3))

        def loss():
            diff = ad.add(ad.linear(x, w, b), ad.scale(ad.tensor(target, np.float64), -1.0))
            return ad.tsum(ad.mul(diff, diff))

        assert grad_check(loss, {"w": w, "b": b}) < 1e-7

    def test_subsampling_above_limit(self):
        # Weights scaled down so tanh stays far from saturation, keeping
        # every sampled coordinate's gradient well above rounding noise.
        rng = np.random.default_rng(1)
        w = ad.parameter(0.1 * rng.standard_normal((40, 40)), np.float64)
        x = ad.tensor(rng.standard_normal((2, 40)), np.float64)
        loss = lambda: ad.tsum(ad.tanh(ad.linear(x, w)))
        err = grad_check(loss, {"w": w}, max_coords=50)
        assert err < 1e-6

    def test_non_scalar_loss_rejected(self):
        w = ad.parameter(np.ones(3), np.float64)
        with pytest.raises(ValueError):
            grad_check(lambda: ad.mul(w, w), {"w": w})

    def test_nonfinite_loss_rejected(self):
        w = ad.parameter(np.array([0.0]), np.float64)

        def loss():
            return ad.tsum(ad.scale(ad.mul(w, w), np.inf))

        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            grad_check(loss, {"w": w})


def test_checkpoint_container_roundtrip(tmp_path):
    arrays = {
        "a.w": np.arange(12, dtype=np.float32).reshape(3, 4),
        "b": np.array(2.5, dtype=np.float32),
    }
    save_arrays(tmp_path / "x.ckpt", arrays, {"note": "hello", "n": 3})
    loaded, meta = load_arrays(tmp_path / "x.ckpt")
    assert meta == {"note": "hello", "n": 3}
    np.testing.assert_array_equal(loaded["a.w"], arrays["a.w"])
    np.testing.assert_array_equal(loaded["b"], arrays["b"])
    assert loaded["a.w"].shape == (3, 4)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_arrays(path)


def test_checkpoint_rejects_truncated_file(tmp_path):
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"a.w": np.ones((3, 4), np.float32)}, {"n": 1})
    full = path.read_bytes()
    # Cut inside the last tensor, inside the manifest, inside its length.
    for keep in (len(full) - 3, 40, 10):
        path.write_bytes(full[:keep])
        with pytest.raises(ValueError, match="truncated") as info:
            load_arrays(path)
        assert str(path) in str(info.value)


def test_load_meta_reads_the_manifest_alone(tmp_path):
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"a.w": np.ones((3, 4), np.float32)}, {"n": 1, "val_rouge_l": 0.25})
    assert load_meta(path) == load_arrays(path)[1]
    full = path.read_bytes()
    # Cut inside the last tensor: the manifest is whole, only the arrays fail.
    path.write_bytes(full[:-3])
    assert load_meta(path) == {"n": 1, "val_rouge_l": 0.25}
    # Cut inside the manifest, inside its length.
    for keep in (40, 10):
        path.write_bytes(full[:keep])
        with pytest.raises(ValueError, match="truncated") as info:
            load_meta(path)
        assert str(path) in str(info.value)


def test_checkpoint_keeps_each_tensor_dtype(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "wide": rng.standard_normal((5, 3)),  # float64 needs all 53 mantissa bits
        "narrow": rng.standard_normal(4).astype(np.float32),
    }
    save_arrays(tmp_path / "x.ckpt", arrays)
    loaded, _ = load_arrays(tmp_path / "x.ckpt")
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].tobytes() == arr.tobytes()


def _saved_with_tobytes(arrays, meta):
    """The file ``save_arrays`` wrote when it joined ``tobytes()`` copies."""
    entries, blobs, offset = [], [], 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        data = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "dtype": data.dtype.str}
        )
        blobs.append(data.tobytes())
        offset += data.nbytes
    manifest = json.dumps({"meta": meta or {}, "tensors": entries}).encode("utf-8")
    return MAGIC + struct.pack("<I", len(manifest)) + manifest + b"".join(blobs)


def test_checkpoint_bytes_equal_the_tobytes_formula(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "f32": rng.standard_normal((3, 4)).astype(np.float32),
        "f64.transposed": rng.standard_normal((4, 5)).T,
        "big-endian": np.arange(6, dtype=">i4").reshape(2, 3),
        "strided": np.arange(20, dtype=np.int64)[::3],
        "scalar": np.array(2.5, dtype=np.float32),
        "empty": np.zeros((0, 3), np.float32),
        "mask": rng.random(7) > 0.5,
        "list": [1.0, 2.0],
    }
    path = tmp_path / "x.ckpt"
    save_arrays(path, arrays, {"step": 3})
    assert path.read_bytes() == _saved_with_tobytes(arrays, {"step": 3})
    loaded, _ = load_arrays(path)
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        got = loaded[name]
        assert got.dtype == arr.dtype.newbyteorder("=") and got.shape == arr.shape, name
        assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata, name
        np.testing.assert_array_equal(got, arr)


def test_checkpoint_save_and_load_hold_no_second_copy(tmp_path):
    """By tracemalloc, a 4 MiB checkpoint: the save allocates at most 0.1 of
    its size (0.004 measured, 1.004 when every array was copied by
    ``tobytes``) and the load at most 1.1 (1.003, the arrays themselves;
    2.002 when the whole blob was read first)."""
    rng = np.random.default_rng(2)
    arrays = {f"p{i}": rng.standard_normal((256, 256)).astype(np.float32) for i in range(16)}
    size = sum(a.nbytes for a in arrays.values())
    path = tmp_path / "x.ckpt"
    tracemalloc.start()
    try:
        save_arrays(path, arrays, {"step": 1})
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded, _ = load_arrays(path)
        load_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert save_peak <= 0.1 * size, save_peak / size
    assert load_peak <= 1.1 * size, load_peak / size
    assert all(loaded[k].tobytes() == arrays[k].tobytes() for k in arrays)


def test_checkpoint_entry_without_dtype_is_refused(tmp_path):
    # Every entry save_arrays writes records its dtype; one without is refused.
    values = np.arange(6, dtype="<f4").reshape(2, 3)
    manifest = json.dumps(
        {"meta": {"n": 1}, "tensors": [{"name": "a.w", "shape": [2, 3], "offset": 0}]}
    ).encode("utf-8")
    path = tmp_path / "old.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest + values.tobytes())
    for load in (load_arrays, load_meta):
        with pytest.raises(ValueError, match="tensor entry 0 has no 'dtype'") as info:
            load(path)
        assert str(path) in str(info.value)


def set_entry_field(path, index, key, value):
    """Rewrite checkpoint ``path`` with ``key`` of tensor entry ``index`` set to ``value``."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    manifest = json.loads(raw[12 : 12 + length])
    manifest["tensors"][index][key] = value
    edited = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(edited)) + edited + raw[12 + length :])


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("name", 3, "name must be a string"),
        ("shape", "ab", "shape must be a list of non-negative integers"),
        ("shape", [2, -3], "shape must be a list of non-negative integers"),
        ("shape", [2, True], "shape must be a list of non-negative integers"),
        ("offset", "0", "offset must be a non-negative integer"),
        ("offset", -8, "offset must be a non-negative integer"),
        ("offset", 0.0, "offset must be a non-negative integer"),
        ("dtype", "xx", "dtype must name a numeric numpy data type"),
        ("dtype", 4, "dtype must name a numeric numpy data type"),
        ("dtype", "(2,f4", "dtype must name a numeric numpy data type"),
        ("dtype", "|O", "dtype must name a numeric numpy data type"),
        ("dtype", "S", "dtype must name a numeric numpy data type"),
        ("dtype", "(2,)f4", "dtype must name a numeric numpy data type"),
    ],
)
def test_checkpoint_entry_with_a_wrong_type_is_refused(tmp_path, key, value, message):
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"a.w": np.ones((2, 3), np.float32), "b.w": np.zeros(4)}, {"n": 1})
    set_entry_field(path, 1, key, value)
    for load in (load_arrays, load_meta):
        with pytest.raises(ValueError, match=f"tensor entry 1: {message}") as info:
            load(path)
        assert str(path) in str(info.value)


def test_checkpoint_entry_too_large_for_int64_is_truncated(tmp_path):
    # 2**62 * 4 elements wraps to 0 in int64; counted exactly, it is far past the blob.
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"a.w": np.ones(4, np.float32)})
    set_entry_field(path, 0, "shape", [2**62, 4])
    with pytest.raises(ValueError, match="truncated") as info:
        load_arrays(path)
    assert str(path) in str(info.value)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "x.ckpt"
    save_arrays(path, {"a.w": np.ones((3, 4), np.float32)}, {"n": 1})
    before = path.read_bytes()

    def failing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        write = fh.write

        def half_write(data):
            if len(data) >= 4096:  # the tensor blob, not the header
                write(data[: len(data) // 2])
                raise OSError("disk full")
            return write(data)

        fh.write = half_write
        return fh

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_arrays(path, {"a.w": np.zeros((64, 64), np.float32)}, {"n": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    loaded, meta = load_arrays(path)
    assert meta == {"n": 1}
    np.testing.assert_array_equal(loaded["a.w"], np.ones((3, 4), np.float32))
    assert list(tmp_path.iterdir()) == [path]
