import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from querysumm import autodiff as ad
from querysumm import training
from querysumm.checkpoint import load_arrays, save_arrays
from querysumm.model import SummModel, prepare_input
from querysumm.optim import AdamNoam
from querysumm.text import Vocabulary, build_vocab
from querysumm.training import (
    NumericalAbort,
    TrainConfig,
    example_size,
    load_model_checkpoint,
    pack_batches,
    save_model_checkpoint,
    train,
)

from conftest import corpus_tokens, handmade_triplet, tiny_config


def uniform_dataset(n=8):
    """Triplets with identical token geometry so batches pack predictably."""
    return [handmade_triplet(n_docs=2, doc_tokens=6, summary_tokens=4, tag=f"t{i}") for i in range(n)]


def setup_uniform(dtype=np.float32, dropout=0.0, seed=0):
    trips = uniform_dataset()
    vocab = build_vocab(corpus_tokens(trips), 64)
    cfg = tiny_config(len(vocab), d_model=16, heads=2, dropout=dropout)
    model = SummModel(cfg, seed=seed, dtype=dtype)
    return trips, vocab, model


class TestBatching:
    def test_pack_respects_budget(self):
        sizes = [5, 7, 3, 9, 2, 6]
        batches = pack_batches(sizes, np.arange(6), budget=10)
        assert sorted(i for b in batches for i in b) == list(range(6))
        for b in batches:
            assert len(b) == 1 or sum(sizes[i] for i in b) <= 10

    def test_oversized_single_example_still_batched_alone(self):
        batches = pack_batches([50, 2], np.array([0, 1]), budget=10)
        assert batches[0] == [0]

    def test_example_size_counts_source_and_target(self):
        trips, vocab, model = setup_uniform()
        inp = prepare_input(trips[0], vocab, model.config)
        assert example_size(inp) == int(inp.token_mask.sum()) + inp.target_ids.size


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["val_interval", "warmup", "batch_tokens", "base_lr"])
    def test_counts_must_be_positive(self, tmp_path, field):
        bad = (0, -1, float("nan"), float("inf")) if field == "base_lr" else (0, -1)
        for value in bad:
            with pytest.raises(ValueError, match=field):
                TrainConfig(steps=1, checkpoint_dir=str(tmp_path), **{field: value})


class TestTrainLoop:
    def test_validate_leaves_graph_building_on(self):
        trips, vocab, model = setup_uniform(dtype=np.float64)
        inputs = [prepare_input(t, vocab, model.config) for t in trips[:2]]
        refs = [t.summary.split() for t in trips[:2]]
        training.validate(model, inputs, refs, vocab)
        loss, _ = model.loss_sum(inputs[0])
        training.backward(loss)
        missing = [name for name, p in model.params.items() if p.grad is None]
        assert not missing

    def test_empty_training_set_is_refused_before_anything_is_written(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(steps=1, checkpoint_dir=str(tmp_path / "ckpt"))
        with pytest.raises(ValueError, match="no training triplets"):
            train(model, cfg, [], trips[:2], vocab)
        assert not (tmp_path / "ckpt").exists()

    def test_budget_validation(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(steps=1, checkpoint_dir=str(tmp_path), batch_tokens=2)
        with pytest.raises(ValueError):
            train(model, cfg, trips, trips[:2], vocab)

    def test_runs_and_checkpoints(self, tmp_path):
        trips, vocab, model = setup_uniform(dropout=0.1)
        cfg = TrainConfig(
            steps=4, checkpoint_dir=str(tmp_path), batch_tokens=128,
            val_interval=2, seed=0, base_lr=1.0, warmup=50,
        )
        result = train(model, cfg, trips, trips[:2], vocab)
        assert len(result.losses) == 4
        # One file per checkpoint: no optimizer sidecar, no leftover temp file.
        assert sorted(os.listdir(tmp_path)) == ["best.ckpt", "latest.ckpt"]
        arrays, meta = load_arrays(result.latest_path)
        assert meta["step"] == 4
        for name, p in model.params.items():
            np.testing.assert_array_equal(arrays[name], p.values, err_msg=name)
            assert arrays[f"opt/m.{name}"].shape == p.values.shape
            assert arrays[f"opt/v.{name}"].shape == p.values.shape
        assert result.val_scores and result.val_scores[-1][0] == 4

    def test_each_example_graph_is_freed_before_the_next_forward(self, tmp_path, monkeypatch):
        # A live graph holds every activation and node gradient of its
        # example; the next forward must not run on top of it.  The loss
        # itself may outlive its graph.
        trips, vocab, model = setup_uniform(dropout=0.1)
        live, real_loss_sum = [], SummModel.loss_sum

        def loss_sum(self, inp, rng=None):
            assert all(ref() is None for ref in live), "previous example's graph is alive"
            loss, count = real_loss_sum(self, inp, rng=rng)
            live.extend(weakref.ref(t.values) for t in ad._topo_order(loss)[:-1] if t.parents)
            return loss, count

        monkeypatch.setattr(SummModel, "loss_sum", loss_sum)
        cfg = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path), batch_tokens=128, accum_steps=2,
            val_interval=2, seed=0, base_lr=1.0, warmup=50,
        )
        train(model, cfg, trips, [], vocab)
        assert len(live) > cfg.steps * cfg.accum_steps  # several examples per micro-batch

    def test_accumulation_matches_single_large_batch(self, tmp_path):
        # 64-bit, dropout off: 4 accumulated micro-batches of 2 examples must
        # reproduce the trajectory of 1 batch of 8 examples.
        trips, vocab, model_a = setup_uniform(dtype=np.float64)
        _, _, model_b = setup_uniform(dtype=np.float64)
        size = example_size(prepare_input(trips[0], vocab, model_a.config))
        cfg_a = TrainConfig(
            steps=5, checkpoint_dir=str(tmp_path / "a"), batch_tokens=2 * size,
            accum_steps=4, val_interval=100, seed=3, base_lr=1.0, warmup=20,
        )
        cfg_b = TrainConfig(
            steps=5, checkpoint_dir=str(tmp_path / "b"), batch_tokens=8 * size,
            accum_steps=1, val_interval=100, seed=3, base_lr=1.0, warmup=20,
        )
        ra = train(model_a, cfg_a, trips, trips[:1], vocab)
        rb = train(model_b, cfg_b, trips, trips[:1], vocab)
        np.testing.assert_allclose(ra.losses, rb.losses, rtol=1e-9)
        for name in model_a.params:
            a, b = model_a.params[name].values, model_b.params[name].values
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-12, err_msg=name)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        trips, vocab, model_full = setup_uniform(dropout=0.1)
        cfg = dict(batch_tokens=128, val_interval=2, seed=1, base_lr=1.0, warmup=50)
        full = train(
            model_full,
            TrainConfig(steps=6, checkpoint_dir=str(tmp_path / "full"), **cfg),
            trips, trips[:2], vocab,
        )
        _, _, model_half = setup_uniform(dropout=0.1)
        train(
            model_half,
            TrainConfig(steps=4, checkpoint_dir=str(tmp_path / "half"), **cfg),
            trips, trips[:2], vocab,
        )
        _, _, model_resumed = setup_uniform(dropout=0.1)
        resumed = train(
            model_resumed,
            TrainConfig(steps=6, checkpoint_dir=str(tmp_path / "res"), **cfg),
            trips, trips[:2], vocab,
            resume_from=str(tmp_path / "half" / "latest.ckpt"),
        )
        np.testing.assert_allclose(resumed.losses, full.losses[4:], rtol=1e-5)
        assert resumed.val_scores[-1][1] == pytest.approx(full.val_scores[-1][1], abs=1e-5)

    def test_resume_in_same_dir_keeps_prior_best(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path), batch_tokens=128, val_interval=1
        )
        first = train(model, cfg, trips, trips[:2], vocab)
        cfg_more = TrainConfig(
            steps=4, checkpoint_dir=str(tmp_path), batch_tokens=128, val_interval=1
        )
        resumed = train(
            model, cfg_more, trips, trips[:2], vocab,
            resume_from=str(tmp_path / "latest.ckpt"),
        )
        assert resumed.best_score >= first.best_score

    def test_resume_in_same_dir_honours_the_saved_best_score(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(steps=1, checkpoint_dir=str(tmp_path), batch_tokens=128, val_interval=1)
        train(model, cfg, trips, trips[:2], vocab)
        best = tmp_path / "best.ckpt"
        arrays, meta = load_arrays(best)
        meta["val_rouge_l"] = 0.99
        save_arrays(best, arrays, meta)
        before = best.read_bytes()
        (tmp_path / "link").symlink_to(tmp_path)
        more = TrainConfig(steps=2, checkpoint_dir=str(tmp_path), batch_tokens=128, val_interval=1)
        resumed = train(
            model, more, trips, trips[:2], vocab,
            resume_from=str(tmp_path / "link" / "latest.ckpt"),
        )
        assert resumed.steps_run == 2 and resumed.best_score == 0.99
        assert best.read_bytes() == before

    def test_resume_refuses_another_runs_best_checkpoint(self, tmp_path):
        trips, vocab, model = setup_uniform()
        for run_dir in ("a", "b"):
            cfg = TrainConfig(
                steps=1, checkpoint_dir=str(tmp_path / run_dir), batch_tokens=128, val_interval=1
            )
            train(model, cfg, trips, trips[:2], vocab)
        latest, best = tmp_path / "a" / "latest.ckpt", tmp_path / "b" / "best.ckpt"
        before = {p: p.read_bytes() for p in (latest, best)}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "b"), batch_tokens=128, val_interval=1
        )
        _, _, fresh = setup_uniform()
        with pytest.raises(ValueError) as info:
            train(fresh, more, trips, trips[:2], vocab, resume_from=str(latest))
        assert str(latest) in str(info.value) and str(best) in str(info.value)
        assert {p: p.read_bytes() for p in (latest, best)} == before
        assert all(
            np.array_equal(p.values, q.values)
            for p, q in zip(fresh.params.values(), setup_uniform()[2].params.values())
        )

    def test_crash_at_any_checkpoint_write_leaves_a_resumable_latest(
        self, tmp_path, monkeypatch
    ):
        trips, vocab, model_full = setup_uniform(dropout=0.1)
        cfg = dict(batch_tokens=128, val_interval=1, seed=1, base_lr=1.0, warmup=50)
        real_save = training.save_arrays
        calls = []

        def counting_save(path, arrays, meta):
            calls.append(path)
            real_save(path, arrays, meta)

        monkeypatch.setattr(training, "save_arrays", counting_save)
        full = train(
            model_full, TrainConfig(steps=3, checkpoint_dir=str(tmp_path / "full"), **cfg),
            trips, trips[:2], vocab,
        )
        assert len(calls) >= 3  # latest.ckpt at every step, best.ckpt at least once

        for crash_at in range(len(calls)):
            run_dir = tmp_path / f"crash{crash_at}"
            run_cfg = TrainConfig(steps=3, checkpoint_dir=str(run_dir), **cfg)
            count = iter(range(len(calls)))

            def crashing_save(path, arrays, meta):
                if next(count) == crash_at:
                    raise OSError("simulated crash")
                real_save(path, arrays, meta)

            monkeypatch.setattr(training, "save_arrays", crashing_save)
            _, _, model = setup_uniform(dropout=0.1)
            with pytest.raises(OSError, match="simulated crash"):
                train(model, run_cfg, trips, trips[:2], vocab)
            monkeypatch.setattr(training, "save_arrays", real_save)

            assert not any(name.endswith(".tmp") for name in os.listdir(run_dir))
            latest = run_dir / "latest.ckpt"
            if crash_at == 0:
                assert not latest.exists()
                continue
            step = load_arrays(latest)[1]["step"]
            _, _, resumed_model = setup_uniform(dropout=0.1)
            resumed = train(
                resumed_model, run_cfg, trips, trips[:2], vocab, resume_from=str(latest)
            )
            np.testing.assert_allclose(
                resumed.losses, full.losses[step:], rtol=1e-5, err_msg=f"crash at {crash_at}"
            )
            for name, p in model_full.params.items():
                np.testing.assert_allclose(
                    resumed_model.params[name].values, p.values, rtol=1e-5, atol=1e-7,
                    err_msg=name,
                )

    def test_resume_refuses_weights_only_checkpoint(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "run"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:2], vocab)
        arrays, meta = load_arrays(result.latest_path)
        weights_only = str(tmp_path / "weights.ckpt")
        save_arrays(
            weights_only, {k: v for k, v in arrays.items() if not k.startswith("opt/")}, meta
        )

        _, _, fresh = setup_uniform()
        before = {name: p.values.copy() for name, p in fresh.params.items()}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "res"), batch_tokens=128, val_interval=1
        )
        with pytest.raises(ValueError, match="optimizer state") as exc:
            train(fresh, more, trips, trips[:2], vocab, resume_from=weights_only)
        assert weights_only in str(exc.value)
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    @pytest.mark.parametrize(
        "edit", [dict(dropout=0.3), dict(max_doc_tokens=12), dict(heads=4)],
        ids=["dropout", "max-doc-tokens", "heads"],
    )
    def test_resume_refuses_another_model_config(self, tmp_path, edit):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        fresh = SummModel(replace(model.config, **edit), seed=9)
        before = {name: p.values.copy() for name, p in fresh.params.items()}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "next"), batch_tokens=128, val_interval=1
        )
        with pytest.raises(ValueError, match="another model config") as exc:
            train(fresh, more, trips, trips[:1], vocab, resume_from=result.latest_path)
        (field, value), = edit.items()
        assert result.latest_path in str(exc.value)
        assert f"{field} {getattr(model.config, field)!r} -> {value!r}" in str(exc.value)
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    def test_fine_tune_from_accepts_another_model_config(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        tuned = SummModel(replace(model.config, dropout=0.3, max_doc_tokens=4), seed=9)
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "next"), batch_tokens=128, val_interval=1,
            fine_tune_from=result.latest_path,
        )
        assert train(tuned, more, trips, trips[:1], vocab).steps_run == 2

    @pytest.mark.parametrize("load", ["resume", "fine_tune"])
    def test_checkpoint_of_another_vocabulary_is_refused(self, tmp_path, load):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        # Same tokens and size, other order: every embedding row means another token.
        shuffled = Vocabulary(list(reversed(vocab.id_to_token[5:])))
        _, _, fresh = setup_uniform(seed=9)
        before = {name: p.values.copy() for name, p in fresh.params.items()}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "next"), batch_tokens=128, val_interval=1,
            fine_tune_from=result.latest_path if load == "fine_tune" else None,
        )
        resume_from = result.latest_path if load == "resume" else None
        with pytest.raises(ValueError, match="different vocabulary") as exc:
            train(fresh, more, trips, trips[:1], shuffled, resume_from=resume_from)
        assert result.latest_path in str(exc.value)
        for name, p in fresh.params.items():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    @pytest.mark.parametrize("load", ["resume", "fine_tune"])
    def test_misshapen_checkpoint_is_refused_whole(self, tmp_path, load):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        arrays, meta = load_arrays(result.latest_path)
        # Every weight differs from the fresh model's; the last one is misshapen.
        last = list(model.params)[-1]
        arrays = {k: v + 1 if k in model.params else v for k, v in arrays.items()}
        arrays[last] = arrays[last].reshape(-1, 1)
        bad = str(tmp_path / "bad.ckpt")
        save_arrays(bad, arrays, meta)

        _, _, fresh = setup_uniform(seed=9)
        before = {name: p.values.copy() for name, p in fresh.params.items()}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "next"), batch_tokens=128, val_interval=1,
            fine_tune_from=bad if load == "fine_tune" else None,
        )
        with pytest.raises(ValueError, match=f"shape mismatch for {last}") as exc:
            train(
                fresh, more, trips, trips[:1], vocab,
                resume_from=bad if load == "resume" else None,
            )
        assert bad in str(exc.value)
        for name, p in fresh.params.items():
            assert p.values.tobytes() == before[name].tobytes(), name

    @pytest.mark.parametrize(
        "step", ["1", 1.5, True, -3, None], ids=["string", "float", "bool", "negative", "missing"]
    )
    def test_resume_refuses_a_step_that_is_not_a_count(self, tmp_path, step):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        arrays, meta = load_arrays(result.latest_path)
        if step is None:
            del meta["step"]
        else:
            meta["step"] = step
        bad = str(tmp_path / "bad.ckpt")
        save_arrays(bad, arrays, meta)

        _, _, fresh = setup_uniform(seed=9)
        before = {name: p.values.copy() for name, p in fresh.params.items()}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "next"), batch_tokens=128, val_interval=1
        )
        with pytest.raises(ValueError, match="step must be an integer >= 0") as exc:
            train(fresh, more, trips, trips[:1], vocab, resume_from=bad)
        assert bad in str(exc.value) and repr(step) in str(exc.value)
        for name, p in fresh.params.items():
            assert p.values.tobytes() == before[name].tobytes(), name

    def test_fine_tune_from_refuses_a_manifest_without_model_config(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        arrays, meta = load_arrays(result.latest_path)
        del meta["model_config"]
        bad = str(tmp_path / "bad.ckpt")
        save_arrays(bad, arrays, meta)

        _, _, fresh = setup_uniform(seed=9)
        before = {name: p.values.copy() for name, p in fresh.params.items()}
        more = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "next"), batch_tokens=128, val_interval=1,
            fine_tune_from=bad,
        )
        with pytest.raises(ValueError, match="no 'model_config'") as exc:
            train(fresh, more, trips, trips[:1], vocab)
        assert bad in str(exc.value)
        for name, p in fresh.params.items():
            assert p.values.tobytes() == before[name].tobytes(), name

    def test_nonfinite_loss_aborts_with_step(self, tmp_path):
        trips, vocab, model = setup_uniform()
        model.params["embed"].values[:] = np.nan
        cfg = TrainConfig(steps=2, checkpoint_dir=str(tmp_path), batch_tokens=128)
        with pytest.raises(NumericalAbort) as exc:
            train(model, cfg, trips, trips[:1], vocab)
        assert exc.value.step == 0

    def test_fine_tune_from_loads_parameters(self, tmp_path):
        trips, vocab, model = setup_uniform()
        cfg = TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path / "src"), batch_tokens=128, val_interval=1
        )
        result = train(model, cfg, trips, trips[:1], vocab)
        arrays, _ = load_arrays(result.best_path)
        _, _, fresh = setup_uniform(seed=9)
        before = fresh.params["embed"].values.copy()
        ft_cfg = TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "ft"), batch_tokens=128,
            val_interval=1, fine_tune_from=result.best_path,
        )
        train(fresh, ft_cfg, trips, trips[:1], vocab)
        # Parameters were replaced by the checkpoint before the first step,
        # so they no longer match the fresh initialization.
        assert not np.allclose(before, arrays["embed"])


class TestOverfitTrend:
    def test_loss_trend_monotone_over_300_steps(self):
        # Overfitting 8 toy triplets: mean loss of consecutive 50-step
        # windows never increases (trend monotonicity, not per-step).
        from querysumm.autodiff import backward
        from querysumm.data import build_qmdscnn
        from querysumm.synthetic import make_articles

        articles = make_articles(8, seed=3, min_paragraphs=2, max_paragraphs=3)
        trips = build_qmdscnn(articles, seed=3, k_retrieved=1)
        vocab = build_vocab(corpus_tokens(trips), 300)
        cfg = tiny_config(
            len(vocab), d_model=32, ffn_hidden=64, heads=2,
            max_doc_tokens=30, max_docs=3, max_summary_tokens=20,
        )
        model = SummModel(cfg, seed=1)
        inputs = [prepare_input(t, vocab, cfg) for t in trips]
        opt = AdamNoam(model.params, d_model=cfg.d_model, base_lr=1.0, warmup=600)
        losses = []
        for _ in range(300):
            opt.zero_grad()
            total, count = 0.0, 0
            for inp in inputs:
                loss_sum, c = model.loss_sum(inp)
                backward(loss_sum)
                total += loss_sum.item()
                count += c
            for p in model.params.values():
                if p.grad is not None:
                    p.grad /= count
            opt.step()
            losses.append(total / count)
        windows = [np.mean(losses[i : i + 50]) for i in range(0, 300, 50)]
        assert all(b <= a for a, b in zip(windows, windows[1:])), windows
        assert losses[-1] < losses[0]


class TestCheckpointIO:
    def test_model_checkpoint_roundtrip(self, tmp_path):
        trips, vocab, model = setup_uniform()
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, AdamNoam(model.params, 16), vocab, {"step": 5})
        loaded, vocab2, meta = load_model_checkpoint(path)
        assert meta["step"] == 5
        assert vocab2.id_to_token == vocab.id_to_token
        assert loaded.config == model.config
        for name, p in model.params.items():
            np.testing.assert_allclose(
                loaded.params[name].values, p.values.astype(np.float32), atol=1e-7
            )

    def test_float64_model_checkpoint_is_bit_exact(self, tmp_path):
        trips, vocab, model = setup_uniform(dtype=np.float64)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, AdamNoam(model.params, 16), vocab, {})
        arrays, _, config, _ = training.read_checkpoint(path)
        assert config == model.config
        for name, p in model.params.items():
            assert arrays[name].dtype == np.float64
            assert arrays[name].tobytes() == p.values.tobytes()

    def test_reloaded_model_reproduces_eval_loss(self, tmp_path):
        trips, vocab, model = setup_uniform()
        inp = prepare_input(trips[0], vocab, model.config)
        expected = model.loss(inp).item()
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, AdamNoam(model.params, 16), vocab, {})
        loaded, _, _ = load_model_checkpoint(path)
        assert loaded.loss(inp).item() == pytest.approx(expected, rel=1e-5)
