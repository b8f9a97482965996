import json
import os
from dataclasses import asdict

import pytest

from querysumm import autodiff as ad
from querysumm import cli, training
from querysumm.checkpoint import load_arrays, save_arrays
from querysumm.data import (
    Triplet,
    load_triplets,
    save_articles,
    save_ir_records,
    save_triplets,
)
from querysumm.model import ModelConfig, SummModel
from querysumm.synthetic import make_articles, make_ir_records
from querysumm.text import Vocabulary
from querysumm.training import NumericalAbort


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_articles(make_articles(8, seed=5, min_paragraphs=2, max_paragraphs=3), "articles.jsonl")
    save_ir_records(make_ir_records(10, seed=5), "records.jsonl")
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def train_config(tmp_path, steps=3):
    cfg = {
        "vocab_max_size": 300,
        "model": {
            "d_model": 16, "ffn_hidden": 32, "heads": 2, "local_layers": 1,
            "query_layers": 0, "global_layers": 1, "dropout": 0.0,
            "max_doc_tokens": 20, "max_docs": 2, "max_summary_tokens": 10,
        },
        "train": {
            "steps": steps, "checkpoint_dir": str(tmp_path / "ckpt"),
            "batch_tokens": 256, "val_interval": 2, "seed": 0,
            "base_lr": 1.0, "warmup": 50,
            "train_path": "triplets.jsonl", "val_path": "triplets.jsonl",
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestDatasetCommands:
    def test_build_qmdscnn(self, workdir, capsys):
        assert run("build-qmdscnn", "--corpus", "articles.jsonl", "--seed", "5",
                   "--k", "2", "--out", "triplets.jsonl") == 0
        assert len(load_triplets("triplets.jsonl")) == 8
        assert "wrote 8 triplets" in capsys.readouterr().out

    def test_build_qmdsir_with_reject_log(self, workdir, capsys):
        assert run("build-qmdsir", "--records", "records.jsonl",
                   "--out", "ir.jsonl", "--reject-log", "rej.jsonl") == 0
        kept = load_triplets("ir.jsonl")
        rejected = [json.loads(l) for l in open("rej.jsonl")]
        assert len(kept) + len(rejected) == 10
        for entry in rejected:
            assert set(entry) == {"record", "reason"}

    def test_stats_and_align_hist(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--out", "triplets.jsonl")
        assert run("stats", "--in", "triplets.jsonl") == 0
        out = capsys.readouterr().out
        assert "samples 8" in out and "avg_documents" in out
        assert run("align-hist", "--in", "triplets.jsonl") == 0
        hist_out = capsys.readouterr().out.strip().splitlines()
        assert all(len(line.split()) == 2 for line in hist_out)

    def test_query_variant(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--out", "triplets.jsonl")
        assert run("query-variant", "--in", "triplets.jsonl",
                   "--variant", "dull", "--out", "dull.jsonl") == 0
        assert all(t.query == "what is it ?" for t in load_triplets("dull.jsonl"))

    def test_missing_file_is_validation_error(self, workdir, capsys):
        assert run("stats", "--in", "nope.jsonl") == cli.EXIT_VALIDATION


def untrained_checkpoint(path, **meta_edits):
    """A d=16 model's weights with the manifest ``save_model_checkpoint``
    writes, then ``meta_edits`` applied (``None`` deletes a field)."""
    tokens = ["alpha", "beta", "café", "naïve"]
    vocab = Vocabulary(tokens)
    config = ModelConfig(
        vocab_size=len(vocab), d_model=16, ffn_hidden=32, heads=2, local_layers=1,
        query_layers=0, global_layers=1, max_doc_tokens=20, max_docs=2, max_summary_tokens=10,
    )
    meta = {"model_config": asdict(config), "vocab": tokens, "step": 0}
    for field, value in meta_edits.items():
        if value is None:
            del meta[field]
        else:
            meta[field] = value
    save_arrays(path, SummModel(config, seed=0).state_arrays(), meta)
    return vocab


def one_triplet_file(path):
    save_triplets([Triplet("alpha query", ["alpha beta"], "beta", {"source_id": "q1"})], path)


class TestJsonlOutputs:
    def test_decode_golden_lines(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        vocab = untrained_checkpoint("model.ckpt")
        one_triplet_file("triplets.jsonl")
        ids = vocab.encode(["café", "naïve", "alpha"])
        monkeypatch.setattr(cli, "decode_triplets", lambda *a: iter([("q1", ids), (3, [])]))
        assert run("decode", "--ckpt", "model.ckpt", "--in", "triplets.jsonl",
                   "--out", "decodes.jsonl") == 0
        with open("decodes.jsonl", encoding="utf-8") as fh:
            assert fh.read() == (
                '{"id": "q1", "summary": "café naïve alpha"}\n{"id": 3, "summary": ""}\n'
            )

    def test_reject_log_golden_lines(self, workdir, monkeypatch):
        rejected = [(1, "sentence_coverage_below_threshold"), (4, "réponse_absente")]
        monkeypatch.setattr(cli.dataforge, "filter_qmdsir", lambda records: ([], rejected))
        assert run("build-qmdsir", "--records", "records.jsonl",
                   "--out", "ir.jsonl", "--reject-log", "rej.jsonl") == 0
        with open("rej.jsonl", encoding="utf-8") as fh:
            assert fh.read() == (
                '{"record": 1, "reason": "sentence_coverage_below_threshold"}\n'
                '{"record": 4, "reason": "réponse_absente"}\n'
            )


class TestMalformedManifest:
    @pytest.mark.parametrize(
        "edits, named",
        [
            ({"model_config": None}, "'model_config'"),
            ({"vocab": None}, "'vocab'"),
        ],
        ids=["no-model-config", "no-vocab"],
    )
    def test_missing_field_names_path_and_field(self, tmp_path, monkeypatch, capsys, edits, named):
        monkeypatch.chdir(tmp_path)
        untrained_checkpoint("bad.ckpt", **edits)
        one_triplet_file("triplets.jsonl")
        for command in (["decode", "--out", "decodes.jsonl"], ["evaluate"]):
            argv = [command[0], "--ckpt", "bad.ckpt", "--in", "triplets.jsonl", *command[1:]]
            assert run(*argv) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error:") and "bad.ckpt" in err and named in err

    def test_unknown_model_config_field_names_path_and_field(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        vocab = untrained_checkpoint("ok.ckpt")
        arrays, meta = load_arrays("ok.ckpt")
        meta["model_config"]["future_field"] = 1
        save_arrays("future.ckpt", arrays, meta)
        one_triplet_file("triplets.jsonl")
        for command in (["decode", "--out", "decodes.jsonl"], ["evaluate"]):
            argv = [command[0], "--ckpt", "future.ckpt", "--in", "triplets.jsonl", *command[1:]]
            assert run(*argv) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error:") and "future.ckpt" in err and "future_field" in err
        # The checkpoint it was edited from loads.
        model, loaded, _ = training.load_model_checkpoint("ok.ckpt")
        assert loaded.id_to_token == vocab.id_to_token

    def test_vocab_shorter_than_model_is_refused_before_decoding(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        untrained_checkpoint("short.ckpt", vocab=["alpha", "beta", "café"])
        one_triplet_file("triplets.jsonl")
        assert run("decode", "--ckpt", "short.ckpt", "--in", "triplets.jsonl",
                   "--out", "decodes.jsonl") == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "short.ckpt" in err and "vocab_size" in err
        assert not os.path.exists("decodes.jsonl")


class TestModelCommands:
    def test_train_decode_evaluate(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        cfg = train_config(workdir)
        assert run("train", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "best checkpoint" in out
        ckpt = str(workdir / "ckpt" / "best.ckpt")
        assert run("decode", "--ckpt", ckpt, "--in", "triplets.jsonl",
                   "--out", "decodes.jsonl", "--beam", "2", "--max-len", "6") == 0
        rows = [json.loads(l) for l in open("decodes.jsonl")]
        assert len(rows) == 8 and all(set(r) == {"id", "summary"} for r in rows)
        assert run("evaluate", "--ckpt", ckpt, "--in", "triplets.jsonl",
                   "--mode", "recall250", "--beam", "1", "--max-len", "6") == 0
        out = capsys.readouterr().out
        assert "rouge-su4" in out

    def test_train_resume(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        cfg = train_config(workdir, steps=2)
        assert run("train", "--config", str(cfg)) == 0
        cfg6 = train_config(workdir, steps=4)
        assert run("train", "--config", str(cfg6), "--resume",
                   str(workdir / "ckpt" / "latest.ckpt")) == 0

    def test_transfer(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        trips = load_triplets("triplets.jsonl")
        save_triplets(trips[:4], "src_a.jsonl")
        save_triplets(trips[4:6], "src_a_val.jsonl")
        save_triplets(trips[6:], "src_b.jsonl")
        save_triplets(trips[:2], "eval.jsonl")
        cfg = {
            "vocab_max_size": 300,
            "model": {
                "d_model": 16, "ffn_hidden": 32, "heads": 2, "local_layers": 1,
                "query_layers": 0, "global_layers": 1, "dropout": 0.0,
                "max_doc_tokens": 20, "max_docs": 2, "max_summary_tokens": 10,
            },
            "train": {
                "steps": 2, "checkpoint_dir": str(workdir / "tr"), "batch_tokens": 256,
                "val_interval": 1, "seed": 0, "base_lr": 1.0, "warmup": 50,
            },
            "decode": {"beam": 1, "alpha": 0.0, "min_len": 1, "max_len": 6},
            "sources": {
                "alpha": {"train": "src_a.jsonl", "val": "src_a_val.jsonl"},
                "beta": {"train": "src_b.jsonl", "val": "src_a_val.jsonl"},
            },
        }
        cfg_path = workdir / "transfer.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("transfer", "--config", str(cfg_path), "--source", "alpha",
                   "--eval", "eval.jsonl") == 0
        assert "rouge-1" in capsys.readouterr().out
        assert run("transfer", "--config", str(cfg_path), "--source", "combined",
                   "--eval", "eval.jsonl") == 0
        assert run("transfer", "--config", str(cfg_path), "--source", "missing",
                   "--eval", "eval.jsonl") == cli.EXIT_VALIDATION

    def test_zero_val_interval_rejected_before_training(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = train_config(workdir)
        cfg = json.loads(path.read_text())
        cfg["train"]["val_interval"] = 0
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "val_interval" in err
        assert not (workdir / "ckpt").exists()

    def test_invalid_dropout_is_validation_error(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = train_config(workdir)
        cfg = json.loads(path.read_text())
        cfg["model"]["dropout"] = 1.0
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dropout" in err

    def test_resume_from_weights_only_checkpoint_is_validation_error(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        cfg = train_config(workdir, steps=2)
        assert run("train", "--config", str(cfg)) == 0
        arrays, meta = load_arrays(workdir / "ckpt" / "latest.ckpt")
        weights = {k: v for k, v in arrays.items() if not k.startswith("opt/")}
        save_arrays(workdir / "weights.ckpt", weights, meta)
        capsys.readouterr()
        assert run("train", "--config", str(train_config(workdir, steps=4)),
                   "--resume", "weights.ckpt") == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "weights.ckpt" in err

    def test_misshapen_checkpoint_error_names_the_path(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        assert run("train", "--config", str(train_config(workdir, steps=1))) == 0
        arrays, meta = load_arrays(workdir / "ckpt" / "best.ckpt")
        last = [name for name in arrays if not name.startswith("opt/")][-1]
        arrays[last] = arrays[last].reshape(1, -1)
        save_arrays(workdir / "misshapen.ckpt", arrays, meta)
        capsys.readouterr()
        assert run("decode", "--ckpt", "misshapen.ckpt", "--in", "triplets.jsonl",
                   "--out", "decodes.jsonl") == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "misshapen.ckpt" in err and last in err
        assert run("evaluate", "--ckpt", "misshapen.ckpt",
                   "--in", "triplets.jsonl") == cli.EXIT_VALIDATION
        assert "misshapen.ckpt" in capsys.readouterr().err

    def test_grad_check_single_module(self, workdir, capsys):
        assert run("grad-check", "--module", "merge") == 0
        assert "merge" in capsys.readouterr().out

    def test_numerical_abort_exit_code(self, workdir, monkeypatch, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--out", "triplets.jsonl")
        cfg = train_config(workdir)

        def explode(*a, **kw):
            raise NumericalAbort(7, "non-finite loss nan")

        monkeypatch.setattr(cli, "train", explode)
        assert run("train", "--config", str(cfg)) == cli.EXIT_NUMERICAL
        assert "step 7" in capsys.readouterr().err

    def test_nonfinite_gradient_with_finite_loss_exit_code(self, workdir, monkeypatch, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--out", "triplets.jsonl")
        cfg = train_config(workdir)
        real_backward = training.backward

        def poisoned_backward(loss):
            # The loss value stays finite; only its gradients turn NaN.
            real_backward(ad.scale(loss, float("nan")))

        monkeypatch.setattr(training, "backward", poisoned_backward)
        assert run("train", "--config", str(cfg)) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite gradient for" in err and "step 0" in err
