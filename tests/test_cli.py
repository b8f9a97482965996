import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from querysumm import autodiff as ad
from querysumm import cli, training
from querysumm.checkpoint import MAGIC, load_arrays, save_arrays
from querysumm.data import (
    REJECT_LOW_COVERAGE,
    REJECT_TOO_FEW_DOCUMENTS,
    REJECT_TOO_FEW_SENTENCES,
    Article,
    IrRecord,
    Triplet,
    filter_qmdsir,
    load_records,
    save_records,
)
from querysumm.decoding import DecodeConfig
from querysumm.model import ModelConfig, SummModel
from querysumm.synthetic import make_articles, make_ir_records
from querysumm.text import Vocabulary
from querysumm.training import NumericalAbort, TrainConfig


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_records(make_articles(8, seed=5, min_paragraphs=2, max_paragraphs=3), "articles.jsonl")
    save_records(make_ir_records(10, seed=5), "records.jsonl")
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def train_config(tmp_path, steps=3):
    cfg = {
        "vocab_max_size": 300,
        "model": {
            "d_model": 16, "ffn_hidden": 32, "heads": 2, "local_layers": 1,
            "global_layers": 1, "dropout": 0.0,
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
        assert len(load_records("triplets.jsonl", Triplet)) == 8
        assert "wrote 8 triplets" in capsys.readouterr().out

    def test_build_qmdscnn_prints_retrieved_hits_histogram(self, workdir, capsys):
        # The last article shares no term with the others, so retrieval for
        # its title finds no foreign chunk above zero.
        articles = load_records("articles.jsonl", Article)
        articles.append(Article("isolated", "zorblax quintessa",
                                ["zorblax quintessa vimbrel", "vimbrel zorblax"], "zorblax"))
        save_records(articles, "articles.jsonl")
        assert run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "3",
                   "--out", "triplets.jsonl") == 0
        lines = capsys.readouterr().out.splitlines()
        triplets = load_records("triplets.jsonl", Triplet)
        counts = [len(t.meta["retrieved_from"]) for t in triplets]
        assert lines[0] == "wrote 9 triplets to triplets.jsonl"
        assert lines[1] == "retrieved hits per triplet " + " ".join(
            f"{n}:{counts.count(n)}" for n in range(4)
        )
        assert counts[-1] == 0 and lines[1].startswith("retrieved hits per triplet 0:1 ")

    def test_build_qmdsir_with_reject_log(self, workdir, capsys):
        assert run("build-qmdsir", "--records", "records.jsonl",
                   "--out", "ir.jsonl", "--reject-log", "rej.jsonl") == 0
        kept = load_records("ir.jsonl", Triplet)
        rejected = [json.loads(l) for l in open("rej.jsonl")]
        assert len(kept) + len(rejected) == 10
        for entry in rejected:
            assert set(entry) == {"record", "reason"}

    @pytest.mark.parametrize("short_answer, reject_log", [(False, False), (True, True)],
                             ids=["no-log", "log"])
    def test_build_qmdsir_prints_rejections_by_reason(
        self, workdir, capsys, short_answer, reject_log
    ):
        records = load_records("records.jsonl", IrRecord)
        if short_answer:  # without it, no answer is under 2 sentences: a 0 count
            records[0] = replace(records[0], answer_passage="one sentence only")
            save_records(records, "records.jsonl")
        argv = ["--reject-log", "rej.jsonl"] if reject_log else []
        assert run("build-qmdsir", "--records", "records.jsonl", "--out", "ir.jsonl", *argv) == 0
        lines = capsys.readouterr().out.splitlines()
        kept, rejected = filter_qmdsir(records)
        reasons = [reason for _, reason in rejected]
        assert lines[0] == f"kept {len(kept)} of 10 records ({len(rejected)} rejected)"
        assert lines[1] == "rejected by reason " + " ".join(
            f"{r}:{reasons.count(r)}"
            for r in (REJECT_TOO_FEW_SENTENCES, REJECT_TOO_FEW_DOCUMENTS, REJECT_LOW_COVERAGE)
        )
        assert (REJECT_TOO_FEW_SENTENCES in reasons) == short_answer
        assert os.path.exists("rej.jsonl") == reject_log

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
        assert all(t.query == "what is it ?" for t in load_records("dull.jsonl", Triplet))

    def test_missing_file_is_validation_error(self, workdir, capsys):
        assert run("stats", "--in", "nope.jsonl") == cli.EXIT_VALIDATION


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "--in", "t.jsonl", "--out", "d.jsonl"],
            ["stats", "--in", "t.jsonl", "--bogus"],
            ["decode", "--ckpt", "m.ckpt", "--in", "t.jsonl", "--out", "d.jsonl",
             "--beam", "notanint"],
        ],
        ids=["missing-ckpt", "unknown-flag", "beam-not-an-int"],
    )
    def test_usage_error_exits_validation_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: querysumm") and "error:" in err

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["decode", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == cli.EXIT_OK
            assert "usage: querysumm" in capsys.readouterr().out

    def test_process_exit_status(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "querysumm.cli", "decode", "--in", "t.jsonl"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == cli.EXIT_VALIDATION
        assert "the following arguments are required: --ckpt, --out" in proc.stderr


VALID_ARTICLE = {"id": 1, "title": "t", "paragraphs": ["p"], "summary": "s"}
VALID_RECORD = {"query": "q", "answer_passage": "a", "documents": ["d"], "answer_source_index": 0}
VALID_TRIPLET = {"query": "q", "documents": ["d"], "summary": "s"}


class TestMalformedDatasetLine:
    @pytest.mark.parametrize(
        "command, valid, line2, named",
        [
            ("stats", VALID_TRIPLET, '{"documents": ["d"], "summary": "s"}', "'query'"),
            ("stats", VALID_TRIPLET, '{"query": "q", ', "Expecting"),
            ("stats", VALID_TRIPLET, '{"query": "q", "documents": [5], "summary": "s"}',
             "documents"),
            ("stats", VALID_TRIPLET, '["q", ["d"], "s"]', "JSON object"),
            ("stats", VALID_TRIPLET, '{"query": "q", "documents": "abc", "summary": "s"}',
             "must be a list"),
            ("build-qmdscnn", VALID_ARTICLE, '{"id": 2, "paragraphs": ["p"], "summary": "s"}',
             "'title'"),
            ("build-qmdsir", VALID_RECORD, '{"query": "q", "answer_passage": "a", "documents": []}',
             "'answer_source_index'"),
            ("stats", VALID_TRIPLET, '{"query": 5, "documents": ["d"], "summary": "s"}',
             "query must be a string, got int"),
            ("stats", VALID_TRIPLET, '{"query": "q", "documents": ["d"], "summary": ["s"]}',
             "summary must be a string, got list"),
            ("build-qmdsir", VALID_RECORD,
             '{"query": "q", "answer_passage": "a", "documents": ["d", "e"], '
             '"answer_source_index": 1.5}', "answer_source_index must be an integer, got float"),
            ("build-qmdsir", VALID_RECORD,
             '{"query": "q", "answer_passage": "a", "documents": ["d", "e"], '
             '"answer_source_index": true}', "answer_source_index must be an integer, got bool"),
            ("build-qmdsir", VALID_RECORD,
             '{"query": null, "answer_passage": "a", "documents": ["d"], "answer_source_index": 0}',
             "query must be a string, got NoneType"),
            ("build-qmdsir", VALID_RECORD,
             '{"query": "q", "answer_passage": 7, "documents": ["d"], "answer_source_index": 0}',
             "answer_passage must be a string, got int"),
            ("build-qmdsir", VALID_RECORD,
             '{"query": "q", "answer_passage": "a", "documents": ["d", 3], '
             '"answer_source_index": 0}', "document 1 must be a string, got int"),
            ("build-qmdscnn", VALID_ARTICLE,
             '{"id": 2, "title": "t", "paragraphs": ["p"], "summary": 5}',
             "article 2 summary must be a string, got int"),
            ("build-qmdscnn", VALID_ARTICLE,
             '{"id": [1], "title": "t", "paragraphs": ["p"], "summary": "s"}',
             "article id must be a string or an integer, got list"),
            ("build-qmdscnn", VALID_ARTICLE,
             '{"id": true, "title": "t", "paragraphs": ["p"], "summary": "s"}',
             "article id must be a string or an integer, got bool"),
            ("stats", VALID_TRIPLET, '{"query": "q", "documents": ["d"], "summary": "s", "meta": 5}',
             "triplet meta must be an object, got int"),
            ("align-hist", VALID_TRIPLET,
             '{"query": "q", "documents": ["d", "e"], "summary": "s", "meta": {"origins": "ab"}}',
             "triplet meta origins must be a list, got str"),
        ],
        ids=["missing-field", "broken-json", "non-string-document", "non-object", "string-documents",
             "article-missing-field", "record-missing-field", "non-string-query",
             "non-string-summary", "float-source-index", "bool-source-index",
             "record-non-string-query", "record-non-string-answer", "record-non-string-document",
             "article-non-string-summary", "article-list-id", "article-bool-id",
             "non-object-meta", "string-origins"],
    )
    def test_error_names_file_and_line(self, tmp_path, monkeypatch, capsys,
                                       command, valid, line2, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text(json.dumps(valid) + "\n" + line2 + "\n")
        flag = {"stats": "--in", "align-hist": "--in", "build-qmdscnn": "--corpus",
                "build-qmdsir": "--records"}
        out = [] if flag[command] == "--in" else ["--out", "out.jsonl"]
        assert run(command, flag[command], "bad.jsonl", *out) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: bad.jsonl:2: ") and named in err
        assert not os.path.exists("out.jsonl")

    def test_blank_lines_still_count(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("\n" + json.dumps(VALID_ARTICLE) + "\n\n{}\n")
        with pytest.raises(ValueError, match=r"a\.jsonl:4: missing field 'id'"):
            load_records(path, Article)


def untrained_checkpoint(path, use_query_encoder=False, **meta_edits):
    """A d=16 model's weights with the manifest ``save_model_checkpoint``
    writes, then ``meta_edits`` applied (``None`` deletes a field)."""
    tokens = ["alpha", "beta", "café", "naïve"]
    vocab = Vocabulary(tokens)
    config = ModelConfig(
        vocab_size=len(vocab), d_model=16, ffn_hidden=32, heads=2, local_layers=1,
        global_layers=1, max_doc_tokens=20, max_docs=2, max_summary_tokens=10,
        use_query_encoder=use_query_encoder,
    )
    meta = {"model_config": asdict(config), "vocab": tokens, "step": 0}
    for field, value in meta_edits.items():
        if value is None:
            del meta[field]
        else:
            meta[field] = value
    save_arrays(path, SummModel(config, seed=0).state_arrays(), meta)
    return vocab


def nan_weight_checkpoint(path):
    """``untrained_checkpoint``'s weights with one NaN decoder weight."""
    untrained_checkpoint(path)
    arrays, meta = load_arrays(path)
    arrays["decoder.0.ffn.w1.w"][0, 0] = np.nan
    save_arrays(path, arrays, meta)


def one_triplet_file(path):
    save_records([Triplet("alpha query", ["alpha beta"], "beta", {"source_id": "q1"})], path)


class TestJsonlOutputs:
    @pytest.mark.parametrize("existing", [None, b'{"id": "old", "summary": "caf\xc3\xa9"}\n'])
    def test_failed_decode_leaves_the_out_file_as_it_was(
        self, tmp_path, monkeypatch, capsys, existing
    ):
        """The rows go to a temporary file that replaces ``--out`` only
        after the last row: a decode that fails writes no ``--out`` where
        none was, leaves an existing one byte-identical, and leaves no
        temporary file."""
        monkeypatch.chdir(tmp_path)
        nan_weight_checkpoint("nan.ckpt")
        one_triplet_file("triplets.jsonl")
        if existing is not None:
            (tmp_path / "decodes.jsonl").write_bytes(existing)
        before = sorted(os.listdir(tmp_path))
        assert run("decode", "--ckpt", "nan.ckpt", "--in", "triplets.jsonl",
                   "--out", "decodes.jsonl") == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: decoding step 1: ")
        assert sorted(os.listdir(tmp_path)) == before
        if existing is not None:
            assert (tmp_path / "decodes.jsonl").read_bytes() == existing

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


def test_decode_and_evaluate_default_to_decode_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    untrained_checkpoint("model.ckpt")
    one_triplet_file("triplets.jsonl")
    seen = []

    def fake_decode(model, triplets, vocab, decode_cfg):
        seen.append(decode_cfg)
        return iter([])

    class Report:
        def format(self):
            return ""

    def fake_evaluate(model, triplets, vocab, decode_cfg, mode):
        seen.append(decode_cfg)
        return Report()

    monkeypatch.setattr(cli, "decode_triplets", fake_decode)
    monkeypatch.setattr(cli, "evaluate", fake_evaluate)
    assert run("decode", "--ckpt", "model.ckpt", "--in", "triplets.jsonl",
               "--out", "decodes.jsonl") == 0
    assert run("evaluate", "--ckpt", "model.ckpt", "--in", "triplets.jsonl") == 0
    assert seen == [DecodeConfig(), DecodeConfig()]


def rewrite_manifest(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its manifest replaced by
    ``edit(manifest)``: bytes are written as they are, anything else as JSON."""
    raw = Path(src).read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    manifest = edit(json.loads(raw[12 : 12 + length]))
    if not isinstance(manifest, bytes):
        manifest = json.dumps(manifest).encode("utf-8")
    Path(dst).write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest + raw[12 + length :])


def drop_first_entry_key(key):
    """A ``rewrite_manifest`` edit deleting ``key`` from the first tensor entry."""

    def edit(manifest):
        del manifest["tensors"][0][key]
        return manifest
    return edit


def set_first_entry_key(key, value):
    """A ``rewrite_manifest`` edit setting ``key`` of the first tensor entry."""

    def edit(manifest):
        manifest["tensors"][0][key] = value
        return manifest
    return edit


def add_tie_embeddings(manifest):
    """A ``rewrite_manifest`` edit adding a field older model configs held."""
    manifest["meta"]["model_config"]["tie_embeddings"] = True
    return manifest


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

    def test_nan_weight_exits_1_instead_of_decoding_to_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        nan_weight_checkpoint("nan.ckpt")
        one_triplet_file("triplets.jsonl")
        assert run("decode", "--ckpt", "nan.ckpt", "--in", "triplets.jsonl",
                   "--out", "decodes.jsonl") == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: decoding step 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: b"{not json", "manifest is not UTF-8 JSON"),
            (lambda m: b"\xff{}", "manifest is not UTF-8 JSON"),
            (lambda m: [], "manifest must be a JSON object"),
            (lambda m: {**m, "meta": []}, "manifest 'meta' must be an object"),
            (lambda m: {"tensors": m["tensors"]}, "manifest 'meta' must be an object"),
            (lambda m: {**m, "tensors": {}}, "manifest 'tensors' must be a list"),
            (lambda m: {**m, "tensors": [1]}, "tensor entry 0 must be an object"),
            (drop_first_entry_key("name"), "tensor entry 0 has no 'name'"),
            (drop_first_entry_key("shape"), "tensor entry 0 has no 'shape'"),
            (drop_first_entry_key("offset"), "tensor entry 0 has no 'offset'"),
            (drop_first_entry_key("dtype"), "tensor entry 0 has no 'dtype'"),
            (set_first_entry_key("name", 3), "tensor entry 0: name must be a string, got 3"),
            (set_first_entry_key("shape", "ab"), "tensor entry 0: shape must be a list"),
            (set_first_entry_key("shape", [-1]), "tensor entry 0: shape must be a list"),
            (set_first_entry_key("offset", "0"), "tensor entry 0: offset must be a non-negative"),
            (set_first_entry_key("offset", -8), "tensor entry 0: offset must be a non-negative"),
            (set_first_entry_key("dtype", "xx"), "tensor entry 0: dtype must name a numeric"),
            (set_first_entry_key("dtype", "|O"), "tensor entry 0: dtype must name a numeric"),
            (lambda m: {**m, "meta": {**m["meta"], "vocab": ["alpha", "alpha", "beta", "café"]}},
             "duplicate tokens in vocabulary"),
            (lambda m: {**m, "meta": {**m["meta"], "vocab": "alpha beta"}},
             "vocab must be a list of strings"),
        ],
        ids=[
            "bad-json", "bad-utf8", "list", "meta-list", "no-meta", "tensors-object",
            "entry-not-object", "no-name", "no-shape", "no-offset", "no-dtype",
            "name-int", "shape-string", "shape-negative", "offset-string", "offset-negative",
            "dtype-unknown", "dtype-object",
            "duplicate-vocab", "vocab-string",
        ],
    )
    def test_malformed_manifest_exits_1_naming_the_path(
        self, tmp_path, monkeypatch, capsys, edit, message
    ):
        monkeypatch.chdir(tmp_path)
        untrained_checkpoint("ok.ckpt")
        rewrite_manifest("ok.ckpt", "bad.ckpt", edit)
        one_triplet_file("triplets.jsonl")
        for command in (["decode", "--out", "decodes.jsonl"], ["evaluate"]):
            argv = [command[0], "--ckpt", "bad.ckpt", "--in", "triplets.jsonl", *command[1:]]
            assert run(*argv) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: bad.ckpt: ") and message in err
            assert err.count("\n") == 1
        assert not os.path.exists("decodes.jsonl")


def readme_train_config():
    """The ``train`` JSON example of README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("`train` reads a JSON config:\n\n```json\n", 1)[1].split("```", 1)[0]


def test_readme_train_config_builds_through_the_config_reader(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(readme_train_config())
    cfg = cli._load_config(path)
    train_cfg = cli._section(path, cfg, "train", TrainConfig)
    vocab, model_cfg = cli._vocab_and_model(path, cfg, [Triplet("a query", ["a doc"], "a sum")])
    assert model_cfg.vocab_size == len(vocab) and model_cfg.use_query_encoder
    assert (train_cfg.train_path, train_cfg.val_path) == ("train.jsonl", "val.jsonl")


def transfer_config(workdir):
    """A transfer config over the first eight triplets of ``triplets.jsonl``."""
    trips = load_records("triplets.jsonl", Triplet)
    save_records(trips[:4], "src_a.jsonl")
    save_records(trips[4:6], "src_a_val.jsonl")
    save_records(trips[6:], "src_b.jsonl")
    save_records(trips[:2], "eval.jsonl")
    cfg = {
        "vocab_max_size": 300,
        "model": {
            "d_model": 16, "ffn_hidden": 32, "heads": 2, "local_layers": 1,
            "global_layers": 1, "dropout": 0.0,
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
    return cfg_path


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

    @pytest.mark.parametrize("score", ["high", True, None, float("nan")],
                             ids=["string", "bool", "null", "nan"])
    def test_resume_refuses_a_best_score_that_is_not_a_number(self, workdir, capsys, score):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        assert run("train", "--config", str(train_config(workdir, steps=2))) == 0
        best, latest = workdir / "ckpt" / "best.ckpt", workdir / "ckpt" / "latest.ckpt"
        arrays, meta = load_arrays(best)
        meta["val_rouge_l"] = score
        save_arrays(best, arrays, meta)
        before = {p: p.read_bytes() for p in (best, latest)}
        capsys.readouterr()
        assert run("train", "--config", str(train_config(workdir, steps=4)),
                   "--resume", str(latest)) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {best}: val_rouge_l must be a real number, got {score!r}\n"
        )
        assert {p: p.read_bytes() for p in (best, latest)} == before

    def test_resume_refuses_another_runs_best_checkpoint(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        assert run("train", "--config", str(train_config(workdir, steps=2))) == 0
        best = workdir / "ckpt" / "best.ckpt"
        other = workdir / "other"
        other.mkdir()
        latest = other / "latest.ckpt"
        latest.write_bytes((workdir / "ckpt" / "latest.ckpt").read_bytes())
        before = {p: p.read_bytes() for p in (best, latest)}
        capsys.readouterr()
        assert run("train", "--config", str(train_config(workdir, steps=4)),
                   "--resume", str(latest)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(latest) in err and str(best) in err
        assert {p: p.read_bytes() for p in (best, latest)} == before

    def test_transfer(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        cfg_path = transfer_config(workdir)
        assert run("transfer", "--config", str(cfg_path), "--source", "alpha",
                   "--eval", "eval.jsonl") == 0
        assert "rouge-1" in capsys.readouterr().out
        assert run("transfer", "--config", str(cfg_path), "--source", "combined",
                   "--eval", "eval.jsonl") == 0
        assert run("transfer", "--config", str(cfg_path), "--source", "missing",
                   "--eval", "eval.jsonl") == cli.EXIT_VALIDATION

    @pytest.mark.parametrize(
        "eval_path, finetune, edit, message",
        [
            ("empty.jsonl", [], None, "cannot evaluate an empty dataset"),
            ("eval.jsonl", ["--finetune", "src_b.jsonl"], None,
             "finetune triplets supplied without a finetune config"),
            ("eval.jsonl", ["--finetune", "empty.jsonl"],
             lambda cfg: cfg.update(finetune=dict(cfg["train"])), "no finetune triplets"),
            ("eval.jsonl", [], lambda cfg: cfg["sources"]["alpha"].update(val="empty.jsonl"),
             "no validation triplets"),
        ],
        ids=["empty-eval", "finetune-without-config", "empty-finetune", "empty-val"],
    )
    def test_transfer_fails_before_it_trains(
        self, workdir, capsys, eval_path, finetune, edit, message
    ):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = transfer_config(workdir)
        if edit:
            cfg = json.loads(path.read_text())
            edit(cfg)
            path.write_text(json.dumps(cfg))
        save_records([], "empty.jsonl")
        capsys.readouterr()
        assert run("transfer", "--config", str(path), "--source", "alpha",
                   "--eval", eval_path, *finetune) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "tr").exists()

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

    @pytest.mark.parametrize(
        "command, section, field, value",
        [
            ("train", "model", "bogus", 1),
            ("train", "model", "heads", "2"),
            ("train", "train", "bogus", 1),
            ("train", "train", "steps", "3"),
            ("transfer", "model", "bogus", 1),
            ("transfer", "train", "bogus", 1),
            ("transfer", "finetune", "bogus", 1),
            ("transfer", "finetune", "steps", "3"),
            ("transfer", "decode", "bogus", 1),
            ("transfer", "decode", "beam", "1"),
            ("train", "model", "dropout", "0.1"),
            ("train", "model", "max_docs", 2.0),
            ("train", "model", "use_query_encoder", "yes"),
            ("train", "train", "seed", True),
            ("train", "train", "base_lr", "1.0"),
            ("transfer", "decode", "alpha", None),
            ("transfer", "decode", "max_docs", 1.5),
            ("train", "train", "train_path", 0),
            ("train", "train", "checkpoint_dir", 5),
            ("train", "train", "fine_tune_from", 3),
        ],
    )
    def test_bad_config_field_names_config_and_section(
        self, workdir, capsys, command, section, field, value
    ):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = train_config(workdir) if command == "train" else transfer_config(workdir)
        cfg = json.loads(path.read_text())
        if section == "finetune":
            cfg["finetune"] = dict(cfg["train"])
        cfg[section][field] = value
        path.write_text(json.dumps(cfg))
        argv = ["--config", str(path)]
        if command == "transfer":
            argv += ["--source", "alpha", "--eval", "eval.jsonl"]
        assert run(command, *argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {section}: ")
        if field == "bogus":
            assert "unexpected keyword argument 'bogus'" in err
        else:
            kind = "an integer"
            if field in ("dropout", "base_lr", "alpha"):
                kind = "a real number"
            elif field == "use_query_encoder":
                kind = "a boolean"
            elif field in ("train_path", "checkpoint_dir", "fine_tune_from"):
                kind = "a string"
            assert err == f"error: {path}: {section}: {field} must be {kind}, got {value!r}\n"
        assert not (workdir / "ckpt").exists() and not (workdir / "tr").exists()

    @pytest.mark.parametrize("command", ["train", "transfer"])
    @pytest.mark.parametrize("value", ["2000", 2000.5, 5, True])
    def test_bad_vocab_max_size_names_the_file(self, workdir, capsys, command, value):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = train_config(workdir) if command == "train" else transfer_config(workdir)
        cfg = json.loads(path.read_text())
        cfg["vocab_max_size"] = value
        path.write_text(json.dumps(cfg))
        argv = ["--source", "alpha", "--eval", "eval.jsonl"] if command == "transfer" else []
        capsys.readouterr()
        assert run(command, "--config", str(path), *argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {path}: vocab_max_size must be an integer > 5, got {value!r}\n"
        )
        assert not (workdir / "ckpt").exists() and not (workdir / "tr").exists()

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_misspelled_section_names_the_file_and_key(self, workdir, capsys, command):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = train_config(workdir) if command == "train" else transfer_config(workdir)
        cfg = json.loads(path.read_text())
        # Either command's reader takes every section of both.
        path.write_text(json.dumps(dict(cfg, decode={}, finetune={}, sources={})))
        assert sorted(cli._load_config(path)) == sorted(cli.CONFIG_KEYS)
        cfg["modle"] = cfg.pop("model")
        path.write_text(json.dumps(cfg))
        argv = ["--source", "alpha", "--eval", "eval.jsonl"] if command == "transfer" else []
        capsys.readouterr()
        assert run(command, "--config", str(path), *argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unknown top-level keys ['modle']; ")
        assert not (workdir / "ckpt").exists() and not (workdir / "tr").exists()

    def test_nonpositive_decode_max_len_names_config_and_section(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = transfer_config(workdir)
        cfg = json.loads(path.read_text())
        cfg["decode"].update(min_len=0, max_len=0)
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("transfer", "--config", str(path), "--source", "alpha",
                   "--eval", "eval.jsonl") == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: decode: max_len must be >= 1, got 0\n"
        assert not (workdir / "tr").exists()

    @pytest.mark.parametrize("command", ["decode", "evaluate"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--min-len", "0", "--max-len", "0"], "max_len must be >= 1, got 0"),
            (["--alpha", "nan"], "alpha must be finite, got nan"),
            (["--alpha", "inf"], "alpha must be finite, got inf"),
            (["--min-len", "-3"], "min_len must be >= 0, got -3"),
        ],
        ids=["max_len", "alpha_nan", "alpha_inf", "min_len"],
    )
    def test_bad_search_flag_fails_before_the_checkpoint_loads(
        self, workdir, capsys, command, flags, message
    ):
        # The checkpoint does not exist, so only the flag check can answer.
        argv = ["--ckpt", "missing.ckpt", "--in", "missing.jsonl", *flags]
        argv += ["--out", "decodes.jsonl"] if command == "decode" else []
        assert run(command, *argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "decodes.jsonl").exists()

    def test_empty_validation_set_names_the_field(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        save_records([], "empty.jsonl")
        path = train_config(workdir)
        cfg = json.loads(path.read_text())
        cfg["train"]["val_path"] = "empty.jsonl"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("train", "--config", str(path)) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {path}: train.val_path empty.jsonl holds no triplets\n"
        )
        assert not (workdir / "ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_config_that_is_not_an_object_names_the_file(self, workdir, capsys, command):
        path = workdir / "c.json"
        path.write_text("[1, 2]")
        argv = ["--source", "alpha", "--eval", "eval.jsonl"] if command == "transfer" else []
        assert run(command, "--config", str(path), *argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: config must be a JSON object\n"

    @pytest.mark.parametrize(
        "sources, source, message",
        [
            (None, "alpha", "missing section 'sources'"),
            (["a.jsonl"], "alpha", "sources: section must be a JSON object"),
            (
                {"alpha": {"train": "a.jsonl"}},
                "alpha",
                "sources: 'alpha' must be an object with 'train' and 'val'",
            ),
            (
                {"alpha": {"train": 0, "val": "a.jsonl"}},
                "alpha",
                "sources: 'alpha': train must be a string, got 0",
            ),
            (
                {tag: {"train": "a.jsonl", "val": "a.jsonl"} for tag in ("a", "b", "c")},
                "combined",
                "combined mode needs exactly two sources, config has 3",
            ),
            (
                {tag: {"train": "a.jsonl", "val": "a.jsonl"} for tag in ("a", "b")},
                "gamma",
                "unknown source 'gamma'; config has ['a', 'b']",
            ),
        ],
        ids=[
            "missing", "list", "no-val", "path-not-a-string", "combined-of-three",
            "unknown-source",
        ],
    )
    def test_transfer_sources_errors_name_the_file(
        self, workdir, capsys, sources, source, message
    ):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        path = transfer_config(workdir)
        cfg = json.loads(path.read_text())
        if sources is None:
            del cfg["sources"]
        else:
            cfg["sources"] = sources
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("transfer", "--config", str(path), "--source", source,
                   "--eval", "eval.jsonl") == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (workdir / "tr").exists()

    @pytest.mark.parametrize("field", ["train_path", "val_path"])
    def test_train_without_a_data_path_names_it(self, workdir, capsys, field):
        path = train_config(workdir)
        cfg = json.loads(path.read_text())
        del cfg["train"][field]
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path)) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {path}: train.train_path and train.val_path must be set\n"
        )

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (drop_first_entry_key("dtype"), "has no 'dtype'"),
            (add_tie_embeddings, "tie_embeddings"),
        ],
        ids=["entry-without-dtype", "tie-embeddings"],
    )
    def test_old_layout_is_refused_by_every_load(self, workdir, capsys, edit, message):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        assert run("train", "--config", str(train_config(workdir, steps=2))) == 0
        rewrite_manifest(workdir / "ckpt" / "latest.ckpt", "old.ckpt", edit)
        capsys.readouterr()
        for argv in (
            ["decode", "--ckpt", "old.ckpt", "--in", "triplets.jsonl", "--out", "decodes.jsonl"],
            ["evaluate", "--ckpt", "old.ckpt", "--in", "triplets.jsonl"],
            ["train", "--config", str(train_config(workdir, steps=4)), "--resume", "old.ckpt"],
        ):
            assert run(*argv) == cli.EXIT_VALIDATION, argv
            err = capsys.readouterr().err
            assert err.startswith("error: old.ckpt: ") and message in err, argv
        assert not os.path.exists("decodes.jsonl")
        # The checkpoint it was edited from resumes.
        assert run("train", "--config", str(train_config(workdir, steps=4)),
                   "--resume", str(workdir / "ckpt" / "latest.ckpt")) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--config", "folder"],
            ["decode", "--ckpt", "folder", "--in", "triplets.jsonl", "--out", "decodes.jsonl"],
            ["decode", "--ckpt", "model.ckpt", "--in", "triplets.jsonl", "--out", "folder",
             "--max-len", "2"],
        ],
        ids=["train-config", "decode-ckpt", "decode-out"],
    )
    def test_directory_given_for_a_file_exits_1_naming_it(self, workdir, capsys, argv):
        untrained_checkpoint("model.ckpt")
        one_triplet_file("triplets.jsonl")
        os.mkdir("folder")
        assert run(*argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'folder'" in err and err.count("\n") == 1

    def test_resume_under_another_model_config_is_validation_error(self, workdir, capsys):
        run("build-qmdscnn", "--corpus", "articles.jsonl", "--k", "1", "--out", "triplets.jsonl")
        assert run("train", "--config", str(train_config(workdir, steps=2))) == 0
        path = train_config(workdir, steps=4)
        cfg = json.loads(path.read_text())
        cfg["model"]["dropout"] = 0.3
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        latest = str(workdir / "ckpt" / "latest.ckpt")
        assert run("train", "--config", str(path), "--resume", latest) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and latest in err and "dropout 0.0 -> 0.3" in err

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
