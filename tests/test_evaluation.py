import numpy as np
import pytest

from querysumm import autodiff as ad
from querysumm import decoding, training
from querysumm.decoding import DecodeConfig, beam_search
from querysumm.evaluation import (
    TransferSpec,
    decode_triplets,
    evaluate,
    interleave,
    transfer_pipeline,
)
from querysumm.model import SummModel, prepare_input
from querysumm.rouge import rouge_recall_truncated
from querysumm.text import build_vocab, tokenize
from querysumm.training import TrainConfig

from conftest import corpus_tokens, handmade_triplet, tiny_config


def target_decoder(trips, vocab, model, repeat=1, limit=None):
    """Teacher-forced oracle to stand in for ``decoding.beam_search``, which
    ``decode_inputs`` calls once per input: the n-th call emits the n-th
    triplet's target ids, ``repeat`` times over and cut to ``limit``."""
    targets = iter(
        [list(prepare_input(t, vocab, model.config).target_ids) * repeat for t in trips]
    )
    return lambda m, enc, cfg: next(targets)[:limit]


def setup_eval(n=4):
    trips = [handmade_triplet(tag=f"e{i}") for i in range(n)]
    vocab = build_vocab(corpus_tokens(trips), 64)
    model = SummModel(tiny_config(len(vocab), d_model=16, heads=2), seed=0)
    return trips, vocab, model


class TestEvaluate:
    def test_oracle_decoder_scores_one(self, monkeypatch):
        trips, vocab, model = setup_eval()
        monkeypatch.setattr(decoding, "beam_search", target_decoder(trips, vocab, model))
        report = evaluate(model, trips, vocab, DecodeConfig(beam=1, max_len=12), mode="f1")
        for metric in ("rouge-1", "rouge-2", "rouge-l"):
            p, r, f1 = report.averages[metric]
            assert f1 == pytest.approx(1.0)

    def test_recall250_equals_truncated_f1_recall(self, monkeypatch):
        # A 300-token decode scored in recall mode must match the recall of
        # its manually pre-truncated 250-token prefix.
        trips, vocab, model = setup_eval(n=2)
        long_decoder = target_decoder(trips, vocab, model, repeat=100, limit=300)
        monkeypatch.setattr(decoding, "beam_search", long_decoder)
        report = evaluate(
            model, trips, vocab, DecodeConfig(beam=1, max_len=400), mode="recall250"
        )
        for i, t in enumerate(trips):
            decoded_tokens = report.rows[i]["summary"].split()
            assert len(decoded_tokens) == 300
            ref = tokenize(t.summary)
            expected = rouge_recall_truncated(decoded_tokens, ref, 250)
            for metric in ("rouge-1", "rouge-2", "rouge-l", "rouge-su4"):
                assert report.rows[i][metric] == pytest.approx(expected[metric])

    def test_averages_equal_hand_average(self):
        trips, vocab, model = setup_eval()
        report = evaluate(
            model, trips, vocab, DecodeConfig(beam=1, max_len=8), mode="f1"
        )
        for metric in ("rouge-1", "rouge-l"):
            hand = np.mean([row[metric][2] for row in report.rows])
            assert report.averages[metric][2] == pytest.approx(hand)

    def test_report_formatting_four_decimals(self):
        trips, vocab, model = setup_eval(n=2)
        report = evaluate(
            model, trips, vocab, DecodeConfig(beam=1, max_len=8), mode="f1"
        )
        lines = report.format().splitlines()
        assert lines[0] == "metric precision recall f1"
        assert all(len(part.split(".")[-1]) == 4 for part in lines[1].split()[1:])

    def test_evaluate_is_deterministic(self):
        trips, vocab, model = setup_eval(n=2)
        cfg = DecodeConfig(beam=2, alpha=0.4, min_len=1, max_len=8)
        a = evaluate(model, trips, vocab, cfg, mode="f1")
        b = evaluate(model, trips, vocab, cfg, mode="f1")
        assert a.averages == b.averages
        assert [r["summary"] for r in a.rows] == [r["summary"] for r in b.rows]

    def test_decode_time_limits_reach_input_not_model(self, monkeypatch):
        trips = [handmade_triplet(n_docs=5, doc_tokens=30, tag=f"e{i}") for i in range(2)]
        vocab = build_vocab(corpus_tokens(trips), 64)
        model = SummModel(tiny_config(len(vocab), d_model=16, heads=2), seed=0)
        config = model.config
        seen = []

        def check_decoder(m, enc, cfg):
            assert m.config is config
            assert (config.max_docs, config.max_doc_tokens) == (3, 24)
            seen.append(enc.token_states.shape[:2])
            return []

        monkeypatch.setattr(decoding, "beam_search", check_decoder)
        evaluate(
            model, trips, vocab, DecodeConfig(beam=1, max_doc_tokens=7, max_docs=2), mode="f1"
        )
        assert seen == [(2, 7), (2, 7)]

    def test_decodes_build_no_graph(self, monkeypatch):
        trips, vocab, model = setup_eval(n=2)
        x = model.params["embed"]
        seen = []

        def graph_free_decoder(m, enc, cfg):
            assert enc.memory.parents == () and not enc.memory.requires_grad
            assert not ad.add(x, x).requires_grad
            seen.append(enc.token_states.shape)
            return beam_search(m, enc, cfg)

        monkeypatch.setattr(decoding, "beam_search", graph_free_decoder)
        evaluate(model, trips, vocab, DecodeConfig(beam=2, max_len=4), mode="f1")
        assert len(seen) == 2
        assert ad.add(x, x).requires_grad  # graph building is back on

    def test_empty_dataset_and_bad_mode(self):
        trips, vocab, model = setup_eval(n=1)
        with pytest.raises(ValueError):
            evaluate(model, [], vocab, DecodeConfig(beam=1), mode="f1")
        with pytest.raises(ValueError):
            evaluate(model, trips, vocab, DecodeConfig(beam=1), mode="nope")


class TestOneDecodeLoop:
    """Validation, ``evaluate`` and ``querysumm decode`` decode through
    ``decoding.decode_inputs``."""

    def test_validate_is_the_mean_of_evaluates_beam_one_rouge_l(self):
        trips, vocab, _ = setup_eval()
        # Seed 4's greedy decodes share words with the references.
        model = SummModel(tiny_config(len(vocab), d_model=16, heads=2), seed=4)
        inputs = [prepare_input(t, vocab, model.config) for t in trips]
        refs = [tokenize(t.summary) for t in trips]
        score = training.validate(model, inputs, refs, vocab)
        cfg = DecodeConfig(beam=1, alpha=0.0, min_len=1, max_len=model.config.max_summary_tokens)
        report = evaluate(model, trips, vocab, cfg, mode="f1")
        assert score > 0.0
        assert score == np.mean([row["rouge-l"][2] for row in report.rows])

    def test_graph_building_is_on_between_two_decodes(self):
        trips, vocab, model = setup_eval(n=2)
        x = model.params["embed"]
        decoded = decode_triplets(model, trips, vocab, DecodeConfig(beam=2, max_len=4))
        for _ in trips:
            next(decoded)
            assert ad.add(x, x).requires_grad
        assert next(decoded, None) is None

    def test_validate_decodes_no_input_beyond_the_last_reference(self, monkeypatch):
        trips, vocab, model = setup_eval(n=3)
        inputs = [prepare_input(t, vocab, model.config) for t in trips]
        calls = []

        def counted(m, enc, cfg):
            calls.append(cfg.beam)
            return beam_search(m, enc, cfg)

        monkeypatch.setattr(decoding, "beam_search", counted)
        training.validate(model, inputs, [tokenize(trips[0].summary)], vocab)
        assert calls == [1]


class TestInterleave:
    def test_one_to_one_alternation(self):
        a = [f"a{i}" for i in range(4)]
        b = [f"b{i}" for i in range(4)]
        merged = interleave(a, b, seed=0)
        assert [x[0] for x in merged] == list("abababab")
        assert sorted(merged) == sorted(a + b)

    def test_leftovers_appended(self):
        a = [f"a{i}" for i in range(5)]
        b = ["b0"]
        merged = interleave(a, b, seed=1)
        assert len(merged) == 6
        assert "b0" in merged[:2]  # pairs first, then leftovers
        assert sorted(merged) == sorted(a + b)

    def test_deterministic_per_seed(self):
        a, b = list("pqrs"), list("wxyz")
        assert interleave(a, b, 7) == interleave(a, b, 7)

    def test_golden_order(self):
        """The combined-source order for fixed inputs and seeds; seeds equal
        modulo 2**32 give the same order."""
        a, b = list(range(5)), list("vwx")
        assert interleave(a, b, 0) == [4, "v", 2, "x", 3, "w", 0, 1]
        assert interleave(a, b, 7) == [3, "v", 0, "x", 2, "w", 4, 1]
        assert interleave(a, b, 2**32 + 7) == interleave(a, b, 7)
        assert interleave(list("pqrs"), list(range(10, 16)), 3) == [
            "q", 15, "r", 12, "s", 14, "p", 10, 11, 13
        ]


def transfer_spec(tmp_path, vocab, finetune=True):
    return TransferSpec(
        model_config=tiny_config(len(vocab), d_model=16, heads=2),
        train_config=TrainConfig(
            steps=2, checkpoint_dir=str(tmp_path), batch_tokens=128, val_interval=1,
            seed=0, base_lr=1.0, warmup=20,
        ),
        decode_config=DecodeConfig(beam=1, alpha=0.0, min_len=1, max_len=8),
        finetune_config=TrainConfig(
            steps=1, checkpoint_dir=str(tmp_path / "unused"), batch_tokens=128,
            val_interval=1, seed=0, base_lr=1.0, warmup=20,
        ) if finetune else None,
    )


def test_transfer_pipeline_smoke(tmp_path):
    trips = [handmade_triplet(tag=f"s{i}") for i in range(6)]
    eval_trips = [handmade_triplet(tag=f"v{i}") for i in range(2)]
    vocab = build_vocab(corpus_tokens(trips + eval_trips), 64)
    spec = transfer_spec(tmp_path, vocab)
    report, result = transfer_pipeline(
        spec, trips, trips[:2], eval_trips, vocab, finetune_triplets=trips[:3]
    )
    assert report.mode == "recall250"
    assert set(report.averages) == {"rouge-1", "rouge-2", "rouge-l", "rouge-su4"}
    assert "finetune" in result.best_path


@pytest.mark.parametrize(
    "with_finetune_config, val_count, eval_count, finetune_count, message",
    [
        (True, 2, 0, 0, "cannot evaluate an empty dataset"),
        (False, 2, 2, 3, "finetune triplets supplied without a finetune config"),
        (True, 2, 2, 0, "no finetune triplets"),
        (True, 0, 2, None, "no validation triplets"),
    ],
    ids=["empty-eval", "finetune-without-config", "empty-finetune", "empty-val"],
)
def test_transfer_pipeline_fails_before_it_trains(
    tmp_path, with_finetune_config, val_count, eval_count, finetune_count, message
):
    trips = [handmade_triplet(tag=f"s{i}") for i in range(6)]
    vocab = build_vocab(corpus_tokens(trips), 64)
    spec = transfer_spec(tmp_path / "ckpt", vocab, finetune=with_finetune_config)
    finetune = None if finetune_count is None else trips[:finetune_count]
    with pytest.raises(ValueError, match=message):
        transfer_pipeline(
            spec, trips, trips[:val_count], trips[:eval_count], vocab, finetune
        )
    assert not (tmp_path / "ckpt").exists()
