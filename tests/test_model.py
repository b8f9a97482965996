import json
import math
import tracemalloc

import numpy as np
import pytest

from querysumm import autodiff as ad
from querysumm.autodiff import backward
from querysumm.checkpoint import load_arrays, save_arrays
from querysumm.data import Triplet
from querysumm.model import (
    GlobalLayer,
    LocalLayer,
    ModelConfig,
    ModelInput,
    MultiHeadAttention,
    MultiHeadPooling,
    OrderingScores,
    ParamStore,
    QueryLayer,
    SummModel,
    joint_flags,
    ordering_encoding,
    prepare_input,
    real_documents,
    sinusoid_table,
)
from querysumm.optim import AdamNoam
from querysumm.text import BOS_ID, PAD_ID, QSEP_ID, Vocabulary, build_vocab, tokenize
from querysumm.training import load_model_checkpoint, save_model_checkpoint

from conftest import handmade_triplet, tiny_config


def reference_sinusoid(positions, dim):
    """Independent recomputation of the position encoding."""
    out = np.zeros((len(positions), dim))
    for row, pos in enumerate(positions):
        for j in range(0, dim, 2):
            angle = pos / 10000 ** (j / dim)
            out[row, j] = math.sin(angle)
            if j + 1 < dim:
                out[row, j + 1] = math.cos(angle)
    return out


class TestModelConfig:
    def test_default_layer_split_with_query(self):
        cfg = ModelConfig(vocab_size=100, use_query_encoder=True, baseline_query_prepend=False)
        assert (cfg.local_layers, cfg.query_layers, cfg.global_layers) == (5, 1, 2)

    def test_default_layer_split_without_query(self):
        cfg = ModelConfig(vocab_size=100)
        assert (cfg.local_layers, cfg.query_layers, cfg.global_layers) == (6, 0, 2)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=100, d_model=30, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=100, use_query_encoder=True, query_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=100, use_query_encoder=True, baseline_query_prepend=True)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=3)

    @pytest.mark.parametrize(
        "field", ["max_doc_tokens", "max_docs", "max_summary_tokens", "heads", "dropout"]
    )
    def test_input_limits_must_be_positive(self, field):
        # A dropout rate must also stay below 1, where nothing is kept.
        bad, good = ((1.0, -0.1, float("nan")), 0.0) if field == "dropout" else ((0, -1), 1)
        for value in bad:
            with pytest.raises(ValueError, match=field):
                ModelConfig(vocab_size=100, **{field: value})
        assert getattr(ModelConfig(vocab_size=100, **{field: good}), field) == good

    def test_json_roundtrip_mirrors_field_names(self):
        cfg = tiny_config(50, use_hierarchical_merge=True)
        blob = json.loads(cfg.to_json())
        assert blob["d_model"] == 16 and blob["use_hierarchical_merge"] is True
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_joint_flags_per_dataset_family(self):
        for family in ("qmdscnn", "qmdsir"):
            flags = joint_flags(family)
            assert flags["use_hierarchical_merge"] and flags["use_query_encoder"]
            cfg = ModelConfig(vocab_size=100, **flags)
            assert cfg.query_layers == 1
        flags = joint_flags("wikisum")
        assert flags["use_hierarchical_merge"] and flags["use_ordering"]
        assert "use_query_encoder" not in flags
        with pytest.raises(ValueError):
            joint_flags("unknown")


class TestSinusoids:
    def test_position_zero_pattern(self):
        table = sinusoid_table(1, 8, np.float64)
        np.testing.assert_allclose(table[0, 0::2], 0.0)
        np.testing.assert_allclose(table[0, 1::2], 1.0)

    def test_matches_reference(self):
        table = sinusoid_table(7, 10, np.float64)
        np.testing.assert_allclose(table, reference_sinusoid(range(7), 10), atol=1e-12)


class TestOrderingEncoding:
    def test_zero_score_pattern(self):
        r = ad.tensor(np.zeros(3), np.float64)
        pe = ordering_encoding(r, 8).values
        np.testing.assert_allclose(pe[:, 0::2], 0.0)
        np.testing.assert_allclose(pe[:, 1::2], 1.0)

    def test_unit_score_d4_frozen_values(self):
        r = ad.tensor(np.array([1.0]), np.float64)
        pe = ordering_encoding(r, 4).values[0]
        np.testing.assert_allclose(
            pe, [0.841471, 0.540302, 0.0099998, 0.999950], atol=1e-6
        )

    def test_equal_scores_identical_rows(self):
        r = ad.tensor(np.full(4, 0.25), np.float64)
        pe = ordering_encoding(r, 12).values
        for row in pe[1:]:
            np.testing.assert_array_equal(row, pe[0])

    def test_matches_reference_for_random_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.choice([4, 8, 16, 30]))
            scores = rng.random(5)
            pe = ordering_encoding(ad.tensor(scores, np.float64), d).values
            np.testing.assert_allclose(pe, reference_sinusoid(scores, d), atol=1e-9)

    def test_gradient_flows_into_scores(self):
        r = ad.parameter(np.array([0.3, 0.7]), np.float64)
        backward(ad.tsum(ordering_encoding(r, 8)))
        assert np.all(np.abs(r.grad) > 0)


class TestEmbedInputs:
    def make_model(self, **kw):
        return SummModel(tiny_config(40, d_model=8, heads=2, **kw), seed=3, dtype=np.float64)

    def input_for(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        return ModelInput(
            doc_ids=ids,
            query_ids=np.array([], dtype=np.int64),
        )

    def test_matches_independent_sinusoid_oracle(self):
        model = self.make_model(baseline_query_prepend=False)
        ids = [[5, 6, 7], [8, 9, 5]]
        states = model.embed_inputs(self.input_for(ids))
        half = 4
        inter = reference_sinusoid(range(2), half)
        intra = reference_sinusoid(range(3), half)
        for i in range(2):
            for j in range(3):
                expected = math.sqrt(8) * model.embed.values[ids[i][j]] + np.concatenate(
                    [inter[i], intra[j]]
                )
                np.testing.assert_allclose(states.values[i, j], expected, atol=1e-9)

    def test_identical_tokens_differ_only_in_intra_half(self):
        model = self.make_model(baseline_query_prepend=False)
        states = model.embed_inputs(self.input_for([[5, 5, 5]]))
        diff = states.values[0, 1] - states.values[0, 0]
        np.testing.assert_allclose(diff[:4], 0.0, atol=1e-12)  # same document
        assert np.abs(diff[4:]).max() > 0

    def test_ordering_zeroes_inter_document_half(self):
        model = self.make_model(use_ordering=True, baseline_query_prepend=False)
        states = model.embed_inputs(self.input_for([[5, 6], [5, 6]]))
        # identical token at same intra position in different documents must
        # now embed identically
        np.testing.assert_array_equal(states.values[0, 0], states.values[1, 0])

    def test_encodes_input_as_given(self):
        # Input limits belong to prepare_input; the model never cuts.
        model = self.make_model(baseline_query_prepend=False)
        states = model.embed_inputs(self.input_for(np.full((10, 50), 5)))
        assert states.shape == (10, 50, 8)  # beyond max_docs=3, max_doc_tokens=24


class TestLayers:
    def setup_method(self):
        self.cfg = tiny_config(40, d_model=8, heads=2)
        self.store = ParamStore(0, np.float64)
        self.rng = np.random.default_rng(0)

    def states(self, *shape):
        return ad.tensor(self.rng.standard_normal(shape), np.float64)

    def test_local_attention_is_proper(self):
        layer = LocalLayer(self.store, "local", self.cfg)
        x = self.states(2, 5, 8)
        mask = np.ones((2, 5), dtype=bool)
        mask[1, 4] = False
        out, attn = layer.attn(x, x, x, key_mask=mask)
        # every real query position: head distribution sums to 1
        np.testing.assert_allclose(attn.values.sum(axis=-1), 1.0, atol=1e-9)
        # the padded token receives exactly zero attention from everyone
        np.testing.assert_array_equal(attn.values[1, :, :, 4], 0.0)
        assert layer(x, mask).shape == (2, 5, 8)

    def test_pooling_single_token_equals_projected_value(self):
        pool = MultiHeadPooling(self.store, "pool", 8, 2)
        x = self.states(1, 1, 8)
        out = pool(x).values
        manual = pool.out(pool.value(x)).values.reshape(1, 8)
        np.testing.assert_allclose(out, manual, atol=1e-12)

    def test_pooling_uniform_scores_give_mean(self):
        pool = MultiHeadPooling(self.store, "pool2", 8, 2)
        pool.score.w.values[:] = 0.0  # equal logits -> uniform weights
        x = self.states(1, 6, 8)
        out = pool(x).values
        manual = pool.out(
            ad.tensor(pool.value(x).values.mean(axis=1), np.float64)
        ).values
        np.testing.assert_allclose(out, manual, atol=1e-12)

    def test_pooling_all_masked_row_pools_to_output_bias(self):
        pool = MultiHeadPooling(self.store, "pool3", 8, 2)
        pool.out.b.values[:] = self.rng.standard_normal(8)
        mask = np.ones((2, 3), dtype=bool)
        mask[1] = False
        out = pool(self.states(2, 3, 8), mask).values
        np.testing.assert_array_equal(out[1], pool.out.b.values)

    def test_query_layer_zeroed_value_projection_reduces_to_layer_norm(self):
        cfg = tiny_config(40, d_model=8, heads=2, use_query_encoder=True, query_layers=1,
                          baseline_query_prepend=False)
        layer = QueryLayer(self.store, "q", cfg)
        layer.wv.w.values[:] = 0.0  # value path off; biases are zero
        x = self.states(2, 4, 8)
        q = self.states(3, 8)
        out = layer(x, q, np.ones((2, 4), dtype=bool))
        o1 = ad.layer_norm(x, layer.ln1.gain, layer.ln1.bias)
        expected = ad.layer_norm(
            ad.add(o1, layer.ffn(o1)), layer.ln2.gain, layer.ln2.bias
        )
        np.testing.assert_allclose(out.values, expected.values, atol=1e-12)

    def test_query_layer_shape_preserved(self):
        cfg = tiny_config(40, d_model=8, heads=2, use_query_encoder=True, query_layers=1,
                          baseline_query_prepend=False)
        layer = QueryLayer(self.store, "q2", cfg)
        x = self.states(3, 5, 8)
        out = layer(x, self.states(2, 8), np.ones((3, 5), dtype=bool))
        assert out.shape == x.shape

    def test_global_single_document_self_attention(self):
        layer = GlobalLayer(self.store, "g", self.cfg)
        x = self.states(1, 4, 8)
        _, attn = layer.inter(
            ad.reshape(layer.pool(x, np.ones((1, 4), bool)), (1, 1, 8)),
            ad.reshape(layer.pool(x, np.ones((1, 4), bool)), (1, 1, 8)),
            ad.reshape(layer.pool(x, np.ones((1, 4), bool)), (1, 1, 8)),
            key_mask=np.ones((1, 1), bool),
        )
        np.testing.assert_allclose(attn.values, 1.0)

    def test_global_padded_document_gets_zero_attention(self):
        layer = GlobalLayer(self.store, "g2", self.cfg)
        x = self.states(3, 4, 8)
        mask = np.ones((3, 4), dtype=bool)
        mask[2] = False
        doc_mask = np.array([True, True, False])
        docvecs = layer.pool(x, mask)
        seq = ad.reshape(docvecs, (1, 3, 8))
        _, attn = layer.inter(seq, seq, seq, key_mask=doc_mask[None, :])
        np.testing.assert_array_equal(attn.values[0, :, :, 2], 0.0)
        out, vecs = layer(x, mask)
        assert out.shape == x.shape and vecs.shape == (3, 8)

    def test_global_no_real_documents_errors(self):
        layer = GlobalLayer(self.store, "g3", self.cfg)
        with pytest.raises(ValueError):
            layer(self.states(2, 3, 8), np.zeros((2, 3), bool))

    def test_ordering_identical_vectors_split_evenly(self):
        scorer = OrderingScores(self.store, "o", 8)
        vec = self.rng.standard_normal(8)
        vecs = ad.tensor(np.stack([vec, vec]), np.float64)
        r = scorer(vecs, np.array([True, True])).values
        np.testing.assert_allclose(r, [0.5, 0.5], atol=1e-12)

    def test_ordering_masked_documents_zero(self):
        scorer = OrderingScores(self.store, "o2", 8)
        vecs = self.states(4, 8)
        mask = np.array([True, True, False, True])
        r = scorer(vecs, mask).values
        assert r[2] == 0.0
        assert r[mask].sum() == pytest.approx(1.0)

    def test_ordering_permutes_with_input(self):
        scorer = OrderingScores(self.store, "o3", 8)
        vecs = self.rng.standard_normal((4, 8))
        perm = np.array([2, 0, 3, 1])
        r = scorer(ad.tensor(vecs, np.float64), np.ones(4, bool)).values
        r_perm = scorer(ad.tensor(vecs[perm], np.float64), np.ones(4, bool)).values
        np.testing.assert_allclose(r_perm, r[perm], atol=1e-12)


class TestQueryLayerClosedForm:
    """The query layer is the closed form of attention whose value is the
    pooled query at every key; these tests hold it to that attention."""

    def query_config(self):
        return tiny_config(40, d_model=8, heads=2, use_query_encoder=True, query_layers=1,
                           baseline_query_prepend=False)

    def test_matches_explicit_attention_with_any_query_key_projections(self):
        cfg = self.query_config()
        rng = np.random.default_rng(3)
        layer = QueryLayer(ParamStore(0, np.float64), "q", cfg)
        for p in (layer.wv.b, layer.wo.b, layer.ln1.gain, layer.ln1.bias):
            p.values[:] = rng.standard_normal(p.shape)
        x = ad.tensor(rng.standard_normal((3, 4, 8)), np.float64)
        q = ad.tensor(rng.standard_normal((5, 8)), np.float64)
        mask = np.ones((3, 4), dtype=bool)
        mask[0, 3] = False  # a padded token
        mask[2, :] = False  # a fully padded document
        out = layer(x, q, mask)

        value = ad.tensor(np.broadcast_to(layer.pool(q).values, (3, 4, 8)), np.float64)
        for seed in (1, 2):  # random wq/wk, shared wv/wo
            attn = MultiHeadAttention(ParamStore(seed, np.float64), "attn", 8, 2)
            attn.wq.b.values[:] = rng.standard_normal(8)
            attn.wv, attn.wo = layer.wv, layer.wo
            a, _ = attn(x, x, value, key_mask=mask)
            o1 = layer.ln1(ad.add(x, a))
            expected = layer.ln2(ad.add(o1, layer.ffn(o1)))
            np.testing.assert_allclose(out.values, expected.values, rtol=0, atol=1e-12)

    def test_checkpoint_with_query_key_projections_still_loads(self, tmp_path):
        trip = handmade_triplet(n_docs=2, doc_tokens=5, summary_tokens=3)
        vocab = build_vocab(
            [tokenize(d) for d in trip.documents] + [tokenize(trip.query), tokenize(trip.summary)],
            64,
        )
        cfg = tiny_config(len(vocab), use_query_encoder=True, query_layers=1,
                          baseline_query_prepend=False)
        model = SummModel(cfg, seed=4)
        path = tmp_path / "m.ckpt"
        save_model_checkpoint(path, model, AdamNoam(model.params, cfg.d_model), vocab, {"step": 1})
        arrays, meta = load_arrays(path)
        rng = np.random.default_rng(0)
        d = cfg.d_model
        # The attention form of the query layer also stored these.
        arrays["query.0.attn.wq.w"] = rng.standard_normal((d, d))
        arrays["query.0.attn.wq.b"] = rng.standard_normal(d)
        arrays["query.0.attn.wk.w"] = rng.standard_normal((d, d))
        save_arrays(path, arrays, meta)

        loaded, _, _ = load_model_checkpoint(path)
        assert "query.0.attn.wq.w" not in loaded.params
        inp = prepare_input(trip, vocab, cfg)
        assert loaded.loss(inp).item() == pytest.approx(model.loss(inp).item(), rel=1e-6)


class TestMergeAndMemory:
    def make_model(self, **kw):
        return SummModel(
            tiny_config(40, d_model=8, heads=2, baseline_query_prepend=False, **kw),
            seed=1,
            dtype=np.float64,
        )

    def input_for(self, model, n=2, t=4):
        rng = np.random.default_rng(5)
        return ModelInput(
            doc_ids=rng.integers(5, 40, size=(n, t)).astype(np.int64),
            query_ids=np.array([6], dtype=np.int64),
            target_ids=np.array([7, 8, 9], dtype=np.int64),
        )

    def test_memory_is_flattened(self):
        model = self.make_model(use_hierarchical_merge=True)
        enc = model.encode(self.input_for(model))
        assert enc.memory.shape == (8, 8)
        assert enc.memory_mask.shape == (8,)

    def test_zeroed_local_block_reduces_to_global_map(self):
        model = self.make_model(use_hierarchical_merge=True)
        model.merge.w.values[:8, :] = 0.0  # kill the local half
        enc = model.encode(self.input_for(model))
        manual = enc.token_states.values.reshape(8, 8) @ model.merge.w.values[8:, :]
        manual += model.merge.b.values
        np.testing.assert_allclose(enc.memory.values, manual, atol=1e-12)

    def test_gradient_reaches_both_branches(self):
        model = self.make_model(use_hierarchical_merge=True)
        inp = self.input_for(model)
        enc = model.encode(inp)
        backward(ad.tsum(enc.memory))
        assert np.abs(enc.local_states.grad).max() > 0
        assert np.abs(enc.token_states.grad).max() > 0

    def test_without_merge_memory_is_global_states(self):
        model = self.make_model()
        enc = model.encode(self.input_for(model))
        np.testing.assert_array_equal(
            enc.memory.values, enc.token_states.values.reshape(8, 8)
        )

    def test_ordering_flag_controls_r(self):
        with_r = self.make_model(use_ordering=True)
        without = self.make_model()
        inp = self.input_for(with_r)
        assert with_r.encode(inp).ordering is not None
        assert without.encode(inp).ordering is None


class TestPaddedDocument:
    def test_all_pad_document_is_no_document(self):
        """An all-PAD row gets no inter-document attention, no ordering
        score and no unmasked decoder memory."""
        model = SummModel(
            tiny_config(40, d_model=8, heads=2, global_layers=2, use_ordering=True,
                        use_hierarchical_merge=True, baseline_query_prepend=False),
            seed=2,
            dtype=np.float64,
        )
        doc_ids = np.random.default_rng(3).integers(5, 40, size=(3, 5))
        doc_ids[1] = PAD_ID
        doc_ids[2, 3:] = PAD_ID
        inter_attn = []
        for layer in model.globals_:
            def record(*args, inter=layer.inter, **kw):
                out, attn = inter(*args, **kw)
                inter_attn.append(attn.values)
                return out, attn
            layer.inter = record
        enc = model.encode(ModelInput(doc_ids=doc_ids, query_ids=np.array([6])))
        assert len(inter_attn) == 2
        for attn in inter_attn:
            assert np.all(attn[..., 1] == 0.0)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
        r = enc.ordering.values
        assert r[1] == 0.0 and r.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(enc.memory_mask.reshape(3, 5), doc_ids != PAD_ID)
        assert not enc.memory_mask.reshape(3, 5)[1].any()


class TestDecoderAndForward:
    def model_and_input(self, seed=0, **kw):
        model = SummModel(
            tiny_config(60, d_model=8, heads=2, baseline_query_prepend=False, **kw),
            seed=seed,
            dtype=np.float64,
        )
        rng = np.random.default_rng(seed + 10)
        inp = ModelInput(
            doc_ids=rng.integers(5, 60, size=(2, 5)).astype(np.int64),
            query_ids=np.array([7, 8], dtype=np.int64),
            target_ids=rng.integers(5, 60, size=4).astype(np.int64),
        )
        return model, inp

    def test_causal_mask(self):
        model, inp = self.model_and_input()
        enc = model.encode(inp)
        prefix = [BOS_ID, 10, 11, 12]
        logits = model.decode_logits(prefix, enc.memory, enc.memory_mask).values
        edited = list(prefix)
        edited[3] = 33
        logits2 = model.decode_logits(edited, enc.memory, enc.memory_mask).values
        np.testing.assert_array_equal(logits[:3], logits2[:3])
        assert np.abs(logits[3] - logits2[3]).max() > 0

    def test_cross_attention_sums_to_one(self):
        model, inp = self.model_and_input()
        enc = model.encode(inp)
        x = ad.tensor(np.random.default_rng(0).standard_normal((3, 8)), np.float64)
        layer = model.decoder[0]
        _, attn = layer.cross_attn(x, enc.memory, enc.memory, key_mask=enc.memory_mask)
        np.testing.assert_allclose(attn.values.sum(axis=-1), 1.0, atol=1e-9)

    def test_empty_prefix_rejected(self):
        model, inp = self.model_and_input()
        enc = model.encode(inp)
        with pytest.raises(ValueError):
            model.decode_logits([], enc.memory, enc.memory_mask)
        with pytest.raises(ValueError):
            model.decode_logits([5, 6], enc.memory, enc.memory_mask)

    def test_initial_loss_near_uniform_entropy(self):
        rng = np.random.default_rng(2)
        for vocab_size in (60, 200):
            model = SummModel(
                tiny_config(vocab_size, d_model=16, heads=2, baseline_query_prepend=False),
                seed=int(rng.integers(1000)),
            )
            inp = ModelInput(
                doc_ids=rng.integers(5, vocab_size, size=(2, 6)).astype(np.int64),
                query_ids=np.array([5], dtype=np.int64),
                target_ids=rng.integers(5, vocab_size, size=5).astype(np.int64),
            )
            loss = model.loss(inp).item()
            assert abs(loss - np.log(vocab_size)) < 0.15 * np.log(vocab_size)

    def test_eval_forward_bit_reproducible(self):
        model, inp = self.model_and_input(use_ordering=True, use_hierarchical_merge=True)
        a = model.loss(inp).item()
        b = model.loss(inp).item()
        assert a == b

    def test_dropout_runs_iff_rng_given(self):
        model, inp = self.model_and_input(dropout=0.1)
        plain = model.loss_sum(inp)[0].item()
        assert model.loss_sum(inp)[0].item() == plain
        first = model.loss_sum(inp, rng=np.random.default_rng(3))[0].item()
        second = model.loss_sum(inp, rng=np.random.default_rng(3))[0].item()
        assert first == second != plain

        model, inp = self.model_and_input(dropout=0.0)
        plain = model.loss_sum(inp)[0].item()
        assert model.loss_sum(inp, rng=np.random.default_rng(3))[0].item() == plain

    def test_permutation_equivariance_with_ordering(self):
        model, inp = self.model_and_input(
            use_ordering=True, use_hierarchical_merge=True, seed=4
        )
        base_loss = model.loss(inp).item()
        base_r = model.encode(inp).ordering.values
        rng = np.random.default_rng(0)
        for _ in range(10):
            perm = rng.permutation(2)
            pinp = ModelInput(
                doc_ids=inp.doc_ids[perm],
                query_ids=inp.query_ids,
                target_ids=inp.target_ids,
            )
            loss = model.loss(pinp).item()
            assert abs(loss - base_loss) / abs(base_loss) < 1e-5
            r = model.encode(pinp).ordering.values
            np.testing.assert_allclose(r, base_r[perm], atol=1e-8)

    def test_not_permutation_invariant_without_ordering(self):
        model, inp = self.model_and_input(seed=6)
        # distinct documents, swapped
        swapped = ModelInput(
            doc_ids=inp.doc_ids[::-1].copy(),
            query_ids=inp.query_ids,
            target_ids=inp.target_ids,
        )
        assert abs(model.loss(inp).item() - model.loss(swapped).item()) > 1e-6

    def test_parameter_count_ordering_toy_dims(self):
        counts = {}
        for name, flags in {
            "baseline": dict(baseline_query_prepend=True),
            "merge": dict(use_hierarchical_merge=True, baseline_query_prepend=True),
            "ordering": dict(use_ordering=True, baseline_query_prepend=True),
            "query": dict(use_query_encoder=True, query_layers=1, baseline_query_prepend=False),
        }.items():
            cfg = tiny_config(60, d_model=8, heads=2, **flags)
            counts[name] = SummModel(cfg, seed=0).parameter_count()
        assert counts["baseline"] < counts["merge"] < counts["ordering"] < counts["query"]


class TestDecoderState:
    """Incremental decoding against its oracle, the full-sequence
    ``decode_logits``."""

    def model_and_encoding(self, dtype, seed=0, **kw):
        cfg = tiny_config(
            60, d_model=16, heads=4, decoder_layers=2, baseline_query_prepend=False, **kw
        )
        model = SummModel(cfg, seed=seed, dtype=dtype)
        rng = np.random.default_rng(seed + 20)
        doc_ids = rng.integers(5, 60, size=(3, 6)).astype(np.int64)
        doc_ids[2, 4:] = PAD_ID  # padded memory rows must stay masked
        inp = ModelInput(doc_ids=doc_ids, query_ids=np.array([7, 8], dtype=np.int64))
        return model, model.encode(inp)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("tie", [True, False])
    def test_every_step_row_matches_decode_logits(self, dtype, atol, tie):
        model, enc = self.model_and_encoding(dtype, tie_embeddings=tie)
        rng = np.random.default_rng(1)
        prefixes = [[BOS_ID] + rng.integers(5, 60, size=9).tolist() for _ in range(3)]
        state = model.start_decoding(enc)
        for t in range(10):
            if t == 4:
                # Beam pruning: hypothesis 0 dies, 2 survives twice and the
                # copies continue differently from here on.
                index = [2, 1, 2]
                state.reorder(index)
                prefixes = [list(prefixes[i]) for i in index]
                prefixes[2][t:] = rng.integers(5, 60, size=10 - t).tolist()
            logits = state.step([p[t] for p in prefixes])
            assert logits.shape == (3, 60) and logits.dtype == dtype
            for row, prefix in enumerate(prefixes):
                full = model.decode_logits(prefix[: t + 1], enc.memory, enc.memory_mask)
                np.testing.assert_allclose(logits[row], full.values[-1], rtol=0, atol=atol)

    def test_step_leaves_no_graph_behind(self):
        model, enc = self.model_and_encoding(np.float64)
        state = model.start_decoding(enc)
        for t in range(3):
            state.step([BOS_ID if t == 0 else 9] * 2)
        for kv in state.memory_kv + state.self_kv:
            assert all(not t.requires_grad and not t.parents for t in kv)
        assert state.memory_kv[0][0].shape[0] == 1  # one memory K/V for the beam

    def test_first_step_must_be_sequence_start(self):
        model, enc = self.model_and_encoding(np.float64)
        with pytest.raises(ValueError):
            model.start_decoding(enc).step([5])


class TestGraphFreeEncode:
    def test_no_grad_encode_frees_activations_and_keeps_values(self):
        model = SummModel(tiny_config(50, local_layers=4, global_layers=2), seed=0)
        rng = np.random.default_rng(0)
        inp = ModelInput(
            doc_ids=rng.integers(5, 50, size=(8, 64)).astype(np.int64),
            query_ids=np.array([7, 8], dtype=np.int64),
        )

        def peak_bytes(encode):
            tracemalloc.start()
            try:
                enc = encode()
                return enc, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        graph, graph_peak = peak_bytes(lambda: model.encode(inp))

        def graph_free():
            with ad.no_grad():
                return model.encode(inp)

        free, free_peak = peak_bytes(graph_free)
        assert graph.memory.parents and free.memory.parents == ()
        np.testing.assert_array_equal(free.memory.values, graph.memory.values)
        assert free_peak < 0.5 * graph_peak, (free_peak, graph_peak)


class TestPrepareInput:
    # Token "t<k>" has id k, so expected ids read straight off the text.
    VOCAB = Vocabulary([f"t{k}" for k in range(5, 40)])

    def prepare(self, docs, query_ids=(), **cfg):
        triplet = Triplet(
            query=" ".join(f"t{k}" for k in query_ids),
            documents=[" ".join(f"t{k}" for k in doc) for doc in docs],
            summary="t5",
        )
        return prepare_input(triplet, self.VOCAB, tiny_config(40, d_model=8, heads=2, **cfg))

    def test_query_prepend_moves_query_into_document_one(self):
        inp = self.prepare([[5, 6], [7, 8]], query_ids=[9, 10], baseline_query_prepend=True)
        assert list(inp.doc_ids[0][:3]) == [9, 10, QSEP_ID]
        assert list(inp.doc_ids[0][3:5]) == [5, 6]
        assert list(inp.doc_ids[1][:2]) == [7, 8]
        assert inp.token_mask[0].sum() == 5
        assert inp.token_mask[1].sum() == 2

    def test_prepend_then_truncate_keeps_cap(self):
        inp = self.prepare(
            [list(range(5, 13)), list(range(13, 21))],
            query_ids=range(5, 12),  # 7 query tokens
            baseline_query_prepend=True,
            max_doc_tokens=10,
        )
        assert inp.doc_ids.shape[1] == 10  # prepended width capped at max_doc_tokens
        assert list(inp.doc_ids[0][:8]) == list(range(5, 12)) + [QSEP_ID]
        assert list(inp.doc_ids[0][8:]) == [5, 6]  # document tail truncated
        assert list(inp.doc_ids[1][:8]) == list(range(13, 21))
        assert list(inp.doc_ids[1][8:]) == [PAD_ID, PAD_ID]  # padded to width
        assert inp.token_mask[1].sum() == 8

    def test_truncation_never_errors(self):
        inp = self.prepare([[5] * 50] * 10, baseline_query_prepend=False)
        assert inp.doc_ids.shape == (3, 24)  # max_docs=3, max_doc_tokens=24
        model = SummModel(tiny_config(40, d_model=8, heads=2), seed=3, dtype=np.float64)
        assert model.embed_inputs(inp).shape == (3, 24, 8)

    def test_truncation_and_padding(self, small_vocab):
        t = handmade_triplet(n_docs=5, doc_tokens=30, summary_tokens=20)
        cfg = tiny_config(len(small_vocab))
        vocab = build_vocab([tokenize(d) for d in t.documents] + [tokenize(t.summary)], 64)
        inp = prepare_input(t, vocab, cfg)
        assert inp.doc_ids.shape[0] == 3  # max_docs
        assert inp.doc_ids.shape[1] <= 24  # max_doc_tokens
        assert inp.target_ids.size <= 12
        assert inp.doc_ids[inp.token_mask].min() >= 0
        assert np.all(inp.doc_ids[~inp.token_mask] == PAD_ID)

    # Characters that both ``str.strip`` (Triplet's check) and ``tokenize``
    # treat as whitespace.
    SPACES = [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c", "\x85"]
    PUNCTUATION = ["?", "!!", "...", "«»", "—", "¿", "()"]
    WORDS = PUNCTUATION + ["t5", "t17", "t39", "unseen", "é", "t6t7"]

    def test_every_document_is_real_and_its_tokens_are_never_pad(self):
        rng = np.random.default_rng(11)

        def text(pool):
            k = int(rng.integers(1, 30))
            spaces = rng.choice(self.SPACES, size=k + 1)
            return "".join(s + w for s, w in zip(spaces, rng.choice(pool, size=k))) + spaces[-1]

        for _ in range(300):
            n_docs = int(rng.integers(1, 6))
            docs = [text(self.PUNCTUATION if rng.random() < 0.5 else self.WORDS)
                    for _ in range(n_docs)]
            query = text(self.WORDS) if rng.random() < 0.7 else ""
            prepend = bool(rng.random() < 0.5)
            limit, max_docs = int(rng.integers(1, 25)), int(rng.integers(1, 6))
            cfg = tiny_config(40, d_model=8, heads=2, max_doc_tokens=limit, max_docs=max_docs,
                              baseline_query_prepend=prepend)
            inp = prepare_input(Triplet(query, docs, "t5"), self.VOCAB, cfg)
            lengths = [len(tokenize(d)) for d in docs[:max_docs]]
            if prepend and tokenize(query):
                lengths[0] += min(len(tokenize(query)), limit) + 1  # query and separator
            lengths = np.minimum(lengths, limit)
            assert inp.doc_ids.shape[0] == min(n_docs, max_docs)
            assert real_documents(inp.token_mask).all()
            for row, length in zip(inp.doc_ids, lengths):
                assert length >= 1
                assert np.all(row[:length] != PAD_ID)
                assert np.all(row[length:] == PAD_ID)

    def test_empty_query_rejected_under_query_encoder(self):
        t = handmade_triplet()
        vocab = build_vocab([tokenize(d) for d in t.documents], 64)
        blank = Triplet("  ", t.documents, t.summary)
        query_cfg = tiny_config(len(vocab), use_query_encoder=True, query_layers=1,
                                baseline_query_prepend=False)
        with pytest.raises(ValueError, match="query"):
            prepare_input(blank, vocab, query_cfg)
        # Prepending an empty query is a no-op, so the baseline accepts it.
        assert prepare_input(blank, vocab, tiny_config(len(vocab))).query_ids.size == 0

    def test_loss_requires_target(self):
        model = SummModel(tiny_config(40, d_model=8, heads=2), seed=0)
        inp = ModelInput(
            doc_ids=np.array([[5, 6]], dtype=np.int64),
            query_ids=np.array([5], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            model.loss(inp)
