import numpy as np
import pytest

from querysumm.autodiff import log_softmax_values
from querysumm.decoding import (
    STRUCTURAL_IDS,
    DecodeConfig,
    _banned_by_trigram,
    beam_search,
    beam_search_nbest,
    greedy_decode,
    length_penalty,
)
from querysumm.model import DecoderState, EncodedBatch, ModelInput, SummModel
from querysumm.text import BOS_ID, EOS_ID

from conftest import tiny_config


class RiggedModel:
    """Decoder stub: logits at step t (t = generated tokens so far) come from
    ``row_fn(t)``; real models are exercised elsewhere."""

    def __init__(self, vocab_size, row_fn):
        self.vocab_size = vocab_size
        self.row_fn = row_fn

    def start_decoding(self, enc):
        return RiggedState(self.row_fn)


class RiggedState:
    """Replays ``row_fn(t)`` for every live hypothesis: all hypotheses of a
    beam have the same length t, so pruning has nothing to reorder."""

    def __init__(self, row_fn):
        self.row_fn = row_fn
        self.t = 0

    def step(self, last_ids):
        row = self.row_fn(self.t)
        self.t += 1
        return np.tile(row, (len(last_ids), 1))

    def reorder(self, index):
        pass


def dummy_enc():
    return EncodedBatch(
        token_states=None,
        local_states=None,
        memory=None,
        memory_mask=np.ones(1, bool),
    )


def random_stub(seed, vocab_size=12, eos_boost=0.0):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((40, vocab_size))
    table[:, EOS_ID] += eos_boost
    return RiggedModel(vocab_size, lambda t: table[min(t, 39)])


class TestLengthPenalty:
    def test_reference_value(self):
        # Direct formula evaluation: ((5+5)/6)^0.4 = 1.2267032...
        assert length_penalty(5, 0.4) == pytest.approx(1.2267032046963888, abs=1e-5)
        assert length_penalty(5, 0.4) == pytest.approx((10 / 6) ** 0.4, rel=1e-12)

    def test_alpha_zero_is_identity(self):
        for n in (1, 5, 50):
            assert length_penalty(n, 0.0) == 1.0


class TestConfigValidation:
    def test_beam_zero(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam=0)

    def test_min_above_max(self):
        with pytest.raises(ValueError):
            DecodeConfig(min_len=10, max_len=5)

    @pytest.mark.parametrize("field", ["max_doc_tokens", "max_docs"])
    def test_input_limits_none_or_positive(self, field):
        for value in (0, -1):
            with pytest.raises(ValueError, match=field):
                DecodeConfig(**{field: value})
        assert getattr(DecodeConfig(**{field: None}), field) is None
        assert getattr(DecodeConfig(**{field: 1}), field) == 1


class TestGreedyBeamEquivalence:
    def test_beam_one_equals_greedy_on_random_models(self):
        for seed in range(25):
            model = random_stub(seed, eos_boost=0.5)
            cfg = DecodeConfig(beam=1, alpha=0.0, min_len=1, max_len=12)
            g = greedy_decode(model, dummy_enc(), cfg)
            b = beam_search(model, dummy_enc(), cfg)
            assert g == b, f"seed {seed}: greedy {g} != beam {b}"

    def test_wider_beam_never_scores_worse(self):
        for seed in range(8):
            model = random_stub(seed, eos_boost=1.0)
            enc = dummy_enc()
            n1 = beam_search_nbest(model, enc, DecodeConfig(beam=1, alpha=0.4, max_len=10))
            n4 = beam_search_nbest(model, enc, DecodeConfig(beam=4, alpha=0.4, max_len=10))
            assert n4[0][1] >= n1[0][1] - 1e-12


class TestTrigramBlocking:
    def cyclic_model(self):
        # The model strongly prefers the token cycle 7,8,9 forever; 6 is the
        # runner-up everywhere and EOS is third.
        def row(t):
            logits = np.full(12, -10.0)
            logits[[7, 8, 9][t % 3]] = 5.0
            logits[6] = 2.0
            logits[EOS_ID] = 1.0
            return logits

        return RiggedModel(12, row)

    @staticmethod
    def has_repeated_trigram(tokens):
        grams = [tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2)]
        return len(grams) != len(set(grams))

    def test_blocking_off_repeats(self):
        cfg = DecodeConfig(beam=2, alpha=0.0, min_len=1, max_len=9, block_trigrams=False)
        out = beam_search(self.cyclic_model(), dummy_enc(), cfg)
        assert self.has_repeated_trigram(out)

    def test_blocking_on_never_repeats(self):
        cfg = DecodeConfig(beam=2, alpha=0.0, min_len=1, max_len=9, block_trigrams=True)
        out = beam_search(self.cyclic_model(), dummy_enc(), cfg)
        assert not self.has_repeated_trigram(out)
        # also true for greedy and across random models
        assert not self.has_repeated_trigram(
            greedy_decode(self.cyclic_model(), dummy_enc(), cfg)
        )
        for seed in range(10):
            out = beam_search(
                random_stub(seed, vocab_size=9),
                dummy_enc(),
                DecodeConfig(beam=3, alpha=0.0, min_len=1, max_len=15, block_trigrams=True),
            )
            assert not self.has_repeated_trigram(out)


class TestLengthBounds:
    def test_min_len_blocks_early_eos(self):
        model = random_stub(3, eos_boost=50.0)  # desperately wants to stop
        cfg = DecodeConfig(beam=2, alpha=0.0, min_len=4, max_len=10)
        out = beam_search(model, dummy_enc(), cfg)
        assert len(out) == 4  # stops at the first legal opportunity

    def test_max_len_forces_stop(self):
        model = random_stub(4, eos_boost=-50.0)  # never wants to stop
        cfg = DecodeConfig(beam=2, alpha=0.0, min_len=1, max_len=6)
        out = beam_search(model, dummy_enc(), cfg)
        assert len(out) == 6

    def test_all_lengths_within_bounds(self):
        for seed in range(15):
            model = random_stub(seed, eos_boost=1.5)
            cfg = DecodeConfig(beam=3, alpha=0.4, min_len=2, max_len=8)
            out = beam_search(model, dummy_enc(), cfg)
            assert 2 <= len(out) <= 8
            g = greedy_decode(model, dummy_enc(), cfg)
            assert 2 <= len(g) <= 8


class TestNBest:
    def test_scores_non_increasing(self):
        for seed in range(10):
            model = random_stub(seed, eos_boost=1.0)
            ranked = beam_search_nbest(
                model, dummy_enc(), DecodeConfig(beam=4, alpha=0.4, max_len=8)
            )
            scores = [s for _, s in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_finished_scores_are_length_normalized(self):
        # one hypothesis, known logprobs: score = sum(logp) / lp(len)
        def row(t):
            logits = np.full(8, -30.0)
            if t < 2:
                logits[6] = 0.0
            else:
                logits[EOS_ID] = 0.0
            return logits

        model = RiggedModel(8, row)
        ranked = beam_search_nbest(
            model, dummy_enc(), DecodeConfig(beam=1, alpha=0.4, min_len=1, max_len=5)
        )
        tokens, score = ranked[0]
        assert tokens == [6, 6]
        # raw logprob of [6, 6, EOS] under the rigged rows, normalized
        logp = 0.0
        for t, tok in enumerate([6, 6, EOS_ID]):
            logits = row(t)
            logp += logits[tok] - np.log(np.exp(logits).sum())
        assert score == pytest.approx(logp / length_penalty(2, 0.4), rel=1e-9)


def reference_beam_search_nbest(model, enc, config):
    """Full-recompute beam search: every hypothesis reruns ``decode_logits``
    on its whole prefix at every step.  The oracle of the incremental one."""

    def masked_logprobs(tokens):
        logits = model.decode_logits([BOS_ID] + tokens, enc.memory, enc.memory_mask)
        logp = log_softmax_values(logits.values[-1]).astype(np.float64)
        logp[list(STRUCTURAL_IDS)] = -np.inf
        if len(tokens) < config.min_len:
            logp[EOS_ID] = -np.inf
        if config.block_trigrams:
            banned = _banned_by_trigram(tokens)
            if banned:
                logp[list(banned)] = -np.inf
        return logp

    active, finished = [([], 0.0)], []
    while active:
        expansions = []
        for tokens, score in active:
            if len(tokens) >= config.max_len:
                finished.append((tokens, score))
                continue
            logp = masked_logprobs(tokens)
            if not np.isfinite(logp).any():
                finished.append((tokens, score))
                continue
            order = np.lexsort((np.arange(logp.size), -logp))
            for v in order[: config.beam]:
                if not np.isfinite(logp[v]):
                    break
                if v == EOS_ID:
                    finished.append((tokens, score + float(logp[v])))
                else:
                    expansions.append((tokens + [int(v)], score + float(logp[v])))
        expansions.sort(key=lambda ts: (-ts[1], ts[0]))
        active = expansions[: config.beam]
    ranked = [(t, s / length_penalty(len(t), config.alpha)) for t, s in finished]
    ranked.sort(key=lambda ts: (-ts[1], ts[0]))
    return ranked


def real_model_and_encoding(seed, vocab_size=12, **kw):
    """A tiny float64 model; a small vocabulary keeps the end token within
    reach of every beam, so hypotheses finish at different steps."""
    cfg = tiny_config(vocab_size, decoder_layers=2, baseline_query_prepend=False, **kw)
    model = SummModel(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    inp = ModelInput(
        doc_ids=rng.integers(5, vocab_size, size=(2, 6)).astype(np.int64),
        query_ids=np.array([6], dtype=np.int64),
    )
    return model, model.encode(inp)


class TestIncrementalAgainstFullRecompute:
    def test_nbest_matches_reference_beam_search(self, monkeypatch):
        reorders = []
        original = DecoderState.reorder

        def spy(state, index):
            reorders.append(list(index))
            original(state, index)

        monkeypatch.setattr(DecoderState, "reorder", spy)
        lengths = set()
        for seed in range(4):
            model, enc = real_model_and_encoding(seed)
            for beam in (1, 2, 3, 4):
                cfg = DecodeConfig(beam=beam, alpha=0.4, min_len=1, max_len=8, block_trigrams=True)
                got = beam_search_nbest(model, enc, cfg)
                want = reference_beam_search_nbest(model, enc, cfg)
                assert [t for t, _ in got] == [t for t, _ in want], (seed, beam)
                np.testing.assert_allclose(
                    [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12
                )
                lengths.add(tuple(sorted({len(t) for t, _ in got})))
                if beam == 1:
                    assert greedy_decode(model, enc, cfg) == want[0][0]
        # The cases exercised: hypotheses finished at different steps, and
        # pruning dropped or duplicated cache rows.
        assert any(len(ls) > 1 for ls in lengths)
        assert any(index != list(range(len(index))) for index in reorders)


class CountingLinear:
    """Wraps a ``Linear`` and counts its calls and the rows it maps."""

    def __init__(self, linear):
        self.linear = linear
        self.calls = 0
        self.rows = 0

    def __call__(self, x):
        self.calls += 1
        self.rows += x.values.size // x.shape[-1]
        return self.linear(x)


class TestWorkPerDecode:
    @pytest.mark.parametrize("length", [5, 20])
    def test_memory_projected_once_and_each_position_computed_once(self, length):
        model, enc = real_model_and_encoding(0, vocab_size=40, tie_embeddings=False)
        # The end token wins as soon as it is allowed, so the decode stops
        # on it after exactly ``length`` tokens.
        model.params["out_proj.b"].values[EOS_ID] = 100.0
        for beam in (1, 3):
            memory_k, positions = [], []
            for layer in model.decoder:
                layer.cross_attn.wk = CountingLinear(layer.cross_attn.wk)
                layer.self_attn.wq = CountingLinear(layer.self_attn.wq)
                memory_k.append(layer.cross_attn.wk)
                positions.append(layer.self_attn.wq)
            cfg = DecodeConfig(beam=beam, min_len=length, max_len=length + 5)
            tokens = (greedy_decode if beam == 1 else beam_search)(model, enc, cfg)
            assert len(tokens) == length
            assert [c.calls for c in memory_k] == [1] * len(model.decoder)
            if beam == 1:
                assert [c.rows for c in positions] == [length + 1] * len(model.decoder)
            for layer, k, q in zip(model.decoder, memory_k, positions):
                layer.cross_attn.wk, layer.self_attn.wq = k.linear, q.linear
