import numpy as np
import pytest

from querysumm import autodiff as ad
from querysumm.autodiff import log_softmax_values
from querysumm import decoding
from querysumm.decoding import (
    STRUCTURAL_IDS,
    DecodeConfig,
    _add_trigram,
    _best_ids,
    _extend_trigrams,
    _masked_logprobs,
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

    @pytest.mark.parametrize("min_len, max_len", [(0, 0), (-3, -1)])
    def test_max_len_below_one(self, min_len, max_len):
        # Every decode would be empty, so the config is refused.
        with pytest.raises(ValueError, match=f"^max_len must be >= 1, got {max_len}$"):
            DecodeConfig(min_len=min_len, max_len=max_len)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha(self, alpha):
        # A nan alpha scores every hypothesis nan and an infinite one every
        # hypothesis -0.0, so the pick would be arbitrary.
        with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha}$"):
            DecodeConfig(alpha=alpha)

    def test_negative_min_len(self):
        with pytest.raises(ValueError, match="^min_len must be >= 0, got -3$"):
            DecodeConfig(min_len=-3)
        assert DecodeConfig(min_len=0).min_len == 0

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


class TestRowsThatDoNotExpand:
    """A row with every continuation masked finishes its hypothesis as it is;
    a row whose only finite entry is the end token finishes it with that
    token.  Either way the n-best is not empty, so ``beam_search`` always has
    a best hypothesis to return."""

    @staticmethod
    def only(vocab_size, token):
        logits = np.full(vocab_size, -np.inf)
        logits[token] = 0.0
        return logits

    def test_every_continuation_masked(self):
        # One token, then only the end token, which min_len masks.
        model = RiggedModel(8, lambda t: self.only(8, 6 if t == 0 else EOS_ID))
        cfg = DecodeConfig(beam=3, min_len=3, max_len=5)
        assert beam_search_nbest(model, dummy_enc(), cfg) == [([6], 0.0)]
        assert beam_search(model, dummy_enc(), cfg) == [6]

    def test_end_token_as_the_only_best(self):
        model = RiggedModel(8, lambda t: self.only(8, EOS_ID))
        cfg = DecodeConfig(beam=3, min_len=0, max_len=5)
        assert beam_search_nbest(model, dummy_enc(), cfg) == [([], 0.0)]
        assert beam_search(model, dummy_enc(), cfg) == []


def lexsort_best_ids(logp, beam):
    """The selection ``_best_ids`` replaced: a lexsort of the whole row by
    score descending, then id ascending, cut at ``beam`` ids or at the first
    non-finite score."""
    best = []
    for v in np.lexsort((np.arange(logp.size), -logp))[:beam]:
        if not np.isfinite(logp[v]):
            break
        best.append(v)
    return np.array(best, dtype=np.int64)


class TestBestIdsAgainstLexsort:
    def test_random_rows_with_ties_and_masked_entries(self):
        rng = np.random.default_rng(0)
        for trial in range(400):
            size = int(rng.integers(1, 40))
            if trial % 2:
                logp = rng.standard_normal(size)
            else:
                logp = rng.integers(-3, 1, size=size).astype(np.float64)  # many ties
            logp[rng.random(size) < rng.random()] = -np.inf
            beam = int(rng.integers(1, 8))
            assert _best_ids(logp, beam).tolist() == lexsort_best_ids(logp, beam).tolist()

    def test_ties_at_the_cut_go_to_the_lowest_ids(self):
        logp = np.array([-1.0, 0.0, -1.0, -1.0, -np.inf, -1.0])
        assert _best_ids(logp, 3).tolist() == [1, 0, 2]

    def test_fewer_finite_scores_than_beam(self):
        logp = np.array([-np.inf, -2.0, -np.inf, -0.5, -np.inf])
        assert _best_ids(logp, 4).tolist() == [3, 1]
        assert _best_ids(np.full(5, -np.inf), 4).size == 0

    @staticmethod
    def both(monkeypatch, model, enc, cfg):
        got = beam_search_nbest(model, enc, cfg)
        with monkeypatch.context() as m:
            m.setattr(decoding, "_best_ids", lexsort_best_ids)
            want = beam_search_nbest(model, enc, cfg)
        assert got, cfg
        return got, want

    def test_greedy_and_trigram_blocked_beam_ids_equal_the_lexsort(self, monkeypatch):
        for seed in range(3):
            model, enc = real_model_and_encoding(seed, vocab_size=30)
            for beam, block in ((1, False), (4, True)):
                cfg = DecodeConfig(beam=beam, min_len=3, max_len=12, block_trigrams=block)
                got, want = self.both(monkeypatch, model, enc, cfg)
                assert got == want, (seed, beam)

    def test_min_len_masking_of_eos_equals_the_lexsort(self, monkeypatch):
        model = random_stub(3, eos_boost=50.0)
        for beam in (1, 4):
            cfg = DecodeConfig(beam=beam, alpha=0.0, min_len=4, max_len=10)
            got, want = self.both(monkeypatch, model, dummy_enc(), cfg)
            assert got == want and len(got[0][0]) == 4

    def test_rows_with_fewer_finite_scores_than_beam_equal_the_lexsort(self, monkeypatch):
        def row(t):
            logits = np.full(12, -np.inf)
            logits[[6, 7]] = [1.0, 0.5]
            logits[EOS_ID] = 0.25 * t
            return logits

        model = RiggedModel(12, row)
        cfg = DecodeConfig(beam=4, alpha=0.4, min_len=2, max_len=6, block_trigrams=True)
        got, want = self.both(monkeypatch, model, dummy_enc(), cfg)
        assert got == want


def banned_by_trigram(tokens):
    """Continuations that would repeat a trigram already in ``tokens``, by
    brute force: the oracle of the incremental trigram maps."""
    if len(tokens) < 2:
        return set()
    seen = {tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2)}
    a, b = tokens[-2], tokens[-1]
    return {w for (x, y, w) in seen if (x, y) == (a, b)}


def row_masked_logprobs(logits, tokens, config):
    """One hypothesis's masked next-token log-probabilities, computed on its
    own row: the oracle of the batched ``_masked_logprobs``."""
    logp = log_softmax_values(logits).astype(np.float64)
    logp[list(STRUCTURAL_IDS)] = -np.inf
    if len(tokens) < config.min_len:
        logp[EOS_ID] = -np.inf
    if config.block_trigrams:
        banned = banned_by_trigram(tokens)
        if banned:
            logp[list(banned)] = -np.inf
    return logp


def reference_beam_search_nbest(model, enc, config):
    """Full-recompute beam search: every hypothesis reruns ``decode_logits``
    on its whole prefix at every step.  The oracle of the incremental one."""

    def masked_logprobs(tokens):
        logits = model.decode_logits([BOS_ID] + tokens, enc.memory)
        return row_masked_logprobs(logits.values[-1], tokens, config)

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
    cfg = tiny_config(vocab_size, decoder_layers=2, **kw)
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
        cases = [(beam, True) for beam in (1, 2, 3, 4)] + [(15, True), (15, False)]
        for seed in range(4):
            model, enc = real_model_and_encoding(seed)
            for beam, block in cases:
                cfg = DecodeConfig(
                    beam=beam, alpha=0.4, min_len=1, max_len=8, block_trigrams=block
                )
                got = beam_search_nbest(model, enc, cfg)
                want = reference_beam_search_nbest(model, enc, cfg)
                assert [t for t, _ in got] == [t for t, _ in want], (seed, beam, block)
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
        model, enc = real_model_and_encoding(0, vocab_size=40)
        for beam in (1, 3):
            memory_k, positions = [], []
            for layer in model.decoder:
                # Each position's self-attention key is projected once, for
                # the cache; its query is projected inside the attention.
                layer.cross_attn.wk = CountingLinear(layer.cross_attn.wk)
                layer.self_attn.wk = CountingLinear(layer.self_attn.wk)
                memory_k.append(layer.cross_attn.wk)
                positions.append(layer.self_attn.wk)
            # The end token is banned until ``max_len``, where the decode
            # stops, so every decode is exactly ``length`` tokens long.
            cfg = DecodeConfig(beam=beam, min_len=length, max_len=length)
            tokens = (greedy_decode if beam == 1 else beam_search)(model, enc, cfg)
            assert len(tokens) == length
            assert [c.calls for c in memory_k] == [1] * len(model.decoder)
            if beam == 1:
                assert [c.rows for c in positions] == [length] * len(model.decoder)
            for layer, k, q in zip(model.decoder, memory_k, positions):
                layer.cross_attn.wk, layer.self_attn.wk = k.linear, q.linear


def trigram_map(tokens):
    """A hypothesis's map from a bigram to its continuations, built by
    adding each of its trigrams in turn."""
    m = {}
    for i in range(len(tokens) - 2):
        _add_trigram(m, *tokens[i : i + 3])
    return m


def brute_force_map(tokens):
    """Every bigram of ``tokens`` with the continuations that followed it."""
    out = {}
    for i in range(len(tokens) - 2):
        out.setdefault(tuple(tokens[i : i + 2]), set()).add(tokens[i + 2])
    return out


class TestBatchedMasking:
    """``_masked_logprobs`` masks every live row in one (B, vocab) array;
    each row must be byte-equal to the row-by-row oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_row_equals_the_row_oracle_bytes(self, dtype):
        rng = np.random.default_rng(0)
        banned_rows = 0
        for trial in range(80):
            batch, length = int(rng.integers(1, 16)), int(rng.integers(0, 12))
            # Four token ids, so bigrams recur and bans are common.
            active = [(rng.integers(5, 9, size=length).tolist(), 0.0) for _ in range(batch)]
            cfg = DecodeConfig(
                beam=batch, min_len=int(rng.integers(0, 14)), max_len=20,
                block_trigrams=bool(trial % 2),
            )
            logits = (3 * rng.standard_normal((batch, 12))).astype(dtype)
            logits[rng.random((batch, 12)) < 0.1] = -np.inf  # probability 0
            trigrams = [trigram_map(t) for t, _ in active] if cfg.block_trigrams else None
            got = _masked_logprobs(logits, active, trigrams, cfg)
            assert got.shape == (batch, 12) and got.dtype == np.float64
            for row, (tokens, _) in enumerate(active):
                want = row_masked_logprobs(logits[row], tokens, cfg)
                assert got[row].tobytes() == want.tobytes(), (trial, row)
                banned_rows += bool(cfg.block_trigrams and banned_by_trigram(tokens))
        assert banned_rows > 20

    def test_nan_or_positive_infinite_logits_raise_naming_the_step(self):
        cfg = DecodeConfig(beam=2)
        active = [([7, 8], 0.0), ([8, 7], 0.0)]
        for bad in (np.nan, np.inf):
            logits = np.zeros((2, 12))
            logits[1, 4] = bad
            with pytest.raises(FloatingPointError, match="^decoding step 3: "):
                _masked_logprobs(logits, active, None, cfg)


class TestIncrementalTrigramMaps:
    def test_maps_equal_the_brute_force_through_reorders(self):
        """Random survivors drop and duplicate hypotheses; after every step
        each map holds exactly its hypothesis's trigrams, and no map was
        changed under a hypothesis that shares it."""
        rng = np.random.default_rng(1)
        duplicated = dropped = False
        for trial in range(20):
            active, maps = [([], 0.0)], [{}]
            for step in range(30):
                live = len(active)
                parents = rng.integers(0, live, size=int(rng.integers(1, 7))).tolist()
                duplicated |= len(set(parents)) < len(parents)
                dropped |= len(set(parents)) < live
                active = [(active[p][0] + [int(rng.integers(5, 9))], 0.0) for p in parents]
                maps = _extend_trigrams(maps, parents, active)
                for (tokens, _), m in zip(active, maps):
                    assert {k: set(v) for k, v in m.items()} == brute_force_map(tokens)
                    assert set(m.get(tuple(tokens[-2:]), ())) == banned_by_trigram(tokens)
                    # One entry per trigram: no sibling's was added to it.
                    assert sum(map(len, m.values())) == max(len(tokens) - 2, 0)
        assert duplicated and dropped


class TestDecodeWorkCounts:
    """Work per decode step, counted rather than timed."""

    @staticmethod
    def count_steps(monkeypatch):
        """The number of ids each ``DecoderState.step`` was given."""
        live = []
        step = DecoderState.step

        def spy(state, last_ids):
            live.append(len(last_ids))
            return step(state, last_ids)

        monkeypatch.setattr(DecoderState, "step", spy)
        return live

    @pytest.mark.parametrize("beam", [1, 4, 15])
    def test_each_attention_runs_one_softmax_per_step_whatever_the_beam(self, beam, monkeypatch):
        model, enc = real_model_and_encoding(0, vocab_size=40)
        live = self.count_steps(monkeypatch)
        calls = []
        softmax = ad._softmax_inplace
        monkeypatch.setattr(ad, "_softmax_inplace", lambda x: calls.append(x.shape) or softmax(x))
        cfg = DecodeConfig(beam=beam, min_len=6, max_len=6, block_trigrams=True)
        assert len(beam_search(model, enc, cfg)) == 6
        assert len(live) == 6 and max(live) == beam
        # Self- and cross-attention of each decoder layer, once a step.
        assert len(calls) == 6 * 2 * len(model.decoder)

    @pytest.mark.parametrize("length", [5, 50])
    def test_each_live_hypothesis_adds_one_trigram_per_step(self, length, monkeypatch):
        model, enc = real_model_and_encoding(0, vocab_size=40)
        live = self.count_steps(monkeypatch)
        added = []  # the steps run so far, per trigram added

        def spy(m, a, b, w):
            added.append(len(live))
            _add_trigram(m, a, b, w)

        monkeypatch.setattr(decoding, "_add_trigram", spy)
        cfg = DecodeConfig(beam=4, min_len=length, max_len=length, block_trigrams=True)
        assert len(beam_search(model, enc, cfg)) == length
        # After step t the hypotheses that will be live at step t + 1, of
        # length t + 1, each add the trigram their newest token closes.
        for t in range(length - 1):
            assert added.count(t + 1) == (live[t + 1] if t + 1 >= 3 else 0), t
        assert max(live) == 4


class TestNonFiniteLogits:
    """A model with a NaN weight fails instead of decoding every input to
    nothing."""

    @pytest.mark.parametrize("beam", [1, 4])
    def test_a_nan_weight_raises_at_the_first_step(self, beam):
        model, enc = real_model_and_encoding(0)
        model.params["decoder.1.ffn.w1.w"].values[0, 0] = np.nan
        cfg = DecodeConfig(beam=beam, max_len=5)
        with pytest.raises(FloatingPointError, match="^decoding step 1: "):
            beam_search_nbest(model, enc, cfg)

    def test_a_nan_logit_raises_at_its_step(self):
        def row(t):
            logits = np.zeros(12)
            logits[9] = np.nan if t == 2 else 1.0
            return logits

        cfg = DecodeConfig(beam=3, max_len=6)
        with pytest.raises(FloatingPointError, match="^decoding step 3: "):
            beam_search_nbest(RiggedModel(12, row), dummy_enc(), cfg)
