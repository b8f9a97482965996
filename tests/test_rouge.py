import numpy as np
import pytest

from querysumm.rouge import (
    lcs_length,
    rouge_l,
    rouge_n,
    rouge_recall_truncated,
    rouge_su4,
)


def lcs_by_subsequence_enumeration(a, b):
    """Oracle: longest common subsequence by enumerating subsequences of the
    shorter side (exponential; fine for short inputs)."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for bits in range(1 << len(short)):
        sub = [short[i] for i in range(len(short)) if bits >> i & 1]
        it = iter(long_)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


def lcs_by_table(a, b):
    """Oracle: the classic O(|a||b|) dynamic-programming table."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def random_seqs(rng, max_len=30, alphabet=6):
    n = int(rng.integers(0, max_len + 1))
    return [f"w{int(i)}" for i in rng.integers(0, alphabet, size=n)]


class TestRougeN:
    def test_hand_counted_unigram(self):
        s = rouge_n(["the", "cat", "sat"], ["the", "cat", "ran"], 1)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)
        assert s.f1 == pytest.approx(2 / 3)

    def test_identity(self):
        for n in (1, 2, 3):
            s = rouge_n(list("abcd"), list("abcd"), n)
            assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        s = rouge_n(["a", "b"], ["c", "d"], 1)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_too_short_for_n(self):
        s = rouge_n(["a"], ["a", "b"], 2)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)

    def test_clipping(self):
        # candidate repeats "a" three times but reference has it once.
        s = rouge_n(["a", "a", "a"], ["a", "b"], 1)
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)


class TestRougeL:
    def test_brute_force_example(self):
        # LCS([a,b,c,d],[a,c,b,d]) = 3 by exhaustive enumeration.
        a, b = list("abcd"), list("acbd")
        assert lcs_by_subsequence_enumeration(a, b) == 3
        s = rouge_l(a, b)
        assert s.precision == pytest.approx(0.75)
        assert s.recall == pytest.approx(0.75)

    def test_identity_and_empty(self):
        assert rouge_l(list("xyz"), list("xyz")).f1 == 1.0
        s = rouge_l([], list("ab"))
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = random_seqs(rng, max_len=9, alphabet=4)
            b = random_seqs(rng, max_len=9, alphabet=4)
            assert lcs_length(a, b) == lcs_by_subsequence_enumeration(a, b)

    def test_matches_table_oracle_past_one_machine_word(self):
        # Lengths up to 150 put the shorter side's mask past 64 and 128 bits;
        # small alphabets make long runs of repeated tokens.
        rng = np.random.default_rng(17)
        pairs = [([], []), ([], ["w0"] * 70), (["w0"] * 130, ["w0"] * 65)]
        for alphabet in range(1, 9):
            pairs += [
                (random_seqs(rng, 150, alphabet), random_seqs(rng, 150, alphabet))
                for _ in range(25)
            ]
        for a, b in pairs:
            expected = lcs_by_table(a, b)
            assert lcs_length(a, b) == expected
            assert lcs_length(b, a) == expected


def su4_oracle(candidate, reference, max_gap=4):
    """Exhaustive skip-bigram + unigram pooled clipped match."""
    from collections import Counter

    def units(seq):
        c = Counter(seq)
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if j - i <= max_gap:
                    c[(seq[i], seq[j])] += 1
        return c

    cu, ru = units(candidate), units(reference)
    overlap = sum((cu & ru).values())
    nc, nr = sum(cu.values()), sum(ru.values())
    if nc == 0 or nr == 0:
        return 0.0, 0.0
    return overlap / nc, overlap / nr


class TestRougeSU4:
    def test_identical_pair(self):
        s = rouge_su4(["a", "b"], ["a", "b"])
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_transposed_example(self):
        # Pooled units of [a,b,c]: {a,b,c,(a,b),(a,c),(b,c)}; of [a,c,b]:
        # {a,b,c,(a,c),(a,b),(c,b)}; overlap 5 of 6 by enumeration.
        p, r = su4_oracle(["a", "b", "c"], ["a", "c", "b"])
        assert p == pytest.approx(5 / 6)
        s = rouge_su4(["a", "b", "c"], ["a", "c", "b"])
        assert s.precision == pytest.approx(p)
        assert s.recall == pytest.approx(r)

    def test_disjoint(self):
        assert rouge_su4(["a"], ["b"]).f1 == 0.0

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            a = random_seqs(rng, max_len=12)
            b = random_seqs(rng, max_len=12)
            p, r = su4_oracle(a, b)
            s = rouge_su4(a, b)
            assert s.precision == pytest.approx(p, abs=1e-12)
            assert s.recall == pytest.approx(r, abs=1e-12)


class TestTruncatedRecall:
    def test_short_candidate_unchanged(self):
        cand, ref = list("abc"), list("abcd")
        out = rouge_recall_truncated(cand, ref, 250)
        assert out["rouge-1"] == pytest.approx(rouge_n(cand, ref, 1).recall)
        assert out["rouge-l"] == pytest.approx(rouge_l(cand, ref).recall)

    def test_doubled_candidate_full_recall(self):
        ref = list("abcdef")
        out = rouge_recall_truncated(ref + ref, ref, len(ref))
        assert out["rouge-1"] == 1.0

    def test_equals_manual_pretruncation(self):
        rng = np.random.default_rng(3)
        cand = [f"w{int(i)}" for i in rng.integers(0, 20, size=300)]
        ref = [f"w{int(i)}" for i in rng.integers(0, 20, size=60)]
        out = rouge_recall_truncated(cand, ref, 250)
        pre = cand[:250]
        assert out["rouge-1"] == pytest.approx(rouge_n(pre, ref, 1).recall)
        assert out["rouge-2"] == pytest.approx(rouge_n(pre, ref, 2).recall)
        assert out["rouge-l"] == pytest.approx(rouge_l(pre, ref).recall)
        assert out["rouge-su4"] == pytest.approx(rouge_su4(pre, ref).recall)

    def test_word_limit_validation(self):
        with pytest.raises(ValueError):
            rouge_recall_truncated(["a"], ["a"], 0)


class TestInvariants:
    def test_symmetry_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = random_seqs(rng), random_seqs(rng)
            for n in (1, 2):
                assert rouge_n(a, b, n).precision == pytest.approx(
                    rouge_n(b, a, n).recall
                )
            assert rouge_l(a, b).precision == pytest.approx(rouge_l(b, a).recall)
            assert rouge_su4(a, b).precision == pytest.approx(rouge_su4(b, a).recall)

    def test_appending_reference_token_never_lowers_recall(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            ref = random_seqs(rng, max_len=15) or ["w0"]
            cand = random_seqs(rng, max_len=15)
            base = rouge_n(cand, ref, 1).recall
            grown = rouge_n(cand + [ref[0]], ref, 1).recall
            assert grown >= base - 1e-12

    def test_lcs_recall_bounded_by_unigram_recall(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            a, b = random_seqs(rng), random_seqs(rng)
            assert rouge_l(a, b).recall <= rouge_n(a, b, 1).recall + 1e-12

    def test_invariant_under_token_relabeling(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a, b = random_seqs(rng), random_seqs(rng)
            rename = {f"w{i}": f"relabeled{i}" for i in range(6)}
            a2 = [rename[t] for t in a]
            b2 = [rename[t] for t in b]
            for n in (1, 2):
                assert rouge_n(a, b, n) == rouge_n(a2, b2, n)
            assert rouge_l(a, b) == rouge_l(a2, b2)
            assert rouge_su4(a, b) == rouge_su4(a2, b2)

    def test_f1_identity(self):
        s = rouge_n(["a", "b"], ["a", "c"], 1)
        assert s.f1 == pytest.approx(
            2 * s.precision * s.recall / (s.precision + s.recall)
        )
