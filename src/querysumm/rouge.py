"""Self-contained ROUGE-1/2/L/SU4 scoring over token sequences.

Inputs are flat token lists (see ``querysumm.text.tokenize``); multi-sentence
summaries are scored as one joined sequence.  No stemming, no stopword
removal.  SU4 pools unigrams together with skip-bigrams of positional gap
<= 4 into a single clipped multiset match.  ROUGE-L's longest common
subsequence is computed exactly by bit-parallel LCS (Allison & Dix 1986;
Hyyrö 2004) in O(|long| * ceil(|short| / 64)) word operations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

SU4_MAX_GAP = 4  # a skip-bigram pairs a token with the next 4 at most


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def _score(overlap: int, n_candidate: int, n_reference: int) -> RougeScore:
    if n_candidate == 0 or n_reference == 0:
        return RougeScore(0.0, 0.0, 0.0)
    p = overlap / n_candidate
    r = overlap / n_reference
    return RougeScore(p, r, _f1(p, r))


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum((cand & ref).values())
    return _score(overlap, sum(cand.values()), sum(ref.values()))


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by bit-parallel LCS (Allison & Dix
    1986, *A bit-string longest-common-subsequence algorithm*; Hyyrö 2004).

    Bit k of a token's match mask is set where the shorter sequence holds
    that token at position k.  Each token y of the longer sequence updates
    the row vector ``v`` (initially all ones) by ``u = v & mask[y]``,
    ``v = ((v + u) | (v - u)) & full``; the LCS is the number of zero bits
    left in ``v``.  Exact integer arithmetic on Python ints, so the cost is
    O(|long| * ceil(|short| / 64)) word operations.
    """
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    if not short:
        return 0
    masks: dict[str, int] = {}
    for k, y in enumerate(short):
        masks[y] = masks.get(y, 0) | (1 << k)
    full = (1 << len(short)) - 1
    v = full
    for y in long_:
        match = masks.get(y)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(short) - v.bit_count()


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScore:
    """LCS-based ROUGE: p = LCS/|candidate|, r = LCS/|reference|."""
    return _score(lcs_length(candidate, reference), len(candidate), len(reference))


def _su4_units(tokens: list[str]) -> Counter:
    units = Counter(tokens)
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + SU4_MAX_GAP, len(tokens) - 1) + 1):
            units[(tokens[i], tokens[j])] += 1
    return units


def rouge_su4(candidate: list[str], reference: list[str]) -> RougeScore:
    """Skip-bigram (gap <= 4) plus unigram pooled match."""
    cand = _su4_units(candidate)
    ref = _su4_units(reference)
    overlap = sum((cand & ref).values())
    return _score(overlap, sum(cand.values()), sum(ref.values()))


def rouge_recall_truncated(
    candidate: list[str], reference: list[str], word_limit: int
) -> dict[str, float]:
    """Recall of R-1/2/L/SU4 after truncating the candidate to ``word_limit``
    tokens.  The reference is never truncated."""
    if word_limit <= 0:
        raise ValueError(f"word_limit must be positive, got {word_limit}")
    cand = candidate[:word_limit]
    return {
        "rouge-1": rouge_n(cand, reference, 1).recall,
        "rouge-2": rouge_n(cand, reference, 2).recall,
        "rouge-l": rouge_l(cand, reference).recall,
        "rouge-su4": rouge_su4(cand, reference).recall,
    }
