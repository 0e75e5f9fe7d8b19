"""Symbol error rate and the paired Wilcoxon signed-rank test."""

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, rankdata

from .align import edit_distance
from .lattice import SymbolSequence

#: Largest effective sample size for which the exact null distribution of the
#: signed-rank statistic is enumerated; the normal approximation (with tie
#: correction) takes over beyond it.
EXACT_LIMIT = 20

#: Significance level behind every ``WilcoxonResult`` verdict.
DEFAULT_SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class EvalPair:
    """One hypothesis/reference transcription pair."""

    hypothesis: SymbolSequence
    reference: SymbolSequence


def ser(pairs) -> float:
    """Corpus-level symbol error rate, as a percentage.

    Total edit operations over total reference length (pooled, not a mean of
    per-pair rates); may exceed 100.
    """
    pairs = list(pairs)
    num = 0
    den = 0
    for p in pairs:
        num += edit_distance(p.hypothesis, p.reference)
        den += len(p.reference.labels)
    if den == 0:
        raise ValueError("empty reference corpus")
    return 100.0 * num / den


@dataclass(frozen=True)
class WilcoxonResult:
    """Signed-rank test outcome.

    ``statistic`` is W = min of the positive/negative rank sums over the
    ``n_effective`` non-zero differences.  ``verdict`` says how the first
    sample compares to the second at level ``DEFAULT_SIGNIFICANCE``:
    "lower", "greater", or "no-difference".
    """

    statistic: float
    n_effective: int
    p_value: float
    verdict: str


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    """Two-sided p by enumerating all sign assignments of the ranks."""
    n = len(ranks)
    sums = np.zeros(1 << n)
    masks = np.arange(1 << n, dtype=np.uint64)
    for k in range(n):
        sums[(masks >> np.uint64(k)) & np.uint64(1) == 1] += ranks[k]
    # ranks are multiples of 1/2 (average ranks), so sums are exact floats
    # and the comparisons below are exact
    total = float(ranks.sum())
    w_low = min(w_plus, total - w_plus)
    count = np.count_nonzero(sums <= w_low) + np.count_nonzero(
        sums >= total - w_low
    )
    return min(1.0, count / (1 << n))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Paired two-sided Wilcoxon signed-rank test of ``a`` against ``b``.

    Zero differences are dropped; tied absolute differences get average
    ranks.  The p-value is exact (sign enumeration) for up to 20 effective
    pairs and a tie-corrected normal approximation beyond that.  The verdict
    direction comes from the rank sums: "greater" means ``a`` tends to be
    larger than ``b``.  Every value must be finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-D and the same length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("a and b must be finite")
    if len(a) < 2:
        raise ValueError("need at least 2 pairs")
    diff = a - b
    diff = diff[diff != 0.0]
    n = len(diff)
    if n < 2:
        raise ValueError("fewer than 2 non-zero differences")
    ranks = rankdata(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    statistic = min(w_plus, w_minus)

    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
    else:
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        tie_term = float(((counts**3 - counts) / 48.0).sum())
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        if var <= 0:
            p = 1.0
        else:
            z = (w_plus - mean) / np.sqrt(var)
            p = float(min(1.0, 2.0 * norm.sf(abs(z))))

    if p >= DEFAULT_SIGNIFICANCE:
        verdict = "no-difference"
    elif w_plus > w_minus:
        verdict = "greater"
    else:
        verdict = "lower"
    return WilcoxonResult(statistic, n, p, verdict)


def result_line(method: str, scenario: int, alpha, ser_value: float) -> str:
    """Machine-readable result line shared by reports and their consumers."""
    return (
        f"METHOD {method} SCENARIO {scenario} "
        f"ALPHA {format(alpha, 'g')} SER {format(ser_value, '.12g')}"
    )
