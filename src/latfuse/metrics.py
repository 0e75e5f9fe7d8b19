"""Symbol error rate and the paired Wilcoxon signed-rank test."""

from dataclasses import dataclass

import numpy as np

from .align import edit_distance
from .formats import format_score
from .lattice import SymbolSequence

#: Largest effective sample size for which the exact null distribution of the
#: signed-rank statistic is counted; the normal approximation (with tie
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


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each run of equal values sharing its mean rank.

    A run at sorted positions ``start`` to ``end - 1`` holds ranks
    ``start + 1`` to ``end``, so it gets ``(start + 1 + end) / 2``: a
    multiple of 1/2, hence exact.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], len(xs)]
    ranks = np.empty(len(xs))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    """Two-sided p from the exact null distribution of the positive rank sum.

    The ranks are multiples of 1/2, so doubled they are integers, and
    ``counts[s]`` (built one rank at a time) is the number of the 2^n sign
    assignments whose doubled positive sum is ``s``.  The tails are counted
    exactly, in O(n * sum of ranks) instead of O(2^n).
    """
    doubled = (2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[:-r]
    w2 = int(2.0 * w_plus)
    w_low = min(w2, total - w2)
    count = int(counts[: w_low + 1].sum() + counts[total - w_low:].sum())
    return min(1.0, count / (1 << len(ranks)))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Paired two-sided Wilcoxon signed-rank test of ``a`` against ``b``.

    Zero differences are dropped; tied absolute differences get average
    ranks.  The p-value is exact (a count over all sign assignments) for up
    to 20 effective pairs and a tie-corrected normal approximation beyond
    that.  The verdict direction comes from the rank sums: "greater" means
    ``a`` tends to be larger than ``b``.  Every value must be finite.
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
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    statistic = min(w_plus, w_minus)

    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
    else:
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        tie_term = float(((counts**3 - counts) / 48.0).sum())
        # the sum of the squared ranks over 4, so never 0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        # scipy is loaded only here, so importing latfuse never loads it
        from scipy.stats import norm

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
        f"ALPHA {format(alpha, 'g')} SER {format_score(ser_value)}"
    )
