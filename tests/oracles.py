"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way (plain recursion, full
DP matrices, literal enumeration) and shares no code with the package
internals beyond the public data types.
"""

import itertools
import math


def dfs_paths(wg, log=False):
    """All complete paths by plain recursion: (vids, labels, score).

    The score is the product of the edge scores, or with ``log`` the sum of
    their logs taken in path order.
    """
    adj = {}
    for e in wg.edges:
        adj.setdefault(e.src, []).append(e)
    for lst in adj.values():
        lst.sort(key=lambda e: (e.dst, e.label, e.score))
    out = []

    def go(v, vids, labels, acc):
        if v in wg.finals:
            out.append((tuple(vids), tuple(labels), acc))
            return
        for e in adj.get(v, []):
            step = acc + math.log(e.score) if log else acc * e.score
            go(e.dst, vids + [e.dst], labels + [e.label], step)

    go(wg.initial, [wg.initial], [], 0.0 if log else 1.0)
    return out


def simple_ed(a, b):
    """Full-matrix Levenshtein over any two sequences."""
    return ed_table(a, b)[len(a)][len(b)]


def ed_table(a, b):
    """The whole Levenshtein table: d[i][j] for prefixes a[:i] and b[:j]."""
    a, b = list(a), list(b)
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d


def pivot_alignment(pivot, other):
    """Backtrace of the full table from the end, one cell at a time.

    Ops as in confusion-network construction: ('m', i, j) match or
    substitution, ('d', i) pivot position i against a gap, ('i', g, j)
    other[j] inserted before pivot position g.  Among the moves that
    reproduce a cell's value, the first of match/substitution, pivot gap,
    insertion wins.
    """
    d = ed_table(pivot, other)
    i, j, ops = len(pivot), len(other), []
    while (i, j) != (0, 0):
        moves = []
        if i and j:
            step = d[i - 1][j - 1] + (pivot[i - 1] != other[j - 1])
            moves.append((step, ("m", i - 1, j - 1), i - 1, j - 1))
        if i:
            moves.append((d[i - 1][j] + 1, ("d", i - 1), i - 1, j))
        if j:
            moves.append((d[i][j - 1] + 1, ("i", i, j - 1), i, j - 1))
        _, op, i, j = next(m for m in moves if m[0] == d[i][j])
        ops.insert(0, op)
    return ops


def best_path_by_enumeration(wg):
    """argmax over all complete paths; ties to lexicographic smallest."""
    paths = dfs_paths(wg)
    assert paths
    return min(paths, key=lambda p: (-p[2], p[0], p[1]))


def n_best_by_enumeration(wg, n):
    """The ``n`` best complete paths: (vids, labels, log score).

    Ranked by the log score summed in path order (descending), then vertex
    ids, then labels.
    """
    return sorted(dfs_paths(wg, log=True), key=lambda p: (-p[2], p[0], p[1]))[:n]


def nearest_path_by_enumeration(wg, seq):
    """argmin edit distance path; ties by larger score then lexicographic."""
    paths = dfs_paths(wg)
    assert paths
    return min(
        paths, key=lambda p: (simple_ed(p[1], seq), -p[2], p[0], p[1])
    )


def mbr_by_enumeration(wg_i, wg_a, alpha):
    """Literal evaluation of the weighted expected-risk decision rule.

    Candidates are the distinct path label sequences of both lattices; the
    risk sums run over (deduplicated) paths with posteriors s_t / sum(s_t).
    """
    def hypotheses(wg):
        paths = dfs_paths(wg)
        total = sum(p for _, _, p in paths)
        grouped = {}
        for _, labels, p in paths:
            grouped[labels] = grouped.get(labels, 0.0) + p / total
        return grouped

    hyp_i = hypotheses(wg_i)
    hyp_a = hypotheses(wg_a)
    candidates = sorted(set(hyp_i) | set(hyp_a))
    best = None
    for cand in candidates:
        risk = alpha * sum(
            p * simple_ed(cand, ref) for ref, p in hyp_i.items()
        ) + (1.0 - alpha) * sum(
            p * simple_ed(cand, ref) for ref, p in hyp_a.items()
        )
        wpost = alpha * hyp_i.get(cand, 0.0) + (1.0 - alpha) * hyp_a.get(cand, 0.0)
        key = (risk, -wpost, cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def dtw_min_cost(local):
    """Minimum warping-path cost by exhaustive recursion over the cost grid."""
    n, m = len(local), len(local[0])
    memo = {}

    def go(i, j):
        if (i, j) == (0, 0):
            return local[0][0]
        if (i, j) in memo:
            return memo[(i, j)]
        best = math.inf
        if i > 0 and j > 0:
            best = min(best, go(i - 1, j - 1))
        if i > 0:
            best = min(best, go(i - 1, j))
        if j > 0:
            best = min(best, go(i, j - 1))
        memo[(i, j)] = best + local[i][j]
        return memo[(i, j)]

    return go(n - 1, m - 1)


def nw_global_max(a, b, match, mismatch, gap):
    """Needleman-Wunsch maximum global alignment score (no clipping)."""
    d = [[0.0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        d[i][0] = i * gap
    for j in range(1, len(b) + 1):
        d[0][j] = j * gap
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            step = match if a[i - 1] == b[j - 1] else mismatch
            d[i][j] = max(
                d[i - 1][j - 1] + step, d[i - 1][j] + gap, d[i][j - 1] + gap
            )
    return d[len(a)][len(b)]


def sw_best_score(a, b, match, mismatch, gap):
    """Best local alignment score as a max over all substring pairs."""
    a, b = list(a), list(b)
    best = 0.0
    for i1 in range(len(a) + 1):
        for i2 in range(i1, len(a) + 1):
            for j1 in range(len(b) + 1):
                for j2 in range(j1, len(b) + 1):
                    best = max(
                        best,
                        nw_global_max(a[i1:i2], b[j1:j2], match, mismatch, gap),
                    )
    return best


def average_ranks(values):
    """Average ranks (1-based) with ties sharing the mean rank."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def wilcoxon_by_enumeration(a, b):
    """Literal 2^n sign enumeration of the signed-rank two-sided p-value.

    Returns (W = min rank sum, n_effective, p).
    """
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    assert n >= 2
    ranks = average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = sum(ranks)
    w_low = min(w_plus, total - w_plus)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_low or w >= total - w_low:
            count += 1
    return w_low, n, min(1.0, count / 2**n)


def column_argmax(cn):
    """Matrix-style per-column argmax with lexicographic tie-break."""
    out = []
    for sub in cn.subnetworks:
        labels = sorted(sub)
        scores = [sub[l] for l in labels]
        best = max(scores)
        out.append(labels[scores.index(best)])
    return tuple(out)
