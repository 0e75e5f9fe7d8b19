"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way (plain recursion, full
DP matrices, literal enumeration) and shares no code with the package
internals beyond the public data types.  The one exception is
``cn_by_pivot_alignment``, which takes its path list from the public
``n_best_paths`` (checked against ``n_best_by_enumeration`` on its own), so
that it also covers lattices too large to enumerate.  Likewise
``subnetwork_distance_by_loop`` takes each label pair's distance from the
public ``normalized_char_ed`` (tested on its own): what it pins is the order
of the sum.  ``sw_alignment_by_lists`` and ``merge_by_take`` are the local
fusion's earlier bodies, kept as written: four parallel reversed lists in
the backtrace, and a per-position ``take`` in the merge.
``corrupt_by_loop`` and ``corpus_spine_ser_by_loop`` are the simulator's
earlier corruption loop and calibration scorer, one position and one
``edit_distance`` call at a time; they read the rule's constants from
``latfuse.simulate``, so what they pin is the rule, and
``calibration_corpus_by_loop`` pins the corpus's RNG call order.
"""

import itertools
import math

import numpy as np

from latfuse import (
    EPS, AlignmentResult, SymbolSequence, default_vocabulary, edit_distance,
    n_best_paths, normalized_char_ed,
)
from latfuse.simulate import (
    _CONFUSION_WIDTH, _P_DEL, _P_SUB, CALIBRATION_CORPUS_SIZE,
)


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


def pivot_rows(pivot, other):
    """``pivot_alignment`` as an (at_pivot, inserted) pair.

    ``at_pivot[i]`` is the other's label matched or substituted at pivot
    position i, or ``<eps>`` where i faces a gap; ``inserted[g]`` is the
    tuple of labels inserted before pivot position g, in path order.
    """
    at_pivot = [EPS] * len(pivot)
    inserted = [[] for _ in range(len(pivot) + 1)]
    for op in pivot_alignment(pivot, other):
        if op[0] == "m":
            at_pivot[op[1]] = other[op[2]]
        elif op[0] == "i":
            inserted[op[1]].append(other[op[2]])
    return tuple(at_pivot), tuple(tuple(ins) for ins in inserted)


def cn_by_pivot_alignment(wg, max_paths):
    """The confusion network of the ``max_paths``-best paths, column by column.

    The best path is the pivot, and each path's posterior is its softmax
    weight, the log scores shifted by their maximum.  Each path is aligned
    to the pivot with ``pivot_alignment``.  Pivot gap g gets as many
    insertion columns as the most insertions one path puts there, and the
    columns run: gap 0's insertion columns, pivot position 0, gap 1's, pivot
    position 1, ...  Path by path, in n-best order, every column receives
    the path's posterior under the label the path puts there: the matched
    symbol at a pivot position, its k-th inserted symbol in a gap's k-th
    insertion column, and ``<eps>`` where it has a gap or nothing.  Each
    column is then divided by its total.  Returns the columns as lists of
    (label, score) pairs in the order the labels first arrived.
    """
    paths = n_best_paths(wg, max_paths)
    logs = [ls for _, ls in paths]
    weights = [math.exp(x - max(logs)) for x in logs]
    posts = [w / sum(weights) for w in weights]
    pivot = paths[0][0].labels
    alignments = [pivot_alignment(pivot, seq.labels) for seq, _ in paths]
    slots = [
        max(sum(op[0] == "i" and op[1] == g for op in ops) for ops in alignments)
        for g in range(len(pivot) + 1)
    ]
    keys = []
    for g in range(len(pivot) + 1):
        keys += [("ins", g, k) for k in range(slots[g])]
        if g < len(pivot):
            keys.append(("piv", g))
    columns = {key: {} for key in keys}
    for (seq, _), post, ops in zip(paths, posts, alignments):
        placed = {}
        for op in ops:
            if op[0] == "i":
                k = sum(key[:2] == ("ins", op[1]) for key in placed)
                placed[("ins", op[1], k)] = seq.labels[op[2]]
            else:
                placed[("piv", op[1])] = seq.labels[op[2]] if op[0] == "m" else EPS
        for key in keys:
            lab = placed.get(key, EPS)
            columns[key][lab] = columns[key].get(lab, 0.0) + post
    out = []
    for key in keys:
        total = sum(columns[key].values())
        out.append([(lab, score / total) for lab, score in columns[key].items()])
    return out


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


def seq_to_lattice_by_tuples(wg, seq):
    """Nearest complete path by a DP whose states carry whole paths.

    Each (vertex, consumed-prefix) state holds ``(cost, -logscore, vids,
    labels, scores)``, log scores summed in path order, and a move replaces
    the entry only when its first four fields compare smaller, so the first
    arrival keeps a full tie.  Moves are relaxed vertex by vertex in
    topological order (smallest ready id first), then by prefix length, the
    in-row move (consume a token against no edge) before the edges, edges
    sorted by (dst, label, score), and per edge the match/substitution
    before the insertion.  The winner is the smallest entry over the finals
    that consumed all of ``seq``, the first on a full tie, in ``wg.finals``
    iteration order.  Returns ``(labels, scores, cost)``.
    """
    adj = {}
    indeg = [0] * wg.num_vertices
    for e in wg.edges:
        adj.setdefault(e.src, []).append(e)
        indeg[e.dst] += 1
    for lst in adj.values():
        lst.sort(key=lambda e: (e.dst, e.label, e.score))
    ready = sorted(v for v in range(wg.num_vertices) if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for e in adj.get(v, []):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                ready = sorted(ready + [e.dst])
    toks = tuple(seq)
    n = len(toks)
    states = {(wg.initial, 0): (0, 0.0, (wg.initial,), (), ())}

    def relax(key, cand):
        if key not in states or cand[:4] < states[key][:4]:
            states[key] = cand

    for v in order:
        for j in range(n + 1):
            if (v, j) not in states:
                continue
            cost, neglog, vids, labels, scores = states[v, j]
            if j < n:
                relax((v, j + 1), (cost + 1, neglog, vids, labels, scores))
            for e in adj.get(v, []):
                ext = (neglog - math.log(e.score), vids + (e.dst,),
                       labels + (e.label,), scores + (e.score,))
                if j < n:
                    relax((e.dst, j + 1), (cost + (e.label != toks[j]), *ext))
                relax((e.dst, j), (cost + 1, *ext))
    best = min((states[f, n] for f in wg.finals if (f, n) in states),
               key=lambda st: st[:4])
    return best[3], best[4], best[0]


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


def wilcoxon_p_by_enumeration(ranks, w_plus):
    """Two-sided signed-rank p by enumerating all 2^n sign assignments.

    ``ranks`` are average ranks (multiples of 1/2, so every sum is an exact
    float) and ``w_plus`` is the observed positive rank sum.
    """
    n = len(ranks)
    sums = np.zeros(1 << n)
    masks = np.arange(1 << n, dtype=np.uint64)
    for k in range(n):
        sums[(masks >> np.uint64(k)) & np.uint64(1) == 1] += ranks[k]
    total = float(np.sum(ranks))
    w_low = min(w_plus, total - w_plus)
    count = np.count_nonzero(sums <= w_low) + np.count_nonzero(
        sums >= total - w_low
    )
    return min(1.0, count / (1 << n))


def subnetwork_distance_by_loop(sub_a, sub_b):
    """Expected normalized character edit distance, one label pair at a
    time in nested dict order, skipping pairs at distance 0."""
    total = 0.0
    for la, sa in sub_a.items():
        for lb, sb in sub_b.items():
            d = normalized_char_ed(la, lb)
            if d:
                total += sa * sb * d
    return total


def column_argmax(cn):
    """Matrix-style per-column argmax with lexicographic tie-break."""
    out = []
    for sub in cn.subnetworks:
        labels = sorted(sub)
        scores = [sub[l] for l in labels]
        best = max(scores)
        out.append(labels[scores.index(best)])
    return tuple(out)


def sw_alignment_by_lists(a, b, params):
    """Smith-Waterman local alignment with the backtrace kept in four
    parallel reversed lists (labels and indices of each side).

    Same fill, end-cell and backtrace rules as ``smith_waterman``: the
    latest maximal cell in row-major order ends the alignment, and the
    backtrace prefers the diagonal, then the gap in ``b``.
    """
    xa = a.labels if isinstance(a, SymbolSequence) else tuple(a)
    xb = b.labels if isinstance(b, SymbolSequence) else tuple(b)
    n, m = len(xa), len(xb)
    h = [[0.0] * (m + 1) for _ in range(n + 1)]
    best, bi, bj = 0.0, 0, 0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            step = (
                params.match_score
                if xa[i - 1] == xb[j - 1]
                else params.mismatch_penalty
            )
            v = max(
                0.0,
                h[i - 1][j - 1] + step,
                h[i - 1][j] + params.gap_penalty,
                h[i][j - 1] + params.gap_penalty,
            )
            h[i][j] = v
            if v >= best and v > 0.0:
                best, bi, bj = v, i, j
    if best == 0.0:
        return AlignmentResult((), (), 0.0, (), ())

    rev_a, rev_b, ra_idx, rb_idx = [], [], [], []
    i, j = bi, bj
    while i > 0 and j > 0 and h[i][j] > 0.0:
        v = h[i][j]
        step = (
            params.match_score if xa[i - 1] == xb[j - 1] else params.mismatch_penalty
        )
        if v == h[i - 1][j - 1] + step:
            rev_a.append(xa[i - 1])
            rev_b.append(xb[j - 1])
            ra_idx.append(i - 1)
            rb_idx.append(j - 1)
            i, j = i - 1, j - 1
        elif v == h[i - 1][j] + params.gap_penalty:
            rev_a.append(xa[i - 1])
            rev_b.append(None)
            ra_idx.append(i - 1)
            rb_idx.append(None)
            i -= 1
        else:
            rev_a.append(None)
            rev_b.append(xb[j - 1])
            ra_idx.append(None)
            rb_idx.append(j - 1)
            j -= 1
    return AlignmentResult(
        tuple(reversed(rev_a)),
        tuple(reversed(rev_b)),
        best,
        tuple(reversed(ra_idx)),
        tuple(reversed(rb_idx)),
    )


def merge_by_take(seq_i, seq_a, params):
    """Local fusion of two score-annotated sequences, one ``take`` per
    output position.

    Aligns with ``sw_alignment_by_lists``, recovers each side's aligned
    window from its indices, and keeps: the image prefix, the audio
    prefix, the window (agreement or a gap in audio keeps the image
    symbol, a conflict keeps the larger score, image on ties), the image
    suffix and the audio suffix.  An unscored side scores 1.0 everywhere.
    """
    res = sw_alignment_by_lists(seq_i, seq_a, params)
    a_idx = [k for k in res.a_indices if k is not None]
    b_idx = [k for k in res.b_indices if k is not None]
    a_lo, a_hi = (a_idx[0], a_idx[-1] + 1) if a_idx else (0, 0)
    b_lo, b_hi = (b_idx[0], b_idx[-1] + 1) if b_idx else (0, 0)

    labels = []
    scores = []

    def take(seq, k):
        labels.append(seq.labels[k])
        scores.append(seq.scores[k] if seq.scores is not None else 1.0)

    for k in range(a_lo):
        take(seq_i, k)
    for k in range(b_lo):
        take(seq_a, k)
    for ia, ja in zip(res.a_indices, res.b_indices):
        if ia is None:
            take(seq_a, ja)
        elif ja is None:
            take(seq_i, ia)
        elif seq_i.labels[ia] == seq_a.labels[ja]:
            take(seq_i, ia)
        else:
            si = seq_i.scores[ia] if seq_i.scores is not None else 1.0
            sa = seq_a.scores[ja] if seq_a.scores is not None else 1.0
            if si >= sa:
                take(seq_i, ia)
            else:
                take(seq_a, ja)
    for k in range(a_hi, len(seq_i)):
        take(seq_i, k)
    for k in range(b_hi, len(seq_a)):
        take(seq_a, k)
    return SymbolSequence(tuple(labels), tuple(scores))


def corrupt_by_loop(truth, rate, draws, vocab):
    """Corrupt a label tuple into spine items (label, truth_hint, is_error).

    ``truth_hint`` is the ground-truth label underlying the position (None
    for pure insertions); deleted truth labels simply vanish.  Substitutions
    pick a confusable neighbor of the true token.  The spine is never left
    empty: a deletion that would empty it is skipped.
    """
    tokens, index = vocab.tokens, vocab._index
    spine = []
    for i, lab in enumerate(truth):
        if draws["u_err"][i] < rate:
            kind = draws["u_type"][i]
            if kind < _P_SUB:
                neigh = [
                    (index[lab] + off) % len(tokens)
                    for off in range(-_CONFUSION_WIDTH, _CONFUSION_WIDTH + 1)
                    if off != 0
                ]
                j = neigh[draws["sub_pick"][i] % len(neigh)]
                spine.append((tokens[j], lab, True))
            elif kind < _P_SUB + _P_DEL:
                if i == len(truth) - 1 and not spine:
                    spine.append((lab, lab, False))
                continue
            else:
                j = draws["ins_pick"][i] % len(tokens)
                spine.append((tokens[j], None, True))
                spine.append((lab, lab, False))
        else:
            spine.append((lab, lab, False))
    return spine


def calibration_corpus_by_loop(spec, rng):
    """The calibration corpus as (truth label tuple, draws) pairs, each
    drawn as the length, the token ids, then the five corruption draws."""
    vocab = default_vocabulary(spec.vocab_size)
    lo, hi = spec.sequence_length_range
    top = np.iinfo(np.int64).max
    corpus = []
    for _ in range(CALIBRATION_CORPUS_SIZE):
        n = int(rng.integers(lo, hi + 1))
        truth = tuple(vocab.tokens[i] for i in rng.integers(0, len(vocab), n))
        draws = {
            "u_err": rng.random(n),
            "u_type": rng.random(n),
            "u_truth": rng.random(n),
            "sub_pick": rng.integers(0, top, n),
            "ins_pick": rng.integers(0, top, n),
        }
        corpus.append((truth, draws))
    return corpus


def corpus_spine_ser_by_loop(corpus, rate, vocab):
    """Pooled SER (percent) of the corrupted spines against their truths."""
    num = 0
    den = 0
    for truth, draws in corpus:
        spine = [lab for lab, _, _ in corrupt_by_loop(truth, rate, draws, vocab)]
        num += edit_distance(spine, truth)
        den += len(truth)
    return 100.0 * num / den
