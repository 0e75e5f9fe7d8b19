"""Alignment and distance primitives.

Token and character edit distance, the pivot alignment behind confusion
networks, sequence-to-lattice alignment, DTW over confusion networks, and
Smith-Waterman local alignment.  Everything here is a pure function with
per-call scratch space.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoCompletePathError
from .lattice import EPS, SymbolSequence, WordGraph, topological_order


def edit_distance(a, b) -> int:
    """Levenshtein distance between two token sequences (unit costs).

    Accepts SymbolSequence or any sequence of tokens; compares labels only.
    This is the single-pair DP; batches go through ``_levenshtein_rows``.
    """
    xa, xb = _label_tuple(a), _label_tuple(b)
    if len(xa) < len(xb):
        xa, xb = xb, xa
    prev = list(range(len(xb) + 1))
    for i, ta in enumerate(xa, 1):
        cur = [i] + [0] * len(xb)
        for j, tb in enumerate(xb, 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ta != tb),
            )
        prev = cur
    return prev[-1]


def _label_tuple(seq):
    return seq.labels if isinstance(seq, SymbolSequence) else tuple(seq)


def _encode(seqs, ids):
    """Pack sequences into a -1-padded int32 id matrix."""
    width = max(map(len, seqs), default=0)
    mat = np.full((len(seqs), width), -1, dtype=np.int32)
    for r, s in enumerate(seqs):
        for j, tok in enumerate(s):
            if tok not in ids:
                ids[tok] = len(ids)
            mat[r, j] = ids[tok]
    return mat


def _levenshtein_rows(cands, refs):
    """Batched Levenshtein DP over label tuples, one candidate row at a time.

    Yields D_i for i = 0 .. longest candidate: a fresh int64 block of shape
    (len(cands), len(refs), longest ref + 1) where D_i[c, r, j] is the
    distance between the first i tokens of cands[c] and the first j tokens
    of refs[r].  Rows advance over candidate prefixes while refs and their
    positions stay vectorized; the in-row dependency D[i][j] =
    min(V[j], D[i][j-1] + 1) closes with a running minimum over V[j] - j.
    Cells past the end of a candidate or ref hold padding garbage.
    """
    ids = {}
    cmat, rmat = _encode(cands, ids), _encode(refs, ids)
    j_range = np.arange(rmat.shape[1] + 1)
    shape = (len(cands), len(refs), len(j_range))
    # The extra copy frees one working-size block up front for the row
    # temporaries to reuse: 4 MB less peak RSS on a 200 x 100 matrix.
    dist = np.broadcast_to(j_range, shape).astype(np.int64).copy()
    yield dist
    for i in range(1, cmat.shape[1] + 1):
        tok = cmat[:, i - 1]
        sub = dist[:, :, :-1] + (rmat[np.newaxis, :, :] != tok[:, np.newaxis, np.newaxis])
        best = np.minimum(dist[:, :, 1:] + 1, sub)
        work = np.empty_like(dist)
        work[:, :, 0] = i
        work[:, :, 1:] = best
        dist = np.minimum.accumulate(work - j_range, axis=2) + j_range
        yield dist


def edit_distance_matrix(cands, refs) -> np.ndarray:
    """Pairwise Levenshtein distances, candidates by rows, refs by columns.

    Equivalent to nested ``edit_distance`` calls, but one batched
    ``_levenshtein_rows`` sweep serves every pair: row i of the result is
    read from the block after candidate i's last token.  This is what makes
    risk evaluation over hundreds of lattice paths affordable.
    """
    cand_seqs = [_label_tuple(c) for c in cands]
    ref_seqs = [_label_tuple(r) for r in refs]
    out = np.zeros((len(cand_seqs), len(ref_seqs)), dtype=np.int64)
    clens = np.array([len(c) for c in cand_seqs])
    ref_idx, ref_lens = np.arange(len(ref_seqs)), [len(r) for r in ref_seqs]
    for i, dist in enumerate(_levenshtein_rows(cand_seqs, ref_seqs)):
        out[clens == i] = dist[clens == i][:, ref_idx, ref_lens]
    return out


def _align_to_pivot(pivot: tuple, others: list) -> list[list[tuple]]:
    """Minimum-edit alignment of each label tuple in ``others`` to ``pivot``.

    One ``_levenshtein_rows`` sweep with the pivot as the only candidate
    fills every DP table at once.  Per other, returns forward-ordered ops:
    ('m', i, j) for a match/substitution, ('d', i) when pivot position i
    faces a gap, ('i', g, j) when other[j] is inserted into pivot gap g
    (before pivot position g).  Backtrace ties prefer match/substitution,
    then the pivot gap, then insertion.
    """
    rows = np.stack(list(_levenshtein_rows([pivot], others)), axis=2)[0]
    all_ops = []
    for other, dist in zip(others, rows.tolist()):
        ops = []
        i, j = len(pivot), len(other)
        while i > 0 or j > 0:
            cur = dist[i][j]
            if i > 0 and j > 0 and cur == dist[i - 1][j - 1] + (
                pivot[i - 1] != other[j - 1]
            ):
                ops.append(("m", i - 1, j - 1))
                i, j = i - 1, j - 1
            elif i > 0 and cur == dist[i - 1][j] + 1:
                ops.append(("d", i - 1))
                i -= 1
            else:
                ops.append(("i", i, j - 1))
                j -= 1
        ops.reverse()
        all_ops.append(ops)
    return all_ops


_char_ed = lru_cache(maxsize=65536)(edit_distance)


def normalized_char_ed(a: str, b: str) -> float:
    """Character-level edit distance divided by the longer token's length.

    ``<eps>`` is "no symbol": distance 0 to itself and 1 to anything else.
    """
    if not a or not b:
        raise ValueError("tokens must be non-empty")
    if a == EPS or b == EPS:
        return 0.0 if a == b else 1.0
    if a == b:
        return 0.0
    return _char_ed(a, b) / max(len(a), len(b))


def align_seq_to_lattice(
    seq: SymbolSequence, wg: WordGraph
) -> tuple[SymbolSequence, int]:
    """Complete lattice path with minimum edit distance to ``seq``.

    Dynamic program over (vertex, consumed-prefix) states.  Cost ties are
    broken by the larger path score, then the lexicographically smallest
    vertex-id and label sequence.  Returns the path (with edge scores) and
    its edit distance.
    """
    order = topological_order(wg)
    if order is None:
        raise NoCompletePathError("word graph has a cycle")
    adj = wg.out_edges()
    toks = _label_tuple(seq)
    n = len(toks)

    # state key: (cost, -logscore, vids, labels); payload adds edge scores
    start = (0, 0.0, (wg.initial,), (), ())
    states = {(wg.initial, 0): start}

    def relax(key, cand):
        cur = states.get(key)
        if cur is None or cand[:4] < cur[:4]:
            states[key] = cand

    for v in order:
        for j in range(n + 1):
            st = states.get((v, j))
            if st is None:
                continue
            cost, neglog, vids, labels, scores = st
            if j < n:
                # consume one reference token against no edge
                relax((v, j + 1), (cost + 1, neglog, vids, labels, scores))
            for e in adj[v]:
                nl = neglog - math.log(e.score)
                ext = (vids + (e.dst,), labels + (e.label,), scores + (e.score,))
                if j < n:
                    step = 0 if e.label == toks[j] else 1
                    relax((e.dst, j + 1), (cost + step, nl, *ext))
                relax((e.dst, j), (cost + 1, nl, *ext))

    best = None
    for f in wg.finals:
        st = states.get((f, n))
        if st is not None and (best is None or st[:4] < best[:4]):
            best = st
    if best is None:
        raise NoCompletePathError("word graph has no complete path")
    cost, _neglog, _vids, labels, scores = best
    return SymbolSequence(labels, scores), cost


def subnetwork_distance(sub_a: dict, sub_b: dict) -> float:
    """Expected normalized character edit distance between two subnetworks.

    Posterior-weighted mean over label pairs; equals 1 exactly when every
    cross pair of labels is completely different.
    """
    total = 0.0
    for la, sa in sub_a.items():
        for lb, sb in sub_b.items():
            d = normalized_char_ed(la, lb)
            if d:
                total += sa * sb * d
    return total


def completely_different(sub_a: dict, sub_b: dict) -> bool:
    """True iff every label pair across the two subnetworks has distance 1."""
    return all(
        normalized_char_ed(la, lb) == 1.0 for la in sub_a for lb in sub_b
    )


def dtw_align(cn_a, cn_b, cost_fn=subnetwork_distance):
    """DTW warping path over two confusion networks' subnetwork indices.

    Steps are (1,1), (1,0), (0,1) with both endpoints matched; ties during
    backtrace prefer (1,1), then (1,0).  Returns (path, total_cost) where
    path is the list of matched index pairs from (0,0) to (|a|-1, |b|-1).
    """
    subs_a = cn_a.subnetworks if hasattr(cn_a, "subnetworks") else tuple(cn_a)
    subs_b = cn_b.subnetworks if hasattr(cn_b, "subnetworks") else tuple(cn_b)
    n, m = len(subs_a), len(subs_b)
    if n == 0 or m == 0:
        raise ValueError("empty confusion network")
    local = [[cost_fn(subs_a[i], subs_b[j]) for j in range(m)] for i in range(n)]
    acc = [[math.inf] * m for _ in range(n)]
    acc[0][0] = local[0][0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            prev = math.inf
            if i > 0 and j > 0:
                prev = acc[i - 1][j - 1]
            if i > 0:
                prev = min(prev, acc[i - 1][j])
            if j > 0:
                prev = min(prev, acc[i][j - 1])
            acc[i][j] = local[i][j] + prev
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            best = min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])
            if acc[i - 1][j - 1] == best:
                i, j = i - 1, j - 1
            elif acc[i - 1][j] == best:
                i -= 1
            else:
                j -= 1
        elif i > 0:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path, acc[n - 1][m - 1]


@dataclass(frozen=True)
class SWParams:
    """Smith-Waterman scoring: positive match, non-positive penalties."""

    match_score: float = 2.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -2.0

    def __post_init__(self):
        if self.match_score <= 0:
            raise ValueError("match_score must be > 0")
        if self.mismatch_penalty > 0 or self.gap_penalty > 0:
            raise ValueError("penalties must be <= 0")


@dataclass(frozen=True)
class AlignmentResult:
    """A local alignment; gaps are None entries in the index/label tuples.

    Removing the gaps from ``aligned_a``/``aligned_b`` recovers a contiguous
    sub-range of the respective input.
    """

    aligned_a: tuple
    aligned_b: tuple
    score: float
    a_indices: tuple
    b_indices: tuple

    def __post_init__(self):
        if len(self.aligned_a) != len(self.aligned_b):
            raise ValueError("aligned sequences must have equal length")


def smith_waterman(a, b, params: SWParams = SWParams()) -> AlignmentResult:
    """Best-scoring local alignment between two token sequences.

    Standard SW dynamic program with a token-identity match test.  The
    alignment ends at the maximum-scoring cell; among equal maxima the cell
    latest in row-major order wins, which favours alignments that span gaps
    over shorter gapless prefixes of the same score.  Backtrace ties prefer
    diagonal, then the gap in ``b``.  Returns the empty alignment (score 0)
    when no cell is positive.
    """
    xa, xb = _label_tuple(a), _label_tuple(b)
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
