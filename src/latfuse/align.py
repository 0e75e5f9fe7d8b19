"""Alignment and distance primitives.

Token and character edit distance, the pivot alignment behind confusion
networks, sequence-to-lattice alignment, DTW over confusion networks, and
Smith-Waterman local alignment.  Everything here is a pure function with
per-call scratch space.
"""

import math
from dataclasses import dataclass
from operator import ne

import numpy as np

from .lattice import (
    EPS, SymbolSequence, WordGraph, _path_sequence, _prefix_edges, _tie_key,
    topological_order)

_FULL = (1 << 64) - 1  # every bit of a uint64 word


def _myers_block(eq, pv, mv, hp_in, hm_in, full, top):
    """One text token through one block of Myers' bit-vector Levenshtein.

    Bit k of ``pv``/``mv`` says the pattern DP column steps +1/-1 from row
    k to row k + 1; ``eq`` marks the pattern positions equal to the token.
    ``full`` masks the pattern bits.  They form one pattern, or several
    segments side by side, each with a clear guard bit above it: the guard
    absorbs the carry of ``(eq & pv) + pv`` and the top bit that ``ph`` and
    ``mh`` shift out of the segment, and ``full`` clears it again, so no
    segment reads its neighbour (Hyyrö, Fredriksson & Navarro 2005).
    ``hp_in``/``hm_in`` hold the horizontal delta entering each segment's
    lowest row: a set bit there says +1/-1.  The returned pair says the same
    of the delta leaving bit ``top`` (0 or 1), for the next block of a
    pattern that spans several (Myers 1999; Hyyrö 2003; edlib's
    ``calculateBlock``); with ``top`` None there is no next block, and both
    are 0.  Only ``& | ^ + << >>`` are used, so the same code runs on one
    Python int of any width and on uint64 numpy arrays of 64-bit words.
    Augmented assignments rebind an int and update an array in place, and
    they only ever update arrays made here, so a call makes few temporaries
    and never changes its arguments.
    """
    xv = eq | mv
    eq = eq | hm_in
    xh = eq & pv
    xh += pv
    xh &= full
    xh ^= pv
    xh |= eq  # (((eq & pv) + pv) ^ pv) | eq, within full
    ph = xh | pv
    ph ^= full
    ph |= mv  # (mv | ~(xh | pv)) & full
    mh = xh
    mh &= pv  # pv & xh; xh is not read again
    hp_out = hm_out = 0
    if top is not None:
        hp_out, hm_out = ph >> top, mh >> top  # 0 or 1: both are masked by full
    ph <<= 1
    ph |= hp_in
    mh <<= 1
    mh |= hm_in
    mv = ph & xv
    pv = xv
    pv |= ph
    pv ^= full
    pv |= mh
    pv &= full  # (mh | ~(xv | ph)) & full
    return pv, mv, hp_out, hm_out


def edit_distance(a, b) -> int:
    """Levenshtein distance between two token sequences (unit costs).

    Accepts SymbolSequence or any sequence of hashable tokens; compares
    labels only.  The shorter sequence is the bit-vector pattern, held as
    one Python int; batches go through ``edit_distance_matrix``.
    """
    xa, xb = _label_tuple(a), _label_tuple(b)
    if len(xa) < len(xb):
        xa, xb = xb, xa
    peq = {}
    for k, tok in enumerate(xb):
        peq[tok] = peq.get(tok, 0) | (1 << k)
    full = (1 << len(xb)) - 1
    pv, mv = full, 0
    for tok in xa:
        pv, mv, _, _ = _myers_block(peq.get(tok, 0), pv, mv, 1, 0, full, None)
    return len(xa) + pv.bit_count() - mv.bit_count()


def _label_tuple(seq):
    return seq.labels if isinstance(seq, SymbolSequence) else tuple(seq)


def _encode(seqs, ids):
    """Pack sequences into a -1-padded int32 id matrix.

    Ids are numbered in order of first appearance; one flat id list fills
    the mask of real positions, row by row.
    """
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    mat = np.full((len(seqs), lens.max(initial=0)), -1, dtype=np.int32)
    mat[np.arange(mat.shape[1]) < lens[:, None]] = [
        ids.setdefault(tok, len(ids)) for s in seqs for tok in s]
    return mat


def _pack(lens):
    """Next-fit packing of patterns into columns of 64-bit words, in input
    order.

    A pattern of m <= 63 tokens takes m bits and the guard bit above them in
    the open column's word, or opens the next column if they do not fit.  A
    longer pattern opens a column of ``ceil(m / 64)`` words of its own, with
    no guard, and closes it.  Returns each pattern's column and first bit.
    """
    col, start = [], []
    columns, used = 0, 64  # bits taken in the open column's word: none yet
    for m in lens:
        if used + m + 1 > 64:
            columns, used = columns + 1, 0
        col.append(columns - 1)
        start.append(used)
        used += m + 1
    return np.array(col, dtype=np.intp), np.array(start, dtype=np.int64)


def edit_distance_matrix(cands, refs) -> np.ndarray:
    """Pairwise Levenshtein distances, candidates by rows, refs by columns.

    Equivalent to nested ``edit_distance`` calls (tokens must be hashable)
    but batched: the refs are the bit-vector pattern, and each candidate
    token advances a whole (prefix, column) row of words through
    ``_myers_block`` at once.  The distinct sequences of both sides are
    interned once, by one ``_encode``, and each ref is a row of that id
    matrix.

    Several refs share a 64-bit word (``_pack``, next-fit in input order): a
    ref of m <= 63 tokens is a segment of m bits with a guard bit above it.
    The ``FULL`` mask (``full``, per word and column) holds the segments'
    bits, clearing the guards, and ``LOW`` (``low``, per column) each
    segment's lowest bit, which every segment has in its column's first
    word: the +1 of the empty pattern prefix enters there.  A ref of more
    than 63 tokens takes a column of words to itself, which pass the deltas
    leaving each word's top bit on to the next, and a column of short refs
    has no bits above its first word, so one loop over the masks serves
    both.  A ref's distance is read from its own bits by one masked popcount
    per word.

    Candidates sharing a prefix share its rows: sorted with ``np.lexsort``
    they fall into contiguous groups, and at depth i each distinct length-i
    prefix advances once, from its parent prefix's row.  A candidate's
    distances are read from its own prefix row at its own length.  This is
    what makes risk evaluation over hundreds of lattice paths affordable.
    """
    cand_seqs = [_label_tuple(c) for c in cands]
    ref_seqs = [_label_tuple(r) for r in refs]
    row = {}  # distinct sequence -> its row of the id matrix
    for s in cand_seqs + ref_seqs:
        row.setdefault(s, len(row))
    ids = {}
    mat = _encode(list(row), ids)
    depth = max(map(len, cand_seqs), default=0)
    cmat = mat[np.array([row[s] for s in cand_seqs], dtype=np.intp), :depth]
    rmat = mat[np.array([row[s] for s in ref_seqs], dtype=np.intp)]
    col, start = _pack(map(len, ref_seqs))
    r, k = np.nonzero(rmat >= 0)
    bit = start[r] + k  # a ref's token k is bit start + k of its column
    word, one = bit // 64, np.uint64(1) << (bit % 64).astype(np.uint64)
    # peq[w, t, c]: bits of column c's word w that hold token t, and
    # seg[w, r]: ref r's bits in word w.  The refs of one column hold
    # distinct bits, so or-ing them in is unambiguous.
    peq = np.zeros((word.max(initial=0) + 1, len(ids), col.max(initial=-1) + 1),
                   dtype=np.uint64)
    np.bitwise_or.at(peq, (word, rmat[r, k], col[r]), one)
    seg = np.zeros((len(peq), len(ref_seqs)), dtype=np.uint64)
    np.bitwise_or.at(seg, (word, r), one)
    full = np.bitwise_or.reduce(peq, axis=1)
    low = np.zeros(peq.shape[2], dtype=np.uint64)
    np.bitwise_or.at(low, col, np.uint64(1) << start.astype(np.uint64))
    # padding sorts first, so a prefix comes before its extensions
    order = (np.lexsort(cmat.T[::-1]) if cmat.size
             else np.arange(len(cand_seqs)))
    cmat = cmat[order]
    clens = np.count_nonzero(cmat >= 0, axis=1)
    # new[r, i]: sorted candidate r is the first with its length-i prefix;
    # prefix[r, i] numbers that prefix's row at depth i (one row at depth 0)
    differs = np.ones((len(cand_seqs), depth + 1), dtype=bool)
    differs[1:, 0] = False
    differs[1:, 1:] = np.logical_or.accumulate(cmat[1:] != cmat[:-1], axis=1)
    new = differs & (clens[:, None] >= np.arange(depth + 1))
    prefix = np.cumsum(new, axis=0) - 1
    pv = [f[None] for f in full]
    mv = [np.zeros_like(f[None]) for f in full]
    out = np.zeros((len(cand_seqs), len(ref_seqs)), dtype=np.int64)
    for i in range(depth + 1):
        if i:
            heads = np.flatnonzero(new[:, i])
            parent = prefix[heads, i - 1]
            pv, mv = _advance_words(peq[:, cmat[heads, i - 1]],
                                    [p[parent] for p in pv],
                                    [m[parent] for m in mv], full, low)
        done = np.flatnonzero(clens == i)
        if done.size:
            rows = prefix[done, i][:, None]
            out[order[done]] = _read_out(
                i, [p[rows, col] for p in pv], [m[rows, col] for m in mv], seg)
    return out


def _advance_words(eqs, pvs, mvs, fulls, low):
    """One text token through patterns held in columns of 64-bit words, low
    word first.

    ``eqs``, ``pvs`` and ``mvs`` hold one array per word, ``fulls`` each
    word's mask of pattern bits, and ``low`` the first word's bits where a
    pattern starts: the empty pattern prefix costs one more per token, so a
    +1 enters there.  Each word but the last passes the horizontal delta
    leaving its top bit to the next word.  Returns the new ``(pvs, mvs)``
    lists.
    """
    hp, hm = low, 0
    new_pv, new_mv = [], []
    tops = [63] * (len(fulls) - 1) + [None]
    for eq, pv, mv, full, top in zip(eqs, pvs, mvs, fulls, tops):
        pv, mv, hp, hm = _myers_block(eq, pv, mv, hp, hm, full, top)
        new_pv.append(pv)
        new_mv.append(mv)
    return new_pv, new_mv


def _read_out(steps, pvs, mvs, valid):
    """Distances after ``steps`` text tokens: the last DP column's bottom
    cell, ``steps`` plus the vertical deltas at the pattern's real bits
    (``valid``, one mask per word)."""
    return steps + sum(
        np.bitwise_count(p & v).astype(np.int64) - np.bitwise_count(m & v)
        for p, m, v in zip(pvs, mvs, valid)
    )


def _pair_masks(patterns, texts) -> np.ndarray:
    """Pattern-equality words of every text token against its own pattern.

    ``patterns`` is an ``(n, L)`` id matrix and ``texts`` holds pair k's
    text ids in row k, in any trailing shape; -1 pads both.  Returns uint64
    ``(W, n, ...)``, ``W = max(1, ceil(L / 64))``: bit ``j % 64`` of word
    ``j // 64`` is set where the text token equals pattern position j.
    Padding may set bits at or beyond a pattern's length, which
    ``_paired_distances`` never reads.  One pattern position at a time, so
    each temporary is the size of ``texts``, whatever the vocabulary.
    """
    n, length = patterns.shape
    eq = np.zeros((max(1, -(-length // 64)), *texts.shape), dtype=np.uint64)
    column = (n,) + (1,) * (texts.ndim - 1)
    for j in range(length):
        word = eq[j // 64]
        np.bitwise_or(word, np.uint64(1 << (j % 64)), out=word,
                      where=texts == patterns[:, j].reshape(column))
    return eq


def _paired_distances(eq, text_lens, pattern_lens) -> np.ndarray:
    """Levenshtein distance of each (text k, pattern k) pair, as int64.

    ``eq`` is ``_pair_masks``'s ``(W, n, T)`` output: ``eq[:, k, i]`` holds
    text k's token i against pattern k, and ``T`` is at least the longest
    text.  Column k of the words is pair k alone.  Step i advances every
    column by its text's token i, and a column's distance is read, as in
    ``edit_distance_matrix``, at the step where its text ends; what a column
    meets past its own length is never read.  Patterns longer than 63 tokens
    span several words, with ``edit_distance_matrix``'s word carry.
    """
    bits = np.clip(pattern_lens - 64 * np.arange(len(eq))[:, None], 0, 64)
    # (1 << bits) - 1 per word; a uint64 shifts by at most 63
    low = np.uint64(1) << np.minimum(bits, 63).astype(np.uint64)
    valid = np.where(bits == 64, np.uint64(_FULL), low - np.uint64(1))
    pv = [np.full(len(text_lens), _FULL, dtype=np.uint64)] * len(eq)
    mv = [np.zeros(len(text_lens), dtype=np.uint64)] * len(eq)
    out = np.empty(len(text_lens), dtype=np.int64)
    for i in range(int(text_lens.max(initial=0)) + 1):
        if i:
            pv, mv = _advance_words(eq[:, :, i - 1], pv, mv, [_FULL] * len(eq), 1)
        done = np.flatnonzero(text_lens == i)
        out[done] = _read_out(
            i, [p[done] for p in pv], [m[done] for m in mv], valid[:, done])
    return out


def _align_to_pivot(pivot: tuple, others: list) -> list[tuple]:
    """Minimum-edit alignment of each label tuple in ``others`` to ``pivot``.

    Per other, returns ``(at_pivot, inserted)``: ``at_pivot`` holds
    ``len(pivot)`` labels, the other's label matched or substituted at each
    pivot position, or ``<eps>`` where that position faces a gap;
    ``inserted`` holds ``len(pivot) + 1`` tuples, ``inserted[g]`` the labels
    inserted before pivot position g, in path order.  Interleaving
    ``inserted[0]``, ``at_pivot[0]``, ``inserted[1]``, ... and dropping the
    gaps gives the other back.  Backtrace ties prefer match/substitution,
    then the pivot gap, then insertion.

    A certificate settles most rows without a DP.  Take an other of the
    pivot's length at Hamming distance h from it, and suppose its edit
    distance is h too.  The diagonal cell D[i][i] is at most the prefix
    Hamming count H_i, and D[n][n] = h <= D[i][i] + (h - H_i), so
    D[i][i] = H_i for every i.  Each diagonal step then reproduces its cell,
    the backtrace takes it first, and the other matches the pivot position
    by position with nothing inserted.
    When h <= 2 the edit distance is h without computing it: an alignment
    of two equal-length sequences that leaves the diagonal holds at least
    one insertion and one gap, so it costs at least 2.  Otherwise one
    ``edit_distance`` call decides.  A certified row is ``(other,
    no_insertions)``, one tuple of empty tuples shared by every such row.
    The remaining rows go through ``_row_dp_alignments`` and come back in
    input order.
    """
    no_insertions = ((),) * (len(pivot) + 1)
    rows, rest = [], []
    for k, other in enumerate(others):
        if len(other) == len(pivot):
            h = sum(map(ne, pivot, other))
            if h <= 2 or edit_distance(other, pivot) == h:
                rows.append((other, no_insertions))
                continue
        rows.append(None)
        rest.append(k)
    if rest:
        dp_rows = _row_dp_alignments(pivot, [others[k] for k in rest])
        for k, row in zip(rest, dp_rows):
            rows[k] = row
    return rows


def _row_dp_alignments(pivot: tuple, others: list) -> list[tuple]:
    """``_align_to_pivot``'s ``(at_pivot, inserted)`` pairs, by full tables.

    One integer row DP fills every other's table at once: rows advance over
    pivot positions while the others and their positions stay vectorized,
    and the in-row dependency D[i][j] = min(V[j], D[i][j-1] + 1) closes with
    a running minimum over V[j] - j.  Each table is then backtraced from its
    last cell, so a gap's insertions arrive last first.
    """
    ids = {}
    omat = _encode(others, ids)
    j_range = np.arange(omat.shape[1] + 1)
    dist = np.tile(j_range, (len(others), 1))
    tables = [dist]
    for i, tok in enumerate(_encode([pivot], ids)[0], 1):
        work = np.empty_like(dist)
        work[:, 0] = i
        work[:, 1:] = np.minimum(dist[:, 1:] + 1, dist[:, :-1] + (omat != tok))
        dist = np.minimum.accumulate(work - j_range, axis=1) + j_range
        tables.append(dist)
    rows = []
    for other, dist in zip(others, np.stack(tables, axis=1).tolist()):
        at_pivot = [EPS] * len(pivot)
        inserted = [[] for _ in range(len(pivot) + 1)]
        i, j = len(pivot), len(other)
        while i > 0 or j > 0:
            cur = dist[i][j]
            if i > 0 and j > 0 and cur == dist[i - 1][j - 1] + (
                pivot[i - 1] != other[j - 1]
            ):
                at_pivot[i - 1] = other[j - 1]
                i, j = i - 1, j - 1
            elif i > 0 and cur == dist[i - 1][j] + 1:
                i -= 1
            else:
                inserted[i].append(other[j - 1])
                j -= 1
        rows.append((tuple(at_pivot), tuple(tuple(reversed(g)) for g in inserted)))
    return rows


def _chars(label: str):
    """A label as the character sequence its edit distance reads.

    ``<eps>`` is "no symbol": one element that equals no character, so its
    distance is 0 to itself and 1 to anything else once divided by the
    longer length.
    """
    if not label:
        raise ValueError("tokens must be non-empty")
    return (None,) if label == EPS else label


def normalized_char_ed(a: str, b: str) -> float:
    """Character-level edit distance divided by the longer token's length.

    ``<eps>`` is "no symbol": distance 0 to itself and 1 to anything else.
    """
    xa, xb = _chars(a), _chars(b)
    return edit_distance(xa, xb) / max(len(xa), len(xb))


def align_seq_to_lattice(
    seq: SymbolSequence, wg: WordGraph
) -> tuple[SymbolSequence, int]:
    """Complete lattice path with minimum edit distance to ``seq``.

    Dynamic program over (vertex, consumed-prefix) states.  Cost ties are
    broken by the larger path score, then the lexicographically smallest
    vertex-id and label sequence.  Returns the path (with edge scores) and
    its edit distance.

    Each vertex has a row of ``len(seq) + 1`` entries ``(cost, -logscore,
    node)``, or None where no alignment arrives.  A node is ``_k_best``'s
    back-pointer entry ``(-logscore, parent, edge)`` plus ``kids``, which
    interns its extensions by out-edge position, so every alignment of one
    edge sequence holds the same node and the same log-score sum.  A node
    is made only for a move that can win.  A move wins on a smaller
    ``(cost, -logscore)``; on an exact tie the same node keeps the entry,
    two distinct nodes are ranked by ``_tie_key``, and the first arrival
    keeps a full tie.
    """
    order = topological_order(wg)
    adj = wg.out_edges()
    toks = _label_tuple(seq)
    n = len(toks)

    def before(a, b):
        """Path node a ranks before b in the tie order: ``_tie_key``."""
        return a is not b and _tie_key(_prefix_edges(a)) < _tie_key(_prefix_edges(b))

    def child(kids, k, nl, node, e):
        kids[k] = kid = (nl, node, e, [None] * len(adj[e.dst]))
        return kid

    rows = [None] * wg.num_vertices
    root = (0.0, None, None, [None] * len(adj[wg.initial]))
    rows[wg.initial] = [(0, 0.0, root)] + [None] * n
    for v in order:
        row = rows[v]
        if row is None:
            continue
        moves = []
        for k, e in enumerate(adj[v]):
            if rows[e.dst] is None:
                rows[e.dst] = [None] * (n + 1)
            moves.append((k, e, rows[e.dst], math.log(e.score)))
        for j, tok in enumerate(toks + (None,)):
            st = row[j]
            if st is None:
                continue
            cost, neglog, node = st
            c = cost + 1
            kids = node[3]
            if j < n:
                # consume toks[j] against no edge
                cur = row[j + 1]
                if cur is None or c < cur[0] or c == cur[0] and (
                        neglog < cur[1]
                        or neglog == cur[1] and before(node, cur[2])):
                    row[j + 1] = (c, neglog, node)
            for k, e, drow, log_score in moves:
                # The edge moves to (dst, j + 1), matching or substituting
                # toks[j], and to (dst, j), inserting its label.  Both reach
                # one child node, made only for a move that can win.
                nl = neglog - log_score
                if j < n:
                    cm = cost if e.label == tok else c
                    cur = drow[j + 1]
                    if cur is None or cm < cur[0] or (
                            cm == cur[0] and nl <= cur[1]):
                        kid = kids[k] or child(kids, k, nl, node, e)
                        if cur is None or cm < cur[0] or nl < cur[1] or (
                                before(kid, cur[2])):
                            drow[j + 1] = (cm, nl, kid)
                cur = drow[j]
                if cur is None or c < cur[0] or c == cur[0] and nl <= cur[1]:
                    kid = kids[k] or child(kids, k, nl, node, e)
                    if cur is None or c < cur[0] or nl < cur[1] or (
                            before(kid, cur[2])):
                        drow[j] = (c, nl, kid)
        if v not in wg.finals:  # nothing reads v's row or its nodes' kids again
            rows[v] = None
            for st in filter(None, row):
                st[2][3].clear()

    # a valid graph reaches a final, and every reached final consumes all of seq
    best = None
    for f in wg.finals:
        st = rows[f] and rows[f][n]
        if st and (best is None or st[:2] < best[:2]
                   or st[:2] == best[:2] and before(st[2], best[2])):
            best = st
    return _path_sequence(best[2]), best[0]


def subnetwork_distance(sub_a: dict, sub_b: dict) -> float:
    """Expected normalized character edit distance between two subnetworks.

    Posterior-weighted mean over label pairs; equals 1 exactly when every
    cross pair of labels is completely different.
    """
    return _subnetwork_distances([sub_a], [sub_b])[0][0][0]


def completely_different(sub_a: dict, sub_b: dict) -> bool:
    """True iff every label pair across the two subnetworks has distance 1.

    ``global`` fusion reads the same test from its DTW label table
    (``_subnetwork_distances``); this is the rule written out pair by pair.
    """
    return all(
        normalized_char_ed(la, lb) == 1.0 for la in sub_a for lb in sub_b
    )


def _subnetwork_distances(subs_a, subs_b) -> tuple:
    """``subnetwork_distance`` of every subnetwork pair, rows by ``subs_a``,
    and whether the pair is ``completely_different``.

    A pair's distance is the sum of ``sa * sb * d`` over its label pairs,
    with ``d = normalized_char_ed(la, lb)``, added one at a time to 0.0 in
    nested dict order, ``sub_a`` outer, skipping ``d == 0``.  Every distinct
    label pair's ``d`` comes from one ``edit_distance_matrix`` call over the
    labels as ``_chars`` sequences, divided by the longer length.  The sums
    then advance one label-slot pair at a time, in that nested order, over
    all subnetwork pairs at once; ``_encode`` numbers the labels, and a
    subnetwork with fewer labels pads its slots with label index -1, whose
    distance row and column are 0, so it adds 0.0 there.  A sum that starts
    at 0.0 never reads -0.0, so adding 0.0 leaves it as it is, and every
    float is the one the loop gives, nan and inf included.  The same loop
    counts each pair's label pairs at ``d == 1.0``; a pair is completely
    different when that count is all of its label pairs.  Memory grows with
    the number of subnetwork pairs and of distinct label pairs, not with the
    labels per subnetwork.
    """
    ids_a, ids_b = {}, {}
    ia, ib = _encode(subs_a, ids_a), _encode(subs_b, ids_b)
    sa, sb = np.zeros(ia.shape), np.zeros(ib.shape)
    sa[ia >= 0] = [s for sub in subs_a for s in sub.values()]
    sb[ib >= 0] = [s for sub in subs_b for s in sub.values()]
    chars_a, chars_b = list(map(_chars, ids_a)), list(map(_chars, ids_b))
    dist = np.zeros((len(ids_a) + 1, len(ids_b) + 1))
    dist[:-1, :-1] = edit_distance_matrix(chars_a, chars_b) / np.maximum.outer(
        list(map(len, chars_a)), list(map(len, chars_b)))
    total = np.zeros((len(subs_a), len(subs_b)))
    far = np.zeros(total.shape, dtype=np.int64)  # label pairs at d == 1.0
    with np.errstate(all="ignore"):  # as float arithmetic, which never warns
        for ja, wa in zip(ia.T, sa.T):
            for jb, wb in zip(ib.T, sb.T):
                d = dist[ja[:, None], jb]
                total += np.where(d != 0.0, wa[:, None] * wb * d, 0.0)
                far += d == 1.0
    apart = far == np.outer(list(map(len, subs_a)), list(map(len, subs_b)))
    return total.tolist(), apart.tolist()


def dtw_align(cn_a, cn_b, *, apart=None):
    """DTW warping path over two confusion networks' subnetwork indices.

    The local cost is ``subnetwork_distance``.  Steps are (1,1), (1,0),
    (0,1) with both endpoints matched; ties during backtrace prefer (1,1),
    then (1,0).  Returns (path, total_cost) where path is the list of
    matched index pairs from (0,0) to (|a|-1, |b|-1); a confusion network
    has at least one subnetwork, so the path does too.  A list passed as
    ``apart`` receives one row per subnetwork of ``cn_a``: whether each pair
    is ``completely_different``, read off the same label table, for
    ``global`` fusion to split matched pairs by.

    The accumulated table has an ``inf`` border and 0.0 before (0, 0), so
    one recurrence, ``c + min(diag, up, left)``, fills every cell, and one
    rule walks back from the last cell to the one before (0, 0).  Every
    local cost of a valid network is finite, so the border is never taken
    elsewhere.  The n·m lists of local costs and of ``acc``, which the
    backtrace reads, are the inherent quadratic part: about 64 bytes a cell
    as Python floats.
    """
    n, m = len(cn_a), len(cn_b)
    local, far = _subnetwork_distances(cn_a.subnetworks, cn_b.subnetworks)
    if apart is not None:
        apart.extend(far)
    acc = [[0.0] + [math.inf] * m]
    for costs in local:
        row = [math.inf]
        for c, diag, up in zip(costs, acc[-1], acc[-1][1:]):
            row.append(c + min(diag, up, row[-1]))
        acc.append(row)
    path = []
    i, j = n, m
    while i:
        path.append((i - 1, j - 1))
        diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
        best = min(diag, up, left)
        if diag == best:
            i, j = i - 1, j - 1
        elif up == best:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path, acc[n][m]


@dataclass(frozen=True)
class SWParams:
    """Smith-Waterman scoring: positive match, non-positive penalties, all
    finite."""

    match_score: float = 2.0
    mismatch_penalty: float = -1.0
    gap_penalty: float = -2.0

    def __post_init__(self):
        for name in ("match_score", "mismatch_penalty", "gap_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    over shorter gapless prefixes of the same score.  The backtrace collects
    one ``(index into a, index into b)`` pair per column, ``None`` on the
    gapped side, preferring diagonal, then the gap in ``b``; the aligned
    labels are the inputs read at those indices.  No positive cell gives no
    pairs: the empty alignment, score 0.
    """
    xa, xb = _label_tuple(a), _label_tuple(b)
    match, mismatch = params.match_score, params.mismatch_penalty
    gap = params.gap_penalty
    h = [[0.0] * (len(xb) + 1) for _ in range(len(xa) + 1)]
    best, bi, bj = 0.0, 0, 0
    for i in range(1, len(xa) + 1):
        for j in range(1, len(xb) + 1):
            step = match if xa[i - 1] == xb[j - 1] else mismatch
            v = max(0.0, h[i - 1][j - 1] + step, h[i - 1][j] + gap, h[i][j - 1] + gap)
            h[i][j] = v
            if v >= best and v > 0.0:
                best, bi, bj = v, i, j
    pairs = []  # (index into a | None, index into b | None), last column first
    i, j = bi, bj
    while i > 0 and j > 0 and h[i][j] > 0.0:
        step = match if xa[i - 1] == xb[j - 1] else mismatch
        if h[i][j] == h[i - 1][j - 1] + step:
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif h[i][j] == h[i - 1][j] + gap:
            i -= 1
            pairs.append((i, None))
        else:
            j -= 1
            pairs.append((None, j))
    a_idx = tuple(k for k, _ in reversed(pairs))
    b_idx = tuple(k for _, k in reversed(pairs))
    aligned_a = tuple(None if k is None else xa[k] for k in a_idx)
    aligned_b = tuple(None if k is None else xb[k] for k in b_idx)
    return AlignmentResult(aligned_a, aligned_b, best, a_idx, b_idx)
