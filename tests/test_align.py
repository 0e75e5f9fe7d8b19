import tracemalloc

import numpy as np
import pytest

from latfuse import (
    EPS,
    AlignmentResult,
    ConfusionNetwork,
    LatticeError,
    SWParams,
    SymbolSequence,
    WordGraph,
    align_seq_to_lattice,
    best_path,
    dtw_align,
    edit_distance,
    normalized_char_ed,
    smith_waterman,
    subnetwork_distance,
)
from latfuse import align as align_module
from latfuse import simulate
from latfuse.align import (
    _align_to_pivot, _encode, _pack, _pair_masks, _paired_distances,
    completely_different, edit_distance_matrix,
)
from latgen import random_cn, random_sw_case, random_wg
from oracles import (
    dfs_paths, dtw_min_cost, pivot_rows, seq_to_lattice_by_tuples, simple_ed,
    subnetwork_distance_by_loop, sw_alignment_by_lists, sw_best_score,
)

RNG_TOKENS = ("a", "b", "c", "d")


def rand_seq(rng, max_len=8):
    return tuple(rng.choice(RNG_TOKENS, size=rng.integers(0, max_len + 1)))


def traced_peak(fn, *args):
    """The ``tracemalloc`` peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEditDistance:
    @pytest.mark.parametrize(
        "a, b, want",
        [
            (("a", "b", "c"), ("a", "b", "c"), 0),
            (("a", "b", "c"), ("a", "x", "c"), 1),
            ((), ("a", "b"), 2),
            (("a", "b"), (), 2),
            ((), (), 0),
        ],
    )
    def test_cases(self, a, b, want):
        assert edit_distance(a, b) == want

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a, b = rand_seq(rng), rand_seq(rng)
            assert edit_distance(a, b) == edit_distance(b, a) == simple_ed(a, b)

    def test_triangle_and_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            a, b, c = rand_seq(rng), rand_seq(rng), rand_seq(rng)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
            assert (edit_distance(a, b) == 0) == (a == b)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            cands = [rand_seq(rng) for _ in range(int(rng.integers(1, 5)))]
            refs = [rand_seq(rng) for _ in range(int(rng.integers(1, 5)))]
            mat = edit_distance_matrix(cands, refs)
            for i, c in enumerate(cands):
                for j, r in enumerate(refs):
                    assert mat[i, j] == edit_distance(c, r)

    def test_many_vector(self):
        refs = [("a",), ("a", "b"), ()]
        got = edit_distance_matrix([("a", "b")], refs)[0]
        assert list(got) == [1, 0, 2]

    def test_empty_batches_and_sequences(self):
        assert edit_distance_matrix([], [("a",)]).shape == (0, 1)
        assert edit_distance_matrix([("a",)], []).shape == (1, 0)
        got = edit_distance_matrix([(), ("a", "b")], [(), ("b",), ("a", "b", "c")])
        assert got.tolist() == [[0, 1, 3], [2, 1, 1]]

    def test_accepts_symbol_sequences(self):
        a = SymbolSequence(("a", "b"))
        assert edit_distance(a, ("a", "c")) == 1


# lengths at and around the 64-bit word boundaries of the batched kernel
BOUNDARY_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129)


class TestEditDistanceWordBoundaries:
    def test_single_pairs_at_boundaries(self):
        rng = np.random.default_rng(51)
        for la in BOUNDARY_LENGTHS:
            for lb in BOUNDARY_LENGTHS:
                alphabet = RNG_TOKENS[: int(rng.integers(1, 4))]
                a = tuple(rng.choice(alphabet, size=la))
                b = tuple(rng.choice(alphabet, size=lb))
                want = simple_ed(a, b)
                assert edit_distance(a, b) == edit_distance(b, a) == want
                assert edit_distance_matrix([a], [b])[0, 0] == want
                assert edit_distance_matrix([b], [a])[0, 0] == want

    def test_mixed_lengths_in_one_batch(self):
        # several words, padding rows and padded candidate steps at once
        rng = np.random.default_rng(52)
        for _ in range(6):
            alphabet = RNG_TOKENS[: int(rng.integers(1, 4))]
            seq = lambda: tuple(
                rng.choice(alphabet, size=rng.choice(BOUNDARY_LENGTHS))
            )
            cands = [seq() for _ in range(int(rng.integers(2, 6)))]
            refs = [seq() for _ in range(int(rng.integers(2, 6)))]
            want = [[simple_ed(c, r) for r in refs] for c in cands]
            assert edit_distance_matrix(cands, refs).tolist() == want

    @pytest.mark.parametrize("long_side", ["cands", "refs"])
    def test_one_side_longer_than_the_other(self, long_side):
        rng = np.random.default_rng(53)
        short = [tuple(rng.choice(RNG_TOKENS[:3], size=n)) for n in (0, 3, 20)]
        long = [tuple(rng.choice(RNG_TOKENS[:3], size=n)) for n in (70, 130)]
        cands, refs = (long, short) if long_side == "cands" else (short, long)
        want = [[simple_ed(c, r) for r in refs] for c in cands]
        assert edit_distance_matrix(cands, refs).tolist() == want

    def test_int_tokens(self):
        rng = np.random.default_rng(54)
        seqs = [
            tuple(rng.integers(0, 3, size=n).tolist())
            for n in (0, 5, 64, 65, 129)
        ]
        got = edit_distance_matrix(seqs, seqs)
        for i, a in enumerate(seqs):
            for j, b in enumerate(seqs):
                assert got[i, j] == edit_distance(a, b) == simple_ed(a, b)


def paired_distances(texts, patterns):
    """``_paired_distances`` of label sequences, text k against pattern k."""
    ids = {}
    pmat, tmat = _encode(patterns, ids), _encode(texts, ids)
    lens = lambda seqs: np.array([len(s) for s in seqs], dtype=np.int64)
    return _paired_distances(_pair_masks(pmat, tmat), lens(texts),
                             lens(patterns)).tolist()


def mutate(rng, seq, alphabet, edits):
    """``seq`` after ``edits`` random substitutions, insertions and
    deletions, so that a pair can be close as well as far apart."""
    out = list(seq)
    for _ in range(edits):
        k = int(rng.integers(0, len(out) + 1))
        op = rng.integers(0, 3)
        if op == 0 and k < len(out):
            out[k] = str(rng.choice(alphabet))
        elif op == 1:
            out.insert(k, str(rng.choice(alphabet)))
        elif out:
            del out[min(k, len(out) - 1)]
    return tuple(out)


class TestPairedDistances:
    # truth (pattern) lengths at the 64-bit word boundaries of the driver
    PATTERN_LENGTHS = (0, 1, 63, 64, 65, 130)

    @pytest.mark.parametrize("length", PATTERN_LENGTHS)
    def test_matches_edit_distance(self, length):
        rng = np.random.default_rng(1900 + length)
        texts, patterns = [], []
        for _ in range(60):
            alphabet = RNG_TOKENS[: int(rng.integers(1, 4))]
            pattern = tuple(rng.choice(alphabet, size=length))
            if rng.random() < 0.5:
                text = mutate(rng, pattern, alphabet, int(rng.integers(0, 12)))
            else:
                text = tuple(rng.choice(alphabet, size=rng.integers(0, 141)))
            texts.append(text)
            patterns.append(pattern)
        want = [edit_distance(t, p) for t, p in zip(texts, patterns)]
        assert paired_distances(texts, patterns) == want

    def test_mixed_lengths_in_one_batch(self):
        # columns of 1-3 words side by side, ending at different steps
        rng = np.random.default_rng(1907)
        for _ in range(10):
            texts, patterns = [], []
            for _ in range(int(rng.integers(1, 40))):
                alphabet = RNG_TOKENS[: int(rng.integers(1, 5))]
                pattern = tuple(rng.choice(
                    alphabet, size=rng.choice(self.PATTERN_LENGTHS)))
                texts.append(mutate(rng, pattern, alphabet,
                                    int(rng.integers(0, 30))))
                patterns.append(pattern)
            assert paired_distances(texts, patterns) == [
                edit_distance(t, p) for t, p in zip(texts, patterns)]

    def test_empty_batch(self):
        assert paired_distances([], []) == []

    def test_masks_in_trailing_shape(self):
        # a text laid out as (n, L, 2) slots packs as its flat row would
        patterns = np.array([[0, 1, 2, -1], [2, 2, -1, -1]])
        slots = np.array([[[2, 0], [1, 5]], [[2, 3], [0, 2]]])
        eq = _pair_masks(patterns, slots)
        assert eq.shape == (1, 2, 2, 2)
        assert eq[0].tolist() == [[[4, 1], [2, 0]], [[3, 0], [0, 3]]]


def prefix_family(rng, count, alphabet=RNG_TOKENS[:3], max_len=40):
    """Candidates that share prefixes, as the paths of an n-best do.

    Each one cuts an earlier candidate (the first is empty) and grows a
    random tail; then some are repeated and some cut short again, so the
    batch holds duplicates, the empty sequence and candidates that are
    prefixes of others.
    """
    cands = [()]
    while len(cands) < count:
        base = cands[int(rng.integers(0, len(cands)))]
        cut = int(rng.integers(0, len(base) + 1))
        tail = rng.choice(alphabet, size=int(rng.integers(0, max_len - cut + 1)))
        cands.append(base[:cut] + tuple(tail))
    for _ in range(count // 4):
        cands.append(cands[int(rng.integers(0, len(cands)))])
        base = cands[int(rng.integers(0, len(cands)))]
        cands.append(base[: int(rng.integers(0, len(base) + 1))])
    return cands


class TestPrefixSharedKernel:
    # the candidate side of edit_distance_matrix advances each distinct
    # prefix once, so batches of shared prefixes in any order are its cases

    def test_hand_made_family(self):
        cands = [("a", "b", "c"), ("a", "b"), (), ("a", "b", "c"),
                 ("a", "b", "d"), ("b",), ("a",), ("a", "b", "c", "a")]
        refs = [(), ("a", "b", "c"), ("b", "a"), ("c", "c", "a", "b")]
        for batch in (cands, cands[::-1], sorted(cands)):
            want = [[simple_ed(c, r) for r in refs] for c in batch]
            assert edit_distance_matrix(batch, refs).tolist() == want

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_shared_prefixes_against_long_refs(self, seed):
        # refs of 63-129 tokens span two or three 64-bit words
        rng = np.random.default_rng(seed)
        cands = prefix_family(rng, 12)
        assert () in cands and len(set(cands)) < len(cands)
        assert any(a != b and b[: len(a)] == a for a in cands for b in cands)
        refs = [tuple(rng.choice(RNG_TOKENS[:3], size=n))
                for n in (63, 64, 65, 100, 128, 129)]
        refs.append(cands[-1])
        order = rng.permutation(len(cands))
        for batch in ([cands[k] for k in order], cands[::-1]):
            want = [[simple_ed(c, r) for r in refs] for c in batch]
            assert edit_distance_matrix(batch, refs).tolist() == want

    def test_permuting_candidates_permutes_rows(self):
        rng = np.random.default_rng(64)
        cands = prefix_family(rng, 40, max_len=30)
        refs = [tuple(rng.choice(RNG_TOKENS, size=n)) for n in (0, 5, 30, 70)]
        base = edit_distance_matrix(cands, refs)
        for perm in (rng.permutation(len(cands)), np.arange(len(cands))[::-1],
                     np.array(sorted(range(len(cands)), key=cands.__getitem__))):
            got = edit_distance_matrix([cands[k] for k in perm], refs)
            assert (got == base[perm]).all()
        for c, row in zip(cands, base.tolist()):
            assert row == [edit_distance(c, r) for r in refs]


def near_cands(rng, refs, alphabet, count):
    """Candidates a few edits from the refs, or of any length up to 70, so
    that a batch holds close pairs as well as far ones."""
    out = []
    for _ in range(count):
        if refs and rng.random() < 0.6:
            ref = refs[int(rng.integers(0, len(refs)))]
            out.append(mutate(rng, ref, alphabet, int(rng.integers(0, 6))))
        else:
            out.append(tuple(rng.choice(alphabet, size=rng.integers(0, 71))))
    return out


class TestPackedRefs:
    # edit_distance_matrix packs each ref of at most 63 tokens into the open
    # 64-bit word as its tokens' bits plus a guard bit above them, next-fit
    # in input order; a longer ref takes a column of words to itself

    def check(self, cands, refs):
        want = [[simple_ed(c, r) for r in refs] for c in cands]
        assert edit_distance_matrix(cands, refs).tolist() == want

    def test_layout(self):
        col, start = _pack([31, 31, 0, 63, 64, 5, 0, 2, 130, 1])
        assert col.tolist() == [0, 0, 1, 2, 3, 4, 4, 4, 5, 6]
        assert start.tolist() == [0, 32, 0, 0, 0, 0, 6, 7, 0, 0]

    @pytest.mark.parametrize("lens", [(31, 31), (63,), (10, 20, 31), (62, 0)])
    def test_guard_at_bit_63(self, lens):
        # each of these fills one word exactly: its last guard is bit 63
        rng = np.random.default_rng(sum(lens))
        col, start = _pack(lens)
        assert set(col.tolist()) == {0} and start[-1] + lens[-1] == 63
        for alphabet in (RNG_TOKENS[:1], RNG_TOKENS[:2], RNG_TOKENS):
            refs = [tuple(rng.choice(alphabet, size=n)) for n in lens]
            self.check(near_cands(rng, refs, alphabet, 12), refs)

    def test_64_token_ref_next_to_short_refs(self):
        rng = np.random.default_rng(71)
        for alphabet in (RNG_TOKENS[:2], RNG_TOKENS):
            refs = [tuple(rng.choice(alphabet, size=n))
                    for n in (5, 30, 64, 12, 0, 64, 63)]
            self.check(near_cands(rng, refs, alphabet, 12), refs)

    def test_empty_refs_between_non_empty(self):
        rng = np.random.default_rng(72)
        refs = [(), tuple("abc"), (), (), tuple("cab" * 10), (), tuple("b")]
        self.check(near_cands(rng, refs, RNG_TOKENS[:3], 10) + [()], refs)

    def test_duplicate_refs_and_refs_not_among_cands(self):
        rng = np.random.default_rng(73)
        cands = near_cands(rng, [], RNG_TOKENS, 8)
        refs = [cands[0], cands[0], ("x", "y"), cands[3], ("x", "y"),
                tuple(rng.choice(RNG_TOKENS, size=40)), cands[3]]
        self.check(cands, refs)

    def test_short_and_multi_word_refs_in_one_batch(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            alphabet = RNG_TOKENS[: int(rng.integers(1, 5))]
            refs = [tuple(rng.choice(alphabet, size=rng.choice(
                (0, 1, 7, 31, 32, 62, 63, 64, 65, 127, 128, 129))))
                for _ in range(int(rng.integers(1, 12)))]
            self.check(near_cands(rng, refs, alphabet, 8), refs)


class TestPivotAlignment:
    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(600):
            # two or three letters, so equal-cost backtraces are common
            alphabet = RNG_TOKENS[: int(rng.integers(2, 4))]
            seq = lambda: tuple(rng.choice(alphabet, size=rng.integers(0, 8)))
            pivot = seq()
            others = [seq() for _ in range(int(rng.integers(0, 6)))]
            got = _align_to_pivot(pivot, others)
            assert got == [pivot_rows(pivot, o) for o in others]

    def test_ops_rebuild_other_at_edit_cost(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            seq = lambda: tuple(rng.choice(("a", "b"), size=rng.integers(0, 9)))
            pivot, others = seq(), [seq() for _ in range(4)]
            for other, (at_pivot, inserted) in zip(
                others, _align_to_pivot(pivot, others)
            ):
                assert len(at_pivot) == len(pivot)
                assert len(inserted) == len(pivot) + 1
                # gap g's insertions come before pivot position g
                rebuilt = list(inserted[0])
                for lab, ins in zip(at_pivot, inserted[1:]):
                    rebuilt += [lab] if lab != EPS else []
                    rebuilt += ins
                assert tuple(rebuilt) == other
                gaps = at_pivot.count(EPS)
                subs = sum(lab not in (EPS, p) for lab, p in zip(at_pivot, pivot))
                cost = gaps + sum(map(len, inserted)) + subs
                assert cost == simple_ed(pivot, other)

    # ops: the (at_pivot, inserted) row of other against "abab"
    @pytest.mark.parametrize("other, ops", [
        # edit distance 2, Hamming 4: the row DP
        ("baba", (("a", "b", "a", EPS), (("b",), (), (), (), ()))),
        # Hamming 3, edit distance 2: the row DP
        ("aaba", (("a", "b", "a", EPS), (("a",), (), (), (), ()))),
        # Hamming 2 with an equal-cost alignment off the diagonal (drop the
        # second "a", append one): the backtrace still keeps the diagonal
        ("abba", (("a", "b", "b", "a"), ((),) * 5)),
        # Hamming 3 = edit distance: certified by edit_distance
        ("bbba", (("b", "b", "b", "a"), ((),) * 5)),
    ])
    def test_hand_cases(self, other, ops):
        assert _align_to_pivot(tuple("abab"), [tuple(other)]) == [ops]
        assert pivot_rows(tuple("abab"), tuple(other)) == ops

    def test_only_uncertified_rows_reach_the_row_dp(self, monkeypatch):
        seen = []
        row_dp = align_module._row_dp_alignments

        def spy(pivot, others):
            seen.append(list(others))
            return row_dp(pivot, others)

        monkeypatch.setattr(align_module, "_row_dp_alignments", spy)
        others = [tuple(w) for w in ("abab", "baba", "abba", "bbba", "aaba",
                                     "aba")]
        got = _align_to_pivot(tuple("abab"), others)
        assert seen == [[tuple("baba"), tuple("aaba"), tuple("aba")]]
        assert got == [pivot_rows(tuple("abab"), o) for o in others]
        # certified rows are the other itself and one shared empty insertions
        assert got[0][0] is others[0]
        assert got[0][1] is got[2][1] is got[3][1]
        # no DP at all when every row is certified
        seen.clear()
        _align_to_pivot(tuple("abab"), others[:1] + others[2:4])
        assert seen == []

    def test_pivot_against_itself_is_all_matches(self):
        # cn_from_wg aligns the pivot path along with the others
        pivot = ("a", "b", "a")
        assert _align_to_pivot(pivot, [pivot]) == [(pivot, ((),) * 4)]


class TestNormalizedCharEd:
    def test_identical(self):
        assert normalized_char_ed("note-B4_eighth", "note-B4_eighth") == 0.0

    def test_eps_rules(self):
        assert normalized_char_ed(EPS, EPS) == 0.0
        assert normalized_char_ed(EPS, "clef-G2") == 1.0
        assert normalized_char_ed("clef-G2", EPS) == 1.0

    def test_duration_change(self):
        # suffixes differ by ED("quarter", "half") over the longer length 15
        a, b = "note-C4_quarter", "note-C4_half"
        char_oracle = simple_ed(a, b)
        assert char_oracle == 6
        assert normalized_char_ed(a, b) == char_oracle / 15
        assert max(len(a), len(b)) == 15

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(34)
        toks = ["abc", "abd", "xyz", "a", "zzzz", "ab"]
        for _ in range(50):
            a, b = rng.choice(toks), rng.choice(toks)
            d = normalized_char_ed(a, b)
            assert 0.0 <= d <= 1.0
            assert d == normalized_char_ed(b, a)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalized_char_ed("", "a")

    def test_keeps_nothing_between_calls(self):
        # no memo: fresh label pairs leave traced memory where it was
        pairs = [(f"note-{k}", f"rest-{k}_x") for k in range(2000)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for a, b in pairs:
                normalized_char_ed(a, b)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 64 * 2**10


class TestSeqToLattice:
    def test_exact_path_costs_zero(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            wg = random_wg(rng)
            _, labels, _ = dfs_paths(wg)[0]
            path, cost = align_seq_to_lattice(SymbolSequence(labels), wg)
            assert cost == 0
            assert path.labels == labels

    def test_single_path_lattice(self):
        wg = WordGraph(
            4, 0, {3}, [(0, 1, "a", 0.9), (1, 2, "b", 0.8), (2, 3, "c", 0.7)]
        )
        seq = SymbolSequence(("a", "x", "c"))
        path, cost = align_seq_to_lattice(seq, wg)
        assert path.labels == ("a", "b", "c")
        assert path.scores == (0.9, 0.8, 0.7)
        assert cost == edit_distance(path, seq) == 1

    def test_matches_exhaustive_oracle(self):
        from oracles import nearest_path_by_enumeration

        rng = np.random.default_rng(36)
        for _ in range(50):
            wg = random_wg(rng)
            seq = rand_seq(rng, max_len=6)
            path, cost = align_seq_to_lattice(SymbolSequence(seq), wg)
            _, labels, _ = nearest_path_by_enumeration(wg, seq)
            assert path.labels == labels
            assert cost == simple_ed(labels, seq)

    def test_ties_match_exhaustive_oracle(self):
        # every score 0.5: paths of one length tie exactly on (cost, score),
        # so the vertex-id and label order decides
        from oracles import nearest_path_by_enumeration

        rng = np.random.default_rng(39)
        for _ in range(100):
            wg = random_wg(rng, vocab=RNG_TOKENS[:2])
            wg = WordGraph(wg.num_vertices, wg.initial, wg.finals,
                           [e._replace(score=0.5) for e in wg.edges])
            seq = rand_seq(rng, max_len=6)
            path, cost = align_seq_to_lattice(SymbolSequence(seq), wg)
            _, labels, _ = nearest_path_by_enumeration(wg, seq)
            assert path.labels == labels
            assert cost == simple_ed(labels, seq)

    def test_cost_bounded_by_best_path(self):
        from latfuse import best_path

        rng = np.random.default_rng(37)
        for _ in range(30):
            wg = random_wg(rng)
            seq = rand_seq(rng)
            _, cost = align_seq_to_lattice(SymbolSequence(seq), wg)
            bp, _ = best_path(wg)
            assert cost <= edit_distance(bp, seq)

    def test_peak_grows_with_the_frontier(self):
        # The sequence is the best path of a 3-wide sausage, so every state
        # keeps one chain of nodes.  With each expanded vertex's row and its
        # nodes' extensions released, the peak then grows with n; keeping
        # every row grows it with n * n.
        def case(n):
            edges = [(k, k + 1, f"{lab}{k % 5}", s) for k in range(n)
                     for lab, s in (("a", 0.5), ("b", 0.3), ("c", 0.2))]
            seq = SymbolSequence(tuple(f"a{k % 5}" for k in range(n)))
            return seq, WordGraph(n + 1, 0, {n}, edges)

        traced_peak(align_seq_to_lattice, *case(20))  # one-time allocations
        small, large = (traced_peak(align_seq_to_lattice, *case(n))
                        for n in (150, 300))
        assert large <= 3 * small

    def test_no_path(self):
        # a graph without a complete path never reaches align_seq_to_lattice
        with pytest.raises(LatticeError,
                           match="^invalid word graph: no complete path$"):
            WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])


class TestSeqToLatticeExact:
    """``align_seq_to_lattice`` against ``oracles.seq_to_lattice_by_tuples``:
    labels, scores and cost, exactly.  The enumeration tests above check
    labels only; these also pin which scores come back when distinct paths
    tie on cost, score, vertex ids and labels."""

    @staticmethod
    def result(seq, wg):
        path, cost = align_seq_to_lattice(SymbolSequence(seq), wg)
        return path.labels, path.scores, cost

    def test_random_graphs(self):
        rng = np.random.default_rng(41)
        for k in range(1500):
            wg = random_wg(rng, vocab=RNG_TOKENS[: int(rng.integers(2, 5))])
            edges = list(wg.edges)
            if k % 3 == 0:
                # equal-cost paths of one length tie exactly on their score
                edges = [e._replace(score=0.5) for e in edges]
            elif k % 3 == 1:
                # same-label parallel copies one ulp below the original: once
                # the log sum is large enough to absorb the difference, two
                # paths tie on everything but their scores, and the first
                # arrival, in out_edges() order, decides which come back
                edges += [e._replace(score=float(np.nextafter(e.score, 0)))
                          for e in edges if rng.random() < 0.5]
            wg = WordGraph(wg.num_vertices, wg.initial, wg.finals, edges)
            seq = rand_seq(rng)
            assert self.result(seq, wg) == seq_to_lattice_by_tuples(wg, seq)

    def test_grid_sausages(self):
        # about the calibrated rates at seed 7
        rates = {"High": 0.282, "Medium": 0.178, "Low": 0.074}
        for sid, spec in enumerate(simulate.grid_specs(trials=2, seed=7), 1):
            for t in range(spec.trials):
                _, wg_i, wg_a = simulate._trial_sample(
                    spec, sid, t, rates[spec.image_level],
                    rates[spec.audio_level])
                for src, corr in ((wg_i, wg_a), (wg_a, wg_i)):
                    seq = best_path(src)[0].labels
                    assert (self.result(seq, corr)
                            == seq_to_lattice_by_tuples(corr, seq))


class TestDtw:
    def test_identical_cns_diagonal(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            cn = random_cn(rng, max_len=6)
            path, _cost = dtw_align(cn, cn)
            assert path == [(i, i) for i in range(len(cn))]

    def test_label_identical_single_label_cost_zero(self):
        from latfuse import ConfusionNetwork

        a = ConfusionNetwork([{"x": 1.0}, {"y": 1.0}])
        b = ConfusionNetwork([{"x": 1.0}, {"y": 1.0}])
        _, cost = dtw_align(a, b)
        assert cost == 0.0

    def test_length_one_vs_three(self):
        from latfuse import ConfusionNetwork

        a = ConfusionNetwork([{"x": 1.0}])
        b = ConfusionNetwork([{"x": 1.0}, {"y": 1.0}, {"z": 1.0}])
        path, _ = dtw_align(a, b)
        diag = sum(
            1
            for (i0, j0), (i1, j1) in zip(path, path[1:])
            if (i1 - i0, j1 - j0) == (1, 1)
        )
        assert len(path) - 1 - diag == 2
        assert path[0] == (0, 0) and path[-1] == (0, 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            a = random_cn(rng, max_len=8)
            b = random_cn(rng, max_len=8)
            local = [
                [subnetwork_distance(sa, sb) for sb in b.subnetworks]
                for sa in a.subnetworks
            ]
            _, cost = dtw_align(a, b)
            assert abs(cost - dtw_min_cost(local)) < 1e-9

    def test_monotone_continuous(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            a, b = random_cn(rng), random_cn(rng)
            path, _ = dtw_align(a, b)
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in ((1, 1), (1, 0), (0, 1))

    def test_empty_cn(self):
        # dtw_align never meets an empty network: none can be built
        from latfuse import ConfusionNetwork, LatticeError

        with pytest.raises(LatticeError, match="^invalid confusion network: "
                           "no subnetworks$"):
            ConfusionNetwork(())

    def test_cost_equals_recursion_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = random_cn(rng, max_len=8)
            b = random_cn(rng, max_len=8)
            local = [
                [subnetwork_distance_by_loop(sa, sb) for sb in b.subnetworks]
                for sa in a.subnetworks
            ]
            _, cost = dtw_align(a, b)
            assert cost.hex() == dtw_min_cost(local).hex()

    def test_apart_rows_are_completely_different(self):
        # labels one or two characters apart, so label pairs fall at
        # distances 0, 1/2 and 1
        rng = np.random.default_rng(43)
        vocab = ["a", "b", "ab", "ba", "bb", "xa", "xb"]
        for _ in range(100):
            a = random_cn(rng, max_len=8, vocab=vocab)
            b = random_cn(rng, max_len=8, vocab=vocab)
            apart = []
            path, cost = dtw_align(a, b, apart=apart)
            assert (path, cost) == dtw_align(a, b)
            assert apart == [[completely_different(sa, sb) for sb in b.subnetworks]
                             for sa in a.subnetworks]

    def test_local_costs_are_the_loop_bit_for_bit(self):
        # raw subnetworks, so scores no valid network holds (nan, inf, -0.0,
        # negative, huge) reach the sum too
        rng = np.random.default_rng(42)
        # a label of more than 63 characters is a multi-word pattern, and
        # "eps" and "<eps>x" are ordinary labels
        labels = ["a", "b", "ab", "ba", "abc", EPS, "ab" * 35, "eps", "<eps>x"]
        odd = [0.0, -0.0, -0.5, float("nan"), float("inf"), -float("inf"),
               1e200, 1e-200]
        for k in range(300):
            def subs():
                out = []
                for _ in range(int(rng.integers(1, 6))):
                    labs = rng.choice(labels, size=int(rng.integers(0, 4)),
                                      replace=False)
                    out.append({str(lab): float(rng.choice(odd)) if k % 3 == 0
                                else float(rng.random()) for lab in labs})
                return out

            subs_a, subs_b = subs(), subs()
            got, apart = align_module._subnetwork_distances(subs_a, subs_b)
            for sa, row, apart_row in zip(subs_a, got, apart):
                for sb, d, far in zip(subs_b, row, apart_row):
                    want = subnetwork_distance_by_loop(sa, sb).hex()
                    assert d.hex() == want
                    assert subnetwork_distance(sa, sb).hex() == want
                    assert far == completely_different(sa, sb)

    def test_peak_does_not_grow_with_column_width(self):
        # the local costs advance one label-slot pair at a time over
        # (n, m) arrays, so a wider column adds no n * m * width temporary
        vocab = [f"note-{p}{o}" for p in "ABCDEFG" for o in "345"]

        def cn(shift, widest):
            cols = [{vocab[(k + shift) % 21]: 0.5,
                     vocab[(k + shift + 1) % 21]: 0.5} for k in range(100)]
            cols[50] = {lab: 1 / widest for lab in vocab[:widest]}
            return ConfusionNetwork(cols)

        narrow, wide = (traced_peak(dtw_align, cn(0, w), cn(3, w))
                        for w in (2, 8))
        assert wide < 2 * narrow


class TestSmithWaterman:
    def test_identical_full_alignment(self):
        seq = ("a", "b", "c", "d")
        res = smith_waterman(seq, seq)
        assert res.score == len(seq) * 2.0
        assert res.aligned_a == seq
        assert res.aligned_b == seq
        assert res.a_indices == (0, 1, 2, 3)

    def test_disjoint_vocabularies_empty(self):
        res = smith_waterman(("a", "b"), ("x", "y"))
        assert res.score == 0.0
        assert res.aligned_a == () and res.aligned_b == ()

    def test_hand_filled_matrix(self):
        # match 2 / mismatch -1 / gap -2: the shared "b c d" block scores 6
        res = smith_waterman(
            ("a", "b", "c", "d", "e"),
            ("x", "b", "c", "d", "y"),
            SWParams(2.0, -1.0, -2.0),
        )
        assert res.score == 6.0
        assert res.aligned_a == ("b", "c", "d")
        assert res.aligned_b == ("b", "c", "d")

    def test_score_matches_substring_oracle(self):
        rng = np.random.default_rng(41)
        params = SWParams(2.0, -1.0, -2.0)
        for _ in range(50):
            a = rand_seq(rng, max_len=7)
            b = rand_seq(rng, max_len=7)
            res = smith_waterman(a, b, params)
            want = sw_best_score(a, b, 2.0, -1.0, -2.0)
            assert abs(res.score - want) < 1e-9

    def test_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = rand_seq(rng), rand_seq(rng)
            res = smith_waterman(a, b)
            assert res.score >= 0.0
            assert len(res.aligned_a) == len(res.aligned_b)
            kept_a = [x for x in res.aligned_a if x is not None]
            kept_b = [x for x in res.aligned_b if x is not None]
            idx_a = [i for i in res.a_indices if i is not None]
            idx_b = [j for j in res.b_indices if j is not None]
            if idx_a:
                lo, hi = idx_a[0], idx_a[-1]
                assert tuple(kept_a) == tuple(a[lo:hi + 1])
                assert idx_a == list(range(lo, hi + 1))
            if idx_b:
                lo, hi = idx_b[0], idx_b[-1]
                assert tuple(kept_b) == tuple(b[lo:hi + 1])

    def test_matches_list_backtrace_oracle(self):
        # the pair-list backtrace equals the four-list one field for field,
        # zero penalties and long tie runs included
        rng = np.random.default_rng(2024)
        for _ in range(5000):
            seq_a, seq_b, params = random_sw_case(rng)
            got = smith_waterman(seq_a, seq_b, params)
            want = sw_alignment_by_lists(seq_a, seq_b, params)
            assert got == want
            assert got.score.hex() == want.score.hex()

    def test_gap_spanning_alignment_preferred_on_ties(self):
        # "a b" scores 4 and so does "a b - d" / "a b c d"; the later cell
        # wins, so the gap is part of the alignment
        res = smith_waterman(("a", "b", "d"), ("a", "b", "c", "d"))
        assert res.aligned_a == ("a", "b", None, "d")
        assert res.aligned_b == ("a", "b", "c", "d")

    @pytest.mark.parametrize("field", ["match_score", "mismatch_penalty",
                                       "gap_penalty"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_params_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            SWParams(**{field: value})

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SWParams(match_score=0.0)
        with pytest.raises(ValueError):
            SWParams(mismatch_penalty=0.5)
        with pytest.raises(ValueError):
            SWParams(gap_penalty=1.0)

    def test_alignment_result_validation(self):
        with pytest.raises(ValueError):
            AlignmentResult(("a",), (), 1.0, (0,), ())
