import math
import pickle

import numpy as np
import pytest

from latfuse import (
    EPS,
    ConfusionNetwork,
    NoCompletePathError,
    PathCountExceededError,
    SymbolSequence,
    Vocabulary,
    WordGraph,
    best_path,
    cn_best_path,
    cn_from_wg,
    count_paths,
    enumerate_paths,
    n_best_paths,
    path_posteriors,
    strip_eps,
    validate_cn,
    validate_wg,
)
from latfuse import lattice
from latgen import random_wg
from oracles import best_path_by_enumeration, dfs_paths, n_best_by_enumeration


def minimal_wg():
    return WordGraph(2, 0, {1}, [(0, 1, "a", 0.5)])


def diamond_wg():
    # parallel branches a/b, shared tail c
    return WordGraph(
        4, 0, {3}, [(0, 1, "a", 0.6), (0, 1, "b", 0.4), (1, 3, "c", 0.9)]
    )


def tie_wg():
    # not a sausage; f f a f and d e a f tie at 1/32, and f f a f has the
    # smaller vertex ids (0 1 2 6 7 against 0 3 4 6 7), so it heads the ranking
    return WordGraph(
        8, 0, {7},
        [(0, 1, "f", 0.5), (1, 2, "f", 1.0), (2, 3, "a", 0.25),
         (3, 4, "e", 0.5), (4, 5, "a", 1.0), (5, 6, "d", 0.5),
         (6, 7, "f", 0.25), (4, 6, "a", 1.0), (3, 6, "e", 0.5),
         (2, 6, "a", 0.25), (0, 3, "d", 0.25), (1, 3, "f", 0.25)],
    )


def dyadic_wg(rng):
    """random_wg with scores drawn from {0.25, 0.5, 1.0}: exact ties abound."""
    wg = random_wg(rng)
    return WordGraph(
        wg.num_vertices, wg.initial, wg.finals,
        [e._replace(score=float(rng.choice((0.25, 0.5, 1.0))))
         for e in wg.edges],
    )


class TestValidation:
    def test_minimal_legal(self):
        assert validate_wg(minimal_wg()).ok

    def test_cycle(self):
        # the reverse edge added to the minimal legal graph forms a cycle
        wg = WordGraph(2, 0, {1}, [(0, 1, "a", 0.5), (1, 0, "b", 0.5)])
        assert validate_wg(wg).violation == "acyclic"

    def test_empty_finals(self):
        wg = WordGraph(2, 0, set(), [(0, 1, "a", 0.5)])
        assert validate_wg(wg).violation == "finals non-empty"

    def test_initial_in_finals(self):
        wg = WordGraph(2, 0, {0, 1}, [(0, 1, "a", 0.5)])
        assert not validate_wg(wg).ok

    def test_edge_leaves_final(self):
        wg = WordGraph(3, 0, {1}, [(0, 1, "a", 0.5), (1, 2, "b", 0.5)])
        v = validate_wg(wg)
        assert v.violation == "edge leaves final vertex"
        assert v.offender == (1, 2, "b", 0.5)

    def test_edge_enters_initial(self):
        wg = WordGraph(3, 0, {2}, [(0, 2, "a", 0.5), (1, 0, "b", 0.5)])
        assert validate_wg(wg).violation == "edge enters initial vertex"

    def test_zero_score_rejected(self):
        wg = WordGraph(2, 0, {1}, [(0, 1, "a", 0.0)])
        assert validate_wg(wg).violation == "edge score outside (0, 1]"

    def test_no_complete_path(self):
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])
        assert validate_wg(wg).violation == "no complete path"

    def test_random_generator_only_emits_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert validate_wg(random_wg(rng)).ok


class TestVocabulary:
    def test_reserved_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", EPS))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "a"))

    def test_whitespace_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("a b",))


class TestEnumerate:
    def test_linear(self):
        wg = WordGraph(
            4, 0, {3},
            [(0, 1, "a", 0.5), (1, 2, "b", 0.25), (2, 3, "c", 0.125)],
        )
        paths = enumerate_paths(wg, 10)
        assert len(paths) == 1
        seq, score = paths[0]
        assert seq.labels == ("a", "b", "c")
        assert score == 0.5 * 0.25 * 0.125

    def test_diamond_count(self):
        assert len(enumerate_paths(diamond_wg(), 10)) == 2

    def test_limit(self):
        with pytest.raises(PathCountExceededError):
            enumerate_paths(diamond_wg(), 1)

    def test_no_path(self):
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])
        with pytest.raises(NoCompletePathError):
            enumerate_paths(wg, 10)

    def test_matches_dfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            wg = random_wg(rng)
            got = enumerate_paths(wg, 200)
            want = sorted(dfs_paths(wg), key=lambda p: (p[0], p[1]))
            assert len(got) == len(want) == count_paths(wg)
            for (seq, score), (_, labels, prod) in zip(got, want):
                assert seq.labels == labels
                assert math.isclose(score, prod, rel_tol=1e-12)

    def test_order_is_lexicographic(self):
        rng = np.random.default_rng(8)
        wg = random_wg(rng)
        got = enumerate_paths(wg, 200)
        keys = [
            (p[0], p[1])
            for p in sorted(dfs_paths(wg), key=lambda p: (p[0], p[1]))
        ]
        assert keys == sorted(keys)


class TestBestPath:
    def test_single_path(self):
        seq, logscore = best_path(minimal_wg())
        assert seq.labels == ("a",)
        assert seq.scores == (0.5,)
        assert math.isclose(math.exp(logscore), 0.5)

    def test_diamond(self):
        seq, logscore = best_path(diamond_wg())
        assert seq.labels == ("a", "c")
        assert math.isclose(math.exp(logscore), 0.54, rel_tol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            wg = random_wg(rng)
            seq, logscore = best_path(wg)
            _, labels, prod = best_path_by_enumeration(wg)
            assert seq.labels == labels
            assert abs(math.exp(logscore) - prod) < 1e-9

    def test_tie_break_lexicographic(self):
        wg = WordGraph(
            4, 0, {3},
            [(0, 2, "b", 0.5), (0, 1, "a", 0.5), (1, 3, "x", 0.4),
             (2, 3, "x", 0.4)],
        )
        seq, _ = best_path(wg)
        # equal scores: vertex path (0,1,3) beats (0,2,3)
        assert seq.labels == ("a", "x")

    def test_no_path(self):
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)])
        with pytest.raises(NoCompletePathError):
            best_path(wg)

    def test_all_one_path_scores_positive_zero(self):
        # the CLI prints LOGSCORE 0 here, never -0
        wg = WordGraph(3, 0, {2}, [(0, 1, "a", 1.0), (1, 2, "b", 1.0)])
        _, logscore = best_path(wg)
        assert logscore == 0.0 and math.copysign(1.0, logscore) == 1.0


class TestNBest:
    def test_matches_sorted_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            wg = random_wg(rng)
            all_paths = sorted(
                dfs_paths(wg), key=lambda p: (-p[2], p[0], p[1])
            )
            n = int(rng.integers(1, len(all_paths) + 3))
            got = n_best_paths(wg, n)
            assert len(got) == min(n, len(all_paths))
            for (seq, logscore), (_, labels, prod) in zip(got, all_paths):
                assert seq.labels == labels
                assert abs(math.exp(logscore) - prod) < 1e-9


    def test_tie_order_matches_enumeration(self):
        # the full ranking, so that every exact tie has to come out in
        # vertex-id then label order
        rng = np.random.default_rng(11)
        for _ in range(3000):
            wg = dyadic_wg(rng)
            ranked = [
                (labels, logscore)
                for _, labels, logscore in n_best_by_enumeration(
                    wg, count_paths(wg))
            ]
            got = n_best_paths(wg, len(ranked))
            assert [(seq.labels, ls) for seq, ls in got] == ranked
            seq, logscore = best_path(wg)
            assert (seq.labels, logscore) == ranked[0]

    def test_tie_order_pinned(self):
        wg = tie_wg()
        ranked = n_best_by_enumeration(wg, count_paths(wg))
        assert ranked[0][1] == ("f", "f", "a", "f")
        got = n_best_paths(wg, 100)
        assert [(seq.labels, ls) for seq, ls in got] == [
            (labels, ls) for _, labels, ls in ranked
        ]
        assert best_path(wg) == got[0]

    def test_n_below_one(self):
        wg = diamond_wg()
        n_best_paths(wg, 1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                n_best_paths(wg, n)


class TestDecodeMemo:
    def test_repeat_call_does_not_decode_again(self, monkeypatch):
        # every decode starts with one topological sort
        calls = []
        original = lattice.topological_order

        def counted(wg):
            calls.append(wg)
            return original(wg)

        monkeypatch.setattr(lattice, "topological_order", counted)
        wg = tie_wg()
        first = (best_path(wg), n_best_paths(wg, 100))
        assert len(calls) == 2
        for _ in range(3):
            assert (best_path(wg), n_best_paths(wg, 100)) == first
        assert len(calls) == 2
        n_best_paths(wg, 3)
        assert len(calls) == 3

    def test_returned_list_is_fresh(self):
        wg = tie_wg()
        got = n_best_paths(wg, 5)
        expected = list(got)
        got.reverse()
        got.pop()
        assert n_best_paths(wg, 5) == expected
        assert n_best_paths(wg, 5) is not n_best_paths(wg, 5)

    def test_one_best_and_hundred_best_in_either_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            wg = random_wg(rng)
            fields = (wg.num_vertices, wg.initial, wg.finals, wg.edges)
            hundred_first = WordGraph(*fields)
            many = n_best_paths(hundred_first, 100)
            one = best_path(hundred_first)
            one_first = WordGraph(*fields)
            assert best_path(one_first) == one == many[0]
            assert n_best_paths(one_first, 100) == many

    def test_equality_hash_and_pickle(self):
        decoded = tie_wg()
        expected = (best_path(decoded), n_best_paths(decoded, 100))
        fresh = tie_wg()
        assert decoded == fresh
        assert hash(decoded) == hash(fresh)
        restored = pickle.loads(pickle.dumps(decoded))
        assert restored == fresh
        assert hash(restored) == hash(fresh)
        assert (best_path(restored), n_best_paths(restored, 100)) == expected
        assert (best_path(fresh), n_best_paths(fresh, 100)) == expected

    @pytest.mark.parametrize(
        "wg, message",
        [
            (WordGraph(4, 0, {3}, [(0, 1, "a", 0.5), (1, 2, "b", 0.5),
                                   (2, 1, "c", 0.5), (2, 3, "d", 0.5)]),
             "word graph has a cycle"),
            (WordGraph(3, 0, {2}, [(0, 1, "a", 0.5)]),
             "word graph has no complete path"),
        ],
        ids=["cycle", "no-path"],
    )
    def test_errors_raise_on_every_call(self, wg, message):
        for _ in range(2):
            with pytest.raises(NoCompletePathError, match=message):
                best_path(wg)
            with pytest.raises(NoCompletePathError, match=message):
                n_best_paths(wg, 100)


class TestPosteriors:
    def test_two_paths(self):
        paths = [(SymbolSequence(("a",)), 0.6), (SymbolSequence(("b",)), 0.2)]
        assert path_posteriors(paths) == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_single(self):
        assert path_posteriors([(SymbolSequence(("a",)), 0.3)]) == [1.0]

    def test_already_normalized(self):
        paths = [(SymbolSequence((t,)), s) for t, s in
                 (("a", 0.5), ("b", 0.3), ("c", 0.2))]
        got = path_posteriors(paths)
        assert np.allclose(got, [0.5, 0.3, 0.2], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            wg = random_wg(rng)
            posts = path_posteriors(enumerate_paths(wg, 200))
            assert abs(sum(posts) - 1.0) <= 1e-9
            assert all(0.0 < p <= 1.0 for p in posts)

    def test_errors(self):
        with pytest.raises(ValueError):
            path_posteriors([])
        with pytest.raises(ValueError):
            path_posteriors([(SymbolSequence(("a",)), 0.0)])


class TestCnFromWg:
    def test_single_path(self):
        wg = WordGraph(
            6, 0, {5},
            [(i, i + 1, lab, 0.9) for i, lab in enumerate("abcde")],
        )
        cn = cn_from_wg(wg)
        assert len(cn) == 5
        for sub, lab in zip(cn.subnetworks, "abcde"):
            assert sub == {lab: 1.0}

    def test_diamond(self):
        wg = WordGraph(
            4, 0, {3}, [(0, 1, "a", 0.6), (0, 1, "b", 0.4), (1, 3, "c", 1.0)]
        )
        cn = cn_from_wg(wg)
        assert len(cn) == 2
        assert cn.subnetworks[0] == pytest.approx({"a": 0.6, "b": 0.4})
        assert cn.subnetworks[1] == {"c": 1.0}

    def test_unequal_lengths_open_eps_column(self):
        # paths: a b c d (0.6) and a b d (0.4); hand alignment puts the
        # short path's whole 0.4 posterior on <eps> at the "c" column
        wg = WordGraph(
            5, 0, {4},
            [(0, 1, "a", 1.0), (1, 2, "b", 1.0), (2, 3, "c", 0.6),
             (3, 4, "d", 1.0), (2, 4, "d", 0.4)],
        )
        cn = cn_from_wg(wg)
        assert len(cn) == 4
        eps_cols = [sub for sub in cn.subnetworks if EPS in sub]
        assert len(eps_cols) == 1
        assert eps_cols[0] == pytest.approx({"c": 0.6, EPS: 0.4})

    def test_sum_to_one_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cn = cn_from_wg(random_wg(rng))
            verdict = validate_cn(cn)
            assert verdict.ok, verdict

    def test_single_path_roundtrip_to_best(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            wg = random_wg(rng, max_paths=1)
            assert count_paths(wg) == 1
            assert cn_best_path(cn_from_wg(wg)).labels == best_path(wg)[0].labels


class TestCnBestPath:
    def test_simple(self):
        cn = ConfusionNetwork([{"a": 0.7, "b": 0.3}])
        seq = cn_best_path(cn)
        assert seq.labels == ("a",)
        assert seq.scores == (0.7,)

    def test_all_eps(self):
        cn = ConfusionNetwork([{EPS: 0.6, "a": 0.4}, {EPS: 1.0}])
        assert cn_best_path(cn).labels == (EPS, EPS)

    def test_tie_prefers_smallest_label(self):
        cn = ConfusionNetwork([{"b": 0.5, "a": 0.5}])
        assert cn_best_path(cn).labels == ("a",)

    def test_empty(self):
        with pytest.raises(ValueError):
            cn_best_path(ConfusionNetwork(()))

    def test_matches_argmax_oracle(self):
        from latgen import random_cn
        from oracles import column_argmax

        rng = np.random.default_rng(15)
        for _ in range(20):
            cn = random_cn(rng)
            assert cn_best_path(cn).labels == column_argmax(cn)


class TestStripEps:
    FIG_SEQ = (
        EPS, "clef-G2", "keySignature-GM", "timeSignature-3/4",
        "note-B4_eighth.", "gracenote-B4_sixteenth", EPS,
    )

    def test_strips_boundary_eps(self):
        got = strip_eps(SymbolSequence(self.FIG_SEQ))
        assert got.labels == self.FIG_SEQ[1:-1]

    def test_identity_without_eps(self):
        seq = SymbolSequence(("a", "b"), (0.5, 0.6))
        assert strip_eps(seq) is seq

    def test_all_eps(self):
        assert strip_eps(SymbolSequence((EPS, EPS))).labels == ()

    def test_idempotent(self):
        seq = SymbolSequence(self.FIG_SEQ)
        once = strip_eps(seq)
        assert strip_eps(once) == once

    def test_scores_follow_labels(self):
        seq = SymbolSequence((EPS, "a", EPS, "b"), (0.1, 0.2, 0.3, 0.4))
        got = strip_eps(seq)
        assert got.labels == ("a", "b")
        assert got.scores == (0.2, 0.4)
