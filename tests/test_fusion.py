import math

import numpy as np
import pytest

from latfuse import (
    EPS,
    METHODS,
    FusionConfig,
    SymbolSequence,
    WordGraph,
    best_path,
    cn_best_path,
    cn_from_wg,
    combine_cns,
    dtw_align,
    fuse_lightly,
    lattice_hypotheses,
    mbr_decode,
    merge_aligned_best_paths,
    merge_subnetworks,
    run_fusion,
    strip_eps,
)
from latfuse import align as align_module
from latfuse import fusion as fusion_module
from latfuse.align import edit_distance_matrix
from latfuse.fusion import PREPARE_METHOD, MbrTables
from latgen import CLOSE_TOKENS, random_sw_case, random_wg
from oracles import (
    dfs_paths, mbr_by_enumeration, merge_by_take, nearest_path_by_enumeration,
)


MBR = FusionConfig(method="mbr")
GLOBAL = FusionConfig(method="global")
LOCAL = FusionConfig(method="local")


def single_path_wg(labels, score=0.9):
    n = len(labels)
    return WordGraph(
        n + 1, 0, {n}, [(i, i + 1, lab, score) for i, lab in enumerate(labels)]
    )


def three_path_pair():
    wg_i = WordGraph(4, 0, {3}, [
        (0, 1, "a", 0.6), (0, 2, "b", 0.4), (1, 2, "c", 0.5),
        (1, 2, "d", 0.5), (2, 3, "e", 1.0),
    ])
    wg_a = WordGraph(4, 0, {3}, [
        (0, 1, "a", 0.5), (0, 3, "x", 0.5), (1, 2, "c", 1.0),
        (2, 3, "e", 0.8), (2, 3, "f", 0.2),
    ])
    return wg_i, wg_a


class TestFusionConfig:
    def test_alpha_open_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                FusionConfig(alpha=bad)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(method="vote")
        with pytest.raises(ValueError):
            FusionConfig(laplace_lambda=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^laplace_lambda must be finite$"):
                FusionConfig(laplace_lambda=bad)
        with pytest.raises(ValueError):
            FusionConfig(max_paths=0)

    @pytest.mark.parametrize("cap", [2.5, 100.0, math.nan, True])
    def test_max_paths_must_be_an_integer(self, cap):
        with pytest.raises(ValueError,
                           match=f"^max_paths must be an integer, not {cap!r}$"):
            FusionConfig(max_paths=cap)
        wg = single_path_wg(("p", "q"))
        for decode in (lattice_hypotheses, mbr_decode):
            with pytest.raises(ValueError, match="^n must be an integer, "):
                decode(wg, cap)
        assert FusionConfig(max_paths=np.int64(7)).max_paths == 7


class TestMbr:
    def test_identical_single_paths(self):
        wg = single_path_wg(("p", "q", "r"))
        for alpha in (0.1, 0.5, 0.9):
            cfg = FusionConfig(method="mbr", alpha=alpha)
            assert run_fusion(wg, wg, cfg).labels == ("p", "q", "r")

    def test_disjoint_single_paths_alpha_dominates(self):
        u = single_path_wg(("u1", "u2"))
        v = single_path_wg(("v1", "v2", "v3"))
        # risk(u) = (1-alpha) ED(u,v) < alpha ED(u,v) = risk(v) at alpha 0.9
        cfg = lambda a: FusionConfig(method="mbr", alpha=a)
        assert run_fusion(u, v, cfg(0.9)).labels == ("u1", "u2")
        assert run_fusion(u, v, cfg(0.1)).labels == ("v1", "v2", "v3")

    def test_three_path_fixture(self):
        wg_i, wg_a = three_path_pair()
        for alpha in (0.2, 0.5, 0.8):
            cfg = FusionConfig(method="mbr", alpha=alpha)
            got = run_fusion(wg_i, wg_a, cfg)
            assert got.labels == ("a", "c", "e")
            assert got.labels == mbr_by_enumeration(wg_i, wg_a, alpha)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            wg_i, wg_a = random_wg(rng), random_wg(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            cfg = FusionConfig(method="mbr", alpha=alpha)
            got = run_fusion(wg_i, wg_a, cfg)
            assert got.labels == mbr_by_enumeration(wg_i, wg_a, alpha)

    def test_output_in_candidate_union(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            wg_i, wg_a = random_wg(rng), random_wg(rng)
            union = {l for _, l, _ in dfs_paths(wg_i)}
            union |= {l for _, l, _ in dfs_paths(wg_a)}
            assert run_fusion(wg_i, wg_a, MBR).labels in union

    def test_consensus_collapses_to_unimodal(self):
        rng = np.random.default_rng(53)
        # ("a",) and ("b",) tie at risk 0.75 exactly; ("b",) has the higher
        # posterior, so it wins although it sorts after ("a",)
        tie = WordGraph(3, 0, {2}, [(0, 2, "b", 0.5), (0, 2, "a", 0.25),
                                    (0, 1, "a", 0.25), (1, 2, "c", 1.0)])
        assert mbr_decode(tie).labels == ("b",)
        for wg in [tie, *(random_wg(rng) for _ in range(20))]:
            uni = mbr_decode(wg)
            assert uni.labels == mbr_by_enumeration(wg, wg, 0.5)
            for alpha in (0.1, 0.5, 0.9):
                cfg = FusionConfig(method="mbr", alpha=alpha)
                assert run_fusion(wg, wg, cfg) == uni

    def test_swap_symmetry(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            wg_i, wg_a = random_wg(rng), random_wg(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            cfg = lambda a: FusionConfig(method="mbr", alpha=a)
            fwd = run_fusion(wg_i, wg_a, cfg(alpha))
            rev = run_fusion(wg_a, wg_i, cfg(1.0 - alpha))
            assert fwd == rev

    def test_one_kernel_call_per_pair(self, monkeypatch):
        # both sides' risks come from one edit_distance_matrix call, the
        # image paths then the audio paths as refs, and equal the risks of
        # one call per side bit for bit
        rng = np.random.default_rng(56)
        refs_seen = []

        def kernel(cands, refs):
            refs_seen.append(list(refs))
            return edit_distance_matrix(cands, refs)

        monkeypatch.setattr(fusion_module, "edit_distance_matrix", kernel)
        for _ in range(20):
            wg_i, wg_a = random_wg(rng), random_wg(rng)
            refs_seen.clear()
            tables = MbrTables(wg_i, wg_a, 100)
            hyps = [lattice_hypotheses(wg, 100) for wg in (wg_i, wg_a)]
            assert refs_seen == [sorted(hyps[0]) + sorted(hyps[1])]
            for risk, hyp in zip((tables.risk_i, tables.risk_a), hyps):
                refs = sorted(hyp)
                want = edit_distance_matrix(tables.candidates, refs) @ np.array(
                    [hyp[r] for r in refs])
                assert [x.hex() for x in risk] == [x.hex() for x in want]

    def test_nbest_truncation_renormalizes(self):
        rng = np.random.default_rng(55)
        wg = random_wg(rng, max_paths=60)
        hyp = lattice_hypotheses(wg, max_paths=5)
        assert sum(hyp.values()) == pytest.approx(1.0, abs=1e-12)


class TestNBestPosteriors:
    def test_cn_columns_are_the_hypotheses_position_marginals(self):
        # a sausage whose columns use disjoint labels, so every path aligns
        # to the pivot position by position; 3^5 = 243 paths, capped at 20
        rng = np.random.default_rng(57)
        edges = []
        for t in range(5):
            weights = rng.dirichlet(np.ones(3))
            edges += [(t, t + 1, f"c{t}x{j}", float(w))
                      for j, w in enumerate(weights)]
        wg = WordGraph(6, 0, {5}, edges)
        hyp = lattice_hypotheses(wg, 20)
        assert len(hyp) == 20
        cn = cn_from_wg(wg, 20)
        assert len(cn) == 5
        for t, col in enumerate(cn.subnetworks):
            marginal = {}
            for labels, post in hyp.items():
                marginal[labels[t]] = marginal.get(labels[t], 0.0) + post
            assert col.keys() == marginal.keys()
            for lab, mass in col.items():
                assert abs(mass - marginal[lab]) <= 1e-12


class TestLightly:
    def test_transcript_in_corrector(self):
        wg = WordGraph(3, 0, {2}, [
            (0, 1, "a", 0.6), (0, 1, "b", 0.4), (1, 2, "c", 1.0),
        ])
        src = single_path_wg(("b", "c"))
        assert fuse_lightly(src, wg).labels == ("b", "c")

    def test_single_path_corrector_wins_regardless(self):
        corr = single_path_wg(("p", "q"))
        src = single_path_wg(("x", "y", "z"))
        assert fuse_lightly(src, corr).labels == ("p", "q")

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(56)
        for _ in range(30):
            src, corr = random_wg(rng), random_wg(rng)
            got = fuse_lightly(src, corr)
            transcript, _ = best_path(src)
            _, labels, _ = nearest_path_by_enumeration(corr, transcript.labels)
            assert got.labels == labels

    def test_output_is_corrector_path(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            src, corr = random_wg(rng), random_wg(rng)
            corr_paths = {l for _, l, _ in dfs_paths(corr)}
            assert fuse_lightly(src, corr).labels in corr_paths


class TestGlobal:
    def test_identical_inputs_reproduce_unimodal(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            wg = random_wg(rng)
            want = strip_eps(cn_best_path(cn_from_wg(wg))).labels
            for alpha in (0.1, 0.5, 0.9):
                for lam in (0.5, 1.0, 2.0):
                    cfg = FusionConfig(method="global", alpha=alpha,
                                       laplace_lambda=lam)
                    assert run_fusion(wg, wg, cfg).labels == want

    def test_completely_different_hand_computed(self):
        # both single paths; every cross distance is 1, so each matched pair
        # expands to (image x eps)(eps x audio); smoothed scores with lam=1
        # over a 2-label union are 2/3 (present) vs 1/3 (absent)
        wg_i = single_path_wg(("a", "b"), 1.0)
        wg_a = single_path_wg(("x", "y"), 1.0)
        cn_i, cn_a = cn_from_wg(wg_i), cn_from_wg(wg_a)
        merged = combine_cns(cn_i, cn_a, 0.7, 1.0, dtw_align(cn_i, cn_a)[0])
        assert len(merged) == 4
        hi = (2 / 3) ** 0.7 * (1 / 3) ** 0.3
        lo = (1 / 3) ** 0.7 * (2 / 3) ** 0.3
        col = merged.subnetworks[0]
        assert col["a"] == pytest.approx(hi / (hi + lo), abs=1e-12)
        assert col[EPS] == pytest.approx(lo / (hi + lo), abs=1e-12)
        # image-side symbols win at alpha > 0.5, audio's at alpha < 0.5;
        # at exactly 0.5 every column ties and <eps> wins lexicographically
        cfg = lambda a: FusionConfig(method="global", alpha=a)
        assert run_fusion(wg_i, wg_a, cfg(0.7)).labels == ("a", "b")
        assert run_fusion(wg_i, wg_a, cfg(0.3)).labels == ("x", "y")
        assert run_fusion(wg_i, wg_a, cfg(0.5)).labels == ()

    def test_prepare_reads_the_dtw_label_table(self, monkeypatch):
        # the completely-different test along the path comes from the DTW's
        # label table: single-path lattices need no pivot alignment either,
        # so the prepare makes no edit_distance call at all
        def refuse(*args):
            raise AssertionError("edit_distance called")

        wg_i = single_path_wg(("ab", "b", "cd"), 1.0)
        wg_a = single_path_wg(("xy", "ba", "c"), 1.0)
        monkeypatch.setattr(align_module, "edit_distance", refuse)
        decode = PREPARE_METHOD["global"](wg_i, wg_a, GLOBAL)
        monkeypatch.undo()
        assert decode(0.7).labels == ("ab", "b", "cd")
        assert decode(0.3).labels == ("xy", "ba", "c")
        cn_i, cn_a = cn_from_wg(wg_i), cn_from_wg(wg_a)
        path, _ = dtw_align(cn_i, cn_a)
        # "ab"/"xy" share nothing; "b"/"ba" and "cd"/"c" are one edit apart
        assert path == [(0, 0), (1, 1), (2, 2)]
        assert len(combine_cns(cn_i, cn_a, 0.5, 1.0, path)) == 4

    def test_diamond_vs_linear_trace(self):
        # worked trace: c_i = [{a:.6, b:.4}, {c:1}], c_a = [{a:1}, {c:1}];
        # DTW matches diagonally (costs .4 and 0); lam=1 smoothing gives
        # s(a) = sqrt(1.6/3 * 2/3), s(b) = sqrt(1.4/3 * 1/3)
        wg_i = WordGraph(4, 0, {3}, [
            (0, 1, "a", 0.6), (0, 1, "b", 0.4), (1, 3, "c", 1.0),
        ])
        wg_a = single_path_wg(("a", "c"), 1.0)
        cn_i, cn_a = cn_from_wg(wg_i), cn_from_wg(wg_a)
        merged = combine_cns(cn_i, cn_a, 0.5, 1.0, dtw_align(cn_i, cn_a)[0])
        assert len(merged) == 2
        sa = math.sqrt((1.6 / 3) * (2 / 3))
        sb = math.sqrt((1.4 / 3) * (1 / 3))
        col = merged.subnetworks[0]
        assert col["a"] == pytest.approx(sa / (sa + sb), abs=1e-12)
        assert col["b"] == pytest.approx(sb / (sa + sb), abs=1e-12)
        assert merged.subnetworks[1] == {"c": 1.0}
        assert run_fusion(wg_i, wg_a, GLOBAL).labels == ("a", "c")

    def test_merge_subnetworks_normalizes(self):
        col = merge_subnetworks({"a": 0.6, "b": 0.4}, {"a": 1.0}, 0.5, 1.0)
        assert sum(col.values()) == pytest.approx(1.0, abs=1e-12)

    def test_merge_subnetworks_overflowing_denominator(self):
        # 1 + 1e308 * 3 is inf: every smoothed score used to be 0, and the
        # renormalization divided by a zero total (ZeroDivisionError)
        with pytest.raises(ValueError,
                           match=r"^lam 1e\+308 times 3 labels overflows$"):
            merge_subnetworks({"a": .6, "b": .4}, {"a": 1.0, "c": 0.0},
                              0.5, 1e308)

    @pytest.mark.parametrize("lam, labels", [(1e308, 1), (1e307, 3),
                                             (5e-324, 2), (0.25, 4)])
    def test_merge_subnetworks_finite_denominator(self, lam, labels):
        # the largest lambdas whose denominator stays finite still merge,
        # with the documented float operations in the documented order
        sub_i = {f"x{k}": 1.0 / labels for k in range(labels)}
        sub_a = {"x0": 1.0, **{f"x{k}": 0.0 for k in range(1, labels)}}
        denom = 1.0 + lam * labels
        col = {lab: ((sub_i[lab] + lam) / denom) ** 0.25
               * ((sub_a[lab] + lam) / denom) ** 0.75 for lab in sorted(sub_i)}
        total = sum(col.values())
        assert merge_subnetworks(sub_i, sub_a, 0.25, lam) == {
            lab: v / total for lab, v in col.items()}

    # -0.1 used to give complex scores, -0.5 a ZeroDivisionError, nan nan
    BAD_LAMBDAS = [
        (-0.1, "^lam must be > 0$"),
        (-0.5, "^lam must be > 0$"),
        (0.0, "^lam must be > 0$"),
        (math.nan, "^lam must be finite$"),
        (math.inf, "^lam must be finite$"),
        (-math.inf, "^lam must be finite$"),
    ]

    @pytest.mark.parametrize("lam, message", BAD_LAMBDAS)
    def test_merge_subnetworks_rejects_bad_lam(self, lam, message):
        with pytest.raises(ValueError, match=message):
            merge_subnetworks({"a": 1.0}, {"b": 1.0}, 0.5, lam)

    @pytest.mark.parametrize("lam, message", BAD_LAMBDAS)
    def test_combine_cns_rejects_bad_lam(self, lam, message):
        cn_i = cn_from_wg(single_path_wg(("xa", "xb"), 1.0))
        cn_a = cn_from_wg(single_path_wg(("xa",), 1.0))
        path = dtw_align(cn_i, cn_a)[0]
        with pytest.raises(ValueError, match=message):
            combine_cns(cn_i, cn_a, 0.5, lam, path)

    # nan used to give nan scores; 1.5 and -0.5 extrapolated
    BAD_ALPHAS = [0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_merge_subnetworks_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError,
                           match=r"^alpha must lie strictly inside \(0, 1\)$"):
            merge_subnetworks({"a": 1.0}, {"b": 1.0}, alpha, 1.0)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_combine_cns_rejects_bad_alpha(self, alpha):
        cn_i = cn_from_wg(single_path_wg(("xa", "xb"), 1.0))
        cn_a = cn_from_wg(single_path_wg(("xa",), 1.0))
        path = dtw_align(cn_i, cn_a)[0]
        with pytest.raises(ValueError,
                           match=r"^alpha must lie strictly inside \(0, 1\)$"):
            combine_cns(cn_i, cn_a, alpha, 1.0, path)

    # skips two audio columns, stops short, runs backwards, leaves the
    # networks, or is empty
    BAD_PATHS = [[(0, 0), (1, 2)], [(0, 0)], [(1, 1), (0, 0)],
                 [(0, 0), (5, 5)], []]

    @pytest.mark.parametrize("path", BAD_PATHS)
    def test_combine_cns_rejects_a_non_dtw_path(self, path):
        cn_i = cn_from_wg(single_path_wg(("xa", "xb"), 1.0))
        cn_a = cn_from_wg(single_path_wg(("xa", "xb", "xc"), 1.0))
        with pytest.raises(ValueError, match=r"^path must run from \(0, 0\) "
                           r"to \(1, 2\) in steps of \(1, 1\), \(1, 0\) "
                           r"or \(0, 1\)$"):
            combine_cns(cn_i, cn_a, 0.5, 1.0, path)

    def test_combine_cns_takes_every_dtw_path(self):
        # the five DTW paths over 2 x 3 columns; every label pair shares
        # its "x", so each step makes one merged column
        cn_i = cn_from_wg(single_path_wg(("xa", "xb"), 1.0))
        cn_a = cn_from_wg(single_path_wg(("xa", "xb", "xc"), 1.0))
        for path in ([(0, 0), (0, 1), (0, 2), (1, 2)],
                     [(0, 0), (0, 1), (1, 2)],
                     [(0, 0), (0, 1), (1, 1), (1, 2)],
                     [(0, 0), (1, 1), (1, 2)],
                     [(0, 0), (1, 0), (1, 1), (1, 2)]):
            assert len(combine_cns(cn_i, cn_a, 0.5, 1.0, path)) == len(path)

    def test_swap_symmetry_on_close_vocab(self):
        # close tokens keep every pair distance < 1, so no column doubling
        # and no DTW tie ambiguity in practice
        rng = np.random.default_rng(59)
        for _ in range(15):
            wg_i = random_wg(rng, vocab=CLOSE_TOKENS)
            wg_a = random_wg(rng, vocab=CLOSE_TOKENS)
            alpha = float(rng.uniform(0.1, 0.9))
            cfg = lambda a: FusionConfig(method="global", alpha=a)
            fwd = run_fusion(wg_i, wg_a, cfg(alpha))
            rev = run_fusion(wg_a, wg_i, cfg(1.0 - alpha))
            assert fwd.labels == rev.labels

    def test_gap_step_merges_with_eps(self):
        wg_i = single_path_wg(("xa",), 1.0)
        wg_a = single_path_wg(("xa", "xb", "xc"), 1.0)
        cn_i, cn_a = cn_from_wg(wg_i), cn_from_wg(wg_a)
        merged = combine_cns(cn_i, cn_a, 0.5, 1.0, dtw_align(cn_i, cn_a)[0])
        assert len(merged) == 3
        assert EPS in merged.subnetworks[1]
        assert EPS in merged.subnetworks[2]


class TestLocal:
    def test_identical_best_paths(self):
        wg = single_path_wg(("m", "n", "o"))
        assert run_fusion(wg, wg, LOCAL).labels == ("m", "n", "o")

    def test_gap_inside_alignment(self):
        wg_i = single_path_wg(("a", "b", "d", "e"), 0.9)
        wg_a = single_path_wg(("a", "b", "c", "d", "e"), 0.8)
        assert run_fusion(wg_i, wg_a, LOCAL).labels == (
            "a", "b", "c", "d", "e")

    def test_conflict_resolved_by_score(self):
        wg_i = WordGraph(4, 0, {3}, [
            (0, 1, "a", 1.0), (1, 2, "X", 0.9), (2, 3, "c", 1.0),
        ])
        wg_a = WordGraph(4, 0, {3}, [
            (0, 1, "a", 1.0), (1, 2, "Y", 0.4), (2, 3, "c", 1.0),
        ])
        assert run_fusion(wg_i, wg_a, LOCAL).labels == ("a", "X", "c")
        assert run_fusion(wg_a, wg_i, LOCAL).labels == ("a", "X", "c")

    def test_score_tie_prefers_image(self):
        wg_i = WordGraph(2, 0, {1}, [(0, 1, "L", 0.5)])
        wg_a = WordGraph(2, 0, {1}, [(0, 1, "R", 0.5)])
        # disjoint single tokens: empty alignment, both kept, image first
        assert run_fusion(wg_i, wg_a, LOCAL).labels == ("L", "R")

    def test_conflict_tie_image_side(self):
        wg_i = WordGraph(4, 0, {3}, [
            (0, 1, "a", 1.0), (1, 2, "X", 0.5), (2, 3, "c", 1.0),
        ])
        wg_a = WordGraph(4, 0, {3}, [
            (0, 1, "a", 1.0), (1, 2, "Y", 0.5), (2, 3, "c", 1.0),
        ])
        assert run_fusion(wg_i, wg_a, LOCAL).labels == ("a", "X", "c")
        assert run_fusion(wg_a, wg_i, LOCAL).labels == ("a", "Y", "c")

    def test_unaligned_edges_kept_in_order(self):
        wg_i = single_path_wg(("p", "a", "b", "c"), 0.9)
        wg_a = single_path_wg(("a", "b", "c", "q"), 0.9)
        assert run_fusion(wg_i, wg_a, LOCAL).labels == (
            "p", "a", "b", "c", "q")

    def test_matches_take_oracle(self):
        # the (side, index) walk equals the per-position take: labels and
        # scores, unscored sides and zero penalties included
        rng = np.random.default_rng(2025)
        for _ in range(5000):
            seq_i, seq_a, params = random_sw_case(rng)
            got = merge_aligned_best_paths(seq_i, seq_a, params)
            want = merge_by_take(seq_i, seq_a, params)
            assert got.labels == want.labels
            assert [s.hex() for s in got.scores] == [
                s.hex() for s in want.scores]


class TestDispatchAndIdentity:
    def test_run_fusion_dispatch(self):
        wg_i, wg_a = three_path_pair()
        for method in ("mbr", "lightly_ia", "lightly_ai", "global", "local"):
            cfg = FusionConfig(method=method)
            out = run_fusion(wg_i, wg_a, cfg)
            assert isinstance(out, SymbolSequence)

    def test_prepared_decode_matches_run_fusion(self):
        assert tuple(PREPARE_METHOD) == METHODS
        # the public order, which FusionConfig and the --method choices read
        assert METHODS == ("mbr", "lightly_ia", "lightly_ai", "global", "local")
        rng = np.random.default_rng(61)
        for _ in range(8):
            wg_i, wg_a = random_wg(rng), random_wg(rng)
            for method in METHODS:
                decode = PREPARE_METHOD[method](wg_i, wg_a, FusionConfig())
                for alpha in (0.1, 0.5, 0.9):
                    cfg = FusionConfig(alpha=alpha, method=method)
                    assert decode(alpha) == run_fusion(wg_i, wg_a, cfg)

    def test_lightly_direction(self):
        corr = single_path_wg(("p", "q"))
        src = single_path_wg(("x", "y"))
        ia = run_fusion(src, corr, FusionConfig(method="lightly_ia"))
        ai = run_fusion(src, corr, FusionConfig(method="lightly_ai"))
        assert ia.labels == ("p", "q")   # image corrected by audio lattice
        assert ai.labels == ("x", "y")   # audio corrected by image lattice

    def test_every_method_consensus_identity(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            wg = random_wg(rng)
            bp = best_path(wg)[0].labels
            uni_cn = strip_eps(cn_best_path(cn_from_wg(wg))).labels
            assert run_fusion(wg, wg, MBR) == mbr_decode(wg)
            assert fuse_lightly(wg, wg).labels == bp
            assert run_fusion(wg, wg, LOCAL).labels == bp
            assert run_fusion(wg, wg, GLOBAL).labels == uni_cn
