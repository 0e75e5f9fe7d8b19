"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with ``pytest -s``
or ``-v`` via the test names).  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from latfuse import (
    FusionConfig,
    LEVEL_TARGET_SER,
    ScenarioSpec,
    SymbolSequence,
    best_path,
    cn_best_path,
    cn_from_wg,
    dtw_align,
    enumerate_paths,
    fuse_lightly,
    generate_wg_pair,
    mbr_decode,
    measure_calibrated_level,
    path_posteriors,
    run_fusion,
    run_scenario,
    smith_waterman,
    strip_eps,
    subnetwork_distance,
    validate_cn,
    validate_wg,
    wilcoxon_signed_rank,
)
from latfuse.align import SWParams, align_seq_to_lattice
from latfuse.cli import run as cli_run
from latgen import layered_wg, random_cn, random_wg
from oracles import (
    best_path_by_enumeration,
    dtw_min_cost,
    mbr_by_enumeration,
    nearest_path_by_enumeration,
    sw_best_score,
    wilcoxon_by_enumeration,
)

GRID_SEED = 7


def report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_mbr_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    mismatches = 0
    stress_widths = [(2, 2, 2, 2, 2, 2), (3, 3, 3, 2, 2), (2, 3, 2, 3, 2, 2),
                     (3, 3, 3, 3, 2)]
    for k in range(200):
        if k % 13 == 0:
            wg_i = layered_wg(rng, stress_widths[(k // 13) % len(stress_widths)])
            wg_a = random_wg(rng)
        else:
            wg_i = random_wg(rng)
            wg_a = random_wg(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        cfg = FusionConfig(alpha=alpha, method="mbr", max_paths=250)
        got = run_fusion(wg_i, wg_a, cfg)
        want = mbr_by_enumeration(wg_i, wg_a, alpha)
        if got.labels != want:
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"MBR oracle equivalence, 200 pairs, {elapsed:.1f}s")


def test_criterion_2_alignment_oracles():
    rng = np.random.default_rng(1002)
    for _ in range(50):
        wg = random_wg(rng)
        seq, logscore = best_path(wg)
        _, labels, prod = best_path_by_enumeration(wg)
        assert seq.labels == labels
        assert abs(math.exp(logscore) - prod) < 1e-9

    toks = ("a", "b", "c", "d")
    for _ in range(50):
        wg = random_wg(rng)
        query = tuple(rng.choice(toks, size=rng.integers(0, 7)))
        path, cost = align_seq_to_lattice(SymbolSequence(query), wg)
        _, labels, _ = nearest_path_by_enumeration(wg, query)
        assert path.labels == labels

    for _ in range(50):
        a, b = random_cn(rng), random_cn(rng)
        local = [
            [subnetwork_distance(sa, sb) for sb in b.subnetworks]
            for sa in a.subnetworks
        ]
        _, cost = dtw_align(a, b)
        assert abs(cost - dtw_min_cost(local)) < 1e-9

    params = SWParams(2.0, -1.0, -2.0)
    for _ in range(50):
        a = tuple(rng.choice(toks, size=rng.integers(0, 8)))
        b = tuple(rng.choice(toks, size=rng.integers(0, 8)))
        res = smith_waterman(a, b, params)
        assert abs(res.score - sw_best_score(a, b, 2.0, -1.0, -2.0)) < 1e-9
    report(2, "best-path / seq-to-lattice / DTW / SW oracle equivalence")


def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(1003)
    spec = ScenarioSpec("High", "Low", seed=GRID_SEED)
    checked_wgs = 0
    checked_cns = 0
    for _ in range(70):
        wg = random_wg(rng)
        assert validate_wg(wg).ok
        cn = cn_from_wg(wg)
        assert validate_cn(cn).ok
        posts = path_posteriors(enumerate_paths(wg, 200))
        assert abs(sum(posts) - 1.0) <= 1e-9
        checked_wgs += 1
        checked_cns += 1
    vocab_size = spec.vocab_size
    from latfuse import default_vocabulary

    vocab = default_vocabulary(vocab_size)
    for _ in range(30):
        n = int(rng.integers(5, 25))
        truth = SymbolSequence(
            tuple(vocab.tokens[i] for i in rng.integers(0, vocab_size, n))
        )
        wg_i, wg_a = generate_wg_pair(
            truth, float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)),
            spec, rng,
        )
        for wg in (wg_i, wg_a):
            assert validate_wg(wg).ok
            assert validate_cn(cn_from_wg(wg)).ok
            checked_wgs += 1
            checked_cns += 1
    report(3, f"invariants on {checked_wgs} WGs / {checked_cns} CNs")


def test_criterion_4_consensus_identity():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        wg = random_wg(rng)
        bp_labels = best_path(wg)[0].labels
        fuse = lambda m: run_fusion(wg, wg, FusionConfig(method=m))
        assert fuse("mbr") == mbr_decode(wg)
        assert fuse_lightly(wg, wg).labels == bp_labels
        assert fuse("local").labels == bp_labels
        assert (
            fuse("global").labels
            == strip_eps(cn_best_path(cn_from_wg(wg))).labels
        )
    report(4, "consensus identity on 100 lattices, all methods")


def test_criterion_5_calibration():
    start = time.perf_counter()
    spec = ScenarioSpec("High", "High", seed=GRID_SEED)
    for level, target in LEVEL_TARGET_SER.items():
        rate1, measured = measure_calibrated_level(spec, level)
        rate2, _ = measure_calibrated_level(spec, level)
        assert rate1 == rate2, "calibration must be deterministic per seed"
        assert abs(measured - target) <= 1.0, (
            f"{level}: measured {measured:.2f} vs target {target}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(5, f"calibration within +/-1.0 of 27/17/7, {elapsed:.0f}s")


def _equal_level_scenario(sid, level, trials=50):
    spec = ScenarioSpec(level, level, trials=trials, seed=GRID_SEED)
    from latfuse import calibrated_rate

    rate = calibrated_rate(spec, level)
    return run_scenario(spec, sid, noise_rates=(rate, rate))


def test_criterion_6_synergy_equal_levels():
    for sid, level in ((1, "High"), (5, "Medium"), (9, "Low")):
        rep = _equal_level_scenario(sid, level)
        base_i = rep.baseline_ser["image"]
        base_a = rep.baseline_ser["audio"]
        for method in ("mbr", "global"):
            best = rep.cells[(method, rep.best_alpha[method])]
            assert best < base_i and best < base_a, (
                f"scenario {sid} {method}: {best:.2f} vs {base_i:.2f}/{base_a:.2f}"
            )
            for baseline in ("image", "audio"):
                res = rep.wilcoxon[(method, baseline)]
                assert res is not None
                assert res.p_value < 0.05
                assert res.verdict == "lower"
    report(6, "MBR and Global beat both baselines at H-H, M-M, L-L (p < 0.05)")


def test_criterion_7_lightly_asymmetry():
    # image = High-noise source, audio = Low-noise corrector
    spec = ScenarioSpec("High", "Low", trials=50, seed=GRID_SEED)
    from latfuse import calibrated_rate

    rep = run_scenario(
        spec, 3,
        noise_rates=(
            calibrated_rate(spec, "High"), calibrated_rate(spec, "Low"),
        ),
    )
    source = rep.baseline_ser["image"]
    corrector = rep.baseline_ser["audio"]
    lightly = rep.cells[("lightly_ia", rep.best_alpha["lightly_ia"])]
    assert lightly < source, f"{lightly:.2f} vs source {source:.2f}"
    assert lightly >= corrector, f"{lightly:.2f} vs corrector {corrector:.2f}"
    report(
        7,
        f"lightly corrects the weak side only "
        f"({source:.1f} -> {lightly:.1f}, corrector {corrector:.1f})",
    )


def test_criterion_8_wilcoxon_exactness():
    rng = np.random.default_rng(1008)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 13))
        a = rng.integers(0, 5, size=n).astype(float)
        b = rng.integers(0, 5, size=n).astype(float)
        if np.count_nonzero(a - b) < 2:
            continue
        res = wilcoxon_signed_rank(a, b)
        w, n_eff, p = wilcoxon_by_enumeration(a, b)
        assert res.statistic == w
        assert res.n_effective == n_eff
        assert abs(res.p_value - p) <= 1e-12
        checked += 1
    b = [float(k) for k in range(1, 10)]
    a = [x + 3.0 for x in b]
    res = wilcoxon_signed_rank(a, b)
    assert res.p_value == 2.0 / 512.0
    report(8, f"wilcoxon exact p matches 2^n enumeration on {checked} cases")


def test_criterion_9_simulate_determinism(tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_run([
            "simulate", "--grid", "--trials", "20", "--seed", str(GRID_SEED),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == 10
    for name in names:
        a, b = outs[0] / name, outs[1] / name
        assert a.read_bytes() == b.read_bytes(), f"{name} differs between runs"
    report(9, f"two simulate runs produced byte-identical {len(names)} files")
