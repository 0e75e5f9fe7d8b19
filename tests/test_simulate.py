import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from latfuse import (
    LEVELS,
    METHODS,
    FusionConfig,
    LEVEL_TARGET_SER,
    ScenarioSpec,
    SymbolSequence,
    best_path,
    calibrate_noise,
    default_vocabulary,
    edit_distance,
    fuse_lightly,
    generate_wg_pair,
    run_fusion,
    validate_wg,
)
from oracles import (
    calibration_corpus_by_loop, corpus_spine_ser_by_loop, corrupt_by_loop,
)
from latfuse.simulate import (
    _calibration_corpus,
    _draw_corruption,
    _outcomes,
    _spine_rows,
    _spine_ser,
    _trial_sample,
    alpha_grid_from_step,
    calibrated_rate,
    measure_calibrated_level,
    format_report,
    grid_specs,
    run_scenario,
    run_scenario_grid,
)


def small_spec(**kw):
    defaults = dict(
        image_level="High", audio_level="Low", trials=3, seed=123,
        sequence_length_range=(6, 12), vocab_size=40,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def fresh_rng(seed=0):
    return np.random.default_rng(seed)


class TestSpecValidation:
    def test_bad_level(self):
        with pytest.raises(ValueError):
            ScenarioSpec("Huge", "Low")

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            ScenarioSpec("High", "Low", sequence_length_range=(5, 2))

    @pytest.mark.parametrize("field, value, name", [
        ("trials", 2.5, "trials"),
        ("trials", 3.0, "trials"),
        ("trials", True, "trials"),
        ("vocab_size", 40.0, "vocab_size"),
        ("seed", 1.5, "seed"),
        ("seed", "7", "seed"),
        ("sequence_length_range", (6.0, 12), "sequence_length_range bound"),
        ("sequence_length_range", (6, 12.5), "sequence_length_range bound"),
    ])
    def test_counts_must_be_integers(self, field, value, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, "):
            small_spec(**{field: value})

    def test_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            small_spec(seed=-3)
        assert small_spec(seed=0).seed == 0

    def test_numpy_integers_accepted(self):
        spec = small_spec(trials=np.int64(2), seed=np.int32(3))
        assert (spec.trials, spec.seed) == (2, 3)

    def test_vocab_vs_branching(self):
        # the confusion neighborhood (width 2) needs 5 symbols, which also
        # leaves more than the 3 alternatives a sausage position draws
        with pytest.raises(ValueError):
            ScenarioSpec("High", "Low", vocab_size=4)
        assert ScenarioSpec("High", "Low", vocab_size=5).vocab_size == 5

    def test_level_targets(self):
        assert LEVEL_TARGET_SER == {"High": 27.0, "Medium": 17.0, "Low": 7.0}


class TestGenerator:
    def test_zero_noise_reproduces_truth(self):
        spec = small_spec()
        vocab = default_vocabulary(spec.vocab_size)
        rng = fresh_rng(1)
        truth = SymbolSequence(tuple(vocab.tokens[i] for i in rng.integers(0, 40, 10)))
        wg_i, wg_a = generate_wg_pair(truth, 0.0, 0.0, spec, rng)
        assert best_path(wg_i)[0].labels == truth.labels
        assert best_path(wg_a)[0].labels == truth.labels

    def test_zero_noise_consensus_for_all_methods(self):
        spec = small_spec()
        vocab = default_vocabulary(spec.vocab_size)
        rng = fresh_rng(2)
        truth = SymbolSequence(tuple(vocab.tokens[i] for i in rng.integers(0, 40, 8)))
        wg_i, wg_a = generate_wg_pair(truth, 0.0, 0.0, spec, rng)
        fuse = lambda m: run_fusion(wg_i, wg_a, FusionConfig(method=m))
        assert fuse("mbr").labels == truth.labels
        assert fuse_lightly(wg_i, wg_a).labels == truth.labels
        assert fuse_lightly(wg_a, wg_i).labels == truth.labels
        assert fuse("global").labels == truth.labels
        assert fuse("local").labels == truth.labels

    def test_lattices_always_valid(self):
        spec = small_spec()
        vocab = default_vocabulary(spec.vocab_size)
        rng = fresh_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 15))
            truth = SymbolSequence(
                tuple(vocab.tokens[i] for i in rng.integers(0, 40, n))
            )
            noise = float(rng.uniform(0.0, 0.8))
            wg_i, wg_a = generate_wg_pair(truth, noise, noise, spec, rng)
            assert validate_wg(wg_i).ok
            assert validate_wg(wg_a).ok

    def test_deterministic_given_stream(self):
        spec = small_spec()
        vocab = default_vocabulary(spec.vocab_size)
        truth = SymbolSequence(tuple(vocab.tokens[:9]))
        a = generate_wg_pair(truth, 0.3, 0.1, spec, fresh_rng(9))
        b = generate_wg_pair(truth, 0.3, 0.1, spec, fresh_rng(9))
        assert a == b

    def test_rejects_bad_input(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            generate_wg_pair(SymbolSequence(()), 0.1, 0.1, spec, fresh_rng(0))
        truth = SymbolSequence(("sym000",))
        with pytest.raises(ValueError):
            generate_wg_pair(truth, 1.0, 0.1, spec, fresh_rng(0))


class TestCalibration:
    def test_zero_target_short_circuits(self):
        assert calibrate_noise(0.0, small_spec(), fresh_rng(0)) == 0.0

    def test_hits_target_on_calibration_corpus(self):
        spec = small_spec()
        rate = calibrate_noise(27.0, spec, fresh_rng(5))
        corpus = _calibration_corpus(spec, fresh_rng(5))
        measured = _spine_ser(corpus)(rate)
        assert abs(measured - 27.0) <= 0.5

    def test_monotone_rates(self):
        spec = small_spec()
        r27 = calibrate_noise(27.0, spec, fresh_rng(6))
        r7 = calibrate_noise(7.0, spec, fresh_rng(6))
        assert r27 > r7

    def test_deterministic(self):
        spec = small_spec()
        assert calibrated_rate(spec, "Medium") == calibrated_rate(spec, "Medium")

    @pytest.mark.parametrize("call", [calibrated_rate, measure_calibrated_level])
    @pytest.mark.parametrize("level", ["high", "x", ""])
    def test_unknown_level(self, call, level):
        with pytest.raises(ValueError, match="level must be one of") as exc:
            call(small_spec(), level)
        assert str(LEVELS) in str(exc.value)

    @pytest.mark.parametrize("vocab_size", [100, 50_000])
    def test_traced_peak_memory(self, vocab_size):
        # the corpus is scored one truth position at a time: no temporary
        # scales with the vocabulary or with the square of the truth length
        spec = ScenarioSpec("High", "High", seed=7, vocab_size=vocab_size)
        default_vocabulary(vocab_size)
        tracemalloc.start()
        try:
            calibrated_rate(spec, "High")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBatchedCorruption:
    """The vectorized corruption rule and the batched corpus SER against
    the earlier per-position loop and per-pair scorer."""

    RATES = (0.0, 0.07, 0.3, 0.95, 0.999)

    @pytest.mark.parametrize("lengths, vocab_size, seed", [
        ((60, 130), 100, 0),  # truths of more than one 64-bit word
        ((1, 1), 5, 1),  # every corrupted row a deletion or a single slot
        ((1, 3), 7, 2),
        ((10, 30), 5, 3),
        ((10, 30), 50_000, 4),
        ((1, 70), 100, 5),
    ])
    def test_corpus_ser_matches_loop_oracle(self, lengths, vocab_size, seed):
        spec = small_spec(sequence_length_range=lengths, vocab_size=vocab_size)
        vocab = default_vocabulary(vocab_size)
        corpus = _calibration_corpus(spec, fresh_rng(seed))
        oracle = calibration_corpus_by_loop(spec, fresh_rng(seed))
        assert [
            tuple(vocab.tokens[i] for i in row[:n])
            for row, n in zip(corpus.truths.tolist(), corpus.lens.tolist())
        ] == [truth for truth, _ in oracle]
        ser = _spine_ser(corpus)
        for rate in self.RATES:
            want = corpus_spine_ser_by_loop(oracle, rate, vocab)
            assert ser(rate).hex() == want.hex(), rate

    def test_spine_rows_match_loop_oracle(self):
        # 5,000 truths in batches of 1 to 200 rows, so that rows of many
        # lengths share one padded batch
        rng = fresh_rng(19)
        cases = 0
        while cases < 5000:
            vocab = default_vocabulary(int(rng.choice([5, 7, 100, 50_000])))
            rate = float(rng.choice([0.0, 0.07, 0.3, 0.95, 0.999, rng.random()]))
            top = int(rng.choice([3, 30, 70]))
            truths, draws = [], []
            for _ in range(int(rng.integers(1, 201))):
                truths.append(rng.integers(0, len(vocab), rng.integers(1, top + 1)))
                draws.append(_draw_corruption(len(truths[-1]), rng))
            rows = _spine_rows(_outcomes(truths, draws, len(vocab)), rate)
            assert len(rows) == len(truths)
            for ids, d, (labels, hints, errs) in zip(truths, draws, rows):
                truth = tuple(vocab.tokens[i] for i in ids)
                got = [
                    (vocab.tokens[lab], None if hint < 0 else vocab.tokens[hint], err)
                    for lab, hint, err in zip(labels, hints, errs)
                ]
                assert got == corrupt_by_loop(truth, rate, d, vocab)
            cases += len(truths)

    def test_generator_spine_matches_loop_oracle(self):
        # generate_wg_pair's batch of one: the image lattice's best path is
        # its spine, corrupted with the stream's first draws
        spec = small_spec(vocab_size=40)
        vocab = default_vocabulary(spec.vocab_size)
        rng = fresh_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            ids = rng.integers(0, 40, n)
            truth = SymbolSequence(tuple(vocab.tokens[i] for i in ids))
            rate = float(rng.random() * 0.99)
            seed = int(rng.integers(0, 2**32))
            wg_i, _ = generate_wg_pair(truth, rate, 0.1, spec, fresh_rng(seed))
            draws = _draw_corruption(n, fresh_rng(seed))
            spine = corrupt_by_loop(truth.labels, rate, draws, vocab)
            assert best_path(wg_i)[0].labels == tuple(lab for lab, _, _ in spine)

    def test_rejects_labels_outside_vocabulary(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="not in the spec's vocabulary"):
            generate_wg_pair(SymbolSequence(("sym000", "zzz")), 0.1, 0.1, spec,
                             fresh_rng(0))


class TestAlphaGrid:
    def test_default_step(self):
        grid = alpha_grid_from_step(0.1)
        assert grid == tuple(round(0.1 * k, 10) for k in range(1, 10))

    def test_quarter_step(self):
        assert alpha_grid_from_step(0.25) == (0.25, 0.5, 0.75)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            alpha_grid_from_step(0.0)

    @pytest.mark.parametrize("step, grid", [
        (0.3, (0.3, 0.6, 0.9)),
        (0.4, (0.4, 0.8)),
        (0.7, (0.7,)),
        (0.9, (0.9,)),
        (0.45, (0.45, 0.9)),
    ])
    def test_step_not_dividing_one_keeps_every_interior_multiple(self, step,
                                                                 grid):
        assert alpha_grid_from_step(step) == grid

    def test_step_rounding_to_one_leaves_no_grid(self):
        with pytest.raises(ValueError, match="no interior grid points"):
            alpha_grid_from_step(1.0 - 1e-12)


class TestScenarioRun:
    def test_zero_noise_all_methods_zero_ser(self):
        spec = small_spec(trials=2)
        rep = run_scenario(spec, 1, noise_rates=(0.0, 0.0))
        assert rep.baseline_ser == {"image": 0.0, "audio": 0.0}
        assert all(v == 0.0 for v in rep.cells.values())
        assert all(r is None for r in rep.wilcoxon.values())

    def test_grid_shape(self):
        alpha_grid = (0.25, 0.5, 0.75)
        specs = [replace(spec, vocab_size=30, sequence_length_range=(5, 8))
                 for spec in grid_specs(trials=1, seed=42)]
        reports = run_scenario_grid(specs, alpha_grid=alpha_grid)
        assert len(reports) == 9
        assert [r.scenario_id for r in reports] == list(range(1, 10))
        levels = [(r.spec.image_level, r.spec.audio_level) for r in reports]
        assert levels[0] == ("High", "High")
        assert levels[2] == ("High", "Low")
        assert levels[8] == ("Low", "Low")
        for rep in reports:
            assert len(rep.cells) == 5 * len(alpha_grid)
            assert set(rep.best_alpha) == {
                "mbr", "lightly_ia", "lightly_ai", "global", "local"
            }
            assert all(v >= 0.0 for v in rep.cells.values())

    def test_alpha_free_methods_constant_across_grid(self):
        spec = small_spec(trials=2)
        rep = run_scenario(spec, 1, noise_rates=(0.3, 0.1),
                           alpha_grid=(0.2, 0.8))
        for m in ("lightly_ia", "lightly_ai", "local"):
            assert rep.cells[(m, 0.2)] == rep.cells[(m, 0.8)]

    def test_cells_match_public_fusion_api(self):
        spec = small_spec(trials=2)
        alpha_grid = (0.2, 0.8)
        rates = (0.3, 0.1)
        rep = run_scenario(spec, 3, noise_rates=rates, alpha_grid=alpha_grid)
        trials = [_trial_sample(spec, 3, t, *rates) for t in range(spec.trials)]
        total = sum(len(truth) for truth, _, _ in trials)
        for m in METHODS:
            for a in alpha_grid:
                cfg = FusionConfig(alpha=a, method=m)
                errors = sum(
                    edit_distance(run_fusion(wg_i, wg_a, cfg), truth)
                    for truth, wg_i, wg_a in trials
                )
                assert rep.cells[(m, a)] == 100.0 * errors / total

    # an empty grid used to fail in min(); a repeated alpha doubled its
    # per-trial vectors, so every Wilcoxon test read SKIPPED
    @pytest.mark.parametrize("alpha_grid, message", [
        ((), "^alpha grid must be non-empty, without repeats$"),
        ((0.5, 0.5), "^alpha grid must be non-empty, without repeats$"),
        ((0.2, 0.8, 0.2), "^alpha grid must be non-empty, without repeats$"),
        ((0.0, 0.5), r"^alpha grid values must lie in \(0, 1\)$"),
    ], ids=["empty", "repeated", "repeated-apart", "out-of-range"])
    def test_rejects_bad_alpha_grid(self, alpha_grid, message):
        with pytest.raises(ValueError, match=message):
            run_scenario(small_spec(trials=2), 1, noise_rates=(0.3, 0.3),
                         alpha_grid=alpha_grid)

    def test_report_text_deterministic(self):
        spec = small_spec(trials=2)
        a = format_report(run_scenario(spec, 4, noise_rates=(0.2, 0.05)))
        b = format_report(run_scenario(spec, 4, noise_rates=(0.2, 0.05)))
        assert a == b
        assert "SCENARIO 4" in a
        assert "METHOD image SCENARIO 4 ALPHA 1" in a


class TestScenarioReportChecks:
    """Negative or NaN SERs are rejected by a check that ``-O`` keeps."""

    BUILD = (
        "from latfuse.simulate import ScenarioReport, grid_specs\n"
        "ScenarioReport(0, grid_specs(1, 7)[0], 0.1, 0.1, (0.5,), {bad},"
        " {cells}, {{}}, {{}})\n"
    )

    @pytest.mark.parametrize("baseline, cells", [
        ("{'image': -1.0}", "{}"),
        ("{}", "{('mbr', 0.5): float('nan')}"),
    ])
    def test_rejected_in_process_and_under_O(self, baseline, cells):
        code = self.BUILD.format(bad=baseline, cells=cells)
        with pytest.raises(ValueError, match="SER must be a number >= 0"):
            exec(code, {})
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ValueError: SER must be a number >= 0" in proc.stderr


class TestCalibrationCache:
    def test_key_is_what_calibration_reads(self, monkeypatch):
        import latfuse.simulate as simulate

        calls = []

        def recorder(spec, level):
            calls.append((spec.vocab_size, spec.trials, level))
            return 0.1

        monkeypatch.setattr(simulate, "calibrated_rate", recorder)
        monkeypatch.setattr(simulate, "run_scenario",
                            lambda spec, sid, **kw: kw["noise_rates"])
        base = small_spec(image_level="Medium", audio_level="Medium")
        specs = [base, replace(base, vocab_size=30), replace(base, trials=7)]
        assert run_scenario_grid(specs) == [(0.1, 0.1)] * 3
        # vocab_size is read by calibration, trials is not
        assert calls == [(40, 3, "Medium"), (30, 3, "Medium")]


class TestDumpReplay:
    def test_dump_reparses_to_identical_lattices(self, tmp_path):
        from latfuse.formats import parse_word_graphs, write_wg
        from latfuse.simulate import _trial_sample, dump_scenario_corpus

        spec = small_spec(trials=3)
        rep = run_scenario(spec, 2, noise_rates=(0.25, 0.08))
        paths = dump_scenario_corpus(rep, tmp_path)
        img_text = (tmp_path / "scenario_2_image.wg").read_text()
        records = parse_word_graphs(img_text)
        assert len(records) == 3
        for t, (name, parsed) in enumerate(records):
            assert name == f"trial{t}"
            _, wg_i, _ = _trial_sample(spec, 2, t, 0.25, 0.08)
            # bit-exact at the 12-digit print precision
            assert write_wg(parsed, name) == write_wg(wg_i, name)
