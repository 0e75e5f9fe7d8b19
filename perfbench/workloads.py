"""The three benchmark workloads: grid, long_pairs and cli_mix.

Each workload makes its inputs from the seed in ``setup`` and then runs
numbered units in a closed loop with one caller.  A unit is one scenario
(``grid``), one lattice pair through four methods (``long_pairs``) or one
CLI call (``cli_mix``).  Every unit checks its outputs: against recorded
digests when the seed has them, otherwise against invariants (vocabulary
tokens only, no ``<eps>`` in a transcription, SER >= 0).

The program is always reached through module attributes looked up at call
time (``lf.simulate.run_scenario``), so the tracer's wrappers apply.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import time

import numpy as np

EPS = "<eps>"
BLANK = "<blk>"


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Record:
    """Outcome of one timed phase: per-op latencies, failures and windows."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.bad = 0  # failed ops that are not robustness probes
        self.probes = 0
        self.probe_failed = 0
        self.latencies = []
        self.windows = []  # (start_ns, end_ns) per op, for trace coverage
        self.errors = []
        self.digests = []

    def fail(self, count, message, probe=False):
        self.failed += count
        if probe:
            self.probe_failed += count
        else:
            self.bad += count
        if len(self.errors) < 20:
            self.errors.append(message)


def _seq_problem(text, vocab):
    """Why a transcription line breaks the invariants, or None."""
    toks = text.split()
    if EPS in toks:
        return "output contains <eps>"
    stray = [t for t in toks if t not in vocab]
    if stray:
        return f"tokens outside the vocabulary: {stray[:3]}"
    return None


class Workload:
    """Shared shape: numbered units run by ``worker.timed_phase``.

    ``STRIDE``: a timed phase ends only after a multiple of this many units.
    ``WARMUP_UNITS``: untimed units run before the traced run's slices.
    ``REFERENCE_UNITS``: units whose output digests ``--write-reference``
    records.
    """

    STRIDE = 1
    WARMUP_UNITS = 1

    def __init__(self, lf, seed, workdir, refs):
        self.lf, self.seed, self.workdir, self.refs = lf, seed, workdir, refs

    def begin(self):
        """Called before a timed phase."""

    def end(self):
        """Called after a timed phase, also when it raised."""

    def finish(self, rec):
        """Completes the units of a phase still pending (inside the timing)."""

    def medium_pairs(self, stream, lengths, count):
        """``count`` (truth, image WG, audio WG) at the calibrated Medium rate.

        Truth lengths cycle through ``lengths``; the seed picks the tokens
        and the corruption.  Returns the pairs, the RNG for further inputs
        and the vocabulary tokens.
        """
        sim = self.lf.simulate
        spec = sim.ScenarioSpec("Medium", "Medium", seed=self.seed)
        rate = sim.calibrated_rate(spec, "Medium")
        tokens = sim.default_vocabulary(spec.vocab_size).tokens
        rng = np.random.default_rng([stream, self.seed])
        pairs = []
        for k in range(count):
            n = lengths[k % len(lengths)]
            truth = self.lf.SymbolSequence(
                tuple(tokens[j] for j in rng.integers(0, len(tokens), n)))
            pairs.append((truth,) + tuple(
                sim.generate_wg_pair(truth, rate, rate, spec, rng)))
        return pairs, rng, tokens


class Grid(Workload):
    """The simulate grid through the public API.

    Setup calibrates the three noise levels on the default specs.  Unit
    ``i`` runs scenario ``i % 9`` of ``grid_specs`` with scenario id
    ``i + 1`` (so every pass over the nine specs draws fresh trials), and
    the ninth unit of a pass writes the pass's reports with
    ``write_grid_reports``.  One op is one trial.

    Truth lengths follow a fixed schedule instead of the default uniform
    10-30 draw: unit ``i`` uses length ``LENGTHS[(i + i // 9) % 3]``, so
    every three units cover short, middle and long trials and each scenario
    meets each length once per three passes.  The three lengths match the
    default range's mean squared length, which sets the MBR and alignment
    cost; with random lengths a 30 s run's throughput moved by 14% from
    seed to seed.
    """

    name = "grid"
    TRIALS = 3
    LENGTHS = (12, 20, 28)
    STRIDE = 3  # units 3j..3j+2 hold one trial group of each length
    REFERENCE_UNITS = 72

    def __init__(self, *args):
        super().__init__(*args)
        self.out_dir = os.path.join(self.workdir, "reports")
        self.pending = []
        self.marks = []

    def setup(self):
        sim = self.lf.simulate
        specs = sim.grid_specs(trials=self.TRIALS, seed=self.seed)
        self.rates = {
            lv: sim.calibrated_rate(specs[0], lv) for lv in sim.LEVELS
        }
        self.specs = [
            [dataclasses.replace(spec, sequence_length_range=(n, n))
             for n in self.LENGTHS]
            for spec in specs
        ]
        self.n_alpha = len(sim.DEFAULT_ALPHA_GRID)
        self.n_methods = len(self.lf.fusion.METHODS)

    def begin(self):
        # A timestamp per trial: run_scenario draws each trial's lattices
        # with one generate_wg_pair call looked up in the simulate module.
        sim = self.lf.simulate
        self._orig_gen = sim.generate_wg_pair
        marks, gen, clock = self.marks, self._orig_gen, time.perf_counter_ns

        def stamped(*args, **kwargs):
            marks.append(clock())
            return gen(*args, **kwargs)

        sim.generate_wg_pair = stamped

    def end(self):
        self.lf.simulate.generate_wg_pair = self._orig_gen

    def run_unit(self, i, rec):
        npass, k = divmod(i, len(self.specs))
        spec = self.specs[k][(i + npass) % len(self.LENGTHS)]
        sid = i + 1
        self.marks.clear()
        t0 = time.perf_counter_ns()
        try:
            report = self.lf.simulate.run_scenario(
                spec, sid,
                noise_rates=(self.rates[spec.image_level],
                             self.rates[spec.audio_level]),
            )
        except Exception as exc:
            rec.fail(spec.trials, f"scenario {sid}: {exc!r}")
            report = None
        t1 = time.perf_counter_ns()
        rec.ops += spec.trials
        rec.windows.append((t0, t1))
        marks = list(self.marks)
        if len(marks) == spec.trials:
            bounds = [t0] + marks[1:] + [t1]
            rec.latencies += [(b - a) / 1e9 for a, b in zip(bounds, bounds[1:])]
        else:
            # trials not observable one by one: split the scenario evenly
            rec.latencies += [(t1 - t0) / 1e9 / spec.trials] * spec.trials
        if report is not None:
            self.pending.append((sid, spec.trials, report))
        if i % len(self.specs) == len(self.specs) - 1:
            self.flush(rec)

    def finish(self, rec):
        self.flush(rec)

    def flush(self, rec):
        if not self.pending:
            return
        try:
            self.lf.simulate.write_grid_reports(
                [r for _, _, r in self.pending], self.out_dir)
        except Exception as exc:
            for sid, trials, _ in self.pending:
                rec.fail(trials, f"scenario {sid} reports: {exc!r}")
            self.pending = []
            return
        for sid, trials, _ in self.pending:
            path = os.path.join(self.out_dir, f"scenario_{sid}.txt")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            d = digest(text)
            rec.digests.append(d)
            problem = self.check(sid, text, d)
            if problem:
                rec.fail(trials, f"scenario {sid}: {problem}")
        self.pending = []

    def check(self, sid, text, d):
        if self.refs is not None and sid <= len(self.refs):
            return None if d == self.refs[sid - 1] else "report digest mismatch"
        results = 0
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in ("METHOD", "BEST"):
                value = float(parts[parts.index("SER") + 1])
                if not (math.isfinite(value) and value >= 0):
                    return f"bad SER {value!r}"
                results += parts[0] == "METHOD"
        if results != 2 + self.n_methods * self.n_alpha:
            return f"{results} METHOD lines"
        return None


class LongPairs(Workload):
    """Long sausage pairs fused by lightly (both ways), global and local.

    Pair lengths follow a fixed schedule so every seed gets the same mix of
    sizes; the seed picks the tokens and the corruption.  MBR is left out:
    this workload exercises the quadratic and cubic pure-Python DPs.
    """

    name = "long_pairs"
    LENGTHS = tuple(range(24, 41, 2))
    PAIRS = 72
    METHODS = ("lightly_ia", "lightly_ai", "global", "local")
    REFERENCE_UNITS = PAIRS

    def setup(self):
        pairs, _, tokens = self.medium_pairs(0x10E6, self.LENGTHS, self.PAIRS)
        self.pairs = [(wg_i, wg_a) for _, wg_i, wg_a in pairs]
        self.vocab = set(tokens)
        self.configs = [self.lf.fusion.FusionConfig(alpha=0.5, method=m)
                        for m in self.METHODS]

    def run_unit(self, i, rec):
        k = i % len(self.pairs)
        wg_i, wg_a = self.pairs[k]
        t0 = time.perf_counter_ns()
        try:
            outs = [self.lf.fusion.run_fusion(wg_i, wg_a, cfg)
                    for cfg in self.configs]
        except Exception as exc:
            outs = exc
        t1 = time.perf_counter_ns()
        rec.ops += 1
        rec.windows.append((t0, t1))
        rec.latencies.append((t1 - t0) / 1e9)
        if isinstance(outs, Exception):
            rec.fail(1, f"pair {k}: {outs!r}")
            return
        got = [digest(o.to_text()) for o in outs]
        rec.digests.append(" ".join(got))
        if self.refs is not None and k < len(self.refs):
            if " ".join(got) != self.refs[k]:
                rec.fail(1, f"pair {k}: fused output digest mismatch")
            return
        for method, out in zip(self.METHODS, outs):
            problem = _seq_problem(out.to_text(), self.vocab) or (
                "empty output" if not out.labels else None)
            if problem:
                rec.fail(1, f"pair {k} {method}: {problem}")
                return


class CliMix(Workload):
    """In-process ``latfuse.cli.run`` calls over short generated files.

    Unit ``i`` makes call ``i % 14`` of the rotation on input set
    ``(i // 14) % SETS``.  The last four calls are malformed-input probes;
    a probe passes on exit code 2 or 3 with nothing escaping ``run``.
    """

    name = "cli_mix"
    SETS = 32
    LENGTHS = tuple(range(5, 13))
    METHOD_FLAGS = ("mbr", "lightly-ia", "lightly-ai", "global", "local")
    NORMAL = 10  # calls before the four probes in each rotation
    REFERENCE_UNITS = SETS * (NORMAL + 4)
    STRIDE = NORMAL + 4  # whole rotations
    WARMUP_UNITS = NORMAL + 4

    def setup(self):
        formats = self.lf.formats
        pairs, rng, tokens = self.medium_pairs(0xC11, self.LENGTHS, self.SETS)
        self.vocab = set(tokens)
        self.dir = os.path.join(self.workdir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.calls = []
        for k, (truth, wg_i, wg_a) in enumerate(pairs):
            n = len(truth)
            f = {}

            def put(name, text, f=f, k=k):
                path = os.path.join(self.dir, f"set{k}_{name}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                f[name] = path

            image = formats.write_wg(wg_i, name="image")
            put("image.wg", image)
            put("audio.wg", formats.write_wg(wg_a, name="audio"))
            labels = (BLANK,) + tuple(sorted(set(truth.labels)))[:4]
            pg_rows = rng.dirichlet(np.full(len(labels), 0.5), size=n)
            put("pg.txt", formats.write_pg(
                self.lf.Posteriorgram(labels, pg_rows), name="pg"))
            refs = [self._random_seq(rng, tokens) for _ in range(12)]
            hyps = [self._corrupt(rng, r, tokens) for r in refs]
            put("ref.txt", "".join(" ".join(r) + "\n" for r in refs))
            put("hyp.txt", "".join(" ".join(h) + "\n" for h in hyps))
            put("a.txt", "".join(f"{v:.6f}\n" for v in rng.random(12)))
            put("b.txt", "".join(f"{v:.6f}\n" for v in rng.random(12)))

            lines = image.splitlines()
            nv = wg_i.num_vertices
            final = max(wg_i.finals)
            tok = tokens[int(rng.integers(0, len(tokens)))]
            put("probe_vertex.wg", "\n".join(
                lines[:-1] + [f"E 0 {nv + 5} {tok} 0.5", "END"]) + "\n")
            first_edge = next(j for j, l in enumerate(lines) if l.startswith("E "))
            parts = lines[first_edge].split()
            zero = list(lines)
            zero[first_edge] = " ".join(parts[:4] + ["0"])
            put("probe_zero.wg", "\n".join(zero) + "\n")
            leave = [f"V {nv + 1}" if l.startswith("V ") else l
                     for l in lines[:-1]]
            put("probe_final.wg", "\n".join(
                leave + [f"E {final} {nv} {tok} 0.5", "END"]) + "\n")
            nan_rows = ["ROW " + " ".join(f"{p:.12g}" for p in (q, 1 - q))
                        for q in rng.random(n)]
            nan_rows[int(rng.integers(0, n))] = "ROW nan nan"
            put("probe_nan.pg", "\n".join(
                ["PG probe", f"LABELS {BLANK} {tok}"] + nan_rows + ["END"]) + "\n")

            calls = [("fuse", ["fuse", "--method", m, "--image", f["image.wg"],
                               "--audio", f["audio.wg"]])
                     for m in self.METHOD_FLAGS]
            calls += [
                ("best", ["wg-best-path", "--wg", f["image.wg"]]),
                ("cn", ["wg-to-cn", "--wg", f["audio.wg"]]),
                ("greedy", ["decode-greedy", "--pg", f["pg.txt"]]),
                ("ser", ["eval-ser", "--hyp", f["hyp.txt"], "--ref", f["ref.txt"]]),
                ("wilcoxon", ["wilcoxon", "--a", f["a.txt"], "--b", f["b.txt"]]),
                ("probe", ["wg-best-path", "--wg", f["probe_vertex.wg"]]),
                ("probe", ["wg-best-path", "--wg", f["probe_zero.wg"]]),
                ("probe", ["wg-best-path", "--wg", f["probe_final.wg"]]),
                ("probe", ["decode-greedy", "--pg", f["probe_nan.pg"]]),
            ]
            self.calls.append(calls)
        self.rotation = len(self.calls[0])

    @staticmethod
    def _random_seq(rng, tokens):
        n = int(rng.integers(5, 13))
        return [tokens[j] for j in rng.integers(0, len(tokens), n)]

    @staticmethod
    def _corrupt(rng, ref, tokens):
        out = []
        for tok in ref:
            u = rng.random()
            if u < 0.1:
                continue
            out.append(tokens[int(rng.integers(0, len(tokens)))] if u < 0.2
                       else tok)
        return out

    def run_unit(self, i, rec):
        k = (i // self.rotation) % len(self.calls)
        j = i % self.rotation
        kind, argv = self.calls[k][j]
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                code = self.lf.cli.run(argv)
            except Exception as exc:
                code, escaped = None, exc
            t1 = time.perf_counter_ns()
        rec.ops += 1
        rec.windows.append((t0, t1))
        rec.latencies.append((t1 - t0) / 1e9)
        where = f"set {k} {' '.join(argv[:1])} #{j}"
        if kind == "probe":
            rec.probes += 1
            if escaped is not None:
                rec.fail(1, f"probe {where}: uncaught {escaped!r}", probe=True)
            elif code not in (2, 3) or "Traceback" in err.getvalue():
                rec.fail(1, f"probe {where}: exit {code}", probe=True)
            return
        if escaped is not None:
            rec.fail(1, f"{where}: uncaught {escaped!r}")
            return
        text = out.getvalue()
        d = digest(f"{code}\n{text}")
        rec.digests.append(d)
        unit = k * self.NORMAL + j
        if self.refs is not None and unit < len(self.refs):
            if d != self.refs[unit]:
                rec.fail(1, f"{where}: exit code/stdout digest mismatch")
            return
        problem = "exit code %r" % code if code != 0 else self.check(kind, text)
        if problem:
            rec.fail(1, f"{where}: {problem}")

    def check(self, kind, text):
        lines = text.splitlines()
        if not lines:
            return "no output"
        if kind in ("fuse", "best", "greedy"):
            return _seq_problem(lines[0], self.vocab)
        if kind == "cn":
            for line in lines:
                parts = line.split()
                if parts[0] == "A" and (
                        parts[1] not in self.vocab and parts[1] != EPS):
                    return f"bad CN label {parts[1]!r}"
            return None
        if kind == "ser":
            value = float(lines[0].split()[1])
            return None if value >= 0 else f"negative SER {value}"
        p = float(lines[0].split()[5])
        return None if 0.0 <= p <= 1.0 else f"p-value {p} outside [0, 1]"


WORKLOADS = {w.name: w for w in (Grid, LongPairs, CliMix)}
