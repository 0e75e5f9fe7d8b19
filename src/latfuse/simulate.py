"""Synthetic paired-lattice generation and the nine-scenario evaluation grid.

Ground-truth sequences are corrupted independently per modality (substitution,
deletion, insertion) into a 1-best "spine", and each spine position is wrapped
in a sausage of scored alternatives.  The spine always carries the largest
score, so the unimodal best path equals the spine and its error rate is
controlled by the corruption rate alone; a bisection calibrates that rate to
the High/Medium/Low targets.  Errors keep the true label among their
alternatives most of the time and get flatter score distributions than
correct positions, which is the in-lattice recoverability the fusion
strategies exploit.

Per-trial RNG streams are derived by counter from the master seed, so runs
are bit-reproducible regardless of how trials would be scheduled.
"""

import functools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .align import _pair_masks, _paired_distances, edit_distance
from .formats import format_score, write_transcriptions, write_wg
from .fusion import METHODS, PREPARE_METHOD, FusionConfig
from .lattice import (
    Edge, SymbolSequence, Vocabulary, WordGraph, _require_integer, best_path)
from .metrics import result_line, wilcoxon_signed_rank

LEVELS = ("High", "Medium", "Low")

#: Target unimodal symbol error rates per difficulty level, in percent.
LEVEL_TARGET_SER = {"High": 27.0, "Medium": 17.0, "Low": 7.0}

CALIBRATION_CORPUS_SIZE = 500
CALIBRATION_TOLERANCE = 0.5
CALIBRATION_MAX_ITERS = 30

DEFAULT_ALPHA_STEP = 0.1

# Error split among corruption event kinds.
_P_SUB, _P_DEL = 0.5, 0.25  # remainder: insertion

# Dirichlet-style concentration (spine slot, other slots): correct positions
# get a confident spine, corrupted ones a flatter, less confident column.
_CORRECT_CONC = (8.0, 1.0)
_ERROR_CONC = (2.0, 1.2)

# Sausage shape: alternatives per spine position, and the chance that a
# corrupted position keeps its true label among them.
_BRANCHING = 3
_TRUTH_IN_LATTICE_PROB = 0.9

# Systematic-confusion neighborhood: a substitution error replaces a token
# with one at most this many vocabulary positions away, and sausage
# alternatives come from the same neighborhood of the emitted label.  Shared
# neighborhoods across modalities are what let one modality's errors surface
# in the other's lattice, as real recognizer confusions do.
_CONFUSION_WIDTH = 2
_NEIGHBOR_OFFSETS = tuple(
    off for off in range(-_CONFUSION_WIDTH, _CONFUSION_WIDTH + 1) if off != 0)

# Upper bound (exclusive) of the substitution and insertion picks.
_INT64_MAX = np.iinfo(np.int64).max

# Stream tags so calibration and trial RNG streams never collide.
_CAL_STREAM = 0xCA11B
_TRIAL_STREAM = 0x7121A1


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the difficulty grid plus the corpus it is run on.

    The counts (``trials``, ``vocab_size``, ``seed`` and both length bounds)
    are integers; a bool is not one.  ``seed`` must be >= 0.
    """

    image_level: str
    audio_level: str
    trials: int = 50
    sequence_length_range: tuple = (10, 30)
    vocab_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.image_level not in LEVELS or self.audio_level not in LEVELS:
            raise ValueError(f"levels must be one of {LEVELS}")
        lo, hi = self.sequence_length_range
        for name, value in (
            ("trials", self.trials),
            ("vocab_size", self.vocab_size),
            ("seed", self.seed),
            ("sequence_length_range bound", lo),
            ("sequence_length_range bound", hi),
        ):
            _require_integer(name, value)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= lo <= hi:
            raise ValueError("bad sequence_length_range")
        if self.vocab_size <= 2 * _CONFUSION_WIDTH:
            raise ValueError("vocab_size too small for the confusion neighborhood")


@functools.cache
def default_vocabulary(size: int) -> Vocabulary:
    """``sym000``, ``sym001``, ...: one shared instance per ``size``."""
    width = max(3, len(str(size - 1)))
    return Vocabulary(tuple(f"sym{i:0{width}d}" for i in range(size)))


def _draw_corruption(n: int, rng) -> dict:
    """Pre-draw all per-position randomness one corruption pass can need.

    Fixing these draws makes the corrupted output a deterministic, monotone
    function of the noise rate, which is what the calibration bisection
    relies on.
    """
    return {
        "u_err": rng.random(n),
        "u_type": rng.random(n),
        # read by nothing; dropping it shifts every later draw and report digest
        "u_truth": rng.random(n),
        "sub_pick": rng.integers(0, _INT64_MAX, n),
        "ins_pick": rng.integers(0, _INT64_MAX, n),
    }


class _Outcomes(NamedTuple):
    """What corruption does to each truth position of a batch, at any rate.

    Position t of row k has two spine slots, in spine order: slot 0 holds
    the error label (a substitute, or a token inserted before the truth;
    never emitted for a deletion) and slot 1 the truth label.  ``on_error``
    and ``clean`` say which slots a position emits when it is corrupted
    (``u_err < rate``) and when it is not.  Ids are vocabulary indices, and
    -1 pads rows to the longest truth.
    """

    truths: np.ndarray  # (n, L) truth ids
    lens: np.ndarray  # (n,) truth lengths
    u_err: np.ndarray  # (n, L); inf at padding, so padding is never corrupted
    labels: np.ndarray  # (n, L, 2) slot label ids
    hints: np.ndarray  # (n, L, 2) truth under each slot; -1 for an insertion
    on_error: np.ndarray  # (n, L, 2) bool
    clean: np.ndarray  # (n, L, 2) bool


def _outcomes(truths: list, draws: list, size: int) -> _Outcomes:
    """The rate-independent half of the corruption rule, over a batch.

    ``truths`` holds id arrays and ``draws`` their ``_draw_corruption``
    dicts.  A corrupted position is substituted when ``u_type < _P_SUB``
    (by the neighbor ``sub_pick`` selects), deleted when ``u_type <
    _P_SUB + _P_DEL``, and otherwise keeps its label after the token
    ``ins_pick`` selects from the whole vocabulary.
    """
    lens = np.fromiter(map(len, truths), dtype=np.int64, count=len(truths))
    real = np.arange(lens.max(initial=0)) < lens[:, None]

    def pad(flat, fill):
        mat = np.full(real.shape, fill, dtype=flat.dtype)
        mat[real] = flat
        return mat

    def draw(key):
        return np.concatenate([d[key] for d in draws])

    truth = np.concatenate(truths)
    u_type = draw("u_type")
    is_sub = u_type < _P_SUB
    is_ins = u_type >= _P_SUB + _P_DEL
    steps = np.take(_NEIGHBOR_OFFSETS, draw("sub_pick") % len(_NEIGHBOR_OFFSETS))
    alt = np.where(is_sub, (truth + steps) % size, draw("ins_pick") % size)
    truth, alt, is_sub, is_ins = (pad(truth, -1), pad(alt, -1),
                                  pad(is_sub, False), pad(is_ins, False))
    return _Outcomes(
        truth, lens, pad(draw("u_err"), np.inf),
        labels=np.stack((alt, truth), axis=-1),
        hints=np.stack((np.where(is_sub, truth, -1), truth), axis=-1),
        on_error=np.stack((is_sub | is_ins, is_ins), axis=-1),
        clean=np.stack((np.zeros_like(real), real), axis=-1),
    )


def _spines(out: _Outcomes, rate: float) -> tuple:
    """The rate-dependent half: which slots each row's spine keeps.

    Returns ``(emit, lens)``: ``emit`` is an ``(n, 2L)`` bool mask over the
    slots in spine order, and ``lens`` the spine lengths.  A spine is never
    empty: a row whose every position is deleted keeps its truth's last
    label, as a correct position.
    """
    n = len(out.lens)
    emit = np.where((out.u_err < rate)[..., None], out.on_error,
                    out.clean).reshape(n, -1)
    lens = np.count_nonzero(emit, axis=1)
    empty = np.flatnonzero(lens == 0)
    emit[empty, 2 * out.lens[empty] - 1] = True
    lens[empty] = 1
    return emit, lens


def _spine_rows(out: _Outcomes, rate: float) -> list:
    """Each row's spine at ``rate`` as ``(label ids, hint ids, error
    flags)`` lists, ``_wrap_sausage``'s input."""
    emit, lens = _spines(out, rate)
    n = len(out.lens)
    rows = np.nonzero(emit)
    fields = (out.labels.reshape(n, -1)[rows].tolist(),
              out.hints.reshape(n, -1)[rows].tolist(),
              (rows[1] % 2 == 0).tolist())  # slot 0 is the error slot
    ends = np.cumsum(lens).tolist()
    return [tuple(f[e - k:e] for f in fields) for k, e in zip(lens.tolist(), ends)]


def _wrap_sausage(spine: tuple, rng, vocab: Vocabulary) -> WordGraph:
    """Wrap spine positions in scored alternative sets, one sausage segment each.

    ``spine`` is ``(label ids, truth-hint ids, error flags)``, a hint of -1
    marking an insertion.  Alternatives beyond the spine label (and the
    optionally injected true label) come from the spine label's confusion
    neighborhood.
    """
    tokens = vocab.tokens
    edges = []
    for t, (lab, hint, is_err) in enumerate(zip(*spine)):
        alts = [tokens[lab]]
        if (
            hint >= 0
            and hint != lab
            and rng.random() < _TRUTH_IN_LATTICE_PROB
        ):
            alts.append(tokens[hint])
        while len(alts) < _BRANCHING:
            off = _NEIGHBOR_OFFSETS[rng.integers(0, len(_NEIGHBOR_OFFSETS))]
            cand = tokens[(lab + off) % len(tokens)]
            if cand not in alts:
                alts.append(cand)
        c0, c1 = _ERROR_CONC if is_err else _CORRECT_CONC
        conc = np.full(len(alts), c1)
        conc[0] = c0
        weights = rng.dirichlet(conc)
        weights = np.clip(weights, 1e-12, None)
        weights /= weights.sum()
        # the spine label must carry the largest score so the best path
        # reproduces the spine; ranks keep truth second when present
        weights = np.sort(weights)[::-1]
        for a, w in zip(alts, weights):
            edges.append(Edge(t, t + 1, a, float(min(w, 1.0))))
    n = len(spine[0])
    return WordGraph(n + 1, 0, frozenset({n}), tuple(edges))


def generate_wg_pair(
    truth: SymbolSequence,
    noise_i: float,
    noise_a: float,
    spec: ScenarioSpec,
    rng,
) -> tuple[WordGraph, WordGraph]:
    """Independently corrupted image/audio sausage lattices for one truth."""
    if len(truth.labels) == 0:
        raise ValueError("empty truth sequence")
    if not (0.0 <= noise_i < 1.0 and 0.0 <= noise_a < 1.0):
        raise ValueError("noise rates must be in [0, 1)")
    vocab = default_vocabulary(spec.vocab_size)
    ids = [vocab._index.get(lab) for lab in truth.labels]
    if None in ids:
        lab = truth.labels[ids.index(None)]
        raise ValueError(f"truth label {lab!r} is not in the spec's vocabulary")
    ids = np.array(ids, dtype=np.int64)
    out = []
    for rate in (noise_i, noise_a):
        draws = _draw_corruption(len(ids), rng)
        (spine,) = _spine_rows(_outcomes([ids], [draws], len(vocab)), rate)
        out.append(_wrap_sausage(spine, rng, vocab))
    return out[0], out[1]


def _draw_truth(spec: ScenarioSpec, rng) -> np.ndarray:
    """Truth vocabulary ids: the length, then the ids, from ``rng``."""
    lo, hi = spec.sequence_length_range
    n = int(rng.integers(lo, hi + 1))
    return rng.integers(0, spec.vocab_size, n)


def _calibration_corpus(spec: ScenarioSpec, rng) -> _Outcomes:
    """Fixed truths plus frozen corruption draws for rate bisection, as the
    outcomes of each position at any rate."""
    truths, draws = [], []
    for _ in range(CALIBRATION_CORPUS_SIZE):
        truths.append(_draw_truth(spec, rng))
        draws.append(_draw_corruption(len(truths[-1]), rng))
    return _outcomes(truths, draws, spec.vocab_size)


def _spine_ser(corpus: _Outcomes):
    """The pooled spine SER of ``corpus`` in percent, as a function of the
    rate: every spine against its truth in one paired Myers pass.

    The truths' equality masks are built once for both slots of every
    position; a rate then only selects and packs the kept slots.
    """
    n = len(corpus.lens)
    masks = _pair_masks(corpus.truths, corpus.labels)
    masks = masks.reshape(len(masks), n, -1)  # (words, rows, slots in order)
    den = int(corpus.lens.sum())

    def ser(rate: float) -> float:
        emit, lens = _spines(corpus, rate)
        eq = np.zeros((len(masks), n, lens.max(initial=0)), dtype=np.uint64)
        eq[:, np.arange(eq.shape[2]) < lens[:, None]] = masks[:, emit]
        return 100.0 * int(_paired_distances(eq, lens, corpus.lens).sum()) / den

    return ser


def _bisect_rate(target: float, ser) -> float:
    """Bisect the rate in [0, 0.95] until ``ser(rate)`` is within
    ``CALIBRATION_TOLERANCE`` of ``target``, or for at most
    ``CALIBRATION_MAX_ITERS`` steps; returns the best rate found."""
    lo, hi = 0.0, 0.95
    best_rate, best_err = 0.0, abs(target)
    for _ in range(CALIBRATION_MAX_ITERS):
        mid = (lo + hi) / 2.0
        measured = ser(mid)
        err = abs(measured - target)
        if err < best_err:
            best_rate, best_err = mid, err
        if err <= CALIBRATION_TOLERANCE:
            break
        if measured < target:
            lo = mid
        else:
            hi = mid
    return best_rate


def calibrate_noise(target: float, spec: ScenarioSpec, rng) -> float:
    """Bisect the corruption rate until the unimodal SER hits ``target``.

    Measured on a fixed 500-sequence corpus whose spine equals the best path
    by construction.  Stops within +/- 0.5 SER points of the target or after
    30 iterations, returning the best rate found.  Deterministic given the
    RNG stream.
    """
    if not 0.0 <= target < 100.0:
        raise ValueError("target SER must be in [0, 100)")
    if target == 0.0:
        return 0.0
    return _bisect_rate(target, _spine_ser(_calibration_corpus(spec, rng)))


def alpha_grid_from_step(step: float) -> tuple:
    """Interior alpha grid {step, 2*step, ...}: every multiple, rounded to 10
    decimals, that lies strictly inside (0, 1)."""
    if not 0.0 < step < 1.0:
        raise ValueError("alpha step must be in (0, 1)")
    if not 0.0 < round(step, 10) < 1.0:
        raise ValueError("alpha step leaves no interior grid points")
    multiples = (round(k * step, 10) for k in range(1, int(1.0 / step) + 2))
    return tuple(a for a in multiples if a < 1.0)


DEFAULT_ALPHA_GRID = alpha_grid_from_step(DEFAULT_ALPHA_STEP)


def grid_specs(trials: int, seed: int) -> list:
    """The standard nine scenarios: image level major, audio level minor."""
    return [
        ScenarioSpec(image_level=li, audio_level=la, trials=trials, seed=seed)
        for li in LEVELS
        for la in LEVELS
    ]


@dataclass
class ScenarioReport:
    """SER results and paired significance statistics for one scenario."""

    scenario_id: int
    spec: ScenarioSpec
    noise_image: float
    noise_audio: float
    alpha_grid: tuple
    baseline_ser: dict
    cells: dict
    best_alpha: dict
    wilcoxon: dict

    def __post_init__(self):
        for v in (*self.baseline_ser.values(), *self.cells.values()):
            if not v >= 0:  # also rejects NaN
                raise ValueError(f"SER must be a number >= 0, got {v!r}")


def _rng(stream: int, *key: int):
    """The generator for ``key`` on the stream tagged ``stream``."""
    return np.random.default_rng(np.random.SeedSequence([stream, *key]))


def _trial_sample(
    spec: ScenarioSpec, scenario_id: int, trial: int, noise_i: float, noise_a: float
):
    """Deterministic (truth, image WG, audio WG) for one trial counter."""
    rng = _rng(_TRIAL_STREAM, spec.seed, scenario_id, trial)
    tokens = default_vocabulary(spec.vocab_size).tokens
    truth = SymbolSequence(tuple(tokens[i] for i in _draw_truth(spec, rng)))
    wg_i, wg_a = generate_wg_pair(truth, noise_i, noise_a, spec, rng)
    return truth, wg_i, wg_a


def _pooled(trials: list) -> float:
    num = sum(e for e, _ in trials)
    den = sum(n for _, n in trials)
    return 100.0 * num / den


def _per_trial(trials: list) -> list:
    return [100.0 * e / n for e, n in trials]


def run_scenario(
    spec: ScenarioSpec,
    scenario_id: int,
    noise_rates: tuple,
    alpha_grid=DEFAULT_ALPHA_GRID,
) -> ScenarioReport:
    """Generate one scenario's corpus and evaluate baselines and ``METHODS``.

    ``noise_rates`` are the (image, audio) corruption rates, as
    ``calibrated_rate`` gives them for the spec's two levels; ``alpha_grid``
    holds one or more distinct values inside (0, 1).
    """
    if not alpha_grid or len(set(alpha_grid)) != len(alpha_grid):
        raise ValueError("alpha grid must be non-empty, without repeats")
    for a in alpha_grid:
        if not 0.0 < a < 1.0:
            raise ValueError("alpha grid values must lie in (0, 1)")
    noise_i, noise_a = noise_rates

    cfg = FusionConfig()
    baseline_trials = {"image": [], "audio": []}
    cell_trials = {(m, a): [] for m in METHODS for a in alpha_grid}
    for t in range(spec.trials):
        truth, wg_i, wg_a = _trial_sample(spec, scenario_id, t, noise_i, noise_a)
        n = len(truth.labels)
        errors = {}  # label tuple -> edit distance to truth, per trial

        def record(bucket, hyp):
            if hyp.labels not in errors:
                errors[hyp.labels] = edit_distance(hyp, truth)
            bucket.append((errors[hyp.labels], n))

        seq_i, _ = best_path(wg_i)
        seq_a, _ = best_path(wg_a)
        record(baseline_trials["image"], seq_i)
        record(baseline_trials["audio"], seq_a)

        for m in METHODS:
            decode = PREPARE_METHOD[m](wg_i, wg_a, cfg)
            for a in alpha_grid:
                record(cell_trials[(m, a)], decode(a))

    baseline_ser = {k: _pooled(v) for k, v in baseline_trials.items()}
    cells = {key: _pooled(v) for key, v in cell_trials.items()}
    best_alpha = {
        m: min(alpha_grid, key=lambda a: (cells[(m, a)], a)) for m in METHODS
    }
    wilcoxon = {}
    for m in METHODS:
        vec = _per_trial(cell_trials[(m, best_alpha[m])])
        for base in ("image", "audio"):
            base_vec = _per_trial(baseline_trials[base])
            try:
                wilcoxon[(m, base)] = wilcoxon_signed_rank(vec, base_vec)
            except ValueError:
                wilcoxon[(m, base)] = None

    return ScenarioReport(
        scenario_id=scenario_id,
        spec=spec,
        noise_image=noise_i,
        noise_audio=noise_a,
        alpha_grid=tuple(alpha_grid),
        baseline_ser=baseline_ser,
        cells=cells,
        best_alpha=best_alpha,
        wilcoxon=wilcoxon,
    )


def _level(level: str) -> tuple:
    """A level's target SER and its index, which keys its calibration stream."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, not {level!r}")
    return LEVEL_TARGET_SER[level], LEVELS.index(level)


def calibrated_rate(spec: ScenarioSpec, level: str) -> float:
    """Noise rate for a difficulty level, from its own deterministic stream."""
    target, index = _level(level)
    return calibrate_noise(target, spec, _rng(_CAL_STREAM, spec.seed, index))


def measure_calibrated_level(spec: ScenarioSpec, level: str) -> tuple:
    """Calibrate a level, then decode its 500-sequence corpus end to end.

    Bisects over the level's corpus as ``calibrated_rate`` does, wraps every
    corrupted spine in a full sausage lattice, best-path decodes it, and
    pools the SER.  Returns (rate, measured SER); deterministic per seed.
    """
    target, index = _level(level)
    corpus = _calibration_corpus(spec, _rng(_CAL_STREAM, spec.seed, index))
    rate = _bisect_rate(target, _spine_ser(corpus))
    wrap_rng = _rng(_CAL_STREAM, spec.seed, index, 1)
    vocab = default_vocabulary(spec.vocab_size)
    num = 0
    for truth, n, spine in zip(corpus.truths.tolist(), corpus.lens.tolist(),
                               _spine_rows(corpus, rate)):
        hyp, _ = best_path(_wrap_sausage(spine, wrap_rng, vocab))
        num += edit_distance(hyp.labels, [vocab.tokens[i] for i in truth[:n]])
    return rate, 100.0 * num / int(corpus.lens.sum())


def run_scenario_grid(specs, alpha_grid=DEFAULT_ALPHA_GRID) -> list:
    """Run every scenario spec (numbered from 1) and collect the reports.

    Noise rates are calibrated once per distinct tuple of what calibration
    reads (level, seed, vocabulary size, length range) and shared across
    scenarios.
    """
    rate_cache = {}

    def rate_for(spec, level):
        key = (level, spec.seed, spec.vocab_size, spec.sequence_length_range)
        if key not in rate_cache:
            rate_cache[key] = calibrated_rate(spec, level)
        return rate_cache[key]

    return [
        run_scenario(spec, sid, alpha_grid=alpha_grid, noise_rates=(
            rate_for(spec, spec.image_level), rate_for(spec, spec.audio_level)))
        for sid, spec in enumerate(specs, start=1)
    ]


def format_report(report: ScenarioReport) -> str:
    """Deterministic per-scenario report text (machine-readable lines)."""
    spec = report.spec
    sid = report.scenario_id
    lines = [
        f"# scenario {sid}: image {spec.image_level} / audio {spec.audio_level}, "
        f"trials {spec.trials}, seed {spec.seed}",
        f"SCENARIO {sid} IMAGE {spec.image_level} AUDIO {spec.audio_level} "
        f"TRIALS {spec.trials} SEED {spec.seed}",
        f"NOISE image {format_score(report.noise_image)} "
        f"audio {format_score(report.noise_audio)}",
        result_line("image", sid, 1, report.baseline_ser["image"]),
        result_line("audio", sid, 0, report.baseline_ser["audio"]),
    ]
    methods = sorted({m for m, _ in report.cells})
    for m in methods:
        for a in report.alpha_grid:
            lines.append(result_line(m, sid, a, report.cells[(m, a)]))
    for m in methods:
        a = report.best_alpha[m]
        lines.append(
            f"BEST {m} SCENARIO {sid} ALPHA {format(a, 'g')} "
            f"SER {format_score(report.cells[(m, a)])}"
        )
    for m in methods:
        a = report.best_alpha[m]
        for base in ("image", "audio"):
            res = report.wilcoxon.get((m, base))
            head = f"WILCOXON {m} VS {base} SCENARIO {sid} ALPHA {format(a, 'g')}"
            if res is None:
                lines.append(f"{head} SKIPPED fewer-than-2-nonzero-differences")
            else:
                lines.append(
                    f"{head} W {format_score(res.statistic)} N {res.n_effective} "
                    f"P {format_score(res.p_value)} VERDICT {res.verdict}"
                )
    return "\n".join(lines) + "\n"


def format_summary(reports: list) -> str:
    """Aligned-column grid table of best corpus SERs across scenarios."""
    headers = ["method"] + [
        f"{r.scenario_id}_({r.spec.image_level[0]}-{r.spec.audio_level[0]})"
        for r in reports
    ]
    methods = sorted({m for r in reports for m, _ in r.cells})
    rows = []
    for base in ("image", "audio"):
        rows.append([base] + [f"{r.baseline_ser[base]:.2f}" for r in reports])
    for m in methods:
        rows.append(
            [m]
            + [f"{r.cells[(m, r.best_alpha[m])]:.2f}" for r in reports]
        )
    widths = [
        max(len(headers[c]), max(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    out = ["# best corpus SER per scenario (methods at their best alpha)"]
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def _write_files(out_dir: str, files: list) -> list:
    """Write ``(file name, text)`` pairs into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in files:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def write_grid_reports(reports: list, out_dir: str) -> list:
    """Write scenario_<id>.txt per report plus summary.txt; returns paths."""
    return _write_files(out_dir, [
        *((f"scenario_{r.scenario_id}.txt", format_report(r)) for r in reports),
        ("summary.txt", format_summary(reports)),
    ])


def dump_scenario_corpus(report: ScenarioReport, out_dir: str) -> list:
    """Replay a report's lattice corpus into WG text files plus references.

    Regenerates the exact per-trial lattices from the report's seed and
    noise rates (the RNG streams are counter-derived, so this is bit-faithful)
    and writes scenario_<id>_image.wg, _audio.wg and _refs.txt.
    """
    spec = report.spec
    sid = report.scenario_id
    image_parts, audio_parts, refs = [], [], []
    for t in range(spec.trials):
        truth, wg_i, wg_a = _trial_sample(
            spec, sid, t, report.noise_image, report.noise_audio
        )
        image_parts.append(write_wg(wg_i, name=f"trial{t}"))
        audio_parts.append(write_wg(wg_a, name=f"trial{t}"))
        refs.append(truth)
    return _write_files(out_dir, [
        (f"scenario_{sid}_image.wg", "".join(image_parts)),
        (f"scenario_{sid}_audio.wg", "".join(audio_parts)),
        (f"scenario_{sid}_refs.txt", write_transcriptions(refs)),
    ])
