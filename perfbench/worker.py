"""One workload process: import latfuse, set up, run the closed loop, report.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  (default)     set up, then measure for ``--seconds`` with tracing off
  --setup-only  set up and report the set-up time only
  --trace       traced set-up, a warm-up, then ``--seconds`` split into
                alternating untraced and traced slices over the same units
  --reference   run the first REFERENCE_UNITS units untimed, report digests
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SLICES = 4


def import_latfuse():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import latfuse
    import latfuse.cli  # the CLI and the formats module it loads

    if not os.path.abspath(latfuse.__file__).startswith(src + os.sep):
        raise SystemExit(f"latfuse imported from {latfuse.__file__}, not {src}")
    return latfuse


def timed_phase(wl, seconds, rec, first=0):
    """Run units ``first, first + 1, ...`` back to back until ``seconds``
    have passed; return (elapsed seconds, next unit number).

    The phase ends only after a whole group of ``wl.STRIDE`` units, so every
    run holds the workload's mix of unit sizes in full groups.
    """
    wl.begin()
    try:
        start = time.perf_counter()
        i = first
        while True:
            wl.run_unit(i, rec)
            i += 1
            if i % wl.STRIDE == 0 and time.perf_counter() - start >= seconds:
                break
        wl.finish(rec)
        return time.perf_counter() - start, i
    finally:
        wl.end()


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def uncovered_pct(tracer, windows):
    """Median over ops of the share of op time outside every layer span
    below the op's entry call (the entry's own self time counts as
    uncovered, since the trace cannot say where inside it time went)."""
    parent_of = {s[0]: s[1] for s in tracer.spans}
    inner = sorted(
        (s[3], s[4]) for s in tracer.spans
        if s[1] is not None and parent_of.get(s[1], 0) is None
        and s[2] != "trace.counter"
    )
    starts = [s for s, _ in inner]
    shares = []
    for w0, w1 in windows:
        if w1 <= w0:
            continue
        covered = 0
        k = max(0, bisect.bisect_left(starts, w0) - 1)
        while k < len(inner) and inner[k][0] < w1:
            s, e = inner[k]
            covered += max(0, min(e, w1) - max(s, w0))
            k += 1
        shares.append(100.0 * (w1 - w0 - covered) / (w1 - w0))
    return statistics.median(shares) if shares else 100.0


def run_units(wl, count, rec):
    """Run units 0 .. count - 1 untimed."""
    wl.begin()
    try:
        for i in range(count):
            wl.run_unit(i, rec)
        wl.finish(rec)
    finally:
        wl.end()


def traced_run(lf, wl, seconds, workdir, import_s):
    """Per-layer metrics: traced set-up, a warm-up, then alternating slices."""
    from tracer import Tracer
    from workloads import Record

    tracer = Tracer(lf)
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    # first-call costs fall on neither of the two compared kinds of slice
    warm = Record()
    run_units(wl, wl.WARMUP_UNITS, warm)
    # Untraced and traced slices alternate, each kind continuing its own
    # unit sequence, so both cover the same units and drift in machine
    # speed falls on both alike.
    plain, traced = Record(), Record()
    plain_s = traced_s = 0.0
    next_plain = next_traced = 0
    slice_s = seconds / (2 * TRACE_SLICES)
    for _ in range(TRACE_SLICES):
        el, next_plain = timed_phase(wl, slice_s, plain, next_plain)
        plain_s += el
        tracer.install()
        try:
            el, next_traced = timed_phase(wl, slice_s, traced, next_traced)
        finally:
            tracer.uninstall()
        traced_s += el
    layer = tracer.metrics()
    layer["setup.import_s"] = import_s
    layer["trace.overhead_pct"] = 100.0 * (
        (plain.ops / plain_s) / (traced.ops / traced_s) - 1.0)
    layer["trace.uncovered_pct"] = uncovered_pct(tracer, traced.windows)
    trace_path = os.path.join(os.path.dirname(workdir),
                              f"trace-{wl.name}.jsonl")
    tracer.write_jsonl(trace_path)
    return {"metrics": layer, "trace_file": trace_path,
            "samples": traced.ops}, [warm, plain, traced]


def measured_run(wl, seconds):
    """End-to-end metrics with tracing off."""
    from workloads import Record

    wl.setup()
    setup_s = time.perf_counter() - T_START
    rec = Record()
    elapsed, _ = timed_phase(wl, seconds, rec)
    lat = rec.latencies
    tail = p90(lat)
    metrics = {
        "ops_per_s": rec.ops / elapsed,
        "latency_ms.p50": 1e3 * statistics.median(lat),
        "latency_ms.p90": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "samples": len(lat),
            "beyond_p90": sum(1 for v in lat if v > tail),
            "elapsed_s": elapsed}, [rec]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--reference", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    lf = import_latfuse()
    import_s = time.perf_counter() - t_import

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, Record

    refs = None
    if not args.reference:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            refs = json.load(fh)["digests"][args.workload].get(str(args.seed))

    os.makedirs(args.workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](lf, args.seed, args.workdir, refs)
        if args.setup_only:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return
        if args.reference:
            wl.setup()
            rec = Record()
            run_units(wl, wl.REFERENCE_UNITS, rec)
            result, recs = {"digests": rec.digests}, [rec]
        elif args.trace:
            result, recs = traced_run(lf, wl, args.seconds, args.workdir,
                                      import_s)
        else:
            result, recs = measured_run(wl, args.seconds)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    import numpy
    import scipy

    result.update(
        attempted=sum(r.ops for r in recs),
        failed=sum(r.failed for r in recs),
        bad=sum(r.bad for r in recs),
        probes=sum(r.probes for r in recs),
        probe_failed=sum(r.probe_failed for r in recs),
        errors=[e for r in recs for e in r.errors][:20],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
