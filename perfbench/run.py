"""latfuse benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload grid --seed 7 --seconds 40 --trace 0

Run from the repository root.  Workloads: ``grid``, ``cli_mix`` and
``long_pairs``; the last is not listed in BENCHMARK.json because its
run-to-run spread on a small shared VM exceeds the bound.
``perfbench/layers.json`` says why each exists and which end-to-end metric
each layer metric should move.  ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` prints the per-layer metrics from a
separate traced run and writes its spans as JSON lines to
``perfbench/out/trace-<workload>.jsonl``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record (machine, versions, seed, sample count, src/ line count) goes to
``perfbench/out/record-<workload>-trace<0|1>.json``.

Each measurement runs in a fresh ``worker.py`` process, so ``setup_s``
(process start, before ``import latfuse``, to the first timed op) is the
median of SETUP_REPEATS processes: SETUP_REPEATS - 1 set-up-only ones plus
the measured one.

    python3 perfbench/run.py --write-reference [--workload NAME]

re-records the output digests in ``perfbench/reference.json`` for the
default seed and the held-out seed, from the code as it stands.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("grid", "long_pairs", "cli_mix")
DEFAULT_SEED = 7
HELD_OUT_SEED = 2027
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_worker(workload, seed, seconds, mode, deadline, tag):
    workdir = os.path.join(OUT, f"tmp-{workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", workdir]
    if mode:
        cmd.append(f"--{mode}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker ({mode or 'measure'}) ran past the deadline", 3)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{workload} worker ({mode or 'measure'}) exited "
             f"{proc.returncode}", 3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform()}


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def write_reference(workloads):
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    for workload in workloads:
        digests[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            res = run_worker(workload, seed, 0, "reference",
                             time.monotonic() + 3600, f"ref{seed}")
            if res["bad"]:
                fail(f"{workload} seed {seed}: outputs fail their invariants: "
                     f"{res['errors']}", 3)
            digests[workload][str(seed)] = res["digests"]
            print(f"{workload} seed {seed}: {len(res['digests'])} digests")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seeds": [DEFAULT_SEED, HELD_OUT_SEED], "digests": digests},
                  fh, indent=0)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "latfuse", "__init__.py")):
        fail(f"no latfuse sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    os.makedirs(OUT, exist_ok=True)
    if args.write_reference:
        write_reference([args.workload] if args.workload else WORKLOADS)
        return
    if args.workload is None:
        fail("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        res = run_worker(args.workload, args.seed, seconds, "trace", deadline,
                         "trace")
        wanted = bench["per_layer"]
    else:
        setups = [
            run_worker(args.workload, args.seed, seconds, "setup-only",
                       deadline, f"setup{k}")["setup_s"]
            for k in range(SETUP_REPEATS - 1)
        ]
        res = run_worker(args.workload, args.seed, seconds, None, deadline,
                         "measure")
        setups.append(res["metrics"]["setup_s"])
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["setup_samples_s"] = setups
        wanted = bench["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        fail(f"metrics not produced: {missing}", 3)
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed_ratio = res["failed"] / res["attempted"]

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} samples {res['samples']}"
          + (f" (beyond p90: {res['beyond_p90']})" if "beyond_p90" in res else ""))
    print(f"{args.workload} failed_ratio {failed_ratio:.6g} "
          f"({res['failed']}/{res['attempted']}; robustness probes failed "
          f"{res['probe_failed']}/{res['probes']})")
    for err in res["errors"]:
        print(f"{args.workload} failure: {err}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "machine": machine(), "versions": res["versions"],
        "src_lines": src_lines(), "samples": res["samples"],
        "failed_ratio": failed_ratio, "metrics": metrics,
        "worker": {k: v for k, v in res.items() if k != "metrics"},
    }
    record_path = os.path.join(
        OUT, f"record-{args.workload}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(json.dumps({"correct": res["bad"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
