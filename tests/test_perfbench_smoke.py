"""The benchmark's workloads still run on the package as it is.

``perfbench/workloads.py`` drives the simulator and the CLI through their
public names (``ScenarioSpec.vocab_size``, ``sequence_length_range``,
``generate_wg_pair``, ``calibrated_rate``, ``cli.run``, ...), so an API change
there breaks the benchmark, not the package.  This runs each workload's
worker for a fraction of a second at seed 7, where the worker also checks
every output against its recorded reference digest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["grid", "cli_mix"])
def test_workload_runs_clean(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["failed"], result["bad"], result["probe_failed"]) == (0, 0, 0)
    assert result["errors"] == []
