"""The quick demos run to completion and print byte-for-byte the stdout
recorded here.

Demo 03 prints Smith-Waterman alignments and demo 04 every fusion method,
so a change meant to keep results must keep every digest.  A change that
alters a demo's output on purpose re-records its digest (``sha256sum`` of
the demo's stdout) and says why.  Demo 05 (the full scenario grid) takes
most of a minute and is left out.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(
    p.name for p in (ROOT / "demos").glob("0[1-4]_*.py")
)

# SHA-256 of each quick demo's stdout
STDOUT_DIGESTS = {
    "01_word_graphs_and_decoding.py":
        "5242cfc243f80d66a1598d3574283fd37a0818f0705cdb4e8b5c2e804e5ec1ca",
    "02_ctc_decoding.py":
        "dd2cecf8875ab28ed0e2e86253bdd12c6f8ba885925f4719ae1e53dd1493ac01",
    "03_alignment_toolkit.py":
        "36953e6154d74fea3a160bbc051ccee91ec6d29b73c5fc8dd4096bfeb86304ae",
    "04_fusion_strategies.py":
        "2531234deebd04d494069d32902c27b0b19a3ff075a015e333b90f50a4afa23b",
}


def test_demo_set():
    assert DEMOS == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_DIGESTS[demo]
