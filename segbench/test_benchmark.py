"""Tests of the benchmark itself:

    python3 -m pytest segbench/test_benchmark.py

Work counts do not depend on machine speed, so two traced runs at one seed
must agree exactly; a later change can then name the counts it expects to
move before it is written.  The threefold workload is left out because one
traced threefold run takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = (
    "groebner.gb.calls",
    "kernel.reduce_full.calls",
    "kernel.spoly.calls",
    "kernel.mora_nf.budget_trips",
    "vogel.draws_per_sequence",
)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "segbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )  # fmt: skip


def _traced_counts(workload, seed):
    out = _bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", ["corpus", "dense"])
def test_two_traced_runs_count_the_same_work(workload):
    first = _traced_counts(workload, 7)
    assert first["groebner.gb.calls"] > 0 and first["kernel.reduce_full.calls"] > 0
    assert _traced_counts(workload, 7) == first


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "segbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _bench(tmp_path, "--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
