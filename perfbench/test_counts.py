"""Checks of the benchmark itself; run with `python3 -m pytest -q perfbench` (takes a few minutes).

The traced run's work counts must repeat exactly, the tracer must refuse a
missing name before patching anything, and the command must fail without a
result where there is no package to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402

COUNT_UNITS = ("count", "B")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _traced_counts(workload: str, seed: int) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload, seed=1)
    second = _traced_counts(workload, seed=2)
    assert first == second
    assert set(first) == set(run.reference(workload)["seed_counts"])


def test_missing_traced_name_fails_before_patching(monkeypatch):
    from edgeideals import resolutions, verification

    lattice = resolutions.lcm_lattice
    monkeypatch.delattr(verification, "regularity")
    with pytest.raises(LookupError, match="regularity"):
        tracer.Tracer.install()
    assert resolutions.lcm_lattice is lattice


def test_every_expected_name_is_traced():
    for workload in run.WORKLOADS.values():
        assert set(workload.called) <= set(tracer.NAMES)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "powers-main2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
