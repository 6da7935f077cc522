"""Smoke test: a minimal-length run of every workload, untraced and
traced, prints every metric ``BENCHMARK.json`` names, and a tree
without the simulator's sources is refused.

Run from the root of a checkout (about five minutes on two cores)::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: pathlib.Path, workload: str, trace: int, timeout: float
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_metric(workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_a_tree_without_the_simulator(tmp_path: pathlib.Path
                                              ) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
