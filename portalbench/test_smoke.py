"""The benchmark's own tests, on a 2% deployment (``--smoke``).

Run with ``python3 -m pytest portalbench``.  Each workload must finish
with no failed operation, pass its output checks, and print exactly the
metrics ``BENCHMARK.json`` declares; without the program's source the
benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "portalbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_clean(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "2",
               "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr[-3000:]
    report, result = map(json.loads, out.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0, report["failures"]
    assert result["attempted"] > 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["env"]["cpus"] >= 1


def _first_requests(seed: int, workload: str, actor: str) -> list[tuple[str, str]]:
    """(method, path) of the first request of every operation of the
    first two rounds of a stream, against made-up deployment facts."""
    sys.path.insert(0, str(HERE))
    from client import Connection
    from workloads import Context, Stream

    facts = {"projects": 50, "samples": 200, "workunits": 900,
             "largest_project": 1, "lab_projects": [7, 9]}
    ctx = Context(facts, {"app_id": 1, "attribute_id": 1}, seed)
    ctx.conn = Connection("127.0.0.1", 9)
    ctx.lab_samples = [{"id": 11, "species": "Homo sapiens"}]
    ctx.lab_extracts = {7: [3, 4]}
    stream = Stream(ctx, workload, actor, "main")
    out = []
    for round_no in range(2):
        for factory in stream.round(round_no):
            request = factory().send(None)
            out.append((request.method, request.path))
    return out


@pytest.mark.parametrize("workload,actor", [
    ("browse", "reader"), ("lab-day", "reader"), ("lab-day", "writer")])
def test_same_seed_same_operations(workload, actor):
    first = _first_requests(5, workload, actor)
    assert first == _first_requests(5, workload, actor)
    assert first != _first_requests(6, workload, actor)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "portalbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "browse", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
