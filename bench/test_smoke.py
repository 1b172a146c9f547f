"""Smoke test of the benchmark harness: a tiny-length run of every workload.

    python -m pytest bench/test_smoke.py -q

Asserts that each run exits 0, emits every metric BENCHMARK.json names with
its unit (end-to-end untraced, per-layer traced), fails no op on the default
seed, and that the default seed's outputs hash identically run to run.  Takes
about two minutes; it is not part of the package's tier-1 suite.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
TINY_SECONDS = "0.5"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=DEFAULT_SEED):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(ROOT, ".bench_out", f"{tag}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_no_op_fails(workload, trace):
    result, record = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, record["errors"]
    assert result["correct"] is True
    assert record["metrics"]["error_rate"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_outputs_repeat(workload):
    _, first = run(workload, 0)
    _, second = run(workload, 0)
    assert first["outputs_sha256"] == second["outputs_sha256"]


def test_bare_directory_fails_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py") or name.endswith(".md"):
            (bare / "bench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (bare / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", TINY_SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
