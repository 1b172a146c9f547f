#!/usr/bin/env python3
"""relaysec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload gauss-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The program is the package in `src/`;
nothing is installed.  The run:

1. generates the workload's inputs from `--seed` into a scratch directory
   under `.bench_out/`;
2. starts SETUP_PROBES fresh interpreters that import `relaysec.cli` and parse
   those inputs, and takes the median wall time as `setup_s`;
3. starts LAYOUTS workload processes (worker.py) in turn, one for a traced
   run, with a hermetic environment (RBC_THREADS removed, BLAS/OpenMP pinned
   to one thread, glibc malloc thresholds fixed); together they run the
   closed loop for `--seconds` and check every op's output;
4. prints every metric by name with its unit, the environment, and as the
   last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
   `--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
   the per-layer ones from a separate traced run.

A full record goes to `.bench_out/<workload>-seed<N>-trace<T>.json`, and the
traced run's spans to `.bench_out/spans-<workload>.jsonl`.  Exit code 0 means
the run completed, whether or not checks failed; any other code means no
result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 10  # half before the workload processes, half after
# An untraced run measures in LAYOUTS workload processes in turn, each for
# --seconds / LAYOUTS and each with its heap shifted by another pad
# (worker.py), and takes each input's best repeat over all of them.  How
# objects happen to lie in memory moves a process's speed by 10-15%: one
# seed's inputs ran 12% slower than another's on every run, and a pad
# reversed the two.
LAYOUTS = 4
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

# Must match the `end_to_end` list of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
WORK_NAME = {"gauss-sweep": "cells_per_s", "dmc-search": "couplings_per_s",
             "dmc-query": "queries_per_s"}
P90_MIN_BEYOND = 10


# glibc malloc serves large blocks with mmap below a threshold that it raises
# as such blocks are freed, so whether a 401 x 401 array costs page faults
# depends on the allocation history: the same `curve` input took 25 ms after
# one seed's op mix and 31 ms after another's.  A fixed threshold (and a trim
# threshold above it) takes that history out; every input then takes ~20 ms.
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}


def hermetic_env(layout: int = 0) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "RBC_THREADS" and k != "GLIBC_TUNABLES"
           and not k.startswith(("PYTHON", "MALLOC_"))}
    env.update(MALLOC_PINS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["BENCH_LAYOUT"] = str(layout)
    return env


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "loadavg_at_start": list(os.getloadavg()),
        "machine_ref_ms_at_start": machine_ref_ms(),
    }


def machine_ref_ms() -> float:
    """Best of five runs of a fixed pure-Python loop: how fast the machine is now."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, "-s", os.path.join(HERE, "worker.py"), *args]


def run_child(cmd, deadline, stderr_path, layout=0) -> subprocess.CompletedProcess:
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=hermetic_env(layout), cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def quantiles(values):
    s = sorted(values)
    p50 = statistics.median(s)
    if len(s) < 2:
        return p50, None, 0
    p90 = statistics.quantiles(s, n=10, method="inclusive")[8]
    return p50, p90, sum(1 for v in s if v > p90)


def best_repeat_metrics(results) -> dict:
    """Figures from each input's best repeat over the given workload processes.

    Every input recurs once per cycle at the same position, and an input's
    latency is the best of its repeats.  Other tenants of a shared machine
    slow it down in phases of seconds to minutes and only ever add time, so
    the best repeat tracks the program where the median tracks the machine.
    """
    best: dict[int, float] = {}
    timed = 0
    for res in results:
        for d, t, pos in zip(res["lat_ns"], res["traced"], res["positions"]):
            if not t:
                best[pos] = min(d / 1e6, best.get(pos, d / 1e6))
                timed += 1
    per_input = list(best.values())
    cycle_s = sum(per_input) / 1e3
    return {
        "ops_per_s": len(per_input) / cycle_s,
        "latency_p50_ms": statistics.median(per_input),
        "work_per_s": sum(results[0]["work_by_position"]) / cycle_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ops_per_s_all": timed / sum(r["work_s"] for r in results),
    }


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    ap = argparse.ArgumentParser(description="relaysec benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "relaysec", "cli.py")):
        sys.stderr.write(f"relaysec sources not found under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}\n")
        return 2
    env_info = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    stderr_path = os.path.join(OUT, f"{tag}.stderr")
    try:
        open(stderr_path, "wb").close()
        wl = workloads.WORKLOADS[args.workload]()
        wl.generate(np.random.default_rng(args.seed), work)

        probes: list[dict] = []
        setup_walls: list[float] = []

        def probe_setup(n):
            for _ in range(n):
                t0 = time.perf_counter()
                done = run_child(worker_cmd("--workload", args.workload, "--inputs", work,
                                            "--setup-only"), deadline, stderr_path)
                setup_walls.append(time.perf_counter() - t0)
                if done.returncode != 0:
                    raise RuntimeError(f"set-up probe exited with {done.returncode}")
                probes.append(json.loads(done.stdout.decode().strip().splitlines()[-1]))

        probe_setup(SETUP_PROBES // 2)
        if not os.path.realpath(probes[0]["relaysec_file"]).startswith(os.path.realpath(SRC)):
            raise RuntimeError(f"relaysec imported from {probes[0]['relaysec_file']}, not {SRC}")

        # The traced run is one process: its per-layer figures have no bound.
        n_proc = 1 if args.trace else LAYOUTS
        results = []
        for layout in range(n_proc):
            result_path = os.path.join(work, f"result-{layout}.json")
            cmd = worker_cmd("--workload", args.workload, "--inputs", work,
                             "--seconds", str(args.seconds / n_proc),
                             "--trace", str(args.trace), "--result", result_path)
            if args.trace:
                cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.jsonl")]
            done = run_child(cmd, deadline, stderr_path, layout)
            if done.returncode != 0:
                raise RuntimeError(f"workload process exited with {done.returncode}")
            with open(result_path, encoding="utf-8") as fh:
                results.append(json.load(fh))
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        env_info["machine_ref_ms_at_end"] = machine_ref_ms()
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc!r}\n")
        try:
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
        except OSError:
            pass
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res = results[0]
    lat_ns = [d for r in results for d in r["lat_ns"]]
    traced = [t for r in results for t in r["traced"]]
    attempted = len(lat_ns)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    digests = sorted({r["outputs_sha256"] for r in results})
    if len(digests) > 1:
        errors.append(f"workload processes disagree on their outputs: {digests}")
    timed = [d / 1e6 for d, t in zip(lat_ns, traced) if not t]
    p50_all, p90, beyond = quantiles(timed)
    detail = {"setup_s": statistics.median(setup_walls), **best_repeat_metrics(results)}
    detail[WORK_NAME[args.workload]] = detail["work_per_s"]
    detail["error_rate"] = failed / attempted
    detail["latency_p50_all_ms"] = p50_all
    if p90 is not None and beyond >= P90_MIN_BEYOND:
        detail["latency_p90_ms"] = p90
    by_kind: dict[str, list[float]] = {}
    for r in results:
        for d, t, k in zip(r["lat_ns"], r["traced"], r["kinds"]):
            if not t:
                by_kind.setdefault(k, []).append(d / 1e6)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info,
        "attempted": attempted, "failed": failed, "errors": errors,
        "cycles": [r["cycles"] for r in results], "ops_per_cycle": res["ops_per_cycle"],
        "samples": len(timed), "samples_beyond_p90": beyond, "latency_p90_ms_raw": p90,
        "setup_walls_s": setup_walls, "setup_probes": probes,
        "latency_p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
        "layouts": [best_repeat_metrics([r]) for r in results],
        "latency_ms": [[round(d / 1e6, 4) for d in r["lat_ns"]] for r in results],
        "traced_ops": [r["traced"] for r in results],
        "positions": [r["positions"] for r in results],
        "metrics": detail, "notes": res["notes"], "outputs_sha256": digests,
    }
    units = dict(END_TO_END, **{WORK_NAME[args.workload]: "1/s", "error_rate": "ratio",
                                "ops_per_s_all": "1/s", "latency_p50_all_ms": "ms",
                                "latency_p90_ms": "ms"})
    if args.trace:
        import layers

        lm = dict(res["layer_metrics"])
        lm["setup.import_numpy_s"] = statistics.median(p["import_numpy_s"] for p in probes)
        lm["setup.import_relaysec_s"] = statistics.median(p["import_relaysec_s"] for p in probes)
        record["layer_metrics"] = lm
        record["trace_missing"] = res["trace_missing"]
        metrics = {name: {"value": lm[name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": detail[name], "unit": unit} for name, unit in END_TO_END}
    record["result"] = metrics
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# relaysec benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env_info))
    print(f"# ops={attempted} failed={failed} cycles={record['cycles']} "
          f"samples={len(timed)} beyond_p90={beyond}"
          + ("" if "latency_p90_ms" in detail else
             f" (latency_p90_ms omitted: fewer than {P90_MIN_BEYOND} samples beyond it)"))
    for name, value in detail.items():
        print(f"{name:<34} {value:>16.6g} {units[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
    for err in errors:
        print(f"# FAILED {err}")
    print(json.dumps({"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
