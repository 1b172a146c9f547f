"""Workload process: one fresh interpreter per run, started by run.py.

    python3 bench/worker.py --workload NAME --inputs DIR --seconds S --trace 0|1 --result FILE
    python3 bench/worker.py --workload NAME --inputs DIR --setup-only

It imports relaysec from the checkout's `src`, parses the generated inputs,
warms up, then runs the workload's op cycle in a closed loop with one client
(each op starts when the previous one has returned) until `--seconds` have
passed, always finishing the cycle it is in.  Every op's output is checked
outside its timed interval.  With `--trace 1`, cycles alternate untraced and
traced; the traced cycles give the per-layer spans and the untraced ones the
reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# Shift everything this process allocates by a pad that depends on its
# layout number (run.py LAYOUTS); the set-up probes run with layout 0, no pad.
_LAYOUT = int(os.environ.get("BENCH_LAYOUT", "0"))
_LAYOUT_PAD = [bytes(8 * (i % 64)) for i in range(700 * _LAYOUT)] + [bytearray(12345 * _LAYOUT)]

T_START = time.perf_counter()
import numpy  # noqa: E402,F401  (timed: setup.import_numpy_s)

T_NUMPY = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import relaysec.cli  # noqa: E402,F401  (timed: setup.import_relaysec_s)

T_RELAYSEC = time.perf_counter()

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_TRACE_CYCLES = 2  # one untraced and one traced
WARMUP_S = 0.5


def _best_p50_ms(res, traced: bool) -> float:
    """latency_p50_ms as run.py computes it, over the traced or untraced cycles."""
    best: dict[int, int] = {}
    for d, t, pos in zip(res["lat_ns"], res["traced"], res["positions"]):
        if t == traced:
            best[pos] = min(d, best.get(pos, d))
    return statistics.median(best.values()) / 1e6 if best else 0.0


def measure(wl, ops, seconds: float, tracer) -> dict:
    # Warm-up: one op per kind, cheapest kinds first, untimed and unchecked, so
    # lazy imports and first-call costs stay out of the timed region.  Capped
    # in time because one dmc-search op can take seconds.
    seen = set()
    t_warm = time.perf_counter()
    for op in sorted(ops, key=lambda o: o.work):
        if op.kind in seen:
            continue
        if time.perf_counter() - t_warm > WARMUP_S:
            break
        seen.add(op.kind)
        try:
            op.run()
        except Exception:  # reported by the timed run that follows
            pass

    lat_ns: list[int] = []  # per op, every cycle
    traced_flags: list[bool] = []
    kinds: list[str] = []
    positions: list[int] = []
    work_ns = 0
    errors: list[str] = []
    failed = 0
    start = time.perf_counter()
    cycle = 0
    first_traced_spans = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        t_cycle = time.perf_counter()
        for pos, op in enumerate(ops):
            if traced:
                tracer.begin_op(len(lat_ns))
            exc = None
            t0 = time.perf_counter_ns()
            try:
                outcome = op.run()
            except Exception as e:  # an op that raises is a failed op
                exc, outcome = e, None
            t1 = time.perf_counter_ns()
            if traced:
                tracer.end_op(t0, t1)
            lat_ns.append(t1 - t0)
            traced_flags.append(traced)
            kinds.append(op.kind)
            positions.append(pos)
            if not traced:
                work_ns += t1 - t0
            err = f"{op.key}: raised {exc!r}" if exc is not None else None
            if err is None:
                try:
                    err = wl.check(op, outcome)
                except Exception as e:  # a check that crashes fails its op
                    err = f"{op.key}: check raised {e!r}"
            if err is not None:
                failed += 1
                if len(errors) < 20:
                    errors.append(err)
        if traced:
            tracer.uninstall()
            first_traced_spans = first_traced_spans or len(tracer.spans)
        cycle += 1
        elapsed = time.perf_counter() - start
        cycle_s = time.perf_counter() - t_cycle
        enough = tracer is None or cycle >= MIN_TRACE_CYCLES
        if enough and elapsed + cycle_s / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "lat_ns": lat_ns, "traced": traced_flags, "kinds": kinds, "positions": positions,
        "work_by_position": [op.work for op in ops], "cycles": cycle,
        "work_s": work_ns / 1e9, "failed": failed, "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "first_traced_spans": first_traced_spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    ops = wl.load(args.inputs)
    t_loaded = time.perf_counter()
    setup = {
        "import_numpy_s": T_NUMPY - T_START,
        "import_relaysec_s": T_RELAYSEC - T_NUMPY,
        "parse_inputs_s": t_loaded - T_RELAYSEC,
        "relaysec_file": relaysec.cli.__file__,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = layers.Tracer() if args.trace else None
    res = measure(wl, ops, args.seconds, tracer)
    res["setup"] = setup
    res["notes"] = dict(wl.notes)
    res["outputs_sha256"] = wl.outputs_digest()
    res["ops_per_cycle"] = len(ops)
    if tracer is not None:
        spans = tracer.spans
        metrics = layers.span_metrics(spans)
        metrics["trace.overhead_ms"] = _best_p50_ms(res, True) - _best_p50_ms(res, False)
        res["layer_metrics"] = metrics
        res["trace_missing"] = tracer.missing
        if args.spans:
            # The file holds the first traced cycle; the metrics use them all.
            tracer.write_jsonl(args.spans, res.pop("first_traced_spans"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
