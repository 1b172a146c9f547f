"""Span tracing of relaysec from outside the package, and per-layer metrics.

The tracer wraps public and module-level functions of each `relaysec` module
(one module = one layer) and records a span per call: name, start, end, the
span that caused it, and the op it belongs to.  Spans stay in memory and are
written as JSON lines when the run ends.  Nothing in `relaysec` itself is
changed; the wrappers are installed by rebinding module globals and class
attributes, and removed again by restoring the originals, so untraced cycles
run the unmodified code.

A wrapped name that no longer exists (a later refactor removed it) is skipped
and listed in `missing`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "scenario", "gaussian", "sweep", "pmf", "bounds", "regionsearch")


def _size2(args, kwargs, result):
    return {"cells": int(np.broadcast(args[1], args[2]).size)}


def _size1(args, kwargs, result):
    return {"cells": int(np.size(args[1]))}


def _rows(args, kwargs, result):
    return {"rows": len(args[2])}


def _pareto(args, kwargs, result):
    return {"points_in": int(np.size(args[0])), "kept": int(np.size(result))}


def _mi_cells(args, kwargs, result):
    return {"cells": int(args[0].probs.size)}


def _branches(args, kwargs, result):
    return {"branches": len(result), "applicable": sum(1 for b in result if b.applicable)}


# (module, attribute, span name, counter function).  "Class.method" patches a
# class attribute.  Names listed under one span share its metrics.
_B_KERNELS = ("_df_arrays", "_nf_arrays", "_cf_arrays")
_C_KERNELS = ("_c_df_arrays", "_c_nf_arrays", "_c_cf_arrays", "_c_baseline_arrays")
_SCALARS = ("b_df", "b_nf", "b_cf", "b_baseline_norelay", "c_df", "c_nf", "c_cf",
            "c_baseline", "cf_rstar_max")

TARGETS = (
    [
        ("relaysec.cli", "run_command", "cli.run_command", None),
        ("relaysec.cli", "build_parser", "cli.build_parser", None),
        ("relaysec.cli", "_write_csv", "cli.write_csv", _rows),
        ("relaysec.scenario", "load_scenario", "scenario.load", None),
    ]
    + [("relaysec.gaussian", n, "gaussian.kernel", _size2) for n in _B_KERNELS]
    + [("relaysec.gaussian", n, "gaussian.kernel", _size1) for n in _C_KERNELS]
    + [("relaysec.gaussian", n, "gaussian.scalar", None) for n in _SCALARS]
    + [
        ("relaysec.sweep", "max_r1_vs_alpha", "sweep.curve", None),
        ("relaysec.sweep", "sweep_frontier", "sweep.frontier", None),
        ("relaysec.sweep", "_pareto_survivors", "sweep.pareto", _pareto),
        ("relaysec.sweep", "evaluate_strategy", "sweep.evaluate", None),
        ("relaysec.pmf", "cond_mutual_info", "pmf.mi", _mi_cells),
        ("relaysec.pmf", "check_factorization", "pmf.factorization", None),
        ("relaysec.pmf", "JointPMF.__post_init__", "pmf.joint_check", None),
        ("relaysec.bounds", "compose_full_joint", "bounds.compose", None),
        ("relaysec.bounds", "mi_values", "bounds.mi_values", None),
        ("relaysec.bounds", "corollary_constraints", "bounds.constraints", _branches),
        ("relaysec.bounds", "evaluate_membership", "bounds.membership", None),
        ("relaysec.bounds", "AuxiliaryCoupling.__post_init__", "bounds.coupling_validate", None),
        ("relaysec.regionsearch", "brute_force_best", "regionsearch.brute_force", None),
        ("relaysec.regionsearch", "secrecy_region_extremes", "regionsearch.extremes", None),
        ("relaysec.regionsearch", "coupling_grid", "regionsearch.grid", "generator"),
    ]
)


# Spans whose nested calls are not recorded: a scalar closed form is called
# once per Pareto survivor, and recording its inner kernel call as well would
# double the spans for no extra information (both are `gaussian` time).
LEAF_SPANS = {"gaussian.scalar"}


class Tracer:
    """Records spans while `enabled`; `install`/`uninstall` swap the wrappers in."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent, op, counts)
        self._stack: list[int] = []
        self._op = -1
        self.enabled = False
        self._in_leaf = False
        self._patches: list = []  # (namespace, attribute, original, wrapper)
        self.missing: list[str] = []
        self._prepare()

    # -- wrapping ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, parent, t0, counts):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self._op, counts)

    def _wrap(self, name, fn, count):
        tracer = self
        leaf = name in LEAF_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._in_leaf:
                return fn(*args, **kwargs)
            idx, parent = tracer._open(name)
            tracer._in_leaf = leaf
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, parent, t0, None)
                tracer._in_leaf = False
            if count is not None:
                s = tracer.spans[idx]
                tracer.spans[idx] = s[:5] + (count(args, kwargs, result),)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not tracer.enabled:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                idx, parent = tracer._open(name)
                t0 = time.perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(idx, name, parent, t0, {"couplings": 0})
                    return
                tracer._close(idx, name, parent, t0, {"couplings": 1})
                yield item

        return wrapper

    def _prepare(self) -> None:
        modules = {m: sys.modules[m] for m in sys.modules if m.startswith("relaysec")}
        for module_name, attr, span, count in TARGETS:
            module = modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if count == "generator":
                wrapper = self._wrap_generator(span, original)
            else:
                wrapper = self._wrap(span, original, count)
            if owner_name:
                self._patches.append((owner, member, original, wrapper))
                continue
            # Rebind every module global that refers to the function, so calls
            # through `from .x import f` in other layers are traced too.
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        idx, _ = self._open("op")
        self._op_span = idx
        self.enabled = True

    def end_op(self, t0: int, t1: int) -> None:
        self.enabled = False
        self._stack.pop()
        self.spans[self._op_span] = ("op", t0, t1, -1, self._op, None)
        self._op = -1

    def write_jsonl(self, path: str, limit: int) -> None:
        """Write the first `limit` spans, one JSON object per line."""
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, counts) in enumerate(self.spans[:limit]):
                rec = {"id": i, "op": op, "parent": parent, "name": name,
                       "start_ns": t0 - base, "end_ns": t1 - base}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

# name, unit.  Times are seconds per op and counts are per op, averaged over
# the traced ops, unless the unit says otherwise.
PER_LAYER = (
    ("setup.import_numpy_s", "s"),
    ("setup.import_relaysec_s", "s"),
    ("cli.build_parser_s", "s/op"),
    ("cli.write_csv_s", "s/op"),
    ("cli.rows_written", "count/op"),
    ("cli.self_s", "s/op"),
    ("scenario.load_s", "s/op"),
    ("scenario.load_calls", "count/op"),
    ("gaussian.kernel_s", "s/op"),
    ("gaussian.kernel_cells", "count/op"),
    ("gaussian.ns_per_cell", "ns"),
    ("gaussian.scalar_calls", "count/op"),
    ("gaussian.scalar_s", "s/op"),
    ("sweep.curve_self_s", "s/op"),
    ("sweep.frontier_self_s", "s/op"),
    ("sweep.pareto_s", "s/op"),
    ("sweep.pareto_points_in", "count/op"),
    ("sweep.pareto_kept_ratio", "ratio"),
    ("sweep.reeval_calls", "count/op"),
    ("sweep.reeval_s", "s/op"),
    ("pmf.mi_calls", "count/op"),
    ("pmf.mi_s", "s/op"),
    ("pmf.mi_cells", "count/op"),
    ("pmf.factorization_calls", "count/op"),
    ("pmf.factorization_s", "s/op"),
    ("pmf.joint_check_s", "s/op"),
    ("bounds.compose_calls", "count/op"),
    ("bounds.compose_s", "s/op"),
    ("bounds.mi_values_self_s", "s/op"),
    ("bounds.mi_terms_per_call", "count"),
    ("bounds.constraints_self_s", "s/op"),
    ("bounds.membership_self_s", "s/op"),
    ("bounds.coupling_validate_s", "s/op"),
    ("regionsearch.grid_s", "s/op"),
    ("regionsearch.grid_couplings", "count/op"),
    ("regionsearch.vertex_enum_s", "s/op"),
    ("regionsearch.branch_useful_ratio", "ratio"),
    ("regionsearch.brute_force_self_s", "s/op"),
) + tuple((f"share.{layer}", "ratio") for layer in LAYERS) + (
    ("trace.coverage", "ratio"),
    ("trace.coverage_min", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans_per_op", "count/op"),
)


def span_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics (everything in PER_LAYER except setup and overhead)."""
    n = len(spans)
    children = [0] * n
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    names = [s[0] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else "" for s in spans]

    total = defaultdict(int)  # inclusive ns per span name
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    layer_self = defaultdict(int)
    op_ns = 0
    ops = 0
    covered = 0
    coverage_min = 1.0
    for i, (name, t0, t1, parent, _, cnt) in enumerate(spans):
        dur = t1 - t0
        own = dur - children[i]
        if name == "op":
            ops += 1
            op_ns += dur
            covered += children[i]
            if dur > 0:
                coverage_min = min(coverage_min, children[i] / dur)
            continue
        key = name
        if name == "sweep.evaluate" and parent_name[i] == "sweep.frontier":
            key = "sweep.reeval"
        total[key] += dur
        self_ns[name] += own
        calls[key] += 1
        layer_self[name.split(".")[0]] += own
        for k, v in (cnt or {}).items():
            counts[key + ":" + k] += v
    per_op = 1.0 / ops if ops else 0.0
    s = 1e-9 * per_op

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.build_parser_s": total["cli.build_parser"] * s,
        "cli.write_csv_s": total["cli.write_csv"] * s,
        "cli.rows_written": counts["cli.write_csv:rows"] * per_op,
        "cli.self_s": self_ns["cli.run_command"] * s,
        "scenario.load_s": total["scenario.load"] * s,
        "scenario.load_calls": calls["scenario.load"] * per_op,
        "gaussian.kernel_s": total["gaussian.kernel"] * s,
        "gaussian.kernel_cells": counts["gaussian.kernel:cells"] * per_op,
        "gaussian.ns_per_cell": ratio(total["gaussian.kernel"], counts["gaussian.kernel:cells"]),
        "gaussian.scalar_calls": calls["gaussian.scalar"] * per_op,
        "gaussian.scalar_s": total["gaussian.scalar"] * s,
        "sweep.curve_self_s": self_ns["sweep.curve"] * s,
        "sweep.frontier_self_s": self_ns["sweep.frontier"] * s,
        "sweep.pareto_s": total["sweep.pareto"] * s,
        "sweep.pareto_points_in": counts["sweep.pareto:points_in"] * per_op,
        "sweep.pareto_kept_ratio": ratio(counts["sweep.pareto:kept"], counts["sweep.pareto:points_in"]),
        "sweep.reeval_calls": calls["sweep.reeval"] * per_op,
        "sweep.reeval_s": total["sweep.reeval"] * s,
        "pmf.mi_calls": calls["pmf.mi"] * per_op,
        "pmf.mi_s": total["pmf.mi"] * s,
        "pmf.mi_cells": counts["pmf.mi:cells"] * per_op,
        "pmf.factorization_calls": calls["pmf.factorization"] * per_op,
        "pmf.factorization_s": total["pmf.factorization"] * s,
        "pmf.joint_check_s": total["pmf.joint_check"] * s,
        "bounds.compose_calls": calls["bounds.compose"] * per_op,
        "bounds.compose_s": total["bounds.compose"] * s,
        "bounds.mi_values_self_s": self_ns["bounds.mi_values"] * s,
        "bounds.mi_terms_per_call": ratio(calls["pmf.mi"], calls["bounds.mi_values"]),
        "bounds.constraints_self_s": self_ns["bounds.constraints"] * s,
        "bounds.membership_self_s": self_ns["bounds.membership"] * s,
        "bounds.coupling_validate_s": total["bounds.coupling_validate"] * s,
        "regionsearch.grid_s": total["regionsearch.grid"] * s,
        "regionsearch.grid_couplings": counts["regionsearch.grid:couplings"] * per_op,
        "regionsearch.vertex_enum_s": self_ns["regionsearch.extremes"] * s,
        "regionsearch.branch_useful_ratio": ratio(
            counts["bounds.constraints:applicable"], counts["bounds.constraints:branches"]
        ),
        "regionsearch.brute_force_self_s": self_ns["regionsearch.brute_force"] * s,
        "trace.coverage": ratio(covered, op_ns),
        "trace.coverage_min": coverage_min if ops else 0.0,
        "trace.spans_per_op": (n - ops) * per_op,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(layer_self[layer], op_ns)
    return m
