"""Command-line surface.

Subcommands:
  curve       Best confidential rate R1 vs alpha per strategy, maximized over
              beta and every feasible compress-forward (q, R*) of the grid
              (CSV columns alpha,<strategy>_r1,...).
  region      Pareto staircases of (R0, R1) corners per strategy.
  gaussian    Single-point strategy evaluation from explicit parameters.
  dmc-eval    Membership of a rate point in one bound, with per-inequality
              slacks and branch conditions.
  dmc-search  Brute-force grid search over a bound's admissible couplings.
  selftest    Run the acceptance criteria and report a pass/fail table.

Exit codes: 0 success, 1 usage error, 2 invalid input (including an output
path that cannot be written), 3 infeasible configuration, 4 self-test
failure.  All numeric output is CSV with a header row, numbers at 9
significant digits, byte-stable for a fixed scenario.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, UsageError, ValidationError
from .gaussian import GaussianNetwork, StrategyParams, cf_rstar_max
from .scenario import Scenario, load_scenario
from .sweep import (
    evaluate_strategy,
    max_r1_vs_alpha,
    region_boundary,
    resolve_strategy,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_SELFTEST = 4


def _quote(text: str) -> str:
    """A text field as csv.writer quotes it (minimal quoting, newline line ends)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str | None, header: Sequence[str], tables) -> None:
    """Write the rows of every table under `header`, to stdout for None or "-".

    A table has one column per header name: a number or str (the same in every
    row), None (empty fields), or a sequence of numbers or of str (one per row);
    a table of single values is one row.  Numbers print with 9 significant
    digits and text is quoted as csv.writer quotes it.  A table is formatted
    in one pass: single values go into a %-template of its row, repeated once
    per row, and the sequences fill the template's slots."""
    parts = [",".join(map(_quote, header)) + "\n"]
    for columns in tables:
        template, slots = [], []
        for col in columns:
            if col is None or isinstance(col, str):
                template.append(_quote(col or "").replace("%", "%%"))
            elif np.ndim(col) == 0:
                template.append("%.9g" % col)
            else:
                values = np.ravel(col).tolist()
                text = bool(values) and isinstance(values[0], str)
                template.append("%s" if text else "%.9g")
                slots.append(list(map(_quote, values)) if text else values)
        rows = (",".join(template) + "\n") * (len(slots[0]) if slots else 1)
        parts.append(rows % tuple(itertools.chain.from_iterable(zip(*slots))))
    _write_text(path, "".join(parts))


def _write_text(path: str | None, text: str) -> None:
    """Write `text` to `path`, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(
            f"cannot write {path} ({getattr(exc, 'strerror', None) or exc})"
        ) from exc


def _require_gaussian(scenario: Scenario, command: str, model: str | None = None) -> None:
    if scenario.model == "DMC":
        raise UsageError(f"{command} needs a Gaussian scenario (model B or C)")
    if model is not None and scenario.model != model:
        raise UsageError(f"{command} needs a model {model} scenario, got {scenario.model}")


def _cmd_curve(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_gaussian(scenario, "curve")
    header = ["alpha"]
    curves = []
    for label in scenario.strategies:
        strategy = resolve_strategy(label, scenario.model)
        curves.append(max_r1_vs_alpha(strategy.strategy_id, scenario.net, scenario.grid))
        header.append(f"{strategy.label}_r1")
    table = [curves[0].alpha, *(c.value for c in curves)]
    _write_csv(args.out or scenario.output, header, [table])
    return EXIT_OK


def _cmd_region(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_gaussian(scenario, "region", model="C")
    header = ["strategy", "r0", "r1", "alpha", "q", "rstar", "branch"]
    tables = []
    for label in scenario.strategies:
        strategy = resolve_strategy(label, "C")
        f = region_boundary(strategy.strategy_id, scenario.net, scenario.grid)
        if args.convex_hull:
            f = f.convex_hull()
        tables.append([strategy.label, f.first, f.second, f.alpha, f.q, f.rstar, f.active])
    _write_csv(args.out or scenario.output, header, tables)
    return EXIT_OK


def _cmd_gaussian(args) -> int:
    net = GaussianNetwork(p1=args.p1, p2=args.p2, n1=args.n1, n2=args.n2, nr=args.nr)
    strategy = resolve_strategy(args.strategy, args.model)
    if strategy.config == "C" and args.beta is not None:
        raise UsageError("gaussian: --beta applies to model B only")
    rstar = args.rstar
    if strategy.uses_q and args.q is not None and rstar is None:
        rstar = max(0.0, cf_rstar_max(net, args.q))
    beta = 0.0 if args.beta is None else args.beta
    sp = StrategyParams(alpha=args.alpha, beta=beta, q=args.q, rstar=rstar)
    pair = evaluate_strategy(strategy.strategy_id, net, sp)
    first_name, second_name = ("r1", "r2") if strategy.config == "B" else ("r0", "r1")
    header = ["model", "strategy", "alpha", "beta", "q", "rstar", first_name, second_name, "branch"]
    row = [strategy.config, strategy.label, sp.alpha, sp.beta, sp.q, sp.rstar,
           pair.first, pair.second, ";".join(pair.active)]
    _write_csv(args.out, header, [row])
    return EXIT_OK


def _parse_floats(text: str, count: int, usage: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(usage) from None
    if len(values) != count:
        raise UsageError(usage)
    return values


def _cmd_dmc_eval(args) -> int:
    from .bounds import evaluate_membership  # the DMC engine: DMC commands only
    from .dmc import RateTuple

    scenario = load_scenario(args.scenario)
    if scenario.model != "DMC":
        raise UsageError("dmc-eval needs a DMC scenario")
    if scenario.coupling is None:
        raise UsageError("dmc-eval: the scenario does not reference a coupling")
    rates = scenario.rates
    if args.rates:
        rates = RateTuple(*_parse_floats(args.rates, 5, "--rates expects r0,r1,r2,re1,re2"))
    evaluation = evaluate_membership(
        scenario.theorem,
        scenario.dmc_model,
        scenario.coupling,
        rates,
        tol=args.tol if args.tol is not None else scenario.tol,
        rstar=args.rstar,
        clamp_equivocation=args.clamp_equivocation,
    )
    header = ["kind", "branch", "name", "value", "bound", "slack", "satisfied"]
    rows = []
    for branch in evaluation.branches:
        bid = branch.state.branch_id
        for cond in branch.state.conditions:
            values = [cond.lhs, cond.rhs, cond.lhs - cond.rhs]
            rows.append(["condition", bid, cond.name, *values, str(cond.satisfied).lower()])
        for rec in branch.inequalities:
            values = [rec.expression, rec.bound, rec.slack]
            rows.append(["inequality", bid, rec.name, *values, str(rec.satisfied).lower()])
    member = evaluation.member
    rows.append(["summary", evaluation.branch_taken, "member", 1.0 if member else 0.0,
                 None, None, str(member).lower()])
    _write_csv(args.out or scenario.output, header, rows)
    return EXIT_OK


def _parse_aux_sizes(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, size = piece.partition("=")
        name = name.strip()
        if name in out:
            raise UsageError(f"--aux-sizes names {name} twice")
        try:
            out[name] = int(size)
        except ValueError:
            raise UsageError("--aux-sizes expects NAME=SIZE pairs, e.g. U=1,V1=2,V2=1") from None
    return out


def _cmd_dmc_search(args) -> int:
    from .regionsearch import brute_force_best  # the DMC engine: DMC commands only

    scenario = load_scenario(args.scenario)
    if scenario.model != "DMC":
        raise UsageError("dmc-search needs a DMC scenario")
    objective = _parse_floats(
        args.objective, 3, "--objective expects three comma-separated weights over R0,R1,R2"
    )
    result = brute_force_best(
        scenario.dmc_model,
        _parse_aux_sizes(args.aux_sizes),
        args.grid_steps,
        scenario.theorem,
        objective,
        budget=args.budget,
        clamp_equivocation=args.clamp_equivocation,
    )
    best = result.best
    # The coupling goes first: a failed write must not leave a result CSV behind.
    if args.best_coupling_out:
        _write_text(args.best_coupling_out, result.coupling.to_json())
    header = ["theorem", "branch", "objective_value", "r0", "r1", "r2", "couplings_scanned"]
    rates = best.rates
    row = [scenario.theorem, best.branch_id, best.objective_value, rates.r0, rates.r1, rates.r2,
           result.couplings_scanned]
    _write_csv(args.out or scenario.output, header, [row])
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import acceptance  # random generators and oracles: selftest only

    results = acceptance.run_all()
    header = ["criterion", "description", "status", "seconds", "detail"]
    rows = [[r.cid, r.description, "pass" if r.passed else "FAIL", r.seconds, r.detail]
            for r in results]
    _write_csv(args.out, header, rows)
    failed = [r for r in results if not r.passed]
    if failed:
        sys.stderr.write(f"{len(failed)} acceptance criterion(s) failed\n")
        return EXIT_SELFTEST
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="relaysec",
        description="Secrecy rate regions for relay broadcast channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="R1-vs-alpha curves per strategy (CSV)")
    p.add_argument("--scenario", required=True, help="Gaussian scenario JSON")
    p.add_argument("--out", help="output CSV path (default: scenario output or stdout)")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("region", help="Pareto staircase frontiers per strategy (CSV)")
    p.add_argument("--scenario", required=True, help="model-C scenario JSON")
    p.add_argument("--out", help="output CSV path")
    p.add_argument(
        "--convex-hull",
        action="store_true",
        help="post-process frontiers with the upper concave envelope (time sharing)",
    )
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("gaussian", help="single-point Gaussian strategy evaluation")
    p.add_argument("--model", required=True, choices=("B", "C"))
    p.add_argument("--strategy", required=True, help="df | nf | cf | baseline")
    for flag in ("p1", "p2", "n1", "n2", "nr"):
        p.add_argument(f"--{flag}", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, help="power split (model B only; default 0)")
    p.add_argument("--q", type=float, help="compression noise variance (cf only)")
    p.add_argument("--rstar", type=float, help="pure-noise rate (cf only; default: max)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_gaussian)

    p = sub.add_parser("dmc-eval", help="membership of a rate point in one bound")
    p.add_argument("--scenario", required=True, help="DMC scenario JSON")
    p.add_argument("--rates", help="override: r0,r1,r2,re1,re2")
    p.add_argument("--rstar", type=float, help="pure-noise rate for compress-forward bounds")
    p.add_argument("--tol", type=float, help="membership slack tolerance (bits)")
    p.add_argument(
        "--clamp-equivocation",
        action="store_true",
        help="floor each equivocation cap at 0 (zero equivocation is always achievable)",
    )
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_dmc_eval)

    p = sub.add_parser("dmc-search", help="brute-force search over admissible couplings")
    p.add_argument("--scenario", required=True, help="DMC scenario JSON (model + theorem)")
    p.add_argument("--aux-sizes", required=True, help="e.g. U=1,V1=2,V2=1 (and Yh=2 for CF)")
    p.add_argument("--grid-steps", type=int, required=True, help="simplex grid resolution")
    p.add_argument("--objective", default="0,1,0", help="weights over R0,R1,R2")
    p.add_argument("--budget", type=int, default=10_000_000, help="max couplings to evaluate")
    p.add_argument("--clamp-equivocation", action="store_true")
    p.add_argument("--best-coupling-out", help="write the winning coupling JSON here")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_dmc_search)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Dispatch argv and map errors onto the documented exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible configuration: {exc}\n")
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID


main = run_command  # the console entry point


if __name__ == "__main__":
    sys.exit(main())
