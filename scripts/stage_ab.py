#!/usr/bin/env python3
"""Time the DMC and Gaussian engines' stages in two source trees, in one interpreter.

    python scripts/stage_ab.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `relaysec` package (a
checkout's `src`).  Each is loaded under its own package name, with BLAS
pinned to one thread.  It times one `bounds._catalog()` (catalog, listed as
theorem "all"), the import-time build of every theorem's rows.  Per theorem
of THEOREMS and stack size N of SIZES, on the same N random couplings of a
favorable model (`acceptance.random_coupling`, independent auxiliaries of
two values), it times:

  compose    `bounds.compose_stack`, the couplings laid out with the channel;
  entropies  `SubsetEntropies` of the theorem's compiled subsets;
  tables     the `_BoundTable.__call__` calls that one `evaluate_stack` makes,
             replayed with the arguments that tree passes them;
  evaluate   `bounds.evaluate_stack`;
  extremes   `regionsearch._stack_extremes` at objective (1, 1, 0.5);

and per theorem, listed at N = 1, one coupling's `bounds.coupling_stack`
(couple), and one dmc-query op (an `AuxiliaryCoupling` and an
`evaluate_membership`).  A second table times one whole
`regionsearch.brute_force_best` (search) per case of SEARCHES: the five
dmc-search benchmark shapes on the same model, and the scaled anchor on the
shipped `scenarios/dmc_model.json`.  A third table times the Gaussian stages
on the paper network: per curve strategy of CURVES at 401 alphas x 401 betas,

  candidates `Strategy.candidates`;
  bracket    `sweep._bracket_columns`;
  curve      `sweep.max_r1_vs_alpha`;

and per region grid of REGIONS one `sweep.sweep_frontier` (frontier).  The
trees take turns, in alternating order, after one untimed call of each.  A
round takes the best of REPEATS samples per tree; each row is run for ROUNDS
rounds and reports the median round's figure per tree, in microseconds per
call, their ratio new/old, and the lowest and highest ratio of a single round
(range), so one disturbed round shows as a wide range, not as the figure.
`max|diff|` is the largest difference between the trees' rendered rows
(catalog: 0 when every row of every theorem renders the same, else inf),
composed joints (compose, couple), entropies (entropies), bounds (evaluate),
extreme values (extremes), best values, rates and couplings (search), roots
(candidates; equal non-finite roots count 0), columns (bracket), curve values
and betas (curve) or frontier columns (frontier); arrays of unequal shape read
inf.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib
import importlib.util
import sys
import timeit

import numpy as np

THEOREMS = ("T1", "T3", "T4", "T8", "T11")  # configurations A (T1-T4), B (T8) and C (T11)
SIZES = (1, 16, 256, 1024)
REPEATS = 7
ROUNDS = 3  # each row's figures are the median over this many best-of-REPEATS rounds
OBJECTIVE = (1.0, 1.0, 0.5)
MODEL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios",
                          "dmc_model.json")
# (theorem, aux sizes, grid steps, model file or None for the stages' model) at the
# dmc-search benchmark's objective: its five shapes, then the ROADMAP's scaled anchor.
SEARCHES = (
    ("T11", {"U": 1, "V": 2}, 2, None),
    ("T10", {"U": 1, "V": 2}, 2, None),
    ("T12", {"U": 1, "V": 1, "Yh": 2}, 2, None),
    ("T4", {"U": 1, "V1": 2, "V2": 1, "Yh": 1}, 2, None),
    ("T3", {"U": 1, "V1": 2, "V2": 1}, 2, None),
    ("T11", {"U": 2, "V": 2}, 3, MODEL_FILE),
)
SEARCH_OBJECTIVE = (0.0, 1.0, 0.0)
SAMPLE_S = 0.02  # target length of one timing sample
PAPER_NET = (5.0, 3.0, 2.0, 8.0, 2.0)  # (P1, P2, N1, N2, Nr)
CURVES = (("b_df", None), ("b_nf", None), ("b_cf", 300.0))  # (strategy, q)
# (strategy, q_values, rstar_steps) at 401 alphas: a C-model grid and the
# 96-slice compress-forward region of the gauss-sweep benchmark.
REGIONS = (
    ("c_df", (300.0,), 2),
    ("c_cf", (300.0, 200.0, 100.0, 50.0, 30.0, 20.0), 16),
)


def load_tree(src: str, name: str) -> dict:
    """The tree's `relaysec` package as the top-level package `name`."""
    root = os.path.join(os.path.abspath(src), "relaysec")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    mods = ("acceptance", "bounds", "dmc", "gaussian", "pmf", "regionsearch", "sweep")
    return {m: importlib.import_module(f"{name}.{m}") for m in mods}


def table_calls(tree: dict, spec, full) -> list:
    """Every (table, args, kwargs) that one `evaluate_stack` passes a bound table."""
    cls = tree["bounds"]._BoundTable
    real, calls = cls.__call__, []

    def record(table, *args, **kwargs):
        calls.append((table, args, kwargs))
        return real(table, *args, **kwargs)

    cls.__call__ = record
    try:
        tree["bounds"].evaluate_stack(spec, full)
    finally:
        cls.__call__ = real
    return calls


def stages(tree: dict, theorem: str, probs: np.ndarray, n: int) -> dict:
    """The timed callables of one tree on the first `n` couplings, and their outputs."""
    b, rs = tree["bounds"], tree["regionsearch"]
    spec = b.theorem_spec(theorem)
    model = tree["acceptance"].favorable_model(np.random.default_rng(0))
    full = b.compose_stack(spec, model, probs[:n])
    ev = b.evaluate_stack(spec, full)
    calls = table_calls(tree, spec, full)
    out = {
        "compose": (lambda: b.compose_stack(spec, model, probs[:n]), full),
        "entropies": (lambda: spec.compiled.entropies(full), spec.compiled.entropies(full)),
        "tables": (lambda: [t(*a, **k) for t, a, k in calls], None),
        "evaluate": (lambda: b.evaluate_stack(spec, full), ev.bounds),
        "extremes": (lambda: rs._stack_extremes(spec, ev, OBJECTIVE, b.DEFAULT_TOL),
                     rs._stack_extremes(spec, ev, OBJECTIVE, b.DEFAULT_TOL)[0]),
    }
    if n == 1:
        joint = tree["pmf"].JointPMF(spec.coupling_vars, probs[0])
        coupling = b.AuxiliaryCoupling(joint, theorem)
        out["couple"] = (lambda: b.coupling_stack(spec, model, coupling),
                         b.coupling_stack(spec, model, coupling))
        rates = tree["acceptance"].random_rates(np.random.default_rng(0), spec.config, scale=0.3)

        def query():
            coupling = b.AuxiliaryCoupling(joint, theorem)
            return b.evaluate_membership(theorem, model, coupling, rates)

        out["query op"] = (query, None)
    return out


def catalog_rows(tree: dict) -> list:
    """Every row of one tree's catalog, rendered with its theorem and branch."""
    return [f"{theorem} {br.branch_id} {ineq.name}"
            for theorem, spec in tree["bounds"]._catalog().items()
            for br in spec.branches for ineq in br.inequalities]


def search_stages(tree: dict) -> list:
    """(theorem, shape, callable, output) rows of one tree's whole searches."""
    rs, dmc = tree["regionsearch"], tree["dmc"]
    stage_model = tree["acceptance"].favorable_model(np.random.default_rng(0))
    out = []
    for theorem, sizes, steps, path in SEARCHES:
        model = stage_model
        if path:
            with open(path, encoding="utf-8") as fh:
                model = dmc.DMCModel.from_json(fh.read())

        def search(theorem=theorem, model=model, sizes=sizes, steps=steps):
            r = rs.brute_force_best(model, sizes, steps, theorem, SEARCH_OBJECTIVE)
            head = [r.best.objective_value, *r.best.rates.as_tuple(), r.couplings_scanned]
            return np.concatenate([head, r.coupling.joint.probs.ravel()])

        shape = ",".join(f"{k}={v}" for k, v in sizes.items()) + f",g={steps}"
        out.append((theorem, shape, search, search()))
    return out


def max_diff(old, new) -> float:
    """Largest |new - old|; equal non-finite entries count 0, unequal shapes inf."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if old.shape != new.shape:
        return float("inf")
    with np.errstate(invalid="ignore"):
        diff = np.where((old == new) | (np.isnan(old) & np.isnan(new)), 0.0, np.abs(new - old))
    return float(np.max(diff, initial=0.0))


def gaussian_stages(tree: dict) -> list:
    """(strategy, grid, stage, callable, output) rows of one tree's Gaussian stages."""
    g, sw = tree["gaussian"], tree["sweep"]
    net = g.GaussianNetwork(*PAPER_NET)
    out = []
    for sid, q in CURVES:
        strategy, grid = g.STRATEGIES[sid], sw.GridSpec(401, 401)
        alphas = np.linspace(0.0, 1.0, grid.alpha_steps)
        rstar = g.cf_rstar_max(net, q) if q else None

        def candidates(strategy=strategy, alphas=alphas, q=q, rstar=rstar):
            return strategy.candidates(net, alphas, q, rstar)

        def bracket(strategy=strategy, grid=grid, alphas=alphas, q=q, rstar=rstar):
            return sw._bracket_columns(strategy, net, grid, alphas, q, rstar)

        def curve(sid=sid, grid=grid):
            c = sw.max_r1_vs_alpha(sid, net, grid)
            return np.concatenate((c.value, c.beta))

        out += [(sid, "401x401", name, f, f()) for name, f in
                (("candidates", candidates), ("bracket", bracket), ("curve", curve))]
    for sid, q_values, rstar_steps in REGIONS:
        grid = sw.GridSpec(401, 2, q_values, rstar_policy="grid", rstar_steps=rstar_steps)
        slices = len(q_values) * rstar_steps if g.STRATEGIES[sid].uses_q else 1

        def frontier(sid=sid, grid=grid):
            f = sw.sweep_frontier(sid, net, grid)
            cols = (f.first, f.second, f.alpha, f.beta, f.q, f.rstar)
            return np.concatenate([c for c in cols if c is not None])

        out.append((sid, f"401x{slices}", "frontier", frontier, frontier()))
    return out


def best_of(funcs: list, repeats: int) -> list:
    """Best seconds per call of each callable, sampled in turns, alternating order,
    after one untimed call of each, so that no first sample pays for a cold start."""
    for f in funcs:
        f()
    loops, seconds = timeit.Timer(funcs[0]).autorange()
    number = max(1, round(loops * SAMPLE_S / seconds))
    best = [float("inf")] * len(funcs)
    for r in range(repeats):
        order = range(len(funcs)) if r % 2 == 0 else reversed(range(len(funcs)))
        for i in order:
            best[i] = min(best[i], timeit.Timer(funcs[i]).timeit(number) / number)
    return best


def report(label: str, funcs: list, diff: str) -> None:
    """Print one row: per tree the median over ROUNDS of its best-of-REPEATS time,
    the medians' ratio, the range of the rounds' own ratios, and `diff`."""
    rounds = np.array([best_of(funcs, REPEATS) for _ in range(ROUNDS)])
    t_old, t_new = np.median(rounds, axis=0)
    ratios = rounds[:, 1] / rounds[:, 0]
    print(f"{label}{t_old * 1e6:>12.1f}{t_new * 1e6:>12.1f}{t_new / t_old:>9.2f}"
          f"{f'{ratios.min():.2f}-{ratios.max():.2f}':>11}{diff:>11}", flush=True)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [load_tree(argv[0], "relaysec_old"), load_tree(argv[1], "relaysec_new")]
    columns = f"{'old':>12}{'new':>12}{'new/old':>9}{'range':>11}{'max|diff|':>11}"
    print(f"# numpy {np.__version__}, python {sys.version.split()[0]}, BLAS pinned to 1 thread, "
          f"median of {ROUNDS} rounds of best of {REPEATS}, microseconds per call")
    print(f"{'theorem':<8}{'N':>6}  {'stage':<10}{columns}")
    diff = 0.0 if catalog_rows(trees[0]) == catalog_rows(trees[1]) else float("inf")
    report(f"{'all':<8}{'-':>6}  {'catalog':<10}", [tree["bounds"]._catalog for tree in trees],
           f"{diff:.1e}")
    for theorem in THEOREMS:
        old = trees[0]
        rng = np.random.default_rng(int(theorem[1:]))
        model = old["acceptance"].favorable_model(np.random.default_rng(0))
        probs = np.stack([
            old["acceptance"].random_coupling(rng, theorem, model, independent_aux=True).joint.probs
            for _ in range(max(SIZES))
        ])
        for n in SIZES:
            per_tree = [stages(tree, theorem, probs, n) for tree in trees]
            for stage in per_tree[0]:
                (f_old, v_old), (f_new, v_new) = per_tree[0][stage], per_tree[1][stage]
                diff = "" if v_old is None else f"{np.max(np.abs(v_new - v_old), initial=0.0):.1e}"
                report(f"{theorem:<8}{n:>6}  {stage:<10}", [f_old, f_new], diff)
    print(f"\n{'theorem':<8}{'shape':>22}  {'stage':<10}{columns}")
    for (theorem, shape, f_old, v_old), (*_, f_new, v_new) in zip(
        *(search_stages(tree) for tree in trees)
    ):
        report(f"{theorem:<8}{shape:>22}  {'search':<10}", [f_old, f_new],
               f"{max_diff(v_old, v_new):.1e}")
    print(f"\n{'strategy':<10}{'grid':>8}  {'stage':<10}{columns}")
    for (sid, grid, stage, f_old, v_old), (*_, f_new, v_new) in zip(
        *(gaussian_stages(tree) for tree in trees)
    ):
        report(f"{sid:<10}{grid:>8}  {stage:<10}", [f_old, f_new], f"{max_diff(v_old, v_new):.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
