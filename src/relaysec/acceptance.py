"""Acceptance criteria for the package, runnable via `relaysec selftest`.

Each criterion pins the tolerances it was specified with; the expected
figure-endpoint constants were frozen from an independent high-precision
evaluation of the closed forms before this package was written.  The mutual
information checks compare against a literal triple-loop summation oracle
kept independent of the production implementation.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounds import (
    DEFAULT_TOL,
    AuxiliaryCoupling,
    THEOREMS,
    build_cf_coupling,
    compose_full_joint,
    coupling_stack,
    evaluate_membership,
    evaluate_stack,
    mi_terms,
    stack_membership,
    theorem_spec,
)
from .dmc import DMCModel, RateTuple
from .gaussian import (
    STRATEGIES,
    GaussianNetwork,
    RatePair,
    StrategyParams,
    cf_rstar_max,
    evaluate_strategy,
)
from .pmf import FactorizationPattern, JointPMF, cond_mutual_info
from .regionsearch import secrecy_region_extremes
from .sweep import GridSpec, max_r1_vs_alpha, pareto_filter, region_boundary, sweep_frontier

PAPER_NET = GaussianNetwork(p1=5.0, p2=3.0, n1=2.0, n2=8.0, nr=2.0)
PAPER_Q = 300.0


def _paper_rates(strategy_id: str, a, b=0.0, q=None, rstar=None):
    """Clamped (first, second) grid rates of one strategy on the paper network."""
    return STRATEGIES[strategy_id].rates(PAPER_NET, a, b, q, rstar)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _result(cid, description, limit_s, check: Callable[[], tuple[bool, str]]) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:  # a crash is a failure, not an abort
        elapsed = time.perf_counter() - start
        return CriterionResult(cid, description, False, f"exception: {exc!r}", elapsed)
    elapsed = time.perf_counter() - start
    if ok and elapsed >= limit_s:
        ok = False
        detail += f" [runtime {elapsed:.2f}s over the {limit_s:.0f}s limit]"
    return CriterionResult(cid, description, ok, detail, elapsed)


ALL_CRITERIA: list[Callable[[], CriterionResult]] = []


def _criterion(description: str, limit_s: float):
    """Register a check returning (ok, detail) as the next criterion of ALL_CRITERIA,
    which numbers it C1, C2, ... in definition order and runs it through `_result`."""

    def register(check: Callable[[], tuple[bool, str]]) -> Callable[[], CriterionResult]:
        cid = f"C{len(ALL_CRITERIA) + 1}"
        criterion = functools.wraps(check)(lambda: _result(cid, description, limit_s, check))
        ALL_CRITERIA.append(criterion)
        return criterion

    return register


# ---------------------------------------------------------------------------
# Independent oracle: literal triple-loop conditional mutual information
# ---------------------------------------------------------------------------


def naive_cond_mutual_info(
    probs: np.ndarray,
    names: Sequence[str],
    set_a: Sequence[str],
    set_b: Sequence[str],
    set_c: Sequence[str] = (),
) -> float:
    """Sum p(a,b,c) log2[p(a,b,c) p(c) / (p(a,c) p(b,c))] cell by cell."""
    idx = {n: i for i, n in enumerate(names)}
    a = [idx[n] for n in set_a]
    b = [idx[n] for n in set_b]
    c = [idx[n] for n in set_c]
    pabc: dict = {}
    pac: dict = {}
    pbc: dict = {}
    pc: dict = {}
    for cell in itertools.product(*(range(s) for s in probs.shape)):
        p = float(probs[cell])
        if p == 0.0:
            continue
        ka = tuple(cell[i] for i in a)
        kb = tuple(cell[i] for i in b)
        kc = tuple(cell[i] for i in c)
        pabc[ka, kb, kc] = pabc.get((ka, kb, kc), 0.0) + p
        pac[ka, kc] = pac.get((ka, kc), 0.0) + p
        pbc[kb, kc] = pbc.get((kb, kc), 0.0) + p
        pc[kc] = pc.get(kc, 0.0) + p
    total = 0.0
    for (ka, kb, kc), p in pabc.items():
        total += p * math.log2(p * pc[kc] / (pac[ka, kc] * pbc[kb, kc]))
    return total


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_model(rng: np.random.Generator) -> DMCModel:
    """Binary channel whose (x, x1) slices are uniform Dirichlet draws."""
    return DMCModel(rng.dirichlet(np.ones(8), size=4).reshape(2, 2, 2, 2, 2))


def _bsc_row(x: int, p: float) -> np.ndarray:
    return np.array([1.0 - p, p]) if x == 0 else np.array([p, 1.0 - p])


def favorable_model(rng: np.random.Generator) -> DMCModel:
    """Binary channel where receiver 1 is cleaner than receiver 2 and the
    relay input adds mild noise to both; such channels admit nonempty secrecy
    regions, which keeps structural checks non-vacuous."""
    py = float(rng.uniform(0.02, 0.12))
    pz = float(rng.uniform(py + 0.15, 0.45))
    py1 = float(rng.uniform(0.05, 0.30))
    dy = float(rng.uniform(0.0, 0.10))
    dz = float(rng.uniform(0.0, 0.10))
    t = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for x1 in range(2):
            y_row = _bsc_row(x, min(0.49, py + x1 * dy))
            z_row = _bsc_row(x, min(0.49, pz + x1 * dz))
            y1_row = _bsc_row(x, py1)
            t[x, x1] = y_row[:, None, None] * y1_row[None, :, None] * z_row[None, None, :]
    return DMCModel(t)


def random_coupling(
    rng: np.random.Generator,
    theorem_id: str,
    model: DMCModel,
    aux_sizes: Mapping[str, int] | None = None,
    independent_aux: bool = False,
) -> AuxiliaryCoupling:
    """Random coupling satisfying the bound's factorization exactly.

    With `independent_aux`, each auxiliary becomes its own independent factor
    (a finer factorization, still admissible), which decorrelates the
    confidential layers and makes nonempty secrecy regions likely.
    """
    spec = theorem_spec(theorem_id)
    aux = [v for v in spec.coupling_vars if v not in model.sizes]
    sizes = {**model.sizes, **{v: (aux_sizes or {}).get(v, 2) for v in aux}}

    def refine(factors):
        if not independent_aux:
            return factors
        out = []
        for targets, given in factors:
            if ("X" in targets or "X1" in targets) and len(targets) <= 2:
                out.append((targets, given))
            else:
                out.extend(((v,), given) for v in targets)
        return tuple(out)

    if spec.uses_compressor:
        base_factors = [f for f in spec.pattern.factors if f[0] not in (("Y1",), ("Yh",))]
        base = _random_factorized(rng, refine(base_factors), sizes)
        q = rng.dirichlet(np.ones(sizes["Yh"]), size=sizes["X1"] * sizes["Y1"])
        q = q.reshape(sizes["X1"], sizes["Y1"], sizes["Yh"])
        return build_cf_coupling(theorem_id, base, model, q)
    joint = _random_factorized(rng, refine(spec.pattern.factors), sizes)
    return AuxiliaryCoupling(joint, theorem_id)


def _random_factorized(rng, factors, sizes) -> JointPMF:
    pattern = FactorizationPattern(factors)
    tables = [
        rng.dirichlet(
            np.ones(math.prod(sizes[v] for v in targets)),
            size=math.prod(sizes[v] for v in given),
        ).reshape((1,) + tuple(sizes[v] for v in given + targets))
        for targets, given in pattern.factors
    ]
    return JointPMF(pattern.variables, pattern.product_stack(tables)[0])


def random_rates(rng: np.random.Generator, config: str, scale: float = 0.5) -> RateTuple:
    r0, r1, r2 = (float(v) for v in rng.uniform(0.0, scale, size=3))
    if config == "B":
        r0 = 0.0
    if config == "C":
        r2 = 0.0
    return RateTuple(r0, r1, r2, re1=r1 * float(rng.uniform()), re2=r2 * float(rng.uniform()))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

# Figure-4 endpoint targets at (P1,P2,N1,N2,Nr) = (5,3,2,8,2), Q = 300.
FIG4_TARGETS = {"df": 0.553458, "nf": 0.633393, "cf": 0.620168}
# Figure-5 endpoint targets on the same network.
FIG5_TARGETS = {
    "baseline_r0": 0.350220,
    "baseline_r1": 0.553458,
    "df_r0": 0.500000,
    "nf_r1": 0.633393,
}


@_criterion("Figure-4 grid maxima at the worked network", 5.0)
def criterion_1():
    maxima = {}
    grid = GridSpec(alpha_steps=401, beta_steps=401, q_values=(PAPER_Q,))
    for label in ("df", "nf", "cf"):
        curve = max_r1_vs_alpha(f"b_{label}", PAPER_NET, grid)
        maxima[label] = float(curve.value.max())
    errs = {k: abs(maxima[k] - FIG4_TARGETS[k]) for k in maxima}
    ok = all(e <= 1e-3 for e in errs.values())
    ok = ok and maxima["nf"] > maxima["cf"] > maxima["df"]
    detail = ", ".join(f"{k}={maxima[k]:.6f}" for k in ("df", "nf", "cf"))
    return ok, detail + " (ordering NF>CF>DF)"


@_criterion("Every two-confidential-message sweep point has R2 = 0", 5.0)
def criterion_2():
    grid = GridSpec(alpha_steps=101, beta_steps=101, q_values=(PAPER_Q,))
    A, B = np.meshgrid(np.linspace(0, 1, 401), np.linspace(0, 1, 401), indexing="ij")
    worst = 0.0
    for arrays in (
        _paper_rates("b_df", A, B),
        _paper_rates("b_nf", A, B),
        _paper_rates("b_cf", A, B, PAPER_Q, max(0.0, cf_rstar_max(PAPER_NET, PAPER_Q))),
    ):
        r2 = arrays[1]
        worst = max(worst, float(np.max(np.abs(r2))))
        if np.any(r2 != 0.0):
            return False, f"nonzero R2 found, max {np.max(np.abs(r2))!r}"
    for strategy in ("b_df", "b_nf", "b_cf", "b_baseline"):
        frontier = sweep_frontier(strategy, PAPER_NET, grid)
        if np.any(frontier.second != 0.0):
            return False, f"{strategy} frontier leaves the R2 = 0 axis"
    return True, f"R2 identically 0 across all sweeps (max |R2| = {worst!r})"


def _no_relay_bcc(a: float, b: float) -> tuple[float, float]:
    """(R1, R2) of the Gaussian broadcast channel with two confidential messages
    and no relay on the paper network, in SNR form with s = (1 - beta) P1;
    written out here, apart from the strategy table."""
    p1, _, n1, n2, _ = PAPER_NET.as_tuple()
    s = (1.0 - b) * p1
    r1 = 0.5 * math.log2(1 + a * s / ((1 - a) * s + n1)) - 0.5 * math.log2(1 + a * s / n2)
    r2 = 0.5 * math.log2(1 + (1 - a) * s / (a * s + n2)) - 0.5 * math.log2(1 + (1 - a) * s / n1)
    return max(r1, 0.0), max(r2, 0.0)


@_criterion("Decode-forward equals the no-relay baseline", 2.0)
def criterion_3():
    A, B = np.meshgrid(np.linspace(0, 1, 401), np.linspace(0, 1, 401), indexing="ij")
    df = _paper_rates("b_df", A, B)
    # Decode-forward and the baseline against the no-relay formula on a subgrid.
    worst = 0.0
    for a in np.linspace(0, 1, 21):
        for b in np.linspace(0, 1, 21):
            want = _no_relay_bcc(float(a), float(b))
            sp = StrategyParams(alpha=float(a), beta=float(b))
            for sid in ("b_df", "b_baseline"):
                got = evaluate_strategy(sid, PAPER_NET, sp)
                worst = max(worst, abs(got.first - want[0]), abs(got.second - want[1]))
    ok = worst <= 1e-12 and np.all(np.isfinite(df[0]))
    return ok, f"max |b_df - no-relay BCC| = {worst!r} over the grid"


@_criterion("Compress-forward converges to noise-forward as q grows", 10.0)
def criterion_4():
    A, B = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 21), indexing="ij")
    alphas = np.linspace(0, 1, 401)
    nf = _paper_rates("b_nf", A, B)[0]
    c_nf_r1 = _paper_rates("c_nf", alphas)[1]
    sups_b, sups_c = [], []
    for k in range(2, 9):
        q = 10.0**k
        rs = cf_rstar_max(PAPER_NET, q)
        if rs < 0.0:
            return False, f"cf_rstar_max negative at q=1e{k}"
        cf = _paper_rates("b_cf", A, B, q, rs)[0]
        sups_b.append(float(np.max(np.abs(cf - nf))))
        c_cf_r1 = _paper_rates("c_cf", alphas, 0.0, q, rs)[1]
        sups_c.append(float(np.max(np.abs(c_cf_r1 - c_nf_r1))))
    mono_b = all(b <= a + 1e-15 for a, b in zip(sups_b, sups_b[1:]))
    mono_c = all(b <= a + 1e-15 for a, b in zip(sups_c, sups_c[1:]))
    ok = mono_b and mono_c and sups_b[-1] <= 1e-3 and sups_c[-1] <= 1e-3
    return ok, (
        f"sup|cf-nf| at q=1e8: B-model {sups_b[-1]:.3e}, C-model {sups_c[-1]:.3e}; "
        f"nonincreasing over q in 1e2..1e8: {mono_b and mono_c}"
    )


@_criterion("Figure-5 staircase endpoints and relay enhancements", 5.0)
def criterion_5():
    grid = GridSpec(alpha_steps=401, beta_steps=2, q_values=(PAPER_Q,))
    fronts = {
        label: region_boundary(f"c_{label}", PAPER_NET, grid)
        for label in ("baseline", "df", "nf", "cf")
    }
    got = {
        "baseline_r0": fronts["baseline"].max_first(),
        "baseline_r1": fronts["baseline"].max_second(),
        "df_r0": fronts["df"].max_first(),
        "nf_r1": fronts["nf"].max_second(),
    }
    errs = {k: abs(got[k] - FIG5_TARGETS[k]) for k in FIG5_TARGETS}
    ok = all(e <= 1e-3 for e in errs.values())
    ok = ok and fronts["df"].max_first() > fronts["baseline"].max_first()
    ok = ok and fronts["nf"].max_second() > fronts["baseline"].max_second()
    ok = ok and fronts["cf"].max_second() > fronts["baseline"].max_second()
    detail = ", ".join(f"{k}={v:.6f}" for k, v in got.items())
    return ok, detail


@_criterion("Mutual information and every bound's MI terms match the naive oracle", 10.0)
def criterion_6():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(1000):
        n_axes = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 4)) for _ in range(n_axes)]  # at most 3^4 = 81 cells
        names = tuple(f"A{i}" for i in range(len(sizes)))
        probs = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
        j = JointPMF(names, probs)
        axes = list(names)
        rng.shuffle(axes)
        na = int(rng.integers(1, len(axes)))
        nb = int(rng.integers(1, max(2, len(axes) - na)))
        set_a, set_b = axes[:na], axes[na : na + nb]
        set_c = axes[na + nb :]
        got = cond_mutual_info(j, set_a, set_b, set_c)
        want = naive_cond_mutual_info(probs, names, set_a, set_b, set_c)
        worst = max(worst, abs(got - max(want, 0.0)))
        if worst > 1e-12:
            return False, f"oracle mismatch {worst!r} on axes {set_a}|{set_b}|{set_c}"
    # The production path: every MI term of every bound on random couplings.
    for theorem_id, make_model in itertools.product(THEOREMS, (random_model, favorable_model)):
        model = make_model(rng)
        coupling = random_coupling(rng, theorem_id, model)
        full, got = compose_full_joint(model, coupling), mi_terms(model, coupling)
        for t in theorem_spec(theorem_id).all_terms():
            want = naive_cond_mutual_info(full.probs, full.axis_names, t.a, t.b, t.c)
            worst = max(worst, abs(got[t.name] - max(want, 0.0)))
            if worst > 1e-12:
                return False, f"{theorem_id}: {t.name} oracle mismatch {worst!r}"
    # chain rule and symmetry on random 2x2x2x2 joints
    worst_prop = 0.0
    for _ in range(200):
        probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        j = JointPMF(("A", "B", "Bp", "C"), probs)
        lhs = cond_mutual_info(j, ("A",), ("B", "Bp"), ("C",))
        rhs = cond_mutual_info(j, ("A",), ("B",), ("C",)) + cond_mutual_info(
            j, ("A",), ("Bp",), ("B", "C")
        )
        worst_prop = max(worst_prop, abs(lhs - rhs))
        sym = abs(
            cond_mutual_info(j, ("A",), ("B",), ("C",))
            - cond_mutual_info(j, ("B",), ("A",), ("C",))
        )
        worst_prop = max(worst_prop, sym)
    ok = worst <= 1e-12 and worst_prop <= 1e-10
    return ok, f"max oracle gap {worst:.2e}; max chain-rule/symmetry gap {worst_prop:.2e}"


_REDUCTIONS = {"T5": "T1", "T6": "T2", "T7": "T3", "T8": "T4"}


def _c7_cases() -> list[tuple[str, str | None, list]]:
    """C7's instances in draw order, 200 per case: each theorem's Re = R slice
    (parent None), then each config-B bound beside its config-A parent.  An
    instance is (model, coupling, rates)."""
    rng = np.random.default_rng(7041776)
    cases = []
    for theorem_id, parent_id in [(t, None) for t in THEOREMS] + list(_REDUCTIONS.items()):
        # The parent's common-message auxiliary collapses to a constant for the
        # outer-bound pair; the inner bounds share U as-is.
        aux_sizes = {"U": 1} if parent_id == "T1" else None
        draws = []
        for _ in range(200):
            model = random_model(rng)
            coupling = random_coupling(rng, theorem_id, model, aux_sizes=aux_sizes)
            draws.append((model, coupling, random_rates(rng, theorem_spec(theorem_id).config)))
        cases.append((theorem_id, parent_id, draws))
    return cases


def _c7_stack(theorem_id: str, draws: list):
    """One case's couplings as one stack under `theorem_id`: its spec and StackEvaluation."""
    spec = theorem_spec(theorem_id)
    full = np.concatenate([coupling_stack(spec, model, coupling) for model, coupling, _ in draws])
    return spec, evaluate_stack(spec, full)


@_criterion("Corollary slices and reduced configurations agree", 60.0)
def criterion_7():
    counts = {"slice": 0, "reduction": 0}
    for theorem_id, parent_id, draws in _c7_cases():
        rates = np.array([r.as_tuple() for _, _, r in draws])
        if parent_id is None:
            spec, ev = _c7_stack(theorem_id, draws)
            rates = rates[:, [0, 1, 2, 1, 2]]  # the Re = R point of (r0, r1, r2)
            got, want = (stack_membership(spec, ev, rates, corollary=corollary)[2].any(axis=1)
                         for corollary in (False, True))
            names = (f"{theorem_id} on the slice", f"{theorem_id}'s corollary")
        else:
            got, want = (stack_membership(*_c7_stack(t, draws), rates)[2].any(axis=1)
                         for t in (theorem_id, parent_id))
            names = (theorem_id, parent_id)
        bad = np.flatnonzero(got != want)
        if bad.size:
            i, point = bad[0], tuple(rates[bad[0]].tolist())
            return False, f"{names[0]} says {got[i]} but {names[1]} says {want[i]} at {point}"
        counts["reduction" if parent_id else "slice"] += len(draws)
    return True, (f"{counts['slice']} slice instances and {counts['reduction']} reduction "
                  "instances, all consistent")


def _grid_scan_best(spec, ev, objective, steps=50):
    """A stack of one coupling: the best objective over a steps^d grid of [0, box]^d,
    box the largest applicable Re = R bound (or 1), that some applicable branch's
    Re = R rows admit within DEFAULT_TOL (None: no point), and the grid spacing."""
    dims = spec.rate_dims()
    live = [br for k, br in enumerate(spec.compiled.branches) if ev.applicable[0, k]]
    bounds = [ev.bounds[0, list(br.corollary)] for br in live]
    coefs = [spec.compiled.slice_rates[list(br.corollary)][:, list(dims)] for br in live]
    box = max([0.0] + [float(b.max()) for b in bounds])
    if box <= 0.0:
        box = 1.0
    axes = [np.linspace(0.0, box, steps) for _ in dims]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    best = None
    for a, b in zip(coefs, bounds):
        feas = np.all(pts @ a.T <= b + DEFAULT_TOL, axis=1)
        if not np.any(feas):
            continue
        vals = pts[feas] @ np.array([objective[d] for d in dims])
        cand = float(vals.max())
        best = cand if best is None else max(best, cand)
    return best, box / (steps - 1)


@_criterion("Region structure properties", 60.0)
def criterion_8():
    rng = np.random.default_rng(42424242)
    # Pareto properties.
    pts = [RatePair(float(a), float(b)) for a, b in rng.uniform(0, 1, size=(600, 2))]
    once = pareto_filter(pts)
    twice = pareto_filter(once)
    if [(p.first, p.second) for p in once] != [(p.first, p.second) for p in twice]:
        return False, "pareto_filter is not idempotent"
    perm = list(pts)
    rng.shuffle(perm)
    if [(p.first, p.second) for p in pareto_filter(perm)] != [(p.first, p.second) for p in once]:
        return False, "pareto_filter is not permutation invariant"
    # Downward closure of membership.  The confidential layer toward the
    # noisier receiver is degenerate so the favorable channels actually
    # yield nonempty regions.
    for theorem_id in ("T2", "T3", "T7", "T10", "T11"):
        sizes = None if theorem_spec(theorem_id).config == "C" else {"V2": 1}
        nonempty = 0
        for _ in range(20):
            model = favorable_model(rng)
            coupling = random_coupling(rng, theorem_id, model, aux_sizes=sizes, independent_aux=True)
            ext = secrecy_region_extremes(theorem_id, model, coupling, (1.0, 1.0, 1.0))
            if ext.empty_interior or ext.objective_value <= 0.0:
                continue
            nonempty += 1
            base = ext.rates
            for _ in range(5):
                f = rng.uniform(0, 1, size=3)
                shrunk = RateTuple(
                    base.r0 * f[0],
                    base.r1 * f[1],
                    base.r2 * f[2],
                    re1=base.re1 * f[1],
                    re2=base.re2 * f[2],
                )
                if not evaluate_membership(theorem_id, model, coupling, shrunk).member:
                    return False, f"{theorem_id}: downward closure violated"
        if nonempty < 3:
            return False, f"{theorem_id}: closure check vacuous ({nonempty} nonempty regions)"
    # Vertex enumeration beats (and matches) a dense grid scan.
    for theorem_id in ("T2", "T3", "T6", "T10", "T11", "T12"):
        spec = theorem_spec(theorem_id)
        dims = spec.rate_dims()
        sizes = None if spec.config == "C" else {"V2": 1}
        for _ in range(3):
            model = favorable_model(rng)
            coupling = random_coupling(rng, theorem_id, model, aux_sizes=sizes, independent_aux=True)
            for objective in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
                ext = secrecy_region_extremes(theorem_id, model, coupling, objective)
                ev = evaluate_stack(spec, coupling_stack(spec, model, coupling))
                grid_best, resolution = _grid_scan_best(spec, ev, objective)
                if grid_best is None:
                    continue
                if ext.objective_value < grid_best - 1e-9:
                    return False, (
                        f"{theorem_id}: vertex value {ext.objective_value} below "
                        f"grid scan {grid_best}"
                    )
                tol = resolution * sum(abs(objective[d]) for d in dims) + 1e-9
                if ext.objective_value > grid_best + tol:
                    return False, (
                        f"{theorem_id}: vertex value {ext.objective_value} too far "
                        f"above grid scan {grid_best} (tol {tol})"
                    )
    return True, "pareto properties, downward closure, vertex-vs-grid all hold"


def run_all() -> list[CriterionResult]:
    return [c() for c in ALL_CRITERIA]
