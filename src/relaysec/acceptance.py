"""Acceptance criteria for the package, runnable via `relaysec selftest`.

Each criterion pins the tolerances it was specified with; the expected
figure-endpoint constants were frozen from an independent high-precision
evaluation of the closed forms before this package was written.  The mutual
information checks compare against a literal triple-loop summation oracle
kept independent of the production implementation.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounds import (
    AuxiliaryCoupling,
    THEOREMS,
    build_cf_coupling,
    compose_full_joint,
    corollary_constraints,
    corollary_member,
    evaluate_membership,
    mi_terms,
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


def random_model(rng: np.random.Generator, nx=2, nx1=2, ny=2, ny1=2, nz=2) -> DMCModel:
    t = rng.dirichlet(np.ones(ny * ny1 * nz), size=nx * nx1)
    return DMCModel(t.reshape(nx, nx1, ny, ny1, nz))


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
    sizes = {"X": model.x_size, "X1": model.x1_size, "Y1": model.y1_size}
    for v in spec.coupling_vars:
        if v not in sizes and v != "Yh":
            sizes[v] = (aux_sizes or {}).get(v, 2)

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
        sizes["Yh"] = (aux_sizes or {}).get("Yh", 2)
        base_vars = tuple(v for v in spec.coupling_vars if v not in ("Y1", "Yh"))
        base = _random_factorized(rng, base_vars, refine(_base_factors(spec)), sizes)
        q = rng.dirichlet(np.ones(sizes["Yh"]), size=model.x1_size * model.y1_size)
        q = q.reshape(model.x1_size, model.y1_size, sizes["Yh"])
        return build_cf_coupling(theorem_id, base, model, q)
    joint = _random_factorized(rng, spec.coupling_vars, refine(spec.pattern.factors), sizes)
    return AuxiliaryCoupling(joint, theorem_id)


def _base_factors(spec) -> tuple:
    return tuple(
        (targets, given)
        for targets, given in spec.pattern.factors
        if targets not in (("Y1",), ("Yh",))
    )


def _random_factorized(rng, var_order, factors, sizes) -> JointPMF:
    pattern = FactorizationPattern(factors)
    tables = [
        rng.dirichlet(
            np.ones(math.prod(sizes[v] for v in targets)),
            size=math.prod(sizes[v] for v in given),
        ).reshape((1,) + tuple(sizes[v] for v in given + targets))
        for targets, given in pattern.factors
    ]
    return JointPMF(tuple(var_order), pattern.product_stack(var_order, tables)[0])


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


def criterion_1() -> CriterionResult:
    def check():
        maxima = {}
        grid = GridSpec(alpha_steps=401, beta_steps=401, q_values=(PAPER_Q,))
        for label in ("df", "nf", "cf"):
            curve = max_r1_vs_alpha(f"b_{label}", PAPER_NET, grid)
            maxima[label] = max(s.value for s in curve.samples)
        errs = {k: abs(maxima[k] - FIG4_TARGETS[k]) for k in maxima}
        ok = all(e <= 1e-3 for e in errs.values())
        ok = ok and maxima["nf"] > maxima["cf"] > maxima["df"]
        detail = ", ".join(f"{k}={maxima[k]:.6f}" for k in ("df", "nf", "cf"))
        return ok, detail + " (ordering NF>CF>DF)"

    return _result("C1", "Figure-4 grid maxima at the worked network", 5.0, check)


def criterion_2() -> CriterionResult:
    def check():
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
            if any(p.rates.second != 0.0 for p in frontier.points):
                return False, f"{strategy} frontier leaves the R2 = 0 axis"
        return True, f"R2 identically 0 across all sweeps (max |R2| = {worst!r})"

    return _result("C2", "Every two-confidential-message sweep point has R2 = 0", 5.0, check)


def criterion_3() -> CriterionResult:
    def check():
        A, B = np.meshgrid(np.linspace(0, 1, 401), np.linspace(0, 1, 401), indexing="ij")
        df = _paper_rates("b_df", A, B)
        # The no-relay baseline evaluates the identical closed form; spot-check
        # the scalar paths agree bit for bit on a subgrid as well.
        worst = 0.0
        for a in np.linspace(0, 1, 21):
            for b in np.linspace(0, 1, 21):
                sp = StrategyParams(alpha=float(a), beta=float(b))
                x = evaluate_strategy("b_df", PAPER_NET, sp)
                y = evaluate_strategy("b_baseline", PAPER_NET, sp)
                worst = max(worst, abs(x.first - y.first), abs(x.second - y.second))
        ok = worst <= 1e-12 and np.all(np.isfinite(df[0]))
        return ok, f"max |b_df - b_baseline| = {worst!r} over the grid"

    return _result("C3", "Decode-forward equals the no-relay baseline", 2.0, check)


def criterion_4() -> CriterionResult:
    def check():
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

    return _result("C4", "Compress-forward converges to noise-forward as q grows", 10.0, check)


def criterion_5() -> CriterionResult:
    def check():
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

    return _result("C5", "Figure-5 staircase endpoints and relay enhancements", 5.0, check)


def criterion_6() -> CriterionResult:
    def check():
        rng = np.random.default_rng(20240811)
        worst = 0.0
        for _ in range(1000):
            n_axes = int(rng.integers(2, 5))
            sizes = []
            for _ in range(n_axes):
                sizes.append(int(rng.integers(2, 4)))
                if np.prod(sizes) > 81:
                    sizes.pop()
                    break
            if int(np.prod(sizes)) > 81:
                continue
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

    return _result(
        "C6", "Mutual information and every bound's MI terms match the naive oracle", 10.0, check
    )


def _slice_membership_agrees(rng, theorem_id: str) -> tuple[bool, str]:
    spec = theorem_spec(theorem_id)
    model = random_model(rng)
    coupling = random_coupling(rng, theorem_id, model)
    r = random_rates(rng, spec.config)
    point = (r.r0, r.r1, r.r2)
    slice_rates = RateTuple(r.r0, r.r1, r.r2, re1=r.r1, re2=r.r2)
    via_theorem = evaluate_membership(theorem_id, model, coupling, slice_rates).member
    via_corollary = corollary_member(theorem_id, model, coupling, point)
    if via_theorem != via_corollary:
        return False, (
            f"{theorem_id}: slice membership {via_theorem} but corollary says "
            f"{via_corollary} at {point}"
        )
    return True, ""


_REDUCTIONS = {"T5": "T1", "T6": "T2", "T7": "T3", "T8": "T4"}


def _reduction_agrees(rng, reduced_id: str) -> tuple[bool, str]:
    parent_id = _REDUCTIONS[reduced_id]
    model = random_model(rng)
    # The parent's common-message auxiliary collapses to a constant for the
    # outer-bound pair; the inner bounds share U as-is.
    aux_sizes = {"U": 1} if reduced_id == "T5" else None
    coupling = random_coupling(rng, reduced_id, model, aux_sizes=aux_sizes)
    r = random_rates(rng, "B")
    reduced = evaluate_membership(reduced_id, model, coupling, r)
    parent = evaluate_membership(parent_id, model, coupling, r)
    if reduced.member != parent.member:
        return False, (
            f"{reduced_id} vs {parent_id}: members differ "
            f"({reduced.member} vs {parent.member}) at {r.as_tuple()}"
        )
    return True, ""


def criterion_7() -> CriterionResult:
    def check():
        rng = np.random.default_rng(7041776)
        per_pair = 200
        for theorem_id in THEOREMS:
            for _ in range(per_pair):
                ok, msg = _slice_membership_agrees(rng, theorem_id)
                if not ok:
                    return False, msg
        for reduced_id in _REDUCTIONS:
            for _ in range(per_pair):
                ok, msg = _reduction_agrees(rng, reduced_id)
                if not ok:
                    return False, msg
        return True, f"{per_pair} random instances per theorem pair, all consistent"

    return _result("C7", "Corollary slices and reduced configurations agree", 60.0, check)


def _grid_scan_best(branches, dims, objective, steps=50):
    box = 0.0
    for br in branches:
        if not br.applicable:
            continue
        for lc in br.constraints:
            box = max(box, lc.bound)
    if box <= 0.0:
        box = 1.0
    axes = [np.linspace(0.0, box, steps) for _ in dims]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    best = None
    for br in branches:
        if not br.applicable:
            continue
        a = np.array([[lc.coefs[d] for d in dims] for lc in br.constraints])
        b = np.array([lc.bound for lc in br.constraints])
        feas = np.all(pts @ a.T <= b + 1e-9, axis=1)
        if not np.any(feas):
            continue
        vals = pts[feas] @ np.array([objective[d] for d in dims])
        cand = float(vals.max())
        best = cand if best is None else max(best, cand)
    return best, box / (steps - 1)


def criterion_8() -> CriterionResult:
    def check():
        rng = np.random.default_rng(42424242)
        # Pareto properties.
        pts = [RatePair(float(a), float(b)) for a, b in rng.uniform(0, 1, size=(600, 2))]
        once = pareto_filter(pts)
        twice = pareto_filter(once)
        if [(p.first, p.second) for p in once] != [(p.first, p.second) for p in twice]:
            return False, "pareto_filter is not idempotent"
        perm = list(pts)
        rng.shuffle(perm)
        if [(p.first, p.second) for p in pareto_filter(perm)] != [
            (p.first, p.second) for p in once
        ]:
            return False, "pareto_filter is not permutation invariant"
        # Downward closure of membership.  The confidential layer toward the
        # noisier receiver is degenerate so the favorable channels actually
        # yield nonempty regions.
        for theorem_id in ("T2", "T3", "T7", "T10", "T11"):
            sizes = None if theorem_spec(theorem_id).config == "C" else {"V2": 1}
            nonempty = 0
            for _ in range(20):
                model = favorable_model(rng)
                coupling = random_coupling(
                    rng, theorem_id, model, aux_sizes=sizes, independent_aux=True
                )
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
                coupling = random_coupling(
                    rng, theorem_id, model, aux_sizes=sizes, independent_aux=True
                )
                for objective in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
                    ext = secrecy_region_extremes(theorem_id, model, coupling, objective)
                    branches = corollary_constraints(theorem_id, model, coupling)
                    grid_best, resolution = _grid_scan_best(branches, dims, objective)
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

    return _result("C8", "Region structure properties", 60.0, check)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all() -> list[CriterionResult]:
    return [c() for c in ALL_CRITERIA]
