"""Extreme points of the perfect-secrecy slices and brute-force coupling search.

The slice constraint systems live in at most three rate dimensions with at
most a dozen inequalities, so extreme points come from exhaustive vertex
enumeration (every d-subset of active constraints plus the axis planes)
rather than an LP dependency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bounds import (
    DEFAULT_TOL,
    AuxiliaryCoupling,
    CorollaryBranch,
    TheoremSpec,
    corollary_constraints,
    theorem_spec,
)
from .dmc import DMCModel, RateTuple
from .errors import BudgetExceededError, UsageError

DEFAULT_BUDGET = 10_000_000
VERTEX_DEDUP_TOL = 1e-9


@dataclass(frozen=True)
class ExtremePoint:
    rates: RateTuple
    objective_value: float
    branch_id: str
    empty_interior: bool = False

    def point3(self) -> tuple[float, float, float]:
        return (self.rates.r0, self.rates.r1, self.rates.r2)


def _rate_tuple_from_point(config: str, point: Sequence[float]) -> RateTuple:
    r0, r1, r2 = (max(0.0, float(v)) for v in point)
    if config == "B":
        r0 = 0.0
    if config == "C":
        r2 = 0.0
    return RateTuple(r0, r1, r2, re1=r1, re2=r2)


def _branch_vertices(
    branch: CorollaryBranch, dims: tuple[int, ...], tol: float
) -> list[tuple[float, float, float]]:
    """Feasible vertices of one branch's constraint polytope (3-vector form).

    Every d-subset of the constraint rows and the axis planes r_k >= 0 (as
    -r_k <= 0) is solved in one batch; feasible vertices come back in subset
    order, less near-duplicates of earlier ones.
    """
    d = len(dims)
    coefs = [[lc.coefs[i] for i in dims] for lc in branch.constraints]
    a = np.vstack([np.array(coefs, dtype=np.float64).reshape(-1, d), np.diag(np.full(d, -1.0))])
    b = np.array([lc.bound for lc in branch.constraints] + [0.0] * d, dtype=np.float64)
    subsets = np.array(list(itertools.combinations(range(len(a)), d)))
    sub_a = a[subsets]
    regular = np.abs(np.linalg.det(sub_a)) >= 1e-12
    points = np.linalg.solve(sub_a[regular], b[subsets[regular]][..., None])[..., 0]
    slack_ok = ~np.any((a @ points[..., None])[..., 0] > b + tol, axis=1)
    feasible = ~np.any(points < -tol, axis=1) & slack_ok

    vertices: list[np.ndarray] = []
    for v in points[feasible]:
        if not any(np.max(np.abs(v - w)) <= VERTEX_DEDUP_TOL for w in vertices):
            vertices.append(v)

    out = []
    for v in vertices:
        full = [0.0, 0.0, 0.0]
        for k, dim in enumerate(dims):
            full[dim] = max(0.0, float(v[k]))
        out.append(tuple(full))
    return out


def _origin_feasible(branch: CorollaryBranch, tol: float) -> bool:
    return all(lc.bound >= -tol for lc in branch.constraints)


def secrecy_region_extremes(
    theorem_id: str,
    model: DMCModel,
    coupling: AuxiliaryCoupling,
    objective: Sequence[float],
    *,
    rstar: float | None = None,
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> ExtremePoint:
    """Maximize objective . (R0, R1, R2) over the coupling's Re = R slice.

    Returns the best feasible vertex; ties break to the lexicographically
    largest (R0, R1, R2).  An all-zero point flagged `empty_interior` means
    even the origin fails every qualifying branch.
    """
    obj = tuple(float(v) for v in objective)
    if len(obj) != 3 or not all(math.isfinite(v) for v in obj):
        raise UsageError("objective must be a direction of three finite weights over (R0, R1, R2)")
    spec = theorem_spec(theorem_id)
    dims = spec.rate_dims()
    branches = corollary_constraints(
        theorem_id,
        model,
        coupling,
        rstar=rstar,
        tol=tol,
        clamp_equivocation=clamp_equivocation,
    )
    best: tuple[float, tuple[float, float, float], str] | None = None
    for branch in branches:
        if not branch.applicable or not _origin_feasible(branch, tol):
            continue
        for point in _branch_vertices(branch, dims, tol):
            value = sum(c * v for c, v in zip(obj, point))
            key = (value, point)
            if best is None or key > (best[0], best[1]):
                best = (value, point, branch.branch_id)
    if best is None:
        return ExtremePoint(RateTuple.zero(), 0.0, "none", empty_interior=True)
    value, point, branch_id = best
    return ExtremePoint(_rate_tuple_from_point(spec.config, point), value, branch_id)


# ---------------------------------------------------------------------------
# Simplex-grid enumeration of couplings
# ---------------------------------------------------------------------------


def simplex_grid_count(cells: int, steps: int) -> int:
    """Number of grid distributions over `cells` outcomes at resolution `steps`."""
    if steps < 1:
        raise UsageError("steps must be >= 1")
    if steps == 1:
        return 1
    return math.comb(steps - 1 + cells - 1, cells - 1)


def simplex_grid(cells: int, steps: int) -> Iterator[tuple[float, ...]]:
    """Deterministic grid on the probability simplex.

    `steps` counts mass levels per cell (0, 1/(steps-1), ..., 1); `steps=1`
    degenerates to the single uniform distribution.
    """
    if steps < 1:
        raise UsageError("steps must be >= 1")
    if steps == 1:
        yield (1.0 / cells,) * cells
        return
    total = steps - 1

    def rec(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    for combo in rec(total, cells):
        yield tuple(c / total for c in combo)


def _axis_sizes(
    spec: TheoremSpec,
    model: DMCModel,
    aux_sizes: Mapping[str, int],
) -> dict[str, int]:
    channel = {"X": model.x_size, "X1": model.x1_size, "Y1": model.y1_size}
    aux = [name for name in spec.coupling_vars if name not in channel]
    unknown = sorted(set(aux_sizes) - set(aux))
    if unknown:
        raise UsageError(
            f"aux_sizes names {', '.join(unknown)}, which {spec.theorem_id} does not have; "
            f"its auxiliaries are {', '.join(aux)}"
        )
    sizes = {name: channel[name] for name in spec.coupling_vars if name in channel}
    for name in aux:
        if name not in aux_sizes:
            raise UsageError(f"aux_sizes must provide a cardinality for {name}")
        size = int(aux_sizes[name])
        if size < 1:
            raise UsageError(f"aux size for {name} must be >= 1")
        sizes[name] = size
    return sizes


def estimate_grid_size(
    theorem_id: str,
    model: DMCModel,
    aux_sizes: Mapping[str, int],
    grid_steps: int,
) -> int:
    spec = theorem_spec(theorem_id)
    sizes = _axis_sizes(spec, model, aux_sizes)
    total = 1
    for targets, given in spec.pattern.factors:
        if targets == ("Y1",):
            continue
        t_cells = math.prod(sizes[v] for v in targets)
        total *= simplex_grid_count(t_cells, grid_steps) ** math.prod(sizes[v] for v in given)
    return total


def coupling_grid(
    theorem_id: str,
    model: DMCModel,
    aux_sizes: Mapping[str, int],
    grid_steps: int,
) -> Iterator[AuxiliaryCoupling]:
    """Every coupling of the factorized simplex grid, in deterministic order.

    Only the per-factor grid tables are held; couplings are built one at a
    time as the caller asks for them.
    """
    spec = theorem_spec(theorem_id)
    sizes = _axis_sizes(spec, model, aux_sizes)
    choices = []
    for targets, given in spec.pattern.factors:
        shape = tuple(sizes[v] for v in given + targets)
        if targets == ("Y1",):
            # Pinned to the channel's own relay observation law.
            table = model.y1_conditional()  # (x, x1, y1) matches (given..., target)
            choices.append([table.reshape(shape)])
            continue
        per_cell = list(simplex_grid(math.prod(sizes[v] for v in targets), grid_steps))
        choices.append(
            [
                np.asarray(combo, dtype=np.float64).reshape(shape)
                for combo in itertools.product(per_cell, repeat=math.prod(sizes[v] for v in given))
            ]
        )
    for tables in itertools.product(*choices):
        yield AuxiliaryCoupling(spec.pattern.product(spec.coupling_vars, tables), theorem_id)


@dataclass(frozen=True)
class BruteForceResult:
    best: ExtremePoint
    coupling: AuxiliaryCoupling
    couplings_scanned: int


def brute_force_best(
    model: DMCModel,
    aux_sizes: Mapping[str, int],
    grid_steps: int,
    theorem_id: str,
    objective: Sequence[float],
    *,
    budget: int = DEFAULT_BUDGET,
    rstar: float | None = None,
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> BruteForceResult:
    """Grid search over the bound's admissible couplings.

    Deterministic for a given `grid_steps`; refuses up front when the grid
    would exceed `budget` evaluations.  One serial pass streams the grid and
    keeps only the running best by (objective, lexicographic rates), so
    memory does not grow with the grid; ties keep the earliest coupling in
    grid order.
    """
    for name, size in aux_sizes.items():
        if size > 3:
            raise UsageError(f"aux size for {name} exceeds the brute-force cap of 3")
    estimated = estimate_grid_size(theorem_id, model, aux_sizes, grid_steps)
    if estimated > budget:
        raise BudgetExceededError(
            f"grid for {theorem_id} needs {estimated} evaluations, over the budget of {budget}",
            estimated=estimated,
        )
    obj = tuple(float(v) for v in objective)
    best = None
    scanned = 0
    for coupling in coupling_grid(theorem_id, model, aux_sizes, grid_steps):
        pt = secrecy_region_extremes(
            theorem_id,
            model,
            coupling,
            obj,
            rstar=rstar,
            tol=tol,
            clamp_equivocation=clamp_equivocation,
        )
        scanned += 1
        key = (pt.objective_value, pt.point3())
        if best is None or key > best[0]:
            best = (key, pt, coupling)
    _, best_pt, best_coupling = best
    return BruteForceResult(best_pt, best_coupling, scanned)
