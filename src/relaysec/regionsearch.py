"""Extreme points of the perfect-secrecy slices and brute-force coupling search.

The slice constraint systems live in at most three rate dimensions with at
most a dozen inequalities, so extreme points come from exhaustive vertex
enumeration (every d-subset of active constraints plus the axis planes)
rather than an LP dependency.  A theorem's coefficients do not depend on the
coupling, so the regular d-subsets of all its branches are found once and
stacked into one system; only right-hand sides vary.  A stack of couplings
then takes one vertex pass for every branch at once: one solve, and one
feasibility test of each vertex against its own branch's rows.  The extreme
point is the best feasible vertex.  Couplings go through
`bounds.evaluate_stack` as stacks (one coupling is a stack of one), and the
search walks its grid in chunks of bounded size.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bounds import (
    DEFAULT_TOL,
    AuxiliaryCoupling,
    StackEvaluation,
    TheoremSpec,
    compose_stack,
    coupling_stack,
    evaluate_stack,
    require_factorization,
    theorem_spec,
)
from .dmc import DMCModel, RateTuple
from .errors import BudgetExceededError, UsageError
from .pmf import JointPMF, check_masses

DEFAULT_BUDGET = 10_000_000
# A search chunk holds CHUNK_CELLS // (cells of one composed joint) couplings,
# at least one, so its arrays stay near a megabyte whatever the grid size.
CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class ExtremePoint:
    rates: RateTuple
    objective_value: float
    branch_id: str
    empty_interior: bool = False


class _VertexSystem:
    """Every branch's rows, then its axis planes r_k >= 0 (as -r_k <= 0), stacked
    as R rows: the column `source` (R,) of a bound matrix each row reads (-1: the
    zero column `rhs` appends) and `corollary` (branches, R), each branch's own
    non-axis rows.  The regular d-subsets of each branch's rows, K in all, in
    branch then subset order: their rows `subsets` (K, d) and matrices `sub_a`
    (K, d, d), their branch `owner` (K,), and that branch's rows `rows` (K, W)
    with coefficients `row_a` (K, W, d), the last row repeated up to the widest
    branch's W."""

    def __init__(self, coefs: Sequence[np.ndarray], sources: Sequence[Sequence[int]]) -> None:
        """Branch k has rows `coefs[k]` (R_k, d) reading bound columns `sources[k]`."""
        d = coefs[0].shape[1]
        blocks = [np.vstack([c, np.diag(np.full(d, -1.0))]) for c in coefs]
        ends = np.cumsum([len(a) for a in blocks])
        width = max(len(a) for a in blocks)
        subsets, rows = [], []
        for a, end in zip(blocks, ends):
            start = end - len(a)
            sub = np.array(list(itertools.combinations(range(len(a)), d)))
            sub = start + sub[np.abs(np.linalg.det(a[sub])) >= 1e-12]
            subsets.append(sub)
            own = np.minimum(np.arange(start, start + width), end - 1)
            rows.append(np.broadcast_to(own, (len(sub), width)))
        a = np.vstack(blocks)
        self.subsets, self.rows = np.concatenate(subsets), np.concatenate(rows)
        self.sub_a, self.row_a = a[self.subsets], a[self.rows]
        row_owner = np.searchsorted(ends, np.arange(len(a)), side="right")
        self.owner = row_owner[self.subsets[:, 0]]
        self.source = np.concatenate([np.r_[np.array(s, dtype=int), [-1] * d] for s in sources])
        self.corollary = (row_owner == np.arange(len(blocks))[:, None]) & (self.source >= 0)

    def rhs(self, bounds: np.ndarray) -> np.ndarray:
        """(N, R) right-hand sides of the stacked rows from (N, columns) bounds."""
        return np.concatenate([bounds, np.zeros((len(bounds), 1))], axis=1)[:, self.source]


@functools.cache
def _theorem_system(theorem_id: str) -> _VertexSystem:
    spec = theorem_spec(theorem_id)
    dims = spec.rate_dims()
    coefs = [
        np.array([[r.rates[i] for i in dims] for r in br.corollary]).reshape(-1, len(dims))
        for br in spec.branches
    ]
    return _VertexSystem(coefs, [br.corollary for br in spec.compiled.branches])


def _vertices(system: _VertexSystem, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (N, K, d) of every branch under right-hand sides `b` (N, R), and a mask
    of the feasible ones: within `tol` of every row of their own branch."""
    s = system
    n, (k, d) = len(b), s.subsets.shape
    sub_a = np.broadcast_to(s.sub_a, (n, k, d, d))
    points = np.linalg.solve(sub_a, b[:, s.subsets][..., None])[..., 0]
    # A branch's rows include its axis planes, so this also tests r_k >= -tol.
    lhs = sum(s.row_a[..., i] * points[..., i : i + 1] for i in range(d))  # fixed order, no BLAS
    return points, ~np.any(lhs > (b + tol)[:, s.rows], axis=2)


def _full_points(points: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """(..., d) vertices as (..., 3) rate points; negative coordinates read 0."""
    full = np.zeros(points.shape[:-1] + (3,))
    full[..., list(dims)] = np.where(points > 0.0, points, 0.0)
    return full


def _first_max(keys: Sequence[np.ndarray], valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (N, K) keys: any valid column, and the first valid one whose keys,
    compared in order, are largest."""
    for key in keys:
        top = np.max(np.where(valid, key, -np.inf), axis=1, keepdims=True, initial=-np.inf)
        valid = valid & (key == top)
    return valid.any(axis=1), valid.argmax(axis=1)


def _stack_extremes(spec: TheoremSpec, ev: StackEvaluation, obj, tol: float):
    """Per coupling of a stack: best value (N,), point (N, 3), branch (N,; -1: none) over
    the feasible vertices of each applicable branch with a feasible origin, in branch
    then subset order: the largest (value, R0, R1, R2), first on a tie."""
    system = _theorem_system(spec.theorem_id)
    b = system.rhs(ev.bounds)
    vertices, feasible = _vertices(system, b, tol)
    origin = np.all((b >= -tol)[:, None, :] | ~system.corollary, axis=2)
    valid = feasible & (ev.applicable & origin)[:, system.owner]
    point = _full_points(vertices, spec.rate_dims())
    value = ((0.0 + obj[0] * point[..., 0]) + obj[1] * point[..., 1]) + obj[2] * point[..., 2]
    found, first = _first_max([value, *np.moveaxis(point, 2, 0)], valid)
    rows = np.arange(len(value))
    return (
        np.where(found, value[rows, first], 0.0),
        np.where(found[:, None], point[rows, first], 0.0),
        np.where(found, system.owner[first], -1),
    )


def _extreme_point(spec: TheoremSpec, value: float, point: np.ndarray, branch: int) -> ExtremePoint:
    if branch < 0:
        return ExtremePoint(RateTuple.zero(), 0.0, "none", empty_interior=True)
    r0, r1, r2 = point.tolist()  # a `_full_points` point: 0 off rate_dims(), never negative
    rates = RateTuple(r0, r1, r2, re1=r1, re2=r2)
    return ExtremePoint(rates, value, spec.branches[branch].branch_id)


def _objective(objective: Sequence[float]) -> tuple[float, ...]:
    obj = tuple(float(v) for v in objective)
    if len(obj) != 3 or not all(math.isfinite(v) for v in obj):
        raise UsageError("objective must be a direction of three finite weights over (R0, R1, R2)")
    return obj


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
    obj = _objective(objective)
    spec = theorem_spec(theorem_id)
    full = coupling_stack(spec, model, coupling)
    ev = evaluate_stack(spec, full, rstar=rstar, tol=tol, clamp_equivocation=clamp_equivocation)
    value, point, branch = _stack_extremes(spec, ev, obj, tol)
    return _extreme_point(spec, float(value[0]), point[0], int(branch[0]))


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


def _grid_chunks(
    spec: TheoremSpec, model: DMCModel, aux_sizes: Mapping[str, int], grid_steps: int
) -> Iterator[np.ndarray]:
    """The factorized simplex grid as stacked couplings in grid order, chunk by
    chunk; each chunk passes every check a single AuxiliaryCoupling makes."""
    sizes = _axis_sizes(spec, model, aux_sizes)
    tables = []  # per factor: every grid table, stacked as (choices, given..., targets...)
    for targets, given in spec.pattern.factors:
        shape = tuple(sizes[v] for v in given + targets)
        if targets == ("Y1",):
            # Pinned to the channel's own relay observation law.
            tables.append(model.y1_conditional().reshape((1,) + shape))
            continue
        per_cell = np.array(list(simplex_grid(math.prod(sizes[v] for v in targets), grid_steps)))
        rows = math.prod(sizes[v] for v in given)
        picks = np.array(list(itertools.product(range(len(per_cell)), repeat=rows))).reshape(-1, rows)
        tables.append(per_cell[picks].reshape((len(picks),) + shape))
    counts = [len(t) for t in tables]
    channel = {"Y": model.y_size, "Y1": model.y1_size, "Z": model.z_size, **sizes}
    step = max(1, CHUNK_CELLS // math.prod(channel[v] for v in spec.full_vars))
    for start in range(0, math.prod(counts), step):
        picks = np.unravel_index(np.arange(start, min(start + step, math.prod(counts))), counts)
        probs = spec.pattern.product_stack(spec.coupling_vars, [t[p] for t, p in zip(tables, picks)])
        check_masses(probs, "JointPMF")
        require_factorization(spec, probs)
        yield probs


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
    would exceed `budget` evaluations.  One serial pass evaluates the grid
    chunk by chunk and keeps only the running best by (objective,
    lexicographic rates), so memory does not grow with the grid; ties keep the
    earliest coupling in grid order, the only one built as AuxiliaryCoupling.
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
    obj = _objective(objective)
    spec = theorem_spec(theorem_id)
    best, scanned = None, 0
    for probs in _grid_chunks(spec, model, aux_sizes, grid_steps):
        full = compose_stack(spec, model, probs)
        ev = evaluate_stack(spec, full, rstar=rstar, tol=tol, clamp_equivocation=clamp_equivocation)
        value, point, branch = _stack_extremes(spec, ev, obj, tol)
        i = int(_first_max([value[None], *point.T[:, None]], np.ones((1, len(value)), bool))[1][0])
        key = (float(value[i]), tuple(point[i].tolist()))
        if best is None or key > best[0]:
            best = (key, point[i], int(branch[i]), probs[i].copy())
        scanned += len(probs)
    (value_i, _), point_i, branch_i, probs_i = best
    coupling = AuxiliaryCoupling(JointPMF(spec.coupling_vars, probs_i), theorem_id)
    return BruteForceResult(_extreme_point(spec, value_i, point_i, branch_i), coupling, scanned)
