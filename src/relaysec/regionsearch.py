"""Extreme points of the perfect-secrecy slices and brute-force coupling search.

The slice constraint systems live in at most three rate dimensions with at
most a dozen inequalities, so extreme points come from exhaustive vertex
enumeration (every d-subset of active constraints plus the axis planes)
rather than an LP dependency.  A branch's slice rows are its compiled
`corollary` rows with coefficients `CompiledTheorem.slice_rates`; they do not
depend on the coupling, so the regular d-subsets of all its branches, each of
determinant +-1, and their integer inverses are found once and stacked into
one system.  A stack of couplings then takes one vertex pass for every branch
at once: each vertex coordinate is a signed sum of at most three bounds, and
each vertex is tested against its own branch's rows.  A branch competes only
where its origin, the vertex of its d axis planes, passes that same test.  The
extreme point is the best feasible vertex.  Couplings go through
`bounds.evaluate_stack` as stacks (one coupling is a stack of one), and the
search walks its grid in chunks of bounded size.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bounds import (
    DEFAULT_TOL,
    AuxiliaryCoupling,
    StackEvaluation,
    TheoremSpec,
    _grid_coupling,
    compose_stack,
    coupling_stack,
    evaluate_stack,
    theorem_spec,
)
from .dmc import DMCModel, RateTuple
from .errors import DEFAULT_BUDGET, BudgetExceededError, UsageError
from .pmf import check_masses, placement

MAX_GRID_INDEX = int(np.iinfo(np.intp).max)  # grid indices are decoded as numpy intp
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
    as R rows, with the column `source` (R,) of a bound matrix each row reads (-1:
    the zero column `rhs` appends).  The regular d-subsets of each branch's rows, K
    in all, in branch then subset order: their rows `subsets` (K, d), integer
    matrices `sub_a` (K, d, d) of determinant +-1 and exact inverses `inverse`
    (K, d, d), their branch `owner` (K,), and that branch's rows `rows` (K, W) with
    coefficients `row_a` (K, W, d), the last row repeated up to the widest branch's W.
    Each branch's last subset is its d axis planes, of inverse -I: its vertex is the
    origin, whose index is `origin` (branches,)."""

    def __init__(self, name: str, coefs: Sequence[np.ndarray], sources: Sequence[Sequence[int]]) -> None:
        """Branch k of `name` has rows `coefs[k]` (R_k, d <= 3) reading bound columns `sources[k]`."""
        d = coefs[0].shape[1]
        blocks = [np.vstack([c, np.diag(np.full(d, -1.0))]) for c in coefs]
        ends = np.cumsum([len(a) for a in blocks])
        width = max(len(a) for a in blocks)
        subsets, inverses, rows = [], [], []
        for k, (a, end) in enumerate(zip(blocks, ends)):
            start = end - len(a)
            sub = np.array(list(itertools.combinations(range(len(a)), d)))
            # Rows padded by the identity to 3 x 3: det r0.(r1 x r2), adjugate [r1 x r2, r2 x r0, r0 x r1].
            m = np.broadcast_to(np.eye(3, dtype=np.int64), (len(sub), 3, 3)).copy()
            m[:, :d, :d] = a[sub]
            adj = np.stack([np.cross(m[:, i - 2], m[:, i - 1]) for i in range(3)], axis=2)
            det = np.sum(m[:, 0] * adj[:, :, 0], axis=1)
            bad = np.flatnonzero((np.abs(det) > 1) | np.any(m[:, :d, :d] != a[sub], axis=(1, 2)))
            if bad.size:  # its vertex would be no signed sum of bounds: refuse the catalog
                raise ValueError(f"{name} branch {k}: rows {sub[bad[0]].tolist()} (axis planes from row "
                                 f"{len(a) - d}) are not integer rows of determinant 0 or +-1")
            sub, det, adj = sub[det != 0], det[det != 0, None, None], adj[det != 0, :d, :d]
            inverses.append(adj * det)  # adjugate / det, as det = +-1
            subsets.append(start + sub)
            own = np.minimum(np.arange(start, start + width), end - 1)
            rows.append(np.broadcast_to(own, (len(sub), width)))
        a = np.vstack(blocks)
        self.subsets, self.rows = np.concatenate(subsets), np.concatenate(rows)
        self.sub_a, self.row_a = a[self.subsets], a[self.rows]
        self.inverse = np.concatenate(inverses).astype(float)
        self.owner = np.searchsorted(ends, self.subsets[:, 0], side="right")
        self.origin = np.cumsum([len(sub) for sub in subsets]) - 1
        self.source = np.concatenate([np.r_[np.array(s, dtype=int), [-1] * d] for s in sources])

    def rhs(self, bounds: np.ndarray) -> np.ndarray:
        """(N, R) right-hand sides of the stacked rows from (N, columns) bounds."""
        return np.concatenate([bounds, np.zeros((len(bounds), 1))], axis=1)[:, self.source]


@functools.cache
def _theorem_system(theorem_id: str) -> _VertexSystem:
    spec = theorem_spec(theorem_id)
    c, dims = spec.compiled, list(spec.rate_dims())
    coefs = [c.slice_rates[list(br.corollary)][:, dims] for br in c.branches]
    return _VertexSystem(theorem_id, coefs, [br.corollary for br in c.branches])


def _vertices(system: _VertexSystem, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (N, K, d) of every branch under right-hand sides `b` (N, R), and a mask
    of the feasible ones: within `tol` of every row of their own branch."""
    s, d = system, system.subsets.shape[1]
    # Each coordinate is a signed sum of the subset's bounds, added in subset order from 0.
    points = sum(s.inverse[:, :, j] * b[:, s.subsets[:, j], None] for j in range(d))
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
    the feasible vertices of each applicable branch with a feasible origin (its
    axis-plane vertex), in branch then subset order: the largest (value, R0, R1, R2),
    first on a tie."""
    system = _theorem_system(spec.theorem_id)
    vertices, feasible = _vertices(system, system.rhs(ev.bounds), tol)
    valid = feasible & (ev.applicable & feasible[:, system.origin])[:, system.owner]
    point = _full_points(vertices, spec.rate_dims())
    value = ((0.0 + obj[0] * point[..., 0]) + obj[1] * point[..., 1]) + obj[2] * point[..., 2]
    found, first = _first_max([value, *point.transpose(2, 0, 1)], valid)
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
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> ExtremePoint:
    """Maximize objective . (R0, R1, R2) over the coupling's Re = R slice.

    Returns the best feasible vertex; ties break to the lexicographically
    largest (R0, R1, R2).  An all-zero point flagged `empty_interior` means
    even the origin fails every qualifying branch.  A compress-forward branch
    takes its largest feasible R*.
    """
    obj = _objective(objective)
    spec = theorem_spec(theorem_id)
    full = coupling_stack(spec, model, coupling)
    ev = evaluate_stack(spec, full, tol=tol, clamp_equivocation=clamp_equivocation)
    value, point, branch = _stack_extremes(spec, ev, obj, tol)
    return _extreme_point(spec, float(value[0]), point[0], int(branch[0]))


# ---------------------------------------------------------------------------
# Simplex-grid enumeration of couplings
# ---------------------------------------------------------------------------


def simplex_grid_count(cells: int, steps: int) -> int:
    """Number of grid distributions over `cells` outcomes at resolution `steps`."""
    if steps < 1:
        raise UsageError("steps must be >= 1")
    return math.comb(steps - 1 + cells - 1, cells - 1)


@functools.cache
def _simplex_table(cells: int, steps: int) -> np.ndarray:
    """Deterministic grid on the probability simplex as a read-only (count, cells)
    array, built once per process; its rows' masses are checked here, so no grid
    chunk re-checks them.  `steps` counts mass levels per cell (0, 1/(steps-1),
    ..., 1), rows in descending lexicographic order; `steps=1` is the single
    uniform distribution.  By stars and bars, a row is the gaps between cells - 1
    bars placed among steps + cells - 2 slots, the bar sets taken in reverse order."""
    if steps == 1:
        table = np.full((1, cells), 1.0 / cells)
    else:
        slots = steps + cells - 2
        bars = np.array(list(itertools.combinations(range(slots), cells - 1))[::-1])
        edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
        table = (np.diff(edges) - 1) / (steps - 1)
    check_masses(table, "simplex grid")
    table.setflags(write=False)
    return table


def _axis_sizes(
    spec: TheoremSpec,
    model: DMCModel,
    aux_sizes: Mapping[str, int],
) -> dict[str, int]:
    """The coupling's axis sizes: the channel's, and `aux_sizes` for each auxiliary
    (names first, then each size, an integer from 1 to the brute-force cap of 3)."""
    aux = [name for name in spec.coupling_vars if name not in model.sizes]
    unknown = sorted(set(aux_sizes) - set(aux))
    if unknown:
        raise UsageError(
            f"aux_sizes names {', '.join(unknown)}, which {spec.theorem_id} does not have; "
            f"its auxiliaries are {', '.join(aux)}"
        )
    sizes = {name: model.sizes[name] for name in spec.coupling_vars if name in model.sizes}
    for name in aux:
        if name not in aux_sizes:
            raise UsageError(f"aux_sizes must provide a cardinality for {name}")
        size = aux_sizes[name]
        if isinstance(size, bool) or not isinstance(size, numbers.Integral):
            raise UsageError(f"aux size for {name} must be an integer, got {size!r}")
        if size < 1:
            raise UsageError(f"aux size for {name} must be >= 1")
        if size > 3:
            raise UsageError(f"aux size for {name} exceeds the brute-force cap of 3")
        sizes[name] = int(size)
    return sizes


@functools.cache
def _grid_plan(theorem_id: str, sizes: tuple, grid_steps: int, chunk_cells: int):
    """`_grid`'s factors, radices, size and couplings per chunk over (name, size) pairs."""
    spec, sizes = theorem_spec(theorem_id), dict(sizes)
    factors = []  # per factor: its table shape (given..., targets...), target cells, digits
    for targets, given in spec.pattern.factors:
        shape = tuple(sizes[v] for v in given + targets)
        cells = math.prod(sizes[v] for v in targets)
        factors.append((shape, cells, 0 if targets == ("Y1",) else math.prod(shape) // cells))
    radices = [simplex_grid_count(cells, grid_steps) for _, cells, n in factors for _ in range(n)]
    step = max(1, chunk_cells // math.prod(sizes[v] for v in spec.full_vars))
    return factors, radices, math.prod(radices), step


def _grid(
    spec: TheoremSpec, model: DMCModel, aux_sizes: Mapping[str, int], grid_steps: int
) -> tuple[int, Iterator[np.ndarray]]:
    """The factorized simplex grid: its size, and its couplings in grid order as
    stacks, chunk by chunk.  A coupling is one mixed-radix index, the first digit
    slowest, with one digit per given value of each factor that picks a row of the
    checked `_simplex_table` of the factor's target cells; the Y1 factor has no
    digit, being the channel's validated p(y1|x,x1), its axes put in the factor's
    order by name.  A chunk is `product_stack` of its picked rows over
    `spec.coupling_vars`, so it is of unit mass, factorized and carries the
    channel's Y1 leg by construction; no chunk is checked again (the tests check
    every chunk of their grids).  No table is built before the first chunk."""
    sizes = {**model.sizes, **_axis_sizes(spec, model, aux_sizes)}
    factors, radices, count, step = _grid_plan(
        spec.theorem_id, tuple(sizes.items()), grid_steps, CHUNK_CELLS)

    def chunks() -> Iterator[np.ndarray]:
        y1 = model.y1_conditional[None] if spec.uses_compressor else None
        for start in range(0, count, step):
            digits = np.stack(np.unravel_index(np.arange(start, min(start + step, count)), radices), 1)
            tables, first = [], 0
            for (shape, cells, n), (targets, given) in zip(factors, spec.pattern.factors):
                picks = digits[:, first : first + n]
                tables.append(_simplex_table(cells, grid_steps)[picks].reshape((-1,) + shape) if n
                              else placement(("X", "X1", "Y1"), given + targets, 1)(y1))
                first += n
            yield spec.pattern.product_stack(tables)

    return count, chunks()


def estimate_grid_size(
    theorem_id: str,
    model: DMCModel,
    aux_sizes: Mapping[str, int],
    grid_steps: int,
) -> int:
    return _grid(theorem_spec(theorem_id), model, aux_sizes, grid_steps)[0]


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
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> BruteForceResult:
    """Grid search over the bound's admissible couplings.

    Deterministic for a given `grid_steps`; refuses up front a `budget` below 1
    and `aux_sizes` that `_axis_sizes` refuses (UsageError), and a grid of more
    than `budget` or `MAX_GRID_INDEX` couplings (BudgetExceededError).  One
    serial pass evaluates the grid chunk by chunk and keeps only the running
    best by (objective, lexicographic rates), so memory does not grow with the
    grid; ties keep the earliest coupling in grid order.  Only the winner
    becomes an AuxiliaryCoupling, built without the checks its grid already
    passed by construction.
    """
    if budget < 1:
        raise UsageError("budget must be >= 1")
    spec = theorem_spec(theorem_id)
    estimated, chunks = _grid(spec, model, aux_sizes, grid_steps)
    for limit, what in ((budget, "the budget of"), (MAX_GRID_INDEX, "the grid index limit of")):
        if estimated > limit:
            raise BudgetExceededError(
                f"grid for {theorem_id} needs {estimated} evaluations, over {what} {limit}")
    obj = _objective(objective)
    best, scanned = None, 0
    for probs in chunks:
        full = compose_stack(spec, model, probs)
        ev = evaluate_stack(spec, full, tol=tol, clamp_equivocation=clamp_equivocation)
        value, point, branch = _stack_extremes(spec, ev, obj, tol)
        # The chunk's first coupling of largest (value, R0, R1, R2).
        _, (i,) = _first_max([value[None], *point.T[:, None]], np.ones((1, len(value)), dtype=bool))
        key = (float(value[i]), tuple(point[i].tolist()))
        if best is None or key > best[0]:
            best = (key, point[i], int(branch[i]), probs[i].copy())
        scanned += len(probs)
    (value_i, _), point_i, branch_i, probs_i = best
    coupling = _grid_coupling(spec, probs_i)
    return BruteForceResult(_extreme_point(spec, value_i, point_i, branch_i), coupling, scanned)
