"""Parameter sweeps, Pareto filtering, and tabular region boundaries.

Grids are inclusive-endpoint grids on [0, 1]; `*_steps` counts grid points.
`_slices` lists every feasible compress-forward (q, R*) pair after refusing
a request over MAX_GRID_CELLS; the C model has no beta knob, so its beta
axis is just {0}.  `sweep_frontier` evaluates a strategy's kernel on the
alpha x beta grid of every slice (numpy, one call per block of at most
BLOCK_CELLS cells, so memory stays bounded whatever the grid) and keeps the
Pareto-maximal corners with full parameter provenance, so CSV consumers can
annotate plots; among exact (first, second) duplicates it keeps the smallest
(alpha, beta, q, R*), then the earliest.

Results are columnar, one array entry per point and no object per point: a
`Frontier` holds `first`, `second`, `alpha`, `beta`, `q`, `rstar` and the
`active` min-branch labels (from one kernel call on the survivors); a `Curve`
holds `alpha`, `value`, `beta`, `q` and `rstar`, so `curve.value.max()` is the
curve's peak.  Without compress-forward, q and rstar are None.  Both keep
read-only copies of their columns, refuse rates that are not finite and
>= 0, and check the `StrategyParams` range rules (`check_params`) once per
column.

`max_r1_vs_alpha` keeps, per alpha, the best R1 over beta and every slice,
but evaluates few beta columns.  For fixed alpha a B-model R1 is
max(0, min_i E_i(s)) in s = (1 - beta) P1, each E_i a sum of logs of ratios
of affine functions of s (`Strategy.terms`).  The stationary point of each
E_i and the crossing of each pair are roots of quadratics.  Between
consecutive roots one E_i is the minimum and monotone, and so is R1, so the
grid points of that stretch peak at one of its ends; a row whose best R1 is
0 has it first at beta = 0.  Columns floor(k) - 1 .. floor(k) + 2 around
each root's beta index k, plus both ends, sorted ascending, thus hold the
full grid's argmax and its earliest-beta tie rule.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, UsageError, ValidationError
from .gaussian import (  # evaluate_strategy is re-exported for callers of this module
    GaussianNetwork,
    RatePair,
    Strategy,
    cf_rstar_max,
    check_params,
    evaluate_strategy,  # noqa: F401
    resolve_strategy,
)

RSTAR_POLICIES = ("max", "grid")
MAX_GRID_CELLS = 10_000_000  # a larger Gaussian grid request is refused up front
BLOCK_CELLS = 1 << 18  # `sweep_frontier` holds one block of at most this many grid cells at a time
_BRACKET = (-1, 0, 1, 2)  # around a root's floor; the outer two absorb its rounding


@dataclass(frozen=True)
class GridSpec:
    """Sweep resolution: inclusive endpoint grids plus compress-forward knobs."""

    alpha_steps: int = 401
    beta_steps: int = 401
    q_values: tuple[float, ...] = (300.0,)
    rstar_policy: str = "max"
    rstar_steps: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        if self.alpha_steps < 2 or self.beta_steps < 2:
            raise ValidationError("GridSpec: alpha_steps and beta_steps must be >= 2")
        if any(q <= 0.0 for q in self.q_values):
            raise ValidationError("GridSpec: q_values must be positive")
        if self.rstar_policy not in RSTAR_POLICIES:
            raise ValidationError(
                f"GridSpec: rstar_policy must be one of {RSTAR_POLICIES}, got {self.rstar_policy!r}"
            )
        if self.rstar_policy == "grid" and self.rstar_steps < 2:
            raise ValidationError("GridSpec: rstar_steps must be >= 2 for the grid policy")


def _as_columns(obj, owner: str, rates: Sequence[str], params: Sequence[str]) -> None:
    """Store each named column of `obj` as a read-only float array copy (None
    stays None), then check that the `rates` are finite and >= 0, the ranges of
    the strategy `params` and one entry per point in every array."""
    for n in (*rates, *params):
        if getattr(obj, n) is not None:
            object.__setattr__(obj, n, np.array(getattr(obj, n), dtype=float))
    columns = {n: v for n, v in vars(obj).items() if isinstance(v, np.ndarray)}
    for v in columns.values():
        v.flags.writeable = False
    for n in rates:
        if not np.all(np.isfinite(columns[n]) & (columns[n] >= 0.0)):
            raise ValidationError(f"{owner}: {n} must be finite and >= 0")
    check_params(owner, **columns)
    if len({v.shape for v in columns.values()}) > 1:
        raise ValidationError(f"{owner}: columns differ in length")


@dataclass(frozen=True, eq=False)
class Frontier:
    """Pareto-maximal corners, one array entry per point, ascending in `first`:
    the rates, the alpha, beta, q and R* that reach them, and the `active` label
    ("" for a single-arm strategy); q and rstar are None without compress-forward."""

    strategy_id: str
    net: GaussianNetwork
    first: np.ndarray
    second: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    active: np.ndarray
    q: np.ndarray | None = None
    rstar: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "active", np.array(self.active, dtype=str))
        _as_columns(self, "Frontier", ("first", "second"), ("alpha", "beta", "q", "rstar"))
        if np.any(np.diff(self.first) <= 0.0):
            raise ValidationError("Frontier: first coordinates must be strictly increasing")
        # Together with strictly increasing firsts this is Pareto-maximality.
        if np.any(np.diff(self.second) >= 0.0):
            raise ValidationError("Frontier: contains a dominated or duplicate point")

    def max_first(self) -> float:
        return float(self.first.max()) if self.first.size else 0.0

    def max_second(self) -> float:
        return float(self.second.max()) if self.second.size else 0.0

    def convex_hull(self) -> Frontier:
        """The points on the upper concave envelope (optional time-sharing closure)."""
        first, second = self.first.tolist(), self.second.tolist()
        hull: list[int] = []
        for i, (x, y) in enumerate(zip(first, second)):
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = ((first[k], second[k]) for k in hull[-2:])
                if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0.0:
                    hull.pop()
                else:
                    break
            hull.append(i)
        columns = {n: v[hull] for n, v in vars(self).items() if isinstance(v, np.ndarray)}
        return replace(self, **columns)


@dataclass(frozen=True, eq=False)
class Curve:
    """Best R1 per alpha (`value`) and the beta, q and R* that reach it, one
    array entry per alpha; q and rstar are None without compress-forward."""

    strategy_id: str
    net: GaussianNetwork
    alpha: np.ndarray
    value: np.ndarray
    beta: np.ndarray
    q: np.ndarray | None = None
    rstar: np.ndarray | None = None

    def __post_init__(self) -> None:
        _as_columns(self, "Curve", ("value",), ("alpha", "beta", "q", "rstar"))
        if np.any(np.diff(self.alpha) <= 0.0):
            raise ValidationError("Curve: alphas must be strictly increasing")
        if not self.alpha.size or self.alpha[0] != 0.0 or self.alpha[-1] != 1.0:
            raise ValidationError("Curve: alpha grid must cover [0, 1]")


def _pareto_survivors(
    first: np.ndarray, second: np.ndarray, prov_cols: Sequence[np.ndarray]
) -> np.ndarray:
    """Indices of the Pareto-maximal points, ascending in the first coordinate.

    One sort by first, descending, splits the points into groups of equal first
    (0.0 and -0.0 alike).  A point is a candidate when its second is its group's
    maximum and that maximum beats every earlier group's; the candidates of one
    group are exact coordinate duplicates and collapse to the
    provenance-lexicographically smallest one (columns given most significant
    first), then to the earliest index.
    """
    order = np.argsort(-first)
    f, s = first[order], second[order]
    new = np.ones(f.size, dtype=bool)
    new[1:] = f[1:] != f[:-1]
    group = np.cumsum(new) - 1
    top = np.maximum.reduceat(s, np.flatnonzero(new))
    beats = top > np.concatenate(([-np.inf], np.maximum.accumulate(top)[:-1]))
    cand = np.flatnonzero((s == top[group]) & beats[group])
    idx, group = order[cand], group[cand]
    pick = np.lexsort((idx, *(c[idx] for c in reversed(prov_cols)), group))
    idx, group = idx[pick], group[pick]
    return idx[np.diff(group, prepend=-1) > 0][::-1]


def pareto_filter(points: Sequence[RatePair]) -> list[RatePair]:
    """Exactly the Pareto-maximal subset; duplicates collapse to one point.

    Idempotent and independent of input order; result sorted by first
    coordinate ascending.
    """
    if not points:
        return []
    first = np.array([p.first for p in points], dtype=np.float64)
    second = np.array([p.second for p in points], dtype=np.float64)
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
        raise ValidationError("pareto_filter: coordinates must be finite")
    if np.any(first < 0.0) or np.any(second < 0.0):
        raise ValidationError("pareto_filter: coordinates must be nonnegative")
    keep = _pareto_survivors(first, second, ())
    return [RatePair(float(first[i]), float(second[i])) for i in keep]


def _axis(steps: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, steps)


def _slices(strategy: Strategy, net: GaussianNetwork, grid: GridSpec, curve: bool) -> list:
    """Every feasible compress-forward (q, R*) in grid order, or [(None, None)].

    First refuses a request whose grid would exceed MAX_GRID_CELLS: alpha_steps
    x beta columns x slices, plus the two axes as built (the C model's beta
    axis is one point).  A B-model curve's columns are both ends and
    len(_BRACKET) per candidate root, counted by `Strategy.root_count`."""
    pairs = [(None, None)]
    if strategy.uses_q:
        # A q whose limit is negative cannot pay for its own compression.
        pairs = [(q, limit) for q in grid.q_values if (limit := cf_rstar_max(net, q)) >= 0.0]
    per_q = grid.rstar_steps if strategy.uses_q and grid.rstar_policy == "grid" else 1
    betas = width = grid.beta_steps if strategy.config == "B" else 1  # see `_betas`
    if curve and pairs and strategy.config == "B":
        width = min(width, 2 + len(_BRACKET) * strategy.root_count(net, *pairs[0]))
    cells = grid.alpha_steps * width * len(pairs) * per_q + grid.alpha_steps + betas
    if cells > MAX_GRID_CELLS:
        raise ValidationError(
            f"{strategy.strategy_id}: the grid needs about {cells:.3g} cells, over the limit "
            f"of {MAX_GRID_CELLS:.3g}; lower alpha_steps, beta_steps, q_values or rstar_steps"
        )
    if per_q == 1:
        return pairs
    return [(q, float(rs)) for q, limit in pairs for rs in np.linspace(0.0, limit, per_q)]


def _no_slice(strategy: Strategy, net: GaussianNetwork, grid: GridSpec) -> Exception:
    """Why a compress-forward sweep has no slice: no q, or none that pays its way."""
    if not grid.q_values:
        return UsageError(f"{strategy.strategy_id} needs a compression variance q")
    return InfeasibleError(
        f"compress-forward infeasible at every q in {list(grid.q_values)}",
        limit=max(cf_rstar_max(net, q) for q in grid.q_values),
    )


def _betas(strategy: Strategy, grid: GridSpec) -> np.ndarray:
    """The beta axis; the C model's is {0}."""
    return _axis(grid.beta_steps) if strategy.config == "B" else np.zeros(1)


def sweep_frontier(strategy_id: str, net: GaussianNetwork, grid: GridSpec) -> Frontier:
    """Evaluate the strategy over the whole grid and Pareto-filter the corners."""
    strategy = resolve_strategy(strategy_id)
    net.require_ordering()
    pairs = _slices(strategy, net, grid, curve=False)
    if not pairs:
        empty = np.empty(0)
        return Frontier(strategy.strategy_id, net, *[empty] * 4, np.empty(0, str), empty, empty)
    # The grid is (slice, alpha, beta) in C order, evaluated in boxes of at most
    # BLOCK_CELLS cells that take whole trailing axes while they fit, so the
    # blocks follow that order; q and R* are a constant 0 without
    # compress-forward, which such a kernel ignores.  A global survivor survives
    # its own block, so filtering every block's survivors once more, in grid
    # order, gives the whole grid's survivors and its earliest-index tie rule.
    qs, rs = (np.array([v or 0.0 for v in col]) for col in zip(*pairs))
    alphas, betas = _axis(grid.alpha_steps), _betas(strategy, grid)
    shape = (len(pairs), alphas.size, betas.size)
    steps = [min(n, max(1, BLOCK_CELLS // math.prod(shape[k + 1 :]))) for k, n in enumerate(shape)]
    blocks = []
    for corner in itertools.product(*(range(0, n, step) for n, step in zip(shape, steps))):
        ps, js, ks = (slice(c, c + step) for c, step in zip(corner, steps))
        a, b = alphas[None, js, None], betas[None, None, ks]
        qc, rc = qs[ps, None, None], rs[ps, None, None]
        box = np.broadcast_shapes(a.shape, b.shape, qc.shape)
        columns = (*strategy.rates(net, a, b, qc, rc), a, b, qc, rc)
        f, s, a, b, qc, rc = (np.broadcast_to(c, box).ravel() for c in columns)
        keep = np.sort(_pareto_survivors(f, s, (a, b, qc, rc)))
        blocks.append([c[keep] for c in (f, s, a, b, qc, rc)])
    f, s, a, b, qc, rc = map(np.concatenate, zip(*blocks))
    keep = _pareto_survivors(f, s, (a, b, qc, rc))
    a, b, qc, rc = a[keep], b[keep], qc[keep], rc[keep]
    arms, _ = strategy.kernel(net, a, b, qc, rc)
    cf = strategy.uses_q
    return Frontier(
        strategy.strategy_id, net, f[keep], s[keep], a, b, strategy.active(arms),
        qc if cf else None, rc if cf else None,
    )


def _bracket_columns(strategy, net, grid, alphas, q, rstar) -> np.ndarray:
    """Per alpha, ascending beta indices that hold the grid argmax of the first
    rate, shape (len(alphas), n); a short row repeats its last index, the
    last beta.  The C model's only column is beta = 0."""
    if strategy.config == "C":
        return np.zeros((alphas.size, 1), dtype=np.intp)
    top = grid.beta_steps - 1
    k = (1.0 - strategy.candidates(net, alphas, q, rstar) / net.p1) * top
    k = np.floor(np.clip(np.where(np.isfinite(k), k, 0.0), 0, top)).astype(np.intp)
    ends = np.broadcast_to(np.array([0, top]), (alphas.size, 2))
    cols = np.sort(np.hstack([ends, *(np.clip(k + d, 0, top) for d in _BRACKET)]), axis=1)
    new = np.ones(cols.shape, dtype=bool)
    new[:, 1:] = cols[:, 1:] != cols[:, :-1]
    counts = new.sum(axis=1)
    rows = np.repeat(np.arange(alphas.size), counts)
    packed = np.full((alphas.size, counts.max()), top)
    packed[rows, np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)] = cols[new]
    return packed


def max_r1_vs_alpha(strategy_id: str, net: GaussianNetwork, grid: GridSpec) -> Curve:
    """Best confidential rate R1 per alpha, maximized over beta and every
    feasible (q, R*); ties go to the earliest (q, R*) in grid order, and
    within it to the earliest beta.  Only the bracketing beta columns of
    `_bracket_columns` are evaluated; the result is the full grid's argmax."""
    strategy = resolve_strategy(strategy_id)
    net.require_ordering()
    pairs = _slices(strategy, net, grid, curve=True)
    if not pairs:
        raise _no_slice(strategy, net, grid)
    alphas, betas = _axis(grid.alpha_steps), _betas(strategy, grid)
    rows = np.arange(alphas.size)
    values, picked = [], []
    for q, rstar in pairs:
        cols = _bracket_columns(strategy, net, grid, alphas, q, rstar)
        first, second = strategy.rates(net, alphas[:, None], betas[cols], q, rstar)
        r1 = first if strategy.config == "B" else second
        j = np.argmax(r1, axis=1)
        values.append(r1[rows, j])
        picked.append(betas[cols[rows, j]])
    best = np.argmax(values, axis=0)  # the first slice reaching the maximum
    value, beta = np.array(values)[best, rows], np.array(picked)[best, rows]
    q, rstar = (np.array(c)[best] if strategy.uses_q else None for c in zip(*pairs))
    return Curve(strategy.strategy_id, net, alphas, value, beta, q, rstar)


def region_boundary(strategy_id: str, net: GaussianNetwork, grid: GridSpec) -> Frontier:
    """Staircase of Pareto-maximal (R0max, R1max) corners over the sweep;
    like `max_r1_vs_alpha`, refuses a strategy left with no feasible slice."""
    strategy = resolve_strategy(strategy_id)
    if strategy.config != "C":
        raise UsageError(
            f"region_boundary applies to the common+confidential strategies, not {strategy_id}"
        )
    frontier = sweep_frontier(strategy_id, net, grid)
    if not frontier.first.size:  # any slice keeps at least one corner
        raise _no_slice(strategy, net, grid)
    return frontier
