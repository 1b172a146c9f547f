"""Exact finite-alphabet probability machinery.

Dense mass tables, base-2 logarithms everywhere (results are bits per channel
use), and the measure-theoretic convention that 0*log(0) and 0/0 cells
contribute exactly 0.  Alphabets here are desk scale (a few symbols per axis,
at most a dozen axes), so everything is stored dense.

Every I(A;B|C), of `cond_mutual_info` or of a compiled bound, takes its subset
entropies and their `information` index from one plan, `information_plan`.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import UsageError, ValidationError, parse_json, require_json_int, require_json_numbers

MASS_TOL = 1e-12
FACTORIZATION_TOL = 1e-10  # looser than MASS_TOL: reconstruction compounds rounding
# Rounding scale of H(AC) + H(BC) - H(ABC) - H(C), relative to the four entropies' sum.
ENTROPY_RESIDUE = 8 * np.finfo(np.float64).eps


def check_masses(probs: np.ndarray, what: str) -> None:
    """Refuse a stack (N, ...) of mass tables unless it holds a table, and each one
    is finite, nonnegative and of total mass 1 within MASS_TOL.  The refusal names
    the first bad table's first bad entry, or its total, and, in a stack of more
    than one, the table's position."""
    if probs.size == 0:
        raise ValidationError(f"{what}: empty mass table")
    flat = probs.reshape(len(probs), -1)
    total = flat.sum(axis=1)
    ok = (np.isfinite(flat) & (flat >= 0.0)).all(axis=1) & (abs(total - 1.0) <= MASS_TOL)
    if ok.all():
        return
    i = int(np.argmin(ok))
    table, at = probs[i], (f" in table {i}" if len(probs) > 1 else "")
    for fault, bad in (("non-finite", ~np.isfinite(table)), ("negative", table < 0.0)):
        if np.any(bad):
            idx = np.unravel_index(int(np.argmax(bad)), table.shape)
            raise ValidationError(
                f"{what}: {fault} mass {table[idx]:.6g} at entry {tuple(int(k) for k in idx)}{at}"
            )
    raise ValidationError(
        f"{what}: total mass {float(total[i])!r} differs from 1 by more than {MASS_TOL}{at}"
    )


@dataclass(frozen=True)
class JointPMF:
    """Joint law of named finite variables as a dense multi-axis mass table."""

    axis_names: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(self.axis_names)
        object.__setattr__(self, "axis_names", names)
        if len(set(names)) != len(names):
            raise ValidationError(f"JointPMF: duplicate axis names in {names}")
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != len(names):
            raise ValidationError(
                f"JointPMF: table has {arr.ndim} axes but {len(names)} names given"
            )
        object.__setattr__(self, "probs", arr)
        arr.setflags(write=False)
        check_masses(arr[None], "JointPMF")

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.probs.shape)

    def axis_index(self, name: str) -> int:
        try:
            return self.axis_names.index(name)
        except ValueError:
            raise UsageError(
                f"unknown variable {name!r}; axes are {list(self.axis_names)}"
            ) from None

    def axis_indices(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis_index(n) for n in names)

    def reordered(self, names: Sequence[str]) -> "JointPMF":
        """Same joint with axes permuted into the requested order (itself if already so)."""
        if tuple(names) == self.axis_names:
            return self
        perm = self.axis_indices(names)
        if sorted(perm) != list(range(self.probs.ndim)):
            raise UsageError(
                f"reordered: {list(names)} is not a permutation of {list(self.axis_names)}"
            )
        return JointPMF(tuple(names), np.transpose(self.probs, perm))

    def to_json_dict(self) -> dict:
        return {
            "axes": [
                {"name": n, "size": s}
                for n, s in zip(self.axis_names, self.axis_sizes)
            ],
            "probs": self.probs.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "JointPMF":
        try:
            axes = payload["axes"]
            names = tuple(str(a["name"]) for a in axes)
            sizes = tuple(a["size"] for a in axes)
            probs = np.asarray(payload["probs"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"JointPMF JSON: malformed payload ({exc})") from exc
        require_json_numbers(payload["probs"], "JointPMF JSON: probs")
        for name, size in zip(names, sizes):
            require_json_int(size, f"JointPMF JSON: the size of axis {name}")
        if probs.shape != sizes:
            raise ValidationError(
                f"JointPMF JSON: probs shape {probs.shape} does not match axis sizes {sizes}"
            )
        return cls(names, probs)

    @classmethod
    def from_json(cls, text: str) -> "JointPMF":
        return cls.from_json_dict(parse_json(text, "JointPMF JSON"))


def _clamp_information(value: np.ndarray, what: str) -> np.ndarray:
    """Tiny negative rounding residues become 0; anything below -1e-9 is an error."""
    bad = ~(value > -1e-9)
    if bad.any():
        raise ValidationError(
            f"{what}: impossible negative value {float(value[bad][0])!r} (corrupt mass table?)"
        )
    return np.where(value >= 0.0, value, 0.0)


@functools.cache
def _marginal_plan(axes: tuple[str, ...], subsets: tuple[frozenset, ...], shape: tuple[int, ...]):
    """Index arrays, built once per (axes, subsets, joint shape), that fill a buffer
    row with the joint's cells, the subsets' marginal tables grouped by chain depth
    (subset order within a depth), and a 1.  A marginal is summed from its smallest
    superset among the joint and the subsets before it; its runs list each output
    cell's source cells, the summed axes in C order.  Each depth is one segment sum
    (lo, hi, gather, starts) that writes its own columns lo:hi.  Returns each table's
    (and the 1's) first column in layout order, the per-depth sums in depth order,
    and each subset's (and the 1's) place in the layout after the joint."""
    names, shapes, depth, runs = [axes], [shape], [0], [None]
    for s in subsets:
        src = min((k for k, c in enumerate(names) if s <= set(c)), key=lambda k: len(names[k]))
        kept_first = sorted(range(len(names[src])), key=lambda k: names[src][k] not in s)
        source = np.arange(math.prod(shapes[src])).reshape(shapes[src]).transpose(kept_first)
        names.append(tuple(v for v in names[src] if v in s))
        shapes.append(source.shape[: len(names[-1])])
        depth.append(depth[src] + 1)
        runs.append((src, source.reshape(math.prod(shapes[-1]), -1)))
    layout = sorted(range(len(names)), key=depth.__getitem__)  # stable: the joint first
    first = np.cumsum([0] + [math.prod(shapes[k]) for k in layout])
    at = dict(zip(layout, first.tolist()))
    plan, lo = [], int(first[1])
    for d in range(1, max(depth) + 1):
        level = [at[src] + r for src, r in (runs[k] for k in layout if depth[k] == d)]
        starts = np.cumsum([0] + [r.shape[1] for r in level for _ in r])[:-1]
        plan.append((lo, lo + len(starts), np.concatenate([r.ravel() for r in level]), starts))
        lo += len(starts)
    return first, tuple(plan), np.append(np.argsort(layout)[1:] - 1, len(subsets))


def _marginals(plan, probs: np.ndarray) -> np.ndarray:
    """Buffer rows (N, tables' cells + 1) of stacked joints `probs` (N, *sizes), summed in place."""
    first, levels, _ = plan
    buf = np.empty((len(probs), first[-1] + 1))
    buf[:, : first[1]] = probs.reshape(len(probs), -1)
    buf[:, -1] = 1.0
    for lo, hi, gather, starts in levels:
        np.add.reduceat(buf[:, gather], starts, axis=1, out=buf[:, lo:hi])
    return buf


class SubsetEntropies:
    """Entropies in bits of fixed variable subsets (large ones first; the empty one
    reads the total mass) of stacked joints over `axes`, plus a last column 0 for
    the empty subset.  Each marginal is summed from its smallest superset already
    computed, through one `_marginal_plan` per joint shape; all cells go through
    one x*log2(x) pass, summed per table in layout order, one gather puts them back
    in subset order, and a joint gets the same bits alone or stacked."""

    def __init__(self, axes: Sequence[str], subsets: Sequence[Iterable[str]]) -> None:
        self._chain = (tuple(axes), tuple(map(frozenset, subsets)))

    def __call__(self, probs: np.ndarray) -> np.ndarray:
        """(N, subsets + 1) entropies of stacked joints `probs` (N, *sizes)."""
        first, _, place = plan = _marginal_plan(*self._chain, probs.shape[1:])
        flat = _marginals(plan, probs)[:, first[1] :]
        terms = flat * np.log2(np.where(flat > 0.0, flat, 1.0))
        return (0.0 - np.add.reduceat(terms, first[1:] - first[1], axis=1))[:, place]


def information_plan(axes: Sequence[str], triples: Iterable) -> tuple[SubsetEntropies, np.ndarray]:
    """The entropies that give I(A;B|C) for each (A, B, C) of `triples` over joints on
    `axes`: the distinct nonempty subsets among AC, BC, ABC and C, large ones first
    and otherwise in first-use order, and the `information` index (triples, 4) of
    their columns, the empty subset reading the last one."""
    groups = [[frozenset((*a, *c)), frozenset((*b, *c)), frozenset((*a, *b, *c)), frozenset(c)]
              for a, b, c in triples]
    subsets = sorted(dict.fromkeys(g for grp in groups for g in grp if g), key=len, reverse=True)
    column = {s: k for k, s in enumerate(subsets)}
    index = np.array([[column.get(g, len(subsets)) for g in grp] for grp in groups])
    return SubsetEntropies(axes, subsets), index


def information(h: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), summed in that order, for each
    row of `index` (the columns of AC, BC, ABC, C in stacked entropies `h`),
    and its rounding scale, ENTROPY_RESIDUE times the four entropies' sum.
    A value within its scale reads 0, as the direct sum gives for independence."""
    columns = h[:, index]
    ac, bc, abc, c = columns[..., 0], columns[..., 1], columns[..., 2], columns[..., 3]
    value = ((ac + bc) - abc) - c
    residue = ENTROPY_RESIDUE * (ac + bc + abc + c)
    value = np.where(np.abs(value) <= residue, 0.0, value)
    return _clamp_information(value, "cond_mutual_info"), residue


def cond_mutual_info(
    j: JointPMF,
    set_a: Sequence[str],
    set_b: Sequence[str],
    set_c: Sequence[str] = (),
) -> float:
    """I(A;B|C) in bits for disjoint groups of axes of `j`.

    Symmetric in (A, B); tiny negative rounding residues are clamped to 0.
    """
    a = j.axis_indices(set_a)
    b = j.axis_indices(set_b)
    c = j.axis_indices(set_c)
    groups = (set(a), set(b), set(c))
    if len(a) != len(groups[0]) or len(b) != len(groups[1]) or len(c) != len(groups[2]):
        raise UsageError("cond_mutual_info: repeated variable within a group")
    if groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2]:
        raise UsageError(
            f"cond_mutual_info: overlapping groups {list(set_a)} / {list(set_b)} / {list(set_c)}"
        )
    if not a or not b:
        raise UsageError("cond_mutual_info: A and B must be non-empty")
    entropies, index = information_plan(j.axis_names, [(set_a, set_b, set_c)])
    return float(information(entropies(j.probs[None]), index)[0][0, 0])


@dataclass(frozen=True)
class FactorizationPattern:
    """A claimed factorization: product of conditionals p(targets | given).

    Every variable must appear as a target in exactly one factor.
    """

    factors: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple((tuple(t), tuple(g)) for t, g in self.factors))
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("FactorizationPattern: a variable is targeted by more than one "
                                  f"factor: {list(self.variables)}")

    @functools.cached_property
    def variables(self) -> tuple[str, ...]:
        """Every target, factor by factor: the axis order of the joints it describes."""
        return tuple(v for targets, _ in self.factors for v in targets)

    def product_stack(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        """Stacked joints (N, *sizes) over `variables` from stacked (N, given..., targets...)
        tables, each laid out by its `placement`; factors multiply in pattern order, so
        the same tables give the same bits."""
        probs = 1.0
        for (targets, given), table in zip(self.factors, tables):
            probs = probs * placement(given + targets, self.variables, 1)(table)
        return probs

    def describe(self) -> str:
        parts = []
        for targets, given in self.factors:
            inner = ",".join(targets)
            parts.append(f"p({inner}|{','.join(given)})" if given else f"p({inner})")
        return " * ".join(parts)


@functools.cache
def placement(names: tuple[str, ...], order: tuple[str, ...], lead: int = 0) -> Callable:
    """How a table with axes `names`, after `lead` stack axes, enters a product laid out
    in `order`, found by name: a function that transposes the table's axes into `order`
    order, then indexes in an axis for each name of `order` it lacks, ready to broadcast.
    Added axes before the table's first are left to broadcasting, and its axes before
    the first added one to an Ellipsis, so a table already in order is only indexed."""
    if not set(names) <= set(order):
        raise UsageError(f"placement: axes {list(names)} are not all among {list(order)}")
    index = [slice(None)] * lead + [slice(None) if v in names else None for v in order]
    while index and index[0] is None:
        index.pop(0)
    expand = operator.itemgetter((..., *index[index.index(None) :]) if None in index else (...,))
    ranked = sorted(range(len(names)), key=lambda k: order.index(names[k]))
    if ranked == sorted(ranked):
        return expand
    perm = (*range(lead), *(lead + k for k in ranked))
    return lambda table: expand(table.transpose(perm))


@functools.cache
def _factorization_plan(axes: tuple[str, ...], pattern: FactorizationPattern, shape: tuple):
    """The `_marginal_plan` of every factor's p(targets, given) and p(given) (the
    empty given being the total mass), and the buffer column of each joint cell's
    value of each: (plan, numerators (F, cells), denominators (F, cells))."""
    sides = [(t + g, g) for t, g in pattern.factors]
    subsets = tuple(dict.fromkeys(frozenset(s) for side in sides for s in side))
    first, _, place = plan = _marginal_plan(axes, subsets, shape)

    def columns(names: tuple[str, ...]) -> np.ndarray:
        sizes = [n if v in names else 1 for v, n in zip(axes, shape)]
        cell = np.arange(math.prod(sizes)).reshape(sizes)
        return first[1 + place[subsets.index(frozenset(names))]] + np.broadcast_to(cell, shape).ravel()

    return plan, *(np.array([columns(side[k]) for side in sides]) for k in (0, 1))


def factorization_deviation(
    probs: np.ndarray, axis_names: Sequence[str], pattern: FactorizationPattern
) -> np.ndarray:
    """Worst cell error (N,) of stacked joints (N, *sizes) rebuilt from the
    pattern's conditionals p(targets | given), with 0/0 cells read as 0."""
    plan, num, den = _factorization_plan(tuple(axis_names), pattern, probs.shape[1:])
    buf = _marginals(plan, probs)
    top, bottom = buf[:, num], buf[:, den]
    factor = np.divide(top, bottom, out=np.zeros_like(top), where=bottom > 0.0)
    return np.abs(buf[:, : num.shape[1]] - factor.prod(axis=1)).max(axis=1)
