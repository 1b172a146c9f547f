"""Exact finite-alphabet probability machinery.

Dense mass tables, base-2 logarithms everywhere (results are bits per channel
use), and the measure-theoretic convention that 0*log(0) and 0/0 cells
contribute exactly 0.  Alphabets here are desk scale (a few symbols per axis,
at most a dozen axes), so everything is stored dense.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError, ValidationError, parse_json, require_json_int

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
    row with the joint's cells, each subset's marginal table in turn, and a 1.  A
    marginal is summed from its smallest superset already in the row; each chain
    depth is one (columns, gather, starts) segment sum whose runs list each output
    cell's source cells, the summed axes in C order.  Returns each table's first
    column (and the 1's) and the per-depth sums, in depth order."""
    names, shapes, first, depth, levels = [axes], [shape], [0, math.prod(shape)], [0], {}
    for s in subsets:
        src = min((k for k, c in enumerate(names) if s <= set(c)), key=lambda k: len(names[k]))
        kept_first = sorted(range(len(names[src])), key=lambda k: names[src][k] not in s)
        source = np.arange(math.prod(shapes[src])).reshape(shapes[src]).transpose(kept_first)
        names.append(tuple(v for v in names[src] if v in s))
        shapes.append(source.shape[: len(names[-1])])
        depth.append(depth[src] + 1)
        runs = first[src] + source.reshape(math.prod(shapes[-1]), -1)
        levels.setdefault(depth[-1], []).append((first[-1] + np.arange(len(runs)), runs))
        first.append(first[-1] + len(runs))
    plan = []
    for level in levels.values():  # keys were first seen in depth order
        cols, runs = zip(*level)
        starts = np.cumsum([0] + [r.shape[1] for r in runs for _ in r])[:-1]
        plan.append((np.concatenate(cols), np.concatenate([r.ravel() for r in runs]), starts))
    return np.array(first), tuple(plan)


def _marginals(plan, probs: np.ndarray) -> np.ndarray:
    """Buffer rows (N, tables' cells + 1) of stacked joints `probs` (N, *sizes)."""
    first, levels = plan
    buf = np.empty((len(probs), first[-1] + 1))
    buf[:, : first[1]] = probs.reshape(len(probs), -1)
    buf[:, -1] = 1.0
    for cols, gather, starts in levels:
        buf[:, cols] = np.add.reduceat(buf[:, gather], starts, axis=1)
    return buf


class SubsetEntropies:
    """Entropies in bits of fixed variable subsets (large ones first; the empty one
    reads the total mass) of stacked joints over `axes`, plus a last column 0 for
    the empty subset.  Each marginal is summed from its smallest superset already
    computed, through one `_marginal_plan` per joint shape; all cells go through
    one x*log2(x) pass, and a joint gets the same bits alone or stacked."""

    def __init__(self, axes: Sequence[str], subsets: Sequence[Iterable[str]]) -> None:
        self._chain = (tuple(axes), tuple(map(frozenset, subsets)))

    def __call__(self, probs: np.ndarray) -> np.ndarray:
        """(N, subsets + 1) entropies of stacked joints `probs` (N, *sizes)."""
        plan = _marginal_plan(*self._chain, probs.shape[1:])
        start = plan[0][1:] - plan[0][1]  # each table's and the 1's segment
        flat = _marginals(plan, probs)[:, plan[0][1] :]
        return 0.0 - np.add.reduceat(flat * np.log2(np.where(flat > 0.0, flat, 1.0)), start, axis=1)


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
    a, b, c = tuple(set_a), tuple(set_b), tuple(set_c)
    # Columns ABC, AC, BC, then C, or the empty subset's 0 when C is empty.
    plan = SubsetEntropies(j.axis_names, (a + b + c, a + c, b + c) + ((c,) if c else ()))
    h = plan(j.probs[None])
    return float(information(h, np.array([[1, 2, 0, 3]]))[0][0, 0])


@dataclass(frozen=True)
class FactorizationPattern:
    """A claimed factorization: product of conditionals p(targets | given).

    Every variable must appear as a target in exactly one factor.
    """

    factors: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        norm = tuple(
            (tuple(targets), tuple(given)) for targets, given in self.factors
        )
        object.__setattr__(self, "factors", norm)
        seen: list[str] = []
        for targets, _ in norm:
            seen.extend(targets)
        if len(set(seen)) != len(seen):
            raise ValidationError(
                f"FactorizationPattern: a variable is targeted by more than one factor: {seen}"
            )

    def product_stack(self, var_order: Sequence[str], tables: Sequence[np.ndarray]) -> np.ndarray:
        """Stacked joints (N, *sizes) from stacked (N, given..., targets...) tables;
        factors multiply in pattern order, so the same tables give the same bits."""
        var_order = tuple(var_order)
        axis_of = {v: i for i, v in enumerate(var_order)}
        probs = np.ones((1,) * (len(var_order) + 1))
        for (targets, given), table in zip(self.factors, tables):
            names = given + targets
            shape = [table.shape[1 + names.index(v)] if v in names else 1 for v in var_order]
            order = 1 + np.argsort([axis_of[v] for v in names])
            probs = probs * np.transpose(table, (0, *order)).reshape([len(table)] + shape)
        return probs

    def describe(self) -> str:
        parts = []
        for targets, given in self.factors:
            inner = ",".join(targets)
            parts.append(f"p({inner}|{','.join(given)})" if given else f"p({inner})")
        return " * ".join(parts)


@functools.cache
def _factorization_plan(axes: tuple[str, ...], pattern: FactorizationPattern, shape: tuple):
    """The `_marginal_plan` of every factor's p(targets, given) and p(given) (the
    empty given being the total mass), and the buffer column of each joint cell's
    value of each: (plan, numerators (F, cells), denominators (F, cells))."""
    sides = [(t + g, g) for t, g in pattern.factors]
    subsets = tuple(dict.fromkeys(frozenset(s) for side in sides for s in side))
    plan = _marginal_plan(axes, subsets, shape)

    def columns(names: tuple[str, ...]) -> np.ndarray:
        sizes = [n if v in names else 1 for v, n in zip(axes, shape)]
        cell = np.arange(math.prod(sizes)).reshape(sizes)
        return plan[0][1 + subsets.index(frozenset(names))] + np.broadcast_to(cell, shape).ravel()

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
