"""Exact finite-alphabet probability machinery.

Dense mass tables, base-2 logarithms everywhere (results are bits per channel
use), and the measure-theoretic convention that 0*log(0) and 0/0 cells
contribute exactly 0.  Alphabets here are desk scale (a few symbols per axis,
at most a dozen axes), so everything is stored dense.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError, ValidationError

MASS_TOL = 1e-12
FACTORIZATION_TOL = 1e-10  # looser than MASS_TOL: reconstruction compounds rounding
# Rounding scale of H(AC) + H(BC) - H(ABC) - H(C), relative to the four entropies' sum.
ENTROPY_RESIDUE = 8 * np.finfo(np.float64).eps


def _check_mass(probs: np.ndarray, what: str) -> None:
    if probs.size == 0:
        raise ValidationError(f"{what}: empty mass table")
    if not np.all(np.isfinite(probs)):
        idx = np.unravel_index(int(np.argmin(np.isfinite(probs))), probs.shape)
        raise ValidationError(
            f"{what}: non-finite mass at entry {tuple(int(i) for i in idx)}"
        )
    neg = probs < 0.0
    if np.any(neg):
        idx = np.unravel_index(int(np.argmax(neg)), probs.shape)
        raise ValidationError(
            f"{what}: negative mass {probs[idx]:.6g} at entry {tuple(int(i) for i in idx)}"
        )
    total = float(probs.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"{what}: total mass {total!r} differs from 1 by more than {MASS_TOL}")


def check_masses(probs: np.ndarray, what: str) -> None:
    """`_check_mass` on each table of a stack (N, ...); raises on the first bad one."""
    flat = probs.reshape(len(probs), -1)
    ok = np.all(np.isfinite(flat) & (flat >= 0.0), axis=1) & (abs(flat.sum(axis=1) - 1) <= MASS_TOL)
    for i in np.flatnonzero(~ok)[:1]:
        _check_mass(probs[i], what)


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
        _check_mass(arr, "JointPMF")

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
        """Same joint with axes permuted into the requested order."""
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
            sizes = tuple(int(a["size"]) for a in axes)
            probs = np.asarray(payload["probs"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"JointPMF JSON: malformed payload ({exc})") from exc
        if probs.shape != sizes:
            raise ValidationError(
                f"JointPMF JSON: probs shape {probs.shape} does not match axis sizes {sizes}"
            )
        return cls(names, probs)

    @classmethod
    def from_json(cls, text: str) -> "JointPMF":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"JointPMF JSON: parse failure at line {exc.lineno}: {exc.msg}") from exc
        return cls.from_json_dict(payload)


def _clamp_information(value: np.ndarray, what: str) -> np.ndarray:
    """Tiny negative rounding residues become 0; anything below -1e-9 is an error."""
    bad = ~(value > -1e-9)
    if np.any(bad):
        raise ValidationError(
            f"{what}: impossible negative value {float(value[bad][0])!r} (corrupt mass table?)"
        )
    return np.where(value >= 0.0, value, 0.0)


class SubsetEntropies:
    """Entropies in bits of fixed non-empty variable subsets (large ones first) of
    stacked joints over `axes`, plus a last column 0 for the empty subset.  Each
    marginal is summed from its smallest superset already computed, all cells go
    through one x*log2(x) pass, and a joint gets the same bits alone or stacked."""

    def __init__(self, axes: Sequence[str], subsets: Sequence[Iterable[str]]) -> None:
        done = [tuple(axes)]
        self._steps: list[tuple[int, tuple[int, ...]]] = []  # (source, summed axes)
        for s in map(set, subsets):
            src = min((k for k, c in enumerate(done) if s <= set(c)), key=lambda k: len(done[k]))
            self._steps.append((src, tuple(1 + k for k, v in enumerate(done[src]) if v not in s)))
            done.append(tuple(v for v in done[src] if v in s))

    def __call__(self, probs: np.ndarray) -> np.ndarray:
        """(N, subsets + 1) entropies of stacked joints `probs` (N, *sizes)."""
        n = len(probs)
        tables = [probs]
        for src, drop in self._steps:
            tables.append(tables[src].sum(axis=drop))
        flat = [t.reshape(n, -1) for t in tables[1:]] + [np.ones((n, 1))]
        offsets = np.cumsum([0] + [f.shape[1] for f in flat[:-1]])
        flat = np.concatenate(flat, axis=1)
        return 0.0 - np.add.reduceat(flat * np.log2(np.where(flat > 0.0, flat, 1.0)), offsets, axis=1)


def information(h: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), summed in that order, for each
    row of `index` (the columns of AC, BC, ABC, C in stacked entropies `h`),
    and its rounding scale, ENTROPY_RESIDUE times the four entropies' sum.
    A value within its scale reads 0, as the direct sum gives for independence."""
    ac, bc, abc, c = (h[:, index[:, k]] for k in range(4))
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


def factorization_deviation(
    probs: np.ndarray, axis_names: Sequence[str], pattern: FactorizationPattern
) -> np.ndarray:
    """Worst cell error (N,) of stacked joints (N, *sizes) rebuilt from the
    pattern's conditionals p(targets | given), with 0/0 cells read as 0."""
    pos = {v: 1 + k for k, v in enumerate(axis_names)}
    product = np.ones((1,) * probs.ndim)
    for targets, given in pattern.factors:
        ptg, pg = (
            probs.sum(axis=tuple(set(pos.values()) - {pos[v] for v in keep}), keepdims=True)
            for keep in (targets + given, given)
        )
        factor = np.zeros(np.broadcast_shapes(ptg.shape, pg.shape))
        np.divide(ptg, pg, out=factor, where=pg > 0.0)
        product = product * factor
    return np.max(np.abs(probs - product).reshape(len(probs), -1), axis=1)
