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


@dataclass(frozen=True)
class FinitePMF:
    """Probability mass function on a finite alphabet {0, ..., n-1}."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "probs", arr)
        arr.setflags(write=False)
        _check_mass(arr, "FinitePMF")

    @property
    def support_size(self) -> int:
        return int(self.probs.size)


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

    def marginal(self, names: Sequence[str]) -> "JointPMF":
        """Marginal over `names`, axes kept in this joint's original order."""
        keep = sorted(self.axis_indices(names))
        if len(set(keep)) != len(names):
            raise UsageError(f"marginal: repeated variable in {list(names)}")
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        return JointPMF(
            tuple(self.axis_names[i] for i in keep),
            self.probs.sum(axis=drop) if drop else self.probs,
        )

    def reordered(self, names: Sequence[str]) -> "JointPMF":
        """Same joint with axes permuted into the requested order."""
        perm = self.axis_indices(names)
        if sorted(perm) != list(range(self.probs.ndim)):
            raise UsageError(
                f"reordered: {list(names)} is not a permutation of {list(self.axis_names)}"
            )
        return JointPMF(tuple(names), np.transpose(self.probs, perm))

    def to_json(self) -> str:
        payload = {
            "axes": [
                {"name": n, "size": s}
                for n, s in zip(self.axis_names, self.axis_sizes)
            ],
            "probs": self.probs.tolist(),
        }
        return json.dumps(payload, indent=2)

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


def entropy(p: FinitePMF) -> float:
    """Shannon entropy in bits; zero-mass symbols contribute nothing."""
    mass = p.probs[p.probs > 0.0]
    value = float(-(mass * np.log2(mass)).sum())
    return 0.0 if value < 0.0 else value


def _clamp_information(value: float, what: str) -> float:
    if value >= 0.0:
        return value
    if value > -1e-9:
        return 0.0
    raise ValidationError(f"{what}: impossible negative value {value!r} (corrupt mass table?)")


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

    keep = sorted(groups[0] | groups[1] | groups[2])
    drop = tuple(i for i in range(j.probs.ndim) if i not in keep)
    m = j.probs.sum(axis=drop) if drop else j.probs
    pos = {orig: k for k, orig in enumerate(keep)}
    ax_a = tuple(pos[i] for i in a)
    ax_b = tuple(pos[i] for i in b)

    pac = m.sum(axis=ax_b, keepdims=True)
    pbc = m.sum(axis=ax_a, keepdims=True)
    pc = m.sum(axis=ax_a + ax_b, keepdims=True)

    mask = m > 0.0
    num = (m * pc)[mask]
    den = np.broadcast_to(pac * pbc, m.shape)[mask]
    value = float((m[mask] * np.log2(num / den)).sum())
    return _clamp_information(value, "cond_mutual_info")


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

    @property
    def target_variables(self) -> frozenset[str]:
        return frozenset(v for targets, _ in self.factors for v in targets)

    def product(self, var_order: Sequence[str], tables: Sequence[np.ndarray]) -> JointPMF:
        """Joint over `var_order` from one (given..., targets...) table per factor.

        Factors multiply in pattern order, so a fixed set of tables always
        gives the same bits.
        """
        var_order = tuple(var_order)
        axis_of = {v: i for i, v in enumerate(var_order)}
        probs = np.ones((1,) * len(var_order))
        for (targets, given), table in zip(self.factors, tables):
            names = given + targets
            shape = [table.shape[names.index(v)] if v in names else 1 for v in var_order]
            order = np.argsort([axis_of[v] for v in names])
            probs = probs * np.transpose(table, order).reshape(shape)
        return JointPMF(var_order, probs)

    def describe(self) -> str:
        parts = []
        for targets, given in self.factors:
            inner = ",".join(targets)
            parts.append(f"p({inner}|{','.join(given)})" if given else f"p({inner})")
        return " * ".join(parts)


@dataclass(frozen=True)
class FactorizationReport:
    pattern: FactorizationPattern
    max_abs_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation <= self.tol


def _conditional_factor(j: JointPMF, targets: Sequence[str], given: Sequence[str]) -> np.ndarray:
    """p(targets | given) broadcast to the full table shape; 0/0 cells -> 0."""
    t = j.axis_indices(targets)
    g = j.axis_indices(given)
    if set(t) & set(g):
        raise UsageError(f"factor p({list(targets)}|{list(given)}) reuses a variable")
    other_tg = tuple(i for i in range(j.probs.ndim) if i not in set(t) | set(g))
    other_g = tuple(i for i in range(j.probs.ndim) if i not in set(g))
    ptg = j.probs.sum(axis=other_tg, keepdims=True) if other_tg else j.probs
    pg = j.probs.sum(axis=other_g, keepdims=True) if other_g else j.probs
    out = np.zeros(np.broadcast_shapes(ptg.shape, pg.shape))
    np.divide(ptg, pg, out=out, where=pg > 0.0)
    return out


def check_factorization(
    j: JointPMF,
    pattern: FactorizationPattern,
    tol: float = FACTORIZATION_TOL,
) -> FactorizationReport:
    """Rebuild `j` from the pattern's conditionals and report the worst cell error."""
    targets = pattern.target_variables
    axes = set(j.axis_names)
    if targets != axes:
        raise UsageError(
            f"pattern targets {sorted(targets)} do not cover the joint's axes {sorted(axes)}"
        )
    for _, given in pattern.factors:
        for v in given:
            j.axis_index(v)  # unknown conditioning variable -> UsageError
    product = np.ones((1,) * j.probs.ndim)
    for targets_f, given_f in pattern.factors:
        product = product * _conditional_factor(j, targets_f, given_f)
    deviation = float(np.max(np.abs(j.probs - product)))
    return FactorizationReport(pattern, deviation, tol)
