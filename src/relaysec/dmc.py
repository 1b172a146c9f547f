"""Discrete memoryless relay broadcast channel data types.

The channel has two inputs (transmitter X, relay X1) and three outputs
(receiver 1 sees Y, the relay sees Y1, receiver 2 sees Z), described by a
dense conditional table p(y, y1, z | x, x1) whose axes follow `CHANNEL_VARS`;
`DMCModel.sizes` is each channel variable's alphabet size under that key, and
a model file names them by `SIZE_KEYS`.  Rate points are quintuples
(R0, R1, R2, Re1, Re2): a common-message rate, two confidential-message
rates and their equivocation components; reduced message configurations pin
the unused components at zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ValidationError, parse_json, require_json_int, require_json_numbers
from .pmf import check_masses

#: Canonical order of the names within an MI term (`bounds._TermMap`).
CANONICAL_VARS = ("U", "U1", "U2", "V", "V1", "V2", "X", "X1", "Y", "Y1", "Yh", "Z")
#: The channel's variables, in the order of `DMCModel.transition`'s axes.
CHANNEL_VARS = ("X", "X1", "Y", "Y1", "Z")
#: A model JSON file's size keys ("x_size", ...), in CHANNEL_VARS order.
SIZE_KEYS = tuple(f"{v.lower()}_size" for v in CHANNEL_VARS)

ADMISSIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class DMCModel:
    """Transition law p(y, y1, z | x, x1), indexed [x, x1, y, y1, z], with the
    alphabet sizes `sizes` keyed by channel variable.

    Its (x, x1) slices go through `pmf.check_masses` as one stack, x-major, so a
    refusal names the bad slice by its position x * x1_size + x1.  A model with
    an empty alphabet is refused there too."""

    transition: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.transition, dtype=np.float64)
        if arr.ndim != 5:
            raise ValidationError(
                f"DMCModel: transition must be indexed [x,x1,y,y1,z]; got {arr.ndim} axes"
            )
        slices = arr.reshape(arr.shape[0] * arr.shape[1], *arr.shape[2:])
        check_masses(slices, "DMCModel slices p(y,y1,z|x,x1) in x-major order")
        object.__setattr__(self, "transition", arr)
        arr.setflags(write=False)

    @cached_property
    def sizes(self) -> Mapping[str, int]:
        """Read-only alphabet size of each channel variable, keyed and ordered by CHANNEL_VARS."""
        return MappingProxyType(dict(zip(CHANNEL_VARS, self.transition.shape)))

    @cached_property
    def y1_conditional(self) -> np.ndarray:
        """p(y1 | x, x1), shape (x, x1, y1): read-only, summed once per model."""
        table = self.transition.sum(axis=(2, 4))
        table.setflags(write=False)
        return table

    @cached_property
    def yz_given_y1(self) -> np.ndarray:
        """p(y, z | x, x1, y1), indexed [x, x1, y, y1, z]; 0 where y1 cannot occur."""
        y1 = self.y1_conditional[:, :, None, :, None]
        table = np.divide(self.transition, y1, out=np.zeros_like(self.transition), where=y1 > 0.0)
        table.setflags(write=False)
        return table

    def to_json(self) -> str:
        payload = dict(zip(SIZE_KEYS, self.sizes.values()))
        return json.dumps({**payload, "transition": self.transition.tolist()}, indent=2)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DMCModel":
        try:
            arr = np.asarray(payload["transition"], dtype=np.float64)
            sizes = tuple(payload[k] for k in SIZE_KEYS)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"DMCModel JSON: malformed payload ({exc})") from exc
        require_json_numbers(payload["transition"], "DMCModel JSON: transition")
        for key, size in zip(SIZE_KEYS, sizes):
            require_json_int(size, f"DMCModel JSON: {key}")
        if arr.shape != sizes:
            raise ValidationError(
                f"DMCModel JSON: transition shape {arr.shape} does not match declared sizes {sizes}"
            )
        return cls(arr)

    @classmethod
    def from_json(cls, text: str) -> "DMCModel":
        return cls.from_json_dict(parse_json(text, "DMCModel JSON"))


@dataclass(frozen=True)
class RateTuple:
    """A point (R0, R1, R2, Re1, Re2) in bits/channel-use.

    Equivocation components never exceed their message rates; reduced models
    keep unused components at 0.
    """

    r0: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    re1: float = 0.0
    re2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("r0", "r1", "r2", "re1", "re2"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"RateTuple: {name} must be a finite nonnegative rate, got {v!r}")
        if self.re1 > self.r1 + ADMISSIBILITY_SLACK:
            raise ValidationError(
                f"RateTuple: admissibility Re1 <= R1 violated ({self.re1} > {self.r1})"
            )
        if self.re2 > self.r2 + ADMISSIBILITY_SLACK:
            raise ValidationError(
                f"RateTuple: admissibility Re2 <= R2 violated ({self.re2} > {self.r2})"
            )

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r0, self.r1, self.r2, self.re1, self.re2)

    @classmethod
    def zero(cls) -> "RateTuple":
        return cls()
