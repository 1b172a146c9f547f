"""Scenario files: JSON descriptions of a full experiment.

Schema (unknown keys are rejected):

  Gaussian scenarios (model "B" or "C"):
    {
      "model": "B",
      "net": {"p1": 5.0, "p2": 3.0, "n1": 2.0, "n2": 8.0, "nr": 2.0},
      "strategies": ["df", "nf", "cf"],            # optional, model defaults
      "grid": {"alpha_steps": 401, "beta_steps": 401,
               "q_values": [300.0], "rstar_policy": "max",
               "rstar_steps": 8},                   # optional, these defaults
      "output": "fig4.csv"                          # optional default --out
    }
  `net` values are finite numbers, `strategies` is a list of names, the
  `*_steps` are integers and `q_values` is a list of finite numbers.

  Discrete scenarios (model "DMC"); file paths resolve relative to the
  scenario file:
    {
      "model": "DMC",
      "dmc_model": "dmc_model.json",
      "coupling": "dmc_coupling.json",              # optional for searches
      "theorem": "T3",
      "rates": {"r0": 0, "r1": 0.05, "r2": 0, "re1": 0.05, "re2": 0},
      "tol": 1e-9,                                  # optional
      "output": "dmc_eval.csv"                      # optional
    }
  `theorem`, `dmc_model` and `coupling` are non-empty strings, rates and
  `tol` are finite numbers, and `output` is a non-empty path string.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError
from .gaussian import GaussianNetwork
from .sweep import GridSpec, resolve_strategy

if TYPE_CHECKING:  # the DMC engine loads only for DMC scenarios
    from .bounds import AuxiliaryCoupling
    from .dmc import DMCModel, RateTuple

DEFAULT_STRATEGIES = {"B": ("df", "nf", "cf"), "C": ("baseline", "df", "nf", "cf")}


@dataclass(frozen=True)
class Scenario:
    model: str
    net: GaussianNetwork | None = None
    strategies: tuple[str, ...] = ()
    grid: GridSpec = GridSpec()
    output: str | None = None
    dmc_model: DMCModel | None = None
    coupling: AuxiliaryCoupling | None = None
    theorem: str | None = None
    rates: RateTuple | None = None
    tol: float = 1e-9


def _reject_unknown(payload: dict, allowed: set[str], where: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def _parse_net(payload: object) -> GaussianNetwork:
    if not isinstance(payload, dict):
        raise ValidationError("scenario: 'net' must be an object with p1,p2,n1,n2,nr")
    keys = ("p1", "p2", "n1", "n2", "nr")
    _reject_unknown(payload, set(keys), "scenario net")
    return GaussianNetwork(**_finite_fields(payload, keys, "scenario net"))


def _finite_fields(payload: dict, keys, where: str) -> dict[str, float]:
    """The named fields of `payload` as floats; each must be a finite number."""
    out = {}
    for key in keys:
        if key not in payload:
            raise ValidationError(f"{where}: missing field {key!r}")
        if not _is_finite_number(payload[key]):
            raise ValidationError(f"{where}: {key} must be a finite number, got {payload[key]!r}")
        out[key] = float(payload[key])
    return out


def _parse_grid(payload: object) -> GridSpec:
    if payload is None:
        return GridSpec()
    if not isinstance(payload, dict):
        raise ValidationError("scenario: 'grid' must be an object")
    allowed = {"alpha_steps", "beta_steps", "q_values", "rstar_policy", "rstar_steps"}
    _reject_unknown(payload, allowed, "scenario grid")
    kwargs = dict(payload)
    for key in ("alpha_steps", "beta_steps", "rstar_steps"):
        steps = kwargs.get(key)
        if key in kwargs and (isinstance(steps, bool) or not isinstance(steps, int)):
            raise ValidationError(f"scenario grid: {key} must be an integer, got {steps!r}")
    if "q_values" in kwargs:
        qs = kwargs["q_values"]
        if not isinstance(qs, list) or not all(_is_finite_number(q) for q in qs):
            raise ValidationError(
                f"scenario grid: q_values must be a list of finite numbers, got {qs!r}"
            )
        kwargs["q_values"] = tuple(float(q) for q in qs)
    return GridSpec(**kwargs)


def _is_finite_number(v: object) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_rates(payload: object) -> RateTuple:
    from .dmc import RateTuple

    names = ("r0", "r1", "r2", "re1", "re2")
    if isinstance(payload, (list, tuple)) and len(payload) == 5:
        payload = dict(zip(names, payload))
    if not isinstance(payload, dict):
        raise ValidationError(
            "scenario rates: expected {r0,r1,r2,re1,re2} object or 5-element list"
        )
    _reject_unknown(payload, set(names), "scenario rates")
    return RateTuple(**_finite_fields(payload, list(payload), "scenario rates"))


def _read_text(path: str, what: str) -> str:
    # open() raises ValueError, not OSError, on a path holding a NUL byte.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{what} ({exc})") from exc


def load_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    text = _read_text(path, f"scenario {path}: cannot read")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"scenario {path}: JSON parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"scenario {path}: top level must be an object")
    model = payload.get("model")
    if model not in ("B", "C", "DMC"):
        raise ValidationError(
            f"scenario {path}: 'model' must be one of B, C, DMC; got {model!r}"
        )
    output = payload.get("output")
    if output is not None and not (isinstance(output, str) and output):
        raise ValidationError(f"scenario {path}: 'output' must be a file path, got {output!r}")

    if model in ("B", "C"):
        _reject_unknown(
            payload, {"model", "net", "strategies", "grid", "output"}, f"scenario {path}"
        )
        if "net" not in payload:
            raise ValidationError(f"scenario {path}: Gaussian scenarios need a 'net'")
        net = _parse_net(payload["net"])
        if not net.less_noisy_to_rx1:
            raise ValidationError(
                f"scenario {path}: the closed forms assume receiver 1 less noisy "
                f"(P1 + N1 <= N2), but P1 + N1 = {net.p1 + net.n1} > N2 = {net.n2}"
            )
        raw = payload.get("strategies", DEFAULT_STRATEGIES[model])
        if not isinstance(raw, (list, tuple)) or not all(isinstance(s, str) for s in raw):
            raise ValidationError(f"scenario {path}: 'strategies' must be a list of names")
        strategies = tuple(raw)
        if not strategies:
            raise ValidationError(f"scenario {path}: 'strategies' must not be empty")
        for s in strategies:
            resolve_strategy(s, model)  # raises on unknown labels
        return Scenario(
            model=model,
            net=net,
            strategies=strategies,
            grid=_parse_grid(payload.get("grid")),
            output=output,
        )

    from .bounds import THEOREMS, AuxiliaryCoupling
    from .dmc import DMCModel, RateTuple

    _reject_unknown(
        payload,
        {"model", "dmc_model", "coupling", "theorem", "rates", "tol", "output"},
        f"scenario {path}",
    )
    if "dmc_model" not in payload or "theorem" not in payload:
        raise ValidationError(f"scenario {path}: DMC scenarios need 'dmc_model' and 'theorem'")
    for key in ("theorem", "dmc_model", "coupling"):
        if key in payload and not (isinstance(payload[key], str) and payload[key]):
            raise ValidationError(
                f"scenario {path}: {key!r} must be a non-empty string, got {payload[key]!r}"
            )
    theorem = payload["theorem"]
    if theorem not in THEOREMS:
        raise ValidationError(
            f"scenario {path}: unknown theorem id {theorem!r}; known: {', '.join(THEOREMS)}"
        )
    base = os.path.dirname(os.path.abspath(path))

    def resolve(ref: str) -> str:
        return ref if os.path.isabs(ref) else os.path.join(base, ref)

    dmc_model = DMCModel.from_json(
        _read_text(resolve(payload["dmc_model"]), f"scenario {path}: cannot read dmc_model")
    )
    coupling = None
    if "coupling" in payload:
        coupling = AuxiliaryCoupling.from_json(
            _read_text(resolve(payload["coupling"]), f"scenario {path}: cannot read coupling")
        )

    rates = _parse_rates(payload["rates"]) if "rates" in payload else RateTuple.zero()
    tol = payload.get("tol", 1e-9)
    if not _is_finite_number(tol) or tol <= 0.0:
        raise ValidationError(f"scenario {path}: tol must be a positive number, got {tol!r}")
    return Scenario(
        model="DMC",
        dmc_model=dmc_model,
        coupling=coupling,
        theorem=theorem,
        rates=rates,
        tol=float(tol),
        output=output,
    )
