"""Closed-form Gaussian strategy regions for the relay broadcast channel.

Signal model: the relay hears Y1 = X + Zr, receiver 1 hears Y = X + X1 + Z1,
receiver 2 hears Z = X + X1 + Z2, with Zr ~ N(0, Nr), Z1 ~ N(0, N1),
Z2 ~ N(0, N2), E[X^2] <= P1 and E[X1^2] <= P2.  Every formula below is valid
only under the less-noisy ordering P1 + N1 <= N2 (receiver 1 is the stronger
one); outside it the operations raise rather than extrapolate.

Two message configurations are covered:

  B (ids b_*): two confidential messages; a point is (R1max, R2max).
  C (ids c_*): one confidential + one common message; a point is (R0max, R1max).

`alpha` always allocates transmit power to the confidential layer and `beta`
(B only) to the common layer.  The decode-forward construction also has a
relay power split; it cancels out of every displayed rate, so it is not a
parameter here.

Every strategy is one entry of `STRATEGIES`, and each entry holds one array
kernel `(net, alpha, beta, q, rstar) -> (arms, second)` over numpy arrays or
scalars (arguments a kernel does not use are ignored); `evaluate_strategy(id,
net, StrategyParams(...))` evaluates one point.  The first rate is the
min of `arms`, the second rate is `second`, and both are clamped at zero.
The `active` label of a point names the leftmost minimal arm (`arm_labels`;
a single-arm strategy has no label).  `b_df` and `b_baseline` share a kernel:
decoding-and-forwarding cannot enlarge the two-confidential-message region.
Negative values are clamped everywhere except in `cf_rstar_max`, whose sign
is the compress-forward feasibility signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .errors import InfeasibleError, ModelAssumptionError, UsageError, ValidationError

RSTAR_SLACK = 1e-9  # tolerance when checking R* against its budget


@dataclass(frozen=True)
class GaussianNetwork:
    """Power and noise parameters (P1, P2, N1, N2, Nr), all positive."""

    p1: float
    p2: float
    n1: float
    n2: float
    nr: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "n1", "n2", "nr"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or v <= 0.0:
                raise ValidationError(f"GaussianNetwork: {name} must be positive, got {v!r}")

    @property
    def less_noisy_to_rx1(self) -> bool:
        return self.p1 + self.n1 <= self.n2

    def require_ordering(self) -> None:
        if not self.less_noisy_to_rx1:
            raise ModelAssumptionError(
                f"closed forms require the less-noisy ordering P1 + N1 <= N2; "
                f"got P1 + N1 = {self.p1 + self.n1} > N2 = {self.n2}"
            )

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p1, self.p2, self.n1, self.n2, self.nr)


@dataclass(frozen=True)
class StrategyParams:
    """Free coding parameters swept to trace a region.

    alpha, beta: power fractions in [0, 1]; q: compression noise variance
    (compress-forward only); rstar: pure-noise rate (compress-forward only,
    checked against `cf_rstar_max` at use time).
    """

    alpha: float
    beta: float = 0.0
    q: float | None = None
    rstar: float | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"StrategyParams: {name} must lie in [0, 1], got {v!r}")
        if self.q is not None:
            q = float(self.q)
            object.__setattr__(self, "q", q)
            if not math.isfinite(q) or q <= 0.0:
                raise ValidationError(f"StrategyParams: q must be positive, got {q!r}")
        if self.rstar is not None:
            rs = float(self.rstar)
            object.__setattr__(self, "rstar", rs)
            if not math.isfinite(rs) or rs < 0.0:
                raise ValidationError(f"StrategyParams: rstar must be >= 0, got {rs!r}")


@dataclass(frozen=True)
class RatePair:
    """(R1, R2) for B strategies, (R0, R1) for C strategies; `active` labels
    the min-branch taken per component, for plot annotation."""

    first: float
    second: float
    active: tuple[str, ...] = ()


def _hl(x):
    """Half the base-2 log; the building block of every Gaussian rate."""
    return 0.5 * np.log2(x)


def _clamp(x):
    return np.maximum(x, 0.0)


def _first(arms):
    """The first rate: the clamped min of the arms, without stacking them."""
    return _clamp(reduce(np.minimum, arms))


def _relay_budget(net: GaussianNetwork):
    """Rate the relay's own codewords can carry to both receivers."""
    p1, p2, n1, n2, _ = net.as_tuple()
    return min(_hl((p2 + n2) / n2), _hl((p1 + p2 + n1) / (p1 + n1)))


def cf_rstar_max(net: GaussianNetwork, q: float) -> float:
    """Upper limit of the pure-noise rate R* for compression noise variance q.

    Returned unclamped: a negative value signals that compress-forward is
    infeasible at this q (the compression cost exceeds the relay rate).
    """
    if not (math.isfinite(q) and q > 0.0):
        raise ValidationError(f"cf_rstar_max: q must be positive, got {q!r}")
    return float(_relay_budget(net) - _hl((net.p1 + q + net.nr) / q))


def _b_second(net: GaussianNetwork, s, a, relay_noise):
    """R2 of the B model; `relay_noise` is the relay power receiver 2 treats as noise."""
    _, _, n1, n2, _ = net.as_tuple()
    return _hl((s + relay_noise + n2) / (s * a + relay_noise + n2)) - _hl(
        (s * (1.0 - a) + n1) / n1
    )


def _b_df(net: GaussianNetwork, a, b, q, rstar):
    p1, _, n1, n2, _ = net.as_tuple()
    s = (1.0 - b) * p1
    r1 = _hl((s + n1) / (s * (1.0 - a) + n1)) - _hl((s * a + n2) / n2)
    return (r1,), _b_second(net, s, a, 0.0)


def _b_nf(net: GaussianNetwork, a, b, q, rstar):
    p1, p2, n1, n2, _ = net.as_tuple()
    s = (1.0 - b) * p1
    secret = _hl((s + n1) / (s * (1.0 - a) + n1))
    direct = np.minimum(_hl((p1 + n1) / (s + n1)), _hl((p1 + p2 + n2) / (s + p2 + n2))) + secret
    secrecy = _relay_budget(net) + secret - _hl((s * a + p2 + n2) / n2)
    return (direct, secrecy), _b_second(net, s, a, p2)


def _b_cf(net: GaussianNetwork, a, b, q, rstar):
    p1, p2, n1, n2, nr = net.as_tuple()
    s = (1.0 - b) * p1
    nq = nr + q
    eff = nq + n1
    secret = _hl((s * eff + n1 * nq) / (s * (1.0 - a) * eff + n1 * nq))
    direct = (
        np.minimum(
            _hl((p1 * eff + n1 * nq) / (s * eff + n1 * nq)),
            _hl((p1 + p2 + n2) / (s + p2 + n2)),
        )
        + secret
    )
    secrecy = rstar + secret - _hl((s * a + p2 + n2) / n2)
    return (direct, secrecy), _b_second(net, s, a, p2)


# Log-affine descriptions of the B kernels in s = (1 - beta) P1 for fixed alpha:
# (secret, arms), ratio (u, v, w, x) = (u s + v) / (w s + x), arm i = _hl(secret)
# + min of _hl(r) over its ratios r; the relay budget and R* are constant
# numerator factors.  Plain arithmetic, so mpmath values work too.


def _b_df_terms(net: GaussianNetwork, a, q, rstar):
    _, _, n1, n2, _ = net.as_tuple()
    return (1.0, n1, 1.0 - a, n1), (((0.0, n2, a, n2),),)


def _b_relay_terms(net: GaussianNetwork, a, scale, noise, gain):
    """NF (scale 1, noise N1) and CF (scale N1 + Nr + q, noise N1 (Nr + q)) share one shape."""
    p1, p2, _, n2, _ = net.as_tuple()
    m = p2 + n2
    direct = ((0.0, p1 * scale + noise, scale, noise), (0.0, p1 + m, 1.0, m))
    return (scale, noise, (1.0 - a) * scale, noise), (direct, ((0.0, gain * n2, a, m),))


def _b_nf_terms(net: GaussianNetwork, a, q, rstar):
    p1, p2, n1, n2, _ = net.as_tuple()
    return _b_relay_terms(net, a, 1.0, n1, min((p2 + n2) / n2, (p1 + p2 + n1) / (p1 + n1)))


def _b_cf_terms(net: GaussianNetwork, a, q, rstar):
    _, _, n1, _, nr = net.as_tuple()
    return _b_relay_terms(net, a, nr + q + n1, n1 * (nr + q), 2.0 ** (2.0 * rstar))


def _mul(f, g):
    """Coefficients (s^2, s, 1) of (f0 s + f1)(g0 s + g1)."""
    return f[0] * g[0], f[0] * g[1] + f[1] * g[0], f[1] * g[1]


def candidate_polynomials(secret, arms) -> list[tuple]:
    """Quadratics (c2, c1, c0) in s whose roots, with s = 0 and s = P1, split
    [0, P1] into stretches on which the first rate max(0, min_r secret + r) is
    monotone: the stationary point of each expression secret + r, and the
    crossing of each pair (where the secret cancels).  The clamp at 0 keeps a
    monotone stretch monotone, so the zeros are no candidates."""

    def slope(r):  # numerator of d/ds log(r)
        return r[0] * r[3] - r[1] * r[2]

    def diff(f, g, h, k):  # f g - h k for affine f, g, h, k
        return tuple(x - y for x, y in zip(_mul(f, g), _mul(h, k)))

    terms = [r for arm in arms for r in arm]
    polys = []
    for i, r in enumerate(terms):
        stat = zip(_mul(r[:2], r[2:]), _mul(secret[:2], secret[2:]))
        polys.append(tuple(slope(secret) * x + slope(r) * y for x, y in stat))
        polys.extend(diff(r[:2], o[2:], o[:2], r[2:]) for o in terms[i + 1 :])
    return polys


def _quadratic_roots(c2, c1, c0):
    """Both roots of c2 s^2 + c1 s + c0 by the cancellation-free formula; a
    complex pair gives two real points (spare brackets), a missing root non-finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)), c1))
        return np.concatenate((h / c2, c0 / h), axis=-1)


def _c_plain_r1(net: GaussianNetwork, a):
    """R1 of the C model when receiver 2 sees no relay noise (DF, baseline)."""
    p1, _, n1, n2, _ = net.as_tuple()
    return _hl((a * p1 + n1) / n1) - _hl((a * p1 + n2) / n2)


def _c_df(net: GaussianNetwork, a, b, q, rstar):
    p1, p2, n1, n2, nr = net.as_tuple()
    arms = (
        _hl((p1 + nr) / (a * p1 + nr)),
        _hl((p1 + p2 + n1) / (a * p1 + n1)),
        _hl((p1 + p2 + n2) / (a * p1 + n2)),
    )
    return arms, _c_plain_r1(net, a)


def _c_nf(net: GaussianNetwork, a, b, q, rstar):
    p1, p2, n1, n2, _ = net.as_tuple()
    arms = (
        _hl((p1 + n1) / (a * p1 + n1)),
        _hl((p1 + p2 + n2) / (a * p1 + p2 + n2)),
    )
    r1 = _relay_budget(net) + _hl((a * p1 + n1) / n1) - _hl((a * p1 + p2 + n2) / n2)
    return arms, r1


def _c_cf(net: GaussianNetwork, a, b, q, rstar):
    p1, p2, n1, n2, nr = net.as_tuple()
    nq = nr + q
    eff = nq + n1
    arms = (
        _hl((p1 * eff + n1 * nq) / (a * p1 * eff + n1 * nq)),
        _hl((p1 + p2 + n2) / (a * p1 + p2 + n2)),
    )
    r1 = rstar + _hl((a * p1 * eff + n1 * nq) / (n1 * nq)) - _hl((a * p1 + p2 + n2) / n2)
    return arms, r1


def _c_baseline(net: GaussianNetwork, a, b, q, rstar):
    p1, _, n1, n2, _ = net.as_tuple()
    arms = (
        _hl((p1 + n1) / (a * p1 + n1)),
        _hl((p1 + n2) / (a * p1 + n2)),
    )
    return arms, _c_plain_r1(net, a)


@dataclass(frozen=True)
class Strategy:
    """One entry of the strategy table: the kernel, its arm labels and (B) its terms."""

    strategy_id: str
    config: str  # model: "B" or "C"
    label: str  # short name used in CSV columns / scenario files
    uses_q: bool
    kernel: Callable
    arm_labels: tuple[str, ...] = ()
    terms: Callable | None = None  # log-affine description (B model), see above

    def rates(self, net: GaussianNetwork, a, b, q, rstar):
        """Clamped (first, second) rates; no `active` labels."""
        arms, second = self.kernel(net, a, b, q, rstar)
        return _first(arms), _clamp(second)

    def candidates(self, net: GaussianNetwork, a, q, rstar) -> np.ndarray:
        """Roots in s of every `candidate_polynomials` quadratic, shape
        (len(a), n) for a 1-d alpha array `a`; non-finite entries are no root."""
        a = np.asarray(a, dtype=float)[:, None]
        coeffs = zip(*candidate_polynomials(*self.terms(net, a, q, rstar)))
        return _quadratic_roots(*(np.hstack(np.broadcast_arrays(a, *c)[1:]) for c in coeffs))

    def active(self, arms) -> list[tuple[str, ...]]:
        """`active` label per point of 1-d (or scalar) arms: the leftmost minimal arm."""
        if not self.arm_labels:
            return [()] * np.size(arms[0])
        idx = np.argmin(np.stack(np.broadcast_arrays(*arms)), axis=0)
        return [(self.arm_labels[i],) for i in np.atleast_1d(idx)]


_B_ARMS = ("r1=direct", "r1=secrecy")
_C_ARMS = ("r0=arm1", "r0=arm2", "r0=arm3")

STRATEGIES: dict[str, Strategy] = {
    s.strategy_id: s
    for s in (
        Strategy("b_df", "B", "df", False, _b_df, terms=_b_df_terms),
        Strategy("b_nf", "B", "nf", False, _b_nf, _B_ARMS, _b_nf_terms),
        Strategy("b_cf", "B", "cf", True, _b_cf, _B_ARMS, _b_cf_terms),
        Strategy("b_baseline", "B", "baseline", False, _b_df, terms=_b_df_terms),
        Strategy("c_df", "C", "df", False, _c_df, _C_ARMS),
        Strategy("c_nf", "C", "nf", False, _c_nf, _C_ARMS[:2]),
        Strategy("c_cf", "C", "cf", True, _c_cf, _C_ARMS[:2]),
        Strategy("c_baseline", "C", "baseline", False, _c_baseline, _C_ARMS[:2]),
    )
}


def resolve_strategy(name: str, config: str | None = None) -> Strategy:
    """Accept either a full id ("b_df") or a short label plus config ("df", "B")."""
    if name in STRATEGIES:
        return STRATEGIES[name]
    if config is not None:
        key = f"{config.lower()}_{name}"
        if key in STRATEGIES:
            return STRATEGIES[key]
    raise UsageError(
        f"unknown strategy {name!r}"
        + (f" for model {config!r}" if config is not None else "")
    )


def _check_cf_params(net: GaussianNetwork, sp: StrategyParams) -> tuple[float, float]:
    if sp.q is None:
        raise ValidationError("compress-forward needs a compression variance q")
    limit = cf_rstar_max(net, sp.q)
    rstar = sp.rstar if sp.rstar is not None else max(limit, 0.0)
    if rstar > limit + RSTAR_SLACK or limit < -RSTAR_SLACK:
        raise InfeasibleError(
            f"R* = {rstar:.6g} exceeds the compress-forward budget "
            f"cf_rstar_max = {limit:.6g} at q = {sp.q:.6g}",
            limit=limit,
        )
    return sp.q, rstar


def evaluate_strategy(strategy_id: str, net: GaussianNetwork, sp: StrategyParams) -> RatePair:
    """Single-point evaluation of any registered strategy."""
    s = resolve_strategy(strategy_id)
    net.require_ordering()
    q, rstar = _check_cf_params(net, sp) if s.uses_q else (None, None)
    arms, second = s.kernel(net, sp.alpha, sp.beta, q, rstar)
    return RatePair(float(_first(arms)), float(_clamp(second)), s.active(arms)[0])
