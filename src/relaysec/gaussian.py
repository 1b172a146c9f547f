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
net, StrategyParams(...))` evaluates one point and refuses parameters the
strategy does not use.  The first rate is the min of `arms`, the second rate
is `second`, and both are clamped at zero.
The `active` label of a point names the leftmost minimal arm (`arm_labels`;
a single-arm strategy has no label).  `b_df` and `b_baseline` share a kernel:
decoding-and-forwarding cannot enlarge the two-confidential-message region.
The C-model baseline is DF at P2 = 0 without the relay-decoding arm.
Negative values are clamped everywhere except in `cf_rstar_max`, whose sign
is the compress-forward feasibility signal.

Noise-forward and compress-forward are one formula per model (`_b_forward`,
`_c_forward`) in how receiver 1 hears the relay, (scale, noise, head): the
secret layer reaches it scaled by `scale` against `noise`, and `head` is the
relay's confusion rate.  NF reads Y alone: (1, N1, relay budget), the budget
being half the log2 of `_relay_gain`.  CF also reads the compressed relay
observation Yh = Y1 + N(0, q): (N1 + Nr + q, N1 (Nr + q), R*).  The table
entry picks `_nf_relay` or `_cf_relay`, never the value of q; each also gives
the gain 2^(2 head), the form the log-affine `terms` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
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


_PARAM_RULES = (
    ("alpha", "lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    ("beta", "lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    ("q", "be positive", lambda v: np.isfinite(v) & (v > 0.0)),
    ("rstar", "be >= 0", lambda v: np.isfinite(v) & (v >= 0.0)),
)


def check_params(owner: str, **columns) -> None:
    """The range rules of the strategy parameters, on scalars or whole arrays:
    alpha and beta in [0, 1], q finite and > 0, rstar finite and >= 0.  A
    parameter given as None (or not given) is not checked."""
    for name, rule, ok in _PARAM_RULES:
        if columns.get(name) is not None:
            v = np.asarray(columns[name], dtype=float)
            bad = ~ok(v)
            if np.any(bad):
                raise ValidationError(f"{owner}: {name} must {rule}, got {float(v[bad].flat[0])!r}")


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
        for name in ("alpha", "beta", "q", "rstar"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
        check_params("StrategyParams", **vars(self))


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


def _relay_gain(net: GaussianNetwork):
    """2^(2 x) for the rate x the relay's own codewords can carry to both receivers."""
    p1, p2, n1, n2, _ = net.as_tuple()
    return min((p2 + n2) / n2, (p1 + p2 + n1) / (p1 + n1))


def cf_rstar_max(net: GaussianNetwork, q: float) -> float:
    """Upper limit of the pure-noise rate R* for compression noise variance q.

    Returned unclamped: a negative value signals that compress-forward is
    infeasible at this q (the compression cost exceeds the relay rate).
    """
    if not (math.isfinite(q) and q > 0.0):
        raise ValidationError(f"cf_rstar_max: q must be positive, got {q!r}")
    return float(_hl(_relay_gain(net)) - _hl((net.p1 + q + net.nr) / q))


def _nf_relay(net: GaussianNetwork, q, rstar):
    """Noise-forward: receiver 1 hears the relay codeword in Y alone (scale 1,
    noise N1), and the relay's confusion rate is its budget _hl(gain).
    Returns (scale, noise, gain, head); head None stands for _hl(gain)."""
    return 1.0, net.as_tuple()[2], _relay_gain(net), None


def _cf_relay(net: GaussianNetwork, q, rstar):
    """Compress-forward: receiver 1 also hears Yh = Y1 + N(0, q), so the secret
    layer reaches it scaled by N1 + Nr + q against noise N1 (Nr + q), and the
    confusion rate is the pure-noise rate R* (gain 2^(2 R*))."""
    _, _, n1, _, nr = net.as_tuple()
    return nr + q + n1, n1 * (nr + q), 2.0 ** (2.0 * rstar), rstar


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


def _b_forward(net: GaussianNetwork, a, b, q, rstar, relay):
    """B-model NF and CF, one formula in the `relay` parameters."""
    p1, p2, _, n2, _ = net.as_tuple()
    scale, noise, gain, head = relay(net, q, rstar)
    head = _hl(gain) if head is None else head
    s = (1.0 - b) * p1
    secret = _hl((s * scale + noise) / (s * (1.0 - a) * scale + noise))
    direct = (
        np.minimum(
            _hl((p1 * scale + noise) / (s * scale + noise)),
            _hl((p1 + p2 + n2) / (s + p2 + n2)),
        )
        + secret
    )
    secrecy = head + secret - _hl((s * a + p2 + n2) / n2)
    return (direct, secrecy), _b_second(net, s, a, p2)


# Log-affine descriptions of the B kernels in s = (1 - beta) P1 for fixed alpha:
# (secret, arms), ratio (u, v, w, x) = (u s + v) / (w s + x), arm i = _hl(secret)
# + min of _hl(r) over its ratios r; the relay's head enters as its gain, a
# constant numerator factor.  Plain arithmetic, so mpmath values work too.


def _b_df_terms(net: GaussianNetwork, a, q, rstar):
    _, _, n1, n2, _ = net.as_tuple()
    return (1.0, n1, 1.0 - a, n1), (((0.0, n2, a, n2),),)


def _b_forward_terms(net: GaussianNetwork, a, q, rstar, relay):
    p1, p2, _, n2, _ = net.as_tuple()
    scale, noise, gain, _ = relay(net, q, rstar)
    m = p2 + n2
    direct = ((0.0, p1 * scale + noise, scale, noise), (0.0, p1 + m, 1.0, m))
    return (scale, noise, (1.0 - a) * scale, noise), (direct, ((0.0, gain * n2, a, m),))


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


def _c_df(net: GaussianNetwork, a, b, q, rstar, baseline=False):
    """C-model DF; baseline=True is the no-relay baseline, DF at P2 = 0 without
    the relay-decoding arm."""
    p1, p2, n1, n2, nr = net.as_tuple()
    p2 = 0.0 if baseline else p2
    arms = (_hl((p1 + p2 + n1) / (a * p1 + n1)), _hl((p1 + p2 + n2) / (a * p1 + n2)))
    relay = () if baseline else (_hl((p1 + nr) / (a * p1 + nr)),)
    return relay + arms, _hl((a * p1 + n1) / n1) - _hl((a * p1 + n2) / n2)


def _c_forward(net: GaussianNetwork, a, b, q, rstar, relay):
    """C-model NF and CF, one formula in the `relay` parameters."""
    p1, p2, _, n2, _ = net.as_tuple()
    scale, noise, gain, head = relay(net, q, rstar)
    head = _hl(gain) if head is None else head
    arms = (
        _hl((p1 * scale + noise) / (a * p1 * scale + noise)),
        _hl((p1 + p2 + n2) / (a * p1 + p2 + n2)),
    )
    return arms, head + _hl((a * p1 * scale + noise) / noise) - _hl((a * p1 + p2 + n2) / n2)


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

    def root_count(self, net: GaussianNetwork, q, rstar) -> int:
        """Columns of `candidates`, without solving: n ratios give n stationary
        points and n(n-1)/2 crossings, two roots each."""
        n = sum(map(len, self.terms(net, 0.0, q, rstar)[1]))
        return n * (n + 1)

    def active(self, arms) -> np.ndarray:
        """`active` label per point of 1-d (or scalar) arms: the leftmost
        minimal arm, "" for a single-arm strategy."""
        if not self.arm_labels:
            return np.full(np.broadcast(*arms).size, "")
        idx = np.argmin(np.stack(np.broadcast_arrays(*arms)), axis=0)
        return np.array(self.arm_labels)[np.atleast_1d(idx)]


_B_ARMS = ("r1=direct", "r1=secrecy")
_C_ARMS = ("r0=arm1", "r0=arm2", "r0=arm3")

STRATEGIES: dict[str, Strategy] = {
    s.strategy_id: s
    for s in (
        Strategy("b_df", "B", "df", False, _b_df, terms=_b_df_terms),
        Strategy("b_nf", "B", "nf", False, partial(_b_forward, relay=_nf_relay), _B_ARMS,
                 partial(_b_forward_terms, relay=_nf_relay)),
        Strategy("b_cf", "B", "cf", True, partial(_b_forward, relay=_cf_relay), _B_ARMS,
                 partial(_b_forward_terms, relay=_cf_relay)),
        Strategy("b_baseline", "B", "baseline", False, _b_df, terms=_b_df_terms),
        Strategy("c_df", "C", "df", False, _c_df, _C_ARMS),
        Strategy("c_nf", "C", "nf", False, partial(_c_forward, relay=_nf_relay), _C_ARMS[:2]),
        Strategy("c_cf", "C", "cf", True, partial(_c_forward, relay=_cf_relay), _C_ARMS[:2]),
        Strategy("c_baseline", "C", "baseline", False, partial(_c_df, baseline=True), _C_ARMS[:2]),
    )
}


def resolve_strategy(name: str, config: str | None = None) -> Strategy:
    """Accept either a full id ("b_df") or a short label plus config ("df", "B");
    with a config, a full id of the other model is refused."""
    s = STRATEGIES.get(name)
    if s is None and config is not None:
        s = STRATEGIES.get(f"{config.lower()}_{name}")
    if s is not None and config in (None, s.config):
        return s
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
    """Single-point evaluation of any registered strategy; a parameter the
    strategy does not use (beta in model C, q and R* without compress-forward)
    is refused, not ignored."""
    s = resolve_strategy(strategy_id)
    if s.config == "C" and sp.beta != 0.0:
        raise UsageError(f"{s.strategy_id} does not use beta (model B only), got {sp.beta!r}")
    unused = [n for n in ("q", "rstar") if not s.uses_q and getattr(sp, n) is not None]
    if unused:
        raise UsageError(f"{s.strategy_id} does not use {' or '.join(unused)} (cf only)")
    net.require_ordering()
    q, rstar = _check_cf_params(net, sp) if s.uses_q else (None, None)
    arms, second = s.kernel(net, sp.alpha, sp.beta, q, rstar)
    label = str(s.active(arms)[0])
    return RatePair(float(_first(arms)), float(_clamp(second)), (label,) if label else ())
