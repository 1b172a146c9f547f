import hashlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec.acceptance import PAPER_NET
from relaysec.errors import InfeasibleError, ModelAssumptionError, UsageError, ValidationError
from relaysec.gaussian import (
    STRATEGIES,
    GaussianNetwork,
    StrategyParams,
    candidate_polynomials,
    cf_rstar_max,
    evaluate_strategy,
)

NET = GaussianNetwork(5.0, 3.0, 2.0, 8.0, 2.0)

# Frozen from a 50-digit evaluation of the closed forms at the network above.
B_DF_A1_B0_R1 = 0.553457601958256
B_NF_A1_B0_DIRECT = 0.903677461028802
B_NF_A1_B0_SECRECY = 0.633393270347451
RSTAR_MAX_Q300 = 0.213077731881499
B_CF_A1_B0_Q300_R1 = 0.620159387621037
C_DF_A0_R0 = 0.5
C_DF_A1_R1 = 0.553457601958256
C_NF_A1_R1 = 0.633393270347451
C_CF_A1_Q300_R1 = 0.620159387621037
C_BASE_A0_R0 = 0.350219859070546
RELAY_BUDGET_ARM1 = 0.229715809318649  # (P2+N2)/N2 leg of the R* cap
RELAY_BUDGET_ARM2 = 0.257286586414879  # (P1+P2+N1)/(P1+N1) leg


def sp(alpha, beta=0.0, q=None, rstar=None):
    return StrategyParams(alpha=alpha, beta=beta, q=q, rstar=rstar)


class TestNetworkValidation:
    def test_fields_must_be_positive(self):
        with pytest.raises(ValidationError, match="n2"):
            GaussianNetwork(5, 3, 2, -8, 2)

    def test_ordering_flag(self):
        assert NET.less_noisy_to_rx1
        assert not GaussianNetwork(5, 3, 2, 3, 2).less_noisy_to_rx1

    def test_ops_refuse_reversed_ordering(self):
        bad = GaussianNetwork(5, 3, 2, 3, 2)
        with pytest.raises(ModelAssumptionError, match="P1 \\+ N1 <= N2"):
            evaluate_strategy("b_df", bad, sp(0.5))
        with pytest.raises(ModelAssumptionError):
            evaluate_strategy("c_nf", bad, sp(0.5))

    def test_params_validated(self):
        with pytest.raises(ValidationError, match="alpha"):
            sp(1.5)
        with pytest.raises(ValidationError, match="q"):
            sp(0.5, q=-1.0)

    @pytest.mark.parametrize(
        "sid, params, match",
        [
            ("c_df", sp(0.5, beta=0.7, q=12.0, rstar=0.4), "beta"),
            ("c_cf", sp(0.5, beta=0.7, q=300.0), "beta"),
            ("b_df", sp(0.5, q=12.0), "q"),
            ("b_nf", sp(0.5, rstar=0.4), "rstar"),
            ("c_baseline", sp(0.5, q=12.0, rstar=0.0), "q"),
        ],
    )
    def test_unused_params_refused(self, sid, params, match):
        with pytest.raises(UsageError, match=match):
            evaluate_strategy(sid, NET, params)


class TestDecodeForward:
    def test_full_power_point(self):
        pair = evaluate_strategy("b_df", NET, sp(1.0, 0.0))
        assert pair.first == pytest.approx(B_DF_A1_B0_R1, abs=1e-12)
        assert pair.second == 0.0

    def test_alpha_zero_puts_nothing_on_the_secret_layer(self):
        pair = evaluate_strategy("b_df", NET, sp(0.0, 0.0))
        assert pair.first == 0.0

    def test_r2_always_zero_on_this_network(self):
        for a in np.linspace(0, 1, 41):
            for b in np.linspace(0, 1, 11):
                assert evaluate_strategy("b_df", NET, sp(float(a), float(b))).second == 0.0

    def test_independent_of_relay_parameters(self):
        for p2, nr in ((0.01, 10.0), (17.0, 0.3)):
            other = GaussianNetwork(5.0, p2, 2.0, 8.0, nr)
            for a in (0.0, 0.3, 1.0):
                for b in (0.0, 0.5):
                    pair = evaluate_strategy("b_df", NET, sp(a, b))
                    assert pair == evaluate_strategy("b_df", other, sp(a, b))

    def test_baseline_is_pointwise_identical(self):
        for a in np.linspace(0, 1, 101):
            for b in (0.0, 0.25, 0.9):
                x = evaluate_strategy("b_df", NET, sp(float(a), b))
                y = evaluate_strategy("b_baseline", NET, sp(float(a), b))
                assert x.first == y.first and x.second == y.second


class TestNoiseForward:
    def test_full_power_point_takes_the_secrecy_bound(self):
        pair = evaluate_strategy("b_nf", NET, sp(1.0, 0.0))
        assert pair.first == pytest.approx(B_NF_A1_B0_SECRECY, abs=1e-12)
        assert pair.active == ("r1=secrecy",)

    def test_both_bounds_at_full_power(self):
        from relaysec.gaussian import STRATEGIES

        (direct, secrecy), _ = STRATEGIES["b_nf"].kernel(NET, 1.0, 0.0, None, None)
        assert float(direct) == pytest.approx(B_NF_A1_B0_DIRECT, abs=1e-12)
        assert float(secrecy) == pytest.approx(B_NF_A1_B0_SECRECY, abs=1e-12)

    def test_alpha_zero_beta_zero_gives_zero(self):
        assert evaluate_strategy("b_nf", NET, sp(0.0, 0.0)).first == 0.0

    def test_r2_always_zero_on_this_network(self):
        for a in np.linspace(0, 1, 41):
            for b in np.linspace(0, 1, 11):
                assert evaluate_strategy("b_nf", NET, sp(float(a), float(b))).second == 0.0


class TestCompressForward:
    def test_rstar_budget_at_q300(self):
        assert cf_rstar_max(NET, 300.0) == pytest.approx(RSTAR_MAX_Q300, abs=1e-12)

    def test_rstar_budget_arms(self):
        assert cf_rstar_max(NET, 1e12) == pytest.approx(
            min(RELAY_BUDGET_ARM1, RELAY_BUDGET_ARM2), abs=1e-11
        )

    def test_small_q_goes_negative(self):
        assert cf_rstar_max(NET, 0.01) < 0.0

    def test_full_power_point(self):
        pair = evaluate_strategy("b_cf", NET, sp(1.0, 0.0, q=300.0, rstar=RSTAR_MAX_Q300))
        assert pair.first == pytest.approx(B_CF_A1_B0_Q300_R1, abs=1e-9)

    def test_default_rstar_is_the_budget(self):
        rs = cf_rstar_max(NET, 300.0)
        explicit = evaluate_strategy("b_cf", NET, sp(1.0, 0.0, q=300.0, rstar=rs))
        default = evaluate_strategy("b_cf", NET, sp(1.0, 0.0, q=300.0))
        assert explicit.first == default.first

    def test_infeasible_rstar_carries_the_limit(self):
        with pytest.raises(InfeasibleError) as err:
            evaluate_strategy("b_cf", NET, sp(1.0, 0.0, q=300.0, rstar=0.3))
        assert err.value.limit == pytest.approx(RSTAR_MAX_Q300, abs=1e-12)

    def test_infeasible_q_rejected_even_without_rstar(self):
        with pytest.raises(InfeasibleError):
            evaluate_strategy("b_cf", NET, sp(1.0, 0.0, q=0.01))

    def test_missing_q_rejected(self):
        with pytest.raises(UsageError, match="compression variance"):
            evaluate_strategy("b_cf", NET, sp(1.0, 0.0))

    def test_a_missing_q_is_reported_before_the_network(self):
        bad = GaussianNetwork(5.0, 3.0, 2.0, 3.0, 2.0)
        with pytest.raises(UsageError, match="b_cf needs a compression variance q"):
            evaluate_strategy("b_cf", bad, sp(1.0, 0.0))

    def test_a_q_just_short_of_its_budget_is_infeasible(self):
        # The budget here is -5.3e-12; the sweeps skip such a q, so one point
        # refuses it too, rather than running CF at R* = 0.
        q = 18.666666666166666
        limit = cf_rstar_max(PAPER_NET, q)
        assert -1e-9 < limit < 0.0
        for rstar in (None, 0.0):
            with pytest.raises(InfeasibleError, match="no R\\* fits") as err:
                evaluate_strategy("c_cf", PAPER_NET, sp(0.5, q=q, rstar=rstar))
            assert err.value.limit == limit

    def test_large_q_matches_noise_forward(self):
        q = 1e8
        rs = cf_rstar_max(NET, q)
        sup = 0.0
        for a in np.linspace(0, 1, 51):
            for b in (0.0, 0.5, 1.0):
                cf = evaluate_strategy("b_cf", NET, sp(float(a), b, q=q, rstar=rs)).first
                nf = evaluate_strategy("b_nf", NET, sp(float(a), b)).first
                sup = max(sup, abs(cf - nf))
        assert sup <= 1e-3

    def test_convergence_is_monotone_in_q(self):
        prev = None
        for k in range(2, 9):
            q = 10.0**k
            rs = cf_rstar_max(NET, q)
            sup = max(
                abs(
                    evaluate_strategy("b_cf", NET, sp(float(a), 0.0, q=q, rstar=rs)).first
                    - evaluate_strategy("b_nf", NET, sp(float(a), 0.0)).first
                )
                for a in np.linspace(0, 1, 21)
            )
            if prev is not None:
                assert sup <= prev + 1e-15
            prev = sup

    def test_r2_always_zero_on_this_network(self):
        rs = cf_rstar_max(NET, 300.0)
        for a in np.linspace(0, 1, 21):
            pair = evaluate_strategy("b_cf", NET, sp(float(a), 0.3, q=300.0, rstar=rs))
            assert pair.second == 0.0


class TestCommonMessageModel:
    def test_df_endpoints(self):
        a0, a1 = (evaluate_strategy("c_df", NET, sp(a)) for a in (0.0, 1.0))
        assert a0.first == pytest.approx(C_DF_A0_R0, abs=1e-12)
        assert a1.first == 0.0
        assert a1.second == pytest.approx(C_DF_A1_R1, abs=1e-12)

    def test_df_r0_min_arms_at_alpha_zero(self):
        # arms: relay decode 0.903677, receiver-1 1.160964, receiver-2 0.5
        pair = evaluate_strategy("c_df", NET, sp(0.0))
        assert pair.active == ("r0=arm3",)

    def test_nf_endpoints(self):
        a0, a1 = (evaluate_strategy("c_nf", NET, sp(a)) for a in (0.0, 1.0))
        assert a1.first == 0.0
        assert a1.second == pytest.approx(C_NF_A1_R1, abs=1e-12)
        assert a0.second == 0.0  # relay budget exactly cancels

    def test_cf_endpoint_and_limit(self):
        a1 = evaluate_strategy("c_cf", NET, sp(1.0, q=300.0))
        assert a1.second == pytest.approx(C_CF_A1_Q300_R1, abs=1e-9)
        assert a1.first == 0.0  # both min arms vanish at alpha=1
        q = 1e8
        rs = cf_rstar_max(NET, q)
        sup = max(
            abs(
                evaluate_strategy("c_cf", NET, sp(float(a), q=q, rstar=rs)).second
                - evaluate_strategy("c_nf", NET, sp(float(a))).second
            )
            for a in np.linspace(0, 1, 101)
        )
        assert sup <= 1e-3

    def test_cf_infeasible_rstar(self):
        with pytest.raises(InfeasibleError):
            evaluate_strategy("c_cf", NET, sp(0.5, q=300.0, rstar=0.5))

    def test_baseline_endpoints(self):
        a0, a1 = (evaluate_strategy("c_baseline", NET, sp(a)) for a in (0.0, 1.0))
        assert a0.first == pytest.approx(C_BASE_A0_R0, abs=1e-12)
        assert a1.first == 0.0
        assert a1.second == pytest.approx(C_DF_A1_R1, abs=1e-12)

    def test_baseline_independent_of_relay_parameters(self):
        other = GaussianNetwork(5.0, 30.0, 2.0, 8.0, 0.5)
        for a in np.linspace(0, 1, 41):
            pair = evaluate_strategy("c_baseline", NET, sp(float(a)))
            assert pair == evaluate_strategy("c_baseline", other, sp(float(a)))

    def test_df_beats_baseline_on_common_rate(self):
        df, baseline = (evaluate_strategy(sid, NET, sp(0.0)) for sid in ("c_df", "c_baseline"))
        assert df.first > baseline.first


class TestNumericalBehavior:
    @given(
        st.floats(1e-6, 1.0 - 1e-6),
        st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=80, deadline=None)
    def test_outputs_finite_and_nonnegative(self, a, b):
        for pair in (
            evaluate_strategy("b_df", NET, sp(a, b)),
            evaluate_strategy("b_nf", NET, sp(a, b)),
            evaluate_strategy("b_cf", NET, sp(a, b, q=300.0, rstar=0.0)),
            evaluate_strategy("c_df", NET, sp(a)),
            evaluate_strategy("c_nf", NET, sp(a)),
            evaluate_strategy("c_baseline", NET, sp(a)),
        ):
            assert np.isfinite(pair.first) and np.isfinite(pair.second)
            assert pair.first >= 0.0 and pair.second >= 0.0

    def test_continuity_away_from_clamps(self):
        eps = 1e-8
        for a in (0.2, 0.5, 0.9):
            for b in (0.1, 0.6):
                base = evaluate_strategy("b_nf", NET, sp(a, b)).first
                for da, db in ((eps, 0.0), (0.0, eps), (-eps, 0.0)):
                    moved = evaluate_strategy("b_nf", NET, sp(a + da, b + db)).first
                    assert abs(moved - base) <= 1e-6


class _MpNetwork:
    """A network whose `as_tuple` gives mpmath numbers, for the log-affine descriptions."""

    def __init__(self, net):
        self.values = tuple(mpmath.mpf(v) for v in net.as_tuple())

    def as_tuple(self):
        return self.values


def _mp_hl(r, s):
    return mpmath.log((r[0] * s + r[1]) / (r[2] * s + r[3]), 2) / 2


def _mp_arms(secret, arms, s):
    return [_mp_hl(secret, s) + min(_mp_hl(r, s) for r in arm) for arm in arms]


def _mp_roots(c2, c1, c0):
    """Real roots of c2 s^2 + c1 s + c0 (none for the zero polynomial)."""
    if c2 == 0:
        return [-c0 / c1] if c1 != 0 else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    return [(-c1 + sign * mpmath.sqrt(disc)) / (2 * c2) for sign in (1, -1)]


def _mp_supremum(sid, net, alpha, q=None, rstar=None):
    """(sup, s) of the first rate over s = (1 - beta) P1 in [0, P1], at 40 digits:
    the best of both ends and every real root of the candidate quadratics."""
    mp_net = _MpNetwork(net)
    args = [None if v is None else mpmath.mpf(v) for v in (q, rstar)]
    secret, arms = STRATEGIES[sid].terms(mp_net, mpmath.mpf(alpha), *args)
    p1 = mp_net.values[0]
    points = [mpmath.mpf(0), p1]
    for poly in candidate_polynomials(secret, arms):
        points.extend(s for s in _mp_roots(*poly) if 0 <= s <= p1)
    return max((max(0, min(_mp_arms(secret, arms, s))), s) for s in points)


@st.composite
def _terms_cases(draw):
    p1, n1 = draw(st.floats(0.5, 10.0)), draw(st.floats(0.2, 4.0))
    n2 = (p1 + n1) * draw(st.floats(1.0, 2.5))
    net = GaussianNetwork(p1, draw(st.floats(0.2, 8.0)), n1, n2, draw(st.floats(0.2, 5.0)))
    ratio = min((net.p2 + n2) / n2, (p1 + net.p2 + n1) / (p1 + n1))
    q = (p1 + net.nr) / (ratio - 1.0) * draw(st.floats(1.0, 50.0))
    rstar = cf_rstar_max(net, q) * draw(st.floats(0.0, 1.0))
    return net, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), q, max(rstar, 0.0)


class TestLogAffineOracle:
    """The log-affine descriptions behind `max_r1_vs_alpha`'s bracketing, at 40 digits."""

    @given(_terms_cases())
    @settings(max_examples=60, deadline=None)
    def test_descriptions_equal_the_kernel_arms(self, case):
        net, alpha, beta, q, rstar = case
        with mpmath.workdps(40):
            s = (1 - mpmath.mpf(beta)) * net.p1
            mp_q, mp_rstar = mpmath.mpf(q), mpmath.mpf(rstar)
            for sid in ("b_df", "b_nf", "b_cf", "b_baseline"):
                strategy = STRATEGIES[sid]
                arms, _ = strategy.kernel(net, alpha, beta, q, rstar)
                terms = strategy.terms(_MpNetwork(net), mpmath.mpf(alpha), mp_q, mp_rstar)
                want = _mp_arms(*terms, s)
                assert len(arms) == len(want)
                for got, exact in zip(arms, want):
                    assert abs(float(got) - exact) <= 1e-12

    @pytest.mark.parametrize("sid", ["b_df", "b_nf", "b_cf"])
    def test_supremum_bounds_every_grid_value(self, sid):
        # The 8 ulp allowance covers the kernel's own rounding where a grid
        # point sits on the supremum (beta = 0 at alpha = 1).
        q = 300.0 if sid == "b_cf" else None
        rstar = cf_rstar_max(NET, q) if q else None
        betas = np.linspace(0.0, 1.0, 401)
        with mpmath.workdps(40):
            for alpha in np.linspace(0.0, 1.0, 21):
                sup, _ = _mp_supremum(sid, NET, alpha, q, rstar)
                first, _ = STRATEGIES[sid].rates(NET, alpha, betas, q, rstar)
                assert sup >= first.max() - 8 * np.spacing(first.max())

    def test_cf_supremum_at_alpha_one(self):
        """CF at alpha = 1, q = 300: the supremum over every beta in [0, 1] is
        0.6201593876, reached at beta = 0, so no finer beta grid closes the
        8.6e-6 gap to `acceptance.FIG4_TARGETS["cf"]` = 0.620168 (acceptance
        C1 passes it within its 1e-3 tolerance)."""
        with mpmath.workdps(40):
            sup, s = _mp_supremum("b_cf", NET, 1.0, 300.0, RSTAR_MAX_Q300)
            assert s == NET.p1  # beta = 0
            assert mpmath.nstr(sup, 10) == "0.6201593876"
            assert abs(sup - B_CF_A1_B0_Q300_R1) <= 1e-14


def _bits_networks():
    """The paper network and 20 seeded random networks under the less-noisy ordering."""
    rng = np.random.default_rng(20)
    nets = [NET]
    for _ in range(20):
        p1, n1 = rng.uniform(0.5, 10.0), rng.uniform(0.2, 4.0)
        n2 = (p1 + n1) * rng.uniform(1.0, 2.5)
        nets.append(GaussianNetwork(p1, rng.uniform(0.2, 8.0), n1, n2, rng.uniform(0.2, 5.0)))
    return nets


def _bits_slices(strategy, net):
    if not strategy.uses_q:
        return [(None, None)]
    return [(q, f * cf_rstar_max(net, q)) for q in (40.0, 300.0, 1e3, 1e8) for f in (0.0, 0.5, 1.0)]


class TestKernelBits:
    """Every kernel's arms and second rate, and every B strategy's candidates, at
    full precision on a 101 x 57 (alpha, beta) grid: a rewrite of a kernel must
    keep every bit, which the 9-digit CSV goldens cannot show."""

    # Pinned at the kernels as they stood before NF and CF shared one formula.
    DIGESTS = {
        "b_df": "d8e3d0ac2d47803c6872ef041ffae22c9191a899d6e999f220ce6d181f65d60b",
        "b_nf": "8321a2dbac5cc0598787fa6e7e572016d06b235699e47849e571cbf879f3acb2",
        "b_cf": "eedf06ace6848b5c4328f075ce3d8c052a5adf885aa507c40b00dd7e9af5190f",
        "b_baseline": "d8e3d0ac2d47803c6872ef041ffae22c9191a899d6e999f220ce6d181f65d60b",
        "c_df": "b52a03d699d7ee1c1474006f4a3b3ef6522d03ef4d9d9ff1bc33857ec889ed16",
        "c_nf": "8dc430b403da5adf0b3bfe1770883cedd3d13363faa5d28446d8b04a332715bd",
        "c_cf": "3558c9faba9cf89e39c844c44be9ea876381390ddc3bf9c1c60f5d1e519212f9",
        "c_baseline": "58f81dcf644cc94db16c21c0005b816258d7f29aa266b7da92c5b75730f719b3",
    }

    @pytest.mark.parametrize("sid", list(STRATEGIES))
    def test_kernel_bits(self, sid):
        strategy = STRATEGIES[sid]
        alphas = np.linspace(0.0, 1.0, 101)
        A, B = np.meshgrid(alphas, np.linspace(0.0, 1.0, 57), indexing="ij")
        h = hashlib.sha256()
        for net in _bits_networks():
            for q, rstar in _bits_slices(strategy, net):
                arms, second = strategy.kernel(net, A, B, q, rstar)
                for x in (*arms, second):
                    h.update(np.ascontiguousarray(np.broadcast_to(x, A.shape), np.float64).tobytes())
                if strategy.terms is not None:
                    h.update(np.ascontiguousarray(strategy.candidates(net, alphas, q, rstar)).tobytes())
        assert h.hexdigest() == self.DIGESTS[sid]


class TestRootCount:
    """`Strategy.root_count`, which sizes a curve's grid estimate, counts the
    roots `candidates` solves for: n(n+1) for n ratios."""

    @pytest.mark.parametrize("sid", [s for s in STRATEGIES if STRATEGIES[s].terms is not None])
    def test_count_equals_the_solved_roots(self, sid):
        strategy = STRATEGIES[sid]
        for net in _bits_networks():
            for q, rstar in _bits_slices(strategy, net):
                count = strategy.root_count(net, q, rstar)
                assert count == strategy.candidates(net, [0.0], q, rstar).size
                assert count == (12 if strategy.arm_labels else 2)
