import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec import gaussian, sweep
from relaysec.errors import UsageError, ValidationError
from relaysec.gaussian import (
    STRATEGIES,
    GaussianNetwork,
    RatePair,
    StrategyParams,
    cf_rstar_max,
    evaluate_strategy,
)
from relaysec.sweep import (
    RSTAR_POLICIES,
    Curve,
    Frontier,
    GridSpec,
    _bracket_columns,
    _pareto_survivors,
    max_r1_vs_alpha,
    pareto_filter,
    region_boundary,
    resolve_strategy,
    sweep_frontier,
)

NET = GaussianNetwork(5.0, 3.0, 2.0, 8.0, 2.0)

B_DF_MAX = 0.553457601958256
B_NF_MAX = 0.633393270347451
B_CF_MAX_Q300 = 0.620159387621037
C_DF_MAX_R0 = 0.5
C_BASE_MAX_R0 = 0.350219859070546


def pairs(coords):
    return [RatePair(float(a), float(b)) for a, b in coords]


def coords(points):
    return [(p.first, p.second) for p in points]


def _optional(column, n):
    return [None] * n if column is None else column.tolist()


def frontier_points(f):
    """(first, second, active, StrategyParams) per point of a columnar frontier."""
    n = f.first.size
    return [
        (x, y, (label,) if label else (), StrategyParams(a, b, q, rs))
        for x, y, label, a, b, q, rs in zip(
            f.first.tolist(), f.second.tolist(), f.active.tolist(), f.alpha.tolist(),
            f.beta.tolist(), _optional(f.q, n), _optional(f.rstar, n),
        )
    ]


def curve_samples(c):
    """(value, StrategyParams) per alpha of a columnar curve."""
    n = c.alpha.size
    return [
        (v, StrategyParams(a, b, q, rs))
        for v, a, b, q, rs in zip(
            c.value.tolist(), c.alpha.tolist(), c.beta.tolist(),
            _optional(c.q, n), _optional(c.rstar, n),
        )
    ]


def value_at(curve, alpha):
    """The curve's value at a grid alpha (to 1e-12)."""
    hits = np.flatnonzero(np.abs(curve.alpha - alpha) <= 1e-12)
    assert hits.size, f"alpha {alpha} is not on the curve grid"
    return float(curve.value[hits[0]])


def quadratic_pareto_oracle(points):
    """O(n^2) domination scan."""
    out = []
    for p in points:
        dominated = any(
            q.first >= p.first
            and q.second >= p.second
            and (q.first > p.first or q.second > p.second)
            for q in points
        )
        if not dominated and (p.first, p.second) not in [(o.first, o.second) for o in out]:
            out.append(p)
    return sorted(coords(out))


class TestParetoFilter:
    def test_dominated_point_removed(self):
        got = pareto_filter(pairs([(1, 0), (0, 1), (0.5, 0.5), (0.4, 0.4)]))
        assert coords(got) == [(0, 1), (0.5, 0.5), (1, 0)]

    def test_single_point(self):
        assert coords(pareto_filter(pairs([(0.3, 0.7)]))) == [(0.3, 0.7)]

    def test_empty_input_is_empty_not_an_error(self):
        assert pareto_filter([]) == []

    def test_duplicates_collapse(self):
        got = pareto_filter(pairs([(1, 1), (1, 1), (0.5, 2)]))
        assert coords(got) == [(0.5, 2), (1, 1)]

    def test_matches_quadratic_oracle_on_random_clouds(self):
        rng = np.random.default_rng(101)
        for n in (10, 100, 10_000):
            pts = pairs(rng.uniform(0, 1, size=(n, 2)))
            got = sorted(coords(pareto_filter(pts)))
            assert got == quadratic_pareto_oracle(pts)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_permutation_invariant(self, raw):
        pts = pairs(raw)
        once = pareto_filter(pts)
        assert coords(pareto_filter(once)) == coords(once)
        rev = pareto_filter(list(reversed(pts)))
        assert coords(rev) == coords(once)

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            pareto_filter([RatePair(1.0, 0.0), RatePair(-0.5, 0.0)])


class TestGridSpec:
    def test_steps_floor(self):
        with pytest.raises(ValidationError, match=">= 2"):
            GridSpec(alpha_steps=1)

    def test_q_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            GridSpec(q_values=(0.0,))

    def test_policy_names(self):
        with pytest.raises(ValidationError, match="rstar_policy"):
            GridSpec(rstar_policy="hill-climb")


class TestFrontierInvariants:
    def test_sorted_and_maximal_enforced(self):
        good = Frontier("c_df", NET, [0.1, 0.4], [0.5, 0.2], [0.9, 0.1], [0.0, 0.0], ["", ""])
        assert good.max_first() == 0.4
        with pytest.raises(ValidationError, match="dominated"):
            Frontier("c_df", NET, [0.1, 0.4], [0.5, 0.6], [0.9, 0.1], [0.0, 0.0], ["", ""])
        with pytest.raises(ValidationError, match="strictly increasing"):
            Frontier("c_df", NET, [0.4, 0.1], [0.5, 0.2], [0.9, 0.1], [0.0, 0.0], ["", ""])

    def test_parameter_ranges_checked_per_column(self):
        cols = ([0.1, 0.4], [0.5, 0.2], [0.9, 0.1], [0.0, 0.0], ["", ""])
        with pytest.raises(ValidationError, match="alpha must lie in"):
            Frontier("c_df", NET, cols[0], cols[1], [0.9, 1.5], *cols[3:])
        with pytest.raises(ValidationError, match="q must be positive"):
            Frontier("c_cf", NET, *cols, q=[300.0, 0.0], rstar=[0.1, 0.1])
        with pytest.raises(ValidationError, match="rstar must be >= 0"):
            Frontier("c_cf", NET, *cols, q=[300.0, 300.0], rstar=[0.1, float("nan")])
        with pytest.raises(ValidationError, match="differ in length"):
            Frontier("c_df", NET, *cols[:4], [""])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_rates_must_be_finite_and_nonnegative(self, bad):
        # NaN compares false, so the order checks alone let it through.
        cols = ([0.0, 0.0], ["", ""])
        with pytest.raises(ValidationError, match="first must be finite and >= 0"):
            Frontier("c_df", NET, [0.1, bad], [0.5, 0.2], [0.9, 0.1], *cols)
        with pytest.raises(ValidationError, match="second must be finite and >= 0"):
            Frontier("c_df", NET, [0.1, 0.4], [bad, 0.2], [0.9, 0.1], *cols)
        with pytest.raises(ValidationError, match="value must be finite and >= 0"):
            Curve("b_df", NET, [0.0, 1.0], [bad, 0.3], [0.0, 0.0])


class TestSweepFrontier:
    def test_df_frontier_is_the_single_best_point(self):
        frontier = sweep_frontier("b_df", NET, GridSpec())
        assert frontier.first.size == 1
        assert frontier.first[0] == pytest.approx(B_DF_MAX, abs=1e-3)
        assert frontier.second[0] == 0.0
        assert frontier.alpha[0] == 1.0
        assert frontier.beta[0] == 0.0
        assert frontier.q is None and frontier.rstar is None

    def test_beta_slice_containment(self):
        # A grid with only the two beta endpoints: every frontier point of the
        # full-filter of those two slices appears in the coarse sweep.
        grid = GridSpec(alpha_steps=41, beta_steps=2)
        frontier = sweep_frontier("b_nf", NET, grid)
        betas = set(frontier.beta.tolist())
        assert betas <= {0.0, 1.0}

    def test_cf_sweep_skips_infeasible_q(self):
        grid = GridSpec(alpha_steps=11, beta_steps=2, q_values=(0.01,))
        frontier = sweep_frontier("b_cf", NET, grid)
        assert frontier.first.size == frontier.q.size == frontier.active.size == 0

    def test_provenance_recorded(self):
        grid = GridSpec(alpha_steps=41, beta_steps=5, q_values=(300.0,))
        frontier = sweep_frontier("b_cf", NET, grid)
        assert frontier.q[0] == 300.0
        assert frontier.rstar[0] == pytest.approx(0.213077731881499, abs=1e-12)
        assert frontier.active[0]  # active min-branch label travels with the point


class TestCurve:
    def test_endpoint_values(self):
        df = max_r1_vs_alpha("b_df", NET, GridSpec(401, 401))
        nf = max_r1_vs_alpha("b_nf", NET, GridSpec(401, 401))
        cf = max_r1_vs_alpha("b_cf", NET, GridSpec(401, 401, q_values=(300.0,)))
        assert value_at(df, 1.0) == pytest.approx(B_DF_MAX, abs=1e-6)
        assert value_at(nf, 1.0) == pytest.approx(B_NF_MAX, abs=1e-6)
        assert value_at(cf, 1.0) == pytest.approx(B_CF_MAX_Q300, abs=1e-6)

    def test_alpha_zero_gives_zero_for_all_strategies(self):
        for sid, q in (("b_df", None), ("b_nf", None), ("b_cf", 300.0)):
            curve = max_r1_vs_alpha(sid, NET, GridSpec(51, 21, q_values=() if q is None else (q,)))
            assert value_at(curve, 0.0) == 0.0

    def test_nf_dominates_df_pointwise(self):
        df = max_r1_vs_alpha("b_df", NET, GridSpec(101, 51))
        nf = max_r1_vs_alpha("b_nf", NET, GridSpec(101, 51))
        for v_df, v_nf in zip(df.value, nf.value):
            assert v_nf >= v_df - 1e-12

    def test_grid_refinement_never_decreases_values(self):
        coarse = max_r1_vs_alpha("b_nf", NET, GridSpec(11, 11))
        fine = max_r1_vs_alpha("b_nf", NET, GridSpec(21, 21))
        for alpha, value in zip(coarse.alpha, coarse.value):
            assert value_at(fine, alpha) >= value - 1e-15

    def test_cf_requires_q(self):
        with pytest.raises(UsageError, match="compression variance"):
            max_r1_vs_alpha("b_cf", NET, GridSpec(11, 11, q_values=()))

    def test_curve_invariants_enforced(self):
        with pytest.raises(ValidationError, match="cover"):
            Curve("b_df", NET, [0.5], [0.1], [0.0])
        with pytest.raises(ValidationError, match="strictly increasing"):
            Curve("b_df", NET, [0.0, 0.5, 0.5, 1.0], [0.0] * 4, [0.0] * 4)
        with pytest.raises(ValidationError, match="beta must lie in"):
            Curve("b_df", NET, [0.0, 1.0], [0.0, 0.1], [0.0, -0.5])

    def test_columns_are_read_only_copies(self):
        alpha = np.array([0.0, 1.0])
        curve = Curve("b_df", NET, alpha, [0.0, 0.1], [0.0, 0.0])
        alpha[1] = 0.5  # the caller's array stays writable and the curve keeps its copy
        assert curve.alpha.tolist() == [0.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            curve.value[0] = 1.0
        frontier = sweep_frontier("c_nf", NET, GridSpec(11, 2))
        with pytest.raises(ValueError, match="read-only"):
            frontier.active[0] = "r0=arm2"

    def test_c_model_curves(self):
        nf = max_r1_vs_alpha("c_nf", NET, GridSpec(101, 2))
        assert value_at(nf, 1.0) == pytest.approx(B_NF_MAX, abs=1e-6)


class TestRegionBoundary:
    GRID = GridSpec(alpha_steps=401, beta_steps=2, q_values=(300.0,))

    def test_baseline_endpoints(self):
        f = region_boundary("c_baseline", NET, self.GRID)
        assert f.max_first() == pytest.approx(C_BASE_MAX_R0, abs=1e-3)
        assert f.max_second() == pytest.approx(B_DF_MAX, abs=1e-3)
        by_alpha = {a: i for i, a in enumerate(f.alpha.tolist())}
        assert f.first[by_alpha[0.0]] == pytest.approx(C_BASE_MAX_R0, abs=1e-9)
        assert f.second[by_alpha[1.0]] == pytest.approx(B_DF_MAX, abs=1e-9)

    def test_df_raises_the_common_rate_ceiling(self):
        f = region_boundary("c_df", NET, self.GRID)
        assert f.max_first() == pytest.approx(C_DF_MAX_R0, abs=1e-3)
        assert f.max_first() > C_BASE_MAX_R0

    def test_nf_raises_the_confidential_ceiling(self):
        f = region_boundary("c_nf", NET, self.GRID)
        assert f.max_second() == pytest.approx(B_NF_MAX, abs=1e-3)
        assert f.max_second() > B_DF_MAX

    def test_only_common_message_strategies_allowed(self):
        with pytest.raises(UsageError, match="common"):
            region_boundary("b_df", NET, self.GRID)

    def test_staircase_is_downward_closed_looking(self):
        f = region_boundary("c_df", NET, self.GRID)
        firsts, seconds = f.first.tolist(), f.second.tolist()
        assert all(b > a for a, b in zip(firsts, firsts[1:]))
        assert all(b < a for a, b in zip(seconds, seconds[1:]))

    @staticmethod
    def _staircase_area(frontier):
        # Points ascend in first coordinate with descending seconds; the union
        # of their rectangles has height second_i over (first_{i-1}, first_i].
        area, prev_first = 0.0, 0.0
        for first, second in zip(frontier.first, frontier.second):
            area += (first - prev_first) * second
            prev_first = first
        return area

    def test_refinement_never_shrinks_the_hypervolume(self):
        prev = None
        for steps in (11, 21, 41, 81):
            grid = GridSpec(alpha_steps=steps, beta_steps=2, q_values=(300.0,))
            area = self._staircase_area(region_boundary("c_nf", NET, grid))
            if prev is not None:
                assert area >= prev - 1e-15
            prev = area


class TestConvexHull:
    def test_hull_is_subset_and_concave(self):
        pts = [(0, 1), (0.2, 0.9), (0.5, 0.5), (0.8, 0.2), (1, 0)]
        first, second = zip(*pts)
        f = Frontier("c_nf", NET, first, second, first, [0.0] * 5, ["r0=arm1"] * 5)
        h = f.convex_hull()
        hull = list(zip(h.first.tolist(), h.second.tolist()))
        assert set(hull) <= set(pts)
        assert h.alpha.tolist() == h.first.tolist() and h.active.size == len(hull)
        # slopes nonincreasing along the hull
        slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(hull, hull[1:])]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


class TestStrategyRegistry:
    def test_labels_resolve_with_model(self):
        assert resolve_strategy("df", "B").strategy_id == "b_df"
        assert resolve_strategy("c_cf").uses_q

    def test_unknown_rejected(self):
        with pytest.raises(UsageError, match="unknown strategy"):
            resolve_strategy("af", "B")

    @pytest.mark.parametrize("name, config", [("b_df", "C"), ("c_cf", "B")])
    def test_other_models_id_rejected(self, name, config):
        with pytest.raises(UsageError, match=f"unknown strategy '{name}' for model '{config}'"):
            resolve_strategy(name, config)


@st.composite
def oracle_cases(draw):
    """A valid network and a small rstar-grid GridSpec with two feasible q's and one infeasible."""
    p1, n1 = draw(st.floats(1.0, 10.0)), draw(st.floats(0.5, 4.0))
    n2 = (p1 + n1) * draw(st.floats(1.0, 2.5))  # receiver 1 less noisy
    net = GaussianNetwork(p1, draw(st.floats(0.5, 8.0)), n1, n2, draw(st.floats(0.5, 5.0)))
    # cf_rstar_max(q) >= 0 exactly when q >= q_min.
    ratio = min((net.p2 + n2) / n2, (p1 + net.p2 + n1) / (p1 + n1))
    q_min = (p1 + net.nr) / (ratio - 1.0)
    qs = [q_min * draw(st.floats(1.5, 50.0)) for _ in range(2)]
    qs.append(q_min * draw(st.floats(0.1, 0.8)))
    grid = GridSpec(
        alpha_steps=draw(st.integers(2, 7)),
        beta_steps=draw(st.integers(2, 5)),
        q_values=tuple(draw(st.permutations(qs))),
        rstar_policy="grid",
        rstar_steps=3,
    )
    return net, grid


class TestScalarOracle:
    """The grid sweeps against the scalar closed forms, point by point."""

    @given(oracle_cases())
    @settings(max_examples=25, deadline=None)
    def test_frontier_points_match_scalar_evaluation(self, case):
        net, grid = case
        assert sorted(cf_rstar_max(net, q) >= 0.0 for q in grid.q_values) == [False, True, True]
        for sid in STRATEGIES:
            for first, second, active, params in frontier_points(sweep_frontier(sid, net, grid)):
                want = evaluate_strategy(sid, net, params)
                assert (first, second, active) == (want.first, want.second, want.active)

    @given(oracle_cases())
    @settings(max_examples=25, deadline=None)
    def test_curve_is_the_scalar_argmax(self, case):
        # Scan (q, R*) slices in grid order and beta within each; the first
        # strict maximum wins, so ties go to the earliest beta of the earliest slice.
        net, grid = case
        betas = np.linspace(0.0, 1.0, grid.beta_steps)
        for sid, strategy in STRATEGIES.items():
            slices = [(None, None)]
            if strategy.uses_q:
                slices = [
                    (q, float(rs))
                    for q in grid.q_values
                    if cf_rstar_max(net, q) >= 0.0
                    for rs in np.linspace(0.0, cf_rstar_max(net, q), grid.rstar_steps)
                ]
            for value, params in curve_samples(max_r1_vs_alpha(sid, net, grid)):
                best = None
                for q, rs in slices:
                    for b in betas if strategy.config == "B" else (0.0,):
                        sp = StrategyParams(params.alpha, float(b), q, rs)
                        pair = evaluate_strategy(sid, net, sp)
                        r1 = pair.first if strategy.config == "B" else pair.second
                        if best is None or r1 > best[0]:
                            best = (r1, sp)
                assert (value, params) == best


def full_grid_curve(sid, net, grid):
    """The full-grid curve: every strategy evaluated on the whole alpha x beta
    grid of every feasible (q, R*) slice, np.argmax over beta per slice, then
    the first slice reaching the maximum.  `max_r1_vs_alpha` evaluates only
    bracketing beta columns and must return exactly this."""
    strategy = STRATEGIES[sid]
    alphas = np.linspace(0.0, 1.0, grid.alpha_steps)
    A, B = np.meshgrid(alphas, np.linspace(0.0, 1.0, grid.beta_steps), indexing="ij")
    slices = [(None, None)]
    if strategy.uses_q:
        slices = []
        for q in grid.q_values:
            limit = cf_rstar_max(net, q)
            if limit >= 0.0:
                rstars = [limit] if grid.rstar_policy == "max" else [
                    float(rs) for rs in np.linspace(0.0, limit, grid.rstar_steps)]
                slices.extend((q, rs) for rs in rstars)
    rows = np.arange(alphas.size)
    values, betas = [], []
    for q, rs in slices:
        first, _ = strategy.rates(net, A, B, q, rs)
        j = np.argmax(first, axis=1)
        values.append(first[rows, j])
        betas.append(B[rows, j])
    best = np.argmax(values, axis=0)
    return [
        (float(values[k][i]), StrategyParams(float(alphas[i]), float(betas[k][i]), *slices[k]))
        for i, k in enumerate(best)
    ]


@st.composite
def bracket_cases(draw):
    """A valid network and a grid with up to 401 betas, under either R* policy."""
    net, grid = draw(oracle_cases())
    grid = GridSpec(
        alpha_steps=draw(st.integers(2, 41)),
        beta_steps=draw(st.one_of(st.just(401), st.integers(2, 401))),
        q_values=grid.q_values,
        rstar_policy=draw(st.sampled_from(RSTAR_POLICIES)),
        rstar_steps=draw(st.integers(2, 4)),
    )
    return net, grid


class TestBracketOracle:
    """The bracketed curve against the full-grid argmax, sample by sample."""

    @given(bracket_cases())
    @settings(max_examples=40, deadline=None)
    def test_bracketed_curve_is_the_full_grid_argmax(self, case):
        net, grid = case
        for sid in ("b_df", "b_nf", "b_cf"):
            got = curve_samples(max_r1_vs_alpha(sid, net, grid))
            assert got == full_grid_curve(sid, net, grid)

    def test_paper_network_at_full_resolution(self):
        grid = GridSpec(401, 401, q_values=(300.0,))
        for sid in ("b_df", "b_nf", "b_cf", "b_baseline"):
            got = curve_samples(max_r1_vs_alpha(sid, NET, grid))
            assert got == full_grid_curve(sid, NET, grid)

    def test_bracket_is_narrow(self):
        # At most four columns per candidate root plus both ends; far fewer on
        # the paper network, where most roots fall outside [0, P1].
        grid = GridSpec(401, 401)
        alphas = np.linspace(0.0, 1.0, 401)
        for sid, q, rstar in (("b_df", None, None), ("b_nf", None, None),
                              ("b_cf", 300.0, cf_rstar_max(NET, 300.0))):
            cols = _bracket_columns(STRATEGIES[sid], NET, grid, alphas, q, rstar)
            assert cols.shape[1] <= 20
            assert np.all(np.diff(cols, axis=1) >= 0) and np.all(cols[:, [0, -1]] == [0, 400])


class TestGridBudget:
    GRID = GridSpec(alpha_steps=11, beta_steps=2, q_values=(300.0, 400.0, 0.01),
                    rstar_policy="grid", rstar_steps=3)

    def test_estimate_counts_cells_slices_and_axes(self, monkeypatch):
        # 11 alphas x 1 beta column x (2 feasible q x 3 R*) + 11 + 1 = 78 cells:
        # the C model's beta axis is one point whatever beta_steps says.
        monkeypatch.setattr(sweep, "MAX_GRID_CELLS", 78)
        assert region_boundary("c_cf", NET, self.GRID).first.size
        monkeypatch.setattr(sweep, "MAX_GRID_CELLS", 77)
        with pytest.raises(ValidationError, match="about 78 cells"):
            region_boundary("c_cf", NET, self.GRID)
        with pytest.raises(ValidationError, match="about 78 cells"):
            max_r1_vs_alpha("c_cf", NET, self.GRID)

    def test_curve_counts_only_bracketing_columns(self, monkeypatch):
        # b_df has 1 candidate quadratic, so 2 roots x 4 columns + 2 ends =
        # 10 of 401 beta columns: 21 x 10 + 21 + 401 cells.
        grid = GridSpec(alpha_steps=21, beta_steps=401)
        monkeypatch.setattr(sweep, "MAX_GRID_CELLS", 21 * 10 + 21 + 401)
        max_r1_vs_alpha("b_df", NET, grid)
        monkeypatch.setattr(sweep, "MAX_GRID_CELLS", 21 * 10 + 21 + 400)
        with pytest.raises(ValidationError, match="cells"):
            max_r1_vs_alpha("b_df", NET, grid)
        with pytest.raises(ValidationError, match="cells"):
            sweep_frontier("b_df", NET, grid)


def lexsort_survivors(first, second, prov_cols):
    """The reference staircase rule: a six-key lexsort by (-first, -second,
    provenance most significant first, index), then every point whose second
    is strictly above the running maximum."""
    order = np.lexsort(tuple(reversed(prov_cols)) + (-second, -first))
    ss = second[order]
    keep = ss > np.concatenate(([-np.inf], np.maximum.accumulate(ss)[:-1]))
    return order[keep][::-1]


# A quarter each of 0.0 and -0.0, and k/2 for k = 0..6 alike in the other half.
_TIE_COORDS = np.repeat([k / 2.0 for k in range(7)] + [0.0, -0.0], [2] * 7 + [7, 7])


@st.composite
def tie_heavy_points(draw):
    """Small-integer and half-integer coordinates with +-0.0, and 0-4
    provenance columns with repeats, so exact duplicates fall back to the index.
    Each column is drawn as n bytes, one value per byte."""
    n = draw(st.integers(0, 300))

    def column(values):
        raw = st.binary(min_size=n, max_size=n)
        return raw.map(lambda b: values[np.frombuffer(b, np.uint8) % len(values)])

    coord, prov = column(_TIE_COORDS), column(np.arange(3.0))
    return draw(coord), draw(coord), draw(st.lists(prov, max_size=4))


class TestParetoSurvivorsOracle:
    @given(tie_heavy_points())
    @settings(max_examples=300, deadline=None)
    def test_indices_equal_the_lexsort_rule(self, case):
        first, second, prov = case
        got = _pareto_survivors(first, second, prov)
        assert got.tolist() == lexsort_survivors(first, second, prov).tolist()


def per_slice_frontier(sid, net, grid):
    """The reference frontier columns: one kernel call per (q, R*) slice,
    concatenated, the lexsort staircase, then the survivors' labels."""
    strategy = STRATEGIES[sid]
    pairs = sweep._slices(strategy, net, grid, curve=False)
    A, B = np.meshgrid(np.linspace(0.0, 1.0, grid.alpha_steps),
                       np.linspace(0.0, 1.0, grid.beta_steps) if strategy.config == "B"
                       else np.zeros(1), indexing="ij")
    slices = [strategy.rates(net, A, B, q, rstar) for q, rstar in pairs]
    f = np.concatenate([first.ravel() for first, _ in slices])
    s = np.concatenate([second.ravel() for _, second in slices])
    a, b = np.tile(A.ravel(), len(slices)), np.tile(B.ravel(), len(slices))
    qc = np.repeat([q or 0.0 for q, _ in pairs], A.size)
    rc = np.repeat([rstar or 0.0 for _, rstar in pairs], A.size)
    keep = lexsort_survivors(f, s, (a, b, qc, rc))
    arms, _ = strategy.kernel(net, a[keep], b[keep], qc[keep], rc[keep])
    cf = strategy.uses_q
    return {"first": f[keep], "second": s[keep], "alpha": a[keep], "beta": b[keep],
            "q": qc[keep] if cf else None, "rstar": rc[keep] if cf else None,
            "active": strategy.active(arms)}


@st.composite
def frontier_cases(draw):
    """A valid network and a small grid under either R* policy, its q values
    unsorted, possibly repeated, and one of them infeasible."""
    net, grid = draw(oracle_cases())
    qs = list(grid.q_values) + draw(st.lists(st.sampled_from(grid.q_values), max_size=2))
    grid = GridSpec(
        alpha_steps=draw(st.integers(2, 21)),
        beta_steps=draw(st.integers(2, 9)),
        q_values=tuple(draw(st.permutations(qs))),
        rstar_policy=draw(st.sampled_from(RSTAR_POLICIES)),
        rstar_steps=draw(st.integers(2, 4)),
    )
    return net, grid


def assert_same_columns(got, want, sid):
    """A frontier's columns equal a reference's (a dict of columns), bit for bit."""
    for name, column in want.items():
        mine = getattr(got, name)
        if column is None:
            assert mine is None, (sid, name)
        elif name == "active":
            assert mine.tolist() == column.tolist(), sid
        else:
            assert mine.tobytes() == column.tobytes(), (sid, name)


def frontier_columns(f):
    return {name: getattr(f, name) for name in ("first", "second", "alpha", "beta", "q",
                                                "rstar", "active")}


class TestFrontierColumnOracle:
    """`sweep_frontier` against the per-slice reference, bit for bit."""

    @given(frontier_cases(), st.one_of(st.just(sweep.BLOCK_CELLS), st.integers(1, 40)))
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_the_per_slice_reference(self, case, block):
        # Blocks of a few cells put their edges anywhere in a slice, a row or a
        # run of duplicates.
        net, grid = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "BLOCK_CELLS", block)
            for sid in STRATEGIES:
                assert_same_columns(sweep_frontier(sid, net, grid),
                                    per_slice_frontier(sid, net, grid), sid)

    def test_memory_stays_bounded_near_the_grid_budget(self, monkeypatch):
        # 401 x 401 x (6 q x 8 R*) = 7.7M cells, just under MAX_GRID_CELLS; the
        # whole grid at once peaked near 700 MiB.
        grid = GridSpec(401, 401, (300.0, 200.0, 100.0, 50.0, 30.0, 20.0),
                        rstar_policy="grid", rstar_steps=8)
        tracemalloc.start()
        try:
            got = sweep_frontier("b_cf", NET, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        monkeypatch.setattr(sweep, "BLOCK_CELLS", 100_003)
        assert_same_columns(got, frontier_columns(sweep_frontier("b_cf", NET, grid)), "b_cf")

    @pytest.mark.parametrize("sid", ["c_cf", "b_cf", "c_nf", "b_df"])
    @pytest.mark.parametrize("q_values, rstar_steps", [((300.0,), 2), ((300.0, 40.0, 0.01), 8)])
    def test_two_kernel_calls_whatever_the_slice_count(self, monkeypatch, sid, q_values,
                                                       rstar_steps):
        calls = []
        strategy = STRATEGIES[sid]

        def counting(*args):
            calls.append(args)
            return strategy.kernel(*args)

        monkeypatch.setitem(gaussian.STRATEGIES, sid, replace(strategy, kernel=counting))
        grid = GridSpec(11, 3, q_values, rstar_policy="grid", rstar_steps=rstar_steps)
        sweep_frontier(sid, NET, grid)
        assert len(calls) == 2  # the whole grid, then the survivors' labels
