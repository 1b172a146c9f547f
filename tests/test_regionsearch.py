import copy
import itertools
import math
import os
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import bsc, product_channel, v1_copies_x_coupling, z_copies_y_channel
from relaysec import regionsearch
from relaysec.acceptance import _grid_scan_best, favorable_model, random_coupling, random_model
from relaysec.bounds import (
    DEFAULT_TOL,
    THEOREMS,
    AuxiliaryCoupling,
    compose_stack,
    coupling_stack,
    evaluate_stack,
    require_factorization,
    theorem_spec,
)
from relaysec.dmc import DMCModel, RateTuple
from relaysec.errors import BudgetExceededError, UsageError, ValidationError
from relaysec.pmf import FactorizationPattern, JointPMF, check_masses
from relaysec.regionsearch import (
    _VertexSystem,
    _full_points,
    _simplex_table,
    _vertices,
    brute_force_best,
    estimate_grid_size,
    secrecy_region_extremes,
    simplex_grid_count,
)

THEOREM_IDS = sorted(THEOREMS, key=lambda t: int(t[1:]))


def coupling_grid(theorem_id, model, aux_sizes, grid_steps):
    """Every coupling of the search grid, in grid order, built from its chunks."""
    spec = theorem_spec(theorem_id)
    for probs in regionsearch._grid(spec, model, aux_sizes, grid_steps)[1]:
        yield from (AuxiliaryCoupling(JointPMF(spec.coupling_vars, p), theorem_id) for p in probs)


def y1_leg_deviation(spec, model, probs):
    """Per stacked compress-forward coupling (N, `spec.coupling_vars` axes), the largest
    cell of |p(aux, x, x1, y1) - p(aux, x, x1)·p(y1|x, x1)| against the channel."""
    order = [v for v in spec.full_vars if v in spec.coupling_vars]  # aux, X, X1, Y1, Yh
    probs = probs.transpose(0, *(1 + spec.coupling_vars.index(v) for v in order))
    implied = probs.sum(axis=(-2, -1))[..., None] * model.y1_conditional
    return np.max(np.abs(implied - probs.sum(axis=-1)).reshape(len(probs), -1), axis=1)


def slice_branches(theorem_id, model, coupling, clamp=False):
    """One coupling's Re = R systems read off its `StackEvaluation`, per branch:
    applicable, and the branch as its rows' (R0, R1, R2) coefficients (R, 3) and
    their bounds (R,)."""
    spec = theorem_spec(theorem_id)
    ev = evaluate_stack(spec, coupling_stack(spec, model, coupling), clamp_equivocation=clamp)
    return [
        (bool(ev.applicable[0, k]),
         (spec.compiled.slice_rates[list(br.corollary)], ev.bounds[0, list(br.corollary)]))
        for k, br in enumerate(spec.compiled.branches)
    ]


def z_noise_channel(py=0.1):
    """Receiver 2 sees an unbiased coin regardless of the inputs."""
    t = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for x1 in range(2):
            for y in range(2):
                for y1 in range(2):
                    for z in range(2):
                        t[x, x1, y, y1, z] = bsc(py)[x, y] * bsc(0.2)[x, y1] * 0.5
    return DMCModel(t)


class TestSimplexGrid:
    def test_steps_one_is_single_uniform(self):
        assert _simplex_table(4, 1).tolist() == [[0.25, 0.25, 0.25, 0.25]]

    def test_steps_two_gives_point_masses(self):
        got = set(map(tuple, _simplex_table(3, 2).tolist()))
        assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_counts_match_enumeration(self):
        for cells in (2, 3, 4):
            for steps in (1, 2, 3, 5):
                grid = [tuple(w) for w in _simplex_table(cells, steps).tolist()]
                assert len(grid) == simplex_grid_count(cells, steps)
                assert len(set(grid)) == len(grid)
                for w in grid:
                    assert sum(w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cells", range(1, 7))
    def test_rows_are_the_integer_compositions_in_descending_order(self, cells):
        # Oracle: every composition of steps - 1 into `cells` parts, from the
        # full product of levels, sorted descending and divided by steps - 1.
        for steps in range(2, 7):
            levels = itertools.product(range(steps), repeat=cells)
            want = sorted((p for p in levels if sum(p) == steps - 1), reverse=True)
            got = _simplex_table(cells, steps)
            assert got.tobytes() == (np.array(want, dtype=float) / (steps - 1)).tobytes()
            assert got.shape == (len(want), cells)


class TestExtremes:
    def test_all_constant_coupling_gives_origin(self):
        model = product_channel()
        probs = np.full((1, 1, 1, 2, 2), 0.25)
        coupling = AuxiliaryCoupling(JointPMF(("U", "V1", "V2", "X", "X1"), probs), "T2")
        for objective in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            ext = secrecy_region_extremes("T2", model, coupling, objective)
            assert ext.rates.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
            assert not ext.empty_interior

    def test_single_active_cap_is_returned(self):
        # V1 = X through a clean/noisy pair: the R1 cap binds alone.
        model = product_channel(py=0.05, pz=0.4)
        coupling = v1_copies_x_coupling("T2")
        _, (coefs, bounds) = slice_branches("T2", model, coupling)[0]
        r1_cap = next(b for c, b in zip(coefs.tolist(), bounds) if c == [0.0, 1.0, 0.0])
        ext = secrecy_region_extremes("T2", model, coupling, (0, 1, 0))
        assert ext.objective_value == pytest.approx(r1_cap, abs=1e-12)
        assert ext.rates.r1 == pytest.approx(r1_cap, abs=1e-12)

    def test_negative_cap_empties_the_region(self):
        # Eavesdropper strictly better: the R1 cap is negative, origin fails.
        model = product_channel(py=0.4, pz=0.05)
        coupling = v1_copies_x_coupling("T2")
        ext = secrecy_region_extremes("T2", model, coupling, (0, 1, 0))
        assert ext.empty_interior
        assert ext.rates.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert ext.branch_id == "none"

    def test_a_branch_with_an_infeasible_origin_offers_no_vertex(self):
        # T9's slice: R0+R1 <= -1.5 tol and R1 <= -0.75 tol meet at r0 = r1 = -0.75 tol,
        # a vertex within tol of every row, but the origin fails R0+R1's row.
        spec, tol = theorem_spec("T9"), DEFAULT_TOL
        rates = spec.compiled.slice_rates.tolist()
        for cap, branch in ((-1.5 * tol, -1), (-tol, 0)):
            bounds = [[cap if r == [1, 1, 0] else -0.75 * tol if r == [0, 1, 0] else 1.0 for r in rates]]
            ev = SimpleNamespace(bounds=np.array(bounds), applicable=np.ones((1, 1), dtype=bool))
            value, point, got = regionsearch._stack_extremes(spec, ev, (1.0, 1.0, 0.0), tol)
            assert (value.tolist(), point.tolist(), got.tolist()) == ([0.0], [[0.0] * 3], [branch])

    def test_objective_must_be_three_dimensional(self):
        with pytest.raises(UsageError, match="direction"):
            secrecy_region_extremes(
                "T2", product_channel(), v1_copies_x_coupling("T2"), (1, 0)
            )

    def test_vertex_result_dominates_grid_scan(self):
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(6):
            model = favorable_model(rng)
            coupling = random_coupling(
                rng, "T11", model, aux_sizes=None, independent_aux=True
            )
            ext = secrecy_region_extremes("T11", model, coupling, (0.4, 1.0, 0.0))
            spec = theorem_spec("T11")
            ev = evaluate_stack(spec, coupling_stack(spec, model, coupling))
            best, spacing = _grid_scan_best(spec, ev, (0.4, 1.0, 0.0), steps=50)
            if best is None:
                continue
            hits += best > 0.0
            assert ext.objective_value >= best - 1e-9
            assert ext.objective_value <= best + 1.4 * spacing + 1e-9
        assert hits >= 3

    def test_tie_breaks_to_lexicographically_largest(self):
        # Degenerate objective (0,0,0): every vertex ties at 0; the reported
        # point must then be the lexicographically largest vertex.
        model = product_channel(py=0.05, pz=0.4)
        coupling = v1_copies_x_coupling("T2")
        ext = secrecy_region_extremes("T2", model, coupling, (0.0, 0.0, 0.0))
        best = secrecy_region_extremes("T2", model, coupling, (1.0, 1.0, 1.0))
        assert ext.rates.as_tuple() == best.rates.as_tuple()


class TestBruteForce:
    def test_symmetric_eavesdropper_is_hopeless(self):
        model = z_copies_y_channel()
        res = brute_force_best(model, {"U": 1, "V1": 2, "V2": 1}, 3, "T2", (0, 1, 0))
        assert res.best.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_pure_noise_eavesdropper_recovers_channel_capacity(self):
        model = z_noise_channel(py=0.1)
        steps = 4
        res = brute_force_best(model, {"U": 1, "V1": 2, "V2": 1}, steps, "T2", (0, 1, 0))
        # Direct capacity grid search on the x -> y marginal at fine resolution.
        p_y_given_x = bsc(0.1)
        cap = 0.0
        for w in np.linspace(0.0, 1.0, 2001):
            px = np.array([w, 1 - w])
            py = px @ p_y_given_x
            mi = 0.0
            for x in range(2):
                for y in range(2):
                    joint = px[x] * p_y_given_x[x, y]
                    if joint > 0 and py[y] > 0:
                        mi += joint * math.log2(p_y_given_x[x, y] / py[y])
            cap = max(cap, mi)
        # Same-resolution grid capacity is achievable by the search...
        coarse = 0.0
        for w in [i / (steps - 1) for i in range(steps)]:
            px = np.array([w, 1 - w])
            py = px @ p_y_given_x
            mi = 0.0
            for x in range(2):
                for y in range(2):
                    joint = px[x] * p_y_given_x[x, y]
                    if joint > 0 and py[y] > 0:
                        mi += joint * math.log2(p_y_given_x[x, y] / py[y])
            coarse = max(coarse, mi)
        assert res.best.objective_value >= coarse - 1e-9
        # ... and nothing in the region exceeds the true capacity.
        assert res.best.objective_value <= cap + 1e-6

    def test_steps_one_equals_singleton_evaluation(self):
        model = product_channel()
        res = brute_force_best(model, {"U": 1, "V1": 2, "V2": 1}, 1, "T2", (0, 1, 0))
        assert res.couplings_scanned == 1
        the_one = next(iter(coupling_grid("T2", model, {"U": 1, "V1": 2, "V2": 1}, 1)))
        direct = secrecy_region_extremes("T2", model, the_one, (0, 1, 0))
        assert res.best.objective_value == direct.objective_value
        assert res.best.rates.as_tuple() == direct.rates.as_tuple()

    def test_budget_refusal_reports_estimate(self):
        model = product_channel()
        sizes = {"U": 2, "V1": 2, "V2": 2}
        estimated = estimate_grid_size("T2", model, sizes, 4)
        with pytest.raises(BudgetExceededError, match=str(estimated)):
            brute_force_best(model, sizes, 4, "T2", (0, 1, 0), budget=10)

    def test_budget_below_1_and_grid_past_the_index_range_are_refused(self):
        model = product_channel()
        with pytest.raises(UsageError, match="budget must be >= 1"):
            brute_force_best(model, {"U": 1, "V1": 1, "V2": 1}, 2, "T2", (0, 1, 0), budget=0)
        sizes = {"U": 3, "V1": 3, "V2": 3}
        estimated = estimate_grid_size("T2", model, sizes, 5)
        assert estimated > regionsearch.MAX_GRID_INDEX
        with pytest.raises(BudgetExceededError, match=f"needs {estimated} evaluations"):
            brute_force_best(model, sizes, 5, "T2", (0, 1, 0), budget=10 * estimated)

    @pytest.mark.parametrize("size", [2.9, 2.0, np.float64(2.0), True, np.True_, "2"])
    def test_a_non_integer_aux_size_is_refused_by_name(self, size):
        # int() would read 2.9 as 2 and True as 1, and search a grid nobody asked for.
        model, sizes = product_channel(), {"U": 1, "V": size}
        message = f"aux size for V must be an integer, got {size!r}"
        with pytest.raises(UsageError, match=re.escape(message)):
            estimate_grid_size("T11", model, sizes, 2)
        with pytest.raises(UsageError, match=re.escape(message)):
            brute_force_best(model, sizes, 2, "T11", (0, 1, 0))

    def test_numpy_integer_aux_sizes_are_accepted(self):
        model = product_channel()
        plain = brute_force_best(model, {"U": 1, "V": 2}, 2, "T11", (0, 1, 0))
        for kind in (np.int64, np.int32, np.uint8):
            sizes = {"U": kind(1), "V": kind(2)}
            assert estimate_grid_size("T11", model, sizes, 2) == plain.couplings_scanned
            got = brute_force_best(model, sizes, 2, "T11", (0, 1, 0))
            assert got.best == plain.best and got.couplings_scanned == plain.couplings_scanned

    def test_aux_cap_enforced(self):
        with pytest.raises(UsageError, match="cap of 3"):
            brute_force_best(product_channel(), {"U": 4, "V1": 1, "V2": 1}, 2, "T2", (0, 1, 0))

    def test_deterministic(self):
        model = product_channel()
        sizes = {"U": 1, "V1": 2, "V2": 1}
        a = brute_force_best(model, sizes, 4, "T3", (0, 1, 0))
        b = brute_force_best(model, sizes, 4, "T3", (0, 1, 0))
        assert a.best == b.best and a.couplings_scanned == b.couplings_scanned

    def test_streams_the_grid(self):
        # Memory is flat in the grid size: the search holds one chunk, the
        # running best and the per-factor tables, never the whole grid.
        model = product_channel()
        sizes = {"U": 1, "V": 2}
        steps = (7, 10)
        counts = [estimate_grid_size("T11", model, sizes, g) for g in steps]
        chunk = regionsearch.CHUNK_CELLS // 64  # T11 joints with U=1, V=2 on binary alphabets
        assert chunk < counts[0] and counts[1] >= 4 * counts[0]
        brute_force_best(model, sizes, 2, "T11", (0, 1, 0))  # compile outside the measurement
        peaks = []
        for g, count in zip(steps, counts):
            tracemalloc.start()
            try:
                res = brute_force_best(model, sizes, g, "T11", (0, 1, 0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.couplings_scanned == count
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    def test_all_ties_keep_the_first_coupling(self):
        # Receiver 2 sees exactly what receiver 1 sees: every coupling's best
        # point is the origin at value 0, so the first grid coupling wins.
        model = z_copies_y_channel()
        sizes = {"U": 1, "V1": 2, "V2": 1}
        res = brute_force_best(model, sizes, 3, "T2", (0, 1, 0))
        first = next(coupling_grid("T2", model, sizes, 3))
        assert res.best == secrecy_region_extremes("T2", model, first, (0, 1, 0))
        assert res.best.objective_value == 0.0 and res.best.rates == RateTuple.zero()
        assert res.couplings_scanned == estimate_grid_size("T2", model, sizes, 3)
        assert np.array_equal(res.coupling.joint.probs, first.joint.probs)

    def test_grid_respects_factorization(self):
        model = product_channel()
        for coupling in coupling_grid("T11", model, {"U": 1, "V": 2}, 2):
            pass  # AuxiliaryCoupling construction already checks the pattern

    def test_cf_grid_pins_the_relay_observation_leg(self):
        model, spec = product_channel(), theorem_spec("T12")
        sizes = {"U": 1, "V": 2, "Yh": 2}
        count = 0
        for coupling in coupling_grid("T12", model, sizes, 2):
            assert y1_leg_deviation(spec, model, coupling.joint.probs[None])[0] <= DEFAULT_TOL
            count += 1
        assert count == estimate_grid_size("T12", model, sizes, 2)


def system_vertices(branches, dims, tol):
    """The search's one vertex pass over several branches' polytopes at once, each
    branch its rows' (R0, R1, R2) coefficients and bounds: per branch, its feasible
    vertices in subset order."""
    coefs = [np.asarray(a)[:, list(dims)] for a, _ in branches]
    bounds = np.concatenate([b for _, b in branches])[None]
    ends = np.cumsum([len(c) for c in coefs])
    sources = [range(end - len(c), end) for c, end in zip(coefs, ends)]
    system = _VertexSystem("test", coefs, sources)
    points, kept = _vertices(system, system.rhs(bounds), tol)
    return kept_by_branch(system, points[0], kept[0], dims)


def kept_by_branch(system, points, kept, dims):
    """One coupling's kept vertices (K, d) as rate triples, per branch in subset order."""
    return [
        [tuple(p) for p in _full_points(points[kept & (system.owner == k)], dims).tolist()]
        for k in range(len(system.origin))
    ]


def branch_vertices(branch, dims, tol):
    """`system_vertices` on one branch."""
    return system_vertices([branch], dims, tol)[0]


def loop_branch_vertices(branch, dims, tol):
    """Reference: solve every d-subset of a branch's rows, its (R0, R1, R2)
    coefficients and bounds, one at a time."""
    d = len(dims)
    rows = [np.array([c[i] for i in dims], dtype=np.float64) for c in branch[0]]
    rhs = [float(b) for b in branch[1]]
    for k in range(d):  # axis planes r_k >= 0 as -r_k <= 0
        e = np.zeros(d)
        e[k] = -1.0
        rows.append(e)
        rhs.append(0.0)
    a = np.vstack(rows)
    b = np.asarray(rhs)
    vertices = []
    for subset in itertools.combinations(range(len(rows)), d):
        sub_a = a[list(subset)]
        sub_b = b[list(subset)]
        if abs(np.linalg.det(sub_a)) < 1e-12:
            continue
        v = np.linalg.solve(sub_a, sub_b)
        if np.any(v < -tol) or np.any(a @ v > b + tol):
            continue
        vertices.append(v)
    out = []
    for v in vertices:
        full = [0.0, 0.0, 0.0]
        for k, dim in enumerate(dims):
            full[dim] = max(0.0, float(v[k]))
        out.append(tuple(full))
    return out


class TestVertexOracle:
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_batched_vertices_match_the_loop(self, theorem_id):
        rng = np.random.default_rng(int(theorem_id[1:]))
        dims = theorem_spec(theorem_id).rate_dims()
        branches = nonempty = 0
        models = (favorable_model, random_model)
        for make_model, clamp, independent, _ in itertools.product(
            models, (False, True), (False, True), range(3)
        ):
            model = make_model(rng)
            coupling = random_coupling(rng, theorem_id, model, independent_aux=independent)
            for _, branch in slice_branches(theorem_id, model, coupling, clamp):
                got = branch_vertices(branch, dims, DEFAULT_TOL)
                assert got == loop_branch_vertices(branch, dims, DEFAULT_TOL)
                branches += 1
                nonempty += len(got) > 1
        assert branches >= 24 and nonempty >= 2


def exact_solve(a, b):
    """x with a x = b, by Gauss-Jordan elimination in Fractions: exact for the
    integer matrix `a` and the floats `b`."""
    d = len(a)
    m = [[Fraction(int(v)) for v in row] + [Fraction(float(r))] for row, r in zip(a, b)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][d] / m[i][i] for i in range(d)]


# Unit roundoff of float64, and gamma_2 = 2u / (1 - 2u) (Higham, Accuracy and
# Stability of Numerical Algorithms, lemma 3.1).
UNIT_ROUNDOFF = Fraction(1, 2**53)
GAMMA_2 = 2 * UNIT_ROUNDOFF / (1 - 2 * UNIT_ROUNDOFF)


def vertices_off_the_exact_ones(system, b, points):
    """Coordinates of `_vertices`' points (N, K, d) farther from the exact solution of
    their subset's rows under right-hand sides `b` (N, R) than a sum of three terms
    can round.  Each coordinate is inverse[i, 0] b_0 + inverse[i, 1] b_1 +
    inverse[i, 2] b_2, added in that order starting from an exact 0: every product
    of an entry in {-1, 0, 1} and a float is exact, the first addition to 0 is
    exact, and the two additions left round once each, so recursive summation
    bounds the error by gamma_2 * sum_j |inverse[i, j] b_j| <= gamma_2 * sum_j |b_j|."""
    misses = 0
    for n, k in itertools.product(range(len(b)), range(len(system.subsets))):
        rhs = b[n, system.subsets[k]]
        slack = GAMMA_2 * sum(abs(Fraction(float(v))) for v in rhs)
        for got, want in zip(points[n, k].tolist(), exact_solve(system.sub_a[k], rhs)):
            misses += abs(Fraction(got) - want) > slack
    return misses


class TestVertexSystem:
    """Every vertex is a signed sum of at most three bounds."""

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_every_regular_subset_is_unimodular(self, theorem_id):
        system = regionsearch._theorem_system(theorem_id)
        d = system.subsets.shape[1]
        assert d <= 3
        assert np.array_equal(system.sub_a, np.rint(system.sub_a))
        assert set(np.unique(system.inverse)) <= {-1.0, 0.0, 1.0}
        assert np.count_nonzero(system.inverse, axis=2).max() <= 3
        # Integer matrices whose product is the identity both have determinant +-1.
        product = np.einsum("kij,kjl->kil", system.sub_a, system.inverse)
        assert np.array_equal(product, np.broadcast_to(np.eye(d), product.shape))

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_each_origin_is_its_branch_axis_plane_vertex(self, theorem_id):
        spec, system = theorem_spec(theorem_id), regionsearch._theorem_system(theorem_id)
        c, d = spec.compiled, system.subsets.shape[1]
        # Each branch's last subset: its d axis planes -r_k <= 0, which read the zero column.
        last = [np.flatnonzero(system.owner == k)[-1] for k in range(len(c.branches))]
        assert system.origin.tolist() == last
        assert np.all(system.source[system.subsets[system.origin]] == -1)
        for o in system.origin:
            assert np.array_equal(system.sub_a[o], -np.eye(d))
            assert np.array_equal(system.inverse[o], -np.eye(d))
        # Its feasibility is the literal origin rule: every Re = R row's bound >= -tol,
        # with bounds at -tol, one ulp either side of it, and zeros of both signs.
        rng, tol = np.random.default_rng(500 + int(theorem_id[1:])), DEFAULT_TOL
        edge = np.array([-tol, np.nextafter(-tol, -1.0), np.nextafter(-tol, 0.0), 0.0, -0.0])
        bounds = rng.uniform(-1.0, 1.0, (200, len(c.rates))) ** 2
        at_edge = rng.uniform(size=bounds.shape) < 0.4
        bounds[at_edge] = rng.choice(edge, size=int(at_edge.sum()))
        literal = np.stack([np.all(bounds[:, list(br.corollary)] >= -tol, axis=1)
                            for br in c.branches], axis=1)
        feasible = _vertices(system, system.rhs(bounds), tol)[1]
        assert np.array_equal(feasible[:, system.origin], literal)
        assert literal.any() and not literal.all()

    @pytest.mark.parametrize("rows", [[[2.0, 0.0], [0.0, 1.0]], [[0.5, 1.0]]], ids=["det-2", "half"])
    def test_a_system_without_a_signed_sum_is_refused(self, rows):
        with pytest.raises(ValueError, match=r"T0 branch 0: rows \[0, 1\] .* determinant 0 or \+-1"):
            _VertexSystem("T0", [np.array(rows)], [range(len(rows))])

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_vertices_are_within_rounding_of_the_exact_ones(self, theorem_id):
        rng = np.random.default_rng(300 + int(theorem_id[1:]))
        system = regionsearch._theorem_system(theorem_id)
        # Every row reads its own value, axis planes too, so every inverse entry counts.
        scale = 10.0 ** rng.integers(-6, 2, size=(3, 1))
        b = rng.uniform(-1.0, 1.0, size=(3, len(system.source))) * scale
        points, _ = _vertices(system, b, DEFAULT_TOL)
        assert vertices_off_the_exact_ones(system, b, points) == 0
        # The oracle is sharp enough to see one inverse entry flipped.
        flipped = copy.copy(system)
        flipped.inverse = system.inverse.copy()
        flipped.inverse[tuple(np.argwhere(system.inverse)[-1])] *= -1.0
        assert vertices_off_the_exact_ones(system, b, _vertices(flipped, b, DEFAULT_TOL)[0]) > 0


def axis_branch(caps):
    """A branch of rows r_dim <= cap, one per (dim, cap): its vertices are the
    grid of caps (with 0 for an axis plane), so they can be placed by hand."""
    return np.eye(3)[[dim for dim, _ in caps]], np.array([cap for _, cap in caps])


# Loose enough that every vertex of an `axis_branch` with caps inside 1e-6 is feasible.
PLACED_TOL = 1e-6
# Coordinates on a 0.4e-9 lattice, so drawn clusters hold distinct vertices far
# closer to each other than the feasibility tolerance.
_NEAR_CAPS = st.integers(0, 8).map(lambda k: k * 0.4e-9)


class TestVertexDedup:
    """No vertex is merged into a near one: every feasible vertex of a branch is
    kept, in subset order, however close it lies to another."""

    @given(
        caps=st.lists(
            st.lists(st.tuples(st.sampled_from([0, 1]), _NEAR_CAPS), min_size=1, max_size=5),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_clusters_match_the_loop(self, caps):
        branches = [axis_branch(c) for c in caps]
        got = system_vertices(branches, (0, 1), PLACED_TOL)
        assert got == [loop_branch_vertices(br, (0, 1), PLACED_TOL) for br in branches]

    def test_a_better_vertex_next_to_a_worse_one_wins(self):
        # T3.L1 has a vertex at R0 = 1.4e-12 and, later in subset order, a better
        # one at R0 = 0 with R1 larger by 1.4e-12: the best feasible vertex is the second.
        rng = np.random.default_rng(2)
        model = random_model(rng)
        couplings = [
            random_coupling(rng, "T3", model, independent_aux=k % 2 == 0) for k in range(10)
        ]
        pt = secrecy_region_extremes("T3", model, couplings[2], (0, 1, 0), clamp_equivocation=True)
        assert (pt.rates.r1, pt.branch_id) == (0.0005218635081063461, "T3.L1")
        assert (pt.objective_value, pt.rates.r0) == (pt.rates.r1, 0.0)


def reference_extremes(theorem_id, model, coupling, objective, clamp):
    """Best (value, point, branch) of one coupling: every applicable branch with a
    feasible origin solved on its own by the loop reference, first largest
    (value, R0, R1, R2) in branch then subset order."""
    dims, best = theorem_spec(theorem_id).rate_dims(), None
    for k, (applicable, br) in enumerate(slice_branches(theorem_id, model, coupling, clamp)):
        if not (applicable and all(b >= -DEFAULT_TOL for b in br[1])):
            continue
        for v in loop_branch_vertices(br, dims, DEFAULT_TOL):
            value = ((0.0 + objective[0] * v[0]) + objective[1] * v[1]) + objective[2] * v[2]
            if best is None or (value, *v) > (best[0], *best[1]):
                best = (value, v, k)
    return best or (0.0, (0.0, 0.0, 0.0), -1)


class TestMultiBranchPass:
    """The one pass over every branch equals solving each branch on its own: no
    subset is tested against another branch's rows, and the best vertex is the
    reference's."""

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_stack_extremes_match_the_per_branch_reference(self, theorem_id):
        rng = np.random.default_rng(100 + int(theorem_id[1:]))
        spec = theorem_spec(theorem_id)
        dims, system = spec.rate_dims(), regionsearch._theorem_system(theorem_id)
        nonempty = differing = 0
        for make_model, clamp in itertools.product((favorable_model, random_model), (False, True)):
            model = make_model(rng)
            couplings = [
                random_coupling(rng, theorem_id, model, independent_aux=k % 2 == 0)
                for k in range(6)
            ]
            full = np.concatenate([coupling_stack(spec, model, c) for c in couplings])
            ev = evaluate_stack(spec, full, clamp_equivocation=clamp)
            points, kept = _vertices(system, system.rhs(ev.bounds), DEFAULT_TOL)
            for i, coupling in enumerate(couplings):
                branches = slice_branches(theorem_id, model, coupling, clamp)
                want = [loop_branch_vertices(br, dims, DEFAULT_TOL) for _, br in branches]
                assert kept_by_branch(system, points[i], kept[i], dims) == want
                nonempty += sum(len(v) > 1 for v in want)
                differing += len(want) > 1 and want[0] != want[1] and min(map(len, want)) > 1
            for objective in ((0.0, 1.0, 0.0), (1.0, 1.0, 0.5), (0.0, 0.0, 0.0)):
                value, point, branch = regionsearch._stack_extremes(
                    spec, ev, objective, DEFAULT_TOL
                )
                for i, coupling in enumerate(couplings):
                    want = reference_extremes(theorem_id, model, coupling, objective, clamp)
                    assert (value[i], tuple(point[i].tolist()), branch[i]) == want
        assert nonempty > 0 and (differing > 0 or not spec.branched)


def fold_per_coupling(theorem_id, model, sizes, steps, objective, **kwargs):
    """Reference search: a strict-> fold over single-coupling extremes in grid order."""
    best = None
    for coupling in coupling_grid(theorem_id, model, sizes, steps):
        pt = secrecy_region_extremes(theorem_id, model, coupling, objective, **kwargs)
        key = (pt.objective_value, (pt.rates.r0, pt.rates.r1, pt.rates.r2))
        if best is None or key > best[0]:
            best = (key, pt, coupling)
    return best[1], best[2]


def stacked_extremes(theorem_id, model, sizes, steps, objective, tol=DEFAULT_TOL, **kwargs):
    """Every grid coupling's extreme point as the search computes it, chunk by chunk."""
    spec = theorem_spec(theorem_id)
    out = []
    for probs in regionsearch._grid(spec, model, sizes, steps)[1]:
        ev = evaluate_stack(spec, compose_stack(spec, model, probs), tol=tol, **kwargs)
        value, point, branch = regionsearch._stack_extremes(spec, ev, objective, tol)
        out += [
            regionsearch._extreme_point(spec, float(v), p, int(b))
            for v, p, b in zip(value, point, branch)
        ]
    return out


def chunk_of(couplings, theorem_id, sizes):
    """CHUNK_CELLS holding `couplings` composed joints of a binary-alphabet channel."""
    return couplings * math.prod(sizes.get(v, 2) for v in theorem_spec(theorem_id).full_vars)


STACK_CASES = [
    ("T3", {"U": 1, "V1": 2, "V2": 1}, 3, {}),
    ("T11", {"U": 1, "V": 2}, 3, {}),
    ("T12", {"U": 1, "V": 2, "Yh": 2}, 2, {}),
]


class TestStackedEngine:
    """A coupling gets the same bits alone or at any position in a chunk."""

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("theorem_id,sizes,steps,extra", STACK_CASES)
    def test_stack_matches_single_couplings(self, monkeypatch, theorem_id, sizes, steps, extra, clamp):
        model = favorable_model(np.random.default_rng(0))
        objective = (1.0, 1.0, 0.5)
        kwargs = dict(extra, clamp_equivocation=clamp)
        alone = [
            secrecy_region_extremes(theorem_id, model, c, objective, **kwargs)
            for c in coupling_grid(theorem_id, model, sizes, steps)
        ]
        assert len({pt.branch_id for pt in alone}) > 1
        assert stacked_extremes(theorem_id, model, sizes, steps, objective, **kwargs) == alone
        monkeypatch.setattr(regionsearch, "CHUNK_CELLS", chunk_of(7, theorem_id, sizes))
        assert stacked_extremes(theorem_id, model, sizes, steps, objective, **kwargs) == alone

    @pytest.mark.parametrize("theorem_id,sizes,steps,extra", STACK_CASES)
    def test_search_equals_the_per_coupling_fold(self, monkeypatch, theorem_id, sizes, steps, extra):
        model = favorable_model(np.random.default_rng(2))
        objective = (0.0, 1.0, 0.0)
        want_pt, want_coupling = fold_per_coupling(theorem_id, model, sizes, steps, objective, **extra)
        for chunk in (None, 7):
            if chunk is not None:
                monkeypatch.setattr(regionsearch, "CHUNK_CELLS", chunk_of(chunk, theorem_id, sizes))
            res = brute_force_best(model, sizes, steps, theorem_id, objective, **extra)
            assert res.best == want_pt
            assert res.coupling.to_json() == want_coupling.to_json()
            assert res.couplings_scanned == estimate_grid_size(theorem_id, model, sizes, steps)

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_the_stack_size_does_not_change_the_bits(self, theorem_id):
        # A stack of one may take another BLAS path (gemv) than a stack of many (gemm).
        # Couplings' MI values, differences of entropies, seldom round in a sum of three;
        # test_bounds.TestBoundTable checks the tables on full-precision columns.
        spec, rng = theorem_spec(theorem_id), np.random.default_rng(5)
        model = favorable_model(np.random.default_rng(4))
        full = np.concatenate([
            coupling_stack(spec, model, random_coupling(rng, theorem_id, model, independent_aux=True))
            for _ in range(256)
        ])
        objective = (1.0, 1.0, 0.5)

        def run(stack):
            ev = evaluate_stack(spec, stack)
            return [*vars(ev).values(), *regionsearch._stack_extremes(spec, ev, objective, DEFAULT_TOL)]

        alone = [np.concatenate(arrays) for arrays in zip(*(run(full[i : i + 1]) for i in range(256)))]
        for n in (16, 256):
            for got, want in zip(run(full[:n]), alone):
                assert np.array_equal(got, want[:n], equal_nan=True)

    def test_a_broken_simplex_row_is_refused_where_the_grid_is_built(self, monkeypatch):
        # The grid's masses are checked once per (cells, steps) table, not per chunk:
        # a bar set past the last slot gives a row with a negative gap.
        def spoiled(pool, r):
            rows = list(itertools.combinations(pool, r))
            rows[len(rows) // 2] = (len(pool),) * r
            return iter(rows)

        regionsearch._simplex_table.cache_clear()
        try:
            monkeypatch.setattr(regionsearch, "itertools", SimpleNamespace(combinations=spoiled))
            with pytest.raises(ValidationError, match="simplex grid: negative mass"):
                brute_force_best(product_channel(), {"U": 1, "V1": 2, "V2": 1}, 3, "T3", (0, 1, 0))
        finally:
            monkeypatch.undo()
            regionsearch._simplex_table.cache_clear()
        table = regionsearch._simplex_table(2, 3)
        assert table is regionsearch._simplex_table(2, 3) and not table.flags.writeable
        assert table.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]


def shipped_model():
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "dmc_model.json")
    with open(path, encoding="utf-8") as fh:
        return DMCModel.from_json(fh.read())


# The grids `TestGoldenOutputs` searches on the shipped model: `test_dmc_search_bytes`,
# then `test_dmc_search_bytes_per_theorem`.
GOLDEN_GRIDS = [
    ("T3", {"U": 1, "V1": 2, "V2": 1}, 3),
    ("T2", {"U": 1, "V1": 2, "V2": 2}, 2),
    ("T3", {"U": 1, "V1": 2, "V2": 2}, 3),
    ("T4", {"U": 1, "V1": 2, "V2": 2, "Yh": 2}, 2),
    ("T6", {"U": 1, "V1": 2, "V2": 2}, 2),
    ("T7", {"U": 1, "V1": 2, "V2": 2}, 3),
    ("T8", {"U": 1, "V1": 2, "V2": 2, "Yh": 2}, 2),
    ("T10", {"U": 1, "V": 2}, 3),
    ("T11", {"U": 1, "V": 2}, 3),
    ("T12", {"U": 1, "V": 2, "Yh": 2}, 2),
]
# The benchmark's five dmc-search shapes, which it searches on favorable models.
BENCH_SHAPES = [
    ("T11", {"U": 1, "V": 2}),
    ("T10", {"U": 1, "V": 2}),
    ("T12", {"U": 1, "V": 1, "Yh": 2}),
    ("T4", {"U": 1, "V1": 2, "V2": 1, "Yh": 1}),
    ("T3", {"U": 1, "V1": 2, "V2": 1}),
]
GRID_CASES = (
    [(t, sizes, g, "favorable") for t, sizes, g, extra in STACK_CASES if not extra]
    + [(t, sizes, g, "shipped") for t, sizes, g in GOLDEN_GRIDS]
    + [(t, sizes, g, "favorable") for t, sizes in BENCH_SHAPES for g in (2, 3)]
)


GRID_IDS = [f"{t}-{''.join(f'{k}{v}' for k, v in s.items())}-g{g}-{m}" for t, s, g, m in GRID_CASES]


def reference_grid_chunks(spec, model, sizes, steps):
    """The search grid enumerated factor by factor: every combination of a factor's
    simplex rows, one per given value (`itertools.product`, the first given value
    slowest), then every combination of the factors' tables in pattern order, the
    first factor slowest, in chunks of the search's size."""
    axes = regionsearch._axis_sizes(spec, model, sizes)
    tables = []  # per factor: (choices, given..., targets...)
    for targets, given in spec.pattern.factors:
        shape = tuple(axes[v] for v in given + targets)
        if targets == ("Y1",):
            tables.append(model.y1_conditional.reshape((1,) + shape))
            continue
        rows = _simplex_table(math.prod(axes[v] for v in targets), steps)
        combos = list(itertools.product(range(len(rows)), repeat=math.prod(axes[v] for v in given)))
        tables.append(np.stack([rows[list(c)].reshape(shape) for c in combos]))
    channel = {**model.sizes, **axes}
    step = max(1, regionsearch.CHUNK_CELLS // math.prod(channel[v] for v in spec.full_vars))
    picks = list(itertools.product(*(range(len(t)) for t in tables)))
    for start in range(0, len(picks), step):
        chunk = np.array(picks[start : start + step])
        yield spec.pattern.product_stack([t[chunk[:, k]] for k, t in enumerate(tables)])


def grid_model(model_name):
    return shipped_model() if model_name == "shipped" else favorable_model(np.random.default_rng(0))


class TestGridConstruction:
    """The search checks no chunk of its grid, which is a product of checked
    conditional tables; so every chunk of every grid the tests, the golden outputs and
    the benchmark search is checked here as a single coupling would be: unit mass, the
    bound's factorization and, for compress-forward, the channel's Y1 leg."""

    @pytest.mark.parametrize("theorem_id,sizes,steps,model_name", GRID_CASES, ids=GRID_IDS)
    def test_every_chunk_passes_the_coupling_checks(self, theorem_id, sizes, steps, model_name):
        spec = theorem_spec(theorem_id)
        model = grid_model(model_name)
        axes = regionsearch._axis_sizes(spec, model, sizes)
        scanned = 0
        for probs in regionsearch._grid(spec, model, sizes, steps)[1]:
            assert probs.shape[1:] == tuple(axes[v] for v in spec.coupling_vars)
            check_masses(probs, "grid chunk")
            require_factorization(spec, probs)
            if spec.uses_compressor:
                assert np.all(y1_leg_deviation(spec, model, probs) <= DEFAULT_TOL)
            scanned += len(probs)
        assert scanned == estimate_grid_size(theorem_id, model, sizes, steps)

    @pytest.mark.parametrize("theorem_id,sizes,steps,model_name", GRID_CASES, ids=GRID_IDS)
    def test_chunks_equal_the_factor_by_factor_enumeration(self, theorem_id, sizes, steps, model_name):
        spec = theorem_spec(theorem_id)
        model = grid_model(model_name)
        count, chunks = regionsearch._grid(spec, model, sizes, steps)
        want = list(reference_grid_chunks(spec, model, sizes, steps))
        got = list(chunks)
        assert [p.shape for p in got] == [p.shape for p in want]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert count == sum(len(p) for p in want)

    @pytest.mark.parametrize("theorem_id,sizes", [s for s in BENCH_SHAPES if "Yh" in s[1]])
    def test_the_y1_factor_may_list_x1_first(self, monkeypatch, theorem_id, sizes):
        # The channel's p(y1|x,x1) enters the grid in its factor's own axis order, by
        # name; the favorable model's is not symmetric in x and x1.
        spec, model = theorem_spec(theorem_id), grid_model("favorable")
        want = list(regionsearch._grid(spec, model, sizes, 2)[1])
        factors = tuple((t, g[::-1] if t == ("Y1",) else g) for t, g in spec.pattern.factors)
        monkeypatch.setitem(THEOREMS, theorem_id, replace(spec, pattern=FactorizationPattern(factors)))
        moved = theorem_spec(theorem_id)
        assert moved.pattern != spec.pattern and moved.coupling_vars == spec.coupling_vars
        got = list(regionsearch._grid(moved, model, sizes, 2)[1])
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_first_chunk_of_a_large_grid_is_built_in_bounded_memory(self):
        # T2 with U=1, V1=3, V2=3 at g=2 has 2,359,296 couplings (inside the default
        # budget); the grid is indexed, not enumerated, so its first chunk is small.
        spec = theorem_spec("T2")
        model = favorable_model(np.random.default_rng(0))
        tracemalloc.start()
        try:
            count, chunks = regionsearch._grid(spec, model, {"U": 1, "V1": 3, "V2": 3}, 2)
            first = next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2_359_296 <= regionsearch.DEFAULT_BUDGET
        assert first.shape == (regionsearch.CHUNK_CELLS // 288, 1, 3, 3, 2, 2)
        check_masses(first, "grid chunk")
        assert peak < 8 * 2**20
