import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec import regionsearch
from relaysec.acceptance import favorable_model, random_coupling, random_model
from relaysec.bounds import (
    DEFAULT_TOL,
    THEOREMS,
    AuxiliaryCoupling,
    compose_stack,
    corollary_constraints,
    coupling_stack,
    evaluate_stack,
    theorem_spec,
)
from relaysec.dmc import DMCModel, RateTuple
from relaysec.errors import BudgetExceededError, UsageError, ValidationError
from relaysec.pmf import FactorizationPattern, JointPMF
from relaysec.regionsearch import (
    _VertexSystem,
    _full_points,
    _vertices,
    brute_force_best,
    estimate_grid_size,
    secrecy_region_extremes,
    simplex_grid,
    simplex_grid_count,
)


def coupling_grid(theorem_id, model, aux_sizes, grid_steps):
    """Every coupling of the search grid, in grid order, built from its chunks."""
    spec = theorem_spec(theorem_id)
    for probs in regionsearch._grid_chunks(spec, model, aux_sizes, grid_steps):
        yield from (AuxiliaryCoupling(JointPMF(spec.coupling_vars, p), theorem_id) for p in probs)


def bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def product_channel(py=0.1, py1=0.2, pz=0.3):
    t = np.einsum("xy,xw,xz->xywz", bsc(py), bsc(py1), bsc(pz))
    return DMCModel(np.repeat(t[:, None, :, :, :], 2, axis=1))


def z_copies_y_channel(py=0.15):
    t = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for x1 in range(2):
            for y in range(2):
                for y1 in range(2):
                    t[x, x1, y, y1, y] = bsc(py)[x, y] * bsc(0.2)[x, y1]
    return DMCModel(t)


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


def v1_copies_x_coupling(theorem_id="T3"):
    probs = np.zeros((1, 2, 1, 2, 2))
    for i in range(2):
        for k in range(2):
            probs[0, i, 0, i, k] = 0.25
    return AuxiliaryCoupling(JointPMF(("U", "V1", "V2", "X", "X1"), probs), theorem_id)


class TestSimplexGrid:
    def test_steps_one_is_single_uniform(self):
        assert list(simplex_grid(4, 1)) == [(0.25, 0.25, 0.25, 0.25)]

    def test_steps_two_gives_point_masses(self):
        got = set(simplex_grid(3, 2))
        assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_counts_match_enumeration(self):
        for cells in (2, 3, 4):
            for steps in (1, 2, 3, 5):
                grid = list(simplex_grid(cells, steps))
                assert len(grid) == simplex_grid_count(cells, steps)
                assert len(set(grid)) == len(grid)
                for w in grid:
                    assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_order(self):
        assert list(simplex_grid(3, 3)) == list(simplex_grid(3, 3))


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
        branches = corollary_constraints("T2", model, coupling)
        r1_cap = next(
            lc.bound for lc in branches[0].constraints if lc.coefs == (0.0, 1.0, 0.0)
        )
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
            branches = corollary_constraints("T11", model, coupling)
            box = max(
                (lc.bound for br in branches if br.applicable for lc in br.constraints),
                default=0.0,
            )
            if box <= 0.0:
                continue
            hits += 1
            axis = np.linspace(0.0, box, 50)
            g0, g1 = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([g0.ravel(), g1.ravel()], axis=1)
            best = -np.inf
            for br in branches:
                if not br.applicable:
                    continue
                a = np.array([[lc.coefs[0], lc.coefs[1]] for lc in br.constraints])
                b = np.array([lc.bound for lc in br.constraints])
                feas = np.all(pts @ a.T <= b + 1e-9, axis=1)
                if np.any(feas):
                    best = max(best, float((pts[feas] @ np.array([0.4, 1.0])).max()))
            if best == -np.inf:
                continue
            assert ext.objective_value >= best - 1e-9
            assert ext.objective_value <= best + 1.4 * box / 49 + 1e-9
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
        model = product_channel()
        count = 0
        for coupling in coupling_grid("T12", model, {"U": 1, "V": 2, "Yh": 2}, 2):
            count += 1
            if count > 3:
                break
        assert count > 0


def system_vertices(branches, dims, tol):
    """The search's one vertex pass over several branches' polytopes at once: per
    branch, its feasible vertices in subset order."""
    coefs = [
        np.array([[lc.coefs[i] for i in dims] for lc in br.constraints]).reshape(-1, len(dims))
        for br in branches
    ]
    bounds = np.array([[lc.bound for br in branches for lc in br.constraints]])
    ends = np.cumsum([len(c) for c in coefs])
    system = _VertexSystem(coefs, [range(end - len(c), end) for c, end in zip(coefs, ends)])
    points, kept = _vertices(system, system.rhs(bounds), tol)
    return kept_by_branch(system, points[0], kept[0], dims)


def kept_by_branch(system, points, kept, dims):
    """One coupling's kept vertices (K, d) as rate triples, per branch in subset order."""
    return [
        [tuple(p) for p in _full_points(points[kept & (system.owner == k)], dims).tolist()]
        for k in range(len(system.corollary))
    ]


def branch_vertices(branch, dims, tol):
    """`system_vertices` on one branch."""
    return system_vertices([branch], dims, tol)[0]


def loop_branch_vertices(branch, dims, tol):
    """Reference: solve every d-subset of constraint rows one at a time."""
    d = len(dims)
    rows = [np.array([lc.coefs[i] for i in dims], dtype=np.float64) for lc in branch.constraints]
    rhs = [lc.bound for lc in branch.constraints]
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
    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS, key=lambda t: int(t[1:])))
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
            for branch in corollary_constraints(
                theorem_id, model, coupling, clamp_equivocation=clamp
            ):
                got = branch_vertices(branch, dims, DEFAULT_TOL)
                assert got == loop_branch_vertices(branch, dims, DEFAULT_TOL)
                branches += 1
                nonempty += len(got) > 1
        assert branches >= 24 and nonempty >= 2


def axis_branch(caps):
    """A branch of rows r_dim <= cap, one per (dim, cap): its vertices are the
    grid of caps (with 0 for an axis plane), so they can be placed by hand."""
    rows = [
        SimpleNamespace(coefs=tuple(float(k == dim) for k in range(3)), bound=cap)
        for dim, cap in caps
    ]
    return SimpleNamespace(constraints=rows)


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
    branches = corollary_constraints(theorem_id, model, coupling, clamp_equivocation=clamp)
    dims, best = theorem_spec(theorem_id).rate_dims(), None
    for k, br in enumerate(branches):
        if not (br.applicable and all(lc.bound >= -DEFAULT_TOL for lc in br.constraints)):
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

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS, key=lambda t: int(t[1:])))
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
                branches = corollary_constraints(
                    theorem_id, model, coupling, clamp_equivocation=clamp
                )
                want = [loop_branch_vertices(br, dims, DEFAULT_TOL) for br in branches]
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
    for probs in regionsearch._grid_chunks(spec, model, sizes, steps):
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
    ("T12", {"U": 1, "V": 2, "Yh": 2}, 2, {"rstar": 0.0}),
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
            assert np.array_equal(res.coupling.joint.probs, want_coupling.joint.probs)
            assert res.couplings_scanned == estimate_grid_size(theorem_id, model, sizes, steps)

    def test_a_chunk_with_one_broken_coupling_is_refused(self, monkeypatch):
        # X1 copies V1, which the noise-forward factorization forbids.
        broken = np.zeros((1, 2, 1, 2, 2))
        for i in range(2):
            broken[0, i, 0, i, i] = 0.5
        real = FactorizationPattern.product_stack

        def spoiled(self, var_order, tables):
            probs = real(self, var_order, tables)
            probs[len(probs) // 2] = broken
            return probs

        monkeypatch.setattr(FactorizationPattern, "product_stack", spoiled)
        with pytest.raises(ValidationError, match="violates the T3 factorization"):
            brute_force_best(product_channel(), {"U": 1, "V1": 2, "V2": 1}, 3, "T3", (0, 1, 0))
