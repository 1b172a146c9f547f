import hashlib
import itertools
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from literal_tables import LITERAL, oracle_member
from test_regionsearch import branch_vertices
from relaysec.acceptance import (
    favorable_model,
    naive_cond_mutual_info,
    random_coupling,
    random_model,
    random_rates,
)
from relaysec.bounds import (
    DEFAULT_TOL,
    AuxiliaryCoupling,
    THEOREMS,
    build_cf_coupling,
    compose_full_joint,
    corollary_constraints,
    corollary_member,
    evaluate_membership,
    mi_terms,
    theorem_spec,
)
from relaysec.dmc import DMCModel, RateTuple
from relaysec.errors import UsageError, ValidationError
from relaysec.pmf import JointPMF


def bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def product_channel(py=0.1, py1=0.2, pz=0.3):
    """x drives three independent binary symmetric legs; x1 is ignored."""
    t = np.einsum("xy,xw,xz->xywz", bsc(py), bsc(py1), bsc(pz))
    return DMCModel(np.repeat(t[:, None, :, :, :], 2, axis=1))


def z_copies_y_channel(py=0.15):
    """z is the identical observation to y; no secrecy is possible."""
    t = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for x1 in range(2):
            for y in range(2):
                for y1 in range(2):
                    t[x, x1, y, y1, y] = bsc(py)[x, y] * bsc(0.2)[x, y1]
    return DMCModel(t)


def v1_copies_x_coupling(theorem_id="T3"):
    probs = np.zeros((1, 2, 1, 2, 2))
    for i in range(2):
        for k in range(2):
            probs[0, i, 0, i, k] = 0.25
    return AuxiliaryCoupling(JointPMF(("U", "V1", "V2", "X", "X1"), probs), theorem_id)


def degenerate_coupling(theorem_id):
    """All auxiliaries constant; inputs uniform."""
    spec = theorem_spec(theorem_id)
    if spec.uses_compressor:
        base_vars = tuple(v for v in spec.coupling_vars if v not in ("Y1", "Yh"))
        sizes = tuple(2 if v in ("X", "X1") else 1 for v in base_vars)
        probs = np.full(sizes, 0.25)
        base = JointPMF(base_vars, probs)
        q = np.full((2, 2, 1), 1.0)  # constant quantizer output
        return build_cf_coupling(theorem_id, base, product_channel(), q)
    sizes = tuple(2 if v in ("X", "X1") else 1 for v in spec.coupling_vars)
    return AuxiliaryCoupling(
        JointPMF(spec.coupling_vars, np.full(sizes, 0.25)), theorem_id
    )


def test_import_compiles_nothing():
    # Each theorem compiles to its numeric maps on first use, never at import.
    code = (
        "import relaysec\n"
        "from relaysec import bounds, regionsearch\n"
        "print(sum('compiled' in s.__dict__ for s in bounds.THEOREMS.values()),"
        " regionsearch._theorem_system.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


def catalog_fingerprint():
    """SHA-256 over the catalog's structure: every theorem's identity, coupling
    and factorization, and every branch's condition, R* budget and rows."""
    parts = []
    for theorem_id, spec in THEOREMS.items():
        parts += [theorem_id, spec.config, spec.role, ",".join(spec.coupling_vars),
                  spec.pattern.describe()]
        for br in spec.branches:
            parts += [br.branch_id, br.condition.name if br.condition else "-",
                      br.budget_name if br.rstar_budget else "-"]
            parts += [f"{row.name}|{row.equivocation}|{row.on_slice}" for row in br.inequalities]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def test_catalog_fingerprint():
    # Pinned before config C and the mirror branches were derived by term maps.
    assert catalog_fingerprint() == (
        "2704f7f301d4e5ced442a5f1ab70c44fbbeb58f91a3fe5e0ec3176ea74c06f3c"
    )


class TestCouplingValidation:
    def test_wrong_axes_rejected(self):
        with pytest.raises(ValidationError, match="must carry axes"):
            AuxiliaryCoupling(JointPMF(("U", "X"), np.full((1, 2), 0.5)), "T3")

    def test_factorization_violation_reports_deviation(self):
        # X1 correlated with V1 violates the relay-independence factorization.
        probs = np.zeros((1, 2, 1, 2, 2))
        for i in range(2):
            probs[0, i, 0, i, i] = 0.5
        with pytest.raises(ValidationError, match="max deviation"):
            AuxiliaryCoupling(JointPMF(("U", "V1", "V2", "X", "X1"), probs), "T3")

    def test_unknown_theorem(self):
        with pytest.raises(UsageError, match="unknown theorem"):
            AuxiliaryCoupling(JointPMF(("X",), np.array([1.0, 0.0])), "T99")

    def test_cf_coupling_y1_must_match_channel(self):
        model = product_channel()
        rng = np.random.default_rng(3)
        good = random_coupling(rng, "T12", model)
        # Perturb the Y1 leg: rebuild against a different channel.
        other = product_channel(py1=0.45)
        base_probs = good.joint.probs.sum(axis=(-2, -1))
        base = JointPMF(good.joint.axis_names[:-2], base_probs)
        q = np.full((2, 2, 2), 0.5)
        bad = build_cf_coupling("T12", base, other, q)
        with pytest.raises(ValidationError, match="inconsistent with the channel"):
            compose_full_joint(model, bad)

    def test_alphabet_mismatch_is_usage_error(self):
        model = DMCModel(np.full((3, 2, 2, 2, 2), 1.0 / 8.0))
        with pytest.raises(UsageError, match="alphabet"):
            compose_full_joint(model, v1_copies_x_coupling())


class TestMITerms:
    def test_constant_auxiliary_kills_its_terms(self):
        model = product_channel()
        coupling = degenerate_coupling("T3")  # V1 constant too
        terms = mi_terms(model, coupling)
        for name, value in terms.items():
            if "V1" in name:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_z_copy_symmetry(self):
        # z identical to y and V2 constant: the two confidential-layer legs match.
        model = z_copies_y_channel()
        coupling = v1_copies_x_coupling()
        terms = mi_terms(model, coupling)
        assert terms["I(V1;Y|U,X1)"] == pytest.approx(
            terms["I(V1;Z|U,V2,X1)"], abs=1e-12
        )
        assert terms["I(X1;Y)"] == pytest.approx(terms["I(X1;Z)"], abs=1e-12)

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for theorem_id, independent in itertools.product(THEOREMS, (False, True)):
            model = random_model(rng)
            coupling = random_coupling(rng, theorem_id, model, independent_aux=independent)
            full = compose_full_joint(model, coupling, theorem_id)
            got = mi_terms(model, coupling, theorem_id)
            spec = theorem_spec(theorem_id)
            for term in spec.all_terms():
                want = naive_cond_mutual_info(
                    full.probs, full.axis_names, term.a, term.b, term.c
                )
                assert got[term.name] == pytest.approx(max(want, 0.0), abs=1e-12)

    def test_terms_sorted_by_name(self):
        model = product_channel()
        terms = mi_terms(model, v1_copies_x_coupling())
        names = list(terms)
        assert names == sorted(names)


def branch_states(theorem_id, model, coupling):
    """Each branch's condition record, as `evaluate_membership` reports it at the origin."""
    ev = evaluate_membership(theorem_id, model, coupling, RateTuple.zero())
    return [b.state for b in ev.branches]


class TestBranchCondition:
    def test_equality_qualifies_both_branches(self):
        # x1 ignored: both sides of each comparison are 0.
        states = branch_states("T3", product_channel(), v1_copies_x_coupling())
        assert [b.applicable for b in states] == [True, True]
        for b in states:
            for c in b.conditions:
                assert c.lhs == pytest.approx(0.0, abs=1e-12)
                assert c.rhs == pytest.approx(0.0, abs=1e-12)

    def test_y_copies_x1_only_first_branch(self):
        # y reveals x1 exactly; z ignores it.
        t = np.zeros((2, 2, 2, 2, 2))
        for x in range(2):
            for x1 in range(2):
                for y1 in range(2):
                    for z in range(2):
                        t[x, x1, x1, y1, z] = bsc(0.2)[x, y1] * bsc(0.3)[x, z]
        model = DMCModel(t)
        states = branch_states("T3", model, v1_copies_x_coupling())
        assert states[0].applicable
        assert not states[1].applicable
        assert states[0].conditions[0].lhs == pytest.approx(1.0, abs=1e-9)

    def test_verdicts_match_direct_comparison_on_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            model = random_model(rng)
            coupling = random_coupling(rng, "T11", model)
            states = branch_states("T11", model, coupling)
            full = compose_full_joint(model, coupling)
            lhs1 = naive_cond_mutual_info(full.probs, full.axis_names, ("X1",), ("Y",))
            rhs1 = naive_cond_mutual_info(
                full.probs, full.axis_names, ("X1",), ("Z",), ("U",)
            )
            assert states[0].applicable == (lhs1 >= rhs1 - 1e-9)
            lhs2 = naive_cond_mutual_info(full.probs, full.axis_names, ("X1",), ("Z",))
            rhs2 = naive_cond_mutual_info(full.probs, full.axis_names, ("X1",), ("Y",))
            assert states[1].applicable == (lhs2 >= rhs2 - 1e-9)

    def test_relabeling_leaves_verdicts_stable(self):
        rng = np.random.default_rng(23)
        model = random_model(rng)
        coupling = random_coupling(rng, "T3", model)
        before = branch_states("T3", model, coupling)
        # Swap the two symbols of X everywhere (channel and coupling together).
        flipped_model = DMCModel(model.transition[::-1])
        x_axis = coupling.joint.axis_names.index("X")
        flipped_probs = np.flip(coupling.joint.probs, axis=x_axis)
        flipped = AuxiliaryCoupling(
            JointPMF(coupling.joint.axis_names, flipped_probs), "T3"
        )
        after = branch_states("T3", flipped_model, flipped)
        for b1, b2 in zip(before, after):
            assert b1.applicable == b2.applicable
            for c1, c2 in zip(b1.conditions, b2.conditions):
                assert c1.lhs == pytest.approx(c2.lhs, abs=1e-12)


class TestEvaluateMembership:
    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_degenerate_coupling_accepts_origin(self, theorem_id):
        model = product_channel()
        coupling = degenerate_coupling(theorem_id)
        ev = evaluate_membership(theorem_id, model, coupling, RateTuple.zero())
        assert ev.member
        for branch in ev.branches:
            for rec in branch.inequalities:
                assert rec.bound == pytest.approx(0.0, abs=1e-9)
                assert rec.slack == pytest.approx(0.0, abs=1e-9)

    def test_identical_eavesdropper_refuses_positive_equivocation(self):
        ev = evaluate_membership(
            "T3",
            z_copies_y_channel(),
            v1_copies_x_coupling(),
            RateTuple(r1=0.2, re1=0.2),
        )
        assert not ev.member

    def test_admissibility_enforced_at_construction(self):
        with pytest.raises(ValidationError, match="Re1 <= R1"):
            RateTuple(r1=0.1, re1=0.2)

    def test_config_checks(self):
        model = product_channel()
        with pytest.raises(UsageError, match="r0"):
            evaluate_membership(
                "T7", model, v1_copies_x_coupling("T7"), RateTuple(r0=0.1)
            )

    def test_corollary_point_config_checked(self):
        # The Re = R slice of a one-message bound has no R2 either.
        args = ("T10", product_channel(), degenerate_coupling("T10"))
        with pytest.raises(UsageError, match="r2"):
            corollary_member(*args, (0.0, 0.0, 50.0))
        with pytest.raises(UsageError, match="r2"):
            evaluate_membership(*args, RateTuple(r2=50.0, re2=50.0))
        assert corollary_member(*args, (0.0, 0.0, 0.0))

    def test_no_branch_applicable_reports_none(self):
        # Both receivers see only x XOR x1: unconditionally the relay input is
        # perfectly masked (I(X1;Y) = I(X1;Z) = 0), but conditioned on the
        # confidential layers (V1 = V2 = X) it is fully revealed, so neither
        # less-noisy comparison holds.
        t = np.zeros((2, 2, 2, 2, 2))
        for x in range(2):
            for x1 in range(2):
                t[x, x1, x ^ x1, x, x ^ x1] = 1.0
        model = DMCModel(t)
        probs = np.zeros((1, 2, 2, 2, 2))
        for i in range(2):
            for k in range(2):
                probs[0, i, i, i, k] = 0.25
        coupling = AuxiliaryCoupling(JointPMF(("U", "V1", "V2", "X", "X1"), probs), "T3")
        states = branch_states("T3", model, coupling)
        assert [b.applicable for b in states] == [False, False]
        ev = evaluate_membership("T3", model, coupling, RateTuple.zero())
        assert not ev.member
        assert ev.branch_taken == "none"

    def test_clamp_equivocation_floors_caps(self):
        # Eavesdropper-favored channel (z clean, y noisy): raw equivocation
        # caps go negative.
        favored = product_channel(py=0.3, pz=0.02)
        ev_raw = evaluate_membership(
            "T3", favored, v1_copies_x_coupling(), RateTuple.zero()
        )
        ev_clamped = evaluate_membership(
            "T3",
            favored,
            v1_copies_x_coupling(),
            RateTuple.zero(),
            clamp_equivocation=True,
        )
        raw_bounds = [
            rec.bound
            for br in ev_raw.branches
            for rec in br.inequalities
            if rec.name.startswith("Re")
        ]
        clamped_bounds = [
            rec.bound
            for br in ev_clamped.branches
            for rec in br.inequalities
            if rec.name.startswith("Re")
        ]
        assert any(b < 0 for b in raw_bounds)
        assert all(b >= 0 for b in clamped_bounds)
        assert ev_clamped.member  # origin is always achievable once floored

    def test_rstar_on_noncompress_bound_rejected(self):
        with pytest.raises(UsageError, match="pure-noise"):
            evaluate_membership(
                "T3",
                product_channel(),
                v1_copies_x_coupling(),
                RateTuple.zero(),
                rstar=0.1,
            )

    @pytest.mark.parametrize("rstar", [-1.0, float("nan"), float("inf")])
    def test_invalid_rstar_rejected(self, rstar):
        rng = np.random.default_rng(20)
        model = random_model(rng)
        coupling = random_coupling(rng, "T12", model, aux_sizes={"U": 1})
        args = ("T12", model, coupling, RateTuple.zero())
        assert evaluate_membership(*args, rstar=0.0, clamp_equivocation=True).member
        with pytest.raises(UsageError, match="rstar must be a finite number >= 0"):
            evaluate_membership(*args, rstar=rstar, clamp_equivocation=True)

    @pytest.mark.parametrize("tol", [0.0, -5.0, float("nan"), float("inf")])
    def test_invalid_tol_rejected(self, tol):
        args = ("T3", product_channel(), v1_copies_x_coupling(), RateTuple.zero())
        with pytest.raises(UsageError, match="tol must be a positive finite number"):
            evaluate_membership(*args, tol=tol)

    def test_explicit_rstar_feasibility(self):
        # Relay input drives both receivers hard (so the relay has rate to
        # spend) and the quantizer is nearly useless (cheap to describe).
        t = np.zeros((2, 2, 2, 2, 2))
        for x in range(2):
            for x1 in range(2):
                t[x, x1] = (
                    bsc(0.1)[x1][:, None, None]
                    * bsc(0.2)[x][None, :, None]
                    * bsc(0.2)[x1][None, None, :]
                )
        model = DMCModel(t)
        base = np.zeros((1, 2, 2, 2))
        for i in range(2):
            for k in range(2):
                base[0, i, i, k] = 0.25
        q = np.broadcast_to(bsc(0.45)[None, :, :], (2, 2, 2)).copy()
        coupling = build_cf_coupling(
            "T12", JointPMF(("U", "V", "X", "X1"), base), model, q
        )
        states = branch_states("T12", model, coupling)
        limit = states[0].rstar_max
        assert limit is not None and limit > 0.2
        ok = evaluate_membership(
            "T12", model, coupling, RateTuple.zero(), rstar=limit / 2
        )
        assert ok.branches[0].state.applicable
        assert ok.branches[0].state.rstar_used == pytest.approx(limit / 2)
        too_big = evaluate_membership(
            "T12", model, coupling, RateTuple.zero(), rstar=limit + 0.5
        )
        assert not too_big.branches[0].state.applicable
        # Omitting rstar takes the largest feasible value (union semantics).
        default = evaluate_membership("T12", model, coupling, RateTuple.zero())
        assert default.branches[0].state.rstar_used == pytest.approx(limit)

    def test_pure_evaluation_is_deterministic(self):
        rng = np.random.default_rng(37)
        model = random_model(rng)
        coupling = random_coupling(rng, "T7", model)
        r = random_rates(rng, "B")
        a = evaluate_membership("T7", model, coupling, r)
        b = evaluate_membership("T7", model, coupling, r)
        assert a == b


class TestLiteralOracle:
    """Membership verdicts agree with the flat, separately transcribed tables."""

    @pytest.mark.parametrize("theorem_id", sorted(LITERAL))
    def test_agreement_on_random_draws(self, theorem_id):
        rng = np.random.default_rng(int(theorem_id[1:]))
        spec = theorem_spec(theorem_id)
        draws = 42  # 42 x 12 theorems > 500 total draws
        for _ in range(draws):
            model = random_model(rng) if rng.uniform() < 0.5 else favorable_model(rng)
            coupling = random_coupling(
                rng, theorem_id, model, independent_aux=rng.uniform() < 0.5
            )
            rates = random_rates(rng, spec.config, scale=0.35)
            got = evaluate_membership(theorem_id, model, coupling, rates).member
            want = oracle_member(theorem_id, model, coupling, rates)
            assert got == want, f"{theorem_id} disagrees at {rates.as_tuple()}"


def with_constant_v2(coupling, parent_id):
    """A config-C coupling as its config-A parent's: V read as V1, plus a size-1 V2 axis."""
    names = tuple("V1" if v == "V" else v for v in coupling.joint.axis_names)
    joint = JointPMF(names + ("V2",), coupling.joint.probs[..., None])
    return AuxiliaryCoupling(joint, parent_id)


def near_edge_rates(rng, theorem_id, model, coupling, clamp):
    """A config-C rate point on a random ray, at 0.5-1.5 times the distance at
    which the nearest row of the one-branch bound binds along it."""
    ray = random_rates(rng, "C").as_tuple()
    ev = evaluate_membership(theorem_id, model, coupling, RateTuple.zero(), clamp_equivocation=clamp)
    rows = theorem_spec(theorem_id).branches[0].inequalities
    records = ev.branches[0].inequalities
    edge = min(rec.bound / np.dot(row.rates, ray) for rec, row in zip(records, rows))
    t = max(edge, 0.0) * rng.uniform(0.5, 1.5)
    return RateTuple(*(t * v for v in ray))


class TestReductions:
    """The no-common-message bounds equal their parents at R0 = 0, and the
    one-confidential-message bounds theirs with V2 constant."""

    @pytest.mark.parametrize(
        "reduced_id,parent_id", [("T5", "T1"), ("T6", "T2"), ("T7", "T3"), ("T8", "T4")]
    )
    def test_r0_zero_reduction(self, reduced_id, parent_id):
        rng = np.random.default_rng(int(reduced_id[1:]))
        for _ in range(40):
            model = random_model(rng)
            aux_sizes = {"U": 1} if reduced_id == "T5" else None
            coupling = random_coupling(rng, reduced_id, model, aux_sizes=aux_sizes)
            r = random_rates(rng, "B")
            reduced = evaluate_membership(reduced_id, model, coupling, r)
            parent = evaluate_membership(parent_id, model, coupling, r)
            assert reduced.member == parent.member

    @pytest.mark.parametrize("reduced_id,parent_id", [("T9", "T1"), ("T10", "T2")])
    def test_v2_constant_reduction(self, reduced_id, parent_id):
        # T9 is written out, so this pair checks the catalog against T1
        # independently of the term map that derives T10 from T2.
        rng = np.random.default_rng(int(reduced_id[1:]))
        members = 0
        for k in range(40):
            model = random_model(rng) if k % 2 else favorable_model(rng)
            coupling = random_coupling(rng, reduced_id, model, independent_aux=k % 3 == 0)
            clamp = k % 4 < 2
            r = near_edge_rates(rng, reduced_id, model, coupling, clamp)
            reduced = evaluate_membership(reduced_id, model, coupling, r, clamp_equivocation=clamp)
            embedded = with_constant_v2(coupling, parent_id)
            parent = evaluate_membership(parent_id, model, embedded, r, clamp_equivocation=clamp)
            assert reduced.member == parent.member, (k, r.as_tuple())
            members += reduced.member
        assert 8 <= members <= 32


class TestCorollarySlice:
    """Each perfect-secrecy corollary is its branch's on-slice rows read at Re = R."""

    # Indices into each branch's inequalities that the corollary keeps, in order.
    KEPT = {
        "T1": tuple(range(8)),
        "T2": (0, 4, 5),
        "T3.L1": (0, 1, 4, 5),
        "T3.L2": (0, 2, 4, 5),
        "T4.L3": (0, 1, 4, 5),
        "T4.L4": (0, 2, 4, 5),
        "T5": tuple(range(6)),
        "T6": (3, 4),
        "T7.L5": (0, 3, 4),
        "T7.L6": (1, 3, 4),
        "T8.L7": (0, 3, 4),
        "T8.L8": (1, 3, 4),
        "T9": tuple(range(5)),
        "T10": (0, 2),
        "T11.L9": (0, 1, 2),
        "T11.L10": (0, 2),
        "T12.L11": (0, 1, 2),
        "T12.L12": (0, 2),
    }

    def test_kept_rows_read_on_the_slice(self):
        seen = set()
        for theorem_id, spec in THEOREMS.items():
            for branch in spec.branches:
                key = theorem_id if branch.branch_id == "n/a" else branch.branch_id
                seen.add(key)
                kept = self.KEPT[key]
                assert len(branch.corollary) == len(kept), key
                for row, i in zip(branch.corollary, kept):
                    ineq = branch.inequalities[i]
                    r0, r1, r2, re1, re2 = ineq.rates
                    slice_rates = (r0, r1 + re1, r2 + re2, 0.0, 0.0)
                    label = "+".join(
                        n for c, n in zip(slice_rates, ("R0", "R1", "R2")) if c == 1.0
                    )
                    assert row.rates == slice_rates, key
                    assert row.name == f"{label} <= {ineq.bound.render()}", key
                    assert row.bound == ineq.bound, key
                    assert row.equivocation == ineq.equivocation, key
        assert seen == set(self.KEPT)

    def test_t8_l8_row_order_leaves_vertices_unchanged(self):
        # The corollary once listed these rows as inequalities (3, 1, 4).
        rng = np.random.default_rng(8)
        dims = theorem_spec("T8").rate_dims()
        nonempty = 0
        for k in range(24):
            model = favorable_model(rng) if k % 2 else random_model(rng)
            coupling = random_coupling(rng, "T8", model, independent_aux=k % 3 == 0)
            for clamp in (False, True):
                l8 = corollary_constraints("T8", model, coupling, clamp_equivocation=clamp)[1]
                rows = l8.constraints
                old = replace(l8, constraints=(rows[1], rows[0], rows[2]))
                got = sorted(branch_vertices(l8, dims, DEFAULT_TOL))
                assert got == sorted(branch_vertices(old, dims, DEFAULT_TOL))
                nonempty += len(got) > 1
        assert nonempty >= 4
