import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from channels import bsc, product_channel, v1_copies_x_coupling, z_copies_y_channel
from literal_tables import LITERAL, literal_branches, oracle_member
from test_regionsearch import THEOREM_IDS, branch_vertices, slice_branches
from relaysec import bounds
from relaysec.acceptance import (
    favorable_model,
    naive_cond_mutual_info,
    random_coupling,
    random_model,
    random_rates,
)
from relaysec.bounds import (
    DEFAULT_TOL,
    RATE_COMPONENTS,
    AuxiliaryCoupling,
    THEOREMS,
    build_cf_coupling,
    compose_full_joint,
    corollary_member,
    coupling_stack,
    evaluate_membership,
    evaluate_stack,
    mi_terms,
    stack_membership,
    theorem_spec,
)
from relaysec.dmc import CHANNEL_VARS, SIZE_KEYS, DMCModel, RateTuple
from relaysec.errors import UsageError, ValidationError
from relaysec.pmf import ENTROPY_RESIDUE, FactorizationPattern, JointPMF

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


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


def test_import_compiles_nothing(src_env):
    # Each theorem compiles to its numeric maps on first use, never at import.
    code = (
        "import relaysec\n"
        "from relaysec import bounds, regionsearch\n"
        "print(sum('compiled' in s.__dict__ for s in bounds.THEOREMS.values()),"
        " regionsearch._theorem_system.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=src_env)
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
    # Pinned before config C, the mirror branches and receiver 2's rows of T1, T5 and
    # T9 were derived by term maps; each derived row renders as the row once written.
    assert catalog_fingerprint() == (
        "2704f7f301d4e5ced442a5f1ab70c44fbbeb58f91a3fe5e0ec3176ea74c06f3c"
    )


class TestCouplingValidation:
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_a_coupling_takes_its_theorem_axis_order(self, theorem_id):
        # The search grid and compose_stack read a coupling's axes in coupling_vars
        # order, so a coupling given in any other order is laid out in that one.
        rng = np.random.default_rng(int(theorem_id[1:]))
        model = favorable_model(rng)
        coupling = random_coupling(rng, theorem_id, model)
        joint = coupling.joint.reordered(coupling.joint.axis_names[::-1])
        again = AuxiliaryCoupling(joint, theorem_id)
        assert again.joint.axis_names == THEOREMS[theorem_id].coupling_vars
        assert again.joint.probs.tobytes() == coupling.joint.probs.tobytes()
        assert mi_terms(model, again) == mi_terms(model, coupling)

    @pytest.mark.parametrize("theorem_id", ["T3", "T4", "T12"])
    def test_a_builder_may_list_the_x_factor_first(self, monkeypatch, theorem_id):
        # A coupling's axes are read off its factorization, and every product with the
        # channel finds X and X1 by name: listing X's factor first moves no bit.
        shipped = THEOREMS[theorem_id]
        rng = np.random.default_rng(int(theorem_id[1:]))
        model = favorable_model(rng)
        coupling = random_coupling(rng, theorem_id, model, independent_aux=True)
        rates = random_rates(rng, shipped.config, scale=0.3)
        if shipped.uses_compressor:
            kept = [v for v in shipped.coupling_vars if v not in ("Y1", "Yh")]
            legs = tuple(shipped.coupling_vars.index(v) for v in ("Y1", "Yh"))
            base = JointPMF(kept, coupling.joint.probs.sum(axis=legs))
            q = rng.dirichlet(np.ones(2), size=4).reshape(2, 2, 2)
            coupling = build_cf_coupling(theorem_id, base, model, q)

        def results(coupling):
            terms = mi_terms(model, coupling)
            full = compose_full_joint(model, coupling)
            ev = evaluate_membership(theorem_id, model, coupling, rates)
            bounds = [r.bound for b in ev.branches for r in b.inequalities]
            return (list(terms), np.array(list(terms.values())).tobytes(), full.axis_names,
                    full.probs.tobytes(), ev.member, np.array(bounds).tobytes())

        want = results(coupling)
        factors = shipped.pattern.factors
        k = next(k for k, (targets, _) in enumerate(factors) if "X" in targets)
        pattern = FactorizationPattern((factors[k], *factors[:k], *factors[k + 1 :]))
        monkeypatch.setitem(THEOREMS, theorem_id, replace(shipped, pattern=pattern))
        moved = theorem_spec(theorem_id)
        assert moved.coupling_vars[0] == "X" and moved.full_vars == shipped.full_vars
        again = AuxiliaryCoupling(coupling.joint, theorem_id)
        assert again.joint.axis_names == moved.coupling_vars
        assert results(again) == want
        if shipped.uses_compressor:
            built = build_cf_coupling(theorem_id, base, model, q).joint
            assert built.axis_names == moved.coupling_vars
            assert built.reordered(shipped.coupling_vars).probs.tobytes() == coupling.joint.probs.tobytes()
            bad = build_cf_coupling(theorem_id, base, favorable_model(rng), q)
            with pytest.raises(ValidationError, match="inconsistent with the channel"):
                compose_full_joint(model, bad)

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

    def test_a_coupling_file_with_an_unknown_theorem_lists_the_known_ids(self):
        joint = JointPMF(("X",), np.array([1.0, 0.0])).to_json_dict()
        message = f"coupling JSON: unknown theorem id 'T99'; known: {', '.join(THEOREMS)}$"
        with pytest.raises(ValidationError, match=message):
            AuxiliaryCoupling.from_json(json.dumps({**joint, "theorem": "T99"}))

    @pytest.mark.parametrize("leg", ["other-channel", "off-by-5e-10"])
    def test_cf_coupling_y1_must_match_channel(self, leg):
        q = np.full((2, 2, 2), 0.5)
        if leg == "other-channel":
            # Perturb the Y1 leg: rebuild against a different channel.
            model = product_channel()
            good = random_coupling(np.random.default_rng(3), "T12", model)
            base_probs = good.joint.probs.sum(axis=(-2, -1))
            base = JointPMF(good.joint.axis_names[:-2], base_probs)
            bad = build_cf_coupling("T12", base, product_channel(py1=0.45), q)
        else:
            # Off by 5e-10 in one cell, above FACTORIZATION_TOL and below DEFAULT_TOL:
            # row (0, 0) of p(y1|x,x1) moved by +-4e-9, times the base's 1/8 and
            # the uniform quantizer row q[0, 0].
            model = favorable_model(np.random.default_rng(3))
            y1 = model.y1_conditional.copy()
            y1[0, 0] += (4e-9, -4e-9)
            probs = np.full((1, 2, 2, 2, 1, 1), 1 / 8) * y1[..., None] * q[0, 0]
            bad = AuxiliaryCoupling(JointPMF(("U", "V", "X", "X1", "Y1", "Yh"), probs), "T12")
        with pytest.raises(ValidationError, match="inconsistent with the channel"):
            compose_full_joint(model, bad)

    @pytest.mark.parametrize("theorem_id, shape, message", [
        ("T3", (3, 2, 2, 2, 2), r"\(X=2, X1=2\) does not match the channel \(X=3, X1=2\)"),
        ("T12", (2, 2, 2, 3, 2),
         r"\(X=2, X1=2, Y1=2\) does not match the channel \(X=2, X1=2, Y1=3\)"),
    ], ids=["X", "Y1"])
    def test_alphabet_mismatch_is_invalid_input(self, theorem_id, shape, message):
        model = DMCModel(np.full(shape, 1.0 / np.prod(shape[2:])))
        coupling = degenerate_coupling(theorem_id)
        with pytest.raises(ValidationError, match="coupling alphabet " + message):
            compose_full_joint(model, coupling)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 1)])
    def test_compressor_shape_is_checked(self, shape):
        base = JointPMF(("U", "V", "X", "X1"), np.full((1, 2, 2, 2), 1 / 8))
        with pytest.raises(ValidationError, match=r"compressor must be indexed \[x1,y1,yh\]"):
            build_cf_coupling("T12", base, product_channel(), np.full(shape, 0.5))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # Off by +-2e-10, these two rows cancel in the coupling's total mass.
            ({(0, 0): [0.5 + 2e-10, 0.5], (1, 0): [0.5 - 2e-10, 0.5]},
             r"total mass 1\.0000000002 differs from 1 by more than 1e-12 in table 0"),
            ({(1, 1): [1.1, -0.1]}, r"negative mass -0\.1 at entry \(1,\) in table 3"),
            ({(0, 1): [np.inf, 0.5]}, r"non-finite mass inf at entry \(0,\) in table 1"),
        ],
    )
    def test_a_bad_compressor_row_is_named(self, rows, message):
        model = favorable_model(np.random.default_rng(3))
        base = JointPMF(("U", "V", "X", "X1"), np.full((1, 2, 2, 2), 1 / 8))
        q = np.full((2, 2, 2), 0.5)
        for row, values in rows.items():
            q[row] = values
        with pytest.raises(ValidationError, match=r"compressor rows p\(yh\|y1,x1\) [^:]*: " + message):
            build_cf_coupling("T12", base, model, q)


class TestModelJSON:
    @pytest.mark.parametrize("key, value", [("x_size", 2.7), ("x1_size", 2.0),
                                            ("z_size", "2"), ("y1_size", True)])
    def test_sizes_must_be_integers(self, key, value):
        payload = json.loads(product_channel().to_json())
        payload[key] = value
        with pytest.raises(ValidationError, match=f"{key} must be an integer"):
            DMCModel.from_json_dict(payload)

    def test_sizes_are_a_read_only_map_keyed_by_channel_variable(self):
        model = DMCModel(np.full((3, 2, 2, 4, 2), 1 / 16))
        assert dict(model.sizes) == {"X": 3, "X1": 2, "Y": 2, "Y1": 4, "Z": 2}
        assert tuple(model.sizes) == CHANNEL_VARS == theorem_spec("T1").full_vars[-5:]
        with pytest.raises(TypeError):
            model.sizes["X"] = 2

    def test_the_reader_needs_every_size_key_the_writer_writes(self):
        payload = json.loads(product_channel().to_json())
        keys = [k for k in payload if k != "transition"]
        assert keys == list(SIZE_KEYS) == ["x_size", "x1_size", "y_size", "y1_size", "z_size"]
        for key in keys:
            spoiled = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(ValidationError, match=rf"malformed payload \('{key}'\)"):
                DMCModel.from_json_dict(spoiled)

    @pytest.mark.parametrize("name, load", [("dmc_model.json", DMCModel.from_json),
                                            ("dmc_coupling.json", AuxiliaryCoupling.from_json)])
    def test_a_shipped_file_is_written_back_to_its_own_bytes(self, name, load):
        with open(os.path.join(SCENARIOS, name), "rb") as fh:
            data = fh.read()
        assert load(data.decode("utf-8")).to_json().encode("utf-8") == data

    @pytest.mark.parametrize(
        "x, x1, value, message",
        [
            (1, 0, np.nan, r"non-finite mass nan at entry \(0, 1, 0\) in table 2"),
            (1, 1, -0.1, r"negative mass -0\.1 at entry \(0, 1, 0\) in table 3"),
            (0, 1, 0.5, r"total mass 1\.37\d* differs from 1 by more than 1e-12 in table 1"),
        ],
    )
    def test_a_bad_slice_is_named(self, x, x1, value, message):
        t = np.array(product_channel().transition)
        t[x, x1, 0, 1, 0] = value
        with pytest.raises(ValidationError, match=r"DMCModel slices [^:]*: " + message):
            DMCModel(t)

    @pytest.mark.parametrize("shape", [(0, 2, 2, 2, 2), (2, 2, 2, 0, 2)])
    def test_an_empty_alphabet_is_refused(self, shape):
        # An empty input alphabet would leave a search grid of zero cells per coupling.
        with pytest.raises(ValidationError, match="DMCModel slices [^:]*: empty mass table"):
            DMCModel(np.zeros(shape))

    @pytest.mark.parametrize(
        "load", [DMCModel.from_json, JointPMF.from_json, AuxiliaryCoupling.from_json]
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{\n  "x_size": 2\n  "y_size": 2\n}', r"JSON parse failure at line 3, column 3"),
            ("", r"JSON parse failure at line 1, column 1"),
            ("[" * 100_000, "JSON parse failure: maximum recursion depth"),
            ('{"x_size": ' + "1" * 5000 + "}", "JSON parse failure: Exceeds the limit"),
        ],
        ids=["syntax", "empty", "deep", "long-int"],
    )
    def test_parse_failures_are_refused(self, load, text, message):
        with pytest.raises(ValidationError, match=message):
            load(text)

    def test_the_relay_leg_is_summed_once_and_read_only(self):
        model = random_model(np.random.default_rng(4))
        y1 = model.y1_conditional
        assert y1 is model.y1_conditional
        assert np.array_equal(y1, model.transition.sum(axis=(2, 4)))
        with pytest.raises(ValueError, match="read-only"):
            y1[0, 0, 0] = 0.5


@pytest.mark.parametrize("theorem_id", ["T4", "T8", "T12"])
@pytest.mark.parametrize("channel", ["random", "noiseless-relay-link"])
def test_cf_joint_is_the_product_of_its_ingredients(theorem_id, channel):
    # The channel's Y1 leg is divided back out of p(y,y1,z|x,x1), which moves
    # only the last bits; a noiseless relay link leaves y1 cells that cannot occur.
    rng = np.random.default_rng(11)
    model = random_model(rng) if channel == "random" else product_channel(py1=0.0)
    spec = theorem_spec(theorem_id)
    # The base's variables by name, the auxiliaries then X, X1 as `full_vars` lists them.
    base_vars = tuple(v for v in spec.full_vars if v in spec.coupling_vars and v not in ("Y1", "Yh"))
    base = np.ones(())
    for _ in base_vars:  # independent variables meet every factorization
        base = np.multiply.outer(base, rng.dirichlet(np.ones(2)))
    q = rng.dirichlet(np.ones(3), size=4).reshape(2, 2, 3)
    coupling = build_cf_coupling(theorem_id, JointPMF(base_vars, base), model, q)
    want = np.einsum("...ab,abcde,bdf->...abcdef", base, model.transition, q)
    np.testing.assert_allclose(compose_full_joint(model, coupling).probs, want,
                               rtol=8 * np.finfo(np.float64).eps, atol=0.0)


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


class TestBoundTable:
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    @pytest.mark.parametrize("with_rstar", [True, False], ids=["rows", "no-rstar"])
    def test_a_stack_of_any_size_sums_each_lin_in_written_order(self, theorem_id, with_rstar):
        # Full-precision columns, unlike a coupling's MI values (differences of entropies),
        # round in most sums of three: a BLAS that summed a Lin in another order at some
        # stack size (gemv for one row, gemm tails for 23) would show here.
        c, rng = theorem_spec(theorem_id).compiled, np.random.default_rng(int(theorem_id[1:]))
        column = {t: i for i, t in enumerate(c.terms)}
        bounds = [ineq.bound for br in theorem_spec(theorem_id).branches for ineq in br.inequalities]
        mi = rng.uniform(0.0, 1.0, (256, len(c.terms))) ** 3
        residue = rng.uniform(0.0, 1.0, mi.shape) ** 3 * 1e-16
        rstar = rng.uniform(0.0, 1.0, (256, len(bounds))) ** 3 if with_rstar else None

        def written(lin, k, columns, signed):  # the terms left to right, then the R* share
            total = np.zeros(len(columns))
            for coef, term in lin.terms:
                total = total + (coef if signed else abs(coef)) * columns[:, column[term]]
            return total + lin.rstar * rstar[:, k] if signed and with_rstar else total

        def reference(columns, signed, pick):
            return np.stack([
                pick([written(a, k, columns, signed) for a in b.alternatives], axis=0)
                + written(b.tail, k, columns, signed)
                for k, b in enumerate(bounds)
            ], axis=1)

        value = reference(mi, True, np.min)
        want = np.where(np.abs(value) <= reference(residue, False, np.max), 0.0, value)
        for n in (1, 16, 23, 256):
            got = np.concatenate([
                c.rows(mi[i : i + n], residue[i : i + n], None if rstar is None else rstar[i : i + n])
                for i in range(0, 256, n)
            ])
            assert np.array_equal(got, want), n


class TestStackMembership:
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_a_stack_of_any_size_sums_each_row_as_sum_does(self, theorem_id):
        # Full-precision points, zeros of both signs among them, against each row's
        # Python sum() from 0 in written order, bit for bit, and the verdicts.
        spec, rng = theorem_spec(theorem_id), np.random.default_rng(int(theorem_id[1:]))
        rows = [ineq for br in spec.branches for ineq in br.inequalities]
        points = rng.uniform(0.0, 1.0, (256, 5)) ** 3
        points[rng.uniform(size=points.shape) < 0.3] = 0.0
        points[rng.uniform(size=points.shape) < 0.3] = -0.0
        expression = np.array([[sum(c * p for c, p in zip(ineq.rates, pt)) for ineq in rows]
                               for pt in points.tolist()])
        bounds = expression + rng.uniform(-0.05, 0.2, expression.shape)
        satisfied = bounds - expression >= -DEFAULT_TOL
        applicable = rng.uniform(size=(256, len(spec.branches))) < 0.8
        for corollary in (False, True):
            tested = [br.corollary if corollary else range(br.rows.start, br.rows.stop)
                      for br in spec.compiled.branches]
            verdict = np.array([[a and all(ok[r] for r in t) for a, t in zip(app, tested)]
                                for app, ok in zip(applicable.tolist(), satisfied.tolist())])
            assert verdict.any() and not verdict.all()
            for n in (1, 16, 23, 256):
                got = [
                    stack_membership(spec, SimpleNamespace(bounds=bounds[i : i + n],
                                                           applicable=applicable[i : i + n]),
                                     points[i : i + n], corollary=corollary)
                    for i in range(0, 256, n)
                ]
                for k, want in enumerate((expression, satisfied, verdict)):
                    assert np.concatenate([g[k] for g in got]).tobytes() == want.tobytes(), (n, k)


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

    @pytest.mark.parametrize("point", [(0.0, -3.0, -1.0), (float("nan"), 0.0, 0.0),
                                       (0.0, 0.0, float("inf"))], ids=["negative", "nan", "inf"])
    def test_corollary_point_must_be_a_rate(self, point):
        # The slice point is a RateTuple, refused as evaluate_membership's rates are.
        rng = np.random.default_rng(0)
        model = favorable_model(rng)
        args = ("T2", model, random_coupling(rng, "T2", model))
        with pytest.raises(ValidationError, match="must be a finite nonnegative rate"):
            corollary_member(*args, point)
        with pytest.raises(ValidationError, match="must be a finite nonnegative rate"):
            evaluate_membership(*args, RateTuple(*point, re1=point[1], re2=point[2]))

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


def row_terms(spec):
    """At least as many MI terms as any row, condition side or R* budget of `spec`
    sums: a min's widest alternative plus its tail, and in a branch with an R*
    budget the budget's terms and the compress cost."""
    def width(bound):
        return max(len(lin.terms) for lin in bound.alternatives) + len(bound.tail.terms)

    return max(
        width(ineq.bound) + (width(br.rstar_budget) + 1 if br.rstar_budget else 0)
        for br in spec.branches for ineq in br.inequalities
    )


def literal_atol(cells, terms):
    """How far the engine's and the naive oracle's value of a sum of `terms` MI terms
    of a joint of `cells` cells may lie apart.  With u the unit roundoff, g(n) =
    nu / (1 - nu) (Higham, lemma 3.1) and H = log2(cells), which bounds every
    entropy of the joint:
    - the engine reads each term H(AC) + H(BC) - H(ABC) - H(C) to within its
      rounding scale, ENTROPY_RESIDUE times the four entropies' sum, so within
      4 H ENTROPY_RESIDUE;
    - the naive oracle sums at most `cells` terms p log2(p p(c) / (p(a,c) p(b,c))).
      Each marginal is at least p, so a term is at most 4 p |log2 p| in size and
      their sizes add up to at most 4 H; recursive summation errs by at most
      g(cells) 4 H.  Each of the four marginals in a log is a sum of at most
      `cells` masses, off by a relative g(cells), which moves the log by at most
      g(cells) / ln 2 < 1.5 g(cells) each; weighted by masses summing to 1 that
      is at most 6 g(cells).
    A min errs no more than its worst alternative, so a value errs by at most
    `terms` times the bound of one term."""
    u = 2.0**-53
    gamma = cells * u / (1.0 - cells * u)
    h = math.log2(cells)
    return terms * (4 * h * ENTROPY_RESIDUE + gamma * (4 * h + 6))


class TestLiteralOracle:
    """Every row's bound, both sides of each branch condition, each R* budget and
    the membership verdict agree with the flat, separately transcribed tables."""

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
            got = evaluate_membership(theorem_id, model, coupling, rates)
            literal = literal_branches(theorem_id, model, coupling)
            cells = compose_full_joint(model, coupling).probs.size
            close = functools.partial(pytest.approx, abs=literal_atol(cells, row_terms(spec)), rel=0)
            for branch, ours, (sides, top, rows) in zip(spec.branches, got.branches, literal,
                                                         strict=True):
                assert [ineq.rates for ineq in branch.inequalities] == [c for c, _ in rows]
                assert [rec.bound for rec in ours.inequalities] == close([b for _, b in rows])
                records = ours.state.conditions  # the condition's, then the R* budget's
                assert len(records) == (sides is not None) + (top is not None)
                if sides is not None:
                    assert (records[0].lhs, records[0].rhs) == close(sides)
                if top is not None:
                    assert ours.state.rstar_max == close(top)
            want = oracle_member(literal, rates)
            assert got.member == want, f"{theorem_id} disagrees at {rates.as_tuple()}"


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
        # T9 is written out but for its mirrored R0 row, so this pair checks the
        # catalog against T1 independently of the term map that derives T10 from T2.
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


# The receivers swapped with everything that is theirs, written out here rather than read
# from `bounds._MIRROR`: the variable names, and the order of (R0, R1, R2, Re1, Re2).
RECEIVER_SWAP = {"Y": "Z", "Z": "Y", "U1": "U2", "U2": "U1", "V1": "V2", "V2": "V1"}
RATE_SWAP = (0, 2, 1, 4, 3)
TWO_MESSAGE_IDS = [t for t in THEOREM_IDS if theorem_spec(t).config in "AB"]


def branch_forms(spec, swap=False):
    """Each branch of `spec` as (condition, R* budget, rows) up to what its values do not
    depend on: a term's two sides unordered and C a set, a Lin its terms' multiset, a
    min its alternatives' set.  With `swap`, each read with the receivers swapped."""
    rename, perm = (RECEIVER_SWAP, RATE_SWAP) if swap else ({}, range(5))

    def names(vs):
        return frozenset(rename.get(v, v) for v in vs)

    def lin(lin):
        terms = Counter((c, frozenset((names(t.a), names(t.b))), names(t.c)) for c, t in lin.terms)
        return frozenset(terms.items()), lin.rstar

    def bound(b):
        return b and (frozenset(map(lin, b.alternatives)), lin(b.tail))

    return [
        (br.condition and (lin(br.condition.lhs), lin(br.condition.rhs)), bound(br.rstar_budget),
         [(tuple(r.rates[i] for i in perm), bound(r.bound), r.equivocation, r.on_slice)
          for r in br.inequalities])
        for br in spec.branches
    ]


def branch_keys(forms):
    """Each branch form with its rows as a multiset, so that branches compare unordered."""
    return [(cond, budget, frozenset(Counter(rows).items())) for cond, budget, rows in forms]


def mirror_partners(spec):
    """Where each row (in compiled order) and each branch of `spec` lands under the
    receiver swap: the index of the row, and of the branch, that its image is."""
    plain, image = branch_forms(spec), branch_forms(spec, swap=True)
    keys, image_keys = branch_keys(plain), branch_keys(image)
    branches = [keys.index(key) for key in image_keys]
    rows = [spec.compiled.branches[j].rows.start + plain[j][2].index(row)
            for j, (*_, image_rows) in zip(branches, image) for row in image_rows]
    return rows, branches


def rounding_scales(spec, full):
    """How far each row's bound (N, rows) and each branch's largest R* (N, branches) may
    lie from its exact value on stacked full joints.  `pmf.information` reads each MI term
    within its rounding scale, ENTROPY_RESIDUE times the sum of its four entropies.  A
    bound is a min of signed term sums plus a tail; it is read within the |coef|-weighted
    sum of its terms' scales, summed here over every alternative, which bounds the
    `_BoundTable` scale at which a bound reads 0.  A row with an R* share adds its
    branch's budget and compress cost.  Two reads of one exact value then lie within the
    sum of their two scales."""
    residue = spec.compiled.mi(full)[1]
    column = {t: k for k, t in enumerate(spec.compiled.terms)}

    def scale(lins):
        return sum((abs(c) * residue[:, column[t]] for lin in lins for c, t in lin.terms),
                   np.zeros(len(full)))

    def lins(b):
        return (*b.alternatives, b.tail) if b else ()

    rows, budgets = [], []
    for br in spec.branches:
        cost = (bounds._COMPRESS_COST,) if br.rstar_budget else ()
        budgets.append(scale(lins(br.rstar_budget) + cost))
        rows += [scale(lins(r.bound)) + budgets[-1] * any(lin.rstar for lin in lins(r.bound))
                 for r in br.inequalities]
    return np.stack(rows, axis=1), np.stack(budgets, axis=1)


def receiver_swapped(joint):
    return JointPMF(tuple(RECEIVER_SWAP.get(v, v) for v in joint.axis_names), joint.probs)


def mirror_pair(rng, theorem_id, k):
    """A (model, coupling) of `theorem_id` and its image with the receivers swapped: the
    channel's Y and Z axes, the coupling's U1/U2 and V1/V2.  A CF coupling is built on
    each channel by `build_cf_coupling`, from its NF twin's coupling and one quantizer,
    so Y1 and Yh stay as they are."""
    model = favorable_model(rng) if k % 2 else random_model(rng)
    image = DMCModel(np.swapaxes(model.transition, 2, 4))
    independent = k % 3 == 0
    if not theorem_spec(theorem_id).uses_compressor:
        coupling = random_coupling(rng, theorem_id, model, independent_aux=independent)
        return (model, coupling), (image, AuxiliaryCoupling(receiver_swapped(coupling.joint),
                                                            theorem_id))
    twin = {"T4": "T3", "T8": "T7"}[theorem_id]
    base = random_coupling(rng, twin, model, independent_aux=independent).joint
    q = rng.dirichlet(np.ones(2), size=4).reshape(2, 2, 2)
    return ((model, build_cf_coupling(theorem_id, base, model, q)),
            (image, build_cf_coupling(theorem_id, receiver_swapped(base), image, q)))


def evaluated(spec, model, coupling):
    full = coupling_stack(spec, model, coupling)
    return evaluate_stack(spec, full), *rounding_scales(spec, full)


class TestReceiverSymmetry:
    """Configurations A and B are symmetric in the two receivers, as the BCC region is:
    swapping Y/Z, U1/U2, V1/V2, R1/R2 and Re1/Re2 maps each bound onto itself."""

    def test_the_catalog_mirror_is_the_receiver_swap(self):
        rates = {name: RATE_COMPONENTS[i] for name, i in zip(RATE_COMPONENTS, RATE_SWAP)}
        swap = {**RECEIVER_SWAP, **{k: v for k, v in rates.items() if k != v}}
        assert bounds._MIRROR.rename == swap

    @pytest.mark.parametrize("theorem_id", TWO_MESSAGE_IDS)
    def test_each_bound_is_its_own_image_row_for_row(self, theorem_id):
        # T1 and T5 are symmetric by construction; T2 and T6, written out, flip the order
        # of a min's alternatives; in T3, T4, T7 and T8 the image of one branch is the other.
        spec = theorem_spec(theorem_id)
        plain, image = (branch_keys(branch_forms(spec, swap)) for swap in (False, True))
        assert Counter(image) == Counter(plain)

    @pytest.mark.parametrize("theorem_id", TWO_MESSAGE_IDS)
    def test_the_mirrored_channel_and_coupling_give_each_row_its_partners_bound(self, theorem_id):
        spec, rng = theorem_spec(theorem_id), np.random.default_rng(100 + int(theorem_id[1:]))
        rows, branches = mirror_partners(spec)
        traded = 0
        for k in range(40):
            (ev, row_tol, top_tol), (img, img_row_tol, img_top_tol) = (
                evaluated(spec, *pair) for pair in mirror_pair(rng, theorem_id, k)
            )
            gap = np.abs(ev.bounds - img.bounds[:, rows])
            assert np.all(gap <= row_tol + img_row_tol[:, rows]), (k, gap.max())
            assert np.array_equal(ev.applicable, img.applicable[:, branches]), k
            assert np.isclose(ev.rstar_max, img.rstar_max[:, branches], rtol=0.0,
                              atol=top_tol + img_top_tol[:, branches], equal_nan=True).all(), k
            traded += len(set(ev.applicable[0].tolist())) > 1
        assert traded or not spec.branched  # some draws qualify one branch only


AUXILIARIES = ("U", "U1", "U2", "V", "V1", "V2", "Yh")
RELABELED = [(t, v) for t in THEOREM_IDS for v in AUXILIARIES if v in theorem_spec(t).coupling_vars]


@pytest.mark.parametrize("theorem_id,aux", RELABELED)
def test_relabeling_an_auxiliarys_values_leaves_every_term_and_bound(theorem_id, aux):
    # Permuting the three values of one auxiliary (the quantizer's output Yh on a CF
    # coupling) is a bijection of the joint that no MI term sees.
    spec = theorem_spec(theorem_id)
    rng = np.random.default_rng(10 * int(theorem_id[1:]) + AUXILIARIES.index(aux))
    names = [t.name for t in spec.compiled.terms]
    for k in range(6):
        model = favorable_model(rng) if k % 2 else random_model(rng)
        coupling = random_coupling(rng, theorem_id, model, {aux: 3}, independent_aux=k % 3 == 0)
        axis = coupling.joint.axis_names.index(aux)
        probs = np.take(coupling.joint.probs, [2, 0, 1], axis=axis)
        relabeled = AuxiliaryCoupling(JointPMF(coupling.joint.axis_names, probs), theorem_id)
        (ev, row_tol, top_tol), (img, img_row_tol, img_top_tol) = (
            evaluated(spec, model, c) for c in (coupling, relabeled)
        )
        term_tol = sum(spec.compiled.mi(coupling_stack(spec, model, c))[1][0]
                       for c in (coupling, relabeled))
        terms, img_terms = (mi_terms(model, c) for c in (coupling, relabeled))
        assert all(abs(terms[n] - img_terms[n]) <= tol for n, tol in zip(names, term_tol)), k
        assert np.all(np.abs(ev.bounds - img.bounds) <= row_tol + img_row_tol), k
        assert np.array_equal(ev.applicable, img.applicable), k
        assert np.isclose(ev.rstar_max, img.rstar_max, rtol=0.0, atol=top_tol + img_top_tol,
                          equal_nan=True).all(), k


class TestCorollarySlice:
    """Each perfect-secrecy corollary is its branch's on-slice rows, whose compiled
    coefficients `slice_rates` read Re1 as R1 and Re2 as R2."""

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
            c = spec.compiled
            for branch in c.branches:
                key = theorem_id if branch.spec.branch_id == "n/a" else branch.spec.branch_id
                seen.add(key)
                first = branch.rows.start
                assert branch.corollary == tuple(first + i for i in self.KEPT[key]), key
                for i, ineq in enumerate(branch.spec.inequalities):
                    r0, r1, r2, re1, re2 = ineq.rates
                    assert c.slice_rates[first + i].tolist() == [r0, r1 + re1, r2 + re2], key
                    assert c.equivocation[first + i] == ineq.equivocation, key
            assert c.slice_rates.shape == (len(c.rates), 3)
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
                _, l8 = slice_branches("T8", model, coupling, clamp)[1]
                old = tuple(column[[1, 0, 2]] for column in l8)
                got = sorted(branch_vertices(l8, dims, DEFAULT_TOL))
                assert got == sorted(branch_vertices(old, dims, DEFAULT_TOL))
                nonempty += len(got) > 1
        assert nonempty >= 4
