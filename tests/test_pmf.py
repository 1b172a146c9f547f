import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec import pmf
from relaysec.bounds import THEOREMS
from relaysec.errors import UsageError, ValidationError
from relaysec.pmf import (
    FACTORIZATION_TOL,
    FactorizationPattern,
    JointPMF,
    SubsetEntropies,
    check_masses,
    cond_mutual_info,
    factorization_deviation,
    information,
)

# Frozen from high-precision evaluation of -p log2 p - (1-p) log2 (1-p).
BINARY_ENTROPY_011 = 0.4999159581645284
BSC_011_MI = 0.5000840418354716


def uniform_joint(*sizes, names=None):
    names = names or tuple(f"A{i}" for i in range(len(sizes)))
    return JointPMF(names, np.full(sizes, 1.0 / np.prod(sizes)))


def entropy(probs):
    """H(X) in bits of a one-variable mass table, by the production formula."""
    j = JointPMF(("X",), np.asarray(probs))
    return float(SubsetEntropies(j.axis_names, [j.axis_names])(j.probs[None])[0, 0])


def deviation(j, pattern):
    return float(factorization_deviation(j.probs[None], j.axis_names, pattern)[0])


def reference_entropies(probs, axes, subsets):
    """(N, subsets + 1) entropies of stacked joints, each subset summed from the
    joint on its own, plus the empty subset's 0."""
    h = []
    for s in subsets:
        drop = tuple(1 + k for k, v in enumerate(axes) if v not in s)
        marginal = probs.sum(axis=drop).reshape(len(probs), -1)
        h.append(-np.sum(marginal * np.log2(np.where(marginal > 0.0, marginal, 1.0)), axis=1))
    return np.stack(h + [np.zeros(len(probs))], axis=1)


def reference_deviation(probs, axis_names, pattern):
    """`factorization_deviation` as two full-table sums per factor."""
    pos = {v: 1 + k for k, v in enumerate(axis_names)}
    product = np.ones((1,) * probs.ndim)
    for targets, given in pattern.factors:
        ptg, pg = (
            probs.sum(axis=tuple(set(pos.values()) - {pos[v] for v in keep}), keepdims=True)
            for keep in (targets + given, given)
        )
        factor = np.zeros(np.broadcast_shapes(ptg.shape, pg.shape))
        np.divide(ptg, pg, out=factor, where=pg > 0.0)
        product = product * factor
    return np.max(np.abs(probs - product).reshape(len(probs), -1), axis=1)


def random_sizes(rng, names):
    """Sizes 1-3 per variable, one of them 1."""
    sizes = rng.integers(1, 4, size=len(names))
    sizes[rng.integers(len(names))] = 1
    return tuple(int(n) for n in sizes)


def random_stack(rng, n, sizes):
    """n joints of the given sizes, about a tenth of their cells 0."""
    probs = rng.random((n, *sizes)) * (rng.random((n, *sizes)) > 0.1)
    probs[(slice(None),) + (0,) * len(sizes)] += 1e-3
    return probs / probs.sum(axis=tuple(range(1, 1 + len(sizes))), keepdims=True)


class TestFinitePMF:
    """One-variable mass functions: entropy from `SubsetEntropies`, mass checks
    from `JointPMF`."""

    def test_entropy_uniform(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(2.0, abs=1e-12)

    def test_entropy_point_mass(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_entropy_binary(self):
        got = entropy(np.array([0.11, 0.89]))
        assert got == pytest.approx(BINARY_ENTROPY_011, abs=1e-14)

    def test_entropy_uniform_exact_up_to_1024(self):
        for n in (2, 3, 17, 256, 1024):
            got = entropy(np.full(n, 1.0 / n))
            assert abs(got - np.log2(n)) <= 1e-12

    def test_negative_mass_names_entry(self):
        with pytest.raises(ValidationError, match=r"entry \(2,\)"):
            JointPMF(("X",), np.array([0.6, 0.5, -0.1]))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="total mass"):
            JointPMF(("X",), np.array([0.5, 0.4]))

    def test_a_stack_names_the_entry_of_its_bad_table(self):
        probs = np.full((3, 2, 2), 0.25)
        probs[2, 1] = [0.6, -0.1]
        with pytest.raises(ValidationError, match=r"stack: negative mass -0\.1 at entry \(1, 1\)"):
            check_masses(probs, "stack")
        check_masses(probs[:2], "stack")

    @pytest.mark.parametrize(
        "table, value, message",
        [
            (0, np.nan, r"non-finite mass nan at entry \(1, 0\) in table 0"),
            (1, -0.5, r"negative mass -0\.5 at entry \(1, 0\) in table 1"),
            (2, 0.5, r"total mass 1\.25 differs from 1 by more than 1e-12 in table 2"),
        ],
    )
    def test_a_stack_names_the_position_of_its_bad_table(self, table, value, message):
        probs = np.full((3, 2, 2), 0.25)
        probs[table, 1, 0] = value
        with pytest.raises(ValidationError, match="stack: " + message):
            check_masses(probs, "stack")

    @pytest.mark.parametrize("shape", [(0,), (0, 2), (3, 0)])
    def test_an_empty_stack_is_refused(self, shape):
        with pytest.raises(ValidationError, match="stack: empty mass table"):
            check_masses(np.zeros(shape), "stack")


class TestJointPMF:
    def test_axis_names_must_be_distinct(self):
        with pytest.raises(ValidationError, match="duplicate"):
            JointPMF(("X", "X"), np.full((2, 2), 0.25))

    def test_shape_name_mismatch(self):
        with pytest.raises(ValidationError, match="axes"):
            JointPMF(("X",), np.full((2, 2), 0.25))

    def test_unknown_axis(self):
        j = uniform_joint(2, 2, names=("X", "Y"))
        with pytest.raises(UsageError, match="unknown variable"):
            j.axis_index("Z")

    @pytest.mark.parametrize("names", [("X", "X"), ("Y",), ("Y", "X", "Y")])
    def test_reordered_needs_a_permutation(self, names):
        j = uniform_joint(2, 3, names=("X", "Y"))
        assert j.reordered(("Y", "X")).axis_sizes == (3, 2)
        with pytest.raises(UsageError, match="not a permutation"):
            j.reordered(names)

    def test_json_round_trip(self):
        probs = np.arange(1, 7, dtype=float)
        probs /= probs.sum()
        j = JointPMF(("X", "Y"), probs.reshape(2, 3))
        back = JointPMF.from_json(j.to_json())
        assert back.axis_names == j.axis_names
        np.testing.assert_array_equal(back.probs, j.probs)

    @pytest.mark.parametrize("size, probs", [(2.9, [0.5, 0.5]), (2.0, [0.5, 0.5]),
                                             ("2", [0.5, 0.5]), (True, [1.0])])
    def test_json_axis_size_must_be_an_integer(self, size, probs):
        payload = {"axes": [{"name": "X", "size": size}], "probs": probs}
        with pytest.raises(ValidationError, match="size of axis X must be an integer"):
            JointPMF.from_json_dict(payload)

    def test_json_integer_masses_are_numbers(self):
        # Strings and booleans are refused as masses (tests/test_cli.py); integers are not.
        payload = {"axes": [{"name": "X", "size": 2}], "probs": [1, 0]}
        assert JointPMF.from_json_dict(payload).probs.tolist() == [1.0, 0.0]

    def test_reordered_in_its_own_order_is_itself(self):
        j = uniform_joint(2, 3, names=("X", "Y"))
        assert j.reordered(("X", "Y")) is j and j.reordered(["X", "Y"]) is j

    def test_json_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            JointPMF.from_json(
                '{"axes": [{"name": "X", "size": 3}], "probs": [0.5, 0.5]}'
            )


class TestCondMutualInfo:
    def test_independent_bits(self):
        j = uniform_joint(2, 2, names=("X", "Y"))
        assert cond_mutual_info(j, ("X",), ("Y",)) == 0.0

    def test_identical_bits(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = probs[1, 1] = 0.5
        j = JointPMF(("X", "Y"), probs)
        assert cond_mutual_info(j, ("X",), ("Y",)) == pytest.approx(1.0, abs=1e-12)

    def test_binary_symmetric_channel(self):
        p = 0.11
        probs = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
        j = JointPMF(("X", "Y"), probs)
        got = cond_mutual_info(j, ("X",), ("Y",))
        assert got == pytest.approx(BSC_011_MI, abs=1e-14)

    def test_overlapping_groups_rejected(self):
        j = uniform_joint(2, 2, names=("X", "Y"))
        with pytest.raises(UsageError, match="overlapping"):
            cond_mutual_info(j, ("X",), ("X",))

    def test_empty_group_rejected(self):
        j = uniform_joint(2, 2, names=("X", "Y"))
        with pytest.raises(UsageError, match="non-empty"):
            cond_mutual_info(j, ("X",), ())

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
            j = JointPMF(("A", "B", "C", "D"), probs)
            assert cond_mutual_info(j, ("A",), ("B", "C"), ("D",)) == cond_mutual_info(
                j, ("B", "C"), ("A",), ("D",)
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_chain_rule(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        j = JointPMF(("A", "B", "Bp", "C"), probs)
        lhs = cond_mutual_info(j, ("A",), ("B", "Bp"), ("C",))
        rhs = cond_mutual_info(j, ("A",), ("B",), ("C",)) + cond_mutual_info(
            j, ("A",), ("Bp",), ("B", "C")
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        sizes = tuple(rng.integers(2, 4, size=3))
        probs = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
        j = JointPMF(("A", "B", "C"), probs)
        assert cond_mutual_info(j, ("A",), ("B",), ("C",)) >= 0.0

    def test_seeded_draws_are_pinned(self):
        """I(A;B|C) of 3000 seeded joints (two to five axes of one to three values,
        about a fifth of the cells 0) over disjoint groups in random order, |A| < |B|
        in 552: a SHA-256 of their bits, pinned while `cond_mutual_info` wrote its own
        subset plan, so that a change to the plan or to the order the entropies are
        summed in shows here."""
        rng = np.random.default_rng(1)
        digest, narrower = hashlib.sha256(), 0
        for _ in range(3000):
            n = int(rng.integers(2, 6))
            sizes = tuple(int(s) for s in rng.integers(1, 4, size=n))
            cells = math.prod(sizes)
            mass = rng.dirichlet(np.ones(cells)) * (rng.random(cells) < 0.8)
            mass[rng.integers(cells)] += 0.5
            names = tuple(f"A{k}" for k in rng.permutation(n))
            a = int(rng.integers(1, n))
            b = a + int(rng.integers(1, n - a + 1))
            c = b + int(rng.integers(0, n - b + 1))
            narrower += a < b - a
            j = JointPMF(tuple(f"A{k}" for k in range(n)), (mass / mass.sum()).reshape(sizes))
            value = cond_mutual_info(j, names[:a], names[a:b], names[b:c])
            digest.update(np.float64(value).tobytes())
        assert narrower == 552
        assert digest.hexdigest() == "26a2fdb04d87190b12bfd2efe83787ed4a5afa14f7bd90acb5f021e5c810e6af"

    def test_a_negative_information_beyond_rounding_is_refused(self):
        # H(AC) + H(BC) - H(ABC) - H(C) = 0.5 + 0.5 - 1.25 - 0 is no entropy table's.
        h = np.array([[0.5, 0.5, 1.25, 0.0]])
        with pytest.raises(ValidationError, match="impossible negative value -0.25"):
            information(h, np.array([[0, 1, 2, 3]]))
        value, _ = information(h, np.array([[0, 2, 1, 3]]))
        assert value.tolist() == [[1.25]]


class TestSubsetEntropies:
    """The planned marginals against each subset summed from the joint on its own."""

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    @pytest.mark.parametrize("n", [1, 7])
    def test_every_theorem_subset_matches_the_reference(self, theorem_id, n):
        spec = THEOREMS[theorem_id]
        axes = spec.full_vars
        groups = [g for t in spec.all_terms() for g in (t.a + t.c, t.b + t.c, t.a + t.b + t.c, t.c)]
        subsets = sorted(dict.fromkeys(frozenset(g) for g in groups if g), key=len, reverse=True)
        subsets.append(frozenset())
        rng = np.random.default_rng([n, *map(ord, theorem_id)])
        for _ in range(3):
            probs = random_stack(rng, n, random_sizes(rng, axes))
            got = SubsetEntropies(axes, subsets)(probs)
            np.testing.assert_allclose(got, reference_entropies(probs, axes, subsets), rtol=0, atol=1e-14)
            for i in range(n):
                assert np.array_equal(SubsetEntropies(axes, subsets)(probs[i : i + 1]), got[i : i + 1])

    def test_two_shapes_in_one_process_get_their_own_plans(self):
        axes, subsets = ("A", "B", "C"), [("A", "B"), ("B", "C"), ("B",), ("C",), ()]
        entropies = SubsetEntropies(axes, subsets)
        rng = np.random.default_rng(5)
        for sizes in [(2, 3, 1), (3, 1, 2), (2, 3, 1)]:
            probs = random_stack(rng, 4, sizes)
            np.testing.assert_allclose(
                entropies(probs), reference_entropies(probs, axes, subsets), rtol=0, atol=1e-14
            )

    # Over axes A, B, C, D each subset is summed from its smallest superset among the
    # joint and the subsets before it, so depths interleave in subset order: BD comes
    # from the joint after the chain ABC > AB > A, B from AB and D from BD.
    CHAIN = ("A", "B", "C", "D"), ("ABC", "AB", "A", "BD", "B", "D")
    DEPTHS = (1, 2, 3, 1, 3, 2)

    def test_each_depth_sums_into_its_own_column_range(self):
        axes, subsets = self.CHAIN
        first, levels, place = pmf._marginal_plan(axes, tuple(map(frozenset, subsets)), (2, 3, 2, 3))
        assert [hi for _, hi, _, _ in levels[:-1]] == [lo for lo, _, _, _ in levels[1:]]
        assert (levels[0][0], levels[-1][1]) == (first[1], first[-1])
        for lo, hi, gather, starts in levels:
            assert gather.max() < lo and len(starts) == hi - lo  # read only what is written
        for depth, k in zip(self.DEPTHS, place[:-1]):
            lo, hi = levels[depth - 1][:2]
            assert lo <= first[1 + k] and first[2 + k] <= hi
        assert place[-1] == len(subsets) and first[-1] == first[1 + place[-1]]

    def test_interleaved_depths_come_back_in_subset_order(self):
        """Against each subset summed from the joint on its own.  A marginal cell sums
        at most c = 36 joint cells, in another order than the reference's, so it is off
        by at most c*eps relative; x*log2(x) then moves by at most that times
        x*(|log2 x| + 1/ln 2), at most c*eps*(H + 2) over a table of entropy H <= log2 c,
        and the final sum of at most c terms adds c*eps*H: 2*c*eps*(log2(c) + 2) in all."""
        axes, subsets = self.CHAIN
        sizes = (2, 3, 2, 3)
        cells = math.prod(sizes)
        tol = 2 * cells * np.finfo(np.float64).eps * (math.log2(cells) + 2)
        probs = random_stack(np.random.default_rng(9), 256, sizes)
        got = SubsetEntropies(axes, subsets)(probs)
        np.testing.assert_allclose(got, reference_entropies(probs, axes, subsets), rtol=0, atol=tol)
        for n in (1, 23):
            for start in range(0, 256 - n + 1, 37):
                part = SubsetEntropies(axes, subsets)(probs[start : start + n])
                assert np.array_equal(part, got[start : start + n])


def reference_product(pattern, var_order, tables):
    """`product_stack` planned afresh on every call: each table transposed into
    `var_order`, reshaped to broadcast, and multiplied in pattern order."""
    probs = np.ones((1,) * (len(var_order) + 1))
    for (targets, given), table in zip(pattern.factors, tables):
        names = given + targets
        order = sorted(range(len(names)), key=lambda k: var_order.index(names[k]))
        shape = [table.shape[1 + names.index(v)] if v in names else 1 for v in var_order]
        probs = probs * np.transpose(table, (0, *(1 + k for k in order))).reshape(len(table), *shape)
    return probs


class TestProductStack:
    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_every_theorem_pattern_multiplies_as_the_reference(self, theorem_id):
        spec = THEOREMS[theorem_id]
        names, pattern = spec.coupling_vars, spec.pattern
        rng = np.random.default_rng([3, *map(ord, theorem_id)])
        for _ in range(2):
            sizes = dict(zip(names, random_sizes(rng, names)))
            shapes = [tuple(sizes[v] for v in given + targets) for targets, given in pattern.factors]
            for n in (1, 16, 23):
                tables = [rng.random((n, *shape)) for shape in shapes]
                want = reference_product(pattern, names, tables)
                assert np.array_equal(pattern.product_stack(tables), want)

    def test_table_shapes_of_one_pattern_share_its_placements(self):
        # A placement is planned from axis names alone, once per factor.
        pattern = FactorizationPattern(((("B",), ()), (("C", "A"), ("B",))))
        names = pattern.variables
        rng = np.random.default_rng(8)
        pmf.placement.cache_clear()
        for sizes in [(2, 3, 1), (3, 1, 2), (2, 3, 1)]:
            a, b, c = sizes
            tables = [rng.random((5, b)), rng.random((5, b, c, a))]
            got = pattern.product_stack(tables)
            assert np.array_equal(got, reference_product(pattern, names, tables))
            assert got.shape == (5, b, c, a)
        assert pmf.placement.cache_info().currsize == 2


class TestFactorization:
    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_every_theorem_pattern_matches_the_per_factor_sums(self, theorem_id):
        spec = THEOREMS[theorem_id]
        names, pattern = spec.coupling_vars, spec.pattern
        assert any(not given for _, given in pattern.factors)  # the total-mass denominator
        rng = np.random.default_rng([7, *map(ord, theorem_id)])
        for _ in range(3):
            sizes = dict(zip(names, random_sizes(rng, names)))
            tables = []
            for targets, given in pattern.factors:
                shape = [sizes[v] for v in given + targets]
                table = rng.random((7, *shape)) * (rng.random((7, *shape)) > 0.2) + 1e-9
                axes = tuple(range(1 + len(given), 1 + len(shape)))
                tables.append(table / table.sum(axis=axes, keepdims=True))
            factorized = pattern.product_stack(tables)
            assert np.all(factorization_deviation(factorized, names, pattern) <= FACTORIZATION_TOL)
            perturbed = random_stack(rng, 7, factorized.shape[1:])
            for probs in (factorized, 0.5 * (factorized + perturbed)):
                got = factorization_deviation(probs, names, pattern)
                want = reference_deviation(probs, names, pattern)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
                assert np.array_equal(got <= FACTORIZATION_TOL, want <= FACTORIZATION_TOL)

    def test_independent_bits_pass(self):
        j = uniform_joint(2, 2, names=("X", "Y"))
        pattern = FactorizationPattern(((("X",), ()), (("Y",), ())))
        assert deviation(j, pattern) == 0.0

    def test_correlated_bits_fail_with_quarter_deviation(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = probs[1, 1] = 0.5
        j = JointPMF(("X", "Y"), probs)
        pattern = FactorizationPattern(((("X",), ()), (("Y",), ())))
        assert deviation(j, pattern) == pytest.approx(0.25, abs=1e-15)

    def test_full_chain_is_tautological(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        j = JointPMF(("A", "B", "C"), probs)
        pattern = FactorizationPattern(((("A", "B", "C"), ()),))
        assert deviation(j, pattern) <= FACTORIZATION_TOL

    def test_chain_rule_pattern_always_passes(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        j = JointPMF(("A", "B", "C"), probs)
        pattern = FactorizationPattern(
            ((("A",), ()), (("B",), ("A",)), (("C",), ("A", "B")))
        )
        assert deviation(j, pattern) <= 1e-15

    def test_variable_targeted_twice_rejected(self):
        with pytest.raises(ValidationError, match="more than one factor"):
            FactorizationPattern(((("X",), ()), (("X",), ("Y",))))
