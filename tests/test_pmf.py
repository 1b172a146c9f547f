import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_a_negative_information_beyond_rounding_is_refused(self):
        # H(AC) + H(BC) - H(ABC) - H(C) = 0.5 + 0.5 - 1.25 - 0 is no entropy table's.
        h = np.array([[0.5, 0.5, 1.25, 0.0]])
        with pytest.raises(ValidationError, match="impossible negative value -0.25"):
            information(h, np.array([[0, 1, 2, 3]]))
        value, _ = information(h, np.array([[0, 2, 1, 3]]))
        assert value.tolist() == [[1.25]]


class TestFactorization:
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
