"""Classical Shannon entropies and the obstruction H12 >= max(h1, h2)."""

import numpy as np
import pytest

from entroflow import (
    JointDistribution,
    classical_origin_infeasible,
    lme_origin,
    multi_information,
    random_joint_distribution,
    shannon_entropies,
)

LOG2 = np.log(2.0)
N_PROPERTY_SAMPLES = 400
SLACK = 1e-12


def test_uniform_table_is_independent():
    j = JointDistribution(np.full((2, 2), 0.25))
    h1, h2, h12 = shannon_entropies(j)
    assert abs(h1 - LOG2) < 1e-14
    assert abs(h2 - LOG2) < 1e-14
    assert abs(h12 - 2 * LOG2) < 1e-14
    assert abs(h1 + h2 - h12) < 1e-14


def test_perfectly_correlated_table():
    j = JointDistribution(np.diag([0.5, 0.5]))
    h1, h2, h12 = shannon_entropies(j)
    assert abs(h1 + h2 - h12 - LOG2) < 1e-14
    assert abs(classical_origin_infeasible(j)) < 1e-14  # I = min(h1, h2)


def test_point_mass_all_zero():
    table = np.zeros((3, 4))
    table[1, 2] = 1.0
    assert shannon_entropies(JointDistribution(table)) == (0.0, 0.0, 0.0)


def test_certificate_zero_joint_entropy():
    table = np.zeros((3, 3))
    table[0, 0] = 1.0
    assert classical_origin_infeasible(JointDistribution(table)) == 0.0


def test_certificate_inapplicable_when_entropy_positive():
    # independent uniform bits: H12 = 2 log 2, so the gap is log 2
    gap = classical_origin_infeasible(JointDistribution(np.full((2, 2), 0.25)))
    assert abs(gap - LOG2) < 1e-14


def test_gap_is_the_smaller_conditional_entropy():
    # h1 = log 2 > h2, so H(2|1) = H12 - h1 is the smaller conditional entropy
    table = np.array([[0.45, 0.05], [0.25, 0.25]])
    j = JointDistribution(table)
    h1, h2, h12 = shannon_entropies(j)
    assert h12 - h1 < h12 - h2
    assert classical_origin_infeasible(j) == h12 - h1


def test_near_deterministic_table_continuity():
    peak = 1.0 - 1e-6
    rest = (1.0 - peak) / 3.0
    table = np.array([[peak, rest], [rest, rest]])
    h1, h2, _ = shannon_entropies(JointDistribution(table))
    p = 1.0 - 1e-6
    bern = -p * np.log(p) - (1 - p) * np.log(1 - p)
    assert h1 + h2 <= 4.0 * bern + 1e-9


def test_random_table_inequalities(rng):
    """H(X|Y) >= 0 and I <= min(h1, h2) on Dirichlet-sampled tables."""
    for _ in range(N_PROPERTY_SAMPLES):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        j = random_joint_distribution(n1, n2, rng)
        h1, h2, h12 = shannon_entropies(j)
        assert h12 - h2 >= -SLACK
        assert h12 - h1 >= -SLACK
        assert h1 + h2 - h12 <= min(h1, h2) + SLACK
        gap = classical_origin_infeasible(j)
        assert gap >= -SLACK
        assert gap == min(h12 - h1, h12 - h2)


def test_marginals_consistent(rng):
    j = random_joint_distribution(3, 4, rng)
    np.testing.assert_allclose(j.marginal_1, j.table.sum(axis=1), atol=1e-15)
    np.testing.assert_allclose(j.marginal_2, j.table.sum(axis=0), atol=1e-15)


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution(np.array([[0.6, 0.6]]))  # sums to 1.2
    with pytest.raises(ValueError):
        JointDistribution(np.array([[1.2, -0.2]]))  # negative cell


def test_quantum_witness_beats_classical_cap():
    """The entangled origin carries I = 2 log q, above the classical
    ceiling min(h1, h2) = log q."""
    for q in (2, 3):
        shape = (q, q)
        I = multi_information(lme_origin(shape), shape)
        assert I > np.log(q) + 0.5  # strictly above the classical cap
        assert abs(I - 2 * np.log(q)) < 1e-12
