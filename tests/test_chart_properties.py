"""Property tests of the chart layer on generated inputs.

Derandomised, so every run draws the same examples and the suite stays
deterministic.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entroflow import (
    as_shape,
    make_point,
    marginal_entropies,
    params_from_state,
    product_basis,
    von_neumann_entropy,
)
from tests.reference_geometry import kron_stack, local_block_projection

CHART = settings(derandomize=True, deadline=None, max_examples=25)
SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2)]


def thetas(scale):
    """(basis, theta) with |theta_a| <= scale on one of SHAPES."""
    return st.sampled_from(SHAPES).flatmap(
        lambda dims: st.tuples(
            st.just(product_basis(as_shape(dims))),
            arrays(
                np.float64,
                product_basis(as_shape(dims)).size,
                elements=st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
            ),
        )
    )


def einsum_partial_trace(rho, dims, keep):
    letters = "abcdefgh"
    n = len(dims)
    col = list(letters[:n])
    col[keep] = "z"
    subscripts = f"{letters[:n]}{''.join(col)}->{letters[keep]}z"
    return np.einsum(subscripts, rho.reshape(tuple(dims) * 2))


def complex_matrices(d):
    parts = arrays(np.float64, (2, d, d), elements=st.floats(-10, 10, allow_nan=False))
    return parts.map(lambda p: p[0] + 1j * p[1])


def shaped_matrices():
    """(dims, X) with X a complex matrix of the shape's total dimension."""
    return st.sampled_from(SHAPES).flatmap(
        lambda dims: st.tuples(st.just(dims), complex_matrices(int(np.prod(dims))))
    )


@CHART
@given(shaped_matrices())
def test_coordinates_match_trace_oracle(case):
    """Re tr(F_a X) for any complex X, Hermitian or not."""
    dims, X = case
    basis = product_basis(as_shape(dims))
    oracle = np.real(np.einsum("aij,ji->a", kron_stack(basis), X))
    np.testing.assert_allclose(basis.coordinates(X), oracle, rtol=0, atol=1e-12)


@CHART
@given(thetas(1.0))
def test_make_point_matches_expm(case):
    basis, theta = case
    pt = make_point(theta, basis)
    E = scipy.linalg.expm(np.einsum("a,aij->ij", theta, kron_stack(basis)))
    Z = np.trace(E).real
    assert abs(pt.psi - np.log(Z)) <= 1e-12 * max(1.0, abs(pt.psi))
    np.testing.assert_allclose(pt.rho, E / Z, rtol=0, atol=1e-12)


@CHART
@given(thetas(0.5))
def test_chart_round_trip(case):
    basis, theta = case
    back = params_from_state(make_point(theta, basis).rho, basis)
    np.testing.assert_allclose(back, theta, rtol=0, atol=1e-10)


@CHART
@given(thetas(1.0))
def test_marginal_entropies_match_per_subsystem(case):
    basis, theta = case
    shape = basis.shape
    rho = make_point(theta, basis).rho
    expected = [
        von_neumann_entropy(einsum_partial_trace(rho, shape.dims, i))
        for i in range(shape.n_subsystems)
    ]
    np.testing.assert_allclose(marginal_entropies(rho, shape), expected, rtol=0, atol=1e-12)


@CHART
@given(thetas(1.0))
def test_local_block_projector_properties(case):
    """P = I - E_L G_LL^{-1} G_{L,:} is a G-self-adjoint idempotent onto ker M,
    and local_block_projection applies it to theta."""
    basis, theta = case
    point = make_point(theta, basis)
    G = point.metric
    L = basis.local_sector
    P = np.eye(basis.size)
    P[L] -= np.linalg.solve(G[np.ix_(L, L)], G[L])
    np.testing.assert_allclose(P @ P, P, rtol=0, atol=1e-10)
    GP = G @ P
    np.testing.assert_allclose(GP, GP.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose((GP @ theta)[L], 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(local_block_projection(point)[0], P @ theta, rtol=0, atol=1e-10)
