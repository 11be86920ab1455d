"""The one-pass chart kernel against the formulas it replaced.

Each oracle below restates the earlier formula of a per-stage function:
complex products over the stack, partial traces by einsum, symmetrised
eigendecompositions, a batched rotation of the fancy-indexed elements, and
cond + solve for the local block.  The rewritten functions must agree with
them to 1e-12 on every shape the flow runs.
"""

import numpy as np
import pytest

from entroflow import (
    BoundaryStateError,
    FlowConfig,
    as_shape,
    integrate,
    make_point,
    marginal_entropies,
    params_from_state,
    product_basis,
    random_hermitian,
)
from entroflow.constraint import marginal_eigh
from entroflow.expfamily import _log_sum_exp, _spectrum, bkm_kernel_matrix
from entroflow.flow import _local_sector
from entroflow.operators import marginals
from entroflow.states import FULL_RANK_FLOOR, entropy_of_spectrum
from tests.reference_geometry import (
    assemble_local_generator,
    kron_stack,
    local_block_projection,
    reference_geometry,
    reversible_velocity,
    stage_kernel,
)
from tests.test_flow import regularised_correlated_state

SHAPES = [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]]
TOL = 1e-12
# A |theta| at which the spectrum of rho spans seven to twelve decades over
# SHAPES, where the dense projection oracle loses digits.
NORM_PAST = 19.5


def old_coordinates(basis, X):
    return np.real(kron_stack(basis).reshape(basis.size, -1) @ np.asarray(X).T.ravel())


def old_hermitian_eig(A):
    return np.linalg.eigh(0.5 * (A + A.conj().T))


def old_point_fields(theta, basis):
    d = basis.shape.total_dim
    K = (theta @ kron_stack(basis).reshape(basis.size, -1)).reshape(d, d)
    w, U = old_hermitian_eig(K)
    psi = _log_sum_exp(w)
    p = np.exp(w - psi)
    rho = (U * p) @ U.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return {"generator": K, "psi": psi, "rho": rho, "mu": old_coordinates(basis, rho), "eigvals": p}


def old_partial_trace(rho, shape, keep):
    n = shape.n_subsystems
    letters = "abcdefghij"
    row = list(letters[:n])
    col = list(row)
    col[keep] = letters[n]
    subscripts = "".join(row) + "".join(col) + "->" + row[keep] + letters[n]
    return np.einsum(subscripts, np.asarray(rho).reshape(shape.dims + shape.dims))


def old_marginal_eigh(point):
    shape = point.basis.shape
    return [
        old_hermitian_eig(old_partial_trace(point.rho, shape, i))
        for i in range(shape.n_subsystems)
    ]


def old_metric_block(point, index):
    U = point.eigvecs
    Fc = U.conj().T @ kron_stack(point.basis)[index] @ U
    idx = np.arange(point.dim)
    Fc[:, idx, idx] -= point.mu[index][:, None]
    Y = Fc * np.sqrt(bkm_kernel_matrix(point.eigvals))
    Y = Y.reshape(Y.shape[0], -1)
    G = np.real(Y @ Y.conj().T)
    return 0.5 * (G + G.T)


def old_project(point, local):
    p, U = point.eigvals, point.eigvecs
    logp = np.log(p)
    g = old_coordinates(point.basis, (U * (p * (logp - p @ logp))) @ U.conj().T)
    G_LL = old_metric_block(point, local)
    assert np.linalg.cond(G_LL) < 1e12
    coeffs = np.linalg.solve(G_LL, g[local])
    proj = point.theta.copy()
    proj[local] -= coeffs
    return proj, float(point.theta @ g - g[local] @ coeffs)


def old_commutator_coordinates(point, xi):
    K = point.generator
    return old_coordinates(point.basis, -1j * (xi @ K - K @ xi))


def old_marginal_entropies(rho, shape):
    out = []
    for i in range(shape.n_subsystems):
        r = old_partial_trace(rho, shape, i)
        out.append(entropy_of_spectrum(np.linalg.eigvalsh(0.5 * (r + r.conj().T))))
    return np.array(out)


def chart_points(dims, rng):
    """A random interior point and a regularised correlated start."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    thetas = [
        rng.normal(size=basis.size) * 0.3,
        params_from_state(regularised_correlated_state(shape, 0.05), basis),
    ]
    return shape, basis, thetas


@pytest.mark.parametrize("dims", SHAPES)
def test_coordinates_match_complex_product(dims, rng):
    shape = as_shape(dims)
    basis = product_basis(shape)
    d = shape.total_dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for Y in (X, X + X.conj().T, np.real(X)):
        np.testing.assert_allclose(
            basis.coordinates(Y), old_coordinates(basis, Y), rtol=0, atol=TOL
        )


@pytest.mark.parametrize("dims", SHAPES)
def test_make_point_fields_match_old_formula(dims, rng):
    shape, basis, thetas = chart_points(dims, rng)
    for theta in thetas:
        pt = make_point(theta, basis)
        old = old_point_fields(theta, basis)
        for name, ref in old.items():
            got = getattr(pt, name)
            assert np.abs(got - ref).max() <= TOL * max(1.0, np.abs(ref).max()), name
        # The eigenvectors are fixed up to phases (and rotations within
        # degenerate eigenspaces): compare what they reconstruct.
        U = pt.eigvecs
        np.testing.assert_allclose(U.conj().T @ U, np.eye(shape.total_dim), rtol=0, atol=TOL)
        np.testing.assert_allclose((U * pt.eigvals) @ U.conj().T, old["rho"], rtol=0, atol=TOL)


@pytest.mark.parametrize("dims", SHAPES)
def test_marginals_and_marginal_eigh_match_old_formula(dims, rng):
    shape, basis, thetas = chart_points(dims, rng)
    for theta in thetas:
        pt = make_point(theta, basis)
        for i, rho_i in enumerate(marginals(pt.rho, shape)):
            ref = old_partial_trace(pt.rho, shape, i)
            np.testing.assert_allclose(rho_i, ref, rtol=0, atol=TOL)
        for (w, U), (w_ref, U_ref) in zip(marginal_eigh(pt), old_marginal_eigh(pt)):
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=TOL)
            np.testing.assert_allclose(
                (U * w) @ U.conj().T, (U_ref * w_ref) @ U_ref.conj().T, rtol=0, atol=TOL
            )


@pytest.mark.parametrize("dims", SHAPES)
def test_metric_block_matches_batched_rotation(dims, rng):
    shape, basis, thetas = chart_points(dims, rng)
    subset = np.sort(rng.choice(basis.size, size=min(7, basis.size), replace=False))
    for theta in thetas:
        pt = make_point(theta, basis)
        for index in (basis.local_sector, basis.local_indices(), subset, np.arange(basis.size)):
            G = pt.metric[np.ix_(index, index)]
            ref = old_metric_block(pt, index)
            assert np.abs(G - ref).max() <= TOL * max(1.0, np.abs(ref).max())
            assert np.array_equal(G, G.T)


@pytest.mark.parametrize("dims", SHAPES)
def test_project_matches_cond_and_solve(dims, rng):
    shape, basis, thetas = chart_points(dims, rng)
    local = _local_sector(basis)
    for theta in thetas:
        pt = make_point(theta, basis)
        proj, rate = stage_kernel(theta, basis, pt.eigvals, pt.eigvecs)
        proj_ref, rate_ref = old_project(pt, local)
        assert np.abs(proj - proj_ref).max() <= TOL * max(1.0, np.abs(theta).max())
        assert abs(rate - rate_ref) <= TOL * max(1.0, abs(rate_ref))


def thetas_past_radius(dims, rng):
    """The two chart points and a random direction scaled to |theta| = NORM_PAST."""
    shape, basis, thetas = chart_points(dims, rng)
    v = rng.normal(size=basis.size)
    return shape, basis, thetas + [NORM_PAST * v / np.linalg.norm(v)]


@pytest.mark.parametrize("dims", SHAPES)
def test_stage_kernel_matches_old_and_dense_projection(dims, rng):
    """The stage kernel from the eigenpairs of K alone, against the parent's
    route (g = G theta from all m coordinates, G_LL, cond + solve) and the
    dense projector N (N^T G N)^{-1} N^T G on an SVD kernel N of M.

    At NORM_PAST the spectrum of rho spans up to twelve decades, and the dense
    route loses digits in proportion to cond(N^T G N) (up to 2e10 here) while
    cond(G_LL) stays below 4e4: there P theta is held to the dense route's own
    error bound, and to 1e-12 by the residual (G P theta)_L = 0 of the full
    metric.
    """
    shape, basis, thetas = thetas_past_radius(dims, rng)
    local = _local_sector(basis)
    for theta in thetas:
        _, p, U = _spectrum(basis.combine(theta))
        proj, rate = stage_kernel(theta, basis, p, U)
        pt = make_point(theta, basis)
        proj_pt, rate_pt = local_block_projection(pt)  # the exact path's eigenpairs
        assert np.array_equal(proj_pt, proj) and rate_pt == rate
        scale = max(1.0, np.abs(theta).max())
        proj_old, rate_old = old_project(pt, local)
        assert np.abs(proj - proj_old).max() <= TOL * scale
        assert abs(rate - rate_old) <= TOL * max(1.0, abs(rate_old))
        ref = reference_geometry(pt)
        proj_dense = ref.projector @ theta
        rate_dense = float(theta @ pt.metric @ proj_dense)
        assert abs(rate - rate_dense) <= TOL * max(1.0, abs(rate_dense))
        cond = np.linalg.cond(ref.kernel.T @ pt.metric @ ref.kernel)
        assert np.abs(proj - proj_dense).max() <= max(TOL, 1e-15 * cond) * scale
        residual = (pt.metric @ proj)[local]
        assert np.abs(residual).max() <= TOL * max(1.0, np.abs(pt.metric @ theta).max())


@pytest.mark.parametrize("dims", SHAPES)
def test_recorded_entropy_matches_chart_point(dims, rng):
    """H = -sum p log p from the eigenpairs of each sample's point on the
    curve (or the one eigh of K(theta0) in a reversible run) equals
    psi - theta . mu of a chart point."""
    shape, basis, thetas = thetas_past_radius(dims, rng)
    xi_parts = [(i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims)]
    cfg = FlowConfig(xi_parts=xi_parts)
    runs = [(theta, "dissipative") for theta in thetas] + [(thetas[0], "reversible")]
    for theta, kind in runs:
        traj = integrate(theta, basis, cfg, clock="game", duration=0.2, kind=kind)
        assert traj.status == "completed" and traj.n_samples >= 4
        H = [make_point(t, basis).entropy for t in traj.theta]
        np.testing.assert_allclose(traj.H, H, rtol=0, atol=TOL)


@pytest.mark.parametrize("dims", SHAPES)
def test_commutator_coordinates_match_two_products(dims, rng):
    shape, basis, thetas = chart_points(dims, rng)
    xi = assemble_local_generator(
        shape, [(i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims)]
    )
    for theta in thetas:
        pt = make_point(theta, basis)
        ref = old_commutator_coordinates(pt, xi)
        got = reversible_velocity(pt, xi)
        assert np.abs(got - ref).max() <= TOL * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("dims", SHAPES)
def test_marginal_entropies_match_old_formula(dims, rng):
    shape, basis, thetas = chart_points(dims, rng)
    for theta in thetas:
        rho = make_point(theta, basis).rho
        np.testing.assert_allclose(
            marginal_entropies(rho, shape), old_marginal_entropies(rho, shape), rtol=0, atol=TOL
        )


def test_marginal_entropies_keeps_hermiticity_check(rng):
    shape = as_shape([2, 3])
    rho = np.eye(6, dtype=complex) / 6
    rho[0, 1] = 1e-9  # the qutrit marginal picks up a non-Hermitian entry
    with pytest.raises(ValueError, match="not Hermitian"):
        marginal_entropies(rho, shape)


def test_marginal_entropies_keeps_spectrum_floor():
    """A marginal eigenvalue in [EIG_CLIP_FLOOR, 0) counts as 0; below it raises."""
    shape = as_shape([2, 3])
    # qutrit marginal diag(a_j + a_{3+j}), qubit marginal diag(sum of each half)
    rho = np.diag([0.5, -1e-12, 0.2, 0.3, 0.0, 1e-12]).astype(complex)
    h = marginal_entropies(rho, shape)
    np.testing.assert_allclose(h[1], -(0.8 * np.log(0.8) + 0.2 * np.log(0.2)), rtol=0, atol=1e-11)
    rho = np.diag([0.5, -1e-6, 0.2, 0.3, 0.0, 1e-6]).astype(complex)
    with pytest.raises(ValueError, match="round-off floor"):
        marginal_entropies(rho, shape)


def test_marginal_eigh_keeps_floor(qutrit_pair):
    shape, basis = qutrit_pair
    theta = np.zeros(basis.size)
    theta[basis.local_indices(0)[-1]] = 60.0
    with pytest.raises(BoundaryStateError, match=f"{FULL_RANK_FLOOR}"):
        marginal_eigh(make_point(theta, basis))
