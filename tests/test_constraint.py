"""Marginal-entropy constraint geometry: gradient, Hessian, kernel,
projector, and the stiffness spectrum.

The independent Hessian oracles: at any point whose marginals are all
maximally mixed, expanding h(I/d + X) = log d - (d/2)||X||_F^2 + O(X^3)
gives the exact identity  grad2 C = -sum_i d_i M_i^T M_i, which in the
local columns of the metric reads -d G_{:L} G_{L:}; everywhere else the
analytic Hessian is checked against a finite-difference stencil of the
analytic gradient (``fd_constraint_hessian``) and against the same formula
evaluated on the derivative stack (``stack_hessian``).
"""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from entroflow import (
    FullyConstrainedError,
    NumericalDegeneracyError,
    OperatorBasis,
    as_shape,
    constraint_geometry,
    constraint_gradient,
    constraint_hessian,
    constraint_max,
    make_point,
    marginal_entropies,
    modular_hamiltonian,
    params_from_state,
    product_basis,
    random_hermitian,
    regularized_origin,
    soft_mode_count,
    state_from_params,
    stiffness_spectrum,
)
from entroflow.constraint import marginal_eigh
from entroflow.operators import marginals
from tests.conftest import origin_point
from tests.reference_geometry import (
    assemble_local_generator,
    frechet_gradient,
    kernel_basis,
    local_block_projection,
    map_local_marginals,
    marginal_jacobian,
    marginal_projector,
    reference_geometry,
    reversible_velocity,
    stack_gradient,
    stack_hessian,
)

GRAD_FD_STEP = 1e-5
LOG3 = np.log(3.0)


def marginal_entropy_sum(point):
    """C = sum_i h(rho_i) from one eigvalsh per marginal, apart from ``marginal_eigh``."""
    return marginal_entropies(point.rho, point.basis.shape).sum()


def saturation_hessian_oracle(point, dims):
    # exact -sum_i d_i M_i^T M_i, valid only at maximally mixed marginals
    M = marginal_jacobian(point)
    m = point.theta.size
    out = np.zeros((m, m))
    row = 0
    for d in dims:
        Mi = M[row : row + d * d]
        out -= d * (Mi.T @ Mi)
        row += d * d
    return out


def fd_constraint_hessian(point, step_scale=1e-4, order=4):
    """Central finite differences of the analytic gradient, symmetrised.

    Step h = step_scale * max(1, |theta|); ``order`` 4 is the five-point
    stencil with O(h^4) truncation error, ``order`` 2 the three-point one.
    """
    theta = point.theta
    basis = point.basis
    m = basis.size
    h = step_scale * max(1.0, float(np.linalg.norm(theta)))

    def grad_at(t):
        return constraint_gradient(make_point(t, basis))

    H = np.empty((m, m))
    for b in range(m):
        e = np.zeros(m)
        e[b] = h
        if order == 2:
            col = (grad_at(theta + e) - grad_at(theta - e)) / (2.0 * h)
        elif order == 4:
            col = (
                grad_at(theta - 2.0 * e)
                - 8.0 * grad_at(theta - e)
                + 8.0 * grad_at(theta + e)
                - grad_at(theta + 2.0 * e)
            ) / (12.0 * h)
        else:
            raise ValueError(f"unsupported stencil order {order}")
        H[:, b] = col
    return 0.5 * (H + H.T)


def mixed_ghz_state(dims, eps):
    """(1 - eps) |GHZ><GHZ| + eps I/d with GHZ = (|0..0> + |last>)/sqrt(2)."""
    d = int(np.prod(dims))
    psi = np.zeros(d)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return (1.0 - eps) * np.outer(psi, psi) + eps * np.eye(d) / d


def fd_constraint_gradient(point, h=GRAD_FD_STEP):
    theta = point.theta
    basis = point.basis
    m = theta.size
    out = np.empty(m)
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        cp = marginal_entropy_sum(make_point(theta + e, basis))
        cm = marginal_entropy_sum(make_point(theta - e, basis))
        out[a] = (cp - cm) / (2 * h)
    return out


def test_constraint_max_values():
    assert abs(constraint_max(as_shape([3, 3])) - 2 * LOG3) < 1e-14
    assert abs(constraint_max(as_shape([2, 3])) - np.log(6.0)) < 1e-14


def test_constraint_value_reference_points(qutrit_pair, rng):
    shape, basis = qutrit_pair
    assert abs(marginal_entropy_sum(make_point(np.zeros(80), basis)) - 2 * LOG3) < 1e-12
    for eps in (0.3, 0.05, 0.01):
        assert abs(marginal_entropy_sum(origin_point(shape, basis, eps)) - 2 * LOG3) < 1e-12
    # product state with a non-mixed first factor sits strictly below C_max
    from entroflow import gibbs_state, params_from_state

    rho = np.kron(gibbs_state(np.diag([1.0, -1.0, 0.0]).astype(complex), 0.9), np.eye(3) / 3)
    pt = make_point(params_from_state(rho, basis), basis)
    assert marginal_entropy_sum(pt) < 2 * LOG3 - 1e-3


def test_gradient_vanishes_at_mixed_marginals(qutrit_pair):
    shape, basis = qutrit_pair
    for eps in (0.3, 0.05):
        a = constraint_gradient(origin_point(shape, basis, eps))
        assert np.linalg.norm(a) <= 1e-9


def test_gradient_fd_oracle(rng):
    basis = product_basis(as_shape([2, 2]))
    for _ in range(3):
        pt = make_point(rng.normal(size=15) * 0.5, basis)
        np.testing.assert_allclose(constraint_gradient(pt), fd_constraint_gradient(pt), atol=1e-7)


def test_gradient_single_qubit_closed_form(rng):
    # one subsystem: C = H(rho) and a = -2 p+ p- theta from the 2x2 spectrum
    basis = product_basis(as_shape([2]))
    theta = rng.normal(size=3) * 0.8
    pt = make_point(theta, basis)
    r = np.linalg.norm(theta) / np.sqrt(2.0)
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * r))
    expected = -2.0 * p_plus * (1.0 - p_plus) * theta
    np.testing.assert_allclose(constraint_gradient(pt), expected, atol=1e-12)


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2]])
def test_gradient_matches_frechet_route(dims, rng):
    """The chain rule, coordinates(U (v_t o k) U^dag) for the centred direction
    v_t from the point's eigenpairs, against the route through Lambda =
    sum_i log rho_i (x) I: -tr(X F_b) + mu_b tr(X) with X = Dexp[Lambda] from
    ``frechet_exp``, which diagonalises K - psi I again."""
    basis = product_basis(as_shape(dims))
    for _ in range(3):
        pt = make_point(rng.normal(size=basis.size) * 0.5, basis)
        ref = frechet_gradient(pt)
        assert (np.abs(constraint_gradient(pt) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2]])
def test_local_marginals_match_the_map_route(dims):
    """``basis.local_traces``, tr_{-i} F_alpha read from factor i, against the
    former product of the stack rows with the 0/1 marginal map; each stack is
    read-only, as the basis shares it with every caller."""
    basis = product_basis(as_shape(dims))
    assert len(basis.local_traces) == len(basis.local_blocks)
    for i, (L_i, got) in enumerate(zip(basis.local_blocks, basis.local_traces)):
        assert got.shape == (L_i.size, basis.shape.dims[i], basis.shape.dims[i])
        assert np.abs(got - map_local_marginals(basis, i)).max() <= 1e-15
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1.0


@pytest.mark.parametrize("dims", [[2, 3], [2, 2, 2]])
def test_marginals_from_mu_on_a_rotated_basis(dims, rng):
    """On an orthonormal basis that is not Gell-Mann, each factor stack mixed
    by a random real orthogonal matrix, ``marginal_eigh`` rebuilds every
    rho_i = I/d_i + sum_{alpha in L_i} mu_alpha tr_{-i} F_alpha from the local
    mean parameters, against the partial trace of rho."""
    full = product_basis(as_shape(dims))
    factors = tuple(
        np.tensordot(np.linalg.qr(rng.normal(size=(len(F), len(F))))[0], F, 1) for F in full.factors
    )
    basis = OperatorBasis(full.shape, factors, full.elements)
    assert all(np.abs(a - b).max() > 0.1 for a, b in zip(basis.factors, full.factors))
    for _ in range(3):
        pt = make_point(rng.normal(size=basis.size) * 0.5, basis)
        for (w, V), rho_i in zip(marginal_eigh(pt), marginals(pt.rho, basis.shape)):
            assert np.abs((V * w) @ V.conj().T - rho_i).max() <= 1e-14


def relative_gap(A, B) -> float:
    return float(np.linalg.norm(A - B) / np.linalg.norm(B))


def test_hessian_saturation_identity(qutrit_pair):
    shape, basis = qutrit_pair
    for eps in (0.05, 0.01):
        pt = origin_point(shape, basis, eps)
        H = constraint_hessian(pt)
        oracle = saturation_hessian_oracle(pt, shape.dims)
        assert np.abs(H - oracle).max() < 1e-10
        assert np.abs(H - H.T).max() < 1e-12
    # the same identity in the local columns of G: Hess C = -d G_{:L} G_{L:}
    for dims in ([2, 2], [3, 3], [4, 4]):
        shape = as_shape(dims)
        basis = product_basis(shape)
        L = basis.local_sector
        for eps in (0.3, 0.05, 0.01):
            pt = origin_point(shape, basis, eps)
            G = pt.metric
            closed = -shape.total_dim * G[:, L] @ G[L, :]
            assert relative_gap(constraint_hessian(pt), closed) <= 1e-12


def test_hessian_nsd_at_origin(qutrit_pair):
    shape, basis = qutrit_pair
    H = constraint_hessian(origin_point(shape, basis, 0.1))
    assert np.linalg.eigvalsh(H).max() <= 1e-6


def test_hessian_fd_of_fd_directional(rng):
    basis = product_basis(as_shape([2, 2]))
    theta = rng.normal(size=15) * 0.4
    pt = make_point(theta, basis)
    H = constraint_hessian(pt)
    h = 2e-3
    for _ in range(4):
        v = rng.normal(size=15)
        v /= np.linalg.norm(v)
        cp = marginal_entropy_sum(make_point(theta + h * v, basis))
        c0 = marginal_entropy_sum(pt)
        cm = marginal_entropy_sum(make_point(theta - h * v, basis))
        fd = (cp - 2 * c0 + cm) / h**2
        quad = v @ H @ v
        assert abs(fd - quad) <= 1e-5 * max(1.0, abs(quad))


def test_hessian_second_order_stencil_agrees(qutrit_pair):
    # the oracle's order-2 and order-4 stencils agree; order 4 is the default
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.1)
    H2 = fd_constraint_hessian(pt, order=2)
    H4 = fd_constraint_hessian(pt)
    assert np.abs(H2 - H4).max() < 1e-8
    with pytest.raises(ValueError):
        fd_constraint_hessian(pt, order=3)


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_analytic_hessian_matches_fd_oracle(dims, rng):
    """The closed form agrees with the five-point stencil at a random theta
    and at a correlated start: the regularised entangled origin for [3,3],
    an eps-mixed GHZ state elsewhere."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    if dims == [3, 3]:
        correlated = origin_point(shape, basis, 0.05).theta
    else:
        correlated = params_from_state(mixed_ghz_state(dims, 0.2), basis)
    for theta in (rng.normal(size=basis.size) * 0.4, correlated):
        pt = make_point(theta, basis)
        H = constraint_hessian(pt)
        assert np.abs(H - H.T).max() <= 1e-12
        assert np.abs(H - fd_constraint_hessian(pt)).max() <= 1e-9


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_hessian_matches_stack_oracle(dims, rng):
    """Marginal derivatives from the local columns of G against the partial
    traces of the derivative stack, at the points of the stencil test."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    if dims == [3, 3]:
        correlated = origin_point(shape, basis, 0.05).theta
    else:
        correlated = params_from_state(mixed_ghz_state(dims, 0.2), basis)
    for theta in (rng.normal(size=basis.size) * 0.4, correlated):
        pt = make_point(theta, basis)
        assert relative_gap(constraint_hessian(pt), stack_hessian(pt)) <= 1e-12


def test_local_elements_must_span_each_subsystem(rng):
    """A basis missing one local element of a subsystem would give a wrong
    gradient, Hessian and ker M without any error: C is read through the
    local mean parameters, which then miss a direction of that marginal.
    All are refused, the geometry at construction."""
    full = product_basis(as_shape([2, 2]))
    drop = full.local_indices(0)[0]
    basis = OperatorBasis(full.shape, full.factors, full.elements[:drop] + full.elements[drop + 1 :])
    pt = make_point(rng.normal(size=basis.size) * 0.3, basis)

    def kernel(point):
        return constraint_geometry(point).kernel

    builds = (marginal_eigh, constraint_gradient, constraint_hessian, constraint_geometry, kernel)
    for build in builds + (local_block_projection,):
        with pytest.raises(ValueError, match="local elements"):
            build(pt)


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_geometry_matches_dense_oracle(dims, rng):
    """The local-block kernel and the Frechet-derivative gradient against the
    SVD kernel of M and the gradient read from the derivative stack."""
    basis = product_basis(as_shape(dims))
    for _ in range(2):
        pt = make_point(rng.normal(size=basis.size) * 0.4, basis)
        geom = constraint_geometry(pt)
        ref = reference_geometry(pt)
        assert np.abs(geom.grad - stack_gradient(pt)).max() <= 1e-12
        assert geom.kernel.shape == ref.kernel.shape
        assert scipy.linalg.subspace_angles(geom.kernel, ref.kernel).max() <= 1e-10
        assert np.abs(ref.jacobian @ geom.kernel).max() <= 1e-10


def test_kernel_at_zero_is_the_correlation_axes():
    for dims in ([2, 2], [3, 3], [2, 2, 2]):
        basis = product_basis(as_shape(dims))
        N = constraint_geometry(make_point(np.zeros(basis.size), basis)).kernel
        corr = basis.correlation_indices()
        assert np.array_equal(N[corr], np.eye(corr.size))
        assert np.abs(N[basis.local_indices()]).max() <= 1e-16


def test_marginal_jacobian_sector_structure(qutrit_pair):
    shape, basis = qutrit_pair
    pt = make_point(np.zeros(80), basis)
    M = marginal_jacobian(pt)
    assert M.shape == (18, 80)
    for idx in basis.correlation_indices():
        v = np.zeros(80)
        v[idx] = 1.0
        assert np.linalg.norm(M @ v) < 1e-12  # correlation directions fix both marginals
    moved = [np.linalg.norm(M[:, idx]) for idx in basis.local_indices()]
    assert min(moved) > 1e-3  # every local direction moves a marginal
    k = kernel_basis(M)
    assert np.linalg.matrix_rank(M, tol=1e-10) + k.shape[1] == 80


def test_kernel_dimension_two_qutrit(qutrit_pair):
    shape, basis = qutrit_pair
    for eps in (0.3, 0.01):
        pt = origin_point(shape, basis, eps)
        geom = constraint_geometry(pt)
        N_svd = kernel_basis(marginal_jacobian(pt))
        assert N_svd.shape[1] == 64
        assert geom.kernel.shape == N_svd.shape
        assert scipy.linalg.subspace_angles(geom.kernel, N_svd).max() <= 1e-10


def test_kernel_single_system_fully_constrained():
    basis = product_basis(as_shape([3]))
    pt = make_point(np.full(8, 0.1), basis)
    geom = constraint_geometry(pt)  # C and its gradient need no kernel
    with pytest.raises(FullyConstrainedError):
        geom.kernel


def test_kernel_of_zero_matrix_is_identity():
    N = kernel_basis(np.zeros((5, 7)))
    assert N.shape == (7, 7)
    np.testing.assert_allclose(N @ N.T, np.eye(7), atol=1e-12)


def test_projector_trivial_cases(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.1)
    P = marginal_projector(pt, np.eye(80))
    np.testing.assert_allclose(P, np.eye(80), atol=1e-10)


def test_projector_invariants(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.05)
    ref = reference_geometry(pt)
    P, N, M, G = ref.projector, ref.kernel, ref.jacobian, pt.metric
    np.testing.assert_allclose(P @ P, P, atol=1e-8)
    assert np.abs(M @ P).max() < 1e-8
    GP = G @ P
    assert np.abs(GP - GP.T).max() < 1e-8  # G-self-adjoint
    np.testing.assert_allclose(P @ N, N, atol=1e-10)  # fixes its range
    for _ in range(5):
        v = rng.normal(size=80)
        assert np.linalg.norm(M @ (P @ v)) <= 1e-8 * np.linalg.norm(v)


def test_projector_degenerate_gram_rejected(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.1)
    n1 = rng.normal(size=80)
    n1 /= np.linalg.norm(n1)
    N_bad = np.stack([n1, n1 + 1e-14 * rng.normal(size=80)], axis=1)
    with pytest.raises(NumericalDegeneracyError):
        marginal_projector(pt, N_bad)


def test_second_order_admissibility(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.05)
    geom = constraint_geometry(pt, include_hessian=True)
    H, N = geom.hessian, geom.kernel
    scale = np.abs(np.linalg.eigvalsh(H)).max()
    v_soft = N @ rng.normal(size=N.shape[1])
    v_soft /= np.linalg.norm(v_soft)
    assert abs(v_soft @ H @ v_soft) <= 1e-7 * scale
    # G-orthogonal complement of span(N) is strictly stiff
    w = rng.normal(size=80)
    v_stiff = w - reference_geometry(pt).projector @ w
    v_stiff /= np.linalg.norm(v_stiff)
    assert v_stiff @ H @ v_stiff < -1e-3


def test_stiffness_spectrum_origin(qutrit_pair):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.05)
    geom = constraint_geometry(pt, include_hessian=True)
    evals, evecs = stiffness_spectrum(pt, geom.hessian)
    assert evals[0] >= -1e-7
    assert soft_mode_count(evals) == geom.kernel.shape[1] == 64
    angles = scipy.linalg.subspace_angles(evecs[:, :64], geom.kernel)
    assert angles.max() < 1e-3
    # Rayleigh quotient of an eigenvector reproduces its eigenvalue
    for v in (evecs[:, -1], 2.0 * evecs[:, -1]):
        rayleigh = -(v @ geom.hessian @ v) / (v @ pt.metric @ v)
        assert abs(rayleigh - evals[-1]) < 1e-8


@pytest.mark.parametrize("dims", [[2, 2], [3, 3], [4, 4], [2, 2, 2], [2, 2, 2, 2], [3, 3, 3]])
@pytest.mark.parametrize("eps", [0.3, 0.05, 0.01])
def test_stiffness_spectrum_closed_form_at_origin(dims, eps):
    """At the regularised origin (GHZ on three or more factors) Hess C =
    -d G_{:L} G_{L:}, so with v = G^-1 G_{:L} w the problem -H v = lambda G v
    reads d G_LL w = lambda w: the |L| stiff eigenvalues are d eig(G_LL), and
    the other m - |L| vanish."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    local = basis.local_indices()
    pt = origin_point(shape, basis, eps)
    evals = stiffness_spectrum(pt, constraint_hessian(pt))[0]
    expected = shape.total_dim * np.linalg.eigvalsh(pt.metric[np.ix_(local, local)])
    scale = expected.max()
    assert np.abs(evals[-local.size :] - expected).max() <= 1e-12 * scale
    assert np.abs(evals[: -local.size]).max() <= 1e-12 * scale
    assert expected.min() > 1e3 * 1e-12 * scale  # the two blocks are told apart


@pytest.mark.parametrize("dims, soft", [([3, 3], 64), ([2, 2, 2], 54)])
def test_origin_geometry_is_invariant_under_local_unitaries(dims, soft):
    """The regularised origin (eps 0.1) and its image under a random local
    unitary V = (x)_i e^(-i A_i), which has no block structure in the product
    basis, give the same origin-analysis numbers: stiffness and Hessian
    eigenvalues to 1e-13 absolute (measured: 4.6e-15 and 4.7e-16, on spectra
    of largest modulus 1.3 and 0.26), the gradient norm to 1e-13 (both are
    round-off, at most 8.1e-16), and the soft count, which equals the
    correlation-sector size."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    rng = np.random.default_rng(14)
    V = reduce(np.kron, [scipy.linalg.expm(-1j * random_hermitian(q, rng)) for q in dims])
    rho = regularized_origin(shape, 0.1)

    def numbers(state):
        pt = make_point(params_from_state(state, basis), basis)
        geom = constraint_geometry(pt, include_hessian=True)
        evals = stiffness_spectrum(pt, geom.hessian)[0]
        hess_eigs = np.linalg.eigvalsh(geom.hessian)
        return evals, hess_eigs, np.linalg.norm(geom.grad), soft_mode_count(evals)

    plain, rotated = numbers(rho), numbers(V @ rho @ V.conj().T)
    assert np.abs(plain[0] - rotated[0]).max() <= 1e-13
    assert np.abs(plain[1] - rotated[1]).max() <= 1e-13
    assert abs(plain[2] - rotated[2]) <= 1e-13
    assert plain[3] == rotated[3] == soft == basis.correlation_indices().size


def test_first_order_tangency_vacuous(qutrit_pair, rng):
    shape, basis = qutrit_pair
    a = constraint_gradient(origin_point(shape, basis, 0.05))
    for _ in range(10):
        v = rng.normal(size=80)
        v /= np.linalg.norm(v)
        assert abs(a @ v) <= 1e-9


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_gradient_is_conserved_along_the_kernel(dims, rng):
    """First-order conservation of C along ker M away from the origin: the
    gradient is G g with g on L and (G N)_L = 0, so grad . N = g_L . (G N)_L
    is round-off, at most 1e-14 |grad| max|N|.  Near theta = 0, where the
    gradient is small, the former route through sum_i log rho_i (x) I read up
    to 1.2e-13 |grad| max|N| here; the chain rule reads 7.3e-16."""
    basis = product_basis(as_shape(dims))
    for scale in (0.01, 0.1, 1.0):
        for _ in range(2):
            geom = constraint_geometry(make_point(rng.normal(size=basis.size) * scale, basis))
            bound = 1e-14 * np.linalg.norm(geom.grad) * np.abs(geom.kernel).max()
            assert np.abs(geom.grad @ geom.kernel).max() <= bound, scale


def test_termwise_saturation(qutrit_pair, rng):
    """C within 1e-12 of C_max forces every marginal to maximal mixing."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, 0.05).theta
    hits = 0
    for delta in (1e-6, 2e-6, 3e-6):
        e = np.zeros(80)
        e[basis.local_indices(0)[2]] = delta
        pt = make_point(theta0 + e, basis)
        C = marginal_entropy_sum(pt)
        if C >= 2 * LOG3 - 1e-12:
            hits += 1
            rho = pt.rho
            for i in (0, 1):
                assert np.linalg.norm(marginals(rho, shape)[i] - np.eye(3) / 3) <= 1e-5
    assert hits >= 1  # the band must actually be exercised


def test_commutator_velocities_lie_in_kernel(qutrit_pair, rng):
    shape, basis = qutrit_pair
    # (a) any local generator at a mixed-marginal point
    pt = origin_point(shape, basis, 0.05)
    M = marginal_jacobian(pt)
    xi = assemble_local_generator(
        shape, ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))
    )
    v = reversible_velocity(pt, xi)
    assert np.linalg.norm(M @ v) <= 1e-9 * max(1.0, np.linalg.norm(v))
    # (b) a general point with the marginals' own modular generators
    pt2 = make_point(rng.normal(size=80) * 0.15, basis)
    k0 = modular_hamiltonian(marginals(pt2.rho, shape)[0])
    k1 = modular_hamiltonian(marginals(pt2.rho, shape)[1])
    xi2 = assemble_local_generator(shape, ((0, k0), (1, k1)))
    v2 = reversible_velocity(pt2, xi2)
    M2 = marginal_jacobian(pt2)
    assert np.linalg.norm(M2 @ v2) <= 1e-9 * max(1.0, np.linalg.norm(v2))


def test_geometry_bundle_consistency(qutrit_pair):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.1)
    geom = constraint_geometry(pt)
    assert geom.hessian is None  # opt-in, it is the expensive piece
    assert abs(geom.value - marginal_entropy_sum(pt)) < 1e-14
    assert np.abs(marginal_jacobian(pt) @ geom.kernel).max() <= 1e-8
    geom_h = constraint_geometry(pt, include_hessian=True)
    assert geom_h.hessian is not None


def test_geometry_hessian_matches_stack_oracle(qutrit_pair):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, 0.05)
    expected = constraint_hessian(pt)
    geom = constraint_geometry(pt, include_hessian=True)
    assert relative_gap(geom.hessian, stack_hessian(pt)) <= 1e-12
    assert np.array_equal(geom.hessian, expected)


def test_geometry_forms_the_marginals_once(qutrit_pair, monkeypatch):
    """C, its gradient and the Hessian share one ``marginal_eigh``: the
    marginals of rho are formed and diagonalised once per geometry."""
    import entroflow.constraint

    shape, basis = qutrit_pair
    pt = make_point(np.random.default_rng(5).normal(size=basis.size) * 0.15, basis)
    calls = []

    def counting(point):
        calls.append(None)
        return marginal_eigh(point)

    monkeypatch.setattr(entroflow.constraint, "marginal_eigh", counting)
    geom = constraint_geometry(pt, include_hessian=True)
    assert len(calls) == 1
    monkeypatch.undo()
    assert abs(geom.value - marginal_entropy_sum(pt)) < 1e-14
    assert np.array_equal(geom.grad, constraint_gradient(pt))
    assert np.array_equal(geom.hessian, constraint_hessian(pt))
