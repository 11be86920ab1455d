"""The factor-wise contractions of ``OperatorBasis`` against the stack route.

``coordinates``, K(theta) (``combine``), the BKM metric and the constraint
Hessian contract the Kronecker factors one at a time and never hold the
m x d x d element stack.  The oracles build that stack by a loop of np.kron
(``kron_stack``) and apply the library's former formulas to it.  Every
route must agree to 1e-12 on the flow's shapes, on a custom basis with
rotated factors and a subset of the elements, and on a single subsystem.
"""

import math
import tracemalloc

import numpy as np
import pytest

from entroflow import (
    FlowConfig,
    OperatorBasis,
    as_shape,
    constraint_hessian,
    gell_mann_basis,
    integrate,
    make_point,
    params_from_state,
    product_basis,
    random_hermitian,
    regularized_origin,
)
from tests.reference_geometry import (
    kron_stack,
    stack_coordinates,
    stack_generator,
    stack_hessian,
    stack_metric,
)
from tests.test_flow import regularised_correlated_state

TOL = 1e-12
SHAPES = [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]]


def rotated_basis(dims, rng, keep=None):
    """Gell-Mann factors conjugated by random unitaries (still orthonormal,
    traceless and Hermitian), on the elements of ``product_basis`` at ``keep``."""
    full = product_basis(dims)
    factors = []
    for d in full.shape.dims:
        W = np.linalg.qr(random_hermitian(d, rng) + 1j * random_hermitian(d, rng))[0]
        factors.append(W @ gell_mann_basis(d) @ W.conj().T)
    elements = full.elements if keep is None else tuple(full.elements[a] for a in keep)
    return OperatorBasis(full.shape, tuple(factors), elements)


def bases(dims, rng):
    """``product_basis`` and a rotated basis on all its local elements (the
    Hessian needs them) and every other correlation element."""
    full = product_basis(dims)
    yield full
    keep = np.concatenate([full.local_sector, full.correlation_indices()[::2]])
    yield rotated_basis(dims, rng, keep)


def gap(got, ref):
    return float(np.abs(got - ref).max()) / max(1.0, float(np.abs(ref).max()))


def check_chart_contractions(basis, rng):
    d = basis.shape.total_dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for Y in (X, X + X.conj().T, X.real, 1j * (X - X.conj().T)):
        assert gap(basis.coordinates(Y), stack_coordinates(basis, Y)) <= TOL
    # Only the Hermitian part enters, and a stack of operators maps row by row.
    assert gap(basis.coordinates(X), basis.coordinates(0.5 * (X + X.conj().T))) <= TOL
    batch = np.stack([X, X.conj().T, X.real])
    rows = basis.coordinates(batch)
    assert rows.shape == (3, basis.size)
    for row, Y in zip(rows, batch):
        assert gap(row, stack_coordinates(basis, Y)) <= TOL
    for scale in (0.3, 3.0):
        theta = rng.normal(size=basis.size) * scale
        K = basis.combine(theta)
        assert np.array_equal(K, K.conj().T)
        assert gap(K, stack_generator(theta, basis)) <= TOL


@pytest.mark.parametrize("dims", SHAPES)
def test_coordinates_and_generator_match_stack_route(dims, rng):
    for basis in bases(dims, rng):
        check_chart_contractions(basis, rng)


@pytest.mark.parametrize("dims", [[2], [3], [4]])
def test_single_subsystem_matches_stack_route(dims, rng):
    for basis in (product_basis(dims), rotated_basis(dims, rng, [0, 2])):
        check_chart_contractions(basis, rng)
        pt = make_point(rng.normal(size=basis.size) * 0.5, basis)
        assert gap(pt.metric, stack_metric(pt)) <= TOL


@pytest.mark.parametrize("dims", SHAPES)
def test_metric_and_hessian_match_stack_route(dims, rng):
    for basis in bases(dims, rng):
        shape = basis.shape
        thetas = [
            rng.normal(size=basis.size) * 0.3,
            params_from_state(regularised_correlated_state(shape, 0.05), basis),
        ]
        for theta in thetas:
            pt = make_point(theta, basis)
            assert gap(pt.mu, stack_coordinates(basis, pt.rho)) <= TOL
            assert np.array_equal(pt.metric, pt.metric.T)
            assert gap(pt.metric, stack_metric(pt)) <= TOL
            assert gap(constraint_hessian(pt), stack_hessian(pt)) <= TOL


def test_rotation_chunks_match_stack_route(rng, monkeypatch):
    """Chunks of one element, and of a size that does not divide m, give the
    same rotation as the whole stack at once."""
    basis = product_basis([2, 3])
    U = np.linalg.qr(random_hermitian(6, rng) + 1j * random_hermitian(6, rng))[0]
    stack = U.conj().T @ kron_stack(basis) @ U
    for chunk_bytes in (1, 16 * 36 * 7):
        monkeypatch.setattr("entroflow.operators.ROTATION_CHUNK_BYTES", chunk_bytes)
        got = np.concatenate([R for _, R in basis.rotated(U)])
        assert np.abs(got - stack).max() <= TOL
        assert all(R.flags.c_contiguous for _, R in basis.rotated(U))


def test_coordinates_match_stack_route_at_8x8(rng):
    """At [8,8] (m = 4095) against the np.kron rows, 315 elements at a time."""
    basis = product_basis([8, 8])
    X = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    got = basis.coordinates(X)
    pairs, factors = X.view(float).ravel(), basis.factors
    for start in range(0, basis.size, 315):
        rows = [
            np.kron(*(F[j] if j >= 0 else np.eye(8) / math.sqrt(8) for F, j in zip(factors, e)))
            for e in basis.elements[start : start + 315]
        ]
        ref = np.stack(rows).view(float).reshape(len(rows), -1) @ pairs
        assert np.abs(got[start : start + 315] - ref).max() <= TOL


def test_default_8x8_flow_allocates_under_half_the_stack():
    """The default [8,8] run allocates less than half of the 256 MiB stack it
    no longer builds (tracemalloc peak; measured 27 MiB)."""
    shape = as_shape([8, 8])
    basis = product_basis(shape)
    theta0 = params_from_state(regularized_origin(shape, 0.05), basis)
    tracemalloc.start()
    try:
        traj = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.status == "stationary"
    assert peak < 128 * 2**20
