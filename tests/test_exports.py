"""The public API: every name in ``entroflow.__all__`` resolves, and the
records that hold arrays compare by identity."""

import numpy as np

import entroflow
from entroflow import (
    FlowConfig,
    JointDistribution,
    OperatorBasis,
    constraint_geometry,
    integrate,
    make_point,
    product_basis,
)
from entroflow.flow import _CurvePoint


def test_all_names_resolve():
    missing = [name for name in entroflow.__all__ if not hasattr(entroflow, name)]
    assert missing == []
    assert len(set(entroflow.__all__)) == len(entroflow.__all__)


def test_star_import():
    namespace = {}
    exec("from entroflow import *", namespace)
    assert set(entroflow.__all__) <= namespace.keys()


def test_array_records_compare_by_identity():
    """OperatorBasis, ExpFamilyPoint, ConstraintGeometry, JointDistribution,
    FlowConfig (its xi blocks), the flow's curve point and Trajectory hold
    arrays, so == would compare them entrywise; each is equal only to itself,
    hashes, and can go in a set."""
    basis = product_basis([2, 2])
    point = make_point(np.zeros(basis.size), basis)
    table = np.full((2, 2), 0.25)
    xi_parts = ((0, np.diag([1.0, -1.0])),)
    arrays = [np.zeros(2)] * 4
    curve_points = [_CurvePoint(0.0, *arrays[:2], 0.0, 0.0, 0.0, 0.0, *arrays[:2]) for _ in range(2)]
    runs = [integrate(np.zeros(basis.size), basis, FlowConfig(), duration=1.0) for _ in range(2)]
    pairs = [
        (basis, OperatorBasis(basis.shape, basis.factors, basis.elements)),
        (point, make_point(np.zeros(basis.size), basis)),
        (constraint_geometry(point), constraint_geometry(point)),
        (JointDistribution(table), JointDistribution(table)),
        (FlowConfig(xi_parts=xi_parts), FlowConfig(xi_parts=xi_parts)),
        tuple(curve_points),
        tuple(runs),
    ]
    for record, twin in pairs:
        assert record == record and record != twin
        assert len({record, twin, record}) == 2
        assert hash(record) == hash(record)
