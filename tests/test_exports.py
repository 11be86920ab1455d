"""The public API: every name in ``entroflow.__all__`` resolves, and the
records that hold arrays compare by identity."""

import numpy as np

import entroflow
from entroflow import JointDistribution, OperatorBasis, constraint_geometry, make_point, product_basis


def test_all_names_resolve():
    missing = [name for name in entroflow.__all__ if not hasattr(entroflow, name)]
    assert missing == []
    assert len(set(entroflow.__all__)) == len(entroflow.__all__)


def test_star_import():
    namespace = {}
    exec("from entroflow import *", namespace)
    assert set(entroflow.__all__) <= namespace.keys()


def test_array_records_compare_by_identity():
    """OperatorBasis, ExpFamilyPoint, ConstraintGeometry and JointDistribution
    hold arrays, so == would compare them entrywise; each is equal only to
    itself, hashes, and can go in a set."""
    basis = product_basis([2, 2])
    point = make_point(np.zeros(basis.size), basis)
    table = np.full((2, 2), 0.25)
    pairs = [
        (basis, OperatorBasis(basis.shape, basis.factors, basis.elements)),
        (point, make_point(np.zeros(basis.size), basis)),
        (constraint_geometry(point), constraint_geometry(point)),
        (JointDistribution(table), JointDistribution(table)),
    ]
    for record, twin in pairs:
        assert record == record and record != twin
        assert len({record, twin, record}) == 2
        assert hash(record) == hash(record)
