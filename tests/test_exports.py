"""The public API: every name in ``entroflow.__all__`` resolves."""

import entroflow


def test_all_names_resolve():
    missing = [name for name in entroflow.__all__ if not hasattr(entroflow, name)]
    assert missing == []
    assert len(set(entroflow.__all__)) == len(entroflow.__all__)


def test_star_import():
    namespace = {}
    exec("from entroflow import *", namespace)
    assert set(entroflow.__all__) <= namespace.keys()
