import cuspbc


def test_every_exported_name_resolves():
    missing = [name for name in cuspbc.__all__ if not hasattr(cuspbc, name)]
    assert missing == []
    assert len(set(cuspbc.__all__)) == len(cuspbc.__all__)
    namespace = {}
    exec("from cuspbc import *", namespace)
    assert set(cuspbc.__all__) <= set(namespace)
