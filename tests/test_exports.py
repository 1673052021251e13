import porousflow


def test_every_export_resolves():
    names = porousflow.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(porousflow, name)] == []
    namespace = {}
    exec("from porousflow import *", namespace)
    assert set(names) <= set(namespace)
