import linresp


def test_every_exported_name_resolves():
    missing = [name for name in linresp.__all__ if not hasattr(linresp, name)]
    assert missing == []


def test_exported_names_unique():
    assert len(set(linresp.__all__)) == len(linresp.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from linresp import *", namespace)
    assert set(linresp.__all__) <= set(namespace)
