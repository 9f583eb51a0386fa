import seqbell


def test_every_exported_name_resolves():
    assert len(set(seqbell.__all__)) == len(seqbell.__all__)
    assert [name for name in seqbell.__all__ if not hasattr(seqbell, name)] == []


def test_star_import():
    namespace = {}
    exec("from seqbell import *", namespace)
    assert set(seqbell.__all__) <= namespace.keys()
