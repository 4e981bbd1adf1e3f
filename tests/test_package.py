"""The package's public names."""

import hurwitz


def test_public_names_resolve():
    assert len(set(hurwitz.__all__)) == len(hurwitz.__all__)
    missing = [name for name in hurwitz.__all__ if not hasattr(hurwitz, name)]
    assert missing == []
    namespace = {}
    exec("from hurwitz import *", namespace)
    assert set(hurwitz.__all__) <= set(namespace)
