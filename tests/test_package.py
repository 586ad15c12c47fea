"""The package's public surface."""

import hhresidue


def test_every_exported_name_resolves():
    assert len(hhresidue.__all__) == len(set(hhresidue.__all__))
    missing = [name for name in hhresidue.__all__ if not hasattr(hhresidue, name)]
    assert missing == []
