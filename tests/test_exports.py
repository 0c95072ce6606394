"""The package's public names."""

import mvtsp


def test_every_exported_name_resolves_once():
    assert len(set(mvtsp.__all__)) == len(mvtsp.__all__)
    missing = [name for name in mvtsp.__all__ if not hasattr(mvtsp, name)]
    assert missing == []
