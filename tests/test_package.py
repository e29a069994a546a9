"""The package root's public names."""

import graphdict


def test_every_public_name_resolves():
    missing = [name for name in graphdict.__all__
               if not hasattr(graphdict, name)]
    assert not missing
    assert len(set(graphdict.__all__)) == len(graphdict.__all__)
