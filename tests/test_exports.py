"""Every name a module exports resolves and is listed once."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["simpleloop", "simpleloop.words", "simpleloop.gf2"])
def test_all_names_resolve_once(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), name
