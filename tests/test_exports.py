"""Every public name a module exports exists, once."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["evtkrig", "evtkrig.evt_risk", "evtkrig.kriging",
                                    "evtkrig.harness", "evtkrig.design"])
def test_all_names_resolve_once(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
