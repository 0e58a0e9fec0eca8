"""The package's re-export table against the layers' own ``__all__`` lists."""

import importlib

import comptonqcd


def test_every_reexport_resolves_from_its_layer():
    # a name dropped from a layer but left in the table would fail only on
    # ``from comptonqcd import *``
    assert comptonqcd.__all__
    for name in comptonqcd.__all__:
        layer = importlib.import_module(f"comptonqcd.{comptonqcd._ORIGIN[name]}")
        assert name in layer.__all__, (layer.__name__, name)
        assert getattr(comptonqcd, name) is getattr(layer, name)


def test_every_layer_lists_only_names_it_defines():
    for layer_name in comptonqcd._EXPORTS:
        layer = importlib.import_module(f"comptonqcd.{layer_name}")
        missing = [name for name in layer.__all__ if not hasattr(layer, name)]
        assert missing == [], layer.__name__


def test_the_blocked_table_evaluator_is_exported():
    # the CLI streams spectrum's CSV rows through it, and library callers may too
    from comptonqcd import spectrum, wave_blocks

    assert "wave_blocks" in comptonqcd.__all__ and "wave_blocks" in comptonqcd._EXPORTS["spectrum"]
    assert wave_blocks is spectrum.wave_blocks
