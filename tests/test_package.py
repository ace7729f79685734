"""The package surface: each public name is declared once, in its layer."""

import importlib

import setidetect

LAYERS = ("distributions", "roc", "scenario", "simulator")


def test_package_exports_exactly_the_layers_names():
    layer_names = [
        name for layer in LAYERS for name in importlib.import_module(f"setidetect.{layer}").__all__
    ]
    assert len(layer_names) == len(set(layer_names))
    assert sorted(setidetect.__all__) == sorted(["__version__", *layer_names])


def test_each_exported_name_is_its_layers_object():
    for layer in LAYERS:
        module = importlib.import_module(f"setidetect.{layer}")
        for name in module.__all__:
            assert getattr(setidetect, name) is getattr(module, name)


def test_cli_names_are_not_exported():
    cli = importlib.import_module("setidetect.cli")
    assert not set(cli.__all__) & set(setidetect.__all__)
    assert not set(cli.__all__) & set(dir(setidetect))
