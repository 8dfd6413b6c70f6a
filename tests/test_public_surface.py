"""The package's public surface: one list of names, and no file I/O below the CLI."""

import ast
from pathlib import Path

import pytest

import znkit
from znkit import arith, core, gowers, pseudo, transference

LAYERS = (core, gowers, arith, pseudo, transference)


def test_package_all_is_the_layers_all_lists_joined():
    assert znkit.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(znkit.__all__)) == len(znkit.__all__)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_every_listed_name_is_its_layers_own_object(layer):
    for name in layer.__all__:
        assert getattr(znkit, name) is getattr(layer, name)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_no_layer_opens_a_file(layer):
    tree = ast.parse(Path(layer.__file__).read_text())
    opens = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert opens == []
