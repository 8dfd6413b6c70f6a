"""The package's public surface: one list of names, each with a caller outside the
tests, no file I/O below the CLI, and one owner in core for the same-group rule and
the default budget."""

import ast
from pathlib import Path

import pytest

import znkit
from znkit import arith, cli, core, gowers, pseudo, transference

LAYERS = (core, gowers, arith, pseudo, transference)


def test_package_all_is_the_layers_all_lists_joined():
    assert znkit.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(znkit.__all__)) == len(znkit.__all__)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_every_listed_name_is_its_layers_own_object(layer):
    for name in layer.__all__:
        assert getattr(znkit, name) is getattr(layer, name)


ROOT = Path(__file__).resolve().parents[1]

# public names whose only callers are tests, each kept for the reason given
TEST_ONLY_NAMES = {
    "lq_norm": "acceptance criterion 11",
    "gowers_inner": "the multilinear cube average, tested against enumeration",
    "lambda_tilde": "the oracle for ROADMAP item 1's lambda-tilde array",
    "local_factor_omega": "acceptance criterion 8 and ROADMAP item 3",
}


def _referenced_names():
    """Every name the library (but its __init__), scripts/ and perfbench/ read:
    loaded names, attributes and imported names."""
    files = [path for path in (ROOT / "src" / "znkit").glob("*.py")
             if path.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    orphans = set(znkit.__all__) - _referenced_names() - set(TEST_ONLY_NAMES)
    assert sorted(orphans) == []
    assert set(TEST_ONLY_NAMES) <= set(znkit.__all__)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.__name__)
def test_no_layer_opens_a_file(layer):
    tree = ast.parse(Path(layer.__file__).read_text())
    opens = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert opens == []


def _owners(module, match):
    """The top-level definition (its name, or an assignment's target) around each node
    of the module's source that match accepts."""
    owners = []
    for top in ast.parse(Path(module.__file__).read_text()).body:
        name = getattr(top, "name", None) or ast.unparse(getattr(top, "targets", [top])[0])
        owners += [name for node in ast.walk(top) if match(node)]
    return owners


def _constructs_group_error(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "GroupMismatchError")


def _is_ten_to_the_nine(node):
    if isinstance(node, ast.BinOp):
        return ast.unparse(node) == "10 ** 9"
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 10**9)


@pytest.mark.parametrize("module", (*LAYERS, cli), ids=lambda module: module.__name__)
def test_group_rule_and_default_budget_live_once_in_core(module):
    owned = module is core
    assert _owners(module, _constructs_group_error) == (["_same_group"] if owned else [])
    assert _owners(module, _is_ten_to_the_nine) == (["DEFAULT_BUDGET"] if owned else [])
