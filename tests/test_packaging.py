import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def _pyproject() -> dict:
    return pytest.importorskip("tomllib").loads(PYPROJECT.read_text())


def test_every_script_target_imports():
    # An installed console script whose module is missing fails at start.
    scripts = _pyproject()["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_package_data_glob_matches_a_file():
    # A glob that matches nothing ships nothing, without any error.
    setuptools = _pyproject().get("tool", {}).get("setuptools", {})
    where = setuptools.get("packages", {}).get("find", {}).get("where", ["."])
    for package, globs in setuptools.get("package-data", {}).items():
        package_dir = PYPROJECT.parent / where[0] / package.replace(".", "/")
        for pattern in globs:
            assert any(package_dir.glob(pattern)), f"{package}: {pattern}"


# Names defined in src/neat that only tests call, each kept for the ROADMAP
# item that will give it a caller. An entry that gains one must leave.
AWAITING_CALLER = {
    "Vocabulary": "item 6: the decoder's token ids",
    "pad_id": "item 6: the decoder's token ids",
    "sos_id": "item 6: the decoder's token ids",
    "eos_id": "item 6: the decoder's token ids",
    "LstmCell": "item 6: the decoder",
    "step_backward": "item 6: the decoder",
    "softmax_cross_entropy": "item 6: the decoder's loss",
    "softmax_cross_entropy_backward": "item 6: the decoder's loss",
    "mse": "item 6: the evaluator's loss",
    "mse_backward": "item 6: the evaluator's loss",
    "render_infix": "item 7: the CLI prints the kept crosses",
    "load_param_dict": "item 7: the CLI loads a checkpoint",
    "train_test_folds": "item 1: the downstream yardstick",
    "redundancy_utility": "item 2: the redundancy term",
    "grad_check": "the gradient-check oracle of the tests",
}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def test_every_definition_has_a_caller():
    """A name in src/neat that neither the package nor the benchmark refers
    to is dead code, unless a planned stage will call it."""
    sources = [p for p in sorted((ROOT / "src" / "neat").glob("*.py"))
               if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"]
    trees = {p: ast.parse(p.read_text()) for p in sources + bench}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {name for p in sources for name in _definitions(trees[p])}
    assert defined
    uncalled = sorted(defined - referenced - AWAITING_CALLER.keys())
    assert uncalled == [], f"no caller: {uncalled}"
    called = sorted(AWAITING_CALLER.keys() & referenced)
    assert called == [], f"has a caller now, so leave AWAITING_CALLER: {called}"
