import ast
import importlib
from pathlib import Path

import numpy as np
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


# Definitions in src/neat that only tests call, each kept for the ROADMAP
# item that will give it a caller: a top-level name as itself, and a method,
# dataclass field or attribute assigned on ``self`` as ``Class.name``. An
# entry that gains a caller must leave, and so must an entry whose definition
# is gone.
AWAITING_CALLER = {
    "mse": "item 6: the evaluator's loss",
    "mse_backward": "item 6: the evaluator's loss",
    "render_infix": "item 7: the CLI prints the kept crosses",
    "EncoderModel.load_param_dict": "item 7: the CLI loads a checkpoint",
    "train_test_folds": "item 1: the downstream yardstick",
    "grad_check": "the gradient-check oracle of the tests",
    # dataclass fields that nothing reads yet
    "DataTable.task": "item 1: the downstream yardstick",
    "DataTable.column_names": "item 7: the CLI names the table's columns",
    "DataTable.target_name": "item 7: the CLI names the target",
    "DataTable.dropped_rows": "item 7: the CLI reports the rows it dropped",
    "ExplorationRecord.episode": "the benchmark builds ExplorationRecord positionally",
    "ExplorationRecord.step": "the benchmark builds ExplorationRecord positionally",
}

# Attribute names of the types whose methods src/neat calls everywhere. A bare
# ``x.copy`` proves nothing about a method of that name, so such a method
# needs a caller named below, as ``Class.method: module.function``, or an
# AWAITING_CALLER entry. An entry whose method or caller is gone must leave.
BUILTIN_ATTRIBUTES = set().union(*map(dir, (str, bytes, list, dict, set, np.ndarray)))
SHARED_NAMES = {
    "_Reader.take": "checkpoint.load_checkpoint",
    "DataTable.take": "encoder.materialize_graphs",
    "FeatureSet.add": "collector._advance",
    "FeatureSet.copy": "collector.collect",
    "DistanceCache.add": "collector._advance",
    "DistanceCache.copy": "collector.collect",
}


def _key(owner: str | None, name: str) -> str:
    """The AWAITING_CALLER key of a definition: ``Owner.name`` for a member of
    class ``Owner``, the bare name for a top-level one."""
    return name if owner is None else f"{owner}.{name}"


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the public methods of classes,
    each with its class (None for a top-level name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def _fields(tree: ast.Module):
    """Fields of the module's dataclasses, each with its class and whether it
    is annotated ``Callable``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    kind = getattr(item.annotation, "value", item.annotation)
                    yield node.name, item.target.id, getattr(kind, "id", None) == "Callable"


def _constants(tree: ast.Module):
    """Top-level assignments to a bare name, other than ``__all__``."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                yield target.id


def _instance_attributes(tree: ast.Module):
    """Attributes that the methods of the module's classes assign on ``self``,
    each with its class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in ast.walk(node):
                targets = item.targets if isinstance(item, ast.Assign) else [
                    item.target] if isinstance(item, (ast.AugAssign, ast.AnnAssign)) else []
                for target in targets:
                    for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                        if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            yield node.name, t.attr


def _defined_names(tree: ast.Module) -> set[str]:
    """The keys an AWAITING_CALLER entry may wait on: top-level functions,
    classes and module constants, and as ``Class.name`` public methods,
    dataclass fields and attributes assigned on ``self``."""
    return ({_key(owner, name) for owner, name in _definitions(tree)}
            | {_key(owner, name) for owner, name, _ in _fields(tree)}
            | set(_constants(tree))
            | {_key(owner, name) for owner, name in _instance_attributes(tree)})


def _refers_to(trees, caller: str, name: str) -> bool:
    """Whether the top-level function ``module.function`` uses an attribute ``name``."""
    module, _, function = caller.partition(".")
    return any(isinstance(node, ast.FunctionDef) and node.name == function
               and any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))
               for p, tree in trees.items() if p.stem == module for node in tree.body)


def test_every_definition_has_a_caller():
    """A name in src/neat that neither the package nor the benchmark refers
    to is dead code, unless a planned stage will call it. A dataclass field
    counts as read only through an attribute that is not a call's function:
    a keyword at construction writes it, a bare name is some local variable,
    and ``opt.step()`` calls a method of the same name. A field annotated
    ``Callable`` is read by a call too. A module constant counts as read
    through a bare name that is loaded, not assigned, or through an
    attribute. An attribute that a method assigns on ``self`` counts as read
    only through an attribute that is loaded. A method named like a
    builtin's attribute needs its SHARED_NAMES entry. References are matched
    by name alone, but an AWAITING_CALLER entry excuses and must name one
    definition, by its class and name."""
    sources = [p for p in sorted((ROOT / "src" / "neat").glob("*.py"))
               if p.name != "__init__.py"]
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"]
    trees = {p: ast.parse(p.read_text()) for p in sources + bench}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    reads = {node.attr for node in nodes
             if isinstance(node, ast.Attribute) and id(node) not in called}
    referenced = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    loaded = attributes | {node.id for node in nodes
                           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    definitions = {d for p in sources for d in _definitions(trees[p])}
    shared = {_key(cls, name): name for cls, name in definitions
              if cls is not None and name in BUILTIN_ATTRIBUTES}
    annotated = {field for p in sources for field in _fields(trees[p])}
    fields = {_key(owner, name) for owner, name, _ in annotated}
    callables = {name for _, name, is_callable in annotated if is_callable}
    field_reads = reads | (callables & attributes)
    constants = {name for p in sources for name in _constants(trees[p])}
    stored = {a for p in sources for a in _instance_attributes(trees[p])}
    attribute_loads = {node.attr for node in nodes
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert definitions and fields and constants and shared and stored
    uncalled = sorted(({_key(*d) for d in definitions if d[1] not in referenced}
                       | (shared.keys() - SHARED_NAMES.keys())
                       | {_key(o, n) for o, n, _ in annotated if n not in field_reads}
                       | {name for name in constants if name not in loaded}
                       | {_key(o, n) for o, n in stored if n not in attribute_loads})
                      - AWAITING_CALLER.keys())
    assert uncalled == [], f"no caller: {uncalled}"
    stale = sorted(key for key, caller in SHARED_NAMES.items()
                   if key not in shared or not _refers_to(trees, caller, shared[key]))
    assert stale == [], f"no longer applies, so leave SHARED_NAMES: {stale}"
    gone = sorted(AWAITING_CALLER.keys() - set().union(*(_defined_names(trees[p])
                                                           for p in sources)))
    assert gone == [], f"defined nowhere, so leave AWAITING_CALLER: {gone}"
    # A bare reference to a shared name proves no caller, so such an entry
    # leaves when its caller is listed in SHARED_NAMES.
    waiting = sorted(key for key in AWAITING_CALLER
                     if (name := key.rpartition(".")[2]) not in BUILTIN_ATTRIBUTES
                     and name in (field_reads if key in fields else referenced))
    assert waiting == [], f"has a caller now, so leave AWAITING_CALLER: {waiting}"


# One definition of each kind that an AWAITING_CALLER entry may name, beside
# keys that are no definition: a private method, a parameter, an import, a
# local variable, a member's bare name and a member under another class.
DEFINITION_KINDS = """
from dataclasses import dataclass

LIMIT = 3


def helper(x):
    total = x + LIMIT
    return total


@dataclass
class Record:
    episode: int


class Buffer:
    def push(self, x):
        self.size = x

    def _private(self):
        pass
"""


@pytest.mark.parametrize("name", ["LIMIT", "helper", "Record", "Record.episode",
                                  "Buffer.push", "Buffer.size"])
def test_each_kind_of_definition_may_await_a_caller(name):
    assert name in _defined_names(ast.parse(DEFINITION_KINDS))


@pytest.mark.parametrize("name", ["_private", "Buffer._private", "x", "dataclass", "total",
                                  "episode", "push", "size", "Buffer.episode", "Record.size"])
def test_a_name_that_is_no_definition_is_reported_gone(name):
    assert name not in _defined_names(ast.parse(DEFINITION_KINDS))
