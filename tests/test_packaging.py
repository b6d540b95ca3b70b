import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_script_target_imports():
    # An installed console script whose module is missing fails at start.
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_package_data_glob_matches_a_file():
    # A glob that matches nothing ships nothing, without any error.
    setuptools = tomllib.loads(PYPROJECT.read_text()).get("tool", {}).get("setuptools", {})
    where = setuptools.get("packages", {}).get("find", {}).get("where", ["."])
    for package, globs in setuptools.get("package-data", {}).items():
        package_dir = PYPROJECT.parent / where[0] / package.replace(".", "/")
        for pattern in globs:
            assert any(package_dir.glob(pattern)), f"{package}: {pattern}"
