"""Every name a ``specdec`` module lists in ``__all__`` exists on it, so a
deleted function cannot linger in an export list. Every exported name, and
every module-level function and class, is read somewhere in ``src/`` or
``specbench/``, so code that only the tests call cannot hide behind an
export or a leading underscore."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import specdec

MODULES = sorted(info.name for info in pkgutil.iter_modules(specdec.__path__))


def test_every_module_is_found():
    assert {"analysis", "cli", "engine", "models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"specdec.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


ROOT = Path(__file__).resolve().parent.parent


def _references() -> set[str]:
    """Every name read (a load or an attribute) in ``src/`` or ``specbench/``,
    test files aside; definitions, stores and ``__all__`` strings are not reads."""
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "specbench").rglob("*.py")]:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exports() -> set[str]:
    return {n for name in MODULES
            for n in getattr(importlib.import_module(f"specdec.{name}"), "__all__", [])}


def test_every_export_has_a_caller():
    assert _exports() - _references() == set()


def test_every_module_level_definition_is_read():
    # Private helpers too: a function or class no code reads is dead.
    defined = {node.name
               for path in (ROOT / "src" / "specdec").glob("*.py")
               for node in ast.parse(path.read_text(), str(path)).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert defined - _references() == set()
