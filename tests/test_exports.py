"""Every name a ``specdec`` module lists in ``__all__`` exists on it, so a
deleted function cannot linger in an export list."""

from __future__ import annotations

import importlib
import pkgutil

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
