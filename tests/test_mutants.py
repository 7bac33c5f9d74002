"""The mutant catalogue in ``tests/mutants.py`` stays anchored to the code:
each mutant's old texts occur exactly once in its file, so a refactor that
moves the code must update the catalogue on purpose, and each mutant names
tests that exist. Running the catalogue is ``python tests/mutants.py``."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT, mutated


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_texts_occur_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert [text.count(old) for old, _ in mutant.edits] == [1] * len(mutant.edits)
    assert mutated(mutant, text) != text


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *_, name = test.split("[")[0].split("::")
        assert path.startswith("tests/test_")
        assert f"def {name}(" in (ROOT / path).read_text(), test
