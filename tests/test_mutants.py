"""The committed mutants (tests/mutants.py) still name live code: each old
snippet occurs exactly once in its file, and each named test file exists.
Running the mutants themselves is a separate, slower step."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("path, old, new, tests", MUTANTS)
def test_mutant_snippet_occurs_once(path, old, new, tests):
    assert (ROOT / path).read_text().count(old) == 1
    assert old != new
    assert tests and all((ROOT / t).is_file() for t in tests)
