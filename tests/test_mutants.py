"""The committed mutants (tests/mutants.py) still name live code: each old
snippet occurs exactly once in its file, and each named test file exists.
Running the mutants themselves is a separate, slower step."""

import pytest

from mutants import MUTANTS, ROOT

# a case is named by its entry, not its place in the list, so inserting an
# entry renames no other case
IDS = [f"{path}-{old}-{new}-{','.join(tests)}" for path, old, new, tests in MUTANTS]


def test_mutant_ids_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("path, old, new, tests", MUTANTS, ids=IDS)
def test_mutant_snippet_occurs_once(path, old, new, tests):
    assert (ROOT / path).read_text().count(old) == 1
    assert old != new
    assert tests and all((ROOT / t).is_file() for t in tests)
