"""The package's top level: three re-exported names, a small import, and
no public name that only the tests reach."""

import ast
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hhresidue
from hhresidue import enumeration, graphs, independence, recognition


def test_top_level_names_are_the_module_objects():
    # the benchmark's oracles read these three from the top level
    assert hhresidue.Graph is graphs.Graph
    assert hhresidue.independence_number_bitmask is independence.independence_number_bitmask
    assert hhresidue.is_strong_havel_hakimi_definitional is recognition.is_strong_havel_hakimi_definitional


def run_probe(probe):
    """stdout of probe run by a fresh interpreter on this checkout's src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_three_submodules():
    probe = "import sys, hhresidue; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'hhresidue')))"
    assert run_probe(probe).split() == [
        "hhresidue",
        "hhresidue.graphs",
        "hhresidue.independence",
        "hhresidue.recognition",
    ]


def test_import_loads_neither_dataclasses_nor_inspect():
    """Neither the package nor its command line imports dataclasses, which
    also loads inspect, ast and dis at every start. Modules loaded before
    the import (site may load some) do not count."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hhresidue\n"
        "package = set(sys.modules)\n"
        "import hhresidue.cli\n"
        "print(*sorted(package - before), sep=' ')\n"
        "print(*sorted(set(sys.modules) - package), sep=' ')\n"
    )
    package, cli = run_probe(probe).splitlines()
    assert "hhresidue.recognition" in package.split()
    assert "hhresidue.harness" in cli.split()
    for new in (package.split(), cli.split()):
        assert not {"dataclasses", "inspect"} & set(new), new


def test_copy_table_is_built_on_first_use_once():
    # building the table at import would add its build time to every CLI start
    probe = (
        "import hhresidue\n"
        "from hhresidue import recognition\n"
        "print(recognition._copy_tables.cache_info().currsize)\n"
        "recognition.strong_hh_witness(hhresidue.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))\n"
        "recognition.strong_hh_witness(hhresidue.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))\n"
        "print(recognition._copy_tables.cache_info().currsize)\n"
    )
    assert run_probe(probe).split() == ["0", "1"]


STOOL = recognition.FORBIDDEN_SUBGRAPHS["stool"]
STOOL_INV = enumeration.vertex_invariants(STOOL)


# each call runs one recursive search, _extend_copy's (the stool peels to
# itself, so the scan covers all of it) and _match's, both module-level
# functions (test_no_function_recurses_through_a_closure)
@pytest.mark.parametrize(
    "call",
    [
        lambda: recognition.strong_hh_witness(STOOL),
        lambda: enumeration._match(STOOL.adj, STOOL_INV, STOOL.adj, STOOL_INV),
    ],
    ids=["first-copy", "match"],
)
def test_recursive_searches_leave_no_cyclic_garbage(call):
    """A call leaves no reference cycle for the cyclic collector, as a
    recursive inner function that refers to itself through its closure
    would unless the search deleted it."""
    call()  # builds the copy table on first use
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


ROOT = Path(__file__).resolve().parent.parent


def _mentions(node):
    """Names read in node: Name and Attribute loads and import aliases.
    String literals are not names, so a name kept only in a string (such as
    a benchmark trace site) has no caller."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
            if sub.asname:
                yield sub.asname


def test_no_function_recurses_through_a_closure():
    """No function in src/hhresidue defines an inner function that reads its
    own name. Such a function refers to itself through its closure, so each
    call of the outer function leaves a cycle unless it deletes the inner
    one; a search recurses at module level over explicit arguments instead."""
    selfish = [
        f"{path.stem}.{outer.name}.{inner.name}"
        for path in sorted((ROOT / "src" / "hhresidue").rglob("*.py"))
        for outer in ast.walk(ast.parse(path.read_text()))
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
        if any(isinstance(sub, ast.Name) and sub.id == inner.name for sub in ast.walk(inner))
    ]
    assert selfish == []


def _lowest_bit_idioms(tree):
    """The names x in tree's expressions x & -x, each of which isolates
    the lowest set bit of x. An operand that is not a plain name, as in
    a & -(2 << v), is a different pattern."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitAnd)
            and isinstance(node.left, ast.Name)
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and isinstance(node.right.operand, ast.Name)
            and node.right.operand.id == node.left.id
        ):
            yield node.left.id


def test_only_iter_bits_decodes_masks_bit_by_bit():
    """graphs.iter_bits is the one place in src/hhresidue that walks a
    mask's set bits lowest first, so every sweep over a vertex set reads
    its tables; no other module isolates a lowest bit with x & -x."""
    decoders = [
        f"{path.stem}: {name} & -{name}"
        for path in sorted((ROOT / "src" / "hhresidue").rglob("*.py"))
        if path.name != "graphs.py"
        for name in _lowest_bit_idioms(ast.parse(path.read_text()))
    ]
    assert decoders == []
    # the walk does find the idiom, in iter_bits's own bit loop
    assert list(_lowest_bit_idioms(ast.parse((ROOT / "src" / "hhresidue" / "graphs.py").read_text()))) == ["mask"]


def _defined(stmt):
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _script_targets():
    """The attributes named by pyproject.toml's [project.scripts] entries."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r':(\w+)"', section.group(1))) if section else set()


def test_every_public_name_has_a_caller():
    """Every top-level public def, class and assignment in src/hhresidue is
    read somewhere outside its own definition: elsewhere in src/, in
    scripts/ or bench/, or as a console-script target. A name that only
    the tests call belongs in tests/."""
    sources = sorted((ROOT / "src").rglob("*.py"))
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    bodies = {path: ast.parse(path.read_text()).body for path in sources}
    # (file, top-level statement) -> the names it reads
    reads = {(path, i): set(_mentions(stmt)) for path, body in bodies.items() for i, stmt in enumerate(body)}
    called = _script_targets()
    uncalled = [
        f"{path.stem}.{name}"
        for path, body in bodies.items()
        if path.parent == ROOT / "src" / "hhresidue"
        for i, stmt in enumerate(body)
        for name in _defined(stmt)
        if name not in called and not any(name in names for key, names in reads.items() if key != (path, i))
    ]
    assert uncalled == []
