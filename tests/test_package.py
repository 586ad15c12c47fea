"""The package's top level: three re-exported names and a small import."""

import os
import subprocess
import sys

import hhresidue
from hhresidue import graphs, independence, recognition


def test_top_level_names_are_the_module_objects():
    # the benchmark's oracles read these three from the top level
    assert hhresidue.Graph is graphs.Graph
    assert hhresidue.independence_number_bitmask is independence.independence_number_bitmask
    assert hhresidue.is_strong_havel_hakimi_definitional is recognition.is_strong_havel_hakimi_definitional


def test_import_loads_four_submodules():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = "import sys, hhresidue; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'hhresidue')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "hhresidue",
        "hhresidue.catalog",
        "hhresidue.graphs",
        "hhresidue.independence",
        "hhresidue.recognition",
    ]


def test_copy_table_is_built_on_first_use_once():
    # building the table at import would add its build time to every CLI start
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = (
        "import hhresidue\n"
        "from hhresidue import recognition\n"
        "from hhresidue.catalog import path\n"
        "print(recognition._copy_tables.cache_info().currsize)\n"
        "recognition.strong_hh_witness(path(5))\n"
        "recognition.strong_hh_witness(path(6))\n"
        "print(recognition._copy_tables.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]
