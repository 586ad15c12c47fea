"""The scripts under scripts/, run as a user would."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_residue_gap_survey_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "residue_gap_survey.py"), "--max-n", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:] if not line.startswith("   e.g.")]
    # order, classes, in-class classes, classes with residue = alpha
    assert [row[:4] for row in rows] == [
        ["1", "1", "1", "1"],
        ["2", "2", "2", "2"],
        ["3", "4", "4", "4"],
        ["4", "11", "11", "11"],
        ["5", "34", "29", "31"],
    ]


def test_residue_gap_survey_rejects_out_of_range_order():
    for max_n in ("0", "9"):
        proc = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "residue_gap_survey.py"), "--max-n", max_n],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, max_n
        assert proc.stdout == ""
        assert f"enumeration: order {max_n} outside supported range 1..8" in proc.stderr


def test_residue_gap_survey_rejects_negative_examples():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "residue_gap_survey.py"), "--max-n", "5", "--examples", "-2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--examples must be nonnegative" in proc.stderr
