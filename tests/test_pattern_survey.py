"""``tools/pattern_survey.py`` on its two quick rows: it prints the pinned
status and candidate count of each."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_survey_prints_the_pinned_quick_rows(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pattern_survey.py"), "2,2,3", "3,2,2"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = [line.split("  ") for line in out.stdout.splitlines()]
    assert [(row[0], row[1], row[2], row[3]) for row in rows] == [
        ("(2,2) x 3", "candidates<=10^15 elements<=2,000", "INCONSISTENT", "297,228"),
        ("(3,2) x 2", "candidates<=10^15 elements<=2,000", "CONSISTENT", "5,202"),
    ]
    assert all(row[4].endswith(" s") for row in rows)


def test_survey_refuses_an_unknown_row(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pattern_survey.py"), "2,2,9"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("usage: pattern_survey.py")
