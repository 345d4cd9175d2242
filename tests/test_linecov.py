"""The line coverage script on one test module: it lists what that module never runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_linecov_lists_the_lines_a_module_never_runs():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "linecov.py"), "-q",
                           "-p", "no:cacheprovider", "tests/test_gf.py"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    gf = (ROOT / "src" / "traceschemes" / "gf.py").read_text(encoding="utf-8").splitlines()
    # Every degree has an irreducible polynomial, so no test reaches this raise.
    raise_line = next(i for i, line in enumerate(gf, 1) if "no irreducible polynomial" in line)
    report = next(line for line in done.stdout.splitlines()
                  if line.startswith("src/traceschemes/gf.py: "))
    missed = report.split(":", 2)[2].split()
    assert str(raise_line) in missed
    # the search's return runs, and docstrings are not statements
    assert str(raise_line - 1) not in missed and "1" not in missed
