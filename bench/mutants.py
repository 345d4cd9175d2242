"""Mutation check of the exactness shortcuts: each mutant must fail tier-1.

Usage, from the repository root:

    python bench/mutants.py [NAME ...]

Each mutant replaces one exact piece of text in one file of ``src/``: a
threshold or test that a shortcut (a certificate, a skip, a filter, a
cover or extension check) relies on.  For the mutants named (default: all),
one after another, the tree is copied to a temporary directory, the mutant
is applied, and the tier-1 suite runs there with ``-x``, less
``tests/test_mutants.py``, which checks this list's texts; the mutant is
``killed`` when a test fails.  The unmutated copy is run first: if it does
not pass, nothing is reported and the exit status is 2.  Prints one line
per mutant and exits 1 if any survived or any run ended in an error.  A
change that adds or moves a shortcut adds mutants of its threshold here.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The list's own test is left out: a mutated text no longer occurs in its file.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]

# name: (file under src/traceschemes, exact text, replacement)
MUTANTS = {
    "pairwise-certificate-tau+1": (
        "verify.py",
        "tau = _ceil_div(s.w - d, k)",
        "tau = _ceil_div(s.w - d, k) + 1"),
    "pairwise-certificate-unstripped-width": (
        "verify.py",
        "tau = _ceil_div(s.w - d, k)",
        "tau = _ceil_div(s.w, k)"),
    "cff-certificate-strength-t-1": (
        "verify.py",
        "cert = _pairwise_certificate(s, t, work, cols)",
        "cert = _pairwise_certificate(s, max(1, t - 1), work, cols)"),
    "certificate-zeroes-shared-columns": (
        "verify.py",
        "        cols = cols.copy()\n",
        ""),
    "certificate-keeps-core-columns": (
        "verify.py",
        "cols[p] = 0",
        "pass"),
    "certificate-core-every-block-unchecked": (
        "verify.py",
        "if any(mask & core != core for mask in s.masks):",
        "if False:"),
    "at-least-strict": (
        "verify.py",
        "    return above | equal\n",
        "    return above\n"),
    "ts-evader-outright-one-short": (
        "verify.py",
        "        if min(caps) >= need:\n",
        "        if min(caps) >= need - 1:\n"),
    "ts-evader-least+1": (
        "verify.py",
        "    least = _ceil_div(w, len(coal_masks))\n",
        "    least = _ceil_div(w, len(coal_masks)) + 1\n"),
    "packed-guard-w+1": (
        "verify.py",
        "(self.half - w) * self.ones",
        "(self.half - w - 1) * self.ones"),
    "packed-guard-w-1": (
        "verify.py",
        "(self.half - w) * self.ones",
        "(self.half - w + 1) * self.ones"),
    "row-max-skip-le": (
        "verify.py",
        "if sum(map(rowmax.__getitem__, c)) < least[k]:",
        "if sum(map(rowmax.__getitem__, c)) <= least[k]:"),
    "ts-packs-strict": (
        "verify.py",
        "2 * need <= sum(caps)",
        "2 * need < sum(caps)"),
    "find-cover-reach-short": (
        "verify.py",
        "reach = (limit - len(chosen) - 1) * w",
        "reach = (limit - len(chosen) - 2) * w"),
    "cff-extension-limit-2": (
        "oracle.py",
        "_find_cover(masks, pb, residual, limit - 1, w, work, b)",
        "_find_cover(masks, pb, residual, limit - 2, w, work, b)"),
    "ts-extension-new-outsider-unchecked": (
        "oracle.py",
        "if _ts_evader(masks, coal, [new], w, work) is not None:",
        "if False:"),
    "ts-trace-stop-one-early": (
        "oracle.py",
        "if not rest:",
        "if rest.bit_count() <= 1:"),
    "ts-trace-padding-by-point": (
        "oracle.py",
        "key=lambda pt: (len(owners[pt]), pt)",
        "key=lambda pt: pt"),
    "ipps-pretest-strength-t+1": (
        "oracle.py",
        "if not _cff_extension_ok(masks, pb, w, t, work):",
        "if not _cff_extension_ok(masks, pb, w, t + 1, work):"),
}


def run_tier1(tree: Path) -> int:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_tree(dest: Path, mutant: tuple[str, str, str] | None = None) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*"))
    if mutant is not None:
        name, old, new = mutant
        path = dest / "src" / "traceschemes" / name
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the mutant's text occurs {text.count(old)} times")
        path.write_text(text.replace(old, new))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp) / "plain")
        if run_tier1(Path(tmp) / "plain") != 0:
            print("the unmutated tree fails tier-1; no mutant is judged")
            return 2
        for i, name in enumerate(args.names or MUTANTS):
            tree = Path(tmp) / str(i)
            copy_tree(tree, MUTANTS[name])
            start = time.perf_counter()
            code = run_tier1(tree)
            verdict = "killed" if code == 1 else "survived" if code == 0 else f"error {code}"
            survived += verdict != "killed"
            print(f"{name}: {verdict} ({time.perf_counter() - start:.0f} s)", flush=True)
            shutil.rmtree(tree)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
