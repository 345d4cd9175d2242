"""Statement lines of ``src/traceschemes/`` that the tests never run.

Usage, from the repository root:

    python bench/linecov.py [PYTEST ARGUMENT ...]

Runs pytest in this process (default: the whole tier-1 suite) under
``sys.settrace``, recording the lines run in frames whose code lies in
``src/traceschemes/``.  Then prints, for each module, the first line of
each statement that never ran.  A statement counts only if the compiler
gave it code, so docstrings and declarations such as ``global`` are left
out; a compound statement (``if``, ``for``, ``def``, ...) counts by its
header, its body statements each by themselves.  CLI children that the
tests run in subprocesses are not traced: a line reached only through them
is listed as never run.  Exits with pytest's status.  Uses the standard
library only, besides pytest itself; the whole suite takes a few minutes
under the tracer.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "traceschemes"

_ran: dict[str, set[int]] = defaultdict(set)  # real path -> lines run
_inside: dict[str, str | None] = {}  # co_filename -> real path, or None outside PACKAGE


def _local(frame, event, arg):
    if event == "line":
        _ran[_inside[frame.f_code.co_filename]].add(frame.f_lineno)
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _inside:
        path = os.path.realpath(name)
        _inside[name] = path if Path(path).parent == PACKAGE else None
    return _local if _inside[name] else None


def _code_lines(tree: ast.Module, path: Path) -> set[int]:
    """Lines that carry bytecode in the module or any code object in it."""
    lines, stack = set(), [compile(tree, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _statements(path: Path) -> list[range]:
    """The header lines of each statement with code, docstrings left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    with_code = _code_lines(tree, path)
    heads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        head = range(start, end + 1)
        if with_code.intersection(head):
            heads.append(head)
    return sorted(heads, key=lambda head: head.start)


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.settrace(_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        ran = _ran[str(path)]
        heads = _statements(path)
        missed = [head.start for head in heads if not ran.intersection(head)]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(heads)} statements never run:",
              *missed)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
