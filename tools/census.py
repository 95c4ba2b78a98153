#!/usr/bin/env python
"""census: the ``src/`` functions a test run never calls.

Runs pytest in this process — tier-1 by default, that is pytest.ini's
marker filter over ``tests/`` — with a ``sys.setprofile`` /
``threading.setprofile`` hook that records the code object of every
Python call.  Then it lists each function defined under ``src/``
(``def`` and ``async def``, methods and nested functions included) whose
code never ran, with its line span, and prints the ``src/`` and
``tests/`` line totals (``wc -l`` over ``**/*.py``).

Not seen: calls made in forked worker processes (the ``processes``
executor backend) and in subprocesses (the CLI and crash-drill tests).
A function that only they run is listed as never called.  A generator
function counts as called once it is first resumed.  The hook slows the
suite down several times over, so this is not a CI step.

Usage: python tools/census.py [PYTEST_ARGS...]   (``make census``)
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: (resolved path, first line) -> (name, last line) of one function.
Functions = Dict[Tuple[str, int], Tuple[str, int]]


def defined_functions(root: Path) -> Functions:
    """Every function defined in the ``*.py`` files under ``root``.

    A function's first line is that of its first decorator, as in its
    code object's ``co_firstlineno``."""
    found: Functions = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found[(str(path.resolve()), first)] = (node.name,
                                                       node.end_lineno)
    return found


def line_total(root: Path) -> int:
    """``wc -l`` over the ``*.py`` files under ``root``."""
    return sum(p.read_bytes().count(b"\n") for p in root.rglob("*.py"))


def run_suite(pytest_args) -> Tuple[int, Set[Tuple[str, int]]]:
    """Run pytest under the profile hook: its exit status and the
    ``(resolved path, first line)`` of every code object called."""
    import pytest

    codes = set()
    record = codes.add

    def hook(frame, event, arg):
        if event == "call":
            record(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        status = pytest.main(list(pytest_args))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno)
              for code in codes}
    return int(status), called


def main(argv) -> int:
    os.chdir(REPO)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    status, called = run_suite(["-q", "-p", "no:cacheprovider", *argv])
    functions = defined_functions(SRC)
    never = sorted(key for key in functions if key not in called)
    never_lines = 0
    print()
    for path, first in never:
        name, last = functions[path, first]
        never_lines += last - first + 1
        print(f"  {os.path.relpath(path, REPO)}:{first}-{last}  {name}  "
              f"({last - first + 1} lines)")
    print(f"never called (pytest exit {status}): {len(never):,} of "
          f"{len(functions):,} src/ functions, {never_lines:,} lines")
    print(f"src/: {line_total(SRC):,} lines; "
          f"tests/: {line_total(REPO / 'tests'):,} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
