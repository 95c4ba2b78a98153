#!/usr/bin/env python
"""docs-check: every ``*.md`` file referenced anywhere must exist.

Scans the tracked Python sources, docs, tests, benchmarks and examples
(``git ls-files``: an ignored export such as ``make bench-pairs``'s
copy of a parent tree under ``benchmarks/results/pairs/`` is not the
repository) for references to Markdown files (``DESIGN.md``,
``[text](FILE.md)``, …) and fails if a referenced file is missing —
the guard against the dangling-doc-reference class of rot (this repo
once shipped ``runners.py`` citing a DESIGN.md that did not exist).

Usage: python tools/check_docs.py   (exit 0 = clean, 1 = dangling refs)
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Directories scanned for references.
SCAN_DIRS = ["src", "tests", "benchmarks", "examples", "tools"]
#: Root-level files scanned for references (docs cite each other).
SCAN_GLOBS = ["*.md", "Makefile"]

#: A Markdown-file reference: a word ending in ``.md``, optionally with
#: a leading relative path.
_REF = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*[A-Za-z][\w.-]*\.md)\b")

#: Names that look like references but are not repo files — currently
#: only this script's own docstring/comment examples.
IGNORED = {
    "FILE.md",
    "benchmarks/results/x.md",
}


def references() -> dict[str, set[str]]:
    """Map of referenced .md path -> set of files referencing it."""
    refs: dict[str, set[str]] = {}
    tracked = subprocess.run(
        ["git", "ls-files", "-z", "--",
         *(f":(glob){d}/**/*.py" for d in SCAN_DIRS),
         *(f":(glob){pattern}" for pattern in SCAN_GLOBS)],
        cwd=REPO, capture_output=True, check=True, text=True).stdout
    for path in (REPO / name for name in tracked.split("\0") if name):
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):  # pragma: no cover
            continue
        for match in _REF.finditer(text):
            name = match.group(1)
            if name in IGNORED:
                continue
            refs.setdefault(name, set()).add(str(path.relative_to(REPO)))
    return refs


def main() -> int:
    refs = references()
    missing = []
    for name, sources in sorted(refs.items()):
        # A bare name ("DESIGN.md") resolves at the repo root; a path
        # ("benchmarks/results/x.md") resolves relative to the root.
        if not (REPO / name).exists():
            missing.append((name, sorted(sources)))
    if missing:
        print("docs-check: dangling Markdown references:")
        for name, sources in missing:
            print(f"  {name}  (referenced from: {', '.join(sources)})")
        return 1
    print(f"docs-check: ok ({len(refs)} distinct .md references all resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
