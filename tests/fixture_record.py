"""Command-line recorder shared by the cross-commit fixture tests.

``tests/mapreduce/test_cross_commit_ledgers.py``,
``tests/core/test_cross_commit_streams.py`` and
``tests/core/test_delta_streams.py`` each pin a JSON fixture of named
cases.  Run as scripts, they record only the cases named on the
command line, and refuse to change the bytes of a key the fixture
already holds unless ``--rerecord`` is given::

    PYTHONPATH=src:tests python tests/mapreduce/test_cross_commit_ledgers.py stock-mean-ragged

Every other key is written back unchanged, so adding a case never
re-records the ones beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional


def dump_fixture(entries: Mapping[str, Any]) -> str:
    """The fixture file's text: one JSON object, keys sorted."""
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def record_cases(fixture: Path, cases: Mapping[str, Callable[[], Any]],
                 argv: Optional[List[str]] = None) -> int:
    """Record the named ``cases`` (each a no-argument builder of its
    JSON entry) into ``fixture``; returns the process exit status."""
    parser = argparse.ArgumentParser(
        description=f"record named cases into {fixture.name}")
    parser.add_argument("cases", nargs="+", metavar="CASE",
                        help="case names to record (known: "
                             + ", ".join(sorted(cases)) + ")")
    parser.add_argument("--rerecord", action="store_true",
                        help="allow changing the bytes of a key the "
                             "fixture already holds")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(cases))
    if unknown:
        parser.error(f"unknown case(s): {', '.join(unknown)}")

    entries = json.loads(fixture.read_text()) if fixture.exists() else {}
    changed = []
    for name in dict.fromkeys(args.cases):
        # A JSON round trip, so the comparison sees what would be stored.
        entry = json.loads(json.dumps(cases[name]()))
        if name in entries and entries[name] != entry:
            changed.append(name)
        entries[name] = entry
    if changed and not args.rerecord:
        print(f"refusing to change existing key(s) of {fixture.name}: "
              f"{', '.join(changed)} (pass --rerecord to mean it)",
              file=sys.stderr)
        return 1
    fixture.parent.mkdir(exist_ok=True)
    fixture.write_text(dump_fixture(entries))
    print(f"recorded {len(args.cases)} case(s) -> {fixture}"
          + (f" (re-recorded: {', '.join(changed)})" if changed else ""))
    return 0
