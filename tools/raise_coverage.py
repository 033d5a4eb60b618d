"""Print each ``raise`` line in src/nvmag that the tier-1 suite never executes.

Runs the test suite in this process under a stdlib line tracer
(``sys.settrace``, and ``threading.settrace`` for the worker threads the
trace engine starts), records every line executed in ``src/nvmag``, and
prints ``<path>:<line>: <text>`` for each line that begins a ``raise``
statement and never ran.  It prints nothing when every ``raise`` is reached.
No coverage package is needed.

    python tools/raise_coverage.py [pytest arguments] 2>/dev/null

pytest's own report goes to stderr.  The exit code is pytest's when a test
fails, else 1 when some ``raise`` is never reached, else 0.  Lines run only in
a subprocess a test starts are not seen.  Tracing slows the suite by about
half.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nvmag").glob("*.py"))


def raise_lines(path: Path) -> list[int]:
    """The first line of every ``raise`` statement in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)})


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    executed: dict[str, set] = {str(path): set() for path in SOURCES}

    def lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in executed else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)
    missed = 0
    for path in SOURCES:
        text = path.read_text().splitlines()
        for line in raise_lines(path):
            if line not in executed[str(path)]:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
