"""List the lines of src/teamcoord that the tier-1 test suite never runs.

Usage, from the repository root:

    PYTHONPATH=src python tools/uncovered.py

The script uses the standard library only. A module's executable lines are
the line numbers of its compiled code objects (`co_lines()`, line 0 and
None dropped), nested functions, classes and comprehensions included. The
suite runs in this process through `pytest.main`, traced with
`sys.settrace` and `threading.settrace`; a line counts as run when a frame
of that file enters it or starts on it. Only files under src/teamcoord are
traced, so the rest of the run pays for one call per frame.

It prints `path:line: source` for every line that did not run and is not in
`EXEMPT`, and exits 1 when there is such a line or when the suite did not
pass, else 0. Tracing makes the suite two to three times as slow.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teamcoord"

# (path relative to src/teamcoord, stripped source line) -> why no tier-1 test
# runs it; every entry needs a reason a reader can check.
EXEMPT: dict[tuple[str, str], str] = {}


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction of `path`'s compiled module."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(files: list[Path], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `pytest_args`; its exit code and the lines hit per file."""
    hits = {str(p): set() for p in files}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None if not ours

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            seen = by_name[name]
        except KeyError:
            seen = by_name[name] = hits.get(os.path.realpath(name))
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    files = sorted(p.resolve() for p in PACKAGE.rglob("*.py"))
    os.chdir(ROOT)
    code, hits = traced_run(files, ["-q", "--continue-on-collection-errors"])
    missed = 0
    for path in files:
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(PACKAGE).as_posix()
        for line in sorted(executable_lines(path) - hits[str(path)]):
            text = source[line - 1].strip()
            if (rel, text) not in EXEMPT:
                missed += 1
                print(f"src/teamcoord/{rel}:{line}: {text}")
    print(f"{missed} unrun lines; tests exited {code}")
    return 1 if missed or code else 0


if __name__ == "__main__":
    sys.exit(main())
