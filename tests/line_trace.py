"""List the executable lines of src/toricode that a pytest run never executes.

Usage, from the repository root:

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

Runs pytest in this process with the given arguments under
sys.settrace, tracing only frames whose code lives in src/toricode,
and prints path:line for every line that some code object of a module
there maps to and that never ran, then their count.  A line counts as
run when it emits a line event, or when it is the first line of a code
object that was called.  Child processes (the worker pool of
--threads, tests that start a subprocess) are not traced.  pytest does
not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "toricode")


def executable_lines(path):
    """Line numbers that the code objects compiled from path map to, 0 left out."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv):
    # lines run per source file, None for a file outside SRC
    ran: dict[str, set | None] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in ran:
            inside = os.path.dirname(os.path.abspath(path)) == SRC
            ran[path] = set() if inside else None
        if ran[path] is None:
            return None
        ran[path].add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        seen = set().union(*(v for k, v in ran.items() if v and os.path.abspath(k) == path))
        for line in sorted(executable_lines(path) - seen):
            print(f"{os.path.relpath(path)}:{line}")
            missed += 1
    print(f"{missed} executable lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
