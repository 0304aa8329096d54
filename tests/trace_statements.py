"""List every statement of src/tercode that no tier-1 test runs.

    PYTHONPATH=src python tests/trace_statements.py [pytest options]

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, recording line events only in frames whose file is
under src/tercode, then prints each statement inside a function body that
never ran.  ``def``/``class`` lines, docstrings and ``global``/``nonlocal``
declarations raise no line event, and code outside function bodies runs at
import, so none of them is listed.  Exits 1 if a statement is listed or
pytest fails.  Needs only the standard library; pytest does not collect it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tercode"
ran: set[tuple[str, int]] = set()
traced: dict[str, bool] = {}


def record(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return record


def on_call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in traced:
        traced[name] = Path(name).resolve().is_relative_to(SRC)
    return record if traced[name] else None


def statements(path: Path):
    """(first, last) line of each simple statement inside a function body."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, funcs):
            continue
        todo = list(func.body[1:] if ast.get_docstring(func) else func.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (*funcs, ast.ClassDef, ast.Global, ast.Nonlocal)):
                continue  # a nested def gets its own walk; the rest raise no line event
            clauses = getattr(node, "handlers", []) + getattr(node, "cases", [])
            inner = [s for f in ("body", "orelse", "finalbody") for s in getattr(node, f, [])]
            inner += [s for clause in clauses for s in clause.body]
            if inner:
                todo += inner
            else:
                yield node.lineno, node.end_lineno


def main() -> int:
    # the same examples on every run, and no deadline for the slower traced tests
    os.environ.setdefault("HYPOTHESIS_PROFILE", "ci")
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(sys.argv[1:] or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {(Path(f).resolve(), n) for f, n in ran}
    missed = [
        f"{path.relative_to(SRC.parent.parent)}:{first}"
        for path in sorted(SRC.glob("*.py"))
        for first, last in sorted(set(statements(path)))
        if not any((path, n) in lines for n in range(first, last + 1))
    ]
    print("\n".join(missed) or "every statement of src/tercode ran")
    return 1 if missed or status else 0


if __name__ == "__main__":
    sys.exit(main())
