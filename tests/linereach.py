"""A pytest plugin that fails the session when a statement of the renyireg
package never runs in-process.

    PYTHONPATH=src:tests python -m pytest -q -p linereach

Statements are found with ``ast``; executed lines are recorded with
``sys.settrace`` (and ``threading.settrace`` for threads started later), so
work done in subprocesses and pool workers is not seen.  A statement counts
as reached when a line of it runs: for a compound statement, a line of its
decorators or header.  Docstrings, ``global``/``nonlocal`` and bare
annotations in a function run no code and are not statements here.  The
only allowed miss is the body of ``cli.py``'s ``if __name__ == "__main__"``,
which runs only as a script.  Tracing roughly doubles the suite's time.
"""

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path

import pytest

# the one block that runs only as a script: its file and its if-test
SCRIPT_ONLY = ("cli.py", "__name__ == '__main__'")

_executed = {}  # file path -> executed line numbers
_missed = []


def _recorder(lines):
    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


_tracers = {}


def _trace_calls(frame, event, arg):
    return _tracers.get(frame.f_code.co_filename)


def _statements(path: Path) -> dict:
    """First line of each statement of ``path`` -> the lines that reach it."""
    found = {}

    def visit(body, in_function, holds_docstring):
        for k, node in enumerate(body):
            value = getattr(node, "value", None)
            docstring = (
                holds_docstring
                and k == 0
                and isinstance(node, ast.Expr)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            )
            silent = isinstance(node, (ast.Global, ast.Nonlocal)) or (
                in_function and isinstance(node, ast.AnnAssign) and value is None
            )
            if not (docstring or silent):
                start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                inner = getattr(node, "body", None)
                stop = inner[0].lineno if inner else node.end_lineno + 1
                found[start] = range(start, max(stop, start + 1))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True, True)
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, False, True)
                continue
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            if isinstance(node, ast.If) and (path.name, ast.unparse(node.test)) == SCRIPT_ONLY:
                blocks = [node.orelse]
            for block in blocks:
                visit(block, in_function, False)

    visit(ast.parse(path.read_text(), str(path)).body, False, True)
    return found


def pytest_configure(config):
    spec = importlib.util.find_spec("renyireg")
    for location in spec.submodule_search_locations:
        for path in sorted(Path(location).glob("*.py")):
            lines = _executed.setdefault(str(path), set())
            _tracers[str(path)] = _recorder(lines)
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_sessionfinish(session, exitstatus):
    replaced = sys.gettrace() is not _trace_calls
    sys.settrace(None)
    threading.settrace(None)
    if replaced:
        _missed.append("the trace function was replaced during the run")
    for name, lines in _executed.items():
        for first, reach in _statements(Path(name)).items():
            if lines.isdisjoint(reach):
                _missed.append(f"{os.path.relpath(name)}:{first}")
    if _missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("=", "line reach")
    for miss in _missed:
        terminalreporter.write_line(f"UNREACHED {miss}")
    if not _missed:
        terminalreporter.write_line(f"every statement of {len(_executed)} files reached")
