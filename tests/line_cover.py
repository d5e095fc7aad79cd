"""A statement and branch coverage gate for ``src/causalspaces``, built on the standard library.

The gate runs the tier-1 tests in this process under one ``sys.settrace``
collector, installed for new threads too through ``threading.settrace``. For
each code object whose file is a module of ``src/causalspaces`` it records
the arcs between the consecutive lines one frame runs; an arc from 0 enters
the frame (a call, a resumed generator or an exception handler), and an arc
to minus the code object's first line leaves it. From each module's ``ast``
it then requires that

- every statement runs, docstrings, ``global`` and ``nonlocal`` aside;
- every ``if`` and ``while`` has an arc into its body and an arc past it;
- every ``for`` has an arc into its body.

A gap is named by its module, the definition it sits in and the first line
of its statement's text, never by line number. ``ALLOWED`` names the gaps
that no test reaches, each with a one-line argument; an entry forgives every
gap of its statement and of the statements nested in it. The run exits 1 on
a gap that the list does not name, and on an entry that names no single
statement or whose statement has no gap (the list is stale). It exits 2 when
the tests fail under the collector, or when ``causalspaces`` would be
imported from anywhere but ``src/``.

Run from the repository root (pytest does not collect this file):

    python3 tests/line_cover.py
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "causalspaces"

ALLOWED = {
    ("cli.py", "", 'if __name__ == "__main__":'):
        "its body runs only as `python -m causalspaces.cli`, in a fresh process, and the collector traces its own process alone",
    ("oracle.py", "oracle_effect_brute", "return NO_EFFECT"):
        "every verdict has one of the four tags in _PRIORITY and there is at least one verdict, so the loop returns first; the oracle keeps its literal end",
    ("scores.py", "ate", "if sequential != direct:"):
        "safety code: the intervention axioms make the two rows equal, and the guard reports a fault in the kernels if they ever differ",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Collector:
    """The line arcs of every frame of code whose file lies under `root`, per file."""

    def __init__(self, root: Path):
        self.prefix = f"{root}{os.sep}"
        self.arcs: dict[str, set[tuple[int, int]]] = {}
        self._files: dict[str, set | None] = {}  # file name -> its arc set, or None when it lies outside root

    def __call__(self, frame, event, arg):
        """The global trace function: hands each frame under `root` a local one of its own."""
        name = frame.f_code.co_filename
        try:
            arcs = self._files[name]
        except KeyError:
            arcs = self._files[name] = self.arcs.setdefault(name, set()) if name.startswith(self.prefix) else None
        if arcs is None:
            return None
        last, leave = 0, -frame.f_code.co_firstlineno

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                arcs.add((last, line))
                last = line
            elif event == "exception":
                last = 0  # whatever runs next in this frame is entered by the exception, not by the last line
            elif event == "return" and last:
                arcs.add((last, leave))
            return local

        return local

    def run(self, call):
        """``call()`` under this collector; the trace functions in place before are put back afterwards."""
        outer, outer_threads = sys.gettrace(), threading.gettrace()
        threading.settrace(self)
        sys.settrace(self)
        try:
            return call()
        finally:
            sys.settrace(outer)
            threading.settrace(outer_threads)


def _first(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _head(node: ast.stmt) -> range:
    """The lines of a statement up to its body: a compound statement's header, a simple statement's text."""
    body = getattr(node, "body", None)
    return range(_first(node), body[0].lineno if body else node.end_lineno + 1)


def _entry(node: ast.stmt) -> set[int]:
    """The lines on which running `node` may begin; ``try:`` itself runs no line."""
    return set(_head(node)) | (_entry(node.body[0]) if isinstance(node, ast.Try) else set())


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, *_DEFS)) and parent.body[0] is node
        and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def _statements(parent: ast.AST, scope: str, leave: int):
    """(statement, its enclosing definition's name, the exit arc's target of its code object) for each statement."""
    for child in ast.iter_child_nodes(parent):
        if isinstance(child, ast.stmt) and not _is_docstring(child, parent):
            yield child, scope, leave
        if isinstance(child, _DEFS):
            yield from _statements(child, f"{scope}.{child.name}".lstrip("."), -_first(child))
        else:
            yield from _statements(child, scope, leave)


def gaps(source: str, arcs: set[tuple[int, int]]) -> list[tuple[ast.stmt, str, str]]:
    """(statement, its enclosing definition's name, what is missing) for each gap of one module's source."""
    ran, succ = set(), {}
    for x, y in arcs:
        ran.add(y)
        succ.setdefault(x, set()).add(y)
    found = []
    for node, scope, leave in _statements(ast.parse(source), "", -1):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if not ran & _entry(node):
            found.append((node, scope, "never runs"))
            continue
        if not isinstance(node, (ast.If, ast.While, ast.For, ast.AsyncFor)):
            continue
        head, body = set(_head(node)), _entry(node.body[0])
        after = set().union(*(succ.get(x, ()) for x in head)) - head
        if not after & body:
            found.append((node, scope, "never enters its body"))
        if isinstance(node, (ast.If, ast.While)) and not any(y > 0 or y == leave for y in after - body):
            found.append((node, scope, "never goes past its body"))
    return found


def report(package: Path, arcs: dict[str, set[tuple[int, int]]], allowed: dict) -> list[str]:
    """The problems of a collected run: gaps that `allowed` does not name, and stale entries of `allowed`."""
    problems = [f"allow-list: {key} names 0 statements" for key in allowed if not (package / key[0]).is_file()]
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        statements = list(_statements(ast.parse(source), "", -1))
        spans = {}
        for key in (k for k in allowed if k[0] == path.name):
            named = [n for n, scope, _ in statements if (scope, lines[n.lineno - 1].strip()) == key[1:]]
            if len(named) != 1:
                problems.append(f"allow-list: {key} names {len(named)} statements")
            else:
                spans[key] = range(_first(named[0]), named[0].end_lineno + 1)
        used = set()
        for node, scope, what in gaps(source, arcs.get(str(path), set())):
            forgiven = {key for key, span in spans.items() if node.lineno in span}
            used |= forgiven
            if not forgiven:
                problems.append(f"{path.name}:{node.lineno} ({scope or 'module'}) {lines[node.lineno - 1].strip()}  {what}")
        problems += [f"allow-list: {key} is stale, its statement has no gap" for key in sorted(set(spans) - used)]
    return problems


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    spec = importlib.util.find_spec("causalspaces")
    if spec is None or Path(spec.origin).resolve().parent != PACKAGE:
        print(f"causalspaces would be imported from {spec and spec.origin}, not from {PACKAGE}; nothing run")
        return 2
    import pytest

    os.chdir(ROOT)
    collector = Collector(PACKAGE)
    start = time.perf_counter()
    status = collector.run(lambda: pytest.main(["-q", "--continue-on-collection-errors"]))
    seconds = time.perf_counter() - start
    if status != 0:
        print(f"the tests fail under the collector (pytest exit {status}); no coverage judged")
        return 2
    problems = report(PACKAGE, collector.arcs, ALLOWED)
    for problem in problems:
        print(problem)
    print(f"tests ran in {seconds:.1f} s under the collector; {len(problems)} problems, {len(ALLOWED)} allow-listed statements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
