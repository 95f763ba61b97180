"""List the statements of src/safecert that the library's real traffic never reaches.

    OPENBLAS_NUM_THREADS=1 python tests/golden/traffic.py

runs, in this one process:

* the six sweep configs of tests/golden/tree_diff.py (``sweep``, ``tiny``,
  ``pipeline``, ``dependent``, ``penalised``, ``low-rank``), each as one serial
  ``safecert sweep``;
* the three benchmark workloads of bench/workloads.py at full scale and seed
  1: set-up, one pass and its checks;
* the five demos under demos/.

It traces, with ``sys.settrace``, only frames whose code lies under
src/safecert/, from before safecert is first imported, so statements run at
import count as reached.  Pool workers are not traced, so every run here is
serial; tests/golden/tree_diff.py and CI cover ``--threads 2``.  Nothing
under bench/ is changed: its workloads are imported and called.

One line is printed per statement that no run reached, as
``path:line: source``, with the statement's first line as its source.  A
simple statement counts as reached when any of its lines ran; a compound one
(``if``, ``for``, ``try``, a nested ``def`` ...) when a line of its header
did or its first body statement was reached.  Docstrings are skipped, and so
are module-level ``def``, ``class`` and ``import`` lines (the bodies of the
``def`` and ``class`` are not) and ``global`` and ``nonlocal``
declarations, which run no code.  Validation paths make up most of the
report: no sound run raises them.

The exit status is 0 when every run succeeded, whatever the report lists,
and 1 when one failed; a failed run is named on standard error.  It takes
about 12 s at one BLAS thread on a 2-core Xeon.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "safecert"
WORKLOADS = ("desk-dp", "pipeline", "diag")


class Tracer:
    """Record the lines run in frames whose code file lies under ``root``:
    ``lines`` maps each such file to the set of its line numbers that ran."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.lines: dict[str, set[int]] = {}
        self._local = {}  # file -> its frames' local trace function

    def __enter__(self) -> "Tracer":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None  # no line events for this frame
        local = self._local.get(path)
        if local is None:
            add = self.lines.setdefault(path, set()).add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

            self._local[path] = local
        return local


def _skipped(node: ast.stmt, index: int, parent: ast.AST) -> bool:
    """Whether the report leaves ``node``, statement ``index`` of the body of
    ``parent``, out: a docstring, a module-level def, class or import, or a
    global or nonlocal declaration."""
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    if isinstance(parent, ast.Module) and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
        return True
    return (index == 0 and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                               ast.AsyncFunctionDef))
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _bodies(node: ast.AST) -> list[list[ast.stmt]]:
    """The statement lists nested directly in ``node``, in source order."""
    lists = [getattr(node, name) for name in ("body", "orelse", "finalbody")
             if isinstance(getattr(node, name, None), list)]
    lists[1:1] = [handler.body for handler in getattr(node, "handlers", [])]
    return lists


def unreached(source: str, reached: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement of ``source`` that ``reached``, the
    line numbers that ran, does not cover, in source order; see the module
    docstring for when a statement counts as reached and what is skipped."""
    lines = source.splitlines()
    missed: list[tuple[int, str]] = []

    def visit(parent: ast.AST, body: list[ast.stmt]) -> None:
        for index, node in enumerate(body):
            if not _skipped(node, index, parent) and not was_reached(node):
                missed.append((node.lineno, lines[node.lineno - 1].strip()))
            for nested in _bodies(node):
                visit(node, nested)

    def was_reached(node: ast.stmt) -> bool:
        nested = _bodies(node)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if not nested:
            return not reached.isdisjoint(range(first, node.end_lineno + 1))
        body = nested[0]
        header = range(first, max(body[0].lineno, node.lineno + 1))
        return not reached.isdisjoint(header) or was_reached(body[0])

    tree = ast.parse(source)
    visit(tree, tree.body)
    return missed


def run_traffic(work: Path) -> list[str]:
    """Run every sweep, workload and demo; one line per run that failed."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests" / "golden"), str(REPO)]
    import safecert
    import tree_diff
    from bench import workloads
    from safecert import cli

    if Path(safecert.__file__).parent != PACKAGE:
        return [f"safecert was imported from {safecert.__file__}, not from {PACKAGE}"]
    failed = []
    for name, text in tree_diff.configs().items():
        config = work / f"{name}.cfg"
        config.write_text(text)
        code = cli.main(["sweep", "--config", str(config), "--out", str(work / name)])
        if code:
            failed.append(f"sweep {name}: exit {code}")
    for name in WORKLOADS:
        inputs = workloads.setup(name, 1, "full", work / f"bench-{name}")
        ops = workloads.Ops()
        workloads.score_pass(inputs, ops, workloads.run_pass(inputs, ops))
        failed += [f"workload {name}: {failure}" for failure in ops.failures]
    for demo in sorted((REPO / "demos").glob("*.py")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        except Exception as exc:  # named, and the other demos still run
            failed.append(f"demo {demo.name}: {type(exc).__name__}: {exc}")
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        with Tracer(PACKAGE) as tracer:
            failed = run_traffic(Path(tmp))
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path.read_text(), tracer.lines.get(str(path), set())):
            print(f"{path.relative_to(REPO).as_posix()}:{line}: {text}")
    for failure in failed:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
