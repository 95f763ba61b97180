"""The public surface: what each module exports, what the package re-exports,
and what the benchmark's tracer wraps.

A deletion or rename that breaks one of these fails here, naming the name,
before it breaks an import or a benchmark run.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import safecert

MODULES = sorted(m.name for m in pkgutil.iter_modules(safecert.__path__))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from .module import name`` in safecert/__init__.py."""
    tree = ast.parse(Path(safecert.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _traced() -> list[tuple[str, str]]:
    """(module, attribute) of every function the benchmark's tracer wraps or counts."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({*tracing.SPANNED, *tracing.COUNTED})


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"safecert.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"safecert.{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module, name", _package_imports())
def test_package_reexports_only_exported_names(module, name):
    assert name in importlib.import_module(f"safecert.{module}").__all__, (
        f"safecert/__init__.py imports {name} from safecert.{module}, whose __all__ lacks it")


@pytest.mark.parametrize("module, dotted", _traced())
def test_every_traced_name_resolves(module, dotted):
    holder = importlib.import_module(f"safecert.{module}")
    for part in dotted.split("."):
        assert hasattr(holder, part), (
            f"bench/tracing.py wraps safecert.{module}.{dotted}, which does not exist")
        holder = getattr(holder, part)


def test_no_return_annotation_joins_an_array_with_a_scalar():
    """Every query takes a batch and returns an array of values, one per
    point or trajectory; a function annotated to return ``np.ndarray | float``
    (or ``| bool``) keeps a second, single-point path."""
    forked = []
    for path in sorted(Path(safecert.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                members = {m.strip(" '\"") for m in ast.unparse(node.returns).split("|")}
                if "np.ndarray" in members and members & {"float", "bool"}:
                    forked.append(f"{path.stem}.{node.name}")
    assert not forked, f"return annotations join np.ndarray with float or bool: {forked}"
