"""tests/golden/traffic.py: its tracer and statement filter on an inline module."""

import importlib.util
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRAFFIC = REPO / "tests" / "golden" / "traffic.py"

MODULE = textwrap.dedent('''\
    """A module docstring: skipped."""
    from __future__ import annotations

    import math

    LIMIT = 2


    def used(x):
        """A function docstring: skipped."""
        count = 0

        def bump():
            nonlocal count
            count += 1

        try:
            bump()
            root = math.sqrt(
                x)
        finally:
            bump()
        if root > LIMIT:
            return root
        elif x < 0:
            raise ValueError("x must be nonnegative")
        return (count
                + root)


    def unused():
        return 1


    class Box:
        size = 2

        def area(self):
            return self.size * self.size

        @staticmethod
        def volume(side):
            return side ** 3
    ''')


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unreached_lists_the_statements_no_traced_call_ran(tmp_path):
    traffic = _load(TRAFFIC, "traffic")
    path = tmp_path / "inline.py"
    path.write_text(MODULE)
    with traffic.Tracer(tmp_path) as tracer:
        inline = _load(path, "inline")
        assert inline.used(1.0) == 3.0
        assert inline.Box().area() == 4
    got = traffic.unreached(MODULE, tracer.lines[str(path)])
    assert got == [
        (24, "return root"),
        (26, 'raise ValueError("x must be nonnegative")'),
        (32, "return 1"),
        (43, "return side ** 3"),
    ]
