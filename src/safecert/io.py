"""Deterministic file IO: the one table format, provenance headers, atomic writes, checked reads.

A table is a ``# key=value ...`` provenance line (config hash, seed, and the
cell's alpha and T where there is one), a line of column names and one
comma-separated row per record, floats as ``.17g`` so they read back bit for
bit.  The format has no quoting: no cell or column name holds a comma, a
double quote or a line break.  A table is formatted and parsed in one pass
each: ``format_table`` applies one row template, repeated per row, with one
``%`` to all the cells, and ``parse_table`` converts all the cells with one
``np.array`` call.  Writes go through a temp file plus rename, so readers
never observe a half-written file and interrupted runs leave no torn output;
the file gets the mode a plain ``open`` gives it.  ``read_table`` checks a
file's header, parses it once with ``parse_table`` (which refuses ragged rows
and non-finite cells), checks the parsed column names and hands the cells to
a decoder; every error names the file.
"""

from __future__ import annotations

import os
import re
from itertools import chain, repeat
from pathlib import Path

import numpy as np

__all__ = ["atomic_write", "header_comment", "format_table", "parse_table", "read_table"]

# what the csv module would have quoted; the format has no quoting
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def atomic_write(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and a rename.

    The temp file is created as ``open`` creates a file, with mode 0o666
    that the OS reduces by the umask, and exclusively, so its random name is
    never another writer's file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def header_comment(config_hash: str, seed: int, **extra) -> str:
    parts = [f"config={config_hash}", f"seed={seed}"]
    parts += [f"{k}={v}" for k, v in sorted(extra.items())]
    return " ".join(parts)


def _header_fields(text: str) -> dict[str, str]:
    """The ``key=value`` fields of a table's leading comment line; {} without one."""
    first = text.partition("\n")[0]
    if not first.startswith("#"):
        return {}
    return dict(tok.split("=", 1) for tok in first[1:].split() if "=" in tok)


def _data_lines(text: str) -> list[str]:
    """The lines of ``text``, column names first, without comment and blank lines."""
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _check_plain(strings, where: str) -> None:
    """Refuse a string the unquoted format cannot hold."""
    bad = next(filter(_NEEDS_QUOTES.search, strings), None)
    if bad is not None:
        raise ValueError(f"{where} {bad!r} holds a comma, a quote or a line break")


def format_table(columns, rows, header: str = "") -> str:
    """The ``# header`` line if any, the column names, then the rows: floats
    as ``.17g``, everything else with ``str``.

    ``rows`` is a 2-d array or a sequence of rows.  Each column takes the
    type of its cell in the first row, and one template of ``%.17g`` and
    ``%s`` fields, repeated per row, formats all the cells with one ``%``; a
    float array needs no type check.  A ValueError refuses a row of another
    width than ``columns``, a column holding floats and other cells (either
    would print other bytes than its first row's rule), and a column name or
    non-float cell holding a comma, a quote or a line break.
    """
    columns = list(map(str, columns))
    _check_plain(columns, "column name")
    k = len(columns)
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        if rows.shape[1:] != (k,):
            raise ValueError(f"a {rows.shape} array is not a table of {k} columns")
        n, is_float, cells = len(rows), [True] * k, rows.ravel().tolist()
    else:
        rows = rows.tolist() if isinstance(rows, np.ndarray) else [list(r) for r in rows]
        ragged = next((i for i, r in enumerate(rows) if len(r) != k), None)
        if ragged is not None:
            raise ValueError(f"row {ragged} has {len(rows[ragged])} cells, not {k}")
        n, cells = len(rows), list(chain.from_iterable(rows))
        is_float = [isinstance(v, float) for v in rows[0]] if rows else [True] * k
        for j, name in enumerate(columns):
            column = cells[j::k]
            if sum(map(isinstance, column, repeat(float))) != (n if is_float[j] else 0):
                row = next(i for i, v in enumerate(column) if isinstance(v, float) != is_float[j])
                raise ValueError(f"row {row}, column {name} mixes floats with other cells")
            if not is_float[j]:
                _check_plain(map(str, column), f"column {name} cell")
    row = ",".join("%.17g" if f else "%s" for f in is_float) + "\n"
    head = f"# {header}\n" if header else ""
    return head + ",".join(columns) + "\n" + (row * n) % tuple(cells)


def parse_table(text: str, dtype=float) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(header fields, column names, cells as a 2-d array of ``dtype``).

    Comment and blank lines other than the header are skipped.  The data
    lines are joined and split once, and one ``np.array(cells, dtype)``
    converts every cell: for floats that is ``float()``'s correctly rounded
    conversion and its error message.  A ValueError refuses a row of another
    width than the column line, naming the row, and a non-finite cell of a
    float table, naming its row and column.
    """
    lines = _data_lines(text)
    if not lines:
        raise ValueError("the table has no column line")
    columns, rows = lines[0].split(","), lines[1:]
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(len(columns) - 1) != len(rows):
        row = next(i for i, c in enumerate(commas) if c != len(columns) - 1)
        raise ValueError(f"row {row} has {commas[row] + 1} cells, not {len(columns)}")
    cells = ",".join(rows).split(",") if rows else []
    data = np.array(cells, dtype).reshape(len(rows), len(columns))
    bad = np.argwhere(~np.isfinite(data)) if data.dtype.kind == "f" else ()
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"row {row}, column {columns[col]} is not finite ({data[row, col]})")
    return _header_fields(text), columns, data


def read_table(path: str | Path, columns, decode=None, **expect):
    """The cells of the table at ``path``, or ``decode`` of them: its header
    must hold each keyword and its column line must be ``columns``, in order.

    A missing file raises FileNotFoundError and a header holding other values
    a ValueError naming both, before the text is parsed.  The text is then
    parsed once, by ``parse_table``; its errors, a column line other than
    ``columns`` and a ValueError of ``decode`` are raised as ValueErrors with
    the path in front.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing data file: {path}")
    text = path.read_text()
    got = _header_fields(text)
    if any(got.get(k) != str(v) for k, v in expect.items()):
        found = " ".join(f"{k}={got.get(k)}" for k in expect)
        wanted = " ".join(f"{k}={v}" for k, v in expect.items())
        raise ValueError(f"{path} was written under {found}, not {wanted}")
    try:
        _, names, data = parse_table(text)
        if names != list(columns):
            raise ValueError(f"columns are {names}, not {list(columns)}")
        return data if decode is None else decode(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
