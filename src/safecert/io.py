"""Deterministic file IO: the one table format, provenance headers, atomic writes, checked reads.

A table is a ``# key=value ...`` provenance line (config hash, seed, and the
cell's alpha and T where there is one), a line of column names and one
comma-separated row per record, floats as ``.17g`` so they read back bit for
bit.  The format has no quoting: no cell or column name holds a comma, a
double quote or a line break.  A table is formatted and parsed in one pass
each: ``format_table`` applies one row template, repeated per row, with one
``%`` to all the cells, and ``parse_table`` converts all the cells with one
``np.array`` call.  Writes go through a temp file plus rename, so readers
never observe a half-written file and interrupted runs leave no torn output.
``read_table`` checks a file's header and column names and decodes it, by
default through ``parse_table``, which refuses ragged rows and non-finite
cells; a decode error names the file.
"""

from __future__ import annotations

import os
import re
import tempfile
from itertools import chain, repeat
from pathlib import Path

import numpy as np

__all__ = ["atomic_write", "header_comment", "format_table", "parse_table", "table_array",
           "read_table"]

# what the csv module would have quoted; the format has no quoting
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
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


def _column_line(text: str) -> str | None:
    """The first of ``_data_lines(text)``, None without one, found without
    splitting the rest of the text.

    Each "\n"-ended piece is split on its own: ``str.splitlines`` breaks at
    every "\n", so its lines are those of the pieces in turn ("\r\n" ends a
    piece in "\r", which it drops as it would the pair).
    """
    start = 0
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        lines = _data_lines(text[start:end])
        if lines:
            return lines[0]
        start = end + 1
    return None


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


def table_array(text: str) -> np.ndarray:
    """The cells of a float table, as ``parse_table`` reads them."""
    return parse_table(text)[2]


def read_table(path: str | Path, decode=table_array, columns=None, **expect):
    """``decode`` of the text of the table at ``path``, whose header must hold
    each keyword and whose column line, when ``columns`` is given, must be
    those names in that order.

    A missing file raises FileNotFoundError, a header holding other values or
    another column line a ValueError naming both, and a ValueError of
    ``decode`` is raised again with the path in front.  The column line is
    read off the head of the text, so only ``decode`` splits all of it.
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
    if columns is not None:
        line = _column_line(text)
        names = line.split(",") if line is not None else []
        if names != list(columns):
            raise ValueError(f"{path}: columns are {names}, not {list(columns)}")
    try:
        return decode(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
