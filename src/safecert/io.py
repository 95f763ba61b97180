"""Deterministic file IO: the one table format, provenance headers, atomic writes, checked reads.

A table is a ``# key=value ...`` provenance line (config hash, seed, and the
cell's alpha and T where there is one), a line of column names and one
comma-separated row per record, floats as ``.17g`` so they read back bit for
bit.  Writes go through a temp file plus rename, so readers never observe a
half-written file and interrupted runs leave no torn output.  ``read_table``
checks a file's header and column names and decodes it, by default through
``parse_table``, which refuses non-finite cells; a decode error names the file.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["atomic_write", "header_comment", "format_table", "parse_table", "table_array",
           "read_table"]


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


def format_table(columns, rows, header: str = "") -> str:
    """The ``# header`` line if any, the column names, then the rows: floats
    as ``.17g``, everything else with ``str``."""
    buf = io.StringIO()
    if header:
        buf.write(f"# {header}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(
        [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in rows
    )
    return buf.getvalue()


def _reader(text: str):
    """The csv rows of ``text``, column names first; comment and blank lines are skipped."""
    return csv.reader(line for line in io.StringIO(text) if line.strip() and not line.startswith("#"))


def parse_table(text: str, dtype=float) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(header fields, column names, cells as a 2-d array of ``dtype``).

    Comment and blank lines other than the header are skipped; a non-finite
    cell of a float table is refused with a ValueError naming its row and column.
    """
    reader = _reader(text)
    columns = next(reader)
    # rows are converted as they are read, so the text is never held as cells
    data = np.array([[dtype(v) for v in row] for row in reader], dtype).reshape(-1, len(columns))
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
    ``decode`` is raised again with the path in front.
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
        names = next(_reader(text), [])
        if names != list(columns):
            raise ValueError(f"{path}: columns are {names}, not {list(columns)}")
    try:
        return decode(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
