"""Deterministic file IO: the one table format, provenance headers, atomic writes.

A table is a ``# key=value ...`` provenance line (config hash, seed, and the
cell's alpha and T where there is one), a line of column names and one
comma-separated row per record, floats as ``.17g`` so they read back bit for
bit.  Writes go through a temp file plus rename, so readers never observe a
half-written file and interrupted runs leave no torn output.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["atomic_write", "header_comment", "format_table", "parse_table", "read_table"]


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


def parse_table(text: str, dtype=float) -> tuple[dict[str, str], list[str], np.ndarray]:
    """(header fields, column names, cells as a 2-d array of ``dtype``).

    Comment and blank lines other than the header are skipped.
    """
    lines = (line for line in io.StringIO(text) if line.strip() and not line.startswith("#"))
    reader = csv.reader(lines)
    columns = next(reader)
    # rows are converted as they are read, so the text is never held as cells
    data = np.array([[dtype(v) for v in row] for row in reader], dtype=dtype)
    return _header_fields(text), columns, data.reshape(-1, len(columns))


def read_table(path: str | Path, **expect) -> str:
    """Text of the table at ``path``; each keyword is a header field it must hold.

    A missing file raises FileNotFoundError, and a file whose header holds
    any other value raises ValueError naming both.
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
    return text
