"""Strict CSV reading and writing.

The accepted dialect is deliberately narrow: comma separator, dot decimal
point, one header row of names matching ``[A-Za-z0-9_]+``, every row the
same width, every cell a finite number.  Anything else raises a specific
``CsvError`` subclass naming the offending row or cell.  Written files
use ``repr`` for floats so a write/read round trip is exact.

A plain file (digits, ``.eE+-``, commas and newlines after the header)
is read by ``np.loadtxt``; every other file, and every error, goes
through the line-by-line parser, which gives the same matrix.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np

from .errors import (
    CsvError,
    DuplicateNameError,
    EmptyCsvError,
    InvalidHeaderError,
    MissingColumnError,
    NonNumericCellError,
    RaggedRowError,
)
from .model import Role, TimeSeriesDataset

__all__ = [
    "read_matrix_csv",
    "load_dataset",
    "load_future_matrix",
    "format_csv",
    "write_csv",
]

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
# the bytes a plain data body may hold, and the size of a scanned chunk
_PLAIN_BYTES = b"0123456789.eE+-,\n"
_CHUNK_BYTES = 1 << 20
# rows formatted at a time when writing
_BLOCK_ROWS = 4096


def read_matrix_csv(path) -> tuple:
    """Read a strict CSV file into (names, matrix).

    ``path`` may be a filesystem path or a text file object.  Row numbers
    in errors are 1-based file lines, the header being line 1.
    """
    if hasattr(path, "read"):
        return _parse(path)
    plain = _read_plain(path)
    if plain is not None:
        return plain
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse(fh)


def _read_plain(path):
    """(names, matrix) through ``np.loadtxt``, or None unless the file is plain.

    A plain file has a valid header line, then only digits, ``.eE+-``,
    commas and newlines, with at least one data row.  The file is scanned
    in chunks, so memory stays at the size of the matrix, and numpy reads
    the scanned handle.  The result is returned only when it has the
    header's width and every value is finite; numpy then converts each
    cell with the correctly rounded string-to-double that ``float`` uses,
    so ``_parse`` would give the same matrix.  Every other file goes to
    ``_parse``, the only source of errors and their line numbers.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            return None
        try:
            names = _check_header(header[:-1].decode("ascii").split(","))
        except (UnicodeDecodeError, CsvError):
            return None
        has_rows = False
        for chunk in iter(lambda: fh.read(_CHUNK_BYTES), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            has_rows = has_rows or bool(chunk.strip(b"\n"))
        if not has_rows:
            return None
        fh.seek(len(header))
        with io.TextIOWrapper(fh, encoding="ascii") as text:
            try:
                matrix = np.loadtxt(
                    text, delimiter=",", comments=None, ndmin=2, dtype=float
                )
            except ValueError:
                return None
    if matrix.shape[1] != len(names) or not np.isfinite(matrix).all():
        return None
    return names, matrix


def _check_header(cells) -> tuple:
    """The header's names, or the typed error for the first bad cell."""
    if not cells:
        raise EmptyCsvError("header row is empty")
    names = []
    for cell in cells:
        if not _NAME_RE.fullmatch(cell):
            raise InvalidHeaderError(cell)
        if cell in names:
            raise DuplicateNameError(cell)
        names.append(cell)
    return tuple(names)


def _parse(fh) -> tuple:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyCsvError("file has no header row") from None
    names = _check_header(header)
    width = len(names)
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise RaggedRowError(line_no, width, len(row))
        parsed = []
        for name, cell in zip(names, row):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCellError(line_no, name, cell) from None
            if not math.isfinite(value):
                raise NonNumericCellError(line_no, name, cell)
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise EmptyCsvError("file has a header but no data rows")
    return names, np.array(rows, dtype=float)


def load_dataset(path, dependent=None, independent=None) -> TimeSeriesDataset:
    """Read a CSV file and assign variable roles by column name.

    With neither list every column is dependent.  Naming only one side
    sends the remaining columns to the other.  Naming both requires the
    two lists to partition the header exactly.
    """
    names, matrix = read_matrix_csv(path)
    dependent = list(dependent or [])
    independent = list(independent or [])
    for name in dependent + independent:
        if name not in names:
            raise MissingColumnError(name)
    overlap = set(dependent) & set(independent)
    if overlap:
        raise CsvError(
            f"columns named as both dependent and independent: "
            f"{sorted(overlap)}"
        )
    if dependent and independent:
        leftover = [n for n in names if n not in dependent and n not in independent]
        if leftover:
            raise CsvError(
                f"columns {leftover} assigned to neither role; when both "
                f"role lists are given they must cover every column"
            )
    if dependent:
        roles = [
            Role.DEPENDENT if n in dependent else Role.INDEPENDENT for n in names
        ]
    else:
        roles = [
            Role.INDEPENDENT if n in independent else Role.DEPENDENT for n in names
        ]
    # the matrix was built here and nothing else holds it, so the dataset
    # freezes it in place instead of copying it
    return TimeSeriesDataset._adopt(matrix, names, roles)


def load_future_matrix(path, expected_names) -> np.ndarray:
    """Read future independent-variable rows, reordered to expected_names."""
    names, matrix = read_matrix_csv(path)
    expected = list(expected_names)
    for name in expected:
        if name not in names:
            raise MissingColumnError(name)
    extra = [n for n in names if n not in expected]
    if extra:
        raise CsvError(f"unexpected columns {extra}; expected {expected}")
    order = [names.index(n) for n in expected]
    return matrix[:, order]


def format_csv(names, matrix) -> str:
    """CSV text with repr floats; exact under a read round trip."""
    return "".join(_csv_blocks(names, matrix))


def write_csv(path, names, matrix) -> None:
    """Write ``format_csv``'s text to a path or a text file object."""
    blocks = _csv_blocks(names, matrix)
    if hasattr(path, "write"):
        return path.writelines(blocks)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(blocks)


def _csv_blocks(names, matrix):
    """Check the names, then return an iterator over the text in blocks.

    The header comes first, then the rows ``_BLOCK_ROWS`` at a time, so
    ``write_csv`` never holds more than one block of text.  A block is one
    ``%`` operation with a ``%r`` per cell, which is ``repr``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    for name in names:
        if not _NAME_RE.fullmatch(str(name)):
            raise InvalidHeaderError(str(name))
    row = ",".join(["%r"] * matrix.shape[1]) + "\n"
    blocks = (matrix[i : i + _BLOCK_ROWS] for i in range(0, len(matrix), _BLOCK_ROWS))
    text = ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    return itertools.chain([",".join(map(str, names)) + "\n"], text)
