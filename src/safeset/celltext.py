"""Cell text for the CSV and JSON writers, each distinct value formatted once.

A column becomes a small table of distinct cell strings and an index
giving each row's string. Numbers are keyed by their raw bits, so ``-0.0``
and ``0.0`` (and NaNs of different payloads) stay apart, and each key is
written once by ``repr``, the shortest text that reads back to the same
float; bools read 0/1. Labels go once each through ``csv.writer``, so they
are quoted as the ``csv`` module quotes them. Shortest round-trip
formatting costs far more than gathering a string, and the artifacts
repeat values heavily: raster axes, neutral fills, trajectory frames,
sizes and lanes.

:func:`write_rows` gathers the rows a chunk at a time, each distinct string
already followed by its separator, and joins each chunk into one string,
so only one chunk's gathered strings are alive at a time.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence, TextIO

import numpy as np

CHUNK_ROWS = 4096
"""Rows gathered and written per join."""

Cells = tuple[np.ndarray, np.ndarray]
"""Distinct cell strings (an object array) and each row's index into them."""


def number_cells(col: np.ndarray, present: np.ndarray | None = None) -> Cells:
    """Cells of a 1-D float, int or bool column: floats and ints by ``repr``,
    bools as 0/1, and an empty cell where ``present`` is False.

    The index takes the narrowest unsigned type that holds it, so a long
    column's index costs a byte or two a row while the file is written.
    """
    col = np.asarray(col)
    if col.dtype == bool:
        col = col.view(np.uint8)
    bits, index = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    texts = list(map(repr, bits.view(col.dtype).tolist()))
    index = index.reshape(-1)
    if present is not None:
        index = np.where(present, index, len(texts))
        texts.append("")
    return np.array(texts, dtype=object), index.astype(np.min_scalar_type(len(texts)))


def label_cells(labels: Sequence[str], codes: np.ndarray) -> Cells:
    """Cells of a label column held as integer ``codes`` into ``labels``,
    each label quoted as ``csv.writer`` quotes a field of a row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    texts = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        # a second, empty field: a row of one empty field is written as ""
        writer.writerow((label, ""))
        texts.append(buf.getvalue()[: -len(",\r\n")])
    return np.array(texts, dtype=object), np.asarray(codes)


def write_rows(fh: TextIO, header: Sequence[str], columns: Sequence[Cells]) -> None:
    """Write ``header`` by ``csv.writer``, then one row per index of the
    ``columns``, comma-separated and ended by ``\\r\\n`` as ``csv.writer``
    writes them. (``csv.writer`` would quote a row whose only cell is
    empty; no file written here has one.)

    Each column's distinct strings are extended in place by the separator
    that follows them, so the columns are spent once written.
    """
    csv.writer(fh).writerow(header)
    for j, (texts, _) in enumerate(columns):
        texts += "," if j + 1 < len(columns) else "\r\n"
    n = len(columns[0][1])
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        cells = np.empty((hi - lo, len(columns)), dtype=object)
        for j, (texts, index) in enumerate(columns):
            cells[:, j] = texts[index[lo:hi]]
        fh.write("".join(cells.ravel().tolist()))
