"""What the graph path and the score-file reader share: distance buckets
and their text, counted instances and the CSV column helpers. No graph
code, so a process that reads a score file loads no graph module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows scored, labeled or written at a time: large enough that the
# per-chunk calls cost nothing, small enough that no whole-set temporary (a
# whole-file list of row strings, a key per candidate) is held.
_CHUNK_ROWS = 8192

BEYOND = 1_000_000_000
DISCONNECTED = 2_000_000_000


def distance_str(d):
    if d == BEYOND:
        return "beyond"
    if d == DISCONNECTED:
        return "disconnected"
    return str(int(d))


def _int_cell(text):
    """An integer cell as np.loadtxt reads an int64 column: blanks, an
    optional sign and ASCII digits. Python's int() alone also takes "1_0"
    and non-ASCII digits."""
    digits = text.strip()
    if digits.startswith(("+", "-")):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer cell {text!r}")
    return int(text)


def parse_distance(text):
    text = text.strip()
    if text == "beyond":
        return BEYOND
    if text == "disconnected":
        return DISCONNECTED
    return _int_cell(text)


@dataclass
class InstanceCounts:
    """The (distance, label, scores) cells of a set of instances, each
    entry standing for ``count`` rows (int64; None: one row an entry). A
    cell may have more than one entry.

    ``label`` is None for unlabeled instances, and ``scores`` maps score
    names to float64 columns, as in :class:`~lpeval.stratify.InstanceSet`.
    :class:`~lpeval.metrics.Ranking` takes ``count`` as its ``counts``.
    """

    distance: np.ndarray
    label: np.ndarray | None
    scores: dict
    count: np.ndarray | None


def _sorted_unique(a):
    """The distinct values of an integer array, ascending.

    ``np.unique`` without a ``return_*`` flag hashes integers (numpy >= 2.3),
    which is several times slower than this sort, and imports ``numpy.ma``.
    """
    a = np.sort(a, axis=None)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def csv_cells(values, fmt, sep):
    """One CSV column of 8-byte ``values`` as ``(cells, distinct)``:
    ``distinct`` holds the column's distinct bit patterns (int64, sorted)
    and ``cells[j]`` the text of ``distinct[j]``.

    ``fmt`` runs once per distinct bit pattern, so ``-0.0`` and ``0.0``
    keep their own text, and each cell ends with ``sep``, the separator
    that follows the column in a row. :func:`csv_chunks` looks the rows up.
    """
    distinct = _sorted_unique(values.view(np.int64))
    cells = [fmt(x) + sep for x in distinct.view(values.dtype).tolist()]
    return np.array(cells, dtype=object), distinct


def csv_chunks(columns, n, chunk_rows):
    """The text of ``n`` CSV rows, ``chunk_rows`` rows a string.

    Each column is ``(cells, distinct, values)``. Row i reads
    ``cells[values[i]]``, or with ``distinct`` (:func:`csv_cells`) the cell
    of ``values[i]``'s bit pattern, found by a binary search per chunk, so
    no index runs the length of the column. A chunk fills one
    (rows x columns) array of cells, joined at once.
    """
    for lo in range(0, n, chunk_rows):
        hi = min(n, lo + chunk_rows)
        rows = np.empty((hi - lo, len(columns)), dtype=object)
        for c, (cells, distinct, values) in enumerate(columns):
            index = values[lo:hi]
            if distinct is not None:
                index = distinct.searchsorted(index.view(np.int64))
            rows[:, c] = cells[index]
        yield "".join(rows.ravel().tolist())
