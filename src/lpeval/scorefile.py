"""The score-file reader: a file in the instance CSV format read into the
counts of its distinct (distance, label, score...) rows. No graph code, and
no graph process loads it; :mod:`~lpeval.stratify` serves
``read_instances_csv`` from here on first access."""

from __future__ import annotations

import csv
import io
import re
import warnings

import numpy as np

from .cells import InstanceCounts, _int_cell, _sorted_unique, parse_distance
from .errors import IngestError


def _label_cell(text):
    """1 or 0 for a label cell, -1 for an empty (unlabeled) one."""
    return -1 if text == "" else int(_int_cell(text) != 0)


# The distance and label cells are read as bytes into one 16-byte field
# pair, two uint64 words: as wide as the two int64 columns they stand for.
# A distance cell has at most 12 bytes ("disconnected"), a label cell at
# most 2; a cell that fills its width may have been cut short, so it is an
# error.
_CELL_DTYPE = np.dtype([("distance", "S13"), ("label", "S3")])
# Records read by one np.loadtxt call of the loadtxt path. Its structured
# chunk (32 B a record with one score column) is the only copy of the rows,
# so the read holds one chunk besides the table of distinct rows. The block
# path parses at most as many distinct tails at once, besides one block's.
_READ_ROWS = 1 << 13
# Rows of a chunk whose cells are decoded at a time: each temporary of a
# block takes at most 64 KiB, small enough for the allocator to reuse from
# block to block.
_DECODE_ROWS = 1 << 12
# The most distinct values that _ranks finds a value's rank among by a
# binary search.
_SEARCH_VALUES = 8
# The id cells, read only to check that they are there: one character of
# each (a longer id is cut, an empty cell reads ""). Unlike S1, U1 takes a
# character outside latin-1.
_ID_DTYPE = np.dtype([("u", "U1"), ("v", "U1")])
# Characters of the body that the block path reads at a time, extended to
# the end of the line they cut. A block's temporaries take a few times its
# size, so a larger block holds more and reads no faster.
_BLOCK_CHARS = 1 << 16
# _LOW_BYTES[k] keeps the first k bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _ranks(col):
    """Each value's rank among the distinct values of ``col``, and how many
    distinct values there are.

    A binary search in a few values takes a few steps; among more, an
    argsort is several times faster than a search per value.
    """
    values = _sorted_unique(col)
    if values.size <= _SEARCH_VALUES:
        return np.searchsorted(values, col), values.size
    order = np.argsort(col)
    ordered = col[order]
    new = np.empty(col.size, dtype=np.int64)
    new[:1] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(col.size, dtype=np.int64)
    rank[order] = np.cumsum(new, out=new)
    return rank, values.size


def _distinct_rows(words):
    """Each row's index among the distinct rows of ``words`` (rows x k,
    8-byte integers), and those distinct rows.

    A row's code is built word by word from the word's rank among that
    word's distinct values, so distinct rows have distinct codes. Before a
    word would take the codes past int64, they are replaced by their ranks
    among the distinct codes.
    """
    code = np.zeros(len(words), dtype=np.int64)
    span = 1  # every code is below it
    for col in words.T:
        rank, size = _ranks(col)
        if span * size > 1 << 63:
            code, span = _ranks(code)
        code *= size
        code += rank
        span *= size
    index, size = _ranks(code)
    row = np.empty(size, dtype=np.intp)
    row[index] = np.arange(index.size)  # any row of each distinct code
    return index, words[row]


def _cell_values(cells):
    """The distance and label of a row's byte cells, or why it has none."""
    values = []
    parsers = (parse_distance, _label_cell)
    for name, raw, parse in zip(_CELL_DTYPE.names, cells, parsers):
        if len(raw) == _CELL_DTYPE[name].itemsize:
            return f"{name} cell {raw!r}... is too long"
        try:
            values.append(parse(raw.decode("ascii")))
        except UnicodeDecodeError:
            return f"{name} cell {raw!r} is not ASCII"
        except ValueError:
            return f"cannot read {name} cell {raw.decode('ascii')!r}"
    return tuple(values)


def _decode_cells(rows, start, known, sink, width=2):
    """Decode the byte cells of ``rows``, records ``start`` on, for ``sink``.

    Blocks of _DECODE_ROWS rows are decoded in order. Each block's rows
    are grouped by their first ``width`` 8-byte words from the distance
    cell on: the two words of the byte cells, then the bit patterns of as
    many score columns as follow them. Each distinct pair of cells is
    parsed once: ``known`` holds the values of every pair parsed so far, or
    why it has none. ``sink(first, index, cells)`` takes each block's first
    record, each of its rows' index among its distinct rows, and those
    distinct rows as int64 columns: distance, label (1, 0, or -1 for an
    empty cell), then the score bit patterns. Returns the first record with
    a cell that cannot be read and why, or None.
    """
    words = rows.view(np.dtype({"names": ["cells"], "formats": [(np.uint64, (width,))],
                                "offsets": [rows.dtype.fields["distance"][1]],
                                "itemsize": rows.dtype.itemsize}))["cells"]
    for lo in range(0, len(rows), _DECODE_ROWS):
        index, distinct = _distinct_rows(
            np.ascontiguousarray(words[lo:lo + _DECODE_ROWS]))
        if width > 2:  # the distinct pairs of cells among the distinct rows
            pair, pairs = _distinct_rows(np.ascontiguousarray(distinct[:, :2]))
        else:
            pair, pairs = np.arange(len(distinct)), distinct
        values = []
        for cells in pairs.view(_CELL_DTYPE).ravel().tolist():
            if cells not in known:
                known[cells] = _cell_values(cells)
            values.append(known[cells])
        failed = np.array([isinstance(v, str) for v in values])
        if failed.any():
            row = int(np.argmax(failed[pair[index]]))
            return start + lo + row, values[pair[index[row]]]
        sink(start + lo, index,
             np.column_stack([np.array(values, dtype=np.int64)[pair],
                              distinct[:, 2:].view(np.int64)]))
    return None


class _CellCounts:
    """int64 rows, each standing for as many rows as its count, gathered
    from blocks of distinct rows.

    Blocks wait until they hold more rows than the merged table and than
    _READ_ROWS, and are then merged with it into distinct rows at once. A
    merge that keeps more than half of its rows puts off the next one until
    the waiting rows are three times the table, one doubling later: with
    nearly as many cells as rows, a merge does more work than it saves. So
    n rows cost O(n log n) however many are distinct, and the rows held are
    at most about four times the distinct rows seen, plus two chunks,
    whatever their order.
    """

    def __init__(self, width):
        self.width = width
        self.rows = [np.empty((0, width), dtype=np.int64)]
        self.counts = [np.empty(0, dtype=np.int64)]
        self.waiting, self.due = 0, _READ_ROWS

    def add(self, rows, counts):
        self.rows.append(rows)
        self.counts.append(counts)
        self.waiting += len(rows)

    def settle(self):
        """Merge the waiting blocks if they are due."""
        if self.waiting > self.due:
            self.merge()

    def merge(self):
        """The distinct rows and their counts, all blocks merged."""
        rows, counts = np.concatenate(self.rows), np.concatenate(self.counts)
        self.rows = self.counts = None  # the blocks, freed for the merge
        index, rows = _distinct_rows(rows)
        counts, kept = np.zeros(len(rows), dtype=np.int64), counts
        np.add.at(counts, index, kept)
        self.rows, self.counts = [rows], [counts]
        self.waiting = 0
        self.due = max(len(rows) if 2 * len(rows) <= len(index) else 3 * len(rows),
                       _READ_ROWS)
        return rows, counts


def _tail_words(data, lo, size):
    """The bytes ``data[lo:lo + size]`` of each row as little-endian uint64
    columns, 8 bytes a column as far as the longest row, each row's bytes
    past its end zero. ``data`` ends in 8 bytes that no row holds."""
    word_at = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    words = []
    for j in range(-(-int(size.max()) // 8)):
        at = np.minimum(size, 8 * j)  # a row that has ended keeps no byte
        words.append(word_at[lo + at] & _LOW_BYTES[np.minimum(size - at, 8)])
    return words


def _tail_lines(words):
    """The bytes of the tails that ``words`` hold, one line each: a row is a
    tail's words, as :func:`_tail_words` gives them, and a tail has no NUL,
    so its bytes are the row's bytes that are not 0."""
    text = np.full((len(words), 8 * words.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = words.view(np.uint8)
    return text[text != 0].tobytes()


def _block_tails(data, fields):
    """The distinct tails of a block of whole lines, the UTF-8 bytes
    ``data``, as the cells from the distance on, one line each, and how
    many rows carry each; None if the block has a quote, a CR or a NUL, a
    row that has not ``fields`` cells (a blank line has one) or has an
    empty id, or tails that are not ASCII.

    The rows are cut at the bytes ',' and '\\n' and grouped by the bytes of
    their tails (:func:`_distinct_rows`).
    """
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    # A last line without a newline gets one, and _tail_words 8 more bytes.
    data += (b"" if data.endswith(b"\n") else b"\n") + bytes(8)
    byte = np.frombuffer(data, dtype=np.uint8, count=len(data) - 8)
    cut = np.flatnonzero((byte == ord(",")) | (byte == ord("\n")))
    if cut.size % fields:
        return None
    cut = cut.reshape(-1, fields)
    ends = np.full(fields, ord(","), dtype=np.uint8)
    ends[-1] = ord("\n")
    if (byte[cut] != ends).any():
        return None  # a row with fewer cells than ``fields`` or more
    end = cut[:, -1]
    if cut[0, 0] == 0 or (cut[1:, 0] == end[:-1] + 1).any() \
            or (cut[:, 1] == cut[:, 0] + 1).any():
        return None  # an empty id
    lo = cut[:, 1] + 1
    size = end - lo
    del cut, end
    index, rows = _distinct_rows(np.column_stack(_tail_words(data, lo, size)))
    lines = _tail_lines(rows)
    return (lines, np.bincount(index)) if lines.isascii() else None


def _count_blocks(src, body, fields, dtype, known, table):
    """Count the rows of the body from offset ``body`` on into ``table``
    by their distinct (distance, label, score...) cells, and return its
    merged rows and counts, or None if a block cannot be read this way.

    The body is read _BLOCK_CHARS characters at a time, to the end of the
    line the block cuts, and each block is reduced to its distinct tails
    (:func:`_block_tails`). Tails wait until the next block's would take
    them past _READ_ROWS; then ``np.loadtxt`` parses them into ``dtype``,
    :func:`_decode_cells` decodes them, and each adds the count of its rows
    to the table. None also stands for bytes that are not UTF-8 and a tail
    that cannot be read.

    Once _READ_ROWS rows are read and more than half of them are their
    block's distinct tails, as in a continuous score column, the rest of
    the body is read by :func:`_count_records`; None if it finds a
    malformed record. Grouping such rows saves few parses: on 1M rows of
    one continuous column the block path alone reads about a quarter
    slower than the loadtxt path (``BENCH_27.json``, ``switch``).
    """
    tails, counts = [], []  # the blocks' distinct tails, not yet parsed
    rows = distinct = 0  # the rows read, and their blocks' distinct tails

    def parse():
        """Parse the waiting tails into the table; False if one cannot be."""
        count = np.concatenate(counts)
        try:  # ASCII lines, which np.loadtxt reads from bytes as latin-1
            parsed = _loadtxt(io.BytesIO(b"".join(tails)), dtype)
        except ValueError:
            return False
        tails.clear()
        counts.clear()

        def put(first, index, cells):
            table.add(cells, np.bincount(index, count[first:first + len(index)],
                                         len(cells)).astype(np.int64))

        if _decode_cells(parsed, 0, known, put, table.width) is not None:
            return False
        del parsed, count  # before the table is merged
        table.settle()
        return True

    while True:
        try:
            text = src.read(_BLOCK_CHARS)
            if text[-1:] not in ("", "\n"):
                text += src.readline()
        except UnicodeDecodeError:
            return None
        if not text:
            break
        data = text.encode("utf-8")
        del text
        block = _block_tails(data, fields)
        del data
        if block is None:
            return None
        lines, count = block
        if tails and sum(map(len, counts)) + len(count) > _READ_ROWS \
                and not parse():
            return None
        tails.append(lines)
        counts.append(count)
        rows += int(count.sum())
        distinct += len(count)
        if rows >= _READ_ROWS and 2 * distinct > rows:
            if not parse():
                return None
            # The cells so far wait in a new table, as a read from the first
            # record holds them: its merges then come when that read's do.
            rest = _CellCounts(table.width)
            rest.add(*table.merge())
            try:
                return _count_records(src, body, _ID_DTYPE.descr + dtype, known,
                                      rest, rows)
            except IngestError:
                return None
    if tails and not parse():
        return None
    return table.merge()


def _record_line(fh, body, record):
    """1-based line on which data record ``record`` starts.

    Records count from 0 after the header line and skip blank lines, as
    ``np.loadtxt`` counts them; the body is re-read from offset ``body``.
    """
    fh.seek(body)
    reader = csv.reader(fh)
    start, seen = 0, 0
    try:
        for row in reader:
            if row:
                if seen == record:
                    return start + 2
                seen += 1
            start = reader.line_num
    except csv.Error:
        pass
    return record + 2


# How np.loadtxt names the row a ValueError is about: a data record (blank
# lines not counted), from 0 for a cell it cannot convert and from 1 for a
# wrong field count.
_CELL_ERROR = re.compile(r" at row (\d+), ")
_WIDTH_ERROR = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")


def _loadtxt_failure(exc):
    """The message of a ValueError of ``np.loadtxt`` and the record it
    names (None if it names none)."""
    text = str(exc)
    width = _WIDTH_ERROR.search(text)
    if width is not None:
        return f"expected {width[1]} fields, found {width[2]}", int(width[3]) - 1
    cell = _CELL_ERROR.search(text)
    if cell is not None:
        return text[:cell.start()] + " at " + text[cell.end():], int(cell[1])
    return text, None


def _not_text(exc):
    """The IngestError of a UnicodeDecodeError, without its position in
    whichever block of the file was being decoded."""
    return IngestError(f"'{exc.encoding}' codec can't decode "
                       f"{exc.object[exc.start:exc.end]!r}: {exc.reason}")


def _loadtxt(fh, dtype, **kwargs):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        # max_rows counts records, not lines, as the line numbers do.
        warnings.filterwarnings("ignore", "Input line .* contained no data",
                                UserWarning)
        return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1, **kwargs)


def _first_bad_record(rows, start, known, sink, width=2):
    """The first of ``rows``, records ``start`` on, with an empty id or a
    cell that cannot be read, and why, or None; ``sink`` takes the decoded
    cells as of :func:`_decode_cells`."""
    bad = _decode_cells(rows, start, known, sink, width)
    empty = np.flatnonzero((rows["u"] == "") | (rows["v"] == ""))
    if empty.size and (bad is None or start + empty[0] < bad[0]):
        name = "u" if rows["u"][empty[0]] == "" else "v"
        return start + int(empty[0]), f"empty {name} cell"
    return bad


def _first_bad_cell(src, body, first, record, known):
    """The first of records ``first`` to ``record - 1`` with an empty id or
    a cell that cannot be read, and why, or None. The records are re-read
    from offset ``body`` in the chunks of the first pass; the chunks before
    ``first`` are read but not decoded."""
    src.seek(body)
    dtype = _ID_DTYPE.descr + _CELL_DTYPE.descr
    for start in range(0, record, _READ_ROWS):
        cells = _loadtxt(src, dtype, usecols=(0, 1, 2, 3),
                         max_rows=min(_READ_ROWS, record - start))
        if start >= first:
            bad = _first_bad_record(cells, start, known, lambda *_: None)
            if bad is not None:
                return bad
    return None


def _count_records(src, body, dtype, known, table, n=0):
    """Count the records of the body, record ``n`` on, into ``table`` by
    their distinct (distance, label, score...) cells, and return its merged
    rows and counts. ``src`` is at record ``n`` of the body, which starts at
    offset ``body``.

    ``np.loadtxt`` reads the records in chunks of _READ_ROWS into
    ``dtype``, and each chunk's cells are decoded by :func:`_decode_cells`
    into distinct rows, which the table merges as they come
    (:class:`_CellCounts`). The first malformed record raises an
    :class:`~lpeval.errors.IngestError` with its line.
    """
    def put(_, index, cells):
        table.add(cells, np.bincount(index, minlength=len(cells)))

    read = _READ_ROWS
    while read == _READ_ROWS:
        try:
            rows = _loadtxt(src, dtype, max_rows=_READ_ROWS)
        except UnicodeDecodeError as exc:
            raise _not_text(exc) from None
        except ValueError as exc:
            message, record = _loadtxt_failure(exc)
            if record is not None:
                record += n
                # The chunk's records before the failed one are not
                # checked yet; the first malformed record may be there.
                bad = (_first_bad_cell(src, body, n, record, known)
                       if record > n else None)
                if bad is not None:
                    record, message = bad
            raise IngestError(message, line=None if record is None
                              else _record_line(src, body, record)) from None
        read = len(rows)
        bad = _first_bad_record(rows, n, known, put, table.width)
        if bad is not None:
            raise IngestError(bad[1], line=_record_line(src, body, bad[0]))
        del rows  # before the next chunk is read, or the table merged
        table.settle()
        n += read
    return table.merge()


def _first_empty_label(src, body, records):
    """The first of the ``records`` records of the body, which starts at
    offset ``body``, whose label cell is empty, or None."""
    src.seek(body)
    for start in range(0, records, _READ_ROWS):
        label = _loadtxt(src, "U1", usecols=3, max_rows=_READ_ROWS)
        empty = np.flatnonzero(label == "")
        if empty.size:
            return start + int(empty[0])
    return None


def read_instances_csv(path_or_file):
    """The :class:`InstanceCounts` of the instances in a file written by
    :func:`~lpeval.stratify.write_instances_csv`: its distinct (distance,
    label, score...) rows and how many rows each stands for. No row is kept.

    Third-party score files in the same format are accepted, which is how
    externally produced (e.g. supervised) predictors enter the evaluation
    pipeline. Ids may be any strings (``score`` writes node labels); they
    are checked for presence only, and an empty id cell is an error.

    The block path reads the body in blocks of _BLOCK_CHARS characters,
    each to the end of the line it cuts (:func:`_count_blocks`). A block's
    rows are cut at ',' and '\\n' by byte compares and grouped by the raw
    bytes of their tails, the cells from the distance on, so only each
    block's distinct tails are parsed, by ``np.loadtxt``: scores into
    float64, the distance and label cells as ASCII bytes of a fixed width
    (at most 12 and 2 bytes), which are decoded once per distinct pair of
    cells (:func:`_decode_cells`). Each tail adds the count of the rows
    that carry it to a table of distinct rows, which is merged as blocks
    come (:class:`_CellCounts`) and once more at the end. Once _READ_ROWS
    rows are read and more than half of them were distinct tails of their
    block, as in a continuous score column, the rest of the body is read by
    the loadtxt path.

    The loadtxt path (:func:`_count_records`) parses every record with
    ``np.loadtxt`` in chunks of _READ_ROWS, the id cells as one character
    each. A quote, a CR line end or a blank line in a block, and any block
    that cannot be read by bytes (a malformed row, bytes that are not
    UTF-8), send the whole read back to the first record on this path,
    which finds the malformed row. Both paths give the same counts. The
    cells are joint over every score column: with several columns there
    may be as many as the product of each column's cells, up to one a row.

    A malformed row raises :class:`~lpeval.errors.IngestError` with its
    line number, the first such row if there are several, and so does a
    label column that is empty on some rows but not all. A stream that
    cannot seek is read into memory first, since the read may start over
    and an error makes second passes over the records.
    """
    close = not hasattr(path_or_file, "read")
    fh = (open(path_or_file, "r", encoding="utf-8", newline="") if close
          else path_or_file)
    try:
        try:
            first = fh.readline()
            src = fh if fh.seekable() else io.StringIO(fh.read())
        except UnicodeDecodeError as exc:
            raise _not_text(exc) from None
        body = src.tell()
        header = next(csv.reader([first]), None)
        if header is None or header[:4] != ["u", "v", "distance", "label"]:
            raise IngestError("expected header u,v,distance,label[,score...]", line=1)
        score_names = [h[6:] if h.startswith("score_") else "score"
                       for h in header[4:]]
        # The score columns follow the byte cells, so that rows can be
        # grouped by the words from the distance cell on.
        tail = _CELL_DTYPE.descr + [(f"score{i}", np.float64)
                                    for i in range(len(score_names))]
        known = {}
        width = 2 + len(score_names)
        counted = _count_blocks(src, body, len(header), tail, known, _CellCounts(width))
        if counted is None:
            src.seek(body)
            counted = _count_records(src, body, _ID_DTYPE.descr + tail, known,
                                     _CellCounts(width))
        cells, count = counted
        label = cells[:, 1]
        if label.max(initial=-1) < 0:
            label = None
        elif label.min() < 0:
            raise IngestError("empty label in a labeled score file",
                              line=_record_line(src, body, _first_empty_label(
                                  src, body, int(count.sum()))))
        else:
            label = label.astype(bool)
        scores = {name: np.ascontiguousarray(cells[:, 2 + i]).view(np.float64)
                  for i, name in enumerate(score_names)}
        return InstanceCounts(np.ascontiguousarray(cells[:, 0]), label, scores, count)
    finally:
        if close:
            fh.close()
