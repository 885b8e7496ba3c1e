"""The score-file reader: a file in the instance CSV format read into the
counts of its distinct (distance, label, score...) rows. No graph code, and
no graph process loads it; :mod:`~lpeval.stratify` serves
``read_instances_csv`` from here on first access.

A body is read on one path, in blocks of about _BLOCK_CHARS characters,
each to the end of a line. Lines end at '\\n', '\\r\\n' or a lone '\\r' on
every source, and blank lines are skipped. A block is cut into rows by its
bytes, quoted ids and all, and ``np.loadtxt`` parses its distinct tails,
the cells from the distance on. The first block that cannot be read so (a
NUL, a quote past the ids, a malformed row), and every block after it, is
read by one ``csv.reader`` pass, which counts each record and raises at the
first malformed one with the line it starts on.
"""

from __future__ import annotations

import csv
import io
import itertools
import re

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
# Lines that wait for one np.loadtxt call, besides one block's, and
# records that the csv pass counts at a time.
_READ_ROWS = 1 << 13
# The most distinct values that _ranks finds a value's rank among by a
# binary search, and the size of the sample it looks for them in.
_SEARCH_VALUES = 8
_SEARCH_SAMPLE = 64
# Characters of the body read at a time, extended to the end of the line
# they cut. A block's temporaries take a few times its size, so a larger
# block holds more and reads no faster.
_BLOCK_CHARS = 1 << 16
# _LOW_BYTES[k] keeps the first k bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# A line's two id cells and commas as csv reads them: each quoted, holding
# no NUL or line end, or unquoted, with no quote either; neither empty.
_ID_CELLS = re.compile(rb'^(?:(?:"(?:[^"\0\n]|"")+"|[^,"\0\n]+),){2}', re.M)


def _ranks(col):
    """Each value's rank among the distinct values of ``col``, and how many
    distinct values there are.

    A binary search in a few values takes a few steps; among more, an
    argsort is several times faster than a search per value. A column whose
    sample of about _SEARCH_SAMPLE values holds more than a few is not
    sorted for its values first.
    """
    if _sorted_unique(col[::max(1, col.size // _SEARCH_SAMPLE)]).size <= _SEARCH_VALUES:
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
    return rank, int(new[-1]) + 1


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


def _distinct_words(words):
    """The distinct values of ``words`` (uint64), ascending, and how many
    times each occurs: one sort and its run boundaries."""
    words = np.sort(words)
    new = np.empty(words.size, dtype=bool)
    new[:1] = True
    np.not_equal(words[1:], words[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return words[first], np.diff(first, append=words.size)


def _float_cell(text):
    """A score cell as np.loadtxt reads a float64 column: blanks around
    ASCII text that float() reads, with no '_' (which float() takes between
    digits)."""
    digits = text.strip()
    if not digits.isascii() or "_" in digits:
        raise ValueError(f"invalid float cell {text!r}")
    return float(digits)


def _cell_values(cells):
    """The distance and label of a row's two text cells, or why it has none."""
    values = []
    parsers = (parse_distance, _label_cell)
    for name, text, parse in zip(_CELL_DTYPE.names, cells, parsers):
        size = _CELL_DTYPE[name].itemsize
        if len(text) >= size:
            return f"{name} cell {text[:size]!r}... is too long"
        if not text.isascii():
            return f"{name} cell {text!r} is not ASCII"
        try:
            values.append(parse(text))
        except ValueError:
            return f"cannot read {name} cell {text!r}"
    return tuple(values)


def _decode_cells(words, known):
    """Each row's index among the distinct rows of ``words``, the 8-byte
    words of rows as ``np.loadtxt`` parsed them from the byte cells on, and
    those rows as int64 columns (distance, label: 1, 0 or -1 for an empty
    cell, then the score bit patterns); None if a byte cell cannot be read.

    Each distinct pair of byte cells is parsed once: ``known`` holds the
    values of every pair parsed so far, or why it has none.
    """
    index, distinct = _distinct_rows(words)
    pair, pairs = _distinct_rows(distinct[:, :2])
    values = []
    for cells in pairs.view(_CELL_DTYPE).ravel().tolist():
        if cells not in known:  # latin-1: one character a byte
            known[cells] = _cell_values([c.decode("latin-1") for c in cells])
        values.append(known[cells])
    if any(isinstance(v, str) for v in values):
        return None
    return index, np.column_stack([np.array(values, dtype=np.int64).reshape(-1, 2)[pair],
                                   distinct[:, 2:].view(np.int64)])


class _CellCounts:
    """int64 rows, each standing for as many rows as its count, gathered
    from blocks of distinct rows.

    Blocks wait until they hold more rows than the merged table and than a
    quarter of _READ_ROWS, and are then merged with it into distinct rows at
    once: a small table's merges then peak below one parse of _READ_ROWS
    lines, so the read's peak does not move with where they fall. A
    merge that keeps more than half of its rows puts off the next one until
    the waiting rows are three times the table, one doubling later: with
    nearly as many cells as rows, a merge does more work than it saves. So
    n rows cost O(n log n) however many are distinct, and the rows held are
    at most about four times the distinct rows seen, plus one block's,
    whatever their order.
    """

    def __init__(self, width):
        self.rows = [np.empty((0, width), dtype=np.int64)]
        self.counts = [np.empty(0, dtype=np.int64)]
        self.waiting, self.due = 0, _READ_ROWS // 4

    def add(self, rows, counts):
        """Add ``rows`` with their counts, and merge if the waiting rows are
        due."""
        self.rows.append(rows)
        self.counts.append(counts)
        self.waiting += len(rows)
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
                       _READ_ROWS // 4)
        return rows, counts


def _tail_words(word_at, lo, size):
    """The bytes ``lo:lo + size`` of each row as little-endian uint64
    columns, 8 bytes a column as far as the longest row, each row's bytes
    past its end zero. ``word_at[i]`` is the word at byte i."""
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
    """A block of whole lines, the UTF-8 bytes ``data``, as ``(lines,
    counts, ids)``: the lines to parse, how many rows each stands for, and
    whether they are the block's rows, ids and all. None if the block has a
    NUL, a quote outside the id cells that :data:`_ID_CELLS` reads, a row
    that has not ``fields`` cells or has an empty id, or tails that are not
    ASCII.

    CR and CRLF line ends become '\\n', blank lines are dropped, and in a
    block with a quote each line's ids become ``x,x,``. If the last 8 bytes
    of the rows (of every 8th row in a block of 64 or more) are mostly
    distinct, as in a continuous score column, grouping would save few
    parses, and an ASCII block is its own lines. Otherwise the rows are cut
    at the bytes ',' and '\\n', and the lines are the block's distinct
    tails, the cells from the distance on: tails of one word counted by one
    sort (:func:`_distinct_words`), longer ones grouped by
    :func:`_distinct_rows`.
    """
    if b"\r" in data:  # a CRLF line end becomes a blank line
        data = data.replace(b"\r", b"\n")
    if b'"' in data:  # an id is only checked for presence
        data = _ID_CELLS.sub(b"x,x,", data)
    if b'"' in data or b"\0" in data:
        return None
    # A last line without a newline gets one, and word_at 8 more bytes.
    data += (b"" if data.endswith(b"\n") else b"\n") + bytes(8)
    byte = np.frombuffer(data, dtype=np.uint8, count=len(data) - 8)
    cut = np.flatnonzero((byte == ord(",")) | (byte == ord("\n")))
    end = cut[byte[cut] == ord("\n")]
    if end[0] == 0 or (np.diff(end) == 1).any():  # blank lines
        data = b"\n".join(filter(None, data[:-8].split(b"\n")))
        return _block_tails(data, fields) if data else \
            (b"", np.empty(0, dtype=np.int64), False)
    word_at = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    # The first line may be shorter than a word.
    last = np.sort(word_at[np.maximum((end[::8] if len(end) >= 64 else end) - 8, 0)])
    if 2 * (1 + np.count_nonzero(last[1:] != last[:-1])) > len(last) and data.isascii():
        return data[:-8], np.ones(len(end), dtype=np.int64), True
    if cut.size != fields * end.size:
        return None
    cut = cut.reshape(-1, fields)
    if (cut[:, -1] != end).any():
        return None  # a row with fewer cells than ``fields`` or more
    end = cut[:, -1]
    if cut[0, 0] == 0 or (cut[1:, 0] == end[:-1] + 1).any() \
            or (cut[:, 1] == cut[:, 0] + 1).any():
        return None  # an empty id
    lo = cut[:, 1] + 1
    size = end - lo
    del cut
    words = _tail_words(word_at, lo, size)
    if len(words) == 1:
        tails, counts = _distinct_words(words[0])
        lines = _tail_lines(tails[:, None])
    else:
        index, tails = _distinct_rows(np.column_stack(words))
        lines, counts = _tail_lines(tails), np.bincount(index)
    return (lines, counts, False) if lines.isascii() else None


def _texts(src):
    """The rest of ``src`` in blocks of about _BLOCK_CHARS characters,
    each to the end of a line. No block is held once the next is read."""
    def block():
        text = src.read(_BLOCK_CHARS)
        return text + src.readline() if text[-1:] not in ("", "\n") else text

    return iter(block, "")


def _line_ends(text):
    """How many lines ``text`` ends: at '\\n', '\\r\\n' or a lone '\\r'."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _records(src, body, first):
    """``(line, row)`` of each record of the body, which starts at position
    ``body`` of ``src`` on line 2, from its block ``first`` on
    (:func:`_texts`), as ``csv.reader`` reads it with lines ending at
    '\\n', '\\r\\n' or a lone '\\r'. Blank lines are skipped; a csv error is
    an IngestError at its record's line."""
    src.seek(body)
    texts = _texts(src)
    line = 2 + sum(map(_line_ends, itertools.islice(texts, first)))
    reader = csv.reader(part for text in texts for part in io.StringIO(text, newline=""))
    start = line
    try:
        for row in reader:
            if row:
                yield start, row
            start = line + reader.line_num
    except csv.Error as exc:
        raise IngestError(str(exc), line=start) from None


def _row_values(at, row, fields, pairs):
    """A record's csv row, which starts on line ``at``, as (distance, label,
    score...) by the grammar the block path reads; an IngestError at that
    line if it is malformed. ``pairs`` holds the values of each (distance,
    label) pair of cells read so far, or why it has none."""
    if len(row) != fields:
        raise IngestError(f"expected {fields} fields, found {len(row)}", line=at)
    for name, cell in zip("uv", row):
        if cell == "":
            raise IngestError(f"empty {name} cell", line=at)
        if "\0" in cell:  # no other cell reads with one
            raise IngestError(f"NUL in {name} cell", line=at)
    cells = (row[2], row[3])
    if cells not in pairs:
        pairs[cells] = _cell_values(cells)
    values = pairs[cells]
    if isinstance(values, str):
        raise IngestError(values, line=at)
    scores = []
    for column, cell in enumerate(row[4:], 5):
        try:
            scores.append(_float_cell(cell))
        except ValueError:
            raise IngestError(f"could not convert string {cell!r} to float64 at column "
                              f"{column}", line=at) from None
    return values + tuple(scores)


def _count_csv(src, body, first, fields, table):
    """Count the records of the body from its block ``first`` on into
    ``table`` (:func:`_records`), and raise an IngestError at the first
    malformed one, with the line it starts on."""
    pairs = {}
    records = (_row_values(at, row, fields, pairs) for at, row in _records(src, body, first))
    while rows := list(itertools.islice(records, _READ_ROWS)):
        # A distance has at most 12 digits, which float64 holds exactly.
        cells = np.array(rows, dtype=np.float64)
        table.add(np.column_stack([cells[:, :2].astype(np.int64),
                                   cells[:, 2:].view(np.int64)]),
                  np.ones(len(rows), dtype=np.int64))


def _count_body(src, body, fields, dtype, table):
    """Count the body of ``src``, which starts at its position ``body``,
    into ``table`` by its distinct (distance, label, score...) rows, and
    return the index of the first block of the first parse with an empty
    label cell, or of the csv pass's first block if no parse before it had
    one; None if neither.

    Each block is cut by :func:`_block_tails`. Its lines wait until the
    next block's would take them past _READ_ROWS or are of the other kind
    (tails, or whole rows, whose ids ``np.loadtxt`` reads as one character
    each, which an empty id leaves empty); then ``np.loadtxt`` parses them
    into ``dtype``, :func:`_decode_cells` decodes them, and each distinct
    row adds the count of its rows to the table. If waiting blocks cannot
    be parsed together, they are parsed one by one up to the first that
    cannot be. From that block, or from one that cannot be cut,
    :func:`_count_csv` counts the rest of the body, and raises at a
    malformed record with its line; no record is counted twice.
    """
    known = {}
    waiting = []  # (index, lines, counts, ids) of the blocks not yet parsed
    empty = failed = None

    def parse(first, lines, counts, ids):
        """Count the parsed ``lines`` of the blocks from ``first`` on into
        the table; False if they cannot be."""
        nonlocal empty
        try:  # ASCII lines, which np.loadtxt reads from bytes as latin-1
            rows = np.loadtxt(io.BytesIO(lines), delimiter=",", comments=None, ndmin=1,
                              dtype=[("u", "U1"), ("v", "U1")] + dtype if ids else dtype)
        except ValueError:
            return False
        words = rows.view(np.uint64).reshape(len(rows), -1)
        if ids:
            if ((rows["u"] == "") | (rows["v"] == "")).any():
                return False
            words = words[:, 1:]
        decoded = _decode_cells(words, known)
        if decoded is None:
            return False
        del rows, words  # before the table is merged
        index, cells = decoded
        if empty is None and (cells[:, 1] < 0).any():
            empty = first
        table.add(cells, np.bincount(index, counts, len(cells)).astype(np.int64))
        return True

    def flush():
        """Parse the waiting blocks; the index of the first that cannot be
        parsed, or None."""
        blocks = waiting[:]
        waiting.clear()
        if not blocks or parse(blocks[0][0], b"".join(b[1] for b in blocks),
                               np.concatenate([b[2] for b in blocks]), blocks[0][3]):
            return None
        for block in blocks[:-1]:
            if not parse(*block):
                return block[0]
        return blocks[-1][0]  # the blocks fail together, so the last does

    for i, data in enumerate(map(str.encode, _texts(src))):
        block = _block_tails(data, fields)
        if block is None or waiting and (
                block[2] != waiting[0][3]
                or sum(len(b[2]) for b in waiting) + len(block[1]) > _READ_ROWS):
            failed = flush()
            if failed is None and block is None:
                failed = i
            if failed is not None:
                break
        if len(block[1]):
            waiting.append((i, *block))
    else:
        failed = flush()
    if failed is not None:
        _count_csv(src, body, failed, fields, table)
        empty = failed if empty is None else empty
    return empty


def read_instances_csv(path_or_file):
    """The :class:`InstanceCounts` of the instances in a file written by
    :func:`~lpeval.stratify.write_instances_csv`: its distinct (distance,
    label, score...) rows and how many rows each stands for. No row is kept.

    Third-party score files in the same format are accepted, which is how
    externally produced (e.g. supervised) predictors enter the evaluation
    pipeline. Ids may be any strings (``score`` writes node labels); they
    are checked for presence only, and an empty id cell is an error.

    The body is read in blocks of _BLOCK_CHARS characters, each to the end
    of the line it cuts (:func:`_count_body`). Lines end at '\\n', '\\r\\n'
    or a lone '\\r', on every source, and blank lines are skipped. A
    block's rows, quoted ids and all, are cut at ',' and the line ends by
    byte compares and grouped by the raw bytes of their tails, the cells
    from the distance on, so that ``np.loadtxt`` parses only each block's
    distinct tails (:func:`_block_tails`); a block whose tails are mostly
    distinct, as in a continuous score column, is parsed whole. Each row
    adds its count to a table of distinct rows (:class:`_CellCounts`). The
    cells are joint over every score column: with several columns there may
    be as many as the product of each column's cells, up to one a row.

    A block with a NUL, a quoted cell past the ids or with a line end, or a
    malformed row, and the rest of the body after it, is read by one
    ``csv.reader`` pass with the same grammar (:func:`_count_csv`), which
    counts each record and raises :class:`~lpeval.errors.IngestError` at
    the first malformed one, with the line it starts on; a NUL is an error
    wherever it is. A label column that is empty on some rows but not all
    is an error at its first empty label. A stream that cannot seek is read
    into memory first, since an error is located by reading its block again.
    """
    close = not hasattr(path_or_file, "read")
    fh = (open(path_or_file, "r", encoding="utf-8", newline="") if close
          else path_or_file)
    try:
        try:
            src = fh if fh.seekable() else io.StringIO(fh.read())
            # The header ends at the first line end of any kind.
            pos = src.tell()
            first = next(io.StringIO(src.readline(), newline=""), "")
            src.seek(pos)
            src.read(len(first))
            header = next(csv.reader([first]), None)
            if header is None or header[:4] != ["u", "v", "distance", "label"] \
                    or "\0" in first:
                raise IngestError("expected header u,v,distance,label[,score...]",
                                  line=1)
            score_names = [h[6:] if h.startswith("score_") else "score"
                           for h in header[4:]]
            # The score columns follow the byte cells, so that rows can be
            # grouped by the words from the distance cell on.
            tail = _CELL_DTYPE.descr + [(f"score{i}", np.float64)
                                        for i in range(len(score_names))]
            table = _CellCounts(2 + len(score_names))
            body = src.tell()
            empty = _count_body(src, body, len(header), tail, table)
        except UnicodeDecodeError as exc:  # without its position in a block
            raise IngestError(f"'{exc.encoding}' codec can't decode "
                              f"{exc.object[exc.start:exc.end]!r}: {exc.reason}") from None
        cells, count = table.merge()
        label = cells[:, 1]
        if label.max(initial=-1) < 0:
            label = None
        elif label.min() < 0:
            raise IngestError("empty label in a labeled score file", line=next(
                at for at, row in _records(src, body, empty) if row[3:4] == [""]))
        else:
            label = label.astype(bool)
        scores = {name: np.ascontiguousarray(cells[:, 2 + i]).view(np.float64)
                  for i, name in enumerate(score_names)}
        return InstanceCounts(np.ascontiguousarray(cells[:, 0]), label, scores, count)
    finally:
        if close:
            fh.close()
