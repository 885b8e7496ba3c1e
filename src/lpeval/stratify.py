"""Candidate-pair enumeration, geodesic stratification, and labeling.

Candidate pairs are non-adjacent unordered node pairs of a feature snapshot,
partitioned by shortest-path distance: finite buckets 2..L_max, plus two
sentinel buckets for pairs farther than L_max in the same component
(``BEYOND``) and pairs in different components or involving feature-unknown
nodes (``DISCONNECTED``). Sentinels are large integers so any finite
distance sorts and compares below them.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .config import GENERATION_MODES
from .errors import ConfigError, IngestError
from .graphstore import csv_field
# lpbench/tracing.py counts BFS sources by swapping ``stratify.bfs_levels``,
# so the name stays importable here although enumeration walks in blocks.
from .predictors import (_blocks, _sorted_unique, _walk, bfs_level_blocks, bfs_levels,
                         csv_cells, csv_chunks)

BEYOND = 1_000_000_000
DISCONNECTED = 2_000_000_000

# Rows joined into one string per write of the instance CSV writer, and
# rows labeled at a time: large enough that the per-chunk calls cost
# nothing, small enough that no whole-set temporary (a whole-file list of
# row strings, a key per candidate) is held.
_CHUNK_ROWS = 8192


def distance_str(d):
    if d == BEYOND:
        return "beyond"
    if d == DISCONNECTED:
        return "disconnected"
    return str(int(d))


def _int_cell(text):
    """An integer cell as np.loadtxt reads the id columns: blanks, an
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
class InstanceSet:
    """Column-oriented set of candidate pairs (u < v canonical).

    ``label`` is None for unlabeled candidates. ``scores`` maps predictor
    names to per-row score arrays. Rows keep a stable (distance, u, v) order
    as produced by enumeration; subsetting preserves row order.
    """

    u: np.ndarray
    v: np.ndarray
    distance: np.ndarray
    label: np.ndarray | None = None
    scores: dict = field(default_factory=dict)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.int64)
        self.v = np.asarray(self.v, dtype=np.int64)
        self.distance = np.asarray(self.distance, dtype=np.int64)
        if self.label is not None:
            self.label = np.asarray(self.label, dtype=bool)

    def __len__(self):
        return int(self.u.size)

    @property
    def n_pos(self):
        return 0 if self.label is None else int(self.label.sum())

    @property
    def n_neg(self):
        return 0 if self.label is None else int((~self.label).sum())

    def take(self, index):
        return InstanceSet(
            self.u[index], self.v[index], self.distance[index],
            None if self.label is None else self.label[index],
            {k: s[index] for k, s in self.scores.items()})


@dataclass
class InstanceCounts:
    """The (distance, label, scores) cells of a set of instances, each
    entry standing for ``count`` rows (int64; None: one row an entry). A
    cell may have more than one entry.

    ``label`` is None for unlabeled instances, and ``scores`` maps score
    names to float64 columns, as in :class:`InstanceSet`.
    :class:`~lpeval.metrics.Ranking` takes ``count`` as its ``counts``.
    """

    distance: np.ndarray
    label: np.ndarray | None
    scores: dict
    count: np.ndarray | None


def _components(s):
    """Component label of every node: the lowest node id it can reach.

    Hook-and-compress over the CSR arrays: each round hooks every root to
    the lowest root across its edges, then jumps every node to its root's
    root until nothing changes. A round that changes nothing ends it.
    """
    root = np.arange(s.n_universe, dtype=np.int64)
    src = np.repeat(root, np.diff(s.indptr))
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[src], root[s.indices])
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, root):
            return root
        root = hooked


def geodesic_bucket_enumerate(s, l_max, include_beyond=False,
                              include_disconnected=False):
    """Enumerate candidate pairs grouped by geodesic distance.

    Breadth-first expansion from blocks of sources, bounded at ``l_max``,
    emits each unordered non-adjacent pair exactly once, ordered by
    (distance, u, v). A pair still unreached at ``l_max`` is in the beyond
    bucket if its ends share a component and in the disconnected bucket if
    not; each sentinel bucket is emitted on request.

    The blocks are consecutive runs of the ascending node ids and each is
    read row-major, so its rows arrive in (u, v) order. Each block's rows
    are appended to the lists of their distances, which are then joined in
    distance order: besides the result, the enumeration holds the ``u`` and
    ``v`` of its rows once, and temporaries of one block.
    """
    if l_max < 2:
        raise ConfigError("l_max must be >= 2", field="lmax")
    nodes = s.node_ids
    us, vs = defaultdict(list), defaultdict(list)
    component = (_components(s) if include_beyond or include_disconnected
                 else None)
    for block, levels in bfs_level_blocks(s, nodes, l_max):
        lv = levels[:, nodes]
        keep = lv >= 2
        if include_beyond and include_disconnected:
            keep |= lv < 0
        elif component is not None:
            same = component[block][:, None] == component[nodes][None, :]
            keep |= (lv < 0) & (same if include_beyond else ~same)
        keep &= nodes[None, :] > block[:, None]
        rows, cols = np.nonzero(keep)
        d = lv[rows, cols]
        if component is not None:
            far = d < 0
            d[far] = np.where(component[block[rows[far]]]
                              == component[nodes[cols[far]]], BEYOND, DISCONNECTED)
        order = np.argsort(d, kind="stable")
        d, u, v = d[order], block[rows[order]], nodes[cols[order]]
        starts = np.flatnonzero(np.diff(d, prepend=-1)).tolist()  # d >= 2
        for lo, hi in zip(starts, starts[1:] + [d.size]):
            us[int(d[lo])].append(u[lo:hi])
            vs[int(d[lo])].append(v[lo:hi])
    if not us:
        empty = np.empty(0, dtype=np.int64)
        return InstanceSet(empty, empty, empty)
    values = sorted(us)
    sizes = [sum(part.size for part in us[value]) for value in values]
    # Each column's lists are freed once joined, before the next column is.
    u = np.concatenate([part for value in values for part in us.pop(value)])
    v = np.concatenate([part for value in values for part in vs.pop(value)])
    return InstanceSet(u, v, np.repeat(np.array(values, dtype=np.int64), sizes))


def _in_sorted(keys, table):
    """``np.isin(keys, table)`` for integer arrays and a sorted ``table``,
    by binary search."""
    if not table.size:
        return np.zeros(np.shape(keys), dtype=bool)
    at = np.searchsorted(table, keys)
    return table[np.minimum(at, table.size - 1)] == keys


def _isin(keys, table):
    """``np.isin(keys, table)`` for integer arrays, by binary search.

    On wide key ranges ``np.isin`` deduplicates ``table`` with a hashing
    ``np.unique`` that imports ``numpy.ma``; a sorted table needs neither.
    """
    return _in_sorted(keys, np.sort(table, axis=None))


def label_instances(candidates, label_snapshot):
    """Label each candidate positive iff it is an edge of the label snapshot.

    The edge keys are sorted once; the candidates' keys are built and looked
    up _CHUNK_ROWS rows at a time, so the temporaries are those of a chunk.
    """
    n = max(label_snapshot.n_universe, 1)
    eu, ev, _ = label_snapshot.edge_arrays()
    edge_keys = np.sort(eu * np.int64(n) + ev)
    labels = np.empty(len(candidates), dtype=bool)
    for start in range(0, labels.size, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        u, v = candidates.u[rows], candidates.v[rows]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.where((lo >= 0) & (hi < n), lo * np.int64(n) + hi, -1)
        labels[rows] = _in_sorted(keys, edge_keys)
    return InstanceSet(candidates.u, candidates.v, candidates.distance, labels,
                       dict(candidates.scores))


def generate_test_set(feature, label, mode="recommendation", l_max=2,
                      include_beyond=True, include_disconnected=True):
    """Build the labeled evaluation instance set for one window pair.

    recommendation mode draws candidate pairs from the feature snapshot's
    nodes only: links involving nodes first seen in the label period are
    unforeseeable and excluded. query mode adds pairs touching label-period
    nodes unknown to the feature snapshot; such pairs have no feature-side
    path, so they land in the disconnected bucket.
    """
    if mode not in GENERATION_MODES:
        raise ConfigError(f"unknown generation mode {mode!r}", field="mode")
    cands = geodesic_bucket_enumerate(feature, l_max,
                                      include_beyond=include_beyond,
                                      include_disconnected=include_disconnected)
    if mode == "query":
        feat_nodes = set(feature.node_ids.tolist())
        new_nodes = sorted(set(label.node_ids.tolist()) - feat_nodes)
        if new_nodes and include_disconnected:
            old = np.asarray(sorted(feat_nodes), dtype=np.int64)
            new = np.asarray(new_nodes, dtype=np.int64)
            extra_u, extra_v = [], []
            for i, x in enumerate(new):
                mates = np.concatenate([old, new[i + 1:]])
                extra_u.append(np.minimum(x, mates))
                extra_v.append(np.maximum(x, mates))
            eu = np.concatenate([cands.u] + extra_u)
            ev = np.concatenate([cands.v] + extra_v)
            ed = np.concatenate([cands.distance,
                                 np.full(sum(a.size for a in extra_u),
                                         DISCONNECTED, dtype=np.int64)])
            order = np.lexsort((ev, eu, ed))
            cands = InstanceSet(eu[order], ev[order], ed[order])
    return label_instances(cands, label)


def new_link_distance_distribution(feature, label):
    """Empirical distribution of prior geodesic distance over new links.

    Considers label-snapshot edges whose endpoints both exist in the feature
    snapshot and that are not already feature edges; returns a dict mapping
    distance (finite hop count or DISCONNECTED) to probability. Empty when
    no such edge exists. An edge across components is disconnected without
    a walk; the walk from each block of sources ends at the level that
    reaches its last target.
    """
    eu, ev, _ = label.edge_arrays()
    n = feature.n_universe
    inside = (eu < n) & (ev < n)
    eu, ev = eu[inside], ev[inside]
    deg = feature.degrees()
    fu, fv, _ = feature.edge_arrays()
    new = (deg[eu] > 0) & (deg[ev] > 0) & ~_isin(eu * n + ev, fu * n + fv)
    eu, ev = eu[new], ev[new]
    dist = np.full(eu.size, DISCONNECTED, dtype=np.int64)
    component = _components(feature)
    joined = np.flatnonzero(component[eu] == component[ev])
    sources, inverse = np.unique(eu[joined], return_inverse=True)
    first = 0
    for block in _blocks(feature, sources):
        sel = (inverse >= first) & (inverse < first + block.size)
        rows, pairs = inverse[sel] - first, joined[sel]
        # Each target shares its source's component, so the walk reaches it;
        # it ends at the level that reaches the block's last target.
        for level in _walk(feature, block):
            hops = level.levels[rows, ev[pairs]]
            if np.all(hops >= 0):
                break
        dist[pairs] = hops
        first += block.size
    values, counts = np.unique(dist, return_counts=True)
    total = int(counts.sum())
    return {d: c / total for d, c in zip(values.tolist(), counts.tolist())}


def _id_cells(id_labels, *columns):
    """The id cells of ``columns``: ``cells[i]`` is id ``i``'s quoted label
    and its separator, formatted only for the ids that occur."""
    seen = np.zeros(len(id_labels), dtype=bool)
    for ids in columns:
        seen[ids] = True
    cells = np.empty(len(id_labels), dtype=object)
    for i in np.flatnonzero(seen).tolist():
        cells[i] = csv_field(id_labels[i]) + ","
    return cells


def write_instances_csv(fh, instances, id_labels=None, score_keys=None):
    """Write ``u,v,distance,label[,score...]`` rows.

    Distance uses the bucket names for sentinels; the label column is empty
    for unlabeled candidates. Score columns follow in the given key order.
    Ids are CSV-quoted where needed (:func:`~lpeval.graphstore.csv_field`).
    Each distinct cell is formatted once, together with the separator after
    it: an id once per id that occurs, other columns once per distinct
    value, scores by bit pattern so ``-0.0`` and ``0.0`` keep their own
    text. The rows are written _CHUNK_ROWS at a time (:func:`csv_chunks`).
    """
    keys = list(score_keys if score_keys is not None else instances.scores)
    header = ["u", "v", "distance", "label"] + (["score"] if len(keys) == 1
                                                else [f"score_{k}" for k in keys])
    n = len(instances)
    end = [","] * (len(header) - 1) + ["\n"]  # the separator after each column
    if id_labels is None:
        columns = [(*csv_cells(instances.u, str, ","), instances.u),
                   (*csv_cells(instances.v, str, ","), instances.v)]
    else:
        ids = _id_cells(id_labels, instances.u, instances.v)
        columns = [(ids, None, instances.u), (ids, None, instances.v)]
    columns.append((*csv_cells(instances.distance, distance_str, ","),
                    instances.distance))
    if instances.label is None:
        columns.append((np.array([end[3]], dtype=object), None,
                        np.zeros(n, dtype=np.uint8)))
    else:
        columns.append((np.array(["0" + end[3], "1" + end[3]], dtype=object), None,
                        instances.label.view(np.uint8)))
    for k, sep in zip(keys, end[4:]):
        s = np.ascontiguousarray(instances.scores[k], dtype=np.float64)
        columns.append((*csv_cells(s, repr, sep), s))

    fh.write(",".join(header) + "\n")
    fh.writelines(csv_chunks(columns, n, _CHUNK_ROWS))


def _label_cell(text):
    """1 or 0 for a label cell, -1 for an empty (unlabeled) one."""
    return -1 if text == "" else int(_int_cell(text) != 0)


# The distance and label cells are read as bytes into one 16-byte field
# pair, two uint64 words: as wide as the two int64 columns they stand for.
# A distance cell has at most 12 bytes ("disconnected"), a label cell at
# most 2; a cell that fills its width may have been cut short, so it is an
# error.
_CELL_DTYPE = np.dtype([("distance", "S13"), ("label", "S3")])
# Records read by one np.loadtxt call. Its structured chunk (40 B a record
# with one score column) is the only copy of the rows, so the read holds one
# chunk besides the table of distinct rows.
_READ_ROWS = 1 << 13
# Rows of a chunk whose cells are decoded at a time: each temporary of a
# block takes at most 64 KiB, small enough for the allocator to reuse from
# block to block.
_DECODE_ROWS = 1 << 12
# The most distinct values that _ranks finds a value's rank among by a
# binary search.
_SEARCH_VALUES = 8


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


def _first_bad_cell(src, body, first, record, known):
    """The first of records ``first`` to ``record - 1`` with a cell that
    cannot be read, and why, or None. The records are re-read from offset
    ``body`` in the chunks of the first pass; the chunks before ``first``
    are read but not decoded."""
    src.seek(body)
    for start in range(0, record, _READ_ROWS):
        cells = _loadtxt(src, _CELL_DTYPE, usecols=(2, 3),
                         max_rows=min(_READ_ROWS, record - start))
        if start >= first:
            bad = _decode_cells(cells, start, known, lambda *_: None)
            if bad is not None:
                return bad
    return None


def read_instances_csv(path_or_file, id_index=None):
    """The :class:`InstanceCounts` of the instances in a file written by
    :func:`write_instances_csv`: its distinct (distance, label, score...)
    rows and how many rows each stands for. No row is kept.

    Third-party score files in the same format are accepted, which is how
    externally produced (e.g. supervised) predictors enter the evaluation
    pipeline. ``id_index`` maps external id strings to interned ints; without
    it ids must already be integers. The ids are checked, not returned.

    ``np.loadtxt`` parses the body in chunks of _READ_ROWS records: ids
    into int64 (through ``id_index`` when given, the only Python
    converter), scores into float64, and the distance and label cells as
    ASCII bytes of a fixed width (at most 12 and 2 bytes), which are
    decoded once per distinct pair of cells, not once per row. Each block
    of a chunk is reduced to its distinct rows by the pass that groups the
    byte cells, with the scores' bit patterns as further words, and the
    blocks are merged into one table as they come (:class:`_CellCounts`),
    and once more at the end. So the read holds one chunk plus a few times
    that table. The cells are joint over every score column: with several
    columns there may be as many as the product of each column's cells, up
    to one a row.

    A malformed row raises :class:`~lpeval.errors.IngestError` with its
    line number, the first such row if there are several, and so does a
    label column that is empty on some rows but not all. A stream that
    cannot seek is read into memory first, since an error makes second
    passes over the records.
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
        # The score columns follow the byte cells, so that a chunk's rows
        # can be grouped by the words from the distance cell on.
        dtype = ([("u", np.int64), ("v", np.int64)] + _CELL_DTYPE.descr
                 + [(f"score{i}", np.float64) for i in range(len(score_names))])
        converters = None
        if id_index is not None:
            converters = {0: id_index.__getitem__, 1: id_index.__getitem__}
        known = {}
        width = 2 + len(score_names)
        table = _CellCounts(width)
        empty = []  # the first record with an empty label cell

        def put(first, index, cells):
            table.add(cells, np.bincount(index, minlength=len(cells)))
            if not empty and cells[:, 1].min() < 0:
                empty.append(first + int(np.argmax(cells[index, 1] < 0)))

        n, read = 0, _READ_ROWS
        while read == _READ_ROWS:
            try:
                rows = _loadtxt(src, dtype, converters=converters,
                                max_rows=_READ_ROWS)
            except UnicodeDecodeError as exc:
                raise _not_text(exc) from None
            except ValueError as exc:
                message, record = _loadtxt_failure(exc)
                if record is not None:
                    record += n
                    # The chunk's records before the failed one are not
                    # decoded yet; the first malformed record may be there.
                    bad = (_first_bad_cell(src, body, n, record, known)
                           if record > n else None)
                    if bad is not None:
                        record, message = bad
                raise IngestError(message, line=None if record is None
                                  else _record_line(src, body, record)) from None
            read = len(rows)
            bad = _decode_cells(rows, n, known, put, width)
            if bad is not None:
                raise IngestError(bad[1], line=_record_line(src, body, bad[0]))
            del rows  # before the next chunk is read, or the table merged
            table.settle()
            n += read
        cells, count = table.merge()
        label = cells[:, 1]
        if label.max(initial=-1) < 0:
            label = None
        elif label.min() < 0:
            raise IngestError("empty label in a labeled score file",
                              line=_record_line(src, body, empty[0]))
        else:
            label = label.astype(bool)
        scores = {name: np.ascontiguousarray(cells[:, 2 + i]).view(np.float64)
                  for i, name in enumerate(score_names)}
        return InstanceCounts(np.ascontiguousarray(cells[:, 0]), label, scores, count)
    finally:
        if close:
            fh.close()
