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
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .config import GENERATION_MODES
from .errors import ConfigError, IngestError
from .graphstore import csv_field
# lpbench/tracing.py counts BFS sources by swapping ``stratify.bfs_levels``,
# so the name stays importable here although enumeration walks in runs.
from .predictors import (_CHUNK_ROWS, _ranges, _runs, _sorted_unique, _walk,
                         bfs_levels, csv_cells, csv_chunks)

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

    Breadth-first expansion from runs of sources, bounded at ``l_max``,
    emits each unordered non-adjacent pair exactly once, ordered by
    (distance, u, v). A pair still unreached at ``l_max`` is in the beyond
    bucket if its ends share a component and in the disconnected bucket if
    not; each sentinel bucket is emitted on request.

    The runs are consecutive runs of the ascending node ids, and each
    run's cells come in (u, v) order: each level's cells with u < v, and,
    read row-major, the cells left unseen (with the disconnected bucket
    alone, the other components' cells), which one gather of components
    splits. With the beyond bucket alone, each source's same-component
    nodes above it are one range of the nodes grouped by component. Rows
    join in distance order: besides the result, the enumeration holds
    ``u`` and ``v`` once, and temporaries of one run.
    """
    if l_max < 2:
        raise ConfigError("l_max must be >= 2", field="lmax")
    nodes = s.node_ids
    us, vs = defaultdict(list), defaultdict(list)
    component = (_components(s) if include_beyond or include_disconnected
                 else None)
    if include_beyond and not include_disconnected:  # x's: grouped[above[x]:stop[x]]
        grouped = nodes[np.argsort(component[nodes], kind="stable")]
        above, stop = np.empty((2, s.n_universe), dtype=np.int64)
        above[grouped] = np.arange(1, grouped.size + 1)
        stop[grouped] = component[grouped].searchsorted(component[grouped], "right")
    for run in _runs(s, nodes, l_max):
        for level in _walk(s, run, l_max):
            if level.depth >= 2:
                u = run[level.rows]
                keep = level.nodes > u
                us[level.depth].append(u[keep])
                vs[level.depth].append(level.nodes[keep])
        if include_beyond and not include_disconnected:
            counts, at = _ranges(above[run], stop[run])
            rows, v = np.repeat(np.arange(run.size), counts), grouped[at]
            far = ~level.seen[rows, v]
            us[BEYOND].append(run[rows[far]])
            vs[BEYOND].append(v[far])
        elif include_disconnected:
            far = (~level.seen[:, nodes] if include_beyond  # else disconnected alone
                   else component[nodes] != component[run][:, None])
            far &= nodes > run[:, None]
            rows, cols = np.nonzero(far)
            u, v = run[rows], nodes[cols]
            same = component[v] == component[u]
            for d, part in ((BEYOND, same), (DISCONNECTED, ~same)):
                us[d].append(u[part])
                vs[d].append(v[part])
    values = sorted(us)
    sizes = [sum(part.size for part in us[value]) for value in values]
    none = [np.empty(0, dtype=np.int64)]  # for a graph without candidates
    # Each column's lists are freed once joined, before the next column is.
    u = np.concatenate(none + [part for value in values for part in us.pop(value)])
    v = np.concatenate(none + [part for value in values for part in vs.pop(value)])
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
    a walk. The others are keyed ``u * n + v`` and sorted, so each run of
    sources owns one contiguous slice of them; after each level of the
    run's walk, the targets it has just seen are at that distance, and the
    walk ends at the level that reaches the run's last target.
    """
    eu, ev, _ = label.edge_arrays()
    n = feature.n_universe
    inside = (eu < n) & (ev < n)
    eu, ev = eu[inside], ev[inside]
    deg = feature.degrees()
    fu, fv, _ = feature.edge_arrays()
    new = (deg[eu] > 0) & (deg[ev] > 0) & ~_isin(eu * n + ev, fu * n + fv)
    eu, ev = eu[new], ev[new]
    component = _components(feature)
    joined = component[eu] == component[ev]
    keys = np.sort(eu[joined] * n + ev[joined])
    counts = Counter({DISCONNECTED: eu.size - keys.size})
    for run in _runs(feature, _sorted_unique(keys // n), None):
        lo, hi = keys.searchsorted([run[0] * n, (run[-1] + 1) * n])
        # Each target as a cell of the run's walk (row * n + node). It
        # shares its source's component, so the walk reaches it.
        src, dst = np.divmod(keys[lo:hi], n)
        pending = np.searchsorted(run, src) * n + dst
        for level in _walk(feature, run):
            hit = level.seen.reshape(-1)[pending]
            counts[level.depth] += int(np.count_nonzero(hit))
            pending = pending[~hit]
            if not pending.size:
                break
    return {d: counts[d] / eu.size for d in sorted(counts) if counts[d]}


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
    :func:`write_instances_csv`: its distinct (distance, label, score...)
    rows and how many rows each stands for. No row is kept.

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
