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
import functools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IngestError
from .graphstore import csv_cells, csv_field
# lpbench/tracing.py counts BFS sources by swapping ``stratify.bfs_levels``,
# so the name stays importable here although enumeration walks in blocks.
from .predictors import _blocks, _walk, bfs_level_blocks, bfs_levels

BEYOND = 1_000_000_000
DISCONNECTED = 2_000_000_000

GENERATION_MODES = ("recommendation", "query")

# Rows joined into one string per write of the instance CSV writer: large
# enough that the per-chunk calls cost nothing, small enough that no
# whole-file list of row strings is held.
_CHUNK_ROWS = 8192


def distance_str(d):
    if d == BEYOND:
        return "beyond"
    if d == DISCONNECTED:
        return "disconnected"
    return str(int(d))


def parse_distance(text):
    text = text.strip()
    if text == "beyond":
        return BEYOND
    if text == "disconnected":
        return DISCONNECTED
    return int(text)


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
    """
    if l_max < 2:
        raise ConfigError("l_max must be >= 2", field="lmax")
    nodes = s.node_ids
    us, vs, ds = [], [], []
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
        us.append(block[rows])
        vs.append(nodes[cols])
        ds.append(d)
    if not us:
        empty = np.empty(0, dtype=np.int64)
        return InstanceSet(empty, empty, empty)
    # The rows already arrive in (u, v) order: blocks are consecutive runs
    # of the ascending node ids, and np.nonzero walks each block row-major.
    # A stable sort by distance alone therefore gives (distance, u, v).
    d_arr = np.concatenate(ds)
    order = np.argsort(d_arr, kind="stable")
    return InstanceSet(np.concatenate(us)[order], np.concatenate(vs)[order],
                       d_arr[order])


def _isin(keys, table):
    """``np.isin(keys, table)`` for integer arrays, by binary search.

    On wide key ranges ``np.isin`` deduplicates ``table`` with a hashing
    ``np.unique`` that imports ``numpy.ma``; a sorted table needs neither.
    """
    table = np.sort(table, axis=None)
    if not table.size:
        return np.zeros(np.shape(keys), dtype=bool)
    at = np.searchsorted(table, keys)
    return table[np.minimum(at, table.size - 1)] == keys


def label_instances(candidates, label_snapshot):
    """Label each candidate positive iff it is an edge of the label snapshot."""
    n = max(label_snapshot.n_universe, 1)
    eu, ev, _ = label_snapshot.edge_arrays()
    edge_keys = eu * np.int64(n) + ev
    lo = np.minimum(candidates.u, candidates.v)
    hi = np.maximum(candidates.u, candidates.v)
    in_range = (lo >= 0) & (hi < n)
    keys = np.where(in_range, lo * np.int64(n) + hi, -1)
    labels = _isin(keys, edge_keys)
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
    text. Every _CHUNK_ROWS rows fill one (rows x columns) array of cells,
    written with one join.
    """
    keys = list(score_keys if score_keys is not None else instances.scores)
    header = ["u", "v", "distance", "label"] + (["score"] if len(keys) == 1
                                                else [f"score_{k}" for k in keys])
    n = len(instances)
    end = [","] * (len(header) - 1) + ["\n"]  # the separator after each column
    if id_labels is None:
        columns = [csv_cells(instances.u, str, ","), csv_cells(instances.v, str, ",")]
    else:
        ids = _id_cells(id_labels, instances.u, instances.v)
        columns = [(ids, instances.u), (ids, instances.v)]
    columns.append(csv_cells(instances.distance, distance_str, ","))
    if instances.label is None:
        columns.append((np.array([end[3]], dtype=object), np.zeros(n, dtype=np.uint8)))
    else:
        columns.append((np.array(["0" + end[3], "1" + end[3]], dtype=object),
                        instances.label.view(np.uint8)))
    for k, sep in zip(keys, end[4:]):
        s = np.ascontiguousarray(instances.scores[k], dtype=np.float64)
        columns.append(csv_cells(s, repr, sep))

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(n, lo + _CHUNK_ROWS)
            rows = np.empty((hi - lo, len(columns)), dtype=object)
            for c, (cells, index) in enumerate(columns):
                rows[:, c] = cells[index[lo:hi]]
            yield "".join(rows.ravel().tolist())

    fh.writelines(chunks())


def _label_cell(text):
    """1 or 0 for a label cell, -1 for an empty (unlabeled) one."""
    return -1 if text == "" else int(int(text) != 0)


def _record_line(fh, body, record):
    """1-based line on which data record ``record`` starts.

    Records count from 0 after the header line and skip blank lines, as
    ``np.loadtxt`` counts them. The body is re-read from offset ``body``;
    without one (a stream that cannot seek) the line is the one the record
    would have in a file without blank lines.
    """
    if body is not None:
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


def _loadtxt_error(exc, fh, body):
    """The IngestError for a ValueError of ``np.loadtxt``, at its row's line."""
    text = str(exc)
    width = _WIDTH_ERROR.search(text)
    if width is not None:
        return IngestError(f"expected {width[1]} fields, found {width[2]}",
                           line=_record_line(fh, body, int(width[3]) - 1))
    cell = _CELL_ERROR.search(text)
    if cell is not None:
        return IngestError(text[:cell.start()] + " at " + text[cell.end():],
                           line=_record_line(fh, body, int(cell[1])))
    return IngestError(text)


def read_instances_csv(path_or_file, id_index=None):
    """Read instances written by :func:`write_instances_csv`.

    Third-party score files in the same format are accepted, which is how
    externally produced (e.g. supervised) predictors enter the evaluation
    pipeline. ``id_index`` maps external id strings to interned ints; without
    it ids must already be integers.

    The body is parsed by one ``np.loadtxt`` call into int64 and float64
    columns; only the distance sentinels, the empty label and ``id_index``
    go through Python converters. A malformed row raises
    :class:`~lpeval.errors.IngestError` with its line number, and so does a
    label column that is empty on some rows but not all.
    """
    close = not hasattr(path_or_file, "read")
    fh = (open(path_or_file, "r", encoding="utf-8", newline="") if close
          else path_or_file)
    try:
        try:
            first = fh.readline()
        except UnicodeDecodeError as exc:  # a decoded chunk may reach the body
            raise IngestError(str(exc)) from None
        header = next(csv.reader([first]), None)
        if header is None or header[:4] != ["u", "v", "distance", "label"]:
            raise IngestError("expected header u,v,distance,label[,score...]", line=1)
        score_names = [h[6:] if h.startswith("score_") else "score"
                       for h in header[4:]]
        body = fh.tell() if fh.seekable() else None
        dtype = ([("u", np.int64), ("v", np.int64), ("distance", np.int64),
                  ("label", np.int64)]
                 + [(f"score{i}", np.float64) for i in range(len(score_names))])
        converters = {2: functools.cache(parse_distance),
                      3: functools.cache(_label_cell)}
        if id_index is not None:
            converters[0] = converters[1] = id_index.__getitem__
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                  comments=None, ndmin=1, converters=converters)
        except ValueError as exc:
            raise _loadtxt_error(exc, fh, body) from None
        label = rows["label"]
        unlabeled = label < 0
        if unlabeled.all():
            label = None
        elif unlabeled.any():
            raise IngestError("empty label in a labeled score file",
                              line=_record_line(fh, body, int(np.argmax(unlabeled))))
        else:
            label = label != 0
        inst = InstanceSet(np.ascontiguousarray(rows["u"]),
                           np.ascontiguousarray(rows["v"]),
                           np.ascontiguousarray(rows["distance"]), label)
        for i, name in enumerate(score_names):
            inst.scores[name] = np.ascontiguousarray(rows[f"score{i}"])
        return inst
    finally:
        if close:
            fh.close()
