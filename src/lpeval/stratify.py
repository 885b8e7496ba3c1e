"""Candidate-pair enumeration, geodesic stratification, and labeling.

Candidate pairs are non-adjacent unordered node pairs of a feature snapshot,
partitioned by shortest-path distance: finite buckets 2..L_max, plus two
sentinel buckets for pairs farther than L_max in the same component
(``BEYOND``) and pairs in different components or involving feature-unknown
nodes (``DISCONNECTED``). Sentinels are large integers so any finite
distance sorts and compares below them. ``read_instances_csv`` is bound
from :mod:`lpeval.scorefile` with :func:`lpeval._lazy`, so no graph process
loads the reader.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import _lazy
# Defined in cells, which the score-file reader shares; importable here too.
from .cells import (BEYOND, DISCONNECTED, _CHUNK_ROWS, _sorted_unique,  # noqa: F401
                    csv_cells, csv_chunks, distance_str, parse_distance)
from .config import GENERATION_MODES
from .errors import ConfigError
from .graphstore import csv_field
# lpbench/tracing.py counts BFS sources by swapping ``stratify.bfs_levels``,
# so the name stays importable here although enumeration walks in runs.
from .predictors import _ranges, _runs, _walk, bfs_levels

# Importable here for lpbench/tracing.py, which times the reader under
# ``stratify.read_instances``.
(read_instances_csv,) = _lazy("scorefile", "read_instances_csv")


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
