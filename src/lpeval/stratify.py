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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IngestError
from .graphstore import csv_field
from .predictors import bfs_level_blocks, bfs_levels

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

    def subset(self, mask):
        return self.take(np.flatnonzero(mask))

    def pair_keys(self, n_universe):
        return self.u * np.int64(n_universe) + self.v


def _components(s):
    """Component label of every node: the lowest node id it can reach."""
    component = np.full(s.n_universe, -1, dtype=np.int64)
    for root in s.node_ids.tolist():
        if component[root] < 0:
            component[bfs_levels(s, root) >= 0] = root
    return component


def geodesic_bucket_enumerate(s, l_max, include_beyond=False,
                              include_disconnected=False):
    """Enumerate candidate pairs grouped by geodesic distance.

    Breadth-first expansion from blocks of sources, bounded at ``l_max``
    (unbounded when the beyond bucket is requested), emits each unordered
    non-adjacent pair exactly once, ordered by (distance, u, v).
    Cross-component pairs go to the disconnected bucket on request.
    """
    if l_max < 2:
        raise ConfigError("l_max must be >= 2", field="lmax")
    nodes = s.node_ids
    us, vs, ds = [], [], []
    depth_limit = None if include_beyond else l_max
    # A walk cut at l_max also leaves far same-component nodes unreached;
    # component labels tell those apart from other components' nodes.
    component = (_components(s) if include_disconnected and not include_beyond
                 else None)
    for block, levels in bfs_level_blocks(s, nodes, depth_limit):
        lv = levels[:, nodes]
        keep = (lv >= 2) & (lv <= l_max)
        if include_beyond:
            keep |= lv > l_max
        if include_disconnected:
            apart = lv < 0
            if component is not None:
                apart &= component[block][:, None] != component[nodes][None, :]
            keep |= apart
        keep &= nodes[None, :] > block[:, None]
        rows, cols = np.nonzero(keep)
        d = lv[rows, cols]
        us.append(block[rows])
        vs.append(nodes[cols])
        ds.append(np.where(d < 0, DISCONNECTED, np.where(d > l_max, BEYOND, d)))
    if not us:
        empty = np.empty(0, dtype=np.int64)
        return InstanceSet(empty, empty, empty)
    u_arr = np.concatenate(us)
    v_arr = np.concatenate(vs)
    d_arr = np.concatenate(ds)
    order = np.lexsort((v_arr, u_arr, d_arr))
    return InstanceSet(u_arr[order], v_arr[order], d_arr[order])


def label_instances(candidates, label_snapshot):
    """Label each candidate positive iff it is an edge of the label snapshot."""
    n = max(label_snapshot.n_universe, 1)
    eu, ev, _ = label_snapshot.edge_arrays()
    edge_keys = eu * np.int64(n) + ev
    lo = np.minimum(candidates.u, candidates.v)
    hi = np.maximum(candidates.u, candidates.v)
    in_range = (lo >= 0) & (hi < n)
    keys = np.where(in_range, lo * np.int64(n) + hi, -1)
    labels = np.isin(keys, edge_keys)
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
    no such edge exists.
    """
    eu, ev, _ = label.edge_arrays()
    n = feature.n_universe
    inside = (eu < n) & (ev < n)
    eu, ev = eu[inside], ev[inside]
    deg = feature.degrees()
    fu, fv, _ = feature.edge_arrays()
    new = (deg[eu] > 0) & (deg[ev] > 0) & ~np.isin(eu * n + ev, fu * n + fv)
    eu, ev = eu[new], ev[new]
    sources, inverse = np.unique(eu, return_inverse=True)
    dist = np.empty(eu.size, dtype=np.int64)
    first = 0
    for block, levels in bfs_level_blocks(feature, sources):
        sel = (inverse >= first) & (inverse < first + block.size)
        dist[sel] = levels[inverse[sel] - first, ev[sel]]
        first += block.size
    dist[dist < 0] = DISCONNECTED
    values, counts = np.unique(dist, return_counts=True)
    total = int(counts.sum())
    return {d: c / total for d, c in zip(values.tolist(), counts.tolist())}


def _column(values, fmt, key=None):
    """One CSV column as ``(cells, index)``: row i reads ``cells[index[i]]``.

    ``fmt`` runs once per distinct ``key`` (default: the values), on the
    first value that carries it.
    """
    key = values if key is None else key
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    return np.array([fmt(x) for x in values[first].tolist()], dtype=object), index


def write_instances_csv(path_or_file, instances, id_labels=None, score_keys=None):
    """Write ``u,v,distance,label[,score...]`` rows.

    Distance uses the bucket names for sentinels; the label column is empty
    for unlabeled candidates. Score columns follow in the given key order.
    Ids are CSV-quoted where needed (:func:`~lpeval.graphstore.csv_field`).
    Each column is formatted once per distinct value, scores keyed by their
    bit pattern so ``-0.0`` and ``0.0`` keep their own text, and rows are
    joined and written _CHUNK_ROWS at a time.
    """
    keys = list(score_keys if score_keys is not None else instances.scores)
    name = ((lambda i: csv_field(id_labels[i])) if id_labels is not None
            else str)
    header = ["u", "v", "distance", "label"] + (["score"] if len(keys) == 1
                                                else [f"score_{k}" for k in keys])
    n = len(instances)
    if instances.label is None:
        label = (np.array([""], dtype=object), np.zeros(n, dtype=np.uint8))
    else:
        label = (np.array(["0", "1"], dtype=object), instances.label.view(np.uint8))
    columns = [_column(instances.u, name), _column(instances.v, name),
               _column(instances.distance, distance_str), label]
    for k in keys:
        s = np.ascontiguousarray(instances.scores[k], dtype=np.float64)
        columns.append(_column(s, repr, s.view(np.uint64)))

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, n, _CHUNK_ROWS):
            cells = [c[i[lo:lo + _CHUNK_ROWS]].tolist() for c, i in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    if hasattr(path_or_file, "write"):
        path_or_file.writelines(chunks())
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.writelines(chunks())


def read_instances_csv(path_or_file, id_index=None):
    """Read instances written by :func:`write_instances_csv`.

    Third-party score files in the same format are accepted, which is how
    externally produced (e.g. supervised) predictors enter the evaluation
    pipeline. ``id_index`` maps external id strings to interned ints; without
    it ids must already be integers.
    """
    close = False
    if hasattr(path_or_file, "read"):
        fh = path_or_file
    else:
        fh = open(path_or_file, "r", encoding="utf-8", newline="")
        close = True
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["u", "v", "distance", "label"]:
            raise IngestError("expected header u,v,distance,label[,score...]", line=1)
        score_names = [h[6:] if h.startswith("score_") else "score"
                       for h in header[4:]]
        us, vs, ds, ls = [], [], [], []
        score_cols = [[] for _ in score_names]
        have_labels = True
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(f"expected {len(header)} fields", line=line_no)
            try:
                u = int(row[0]) if id_index is None else id_index[row[0]]
                v = int(row[1]) if id_index is None else id_index[row[1]]
                d = parse_distance(row[2])
                if row[3] == "":
                    have_labels = False
                else:
                    ls.append(bool(int(row[3])))
                for col, cell in zip(score_cols, row[4:]):
                    col.append(float(cell))
            except (KeyError, ValueError) as exc:
                raise IngestError(str(exc), line=line_no) from None
            us.append(u)
            vs.append(v)
            ds.append(d)
        label = np.asarray(ls, dtype=bool) if have_labels and us else None
        inst = InstanceSet(np.asarray(us, dtype=np.int64),
                           np.asarray(vs, dtype=np.int64),
                           np.asarray(ds, dtype=np.int64), label)
        for nm, col in zip(score_names, score_cols):
            inst.scores[nm] = np.asarray(col, dtype=np.float64)
        return inst
    finally:
        if close:
            fh.close()
