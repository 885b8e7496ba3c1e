"""Temporal interaction events and immutable weighted undirected snapshots.

An :class:`EventLog` holds time-ordered interaction events (pairwise or
k-clique collaborations) with node ids interned to dense integers. A
:class:`Snapshot` is the weighted undirected graph aggregated over a closed
time interval; it is frozen after construction and safe to share across any
number of concurrent readers.

Input formats (UTF-8 text, ``#`` starts a comment line):

* pair events:   ``src_id<TAB>dst_id<TAB>timestamp[<TAB>weight]``
* clique events: ``timestamp<TAB>id1|id2|...|idk[<TAB>weight]``
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestError
from .predictors import _sorted_unique

Interval = tuple[int, int]

# Per-pair weight contributed by a k-clique event. A pair event (k=2) weighs
# exactly 1 under the default rule.
WEIGHT_RULES = {
    "1/(k-1)": lambda k: 1.0 / (k - 1),
    "1/k": lambda k: 1.0 / k,
    "1": lambda k: 1.0,
}


def _check_interval(interval, name="interval"):
    begin, end = interval
    if begin > end:
        raise ConfigError(f"empty interval [{begin}, {end}]", field=name)
    return int(begin), int(end)


@dataclass(frozen=True)
class WindowConfig:
    """Four-snapshot train/test windowing over the event timeline.

    Labels must come strictly after the features they label, and the test
    label window must lie strictly after every training window.
    """

    train_feature: Interval
    train_label: Interval
    test_feature: Interval
    test_label: Interval

    def __post_init__(self):
        for name in ("train_feature", "train_label", "test_feature", "test_label"):
            _check_interval(getattr(self, name), name)
        if self.train_label[0] <= self.train_feature[1]:
            raise ConfigError(
                "train_label must begin after train_feature ends", field="train_label"
            )
        if self.test_label[0] <= self.test_feature[1]:
            raise ConfigError(
                "test_label must begin after test_feature ends", field="test_label"
            )
        if self.test_label[0] <= max(self.train_feature[1], self.train_label[1]):
            raise ConfigError(
                "test_label must be disjoint from and later than all training windows",
                field="test_label",
            )


class EventLog:
    """Time-ordered interaction events over an interned node universe.

    Events are stored as a ragged array: ``participants(i)`` spans
    ``event_nodes[event_offsets[i]:event_offsets[i + 1]]``. Timestamps are
    opaque integers (epoch seconds, year indices, ...); sorting is
    non-decreasing. ``was_unsorted`` records whether the input had to be
    reordered during ingestion.
    """

    def __init__(self, timestamps, event_offsets, event_nodes, weight_overrides,
                 id_labels, was_unsorted=False):
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.event_offsets = np.asarray(event_offsets, dtype=np.int64)
        self.event_nodes = np.asarray(event_nodes, dtype=np.int64)
        self.weight_overrides = np.asarray(weight_overrides, dtype=np.float64)
        self.id_labels = list(id_labels)
        self.was_unsorted = bool(was_unsorted)
        for arr in (self.timestamps, self.event_offsets, self.event_nodes,
                    self.weight_overrides):
            arr.setflags(write=False)

    @property
    def n_events(self):
        return int(self.timestamps.size)

    @property
    def n_nodes(self):
        return len(self.id_labels)

    def participants(self, i):
        return self.event_nodes[self.event_offsets[i]:self.event_offsets[i + 1]]

    @classmethod
    def from_tuples(cls, events, id_labels=None):
        """Build a log from ``(timestamp, participants, weight_override)`` tuples.

        Participants may be arbitrary hashables when ``id_labels`` is None;
        they are interned in order of first appearance.
        """
        interner = _Interner() if id_labels is None else None
        rows = []
        for t, participants, override in events:
            parts = list(participants)
            if len(set(parts)) != len(parts) or len(parts) < 2:
                raise IngestError(f"event at t={t} needs >=2 distinct participants")
            if override is not None and not override > 0:
                raise IngestError(f"event at t={t} has non-positive weight override")
            if interner is not None:
                parts = [interner.intern(p) for p in parts]
            rows.append((int(t), parts, override))
        rows.sort(key=lambda r: r[0])
        timestamps = [r[0] for r in rows]
        offsets = [0]
        nodes = []
        overrides = []
        for _, parts, override in rows:
            nodes.extend(parts)
            offsets.append(len(nodes))
            overrides.append(np.nan if override is None else float(override))
        labels = interner.labels if interner is not None else list(id_labels)
        return cls(timestamps, offsets, nodes, overrides, labels)


class _Interner:
    """Dense 0-based interning of node ids in first-appearance order."""

    def __init__(self):
        self.index = {}
        self.labels = []

    def intern(self, label):
        idx = self.index.get(label)
        if idx is None:
            idx = len(self.labels)
            self.index[label] = idx
            self.labels.append(label)
        return idx


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _parse_weight(token, line_no):
    try:
        w = float(token)
    except ValueError:
        raise IngestError(f"bad weight {token!r}", line=line_no) from None
    if not w > 0 or not np.isfinite(w):
        raise IngestError(f"weight must be finite and > 0, got {token!r}", line=line_no)
    return w


def _parse_timestamp(token, line_no):
    try:
        t = int(token)
    except ValueError:
        raise IngestError(f"bad timestamp {token!r}", line=line_no) from None
    if not _INT64_MIN <= t <= _INT64_MAX:
        raise IngestError(f"timestamp {token!r} does not fit in int64", line=line_no)
    return t


def _decode(raw):
    """UTF-8 text of an event file; undecodable bytes raise IngestError on
    the line they are on."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"not UTF-8: {exc.reason}",
                          line=raw.count(b"\n", 0, exc.start) + 1) from None


def ingest_events(source, format="pair"):
    """Read an event stream into an :class:`EventLog`.

    ``source`` is a path or a text/binary file object. Unsorted input is
    sorted internally; the log's ``was_unsorted`` flag is set and a warning
    emitted so reordering is never silent.
    """
    if format not in ("pair", "clique"):
        raise ConfigError(f"unknown event format {format!r}", field="dataset.format")

    if hasattr(source, "read"):
        try:
            raw = source.read()
        except UnicodeDecodeError as exc:  # a text stream decodes as it reads
            raise IngestError(f"not UTF-8: {exc.reason}") from None
        text = _decode(raw) if isinstance(raw, bytes) else raw
    else:
        with open(source, "rb") as fh:
            text = _decode(fh.read())

    interner = _Interner()
    timestamps = []
    offsets = [0]
    nodes = []
    overrides = []

    for line_no, line in enumerate(io.StringIO(text), start=1):
        line = line.strip("\n").strip("\r")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if format == "pair":
            if len(fields) not in (3, 4):
                raise IngestError(
                    f"expected src<TAB>dst<TAB>timestamp[<TAB>weight], got {len(fields)} fields",
                    line=line_no)
            src, dst, ts = fields[0], fields[1], fields[2]
            if not src or not dst:
                raise IngestError("empty node id", line=line_no)
            if src == dst:
                raise IngestError("self-pair event (src == dst)", line=line_no)
            t = _parse_timestamp(ts, line_no)
            parts = [interner.intern(src), interner.intern(dst)]
            w = _parse_weight(fields[3], line_no) if len(fields) == 4 else np.nan
        else:
            if len(fields) not in (2, 3):
                raise IngestError(
                    f"expected timestamp<TAB>id1|...|idk[<TAB>weight], got {len(fields)} fields",
                    line=line_no)
            t = _parse_timestamp(fields[0], line_no)
            raw_ids = fields[1].split("|")
            if "" in raw_ids:
                raise IngestError("empty node id", line=line_no)
            if len(raw_ids) < 2 or len(set(raw_ids)) != len(raw_ids):
                raise IngestError("clique needs >=2 distinct participants", line=line_no)
            parts = [interner.intern(x) for x in raw_ids]
            w = _parse_weight(fields[2], line_no) if len(fields) == 3 else np.nan
        timestamps.append(t)
        nodes.extend(parts)
        offsets.append(len(nodes))
        overrides.append(w)

    timestamps = np.asarray(timestamps, dtype=np.int64)
    # Compared, not subtracted: a difference of int64 timestamps can wrap.
    was_unsorted = bool(np.any(timestamps[1:] < timestamps[:-1]))
    if was_unsorted:
        warnings.warn("event stream was not sorted by timestamp; sorting internally",
                      stacklevel=2)
        order = np.argsort(timestamps, kind="stable")
        offsets = np.asarray(offsets, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        new_nodes = []
        new_offsets = [0]
        for i in order:
            new_nodes.extend(nodes[offsets[i]:offsets[i + 1]].tolist())
            new_offsets.append(len(new_nodes))
        timestamps = timestamps[order]
        overrides = np.asarray(overrides)[order]
        nodes, offsets = new_nodes, new_offsets

    return EventLog(timestamps, offsets, nodes, overrides, interner.labels,
                    was_unsorted=was_unsorted)


class Snapshot:
    """Immutable weighted undirected graph over a closed time interval.

    Adjacency is a frozen CSR layout sized to the full interned universe, so
    degree/neighbor queries for any id are O(1)/O(deg) and unknown ids simply
    report degree 0. All stored weights are positive and symmetric; there are
    no self-loops.
    """

    def __init__(self, n_universe, edge_u, edge_v, edge_w, interval=None,
                 id_labels=None):
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        edge_w = np.asarray(edge_w, dtype=np.float64)
        if edge_u.size and (np.any(edge_u == edge_v) or np.any(edge_w <= 0)):
            raise ValueError("snapshot edges must join distinct nodes with weight > 0")
        self.interval = None if interval is None else (int(interval[0]), int(interval[1]))
        self.n_universe = int(n_universe)
        self.id_labels = None if id_labels is None else list(id_labels)

        # Canonical u < v edge list, sorted by (u, v): the export order.
        lo = np.minimum(edge_u, edge_v)
        hi = np.maximum(edge_u, edge_v)
        order = np.lexsort((hi, lo))
        self._edge_u = lo[order]
        self._edge_v = hi[order]
        self._edge_w = edge_w[order]

        # Symmetric CSR over the universe.
        src = np.concatenate([self._edge_u, self._edge_v])
        dst = np.concatenate([self._edge_v, self._edge_u])
        wts = np.concatenate([self._edge_w, self._edge_w])
        order = np.lexsort((dst, src))
        src, dst, wts = src[order], dst[order], wts[order]
        self.indptr = np.zeros(self.n_universe + 1, dtype=np.int64)
        np.add.at(self.indptr, src + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = dst
        self.weights = wts

        present = np.zeros(self.n_universe, dtype=bool)
        present[self._edge_u] = True
        present[self._edge_v] = True
        self.node_ids = np.flatnonzero(present)

        for arr in (self._edge_u, self._edge_v, self._edge_w, self.indptr,
                    self.indices, self.weights, self.node_ids):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, edges, n=None, interval=None, id_labels=None):
        """Build from ``(u, v[, weight])`` tuples with integer node ids."""
        u, v, w = [], [], []
        for e in edges:
            u.append(e[0])
            v.append(e[1])
            w.append(e[2] if len(e) > 2 else 1.0)
        if n is None:
            n = (max(max(u), max(v)) + 1) if u else 0
        return cls(n, u, v, w, interval=interval, id_labels=id_labels)

    @property
    def n_nodes(self):
        return int(self.node_ids.size)

    @property
    def n_edges(self):
        return int(self._edge_u.size)

    @property
    def total_weight(self):
        return float(self._edge_w.sum())

    def density(self):
        n = self.n_nodes
        return 0.0 if n < 2 else 2.0 * self.n_edges / (n * (n - 1))

    def contains(self, u):
        return 0 <= u < self.n_universe and self.indptr[u] < self.indptr[u + 1]

    def degree(self, u):
        if not 0 <= u < self.n_universe:
            return 0
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u):
        if not 0 <= u < self.n_universe:
            return np.empty(0, dtype=np.int64)
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def neighbor_weights(self, u):
        if not 0 <= u < self.n_universe:
            return np.empty(0, dtype=np.float64)
        return self.weights[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self):
        return np.diff(self.indptr)

    def weight(self, u, v):
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        if pos < nbrs.size and nbrs[pos] == v:
            return float(self.neighbor_weights(u)[pos])
        return 0.0

    def has_edge(self, u, v):
        return self.weight(u, v) > 0.0

    def edge_arrays(self):
        """Canonical (u, v, w) arrays with u < v, sorted by (u, v)."""
        return self._edge_u, self._edge_v, self._edge_w

    def edge_key_set(self):
        """Set of u * n_universe + v keys (u < v) for O(1) membership tests."""
        return set((self._edge_u * self.n_universe + self._edge_v).tolist())


def build_snapshot(log, interval, weight_rule="1/(k-1)"):
    """Aggregate the log's events inside a closed interval into a Snapshot.

    Each event expands to all unordered participant pairs; a pair's
    contribution is the event's weight override when given, else the
    configured clique rule (default ``1/(k-1)``, so a pair event weighs 1).
    Contributions sum per pair. An interval selecting no events yields a
    valid empty snapshot.
    """
    begin, end = _check_interval(interval)
    try:
        rule = WEIGHT_RULES[weight_rule]
    except KeyError:
        raise ConfigError(f"unknown weight rule {weight_rule!r}",
                          field="dataset.weight_rule") from None

    lo = int(np.searchsorted(log.timestamps, begin, side="left"))
    hi = int(np.searchsorted(log.timestamps, end, side="right"))
    acc = {}
    for i in range(lo, hi):
        parts = log.participants(i)
        k = parts.size
        override = log.weight_overrides[i]
        w = float(override) if np.isfinite(override) else rule(k)
        for a in range(k):
            pa = int(parts[a])
            for b in range(a + 1, k):
                pb = int(parts[b])
                key = (pa, pb) if pa < pb else (pb, pa)
                acc[key] = acc.get(key, 0.0) + w

    if acc:
        keys = np.array(list(acc.keys()), dtype=np.int64)
        vals = np.array(list(acc.values()), dtype=np.float64)
        u, v = keys[:, 0], keys[:, 1]
    else:
        u = v = np.empty(0, dtype=np.int64)
        vals = np.empty(0, dtype=np.float64)
    return Snapshot(log.n_nodes, u, v, vals, interval=(begin, end),
                    id_labels=log.id_labels)


# Characters that force a CSV field into quotes.
_CSV_SPECIAL = frozenset(',"\r\n')


def csv_field(value):
    """``str(value)`` as one CSV field, quoted only when it must be.

    Node ids come from tab-separated event files and may hold ``,`` or
    ``"``: such a field is wrapped in quotes with inner quotes doubled, as
    :mod:`csv` reads it back. Any other text is returned unchanged.
    """
    text = str(value)
    if not _CSV_SPECIAL.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_cells(values, fmt, sep):
    """One CSV column of 8-byte ``values`` as ``(cells, index)``: row i
    reads ``cells[index[i]]``.

    ``fmt`` runs once per distinct bit pattern, so ``-0.0`` and ``0.0``
    keep their own text, and each cell ends with ``sep``, the separator
    that follows the column in a row.
    """
    bits = values.view(np.int64)
    distinct = _sorted_unique(bits)
    cells = [fmt(x) + sep for x in distinct.view(values.dtype).tolist()]
    return np.array(cells, dtype=object), np.searchsorted(distinct, bits)


def write_snapshot_csv(snapshot, fh):
    """Export edges as ``u,v,weight`` rows, u < v in interned order, rows
    sorted lexicographically by label. Ids are quoted where CSV needs it
    (:func:`csv_field`). Bit-exact for identical inputs."""
    u, v, w = snapshot.edge_arrays()
    labels = snapshot.id_labels
    name = (lambda i: labels[i]) if labels is not None else str
    label = {i: name(i) for i in snapshot.node_ids.tolist()}
    field = {i: csv_field(x) for i, x in label.items()}
    rows = sorted((label[a], label[b], a, b, repr(x))
                  for a, b, x in zip(u.tolist(), v.tolist(), w.tolist()))
    fh.write("u,v,weight\n" + "".join(f"{field[a]},{field[b]},{x}\n"
                                       for _, _, a, b, x in rows))
