"""Temporal interaction events and immutable weighted undirected snapshots.

An :class:`EventLog` holds time-ordered interaction events (pairwise or
k-clique collaborations) with node ids interned to dense integers. A
:class:`Snapshot` is the weighted undirected graph aggregated over a closed
time interval; it is frozen after construction and safe to share across any
number of concurrent readers.

This module imports no numpy. Ingestion, window aggregation and the edge
CSV export work on stdlib columns (``array.array``, 8 bytes a value), so
the ``snapshot`` command never loads numpy. The read-only numpy arrays
that graph code reads (a snapshot's CSR layout, a log's columns) are built
from those columns on first access, where numpy is imported. Readers that
race on that first access each build equal arrays and one set is kept:
the build is idempotent, so it needs no lock.

Input formats (UTF-8 text, ``#`` starts a comment line):

* pair events:   ``src_id<TAB>dst_id<TAB>timestamp[<TAB>weight]``
* clique events: ``timestamp<TAB>id1|id2|...|idk[<TAB>weight]``
"""

from __future__ import annotations

import bisect
import io
import math
import warnings
from array import array
from operator import itemgetter

from .config import WEIGHT_RULES, _check_interval
from .config import WindowConfig  # noqa: F401 (re-exported)
from .errors import ConfigError, IngestError


def _numpy_arrays(obj):
    """The read-only numpy arrays of ``obj``, made by its ``_build`` once,
    on first access; numpy is imported here."""
    built = obj.__dict__.get("_built")
    if built is None:
        import numpy as np
        built = obj._build(np)
        for arr in built.values():
            arr.setflags(write=False)
        obj._built = built
    return built


def _numpy_array(name):
    return property(lambda self: _numpy_arrays(self)[name])


class EventLog:
    """Time-ordered interaction events over an interned node universe.

    Events are stored as a ragged array: ``participants(i)`` spans
    ``event_nodes[event_offsets[i]:event_offsets[i + 1]]``. Timestamps are
    opaque integers (epoch seconds, year indices, ...); sorting is
    non-decreasing. ``was_unsorted`` records whether the input had to be
    reordered during ingestion.
    """

    timestamps = _numpy_array("timestamps")
    event_offsets = _numpy_array("event_offsets")
    event_nodes = _numpy_array("event_nodes")
    weight_overrides = _numpy_array("weight_overrides")

    def __init__(self, timestamps, event_offsets, event_nodes, weight_overrides,
                 id_labels, was_unsorted=False):
        self._timestamps = array("q", timestamps)
        self._offsets = array("q", event_offsets)
        self._nodes = array("q", event_nodes)
        self._overrides = array("d", weight_overrides)
        self.id_labels = list(id_labels)
        self.was_unsorted = bool(was_unsorted)

    def _build(self, np):
        return {name: np.frombuffer(column, dtype=dtype) for name, column, dtype in (
            ("timestamps", self._timestamps, np.int64),
            ("event_offsets", self._offsets, np.int64),
            ("event_nodes", self._nodes, np.int64),
            ("weight_overrides", self._overrides, np.float64))}

    @property
    def n_events(self):
        return len(self._timestamps)

    @property
    def n_nodes(self):
        return len(self.id_labels)

    def participants(self, i):
        return self.event_nodes[self._offsets[i]:self._offsets[i + 1]]

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
            overrides.append(math.nan if override is None else float(override))
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
    if not w > 0 or not math.isfinite(w):
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
    sorted internally (a stable sort by timestamp); the log's
    ``was_unsorted`` flag is set and a warning emitted so reordering is
    never silent.
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
            w = _parse_weight(fields[3], line_no) if len(fields) == 4 else math.nan
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
            w = _parse_weight(fields[2], line_no) if len(fields) == 3 else math.nan
        timestamps.append(t)
        nodes.extend(parts)
        offsets.append(len(nodes))
        overrides.append(w)

    was_unsorted = any(map(int.__lt__, timestamps[1:], timestamps))
    if was_unsorted:
        warnings.warn("event stream was not sorted by timestamp; sorting internally",
                      stacklevel=2)
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        new_nodes = []
        new_offsets = [0]
        for i in order:
            new_nodes.extend(nodes[offsets[i]:offsets[i + 1]])
            new_offsets.append(len(new_nodes))
        timestamps = [timestamps[i] for i in order]
        overrides = [overrides[i] for i in order]
        nodes, offsets = new_nodes, new_offsets

    return EventLog(timestamps, offsets, nodes, overrides, interner.labels,
                    was_unsorted=was_unsorted)


class Snapshot:
    """Immutable weighted undirected graph over a closed time interval.

    Adjacency is a frozen CSR layout sized to the full interned universe, so
    degree/neighbor queries for any id are O(1)/O(deg) and unknown ids simply
    report degree 0. All stored weights are positive and symmetric; there are
    no self-loops. The canonical edge list is kept in stdlib columns; the
    CSR arrays and :meth:`edge_arrays` are built from it on first access.
    """

    indptr = _numpy_array("indptr")
    indices = _numpy_array("indices")
    weights = _numpy_array("weights")
    node_ids = _numpy_array("node_ids")

    def __init__(self, n_universe, edge_u, edge_v, edge_w, interval=None,
                 id_labels=None):
        edges = list(zip(map(int, edge_u), map(int, edge_v), map(float, edge_w),
                         strict=True))
        if any(a == b or w <= 0 for a, b, w in edges):
            raise ValueError("snapshot edges must join distinct nodes with weight > 0")
        # Canonical u < v edge list, sorted by (u, v): the export order.
        edges = sorted(((a, b, w) if a < b else (b, a, w) for a, b, w in edges),
                       key=itemgetter(0, 1))
        self._set(n_universe, array("q", map(itemgetter(0), edges)),
                  array("q", map(itemgetter(1), edges)),
                  array("d", map(itemgetter(2), edges)), interval, id_labels)

    def _set(self, n_universe, u, v, w, interval, id_labels):
        """Take canonical ``u < v`` columns, sorted by (u, v), as they are."""
        self.interval = None if interval is None else (int(interval[0]), int(interval[1]))
        self.n_universe = int(n_universe)
        self.id_labels = None if id_labels is None else list(id_labels)
        self._edge_u, self._edge_v, self._edge_w = u, v, w
        self._n_nodes = len(set(u).union(v))

    def _build(self, np):
        u = np.frombuffer(self._edge_u, dtype=np.int64)
        v = np.frombuffer(self._edge_v, dtype=np.int64)
        w = np.frombuffer(self._edge_w, dtype=np.float64)
        # Symmetric CSR over the universe, rows and columns ascending.
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.argsort(src * self.n_universe + dst, kind="stable")
        indptr = np.zeros(self.n_universe + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n_universe), out=indptr[1:])
        degrees = np.diff(indptr)
        return {"edge_u": u, "edge_v": v, "edge_w": w, "indptr": indptr,
                "indices": dst[order], "weights": np.concatenate([w, w])[order],
                "node_ids": np.flatnonzero(degrees), "degrees": degrees}

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
        return self._n_nodes

    @property
    def n_edges(self):
        return len(self._edge_u)

    @property
    def total_weight(self):
        return math.fsum(self._edge_w)

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
            return self.indices[:0]
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def neighbor_weights(self, u):
        if not 0 <= u < self.n_universe:
            return self.weights[:0]
        return self.weights[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self):
        return _numpy_arrays(self)["degrees"]

    def weight(self, u, v):
        nbrs = self.neighbors(u)
        pos = int(nbrs.searchsorted(v))
        if pos < nbrs.size and nbrs[pos] == v:
            return float(self.neighbor_weights(u)[pos])
        return 0.0

    def has_edge(self, u, v):
        return self.weight(u, v) > 0.0

    def edge_arrays(self):
        """Canonical (u, v, w) arrays with u < v, sorted by (u, v)."""
        built = _numpy_arrays(self)
        return built["edge_u"], built["edge_v"], built["edge_w"]

    def edge_key_set(self):
        """Set of u * n_universe + v keys (u < v) for O(1) membership tests."""
        n = self.n_universe
        return {a * n + b for a, b in zip(self._edge_u, self._edge_v)}


def build_snapshot(log, interval, weight_rule="1/(k-1)"):
    """Aggregate the log's events inside a closed interval into a Snapshot.

    Each event expands to all unordered participant pairs; a pair's
    contribution is the event's weight override when given, else the
    configured clique rule (default ``1/(k-1)``, so a pair event weighs 1).
    Contributions sum per pair, in event order. An interval selecting no
    events yields a valid empty snapshot.
    """
    begin, end = _check_interval(interval)
    try:
        rule = WEIGHT_RULES[weight_rule]
    except KeyError:
        raise ConfigError(f"unknown weight rule {weight_rule!r}",
                          field="dataset.weight_rule") from None

    lo = bisect.bisect_left(log._timestamps, begin)
    hi = bisect.bisect_right(log._timestamps, end)
    offsets, nodes, overrides = log._offsets, log._nodes, log._overrides
    n = log.n_nodes
    # Pair (u, v), u < v, is key u * n + v: the keys sort in (u, v) order.
    acc = {}
    get = acc.get
    for i in range(lo, hi):
        first, stop = offsets[i], offsets[i + 1]
        w = overrides[i]
        if not math.isfinite(w):
            w = rule(stop - first)
        for a in range(first, stop):
            pa = nodes[a]
            for b in range(a + 1, stop):
                pb = nodes[b]
                key = pa * n + pb if pa < pb else pb * n + pa
                acc[key] = get(key, 0.0) + w

    keys = sorted(acc)
    snap = object.__new__(Snapshot)
    snap._set(n, array("q", [key // n for key in keys]),
              array("q", [key % n for key in keys]),
              array("d", map(acc.__getitem__, keys)), (begin, end), log.id_labels)
    return snap


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


def write_snapshot_csv(snapshot, fh):
    """Export edges as ``u,v,weight`` rows, u < v in interned order, rows
    sorted lexicographically by label. Ids are quoted where CSV needs it
    (:func:`csv_field`). Bit-exact for identical inputs."""
    u, v, w = snapshot._edge_u, snapshot._edge_v, snapshot._edge_w
    labels = snapshot.id_labels
    name = labels.__getitem__ if labels is not None else str
    label = {i: name(i) for i in set(u).union(v)}
    field = {i: csv_field(x) for i, x in label.items()}
    rows = sorted((label[a], label[b], a, b, repr(x)) for a, b, x in zip(u, v, w))
    fh.write("u,v,weight\n" + "".join(f"{field[a]},{field[b]},{x}\n"
                                       for _, _, a, b, x in rows))
