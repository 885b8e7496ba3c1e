"""Unsupervised topological link-prediction scores.

Four predictors are provided: common neighbors, Adamic/Adar (natural log),
preferential attachment (degree product), and PropFlow (bounded
outward-moving flow propagation over edge weights). PropFlow is directional:
``propflow(s, u, v, l)`` and ``propflow(s, v, u, l)`` may differ, so pair
scoring resolves the two orderings through a direction policy.

CN and AA look each pair up in a sorted table of the two-hop paths from the
pairs' sources (:mod:`lpeval.twohop`): a key's run of paths counts its
common neighbors (CN) or sums their 1/ln deg (AA). PA reads the degree of
each end. PropFlow and stratification go through the cell walk
:func:`_walk`, which expands a run of sources one BFS level at a time over
the snapshot's CSR arrays with whole-run numpy calls, each level a sorted
list of (source, node) cells. PropFlow carries flow along each level's
forward edges into a sorted table of inflows, and stratification reads the
cells of each depth. Pairs are looked up in their table a chunk of rows at
a time, so scoring any permutation or split of a pair list gives
bit-identical scores.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .cells import _CHUNK_ROWS, _sorted_unique
from .config import DIRECTION_POLICIES, PredictorId  # noqa: F401 (re-exported)
from .errors import ConfigError, InvalidPairError, UnknownNodeError

# Cells of one run of sources, 8 bytes a cell: :func:`_runs` bounds what
# each source's walk touches and cuts the sources into runs under this
# budget, for the walks below and for the two-hop paths gathered at once
# (``twohop``), unless a single source touches more.
_BLOCK_CELLS = 1 << 18


def _check_pair(u, v):
    if u == v:
        raise InvalidPairError(f"u == v == {u}")


def _check_known(s, u, query_mode):
    # Nodes of the interned universe score naturally even with no edges in
    # this window (degree 0); ids outside the universe are pipeline bugs in
    # recommendation mode and only tolerated under the query-mode adaptation.
    if not query_mode and not 0 <= u < s.n_universe:
        raise UnknownNodeError(
            f"node id {u} is outside the snapshot universe "
            "(enable query mode to score unknown nodes)")


def _validate_known(s, u_arr, v_arr):
    for arr in (u_arr, v_arr):
        for rows in _row_chunks(arr.size):
            a = arr[rows]
            bad = a[(a < 0) | (a >= s.n_universe)]
            if bad.size:
                _check_known(s, int(bad[0]), False)


# ---------------------------------------------------------------------------
# The cell walk


def _row_chunks(n):
    """Slices of ``n`` rows, _CHUNK_ROWS at a time."""
    for lo in range(0, n, _CHUNK_ROWS):
        yield slice(lo, min(n, lo + _CHUNK_ROWS))


def _ranges(starts, stops):
    """The ranges ``starts[i]:stops[i]`` as ``(counts, pos)``: ``pos``
    lists their positions in order and ``counts[i]`` the length of range i,
    so ``np.repeat(x, counts)`` spreads a value per range over its
    positions. A node's CSR slice is ``indptr[node]:indptr[node + 1]``."""
    counts = stops - starts
    pos = np.repeat(starts - np.cumsum(counts) + counts, counts)
    pos += np.arange(pos.size)
    return counts, pos


def _runs(s, sources, depth):
    """Consecutive runs of ``sources`` whose walks to ``depth`` hops (None:
    no limit) touch at most _BLOCK_CELLS cells in all, or single sources.

    A walk reaches at most one cell and gathers at most one CSR entry per
    walk of length 0..depth from its source, and at most n + nnz of each;
    its 1-byte ``seen`` row adds n / 8 cells.
    """
    n, cap = s.n_universe, s.n_universe + s.indices.size
    cost = walks = np.ones(n, dtype=np.int64)  # the walks of length 0 from each node
    for _ in range(depth or 0):
        reach = np.concatenate(([0], np.cumsum(walks[s.indices])))
        walks = np.minimum(np.diff(reach[s.indptr]), cap)
        cost = cost + walks
    cost = np.full(n, cap) if depth is None else np.minimum(cost, cap)
    cost = np.append(cost, 0) + -(-n // 8)  # cost[n]: off the universe
    ends = np.cumsum(cost[np.where((sources >= 0) & (sources < n), sources, n)])
    lo = 0
    while lo < sources.size:
        limit = (ends[lo - 1] if lo else 0) + _BLOCK_CELLS
        hi = max(lo + 1, int(ends.searchsorted(limit, side="right")))
        yield sources[lo:hi]
        lo = hi


class _Level(NamedTuple):
    """One BFS level of a run's walk: the cells ``(rows[k], nodes[k])``
    first reached at ``depth``, sorted by (row, node), row i being the walk
    from the run's i-th source. ``pos`` lists the CSR positions of their
    neighbor slices in frontier order, ``entry`` each position's frontier
    cell, and ``fwd`` marks the edges into nodes first reached at ``depth +
    1``. ``seen`` is the walk's (run x universe) bool matrix of the cells
    reached so far; after the last level, of every cell the walk reached.
    """

    depth: int
    seen: np.ndarray
    rows: np.ndarray
    nodes: np.ndarray
    entry: np.ndarray
    pos: np.ndarray
    fwd: np.ndarray


def _walk(s, sources, depth_limit=None):
    """Walk a run of sources one BFS level at a time; yield each _Level.

    A level gathers its frontier's CSR slices (:func:`_ranges`), masks
    them against ``seen`` and deduplicates the new cells. The level at
    ``depth_limit`` is yielded with an empty expansion, and the walk ends
    after a level with no forward edge. Sources off the universe reach
    nothing.
    """
    n = s.n_universe
    seen = np.zeros((sources.size, n), dtype=bool)
    rows = np.flatnonzero((sources >= 0) & (sources < n))
    nodes = sources[rows]
    seen[rows, nodes] = True
    depth = 0
    while True:
        expand = nodes[:0] if depth == depth_limit else nodes
        counts, pos = _ranges(s.indptr[expand], s.indptr[expand + 1])
        entry = np.repeat(np.arange(expand.size), counts)
        cell = rows[entry] * n + s.indices[pos]  # row * n + neighbor
        fwd = ~seen.reshape(-1)[cell]
        yield _Level(depth, seen, rows, nodes, entry, pos, fwd)
        if not fwd.any():
            return
        cells = _sorted_unique(cell[fwd])
        rows, nodes = np.divmod(cells, n)
        depth += 1
        seen.reshape(-1)[cells] = True


def bfs_levels(s, source, depth_limit=None):
    """Hop distance from ``source`` to every node; -1 where unreached."""
    out = np.full(s.n_universe, -1, dtype=np.int64)
    for level in _walk(s, np.array([source], dtype=np.int64), depth_limit):
        out[level.nodes] = level.depth
    return out


def _propflow_walk(s, run, l_max, targets=None, dead=None):
    """Level-synchronous PropFlow from every source of a run: yield each
    level of the walk to ``l_max`` with the inflow of its cells.

    Flow is carried per frontier cell and split along its forward edges by
    weight. Each new cell adds its terms with ``np.bincount`` in entry
    order, by (source, predecessor id), one term at a time. With
    ``targets``, row i's target absorbs: it passes nothing on. With
    ``dead`` (a float per source), the flow stuck at cells below ``l_max``
    without a forward edge is added to it.
    """
    n = s.n_universe
    for level in _walk(s, run, l_max):
        if level.depth == 0:
            inflow = np.ones(level.nodes.size)
        else:  # the terms the last level sent, keyed by their cells
            inflow = np.bincount(np.searchsorted(level.rows * n + level.nodes, key),
                                 weights=share, minlength=level.nodes.size)
        yield level, inflow
        if level.depth == l_max:
            return
        flow = inflow
        if targets is not None:
            flow = np.where(level.nodes == targets[level.rows], 0.0, inflow)
        e = level.entry[level.fwd]
        pos = level.pos[level.fwd]
        total = np.bincount(e, weights=s.weights[pos], minlength=level.nodes.size)
        if dead is not None:
            stuck = total == 0.0
            dead += np.bincount(level.rows[stuck], weights=flow[stuck],
                                minlength=run.size)
        share = flow[e] * (s.weights[pos] / total[e])
        key = level.rows[e] * n + s.indices[pos]


def _propflow_table(s, sources, l_max):
    """The PropFlow inflow of every cell the walks from ``sources``
    (distinct, ascending) reach within ``l_max`` hops, as ``(keys,
    values)``, keyed ``source * n + node`` ascending: the runs' tables join
    in key order."""
    n = s.n_universe
    keys, values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for run in _runs(s, sources, l_max):
        key, value = map(np.concatenate, zip(*(
            (run[level.rows] * n + level.nodes, inflow)
            for level, inflow in _propflow_walk(s, run, l_max))))
        order = np.argsort(key)
        keys.append(key[order])
        values.append(value[order])
    return np.concatenate(keys), np.concatenate(values)


def _lookup(s, keys, values, u_arr, v_arr):
    """The value of each pair's key ``u * n + v`` in a sorted table, looked
    up a chunk of rows at a time; 0 where the table has no such key or an
    end is off the universe."""
    n = s.n_universe
    out = np.zeros(u_arr.size)
    for rows in _row_chunks(u_arr.size if keys.size else 0):
        u, v = u_arr[rows], v_arr[rows]
        key = u * n + v
        at = np.minimum(keys.searchsorted(key), keys.size - 1)
        hit = (keys[at] == key) & (u >= 0) & (u < n) & (v >= 0) & (v < n)
        out[rows][hit] = values[at[hit]]
    return out


def _ends(s, *columns):
    """The distinct ends in the universe of the pair columns, ascending."""
    seen = np.zeros(s.n_universe, dtype=bool)
    for col in columns:
        for rows in _row_chunks(col.size):
            a = col[rows]
            seen[a[(a >= 0) & (a < s.n_universe)]] = True
    return np.flatnonzero(seen)


# ---------------------------------------------------------------------------
# Predictors


def _two_hop_pairs(s, u_arr, v_arr, weighted):
    """CN (or, ``weighted``, AA) of each pair, looked up in the two-hop
    table of the pairs' sources; 0 off the universe."""
    # Imported here: every array command loads this module, and the ones
    # that score no CN or AA need not compile the table.
    from .twohop import two_hop_table
    keys, values = two_hop_table(s, _ends(s, u_arr), weighted)
    return _lookup(s, keys, values, u_arr, v_arr)


def _propflow_pairs(s, u_arr, v_arr, l_max, policy=None):
    """PropFlow of each pair from ``u`` to ``v``, from a table of the walks
    from the pairs' sources. Given ``policy``, both directions come from one
    table of the walks from every distinct end and are resolved by it a
    chunk of rows at a time (under list-both, forward then reverse)."""
    _check_l_max(l_max)
    keys, values = _propflow_table(
        s, _ends(s, u_arr) if policy is None else _ends(s, u_arr, v_arr), l_max)
    if policy is None:
        return _lookup(s, keys, values, u_arr, v_arr)
    width = 2 if policy == "list-both" else 1
    out = np.empty(u_arr.size * width)
    for rows in _row_chunks(u_arr.size):
        u, v = u_arr[rows], v_arr[rows]
        scores = aggregate_directional(_lookup(s, keys, values, u, v),
                                       _lookup(s, keys, values, v, u), policy)
        out[width * rows.start:width * rows.stop] = np.ravel(scores, order="F")
    return out


def _single(fn, s, u, v, query_mode, *args):
    """Check one pair and score it with ``fn``, a scorer of pair arrays."""
    _check_pair(u, v)
    _check_known(s, u, query_mode)
    _check_known(s, v, query_mode)
    return float(fn(s, np.array([u], dtype=np.int64),
                    np.array([v], dtype=np.int64), *args)[0])


def common_neighbors(s, u, v, query_mode=False):
    """|Γ(u) ∩ Γ(v)| as a float."""
    return _single(_two_hop_pairs, s, u, v, query_mode, False)


def adamic_adar(s, u, v, query_mode=False):
    """Sum of 1/ln(deg(n)) over common neighbors n of u and v.

    Terms are added in ascending degree order, so equal degree multisets
    give bit-equal scores. A true common neighbor has degree >= 2 (it
    touches both u and v), so ln(deg) is never zero; a degree-1 common
    neighbor means the snapshot is corrupt and raises rather than returning
    infinity.
    """
    return _single(_two_hop_pairs, s, u, v, query_mode, True)


def preferential_attachment(s, u, v, query_mode=False):
    """deg(u) * deg(v); in query mode unknown nodes count as degree 1."""
    return _single(_preferential_attachment_pairs, s, u, v, query_mode, query_mode)


class FlowAccounting(NamedTuple):
    """Exact disposition of one unit of source flow after l_max hops."""

    absorbed: float     # arrived at the target (the PropFlow score)
    remaining: float    # parked at depth-l_max nodes, could still move
    dead_ended: float   # stuck at nodes with no outward edge

    @property
    def total(self):
        return self.absorbed + self.remaining + self.dead_ended


def _check_l_max(l_max):
    if l_max < 1:
        raise ConfigError("l_max must be >= 1", field="propflow.l_max")


def propflow_accounting(s, source, target, l_max):
    """PropFlow with full conservation bookkeeping.

    One unit of flow starts at the source. At each hop a node passes its
    inflow to neighbors at strictly greater BFS depth, split proportionally
    to edge weight among those outward edges only. The target absorbs
    whatever reaches it (flow past the target could never return to it, so
    absorption does not change the score). absorbed + remaining + dead_ended
    is exactly 1.
    """
    _check_pair(source, target)
    _check_l_max(l_max)
    if not s.contains(source):
        return FlowAccounting(0.0, 0.0, 1.0)
    dead = np.zeros(1)
    absorbed = remaining = 0.0
    for level, inflow in _propflow_walk(s, np.array([source], dtype=np.int64), l_max,
                                        targets=np.array([target]), dead=dead):
        at = level.nodes == target
        absorbed += inflow[at].sum()
        if level.depth == l_max:
            remaining = inflow[~at].sum()
    return FlowAccounting(float(absorbed), float(remaining), float(dead[0]))


def propflow(s, source, target, l_max, query_mode=False):
    """Flow absorbed at ``target`` within ``l_max`` hops, in [0, 1].

    Path predictors have no basis for nodes without feature-window edges;
    such sources or targets score 0 (query mode) rather than erroring.
    """
    return _single(_propflow_pairs, s, source, target, query_mode, l_max)


def propflow_all(s, source, l_max):
    """Inflow at every node from one outward propagation sweep.

    Because flow moves only to strictly greater BFS depths, the inflow a node
    accumulates is identical whether or not any other node absorbs, so one
    sweep yields ``propflow(s, source, t, l_max)`` for every target t.
    """
    inflow = np.zeros(s.n_universe)
    for level, flow in _propflow_walk(s, np.array([source], dtype=np.int64), l_max):
        if level.depth:
            inflow[level.nodes] = flow
    return inflow


def aggregate_directional(forward, reverse, policy):
    """Resolve the two orderings of a directional score to one ranking entry.

    Scores are scalars or arrays, resolved elementwise. ``mean``/``max``/``min``
    return a single score; ``list-both`` returns the
    (forward, reverse) pair so each ordering ranks separately.
    """
    if policy == "mean":
        return (forward + reverse) / 2.0
    if policy == "max":
        return np.maximum(forward, reverse)
    if policy == "min":
        return np.minimum(forward, reverse)
    if policy == "list-both":
        return (forward, reverse)
    raise ConfigError(f"unknown direction policy {policy!r}", field="policy")


def _preferential_attachment_pairs(s, u_arr, v_arr, query_mode):
    n = s.n_universe
    degs = np.zeros(n + 1, dtype=np.int64)
    degs[:n] = s.degrees()
    out = np.empty(u_arr.size)
    for rows in _row_chunks(u_arr.size):
        du, dv = (degs[np.where((a >= 0) & (a < n), a, n)]
                  for a in (u_arr[rows], v_arr[rows]))
        if query_mode:
            du, dv = np.maximum(du, 1), np.maximum(dv, 1)
        out[rows] = du * dv
    return out


def _scores(s, u_arr, v_arr, predictor, policy, query_mode):
    """Check the pairs and score them: one score per output row of
    :func:`score_pairs`.

    A symmetric predictor scores each pair once; the policies other than
    list-both all resolve two equal scores to that score, so it is returned
    as it is, and list-both repeats it.
    """
    if any(np.any(u_arr[rows] == v_arr[rows]) for rows in _row_chunks(u_arr.size)):
        raise InvalidPairError("candidate pair with u == v")
    if policy not in DIRECTION_POLICIES:
        raise ConfigError(f"unknown direction policy {policy!r}", field="policy")
    if not query_mode:
        _validate_known(s, u_arr, v_arr)

    if predictor.kind == "propflow":
        return _propflow_pairs(s, u_arr, v_arr, predictor.l_max, policy)
    if predictor.kind == "preferential-attachment":
        scores = _preferential_attachment_pairs(s, u_arr, v_arr, query_mode)
    else:
        scores = _two_hop_pairs(s, u_arr, v_arr, predictor.kind == "adamic-adar")
    return np.repeat(scores, 2) if policy == "list-both" else scores


def score_pairs(s, u_arr, v_arr, predictor, policy="mean", query_mode=False):
    """Score unordered candidate pairs with one predictor.

    Returns ``(index, scores)`` where ``index`` maps each output row to its
    input pair. For symmetric predictors (and any policy other than
    list-both) index is 0..n-1; for a directional predictor under list-both
    each pair yields two rows, forward then reverse. A pair's score does not
    depend on the other pairs scored with it.
    """
    u_arr = np.asarray(u_arr, dtype=np.int64)
    v_arr = np.asarray(v_arr, dtype=np.int64)
    scores = _scores(s, u_arr, v_arr, predictor, policy, query_mode)
    index = np.arange(u_arr.size, dtype=np.int64)
    if policy == "list-both":
        index = np.repeat(index, 2)
    return index, scores


def score_instances(s, instances, predictor, policy="mean", query_mode=False):
    """Attach a score column (named after the predictor) to an instance set.

    Returns a new set. Under ``mean``, ``max`` and ``min`` each pair gives
    one row: the set shares the input's ``u``, ``v``, ``distance``,
    ``label`` and other score columns, and scoring adds only the 8-byte
    score column, with no per-row index. Every predictor works through the
    pairs a chunk of rows at a time, so its other temporaries do not grow
    with the rows. Under list-both every pair gives two rows, one per
    ordering, and the columns are copied.
    """
    scores = _scores(s, instances.u, instances.v, predictor, policy, query_mode)
    if policy == "list-both":
        expanded = instances.take(np.repeat(np.arange(len(instances)), 2))
    else:
        expanded = dataclasses.replace(instances, scores=dict(instances.scores))
    expanded.scores[predictor.name] = scores
    return expanded
