"""Unsupervised topological link-prediction scores.

Four predictors are provided: common neighbors, Adamic/Adar (natural log),
preferential attachment (degree product), and PropFlow (bounded
outward-moving flow propagation over edge weights). PropFlow is directional:
``propflow(s, u, v, l)`` and ``propflow(s, v, u, l)`` may differ, so pair
scoring resolves the two orderings through a direction policy.

CN and AA look each pair up in a sorted table of the two-hop paths from the
pairs' sources (:mod:`lpeval.twohop`): a key's run of paths counts its
common neighbors (CN) or sums their 1/ln deg (AA). PA reads the degree of
each end. PropFlow and stratification go through the block kernel
:func:`_walk`, which expands a block of sources one BFS level at a time over
the snapshot's CSR arrays with whole-block numpy calls: PropFlow pushes flow
along each level's forward edges, and stratification reads the hop levels.
Pairs are scored chunk by chunk or grouped by source, and a pair's score
depends only on the pair, so scoring any permutation or split of a pair
list gives bit-identical scores.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .config import DIRECTION_POLICIES, PredictorId  # noqa: F401 (re-exported)
from .errors import ConfigError, InvalidPairError, UnknownNodeError

# Cells of one block of sources: each source owns a dense row over the
# universe plus room for one level's expansion (at most every CSR entry), so
# this bounds the memory of every block-at-a-time walk below. It also bounds
# the two-hop paths gathered for one run of sources (``twohop._path_runs``),
# unless a single source has more.
_BLOCK_CELLS = 1 << 18

# Rows scored, labeled or written at a time: large enough that the
# per-chunk calls cost nothing, small enough that no whole-set temporary (a
# whole-file list of row strings, a key per candidate) is held.
_CHUNK_ROWS = 8192


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
# The block kernel


def _sorted_unique(a):
    """The distinct values of an integer array, ascending.

    ``np.unique`` without a ``return_*`` flag hashes integers (numpy >= 2.3),
    which is several times slower than this sort, and imports ``numpy.ma``.
    """
    a = np.sort(a, axis=None)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def csv_cells(values, fmt, sep):
    """One CSV column of 8-byte ``values`` as ``(cells, distinct)``:
    ``distinct`` holds the column's distinct bit patterns (int64, sorted)
    and ``cells[j]`` the text of ``distinct[j]``.

    ``fmt`` runs once per distinct bit pattern, so ``-0.0`` and ``0.0``
    keep their own text, and each cell ends with ``sep``, the separator
    that follows the column in a row. :func:`csv_chunks` looks the rows up.
    """
    distinct = _sorted_unique(values.view(np.int64))
    cells = [fmt(x) + sep for x in distinct.view(values.dtype).tolist()]
    return np.array(cells, dtype=object), distinct


def csv_chunks(columns, n, chunk_rows):
    """The text of ``n`` CSV rows, ``chunk_rows`` rows a string.

    Each column is ``(cells, distinct, values)``. Row i reads
    ``cells[values[i]]``, or with ``distinct`` (:func:`csv_cells`) the cell
    of ``values[i]``'s bit pattern, found by a binary search per chunk, so
    no index runs the length of the column. A chunk fills one
    (rows x columns) array of cells, joined at once.
    """
    for lo in range(0, n, chunk_rows):
        hi = min(n, lo + chunk_rows)
        rows = np.empty((hi - lo, len(columns)), dtype=object)
        for c, (cells, distinct, values) in enumerate(columns):
            index = values[lo:hi]
            if distinct is not None:
                index = distinct.searchsorted(index.view(np.int64))
            rows[:, c] = cells[index]
        yield "".join(rows.ravel().tolist())


def _blocks(s, sources):
    """Consecutive runs of ``sources``, _BLOCK_CELLS cells at most."""
    size = max(1, _BLOCK_CELLS // (s.n_universe + s.indices.size))
    for lo in range(0, sources.size, size):
        yield sources[lo:lo + size]


def _row_chunks(n):
    """Slices of ``n`` rows, _CHUNK_ROWS at a time."""
    for lo in range(0, n, _CHUNK_ROWS):
        yield slice(lo, min(n, lo + _CHUNK_ROWS))


def _slices(s, nodes):
    """The CSR slices of ``nodes``, concatenated in order, as ``(counts,
    pos)``: ``pos`` lists the CSR positions and ``counts[i]`` the length of
    ``nodes[i]``'s slice, so ``np.repeat(x, counts)`` spreads a value per
    node over its positions."""
    starts = s.indptr[nodes]
    counts = s.indptr[nodes + 1] - starts
    pos = np.repeat(starts - np.cumsum(counts) + counts, counts)
    pos += np.arange(pos.size)
    return counts, pos


class _Level(NamedTuple):
    """One BFS level of a block walk.

    The frontier holds the cells ``(rows[k], nodes[k])`` first reached at
    ``depth``, sorted by (row, node). ``pos`` lists the CSR positions of the
    frontier's neighbor slices, concatenated in frontier order; ``entry``
    maps each position to its frontier cell and ``fwd`` marks the edges into
    nodes first reached at ``depth + 1``. ``levels`` is the walk's (block x
    universe) hop matrix, -1 where not yet reached.
    """

    depth: int
    levels: np.ndarray
    rows: np.ndarray
    nodes: np.ndarray
    entry: np.ndarray
    pos: np.ndarray
    fwd: np.ndarray


def _walk(s, sources, depth_limit=None):
    """Walk a block of sources one BFS level at a time; yield each _Level.

    Every level is expanded with whole-block numpy calls: the frontier's
    neighbor slices are gathered (:func:`_slices`), masked against the hop
    matrix, and deduplicated with :func:`_sorted_unique`. The level at
    ``depth_limit`` is yielded with an empty expansion, and the walk ends
    after a level with no forward edge. Sources outside the universe reach
    nothing.
    """
    n = s.n_universe
    levels = np.full((sources.size, n), -1, dtype=np.int64)
    rows = np.flatnonzero((sources >= 0) & (sources < n))
    nodes = sources[rows]
    levels[rows, nodes] = 0
    depth = 0
    while True:
        expand = nodes[:0] if depth == depth_limit else nodes
        counts, pos = _slices(s, expand)
        entry = np.repeat(np.arange(expand.size), counts)
        nbr = s.indices[pos]
        fwd = levels[rows[entry], nbr] < 0
        yield _Level(depth, levels, rows, nodes, entry, pos, fwd)
        if not fwd.any():
            return
        cells = _sorted_unique(rows[entry[fwd]] * n + nbr[fwd])
        rows, nodes = np.divmod(cells, n)
        depth += 1
        levels.flat[cells] = depth


def bfs_level_blocks(s, sources, depth_limit=None):
    """Yield ``(block, levels)`` over consecutive blocks of ``sources``.

    ``levels[i, x]`` is the hop distance from ``block[i]`` to node ``x``,
    -1 where unreached within ``depth_limit`` hops.
    """
    sources = np.asarray(sources, dtype=np.int64)
    for block in _blocks(s, sources):
        for level in _walk(s, block, depth_limit):
            pass
        yield block, level.levels


def bfs_levels(s, source, depth_limit=None):
    """Hop distance from ``source`` to every node; -1 where unreached."""
    return next(bfs_level_blocks(s, [source], depth_limit))[1][0]


def _propflow_block(s, block, l_max, targets=None):
    """Level-synchronous PropFlow from every source of a block.

    Returns ``(levels, inflow, dead_ended)``: the walk's hop matrix, the
    inflow each node accumulates, and per source the flow stuck at nodes
    below ``l_max`` without a forward edge. With ``targets``, row i's target
    absorbs: it passes nothing on. Forward edges are visited by (source,
    node id), so each node adds its inflow in the order of its
    predecessors' ids, one term at a time.
    """
    n = s.n_universe
    inflow = np.zeros((block.size, n))
    dead = np.zeros(block.size)
    for level in _walk(s, block, l_max):
        if level.depth == 0:
            inflow[level.rows, level.nodes] = 1.0
        if level.depth == l_max:
            break
        flow = inflow[level.rows, level.nodes]
        if targets is not None:
            flow[level.nodes == targets[level.rows]] = 0.0
        e = level.entry[level.fwd]
        pos = level.pos[level.fwd]
        total = np.bincount(e, weights=s.weights[pos], minlength=level.nodes.size)
        stuck = total == 0.0
        dead += np.bincount(level.rows[stuck], weights=flow[stuck],
                            minlength=block.size)
        share = flow[e] * (s.weights[pos] / total[e])
        inflow += np.bincount(level.rows[e] * n + s.indices[pos], weights=share,
                              minlength=inflow.size).reshape(inflow.shape)
    return level.levels, inflow, dead


def _by_source(s, src, dst, kernel):
    """``out[i] = kernel(block)[row of src[i], dst[i]]``, 0 off the universe.

    Pairs are grouped by distinct source, and the kernel runs once per
    block of sources.
    """
    n = s.n_universe
    out = np.zeros(src.size)
    idx = np.flatnonzero((src >= 0) & (src < n) & (dst >= 0) & (dst < n))
    idx = idx[np.argsort(src[idx], kind="stable")]
    ends = src[idx]
    for block in _blocks(s, _sorted_unique(ends)):
        lo = np.searchsorted(ends, block[0])
        hi = np.searchsorted(ends, block[-1], side="right")
        pairs = idx[lo:hi]
        out[pairs] = kernel(block)[np.searchsorted(block, ends[lo:hi]),
                                   dst[pairs]]
    return out


# ---------------------------------------------------------------------------
# Predictors


def _two_hop_pairs(s, u_arr, v_arr, weighted):
    """CN (or, ``weighted``, AA) of each pair, looked up in the two-hop
    table of the pairs' sources a chunk of rows at a time; 0 off the
    universe."""
    # Imported here: every array command loads this module, and the ones
    # that score no CN or AA need not compile the table.
    from .twohop import two_hop_table
    n = s.n_universe
    seen = np.zeros(n, dtype=bool)
    for rows in _row_chunks(u_arr.size):
        u = u_arr[rows]
        seen[u[(u >= 0) & (u < n)]] = True
    keys, values = two_hop_table(s, np.flatnonzero(seen), weighted)
    out = np.zeros(u_arr.size)
    if not keys.size:
        return out
    for rows in _row_chunks(u_arr.size):
        u, v = u_arr[rows], v_arr[rows]
        key = u * n + v
        at = np.minimum(keys.searchsorted(key), keys.size - 1)
        hit = (keys[at] == key) & (u >= 0) & (u < n) & (v >= 0) & (v < n)
        out[rows][hit] = values[at[hit]]
    return out


def _propflow_pairs(s, src, dst, l_max):
    return _by_source(s, src, dst, lambda b: _propflow_block(s, b, l_max)[1])


def _single(fn, s, u, v, *args):
    return float(fn(s, np.array([u], dtype=np.int64),
                    np.array([v], dtype=np.int64), *args)[0])


def common_neighbors(s, u, v, query_mode=False):
    """|Γ(u) ∩ Γ(v)| as a float."""
    _check_pair(u, v)
    _check_known(s, u, query_mode)
    _check_known(s, v, query_mode)
    return _single(_two_hop_pairs, s, u, v, False)


def adamic_adar(s, u, v, query_mode=False):
    """Sum of 1/ln(deg(n)) over common neighbors n of u and v.

    Terms are added in ascending degree order, so equal degree multisets
    give bit-equal scores. A true common neighbor has degree >= 2 (it
    touches both u and v), so ln(deg) is never zero; a degree-1 common
    neighbor means the snapshot is corrupt and raises rather than returning
    infinity.
    """
    _check_pair(u, v)
    _check_known(s, u, query_mode)
    _check_known(s, v, query_mode)
    return _single(_two_hop_pairs, s, u, v, True)


def preferential_attachment(s, u, v, query_mode=False):
    """deg(u) * deg(v); in query mode unknown nodes count as degree 1."""
    _check_pair(u, v)
    _check_known(s, u, query_mode)
    _check_known(s, v, query_mode)
    du, dv = s.degree(u), s.degree(v)
    if query_mode:
        du, dv = max(du, 1), max(dv, 1)
    return float(du * dv)


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
    levels, inflow, dead = _propflow_block(
        s, np.array([source], dtype=np.int64), l_max,
        targets=np.array([target], dtype=np.int64))
    levels, inflow = levels[0], inflow[0]
    parked = levels == l_max
    absorbed = 0.0
    if 0 <= target < s.n_universe:
        absorbed = inflow[target]
        parked[target] = False
    return FlowAccounting(float(absorbed), float(inflow[parked].sum()),
                          float(dead[0]))


def propflow(s, source, target, l_max, query_mode=False):
    """Flow absorbed at ``target`` within ``l_max`` hops, in [0, 1].

    Path predictors have no basis for nodes without feature-window edges;
    such sources or targets score 0 (query mode) rather than erroring.
    """
    _check_pair(source, target)
    _check_known(s, source, query_mode)
    _check_known(s, target, query_mode)
    _check_l_max(l_max)
    return _single(_propflow_pairs, s, source, target, l_max)


def propflow_all(s, source, l_max):
    """Inflow at every node from one outward propagation sweep.

    Because flow moves only to strictly greater BFS depths, the inflow a node
    accumulates is identical whether or not any other node absorbs, so one
    sweep yields ``propflow(s, source, t, l_max)`` for every target t.
    """
    inflow = _propflow_block(s, np.array([source], dtype=np.int64), l_max)[1][0]
    if 0 <= source < s.n_universe:
        inflow[source] = 0.0
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
    """Check the pairs and score them: one score per pair, or under
    list-both the (forward, reverse) pair of score arrays.

    A symmetric predictor scores each pair once; the policies other than
    list-both all resolve two equal scores to that score, so it is returned
    as it is.
    """
    if any(np.any(u_arr[rows] == v_arr[rows]) for rows in _row_chunks(u_arr.size)):
        raise InvalidPairError("candidate pair with u == v")
    if policy not in DIRECTION_POLICIES:
        raise ConfigError(f"unknown direction policy {policy!r}", field="policy")
    if not query_mode:
        _validate_known(s, u_arr, v_arr)

    if predictor.kind == "propflow":
        # Both directions in one call: each distinct end is walked once.
        fwd, rev = np.split(_propflow_pairs(s, np.concatenate([u_arr, v_arr]),
                                            np.concatenate([v_arr, u_arr]),
                                            predictor.l_max), 2)
        return aggregate_directional(fwd, rev, policy)
    if predictor.kind == "preferential-attachment":
        scores = _preferential_attachment_pairs(s, u_arr, v_arr, query_mode)
    else:
        scores = _two_hop_pairs(s, u_arr, v_arr, predictor.kind == "adamic-adar")
    return (scores, scores) if policy == "list-both" else scores


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
    n = u_arr.size
    if policy == "list-both":
        index = np.repeat(np.arange(n, dtype=np.int64), 2)
        both = np.empty(2 * n, dtype=np.float64)
        both[0::2], both[1::2] = scores
        return index, both
    return np.arange(n, dtype=np.int64), scores


def score_instances(s, instances, predictor, policy="mean", query_mode=False):
    """Attach a score column (named after the predictor) to an instance set.

    Returns a new set. Under ``mean``, ``max`` and ``min`` each pair gives
    one row: the set shares the input's ``u``, ``v``, ``distance``,
    ``label`` and other score columns, and scoring adds only the 8-byte
    score column, with no per-row index. CN, AA and PA work through the
    pairs a chunk of rows at a time, so their other temporaries do not grow
    with the rows. Under list-both every pair gives two rows, one per
    ordering, and the columns are copied.
    """
    if policy == "list-both":
        index, scores = score_pairs(s, instances.u, instances.v, predictor,
                                    policy=policy, query_mode=query_mode)
        expanded = instances.take(index)
    else:
        scores = _scores(s, instances.u, instances.v, predictor, policy,
                         query_mode)
        expanded = dataclasses.replace(instances, scores=dict(instances.scores))
    expanded.scores[predictor.name] = scores
    return expanded
