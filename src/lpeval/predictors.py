"""Unsupervised topological link-prediction scores.

Four predictors are provided: common neighbors, Adamic/Adar (natural log),
preferential attachment (degree product), and PropFlow (bounded
outward-moving flow propagation over edge weights). PropFlow is directional:
``propflow(s, u, v, l)`` and ``propflow(s, v, u, l)`` may differ, so pair
scoring resolves the two orderings through a direction policy.

All graph work goes through one kernel, :func:`_walk`, which expands a
block of sources one BFS level at a time over the snapshot's CSR arrays
with whole-block numpy calls. CN and AA are the row block of A·A reached at
the second level, PropFlow pushes flow along each level's forward edges,
and stratification reads the hop levels. Pairs are scored grouped by
source, and a pair's score depends only on its own source row, so scoring
any permutation or split of a pair list gives bit-identical scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataCorruptionError, InvalidPairError, UnknownNodeError

DIRECTION_POLICIES = ("mean", "max", "min", "list-both")

_ALIASES = {
    "cn": "common-neighbors",
    "aa": "adamic-adar",
    "pa": "preferential-attachment",
    "pf": "propflow",
}
_KINDS = ("common-neighbors", "adamic-adar", "preferential-attachment", "propflow")

# Cells of one block of sources: each source owns a dense row over the
# universe plus room for one level's expansion (at most every CSR entry), so
# this bounds the memory of every block-at-a-time walk below.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class PredictorId:
    """A predictor tag; propflow carries its hop bound ``l_max``."""

    kind: str
    l_max: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown predictor {self.kind!r}", field="predictors")
        if self.kind == "propflow":
            if self.l_max is None or self.l_max < 1:
                raise ConfigError("propflow needs l_max >= 1", field="predictors")
        elif self.l_max is not None:
            raise ConfigError(f"{self.kind} takes no l_max", field="predictors")

    @property
    def directional(self):
        return self.kind == "propflow"

    @property
    def name(self):
        if self.kind == "propflow":
            return f"propflow{self.l_max}"
        return self.kind

    @classmethod
    def parse(cls, text):
        """Parse ``"cn"``, ``"adamic-adar"``, ``"propflow:4"``, ``"pf:4"`` ..."""
        text = text.strip().lower()
        kind, _, arg = text.partition(":")
        kind = _ALIASES.get(kind, kind)
        if kind == "propflow":
            if not arg:
                raise ConfigError("propflow needs ':l_max' (e.g. propflow:4)",
                                  field="predictors")
            return cls(kind, int(arg))
        if arg:
            raise ConfigError(f"{kind} takes no argument", field="predictors")
        return cls(kind)


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
        bad = arr[(arr < 0) | (arr >= s.n_universe)]
        if bad.size:
            _check_known(s, int(bad[0]), False)


# ---------------------------------------------------------------------------
# The block kernel


def _blocks(s, sources):
    """Consecutive runs of ``sources``, _BLOCK_CELLS cells at most."""
    size = max(1, _BLOCK_CELLS // (s.n_universe + s.indices.size))
    for lo in range(0, sources.size, size):
        yield sources[lo:lo + size]


@dataclass(frozen=True)
class _Level:
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
    neighbor slices are gathered with ``np.repeat`` on ``indptr``, masked
    against the hop matrix, and deduplicated with ``np.unique``. The level
    at ``depth_limit`` is yielded with an empty expansion, and the walk ends
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
        starts = s.indptr[expand]
        counts = s.indptr[expand + 1] - starts
        entry = np.repeat(np.arange(expand.size), counts)
        pos = np.arange(entry.size) + np.repeat(starts - np.cumsum(counts) + counts,
                                                counts)
        nbr = s.indices[pos]
        fwd = levels[rows[entry], nbr] < 0
        yield _Level(depth, levels, rows, nodes, entry, pos, fwd)
        if not fwd.any():
            return
        cells = np.unique(rows[entry[fwd]] * n + nbr[fwd])
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


def _two_hop(s, block, weighted):
    """Row block of A·A (CN) or, ``weighted``, of A·diag(1/ln deg)·A (AA).

    The walk's second level expands every neighbor of every source, so each
    cell sums one term per common neighbor. AA adds its terms in ascending
    degree order, one at a time: pairs whose common neighbors have the same
    degree multiset get bit-equal scores, whatever their node ids.
    """
    n = s.n_universe
    for level in _walk(s, block, depth_limit=2):
        if level.depth == 1:
            break
    else:
        return np.zeros((block.size, n))
    mid = level.nodes[level.entry]
    row = level.rows[level.entry]
    tgt = s.indices[level.pos]
    cells = row * n + tgt
    if not weighted:
        return np.bincount(cells, minlength=block.size * n).reshape(
            block.size, n).astype(np.float64)
    deg = np.diff(s.indptr)
    # A true common neighbor touches both ends, so it has degree >= 2; a
    # degree-1 middle node on a walk that does not return to its source
    # means the snapshot is corrupt.
    if np.any((deg[mid] < 2) & (tgt != block[row])):
        raise DataCorruptionError("common neighbor with degree < 2")
    inv_log = np.zeros(n)
    many = deg >= 2
    inv_log[many] = 1.0 / np.log(deg[many])
    order = np.argsort(deg[mid], kind="stable")
    return np.bincount(cells[order], weights=inv_log[mid[order]],
                       minlength=block.size * n).reshape(block.size, n)


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
    sources, inverse = np.unique(src[idx], return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    idx, inverse = idx[order], inverse[order]
    first = 0
    for block in _blocks(s, sources):
        lo, hi = np.searchsorted(inverse, [first, first + block.size])
        pairs = idx[lo:hi]
        out[pairs] = kernel(block)[inverse[lo:hi] - first, dst[pairs]]
        first += block.size
    return out


# ---------------------------------------------------------------------------
# Predictors


def _two_hop_pairs(s, u_arr, v_arr, weighted):
    return _by_source(s, u_arr, v_arr, lambda b: _two_hop(s, b, weighted))


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


@dataclass(frozen=True)
class FlowAccounting:
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

    ``mean``/``max``/``min`` return a single score; ``list-both`` returns the
    (forward, reverse) pair so each ordering ranks separately.
    """
    if policy == "mean":
        return (forward + reverse) / 2.0
    if policy == "max":
        return max(forward, reverse)
    if policy == "min":
        return min(forward, reverse)
    if policy == "list-both":
        return (forward, reverse)
    raise ConfigError(f"unknown direction policy {policy!r}", field="policy")


def _preferential_attachment_pairs(s, u_arr, v_arr, query_mode):
    degs = np.zeros(s.n_universe + 1, dtype=np.int64)
    degs[:s.n_universe] = s.degrees()
    in_universe = lambda a: np.where((a >= 0) & (a < s.n_universe), a,
                                     s.n_universe)
    du = degs[in_universe(u_arr)]
    dv = degs[in_universe(v_arr)]
    if query_mode:
        du, dv = np.maximum(du, 1), np.maximum(dv, 1)
    return (du * dv).astype(np.float64)


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
    if np.any(u_arr == v_arr):
        raise InvalidPairError("candidate pair with u == v")
    if policy not in DIRECTION_POLICIES:
        raise ConfigError(f"unknown direction policy {policy!r}", field="policy")
    if not query_mode:
        _validate_known(s, u_arr, v_arr)

    if predictor.kind == "propflow":
        fwd = _propflow_pairs(s, u_arr, v_arr, predictor.l_max)
        rev = _propflow_pairs(s, v_arr, u_arr, predictor.l_max)
    elif predictor.kind == "preferential-attachment":
        fwd = rev = _preferential_attachment_pairs(s, u_arr, v_arr, query_mode)
    else:
        fwd = rev = _two_hop_pairs(s, u_arr, v_arr,
                                   predictor.kind == "adamic-adar")

    n = u_arr.size
    if policy == "list-both":
        index = np.repeat(np.arange(n, dtype=np.int64), 2)
        scores = np.empty(2 * n, dtype=np.float64)
        scores[0::2] = fwd
        scores[1::2] = rev
        return index, scores
    if policy == "mean":
        scores = (fwd + rev) / 2.0
    elif policy == "max":
        scores = np.maximum(fwd, rev)
    else:
        scores = np.minimum(fwd, rev)
    return np.arange(n, dtype=np.int64), scores


def score_instances(s, instances, predictor, policy="mean", query_mode=False):
    """Attach a score column (named after the predictor) to an instance set.

    Under list-both with a directional predictor the instance rows are
    duplicated, one per ordering.
    """
    index, scores = score_pairs(s, instances.u, instances.v, predictor,
                                policy=policy, query_mode=query_mode)
    expanded = instances.take(index)
    expanded.scores[predictor.name] = scores
    return expanded
