"""The graph kernels (the cell walk and the two-hop table), against the
oracles."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lpeval import (EventLog, InstanceSet, PredictorId, Snapshot, adamic_adar,
                    build_snapshot, common_neighbors, generate_test_set,
                    geodesic_bucket_enumerate, new_link_distance_distribution,
                    predictors, propflow_accounting, propflow_all, score_instances,
                    score_pairs)
from lpeval import stratify, twohop
from lpeval.predictors import bfs_levels
from lpeval.stratify import BEYOND, DISCONNECTED
from lpeval.synth import synthetic_event_log

from conftest import random_graph
from oracles import (adamic_adar_fsum, common_neighbor_sets,
                     distance_distribution_oracle, hop_distances, hop_matrix,
                     propflow_accounting_dense, propflow_all_dense, propflow_path_sum,
                     propflow_scores, two_hop_scores)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def count_walks(monkeypatch, depths=None):
    """Count the library's walks (PropFlow's and stratification's) from here
    on: the number of sources of each run walked, and in ``depths``, if
    given, each run's depth limit."""
    calls = []
    walk = predictors._walk

    def counted(s, sources, depth_limit=None):
        calls.append(sources.size)
        if depths is not None:
            depths.append(depth_limit)
        return walk(s, sources, depth_limit)

    monkeypatch.setattr(predictors, "_walk", counted)
    monkeypatch.setattr(stratify, "_walk", counted)
    return calls


def clique_graph(rng, n=22, events=30, hub_events=8):
    """Snapshot of clique events of 3-5 nodes under the 1/(k-1) rule, so edge
    weights are fractional sums; node 0 joins extra events to reach degree
    >= 8."""
    log = []
    for t in range(events):
        k = int(rng.integers(3, 6))
        log.append((t, rng.choice(n, size=k, replace=False).tolist(), None))
    for t in range(events, events + hub_events):
        log.append((t, [0] + rng.choice(np.arange(1, n), size=3,
                                        replace=False).tolist(), None))
    s = build_snapshot(EventLog.from_tuples(log, id_labels=list(range(n))),
                       (0, events + hub_events))
    u, v, w = s.edge_arrays()
    return s, list(zip(u.tolist(), v.tolist(), w.tolist())), n


def run_sizes(s, sources, depth, budget):
    """The sizes of the runs that ``sources`` take under ``budget`` cells,
    from dense walk counts. A source in the universe costs its walks of
    length 0..depth from it, each length's count and the sum capped at
    n + nnz (n + nnz with no depth); every source adds n / 8 for its
    ``seen`` row. A run takes sources while their costs fit the budget,
    and at least one."""
    n = s.n_universe
    cap = n + s.indices.size
    adj = np.zeros((n, n), dtype=np.int64)
    np.add.at(adj, (np.repeat(np.arange(n), np.diff(s.indptr)), s.indices), 1)
    walks = cost = np.ones(n, dtype=np.int64)
    for _ in range(depth or 0):
        walks = np.minimum(adj @ walks, cap)
        cost = cost + walks
    cost = np.full(n, cap) if depth is None else np.minimum(cost, cap)
    sizes, total = [], 0
    for x in sources.tolist():
        c = (int(cost[x]) if 0 <= x < n else 0) + -(-n // 8)
        if sizes and total + c <= budget:
            sizes[-1] += 1
            total += c
        else:
            sizes.append(1)
            total = c
    return sizes


def walk_runs(s, sources, limit):
    """Walk ``sources`` in the runs that ``predictors._runs`` cuts; return
    the runs and the hop matrix read from the level cells (-1 unreached).
    Each run's ``seen`` holds exactly the cells its levels list, and the
    cells and gathered entries of its sources stay within the budget
    unless the run is a single source."""
    n = s.n_universe
    runs, hops = [], []
    for run in predictors._runs(s, sources, limit):
        hop = np.full((run.size, n), -1)
        cells = np.zeros(run.size, dtype=np.int64)
        entries = np.zeros(run.size, dtype=np.int64)
        for level in predictors._walk(s, run, limit):
            assert (hop[level.rows, level.nodes] == -1).all()
            hop[level.rows, level.nodes] = level.depth
            cells += np.bincount(level.rows, minlength=run.size)
            entries += np.bincount(level.rows[level.entry], minlength=run.size)
        assert np.array_equal(level.seen, hop >= 0)
        if run.size > 1:
            assert (np.maximum(cells, entries) + -(-n // 8)).sum() \
                <= predictors._BLOCK_CELLS
        runs.append(run)
        hops.append(hop)
    return runs, np.concatenate(hops)


class TestBlockBFS:
    def test_levels_match_hop_distances(self, rng, monkeypatch):
        default = predictors._BLOCK_CELLS
        for _ in range(15):
            s, edges, n = random_graph(rng, n=int(rng.integers(5, 30)))
            hops = hop_distances(n, [(u, v) for u, v, _ in edges])
            want = np.where(np.isinf(hops), -1, hops).astype(np.int64)
            # ids outside the universe reach nothing
            sources = np.arange(-1, n + 1)
            for block_cells in (default, 1, 3 * (n + s.indices.size)):
                monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
                for limit in (None, 1, int(rng.integers(2, 5))):
                    runs, got = walk_runs(s, sources, limit)
                    assert np.array_equal(np.concatenate(runs), sources)
                    assert [run.size for run in runs] == run_sizes(
                        s, sources, limit, block_cells)
                    if block_cells == default:
                        assert len(runs) == 1
                    elif block_cells == 1:
                        assert len(runs) == sources.size
                    cut = want if limit is None else np.where(want > limit, -1, want)
                    assert np.array_equal(got[1:-1], cut)
                    assert (got[[0, -1]] == -1).all()
                    assert np.array_equal(got, hop_matrix(s, sources, limit))
                    for i, x in enumerate(sources.tolist()):
                        assert np.array_equal(bfs_levels(s, x, limit), got[i])


class TestTwoHop:
    def test_cn_and_aa_match_set_intersection(self, rng):
        for _ in range(15):
            s, edges, n = random_graph(rng, n=int(rng.integers(4, 25)))
            common, degree = common_neighbor_sets(n, edges)
            pairs = sorted(common)
            u = np.array([p[0] for p in pairs])
            v = np.array([p[1] for p in pairs])
            cn = score_pairs(s, u, v, PredictorId.parse("cn"))[1]
            aa = score_pairs(s, u, v, PredictorId.parse("aa"))[1]
            for i, pair in enumerate(pairs):
                assert cn[i] == len(common[pair])
                assert aa[i] == pytest.approx(
                    adamic_adar_fsum(common[pair], degree), rel=1e-12, abs=0)
                assert common_neighbors(s, *pair) == cn[i]
                assert adamic_adar(s, *pair) == aa[i]

    def test_aa_equal_degree_multisets_bit_equal(self):
        # (0, 1) and (2, 3) each have four common neighbors of degrees
        # 2, 3, 4, 5, met in ascending id order by (0, 1) and in descending
        # id order by (2, 3). Summed in id order the two scores differ in
        # the last bit; the canonical ascending-degree sum makes them equal.
        degrees = (2, 3, 4, 5)
        edges, leaf = [], 12
        for (a, b), mids in (((0, 1), (4, 5, 6, 7)), ((2, 3), (11, 10, 9, 8))):
            for m, d in zip(mids, degrees):
                edges += [(a, m), (b, m)]
                for _ in range(d - 2):
                    edges.append((m, leaf))
                    leaf += 1
        s = Snapshot.from_edges(edges)

        def in_order(ds):
            total = 0.0
            for d in ds:
                total += 1.0 / math.log(d)
            return total

        assert in_order(degrees) != in_order(degrees[::-1])
        first, second = adamic_adar(s, 0, 1), adamic_adar(s, 2, 3)
        assert first == second == in_order(degrees)
        _, scores = score_pairs(s, np.array([0, 3]), np.array([1, 2]),
                                PredictorId.parse("aa"))
        assert scores[0] == scores[1] == first


def hub_graph(rng):
    """A random graph, a hub linked to half of its nodes and a few isolated
    nodes after them; returns the snapshot and its universe size."""
    _, edges, n = random_graph(rng, n=int(rng.integers(6, 20)))
    hub = [(n, int(x), 1.0) for x in rng.choice(n, size=n // 2, replace=False)]
    size = n + 1 + int(rng.integers(1, 4))
    return Snapshot.from_edges(edges + hub, n=size), size


def bits(scores):
    return scores.view(np.int64)


class TestTwoHopTable:
    """CN and AA from the sorted table of two-hop paths are bit-equal to
    the dense rows of A·A that they replaced (``oracles.two_hop_rows``)."""

    @pytest.mark.parametrize("block_cells", [1, 3, None])
    @pytest.mark.parametrize("chunk_rows", [1, 3, None])
    def test_bit_equal_to_dense_rows(self, rng, monkeypatch, chunk_rows,
                                     block_cells):
        for _ in range(4):
            s, n = hub_graph(rng)
            assert (s.degrees() == 0).any()
            # every ordered pair, so each as (u, v) and as (v, u), some twice
            u, v = np.nonzero(~np.eye(n, dtype=bool))
            again = rng.choice(u.size, size=25)
            order = rng.permutation(u.size + again.size)
            u = np.concatenate([u, u[again]])[order]
            v = np.concatenate([v, v[again]])[order]
            want = {w: two_hop_scores(s, u, v, w) for w in (False, True)}
            if chunk_rows is not None:
                monkeypatch.setattr(predictors, "_CHUNK_ROWS", chunk_rows)
            if block_cells is not None:
                monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
            for weighted, name in ((False, "cn"), (True, "aa")):
                pred = PredictorId.parse(name)
                index, got = score_pairs(s, u, v, pred)
                assert np.array_equal(index, np.arange(u.size))
                assert np.array_equal(bits(got), bits(want[weighted]))
                index, got = score_pairs(s, u[:0], v[:0], pred)
                assert index.size == got.size == 0
            monkeypatch.undo()

    def test_ids_outside_the_universe_score_zero_in_query_mode(self, rng):
        for _ in range(5):
            s, n = hub_graph(rng)
            inside = np.arange(n)
            # Off-universe ends whose keys u * n + v would alias the keys of
            # other sources' paths: v = n + y reads as (u + 1, y), v = -1
            # as (u - 1, n - 1).
            outside = np.array([-3, -1, n, n + 2, 2 * n + 1])
            u = np.concatenate([np.repeat(inside, outside.size),
                                np.repeat(outside, n), [-1, n]])
            v = np.concatenate([np.tile(outside, n), np.tile(inside, outside.size),
                                [n, -1]])
            for weighted, name in ((False, "cn"), (True, "aa")):
                _, got = score_pairs(s, u, v, PredictorId.parse(name),
                                     query_mode=True)
                assert np.array_equal(bits(got), bits(two_hop_scores(s, u, v,
                                                                     weighted)))
                assert not got.any()

    def test_graph_without_two_hop_paths_gives_an_empty_table(self):
        s = Snapshot.from_edges([], n=5)
        u, v = np.triu_indices(5, 1)
        for weighted, name in ((False, "cn"), (True, "aa")):
            keys, values = twohop.two_hop_table(s, np.arange(5), weighted)
            assert keys.size == values.size == 0
            _, got = score_pairs(s, u, v, PredictorId.parse(name))
            assert np.array_equal(bits(got), bits(two_hop_scores(s, u, v, weighted)))
            assert not got.any()

    def test_scaled_down_stand_in(self):
        # The paper-scale stand-in's shape at n=1,500: l_max 3 with both
        # sentinel buckets, so most rows are in ``beyond``.
        log = synthetic_event_log(1500, 6.0, 100, locality=0.8, seed=3)
        feature = build_snapshot(log, (0, 79))
        inst = generate_test_set(feature, build_snapshot(log, (80, 100)), l_max=3)
        assert len(inst) > 10 ** 6
        deg = feature.degrees()
        want = {"common-neighbors": two_hop_scores(feature, inst.u, inst.v, False),
                "adamic-adar": two_hop_scores(feature, inst.u, inst.v, True),
                "preferential-attachment":
                    (deg[inst.u] * deg[inst.v]).astype(np.float64)}
        for name in ("cn", "aa", "pa"):
            pred = PredictorId.parse(name)
            got = score_instances(feature, inst, pred).scores[pred.name]
            assert np.array_equal(bits(got), bits(want[pred.kind]))


def test_cn_and_aa_never_walk(rng, monkeypatch):
    s, _, n = random_graph(rng, n=25, p=0.2)
    u, v = np.triu_indices(n, 1)
    inst = InstanceSet(u, v, np.full(u.size, 2))
    walks = count_walks(monkeypatch)
    for name in ("cn", "aa"):
        pred = PredictorId.parse(name)
        for policy in ("mean", "list-both"):
            score_pairs(s, u, v, pred, policy=policy)
            score_instances(s, inst, pred, policy=policy)
    common_neighbors(s, 0, 1)
    adamic_adar(s, 0, 1)
    assert walks == []


def test_single_propflow_walks_its_source_only(rng, monkeypatch):
    s, _, n = random_graph(rng, n=25, p=0.2)
    u, v = np.array([3]), np.array([7])
    want = [propflow_scores(s, u, v, l_max)[0] for l_max in (1, 3)]
    depths = []
    walks = count_walks(monkeypatch, depths)
    got = [predictors.propflow(s, 3, 7, l_max) for l_max in (1, 3)]
    assert walks == [1, 1] and depths == [1, 3]
    assert got == want


class TestPropFlowBlock:
    def test_path_sum_and_conservation_on_clique_graphs(self, rng):
        for _ in range(3):
            s, edges, n = clique_graph(rng)
            assert s.degrees().max() >= 8
            assert any(w != round(w) for _, _, w in edges)
            src = rng.choice(s.node_ids, size=6, replace=False)
            u = np.repeat(src, n)
            v = np.tile(np.arange(n), src.size)
            keep = u != v
            u, v = u[keep], v[keep]
            for l_max in (1, 2, 3, 4):
                _, flows = score_pairs(s, u, v, PredictorId("propflow", l_max),
                                       policy="list-both")
                fwd = flows[0::2]
                for i in range(u.size):
                    a, b = int(u[i]), int(v[i])
                    want = propflow_path_sum(n, edges, a, b, l_max)
                    assert fwd[i] == pytest.approx(want, abs=1e-12)
                    acc = propflow_accounting(s, a, b, l_max)
                    assert acc.absorbed == fwd[i]
                    assert acc.total == pytest.approx(1.0, abs=1e-12)
                    assert min(acc.remaining, acc.dead_ended) >= 0.0


class TestBlocks:
    def test_several_blocks_give_identical_results(self, rng, monkeypatch):
        s, _, n = clique_graph(rng)
        label, _, _ = clique_graph(rng)
        u, v = np.triu_indices(n, 1)
        preds = [PredictorId.parse(p) for p in ("cn", "aa", "pf:3")]

        def everything():
            inst = geodesic_bucket_enumerate(s, 2, include_beyond=True,
                                             include_disconnected=True)
            near = geodesic_bucket_enumerate(s, 3)
            return ([inst.u, inst.v, inst.distance, near.u, near.v, near.distance]
                    + [score_pairs(s, u, v, p, policy="list-both")[1]
                       for p in preds],
                    new_link_distance_distribution(s, label))

        whole, whole_dist = everything()
        depths = []
        walks = count_walks(monkeypatch, depths)
        # Room for 3 sources whose walks reach every cell and entry, with
        # their ``seen`` rows: distance-dist's unbounded walks cost exactly
        # that, so their runs hold 3 sources but the last.
        budget = 3 * (n + s.indices.size + -(-n // 8))
        monkeypatch.setattr(predictors, "_BLOCK_CELLS", budget)
        blocked, blocked_dist = everything()
        fu, fv, _ = s.edge_arrays()
        hops = hop_distances(n, list(zip(fu.tolist(), fv.tolist())))
        feature = set(zip(fu.tolist(), fv.tolist()))
        lu, lv, _ = label.edge_arrays()
        sources = np.unique([a for a, b in zip(lu.tolist(), lv.tolist())
                             if (a, b) not in feature and np.isfinite(hops[a, b])])
        unbounded = [k for k, d in zip(walks, depths) if d is None]
        assert len(unbounded) >= 2 and sum(unbounded) == sources.size
        assert set(unbounded[:-1]) == {3} and 1 <= unbounded[-1] <= 3
        # enumeration to 2 and 3 hops, PropFlow:3 from every end, distance-dist
        calls = [(s.node_ids, 2), (s.node_ids, 3), (np.arange(n), 3), (sources, None)]
        assert walks == [k for nodes, depth in calls
                         for k in run_sizes(s, nodes, depth, budget)]
        assert depths == [depth for nodes, depth in calls
                          for _ in run_sizes(s, nodes, depth, budget)]
        assert len(walks) > len(preds) + 3
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)
        assert blocked_dist == whole_dist


def mixed_graph(rng):
    """A weighted snapshot of 2-3 components, each a random graph with a hub
    linked to half of its nodes and dead-end leaves hanging off it, with
    isolated universe nodes between them, on shuffled ids. Returns the
    snapshot, its weighted edges and the universe size."""
    edges, n = [], 0
    for _ in range(int(rng.integers(2, 4))):
        size = int(rng.integers(3, 12))
        part = [(a, b) for a, b in itertools.combinations(range(size), 2)
                if rng.random() < 0.3]
        part += [(size, int(x)) for x in rng.choice(size, size=size // 2 + 1,
                                                    replace=False)]
        leaves = int(rng.integers(1, 4))
        part += [(int(rng.integers(0, size + 1)), size + 1 + i) for i in range(leaves)]
        edges += [(a + n, b + n, float(rng.choice([1 / 3, 0.5, 1.0, 2.5])))
                  for a, b in part]
        n += size + 1 + leaves + int(rng.integers(0, 3))
    ids = rng.permutation(n).tolist()
    edges = [(ids[a], ids[b], w) for a, b, w in edges]
    return Snapshot.from_edges(edges, n=n), edges, n


class TestCellWalkMatchesDenseOracle:
    """Every consumer of the cell walk against the dense (block x universe)
    kernel it replaced (``oracles._walk``), at run budgets forcing one
    source a run, a few, and the default."""

    @pytest.mark.parametrize("block_cells", [1, 3, None])
    def test_enumeration_matches_allpairs_oracle(self, rng, monkeypatch,
                                                 block_cells):
        if block_cells is not None:
            monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
        for _ in range(8):
            s, edges, n = mixed_graph(rng)
            dist = hop_distances(n, edges)
            for l_max in (2, 3, 4):
                for beyond, disconnected in itertools.product((True, False), repeat=2):
                    want = []
                    for u, v in itertools.combinations(s.node_ids.tolist(), 2):
                        d = dist[u, v]
                        if np.isinf(d):
                            if disconnected:
                                want.append((DISCONNECTED, u, v))
                        elif d > l_max:
                            if beyond:
                                want.append((BEYOND, u, v))
                        elif d >= 2:
                            want.append((int(d), u, v))
                    inst = geodesic_bucket_enumerate(s, l_max, include_beyond=beyond,
                                                     include_disconnected=disconnected)
                    got = list(zip(inst.distance.tolist(), inst.u.tolist(),
                                   inst.v.tolist()))
                    assert got == sorted(want)

    @pytest.mark.parametrize("block_cells", [1, 3, None])
    def test_propflow_bit_equal_to_dense_kernel(self, rng, monkeypatch, block_cells):
        for _ in range(4):
            s, _, n = mixed_graph(rng)
            # every ordered pair of ids, off-universe ones (query mode) included
            u, v = np.nonzero(~np.eye(n + 3, dtype=bool))
            u, v = u - 1, v - 1
            want = {l_max: (propflow_scores(s, u, v, l_max),
                            propflow_scores(s, v, u, l_max)) for l_max in range(1, 6)}
            if block_cells is not None:
                monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
            for l_max, (fwd, rev) in want.items():
                pred = PredictorId("propflow", l_max)
                for policy in ("mean", "max", "min", "list-both"):
                    index, got = score_pairs(s, u, v, pred, policy=policy,
                                             query_mode=True)
                    if policy == "list-both":
                        assert np.array_equal(index, np.repeat(np.arange(u.size), 2))
                        assert np.array_equal(bits(got[0::2]), bits(fwd))
                        assert np.array_equal(bits(got[1::2]), bits(rev))
                    else:
                        assert np.array_equal(index, np.arange(u.size))
                        assert np.array_equal(
                            bits(got), bits(predictors.aggregate_directional(
                                fwd, rev, policy)))
            monkeypatch.undo()

    def test_accounting_and_sweep_bit_equal_to_dense_kernel(self, rng):
        for _ in range(6):
            s, _, n = mixed_graph(rng)
            for l_max in range(1, 6):
                for source in range(-1, n + 1):
                    sweep = propflow_all(s, source, l_max)
                    assert np.array_equal(bits(sweep),
                                          bits(propflow_all_dense(s, source, l_max)))
                    for target in (-1, (source + 2) % n, n):
                        if target == source:
                            continue
                        acc = propflow_accounting(s, source, target, l_max)
                        assert tuple(acc) == propflow_accounting_dense(
                            s, source, target, l_max)
                        assert acc.total == pytest.approx(1.0, abs=1e-12)
                        assert min(acc) >= 0.0
                        if 0 <= target < n and s.contains(source):
                            assert acc.absorbed == sweep[target]

    @pytest.mark.parametrize("block_cells", [1, 3, None])
    def test_distance_distribution_matches_oracle(self, rng, monkeypatch,
                                                  block_cells):
        if block_cells is not None:
            monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
        for _ in range(10):
            feature, _, n = mixed_graph(rng)
            pairs = rng.integers(0, n + 2, size=(int(rng.integers(1, 30)), 2))
            label = Snapshot.from_edges([(a, b) for a, b in pairs.tolist() if a != b],
                                        n=n + 2)
            assert new_link_distance_distribution(feature, label) == \
                distance_distribution_oracle(feature, label)


def test_runs_stay_far_below_the_dense_blocks(monkeypatch):
    # 5,000 disjoint 4-node paths: at l_max 2 each source's walk holds at
    # most 1 + 2 + 4 = 7 cells, plus 2,500 for its ``seen`` row, so a run
    # takes 104 sources of the 2^18-cell budget: 193 runs. A dense int64
    # row per source (n + nnz = 50,000 cells) allowed 5 a block, 4,000
    # blocks.
    n = 20_000
    s = Snapshot.from_edges([(i, i + 1) for i in range(n) if i % 4 != 3], n=n)
    walks = count_walks(monkeypatch)
    inst = geodesic_bucket_enumerate(s, 2)
    assert len(inst) == 2 * n // 4
    assert len(walks) == 193 and max(walks) == 104
    assert len(walks) < n / (predictors._BLOCK_CELLS // (n + s.indices.size)) / 20
    monkeypatch.undo()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        inst = geodesic_bucket_enumerate(s, 2)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    # below one int64 row over the universe per source of a run
    assert peak < 104 * n * 8


def test_cli_import_loads_no_scipy():
    code = ("import sys, lpeval.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_two_hop_module_loads_with_the_first_cn_or_aa_score():
    # Every array command loads predictors, since stratify and metrics
    # import its kernel; only a CN or AA score loads the two-hop table.
    code = """
import sys
import numpy as np
from lpeval import PredictorId, Snapshot, metrics, predictors, stratify
s = Snapshot.from_edges([(0, 1), (1, 2)])
seen = ["lpeval.twohop" in sys.modules]
for name in ("pa", "pf:2", "cn"):
    predictors.score_pairs(s, np.array([0]), np.array([2]), PredictorId.parse(name))
    seen.append("lpeval.twohop" in sys.modules)
print(seen)
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False, False, True]"
