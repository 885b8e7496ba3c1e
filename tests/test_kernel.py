"""The graph kernels (the block walk and the two-hop table), against the
oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lpeval import (EventLog, InstanceSet, PredictorId, Snapshot, adamic_adar,
                    build_snapshot, common_neighbors, generate_test_set,
                    geodesic_bucket_enumerate, new_link_distance_distribution,
                    predictors, propflow_accounting, score_instances, score_pairs)
from lpeval import twohop
from lpeval.predictors import bfs_level_blocks
from lpeval.synth import synthetic_event_log

from conftest import random_graph
from oracles import (adamic_adar_fsum, common_neighbor_sets, hop_distances,
                     propflow_path_sum, two_hop_scores)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def count_walks(monkeypatch):
    """Count the kernel's block walks from here on."""
    calls = []
    walk = predictors._walk

    def counted(s, sources, depth_limit=None):
        calls.append(sources.size)
        return walk(s, sources, depth_limit)

    monkeypatch.setattr(predictors, "_walk", counted)
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


class TestBlockBFS:
    def test_levels_match_hop_distances(self, rng, monkeypatch):
        walks = count_walks(monkeypatch)
        default = predictors._BLOCK_CELLS
        for _ in range(15):
            s, edges, n = random_graph(rng, n=int(rng.integers(5, 30)))
            hops = hop_distances(n, [(u, v) for u, v, _ in edges])
            want = np.where(np.isinf(hops), -1, hops).astype(np.int64)
            # ids outside the universe reach nothing
            sources = np.arange(-1, n + 1)
            for per_block in (None, 1, 4):
                monkeypatch.setattr(predictors, "_BLOCK_CELLS", default
                                    if per_block is None
                                    else per_block * (n + s.indices.size))
                for limit in (None, 1, int(rng.integers(2, 5))):
                    walks.clear()
                    got = np.full((sources.size, n), -2)
                    first = 0
                    for block, levels in bfs_level_blocks(s, sources, limit):
                        assert np.array_equal(
                            block, sources[first:first + block.size])
                        got[first:first + block.size] = levels
                        first += block.size
                    assert first == sources.size
                    assert len(walks) == (1 if per_block is None
                                          else -(-sources.size // per_block))
                    cut = want if limit is None else np.where(want > limit, -1, want)
                    assert np.array_equal(got[1:-1], cut)
                    assert (got[[0, -1]] == -1).all()


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
        walks = count_walks(monkeypatch)
        monkeypatch.setattr(predictors, "_BLOCK_CELLS",
                            3 * (s.n_universe + s.indices.size))
        blocked, blocked_dist = everything()
        assert max(walks) == 3 and len(walks) > len(preds) + 3
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)
        assert blocked_dist == whole_dist


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
