import math

import numpy as np
import pytest

from lpeval import predictors
from lpeval import (DataCorruptionError, InvalidPairError, PredictorId, Snapshot,
                    UnknownNodeError, adamic_adar, aggregate_directional,
                    common_neighbors, generate_test_set, preferential_attachment,
                    propflow, propflow_accounting, propflow_all, score_instances,
                    score_pairs)

from conftest import random_graph
from oracles import propflow_path_sum


def toy_feature_network():
    """Toy feature graph: (a, b) share two neighbors, (c, d) share one."""
    a, b, c, d, x, y, z = range(7)
    s = Snapshot.from_edges([(a, x), (b, x), (a, y), (b, y), (c, z), (d, z)])
    return s, (a, b, c, d)


class TestPredictorId:
    def test_parse_aliases(self):
        assert PredictorId.parse("cn").kind == "common-neighbors"
        assert PredictorId.parse("ADAMIC-ADAR").kind == "adamic-adar"
        pf = PredictorId.parse("pf:3")
        assert (pf.kind, pf.l_max, pf.directional) == ("propflow", 3, True)
        assert pf.name == "propflow3"

    def test_parse_errors(self):
        from lpeval import ConfigError
        with pytest.raises(ConfigError):
            PredictorId.parse("propflow")
        with pytest.raises(ConfigError):
            PredictorId.parse("cn:2")
        with pytest.raises(ConfigError):
            PredictorId.parse("katz")
        for text in ("pf:x", "pf:4.5"):
            with pytest.raises(ConfigError) as exc:
                PredictorId.parse(text)
            assert exc.value.field == "predictors"


class TestCommonNeighbors:
    def test_toy_network_values(self):
        s, (a, b, c, d) = toy_feature_network()
        assert common_neighbors(s, a, b) == 2.0
        assert common_neighbors(s, c, d) == 1.0

    def test_disjoint_stars(self):
        s = Snapshot.from_edges([(0, 1), (0, 2), (3, 4), (3, 5)])
        assert common_neighbors(s, 0, 3) == 0.0

    def test_k4_minus_edge(self):
        # hand enumeration: 0 and 1 not adjacent, both neighbor 2 and 3
        s = Snapshot.from_edges([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert common_neighbors(s, 0, 1) == 2.0

    def test_invalid_pair(self):
        s = Snapshot.from_edges([(0, 1)])
        with pytest.raises(InvalidPairError):
            common_neighbors(s, 1, 1)


class TestAdamicAdar:
    def test_single_degree2_common_neighbor(self):
        s = Snapshot.from_edges([(0, 2), (1, 2)])
        assert adamic_adar(s, 0, 1) == pytest.approx(1 / math.log(2), abs=1e-12)

    def test_no_common_neighbors(self):
        s = Snapshot.from_edges([(0, 1), (1, 2)], n=4)
        assert adamic_adar(s, 0, 2) == pytest.approx(1 / math.log(2))
        assert adamic_adar(s, 0, 3) == 0.0

    def test_two_common_neighbors_degrees_2_and_4(self):
        # brute-force sum oracle: 1/ln(2) + 1/ln(4)
        edges = [(0, 2), (1, 2),            # node 2: degree 2
                 (0, 3), (1, 3), (3, 4), (3, 5)]  # node 3: degree 4
        s = Snapshot.from_edges(edges)
        expect = 1 / math.log(2) + 1 / math.log(4)
        assert adamic_adar(s, 0, 1) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(2.1640, abs=5e-4)

    def test_degree1_common_neighbor_is_corruption(self):
        class Corrupt:
            n_universe = 3
            indptr = np.array([0, 1, 2, 3])  # degree 1 everywhere: impossible
            indices = np.array([2, 2, 2])     # the CSR slices neighbors() returns

            def neighbors(self, u):
                return np.array([2])

            def contains(self, u):
                return True

        with pytest.raises(DataCorruptionError):
            adamic_adar(Corrupt(), 0, 1)

    def test_equal_degree_common_neighbors_match_cn_ratio(self):
        # all common neighbors have degree 2 => AA = CN / ln(2)
        s = Snapshot.from_edges([(0, i) for i in range(2, 6)]
                                + [(1, i) for i in range(2, 6)])
        cn = common_neighbors(s, 0, 1)
        assert adamic_adar(s, 0, 1) == pytest.approx(cn / math.log(2), rel=1e-12)


class TestPreferentialAttachment:
    def test_degree_product(self):
        s = Snapshot.from_edges([(0, i) for i in (2, 3, 4)]
                                + [(1, i) for i in (2, 3, 4, 5)])
        assert preferential_attachment(s, 0, 1) == 12.0

    def test_isolated_node_scores_zero(self):
        # node 5 is in the universe but has no edges in this window
        s = Snapshot.from_edges([(0, 1), (0, 2)], n=6)
        assert preferential_attachment(s, 5, 0) == 0.0

    def test_unknown_node_errors_in_recommendation_mode(self):
        s = Snapshot.from_edges([(0, 1)])
        with pytest.raises(UnknownNodeError):
            preferential_attachment(s, 7, 0)

    def test_query_mode_assumes_degree_one(self):
        s = Snapshot.from_edges([(0, 1), (0, 2), (0, 3)], n=5)
        assert preferential_attachment(s, 4, 0, query_mode=True) == 3.0
        assert preferential_attachment(s, 9, 0, query_mode=True) == 3.0


class TestPropFlow:
    def test_single_edge_full_flow(self):
        s = Snapshot.from_edges([(0, 1, 2.5)])
        for l_max in (1, 2, 5):
            assert propflow(s, 0, 1, l_max) == 1.0

    def test_branching_path(self):
        # u - a - v with u also linked to b and c: a third of the flow
        # enters a, then all of a's outward flow reaches v.
        u, a, v, b, c = range(5)
        s = Snapshot.from_edges([(u, a), (a, v), (u, b), (u, c)])
        assert propflow(s, u, v, 2) == pytest.approx(1 / 3, abs=1e-12)

    def test_unreachable_target(self):
        s = Snapshot.from_edges([(0, 1), (2, 3)])
        assert propflow(s, 0, 2, 5) == 0.0
        # reachable only beyond l_max
        s = Snapshot.from_edges([(0, 1), (1, 2), (2, 3)])
        assert propflow(s, 0, 3, 2) == 0.0

    def test_directionality_construction(self):
        # v_b has degree 1 and hangs off v_a of degree 3: every walk from
        # v_b reaches v_a, while v_a sends only a third toward v_b.
        va, vb, x, y = range(4)
        s = Snapshot.from_edges([(va, vb), (va, x), (va, y)])
        assert propflow(s, vb, va, 2) == 1.0
        assert propflow(s, va, vb, 2) == pytest.approx(1 / 3)

    def test_weighted_split(self):
        s = Snapshot.from_edges([(0, 1, 3.0), (0, 2, 1.0)])
        assert propflow(s, 0, 1, 1) == pytest.approx(0.75)
        assert propflow(s, 0, 2, 1) == pytest.approx(0.25)

    def test_conservation_and_oracle_small(self, rng):
        for _ in range(40):
            s, edges, n = random_graph(rng, n=int(rng.integers(5, 16)))
            nodes = s.node_ids
            src, dst = rng.choice(nodes, size=2, replace=False)
            l_max = int(rng.integers(1, 5))
            acc = propflow_accounting(s, int(src), int(dst), l_max)
            assert acc.total == pytest.approx(1.0, abs=1e-12)
            want = propflow_path_sum(n, edges, int(src), int(dst), l_max)
            assert acc.absorbed == pytest.approx(want, abs=1e-9)

    def test_sweep_matches_single_target(self, rng):
        for _ in range(10):
            s, edges, n = random_graph(rng, n=12)
            src = int(s.node_ids[0])
            inflow = propflow_all(s, src, 3)
            for dst in range(n):
                if dst == src:
                    continue
                assert inflow[dst] == pytest.approx(
                    propflow(s, src, dst, 3), abs=1e-12)

    def test_scores_bounded(self, rng):
        for _ in range(20):
            s, _, n = random_graph(rng)
            nodes = s.node_ids
            src, dst = rng.choice(nodes, size=2, replace=False)
            val = propflow(s, int(src), int(dst), 3)
            assert 0.0 <= val <= 1.0


class TestAggregation:
    def test_policies(self):
        assert aggregate_directional(0.2, 0.8, "mean") == pytest.approx(0.5)
        assert aggregate_directional(0.2, 0.8, "max") == 0.8
        assert aggregate_directional(0.2, 0.8, "min") == 0.2
        assert aggregate_directional(0.2, 0.8, "list-both") == (0.2, 0.8)

    def test_symmetric_scores_unchanged_by_any_policy(self):
        for policy in ("mean", "max", "min"):
            assert aggregate_directional(0.7, 0.7, policy) == 0.7


class TestScorePairs:
    def test_pa_composes_pointwise(self):
        s = Snapshot.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        pairs = [(0, 3), (1, 3), (0, 1)]
        u = np.array([p[0] for p in pairs])
        v = np.array([p[1] for p in pairs])
        idx, scores = score_pairs(s, u, v, PredictorId.parse("pa"))
        assert idx.tolist() == [0, 1, 2]
        for i, (a, b) in enumerate(pairs):
            assert scores[i] == preferential_attachment(s, a, b)

    def test_list_both_directional_two_entries(self):
        va, vb, x, y = range(4)
        s = Snapshot.from_edges([(va, vb), (va, x), (va, y)])
        idx, scores = score_pairs(s, np.array([va]), np.array([vb]),
                                  PredictorId.parse("pf:2"), policy="list-both")
        assert idx.tolist() == [0, 0]
        assert scores[0] != scores[1]
        assert sorted(scores) == [pytest.approx(1 / 3), 1.0]

    def test_list_both_symmetric_identical_entries(self):
        s = Snapshot.from_edges([(0, 2), (1, 2)])
        idx, scores = score_pairs(s, np.array([0]), np.array([1]),
                                  PredictorId.parse("cn"), policy="list-both")
        assert scores.tolist() == [1.0, 1.0]

    def test_mean_policy_matches_aggregation(self):
        va, vb, x, y = range(4)
        s = Snapshot.from_edges([(va, vb), (va, x), (va, y)])
        _, scores = score_pairs(s, np.array([va]), np.array([vb]),
                                PredictorId.parse("pf:2"), policy="mean")
        assert scores[0] == pytest.approx((1.0 + 1 / 3) / 2)

    def test_symmetry_of_nondirectional_predictors(self, rng):
        for _ in range(5):
            s, _, n = random_graph(rng, n=10)
            for kind in ("cn", "aa", "pa"):
                pred = PredictorId.parse(kind)
                for u in range(n):
                    for v in range(u + 1, n):
                        _, f = score_pairs(s, np.array([u]), np.array([v]), pred)
                        _, r = score_pairs(s, np.array([v]), np.array([u]), pred)
                        assert f[0] == r[0]

    def test_permutation_or_split_does_not_change_scores(self, rng, monkeypatch):
        # A pair's score depends on nothing but the pair: scoring the list in
        # any order, in any pieces, or in several kernel blocks gives
        # bit-identical scores.
        s, _, n = random_graph(rng, n=25, p=0.2)
        us, vs = [], []
        for u in range(n):
            for v in range(u + 1, n):
                if not s.has_edge(u, v):
                    us.append(u)
                    vs.append(v)
        u_arr, v_arr = np.array(us), np.array(vs)
        for pred in (PredictorId.parse("pf:3"), PredictorId.parse("aa"),
                     PredictorId.parse("cn")):
            base = score_pairs(s, u_arr, v_arr, pred, policy="list-both")[1]
            for _ in range(5):
                perm = rng.permutation(u_arr.size)
                got = score_pairs(s, u_arr[perm], v_arr[perm], pred,
                                  policy="list-both")[1]
                assert np.array_equal(got.reshape(-1, 2),
                                      base.reshape(-1, 2)[perm])
                cuts = np.sort(rng.choice(np.arange(1, u_arr.size), size=3,
                                          replace=False))
                pieces = [score_pairs(s, uu, vv, pred, policy="list-both")[1]
                          for uu, vv in zip(np.split(u_arr, cuts),
                                            np.split(v_arr, cuts))]
                assert np.array_equal(np.concatenate(pieces), base)
            monkeypatch.setattr(predictors, "_BLOCK_CELLS", 1)
            blocked = score_pairs(s, u_arr, v_arr, pred, policy="list-both")[1]
            monkeypatch.undo()
            assert np.array_equal(blocked, base)

    def test_propflow_walks_each_end_once(self, rng, monkeypatch):
        s, _, _ = random_graph(rng, n=25, p=0.2)
        u_arr, v_arr = np.array([0, 0, 3, 7, 9]), np.array([3, 5, 7, 1, 0])
        pred = PredictorId.parse("pf:3")
        fwd = predictors._propflow_pairs(s, u_arr, v_arr, pred.l_max)
        rev = predictors._propflow_pairs(s, v_arr, u_arr, pred.l_max)
        walked = []

        def counted(s, block, *args, block_fn=predictors._propflow_block):
            walked.extend(block.tolist())
            return block_fn(s, block, *args)

        monkeypatch.setattr(predictors, "_propflow_block", counted)
        got = score_pairs(s, u_arr, v_arr, pred, policy="list-both")[1]
        assert sorted(walked) == [0, 1, 3, 5, 7, 9]
        assert np.array_equal(got[0::2], fwd) and np.array_equal(got[1::2], rev)

    def test_invalid_pair_propagates(self):
        s = Snapshot.from_edges([(0, 1)])
        with pytest.raises(InvalidPairError):
            score_pairs(s, np.array([1]), np.array([1]), PredictorId.parse("cn"))


class TestScoreInstancesShareColumns:
    @pytest.mark.parametrize("policy", ["mean", "max", "min"])
    @pytest.mark.parametrize("kind", ["cn", "aa", "pa", "pf:3"])
    def test_one_row_per_pair_shares_the_columns(self, rng, kind, policy):
        s, _, _ = random_graph(rng, n=20, p=0.2)
        inst = generate_test_set(s, Snapshot.from_edges([(0, 5), (2, 9)], n=20),
                                 l_max=3)
        inst.scores["other"] = np.arange(len(inst), dtype=float)
        pred = PredictorId.parse(kind)
        scored = score_instances(s, inst, pred, policy=policy)
        for column in ("u", "v", "distance", "label"):
            assert np.shares_memory(getattr(scored, column), getattr(inst, column))
        assert scored.scores["other"] is inst.scores["other"]
        # the input set gains no column
        assert list(inst.scores) == ["other"]
        _, want = score_pairs(s, inst.u, inst.v, pred, policy=policy)
        assert np.array_equal(scored.scores[pred.name], want)
        assert not np.shares_memory(scored.scores[pred.name], inst.u)
