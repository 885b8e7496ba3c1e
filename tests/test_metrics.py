import io
import math

import numpy as np
import pytest

from lpeval import (BEYOND, DISCONNECTED, ConfigError, ConfusionCounts,
                    InstanceSet, Ranking, UndefinedMetricError, aupr, auroc,
                    average_precision, confusion_at, per_distance_eval,
                    pr_curve, rates, roc_curve, score_distribution, tpr_k)
from lpeval.metrics import auroc_from_counts, tie_groups, write_curve_csv

from oracles import (SortedRanking, aupr_oracle, aupr_segments, auroc_pair_count,
                     average_precision_loop, confusion_by_counting,
                     curve_csv_text, per_distance_rows_resorted,
                     pr_points_loop, random_ranking)


def ranking_from_labels(labels, descending_scores=None):
    labels = np.asarray(labels, dtype=bool)
    scores = (np.arange(labels.size, 0, -1, dtype=float)
              if descending_scores is None else np.asarray(descending_scores))
    return Ranking(scores, labels)


class TestRanking:
    def test_sorted_and_grouped(self):
        r = Ranking([0.1, 0.9, 0.9, 0.5], [True, False, True, False])
        assert r.scores.tolist() == [0.9, 0.5, 0.1]
        assert r.bounds.tolist() == [0, 2, 3, 4]
        assert (r.n_pos, r.n_neg) == (2, 2)

    def test_nan_forbidden(self):
        with pytest.raises(ConfigError):
            Ranking([0.1, float("nan")], [True, False])

    def test_empty_forbidden(self):
        with pytest.raises(UndefinedMetricError):
            Ranking([], [])


def tie_heavy_case(rng):
    """Scores drawn from a few values, signed zeros and infinities among
    them, over distance buckets that include both sentinels."""
    n = int(rng.integers(1, 150))
    pool = np.array([-np.inf, -2.0, -0.0, 0.0, 0.5, 1.25, 4.0, np.inf])
    if rng.random() < 0.5:
        pool = rng.choice(pool, size=int(rng.integers(1, pool.size + 1)),
                          replace=False)
    scores = rng.choice(pool, size=n)
    labels = rng.random(n) < rng.uniform(0.0, 0.6)
    buckets = np.array([1, 2, 3, 4, BEYOND, DISCONNECTED])
    distance = rng.choice(buckets[:int(rng.integers(1, buckets.size + 1))], size=n)
    return scores, labels, distance


class TestRankingMatchesRowOracle:
    """The tie-group counts against the row-sorting ranking, for the whole
    set and for every distance bucket."""

    def test_counts_areas_and_curves(self, rng):
        for _ in range(300):
            scores, labels, distance = tie_heavy_case(rng)
            rank = Ranking(scores, labels, distance)
            assert rank.distances.tolist() == sorted(set(distance.tolist()))
            cases = [(rank, np.ones(scores.size, dtype=bool))] + \
                [(rank.bucket(i), distance == d) for i, d in enumerate(rank.distances)]
            for got, rows in cases:
                want = SortedRanking(scores[rows], labels[rows])
                for attr in ("bounds", "tp", "fp"):
                    assert getattr(got, attr).dtype == np.int64
                    assert np.array_equal(getattr(got, attr), getattr(want, attr))
                # one score per group; == holds -0.0 and 0.0 equal
                assert got.scores.tolist() == want.scores[want.bounds[:-1]].tolist()
                assert (len(got), got.n_pos, got.n_neg) == \
                    (int(rows.sum()), want.n_pos, want.n_neg)
                if not (got.n_pos and got.n_neg):
                    continue
                assert auroc(got) == auroc_pair_count(scores[rows], labels[rows])
                assert aupr(got) == pytest.approx(aupr_segments(want.tp, want.fp),
                                                  abs=1e-12)
                roc = np.column_stack([want.fp / want.n_neg, want.tp / want.n_pos])
                assert np.array_equal(roc_curve(got).points, roc)
                fresh = Ranking(scores[rows], labels[rows])
                assert np.array_equal(pr_curve(got).points, pr_curve(fresh).points)
            inst = InstanceSet(np.arange(scores.size), np.arange(scores.size) + 1,
                               distance, labels)
            assert per_distance_eval(inst, scores) == \
                per_distance_rows_resorted(inst, scores)

    def test_without_distance_one_bucket(self):
        r = Ranking([0.0, -0.0, 0.3], [True, False, False])
        assert r.distances is None
        assert r.pos.tolist() == [[0, 1]] and r.neg.tolist() == [[1, 1]]
        b = r.bucket(0)
        assert b.distances is None
        assert np.array_equal(b.bounds, r.bounds)


class TestConfusionAt:
    def test_alternating_cut_two(self):
        r = ranking_from_labels([True, False, True, False])
        c = confusion_at(r, 2)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_cut_zero_and_full(self):
        r = ranking_from_labels([True, False, True, False])
        c0 = confusion_at(r, 0)
        assert (c0.tp, c0.fp) == (0, 0)
        cn = confusion_at(r, 4)
        assert (cn.fn, cn.tn) == (0, 0)

    def test_matches_counting_oracle(self, rng):
        for _ in range(50):
            scores, labels = random_ranking(rng, max_size=60, tie_fraction=0.0)
            r = Ranking(scores, labels)
            cut = int(rng.integers(0, len(r) + 1))
            c = confusion_at(r, cut)
            sorted_labels = labels[np.argsort(-scores, kind="stable")]
            want = confusion_by_counting(sorted_labels.tolist(), cut)
            assert (c.tp, c.fp, c.tn, c.fn) == want

    def test_tie_group_cut_moved_to_boundary(self):
        r = Ranking([0.5, 0.5, 0.5, 0.1], [True, False, True, False])
        ceil = confusion_at(r, 2, ties="ceil")
        assert ceil.cut == 3
        floor = confusion_at(r, 2, ties="floor")
        assert floor.cut == 0

    def test_tie_group_interpolated_credit(self):
        r = Ranking([0.5, 0.5, 0.5, 0.1], [True, False, True, False])
        c = confusion_at(r, 2, ties="interpolate")
        assert c.cut == 2
        assert c.tp == pytest.approx(2 * 2 / 3)
        assert c.fp == pytest.approx(2 * 1 / 3)

    def test_cut_out_of_range(self):
        r = ranking_from_labels([True, False])
        with pytest.raises(ConfigError):
            confusion_at(r, 3)


class TestRates:
    def test_balanced_case(self):
        got = rates(ConfusionCounts(1, 1, 1, 1))
        assert all(got[k] == 0.5 for k in got)

    def test_imbalanced_trivial_rejector(self):
        # all-negative predictor on |P|=1, |N|=999
        got = rates(ConfusionCounts(tp=0, fp=0, tn=999, fn=1))
        assert got["accuracy"] == pytest.approx(0.999)
        assert got["recall"] == 0.0
        assert got["precision"] is None  # undefined, not NaN

    def test_arithmetic_oracle_case(self):
        got = rates(ConfusionCounts(tp=3, fp=1, tn=5, fn=1))
        assert got["precision"] == pytest.approx(0.75)
        assert got["recall"] == pytest.approx(0.75)
        assert got["fallout"] == pytest.approx(1 / 6)
        assert got["accuracy"] == pytest.approx(0.8)


class TestTprK:
    def test_alternating_k2(self):
        r = ranking_from_labels([True, False, True, False])
        assert tpr_k(r, 2) == 0.5

    def test_perfect_ranking_at_k_pos(self):
        r = ranking_from_labels([True, True, False, False])
        assert tpr_k(r, 2) == 1.0
        c = confusion_at(r, 2)
        assert rates(c)["specificity"] == 1.0

    def test_percent_resolution(self):
        r = ranking_from_labels([True, False, True, False])
        assert tpr_k(r, percent=50) == tpr_k(r, 2)
        assert tpr_k(r, percent=100) == tpr_k(r, 4)
        with pytest.raises(ConfigError):
            tpr_k(r, percent=0)

    def test_k_zero_rejected(self):
        r = ranking_from_labels([True, False])
        with pytest.raises(ConfigError):
            tpr_k(r, 0)
        with pytest.raises(ConfigError):
            tpr_k(r)
        with pytest.raises(ConfigError):
            tpr_k(r, 1, percent=50)

    def test_tie_boundary_expected_value(self):
        # top group of 3 slots holds 2 positives; k=2 takes 2/3 of the group
        r = Ranking([0.5, 0.5, 0.5, 0.1], [True, False, True, False])
        assert tpr_k(r, 2) == pytest.approx((2 * 2 / 3) / 2)

    def test_theorem2_identity_random(self, rng):
        # specificity = 1 - (1 - TPR_K) * |P| / |N| at K = |P|
        for _ in range(100):
            scores, labels = random_ranking(rng, max_size=300)
            r = Ranking(scores, labels)
            k = r.n_pos
            got = tpr_k(r, k)
            c = confusion_at(r, k, ties="interpolate")
            spec = c.tn / r.n_neg
            assert spec == pytest.approx(1 - (1 - got) * r.n_pos / r.n_neg,
                                         abs=1e-12)


class TestRocCurve:
    def test_perfect_separation(self):
        r = ranking_from_labels([True, True, False, False])
        curve = roc_curve(r)
        assert curve.area == 1.0
        assert curve.points[0].tolist() == [0.0, 0.0]
        assert curve.points[-1].tolist() == [1.0, 1.0]

    def test_all_scores_equal_is_diagonal(self):
        r = Ranking([0.3] * 6, [True, False, True, False, False, True])
        curve = roc_curve(r)
        assert curve.area == 0.5
        assert curve.points.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_frozen_derived_example(self):
        # pos {0.9, 0.4}, neg {0.6, 0.1}: 3 of 4 pairs ordered correctly
        r = Ranking([0.9, 0.4, 0.6, 0.1], [True, True, False, False])
        assert auroc(r) == 0.75

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_curve(ranking_from_labels([True, True]))

    def test_trapezoid_equals_pair_count_oracle(self, rng):
        for _ in range(80):
            scores, labels = random_ranking(rng, max_size=400)
            assert auroc(scores, labels) == pytest.approx(
                auroc_pair_count(scores, labels), abs=1e-12)

    def test_subset_counts_equal_pair_count_oracle(self, rng):
        # Ranked once, any subset's AUROC comes from its per-group counts;
        # both sides divide the same integer 2*wins + ties by 2*P*N.
        for _ in range(40):
            scores, labels = random_ranking(rng, max_size=400)
            scores = np.where(rng.random(scores.size) < 0.1, -scores, scores)
            groups, pos = tie_groups(scores, labels)
            for _ in range(5):
                neg = ~labels & (rng.random(scores.size) < rng.uniform(0.05, 1))
                if not neg.any():
                    continue
                keep = labels | neg
                area = auroc_from_counts(pos, np.bincount(groups[neg],
                                                          minlength=pos.size))
                assert area == auroc_pair_count(scores[keep], labels[keep])

    def test_tie_groups_merge_signed_zeros(self):
        groups, pos = tie_groups([0.0, -0.0, np.inf, -np.inf],
                                 [True, False, False, True])
        assert groups.tolist() == [1, 1, 0, 2]
        assert pos.tolist() == [0, 1, 1]
        with pytest.raises(ConfigError):
            tie_groups([0.5, np.nan], [True, False])
        with pytest.raises(ConfigError):
            tie_groups([0.5, 0.2], [True])

    def test_grouped_ranking_counts_rows(self, rng):
        for _ in range(20):
            scores, labels = random_ranking(rng, max_size=200)
            scores = np.where(scores == 0.0, rng.choice([-0.0, 0.0], scores.size),
                              scores)
            distance = rng.choice([2, 3, 7, 1_000_000_000], size=scores.size)
            table = Ranking(scores, labels, distance)
            assert table.distances.tolist() == sorted(set(distance.tolist()))
            distinct = sorted(set(scores.tolist()), reverse=True)
            want = np.zeros((2,) + table.pos.shape, dtype=np.int64)
            for s, d, lab in zip(scores.tolist(), distance.tolist(), labels):
                want[int(not lab), table.distances.tolist().index(d),
                     distinct.index(s)] += 1
            assert table.pos.dtype == table.neg.dtype == np.int64
            assert np.array_equal(table.pos, want[0])
            assert np.array_equal(table.neg, want[1])
            assert auroc_from_counts(table.pos.sum(axis=0),
                                     table.neg.sum(axis=0)) == \
                auroc_pair_count(scores, labels)

    def test_monotone_curve_invariants(self, rng):
        for _ in range(20):
            scores, labels = random_ranking(rng, max_size=200)
            pts = roc_curve(Ranking(scores, labels)).points
            assert np.all(np.diff(pts[:, 0]) >= 0)
            assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_class_prior_invariance(self, rng):
        # duplicating every negative leaves the curve and area unchanged
        for _ in range(20):
            scores, labels = random_ranking(rng, max_size=200)
            neg = ~labels
            scores2 = np.concatenate([scores, scores[neg]])
            labels2 = np.concatenate([labels, labels[neg]])
            a1, a2 = auroc(scores, labels), auroc(scores2, labels2)
            assert abs(a1 - a2) < 1e-12
            p1 = roc_curve(Ranking(scores, labels)).points
            p2 = roc_curve(Ranking(scores2, labels2)).points
            assert np.allclose(p1, p2, atol=1e-12)


class TestPrCurve:
    def test_perfect_separation(self):
        r = ranking_from_labels([True, True, False, False])
        assert pr_curve(r).area == pytest.approx(1.0)

    def test_two_entry_hand_oracle(self):
        # labels [+, -]: achievable points (recall 1, precision 1) then
        # (1, 0.5); all recall is reached before any false positive
        r = ranking_from_labels([True, False])
        curve = pr_curve(r)
        assert curve.area == pytest.approx(1.0)
        assert [tuple(p) for p in curve.points] == [(0.0, 1.0), (1.0, 1.0),
                                                    (1.0, 0.5)]

    def test_anchor_is_first_achievable_precision(self):
        # leading negative: the curve must not fabricate precision 1 at 0
        r = ranking_from_labels([False, True])
        curve = pr_curve(r)
        assert curve.points[0].tolist() == [0.0, 0.0]

    def test_matches_per_rank_cut_oracle(self, rng):
        for _ in range(40):
            scores, labels = random_ranking(rng, max_size=150)
            got = aupr(scores, labels)
            assert got == pytest.approx(aupr_oracle(scores, labels), abs=1e-6)

    def test_random_scores_approach_prevalence(self, rng):
        n, prevalence = 40_000, 0.1
        labels = rng.random(n) < prevalence
        scores = rng.random(n)
        got = aupr(scores, labels)
        assert got == pytest.approx(labels.mean(), abs=0.02)

    def test_prior_sensitivity(self, rng):
        # duplicating negatives strictly decreases AUPR once any negative
        # outranks any positive
        hit = 0
        for _ in range(30):
            scores, labels = random_ranking(rng, max_size=150)
            pos_min = scores[labels].min()
            if not np.any(scores[~labels] > pos_min):
                continue
            hit += 1
            neg = ~labels
            a1 = aupr(scores, labels)
            a2 = aupr(np.concatenate([scores, scores[neg]]),
                      np.concatenate([labels, labels[neg]]))
            assert a2 < a1
        assert hit > 10

    def test_zero_positive_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_curve(ranking_from_labels([False, False]))

    def test_recall_endpoints_and_monotonicity(self, rng):
        for _ in range(20):
            scores, labels = random_ranking(rng, max_size=120)
            pts = pr_curve(Ranking(scores, labels)).points
            assert pts[0, 0] == 0.0
            assert pts[-1, 0] == 1.0
            assert np.all(np.diff(pts[:, 0]) >= 0)

    def test_average_precision_perfect(self):
        assert average_precision(ranking_from_labels([True, True, False])) == 1.0


class TestPrPointsMatchLoop:
    """PR points and average precision against the per-TP-increment loop,
    bit for bit."""

    @staticmethod
    def check(rank):
        curve = pr_curve(rank)
        want = pr_points_loop(rank.tp, rank.fp)
        np.testing.assert_array_equal(curve.points.view(np.uint64),
                                      want.view(np.uint64))
        assert curve.area == aupr(rank)
        assert curve.area == pytest.approx(aupr_segments(rank.tp, rank.fp),
                                           abs=1e-12)
        assert average_precision(rank) == average_precision_loop(rank.tp, rank.fp)

    def test_random_rankings(self, rng):
        for _ in range(300):
            self.check(Ranking(*random_ranking(rng, max_size=400)))

    def test_one_positive(self, rng):
        for where in (0, 5, 29):
            labels = np.zeros(30, dtype=bool)
            labels[where] = True
            self.check(ranking_from_labels(labels))
            self.check(Ranking(np.round(rng.normal(size=30)), labels))

    def test_first_group_without_positives(self):
        self.check(ranking_from_labels([False, False, True, False, True]))
        self.check(ranking_from_labels([False, False, True, True],
                                       [3.0, 3.0, 2.0, 1.0]))

    def test_runs_of_groups_without_positives(self, rng):
        for _ in range(50):
            labels = np.repeat(rng.random(40) < 0.3, rng.integers(1, 6, 40))
            labels[int(rng.integers(labels.size))] = True
            self.check(ranking_from_labels(labels))

    def test_twelve_thousand_points(self, rng):
        n = 12_000
        labels = rng.random(n) < 0.5
        self.check(Ranking(rng.normal(size=n) + labels, labels))


class TestCurveCsv:
    @staticmethod
    def written(curve):
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        return buf.getvalue()

    def test_matches_per_point_writer(self, rng):
        for _ in range(40):
            rank = Ranking(*random_ranking(rng, max_size=500))
            for curve in (roc_curve(rank), pr_curve(rank)):
                assert self.written(curve) == curve_csv_text(curve)

    def test_twelve_thousand_points(self, rng):
        n = 12_000
        labels = rng.random(n) < 0.5
        rank = Ranking(rng.normal(size=n) + labels, labels)
        roc, pr = roc_curve(rank), pr_curve(rank)
        assert roc.points.shape[0] == n + 1
        for curve in (roc, pr):
            assert self.written(curve) == curve_csv_text(curve)


class TestInvariants:
    def test_trivial_negative_inflation_formula(self, rng):
        # appending m all-bottom negatives: area' = (area * N + m) / (N + m)
        for _ in range(50):
            scores, labels = random_ranking(rng, max_size=200)
            m = int(rng.integers(1, 300))
            floor = scores.min() - 1.0
            scores2 = np.concatenate([scores, np.full(m, floor)])
            labels2 = np.concatenate([labels, np.zeros(m, dtype=bool)])
            n_neg = int((~labels).sum())
            want = (auroc(scores, labels) * n_neg + m) / (n_neg + m)
            assert auroc(scores2, labels2) == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        for transform in (lambda x: 3 * x + 7, np.exp, lambda x: x ** 3):
            scores, labels = random_ranking(rng, max_size=150)
            scores = scores / (np.abs(scores).max() + 1)  # keep exp/cube monotone
            r1 = Ranking(scores, labels)
            r2 = Ranking(transform(scores), labels)
            assert auroc(r1) == pytest.approx(auroc(r2), abs=1e-12)
            assert aupr(r1) == pytest.approx(aupr(r2), abs=1e-10)
            k = max(1, r1.n_pos)
            assert tpr_k(r1, k) == tpr_k(r2, k)
            assert np.allclose(roc_curve(r1).points, roc_curve(r2).points)


class TestScoreDistribution:
    def test_ecdf_exact(self):
        d = score_distribution([1.0, 2.0, 3.0])
        assert d.ecdf(2.0) == pytest.approx(2 / 3)
        assert d.ecdf(0.5) == 0.0
        assert d.ecdf(3.0) == 1.0

    def test_constant_scores_single_bin(self):
        d = score_distribution([2.0] * 10)
        assert d.bin_counts.tolist() == [10]

    def test_default_bin_count(self):
        d = score_distribution(np.linspace(0, 1, 1000))
        assert d.bin_counts.size == 100
        assert d.bin_counts.sum() == 1000

    def test_uniform_sample_ks_bound(self, rng):
        x = rng.random(100_000)
        d = score_distribution(x)
        grid = np.linspace(0, 1, 2001)
        assert np.abs(d.ecdf(grid) - grid).max() < 0.01

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            score_distribution([])
