import numpy as np
import pytest

from lpeval import (ConfigError, InstanceSet, PredictorId, SamplingSpec, Snapshot,
                    SurrogateParams, TemporalSliceSpec, UndefinedMetricError,
                    WindowConfig, analytic_sampling_variance, build_snapshot,
                    estimate_classifiable, filtered_negative_eval,
                    generate_test_set, per_distance_eval, sample_fair,
                    sample_kaggle, score_instances, surrogate_simulation,
                    synthetic_event_log, temporal_eval, variance_experiment)
from lpeval.experiments import slice_intervals, variance_slope

from oracles import auroc_pair_count, bucket_mixture_auroc


def make_instances(rng, n_pos, n_neg, distances=(2, 3, 4)):
    n = n_pos + n_neg
    label = np.zeros(n, dtype=bool)
    label[:n_pos] = True
    dist = rng.choice(distances, size=n)
    inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label)
    inst.scores["s"] = rng.normal(size=n) + label * 1.5
    return inst


class TestFairSampling:
    def test_rate_one_is_identity(self, rng):
        inst = make_instances(rng, 20, 200)
        out = sample_fair(inst, SamplingSpec("fair-random", 1.0, seed=3))
        assert len(out) == len(inst)
        assert np.array_equal(out.u, inst.u)

    def test_all_positives_kept(self, rng):
        inst = make_instances(rng, 50, 500)
        out = sample_fair(inst, SamplingSpec("fair-random", 0.2, seed=3))
        assert out.n_pos == 50

    def test_binomial_bound(self, rng):
        inst = make_instances(rng, 10, 10_000)
        out = sample_fair(inst, SamplingSpec("fair-random", 0.5, seed=11))
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(out.n_neg - 5000) < 4 * sigma

    def test_deterministic_under_seed(self, rng):
        inst = make_instances(rng, 10, 1000)
        a = sample_fair(inst, SamplingSpec("fair-random", 0.5, seed=7))
        b = sample_fair(inst, SamplingSpec("fair-random", 0.5, seed=7))
        assert np.array_equal(a.u, b.u)
        c = sample_fair(inst, SamplingSpec("fair-random", 0.5, seed=8))
        assert not np.array_equal(a.u, c.u)

    def test_exact_counts_flag(self, rng):
        inst = make_instances(rng, 10, 1000)
        out = sample_fair(inst, SamplingSpec("fair-random", 0.25, seed=7,
                                             exact_counts=True))
        assert out.n_neg == 250

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SamplingSpec("fair-random", 0.0)
        with pytest.raises(ConfigError):
            SamplingSpec("fair-random", 1.5)
        with pytest.raises(ConfigError):
            SamplingSpec("typo", 0.5)


class TestKaggleSampling:
    def test_bucket_balanced(self, rng):
        label = np.array([True] * 5 + [False] * 100)
        inst = InstanceSet(np.arange(105), np.arange(105) + 200,
                           np.full(105, 2), label)
        out = sample_kaggle(inst, seed=5)
        assert (out.n_pos, out.n_neg) == (5, 5)

    def test_zero_positive_bucket_dropped(self, rng):
        label = np.array([True, False, False, False])
        dist = np.array([2, 2, 3, 3])
        inst = InstanceSet(np.arange(4), np.arange(4) + 10, dist, label)
        out = sample_kaggle(inst, seed=5)
        assert np.all(out.distance == 2)
        assert (out.n_pos, out.n_neg) == (1, 1)

    def test_two_bucket_overall_ratio(self, rng):
        # count oracle: every bucket balances, so the union is exactly 1:1
        label = np.concatenate([np.ones(4, bool), np.zeros(50, bool),
                                np.ones(7, bool), np.zeros(90, bool)])
        dist = np.concatenate([np.full(54, 2), np.full(97, 3)])
        inst = InstanceSet(np.arange(151), np.arange(151) + 500, dist, label)
        out = sample_kaggle(inst, seed=1)
        assert out.n_pos == out.n_neg == 11

    def test_small_negative_bucket_kept_whole(self, rng):
        label = np.array([True, True, True, False])
        inst = InstanceSet(np.arange(4), np.arange(4) + 10, np.full(4, 2), label)
        out = sample_kaggle(inst, seed=5)
        assert (out.n_pos, out.n_neg) == (3, 1)


class TestAnalyticVariance:
    def test_degenerate_cases(self):
        assert analytic_sampling_variance(100, 0, 0.5) == 0.0
        assert analytic_sampling_variance(100, 100, 0.5) == 0.0
        assert analytic_sampling_variance(100, 50, 1.0) == 0.0

    def test_undefined_for_tiny_n(self):
        with pytest.raises(UndefinedMetricError):
            analytic_sampling_variance(1, 0, 0.5)

    def test_rounding_notice(self):
        with pytest.warns(UserWarning, match="not integral"):
            analytic_sampling_variance(10, 5, 0.25)

    def test_matches_hypergeometric_monte_carlo(self, rng):
        # draw N*p negatives without replacement, measure X/(N*p)
        N, C, p, trials = 1000, 200, 0.1, 200_000
        draws = rng.hypergeometric(C, N - C, int(N * p), size=trials)
        mc = (draws / (N * p)).var(ddof=1)
        want = analytic_sampling_variance(N, C, p)
        assert mc == pytest.approx(want, rel=0.05)

    def test_estimate_classifiable(self):
        scores = np.array([5.0, 4.0, 3.0, 1.0, 0.5, 0.1])
        labels = np.array([True, False, True, False, False, False])
        # median positive = 4.0; negatives below: 1.0, 0.5, 0.1
        assert estimate_classifiable(scores, labels) == 3


class TestVarianceExperiment:
    def test_rate_one_zero_spread(self, rng):
        inst = make_instances(rng, 30, 500)
        report = variance_experiment(inst, "s", rates=[1.0], repeats=10, seed=1)
        row = report.rows[0]
        assert row.variance == 0.0
        assert row.mean == report.full_auroc
        assert row.minimum == row.maximum == row.mean

    def test_rate_one_row_exact_on_random_score_sets(self):
        # At rate 1 every repeat sees the full set, so the row must report
        # the full AUROC and a variance of exactly 0, whatever the scores.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            inst = make_instances(rng, int(rng.integers(5, 60)),
                                  int(rng.integers(50, 800)))
            repeats = int(rng.integers(3, 12))
            report = variance_experiment(inst, "s", rates=[1.0], repeats=repeats,
                                         seed=seed)
            row = report.rows[0]
            assert row.n_valid == repeats
            assert row.mean == report.full_auroc
            assert row.variance == 0.0
            assert row.minimum == row.maximum == row.mean

    def test_variance_scales_like_inverse_rate(self, rng):
        inst = make_instances(rng, 100, 10_000)
        report = variance_experiment(inst, "s", rates=[0.01, 0.1], repeats=100,
                                     seed=2)
        v01, v10 = report.rows[0].variance, report.rows[1].variance
        # Eq-1 ratio (0.99/0.01)/(0.9/0.1) = 11, wide band for estimator noise
        assert 5 < v01 / v10 < 20

    def test_slope_positive_with_good_fit(self, rng):
        inst = make_instances(rng, 100, 10_000)
        report = variance_experiment(inst, "s", rates=[0.003, 0.01, 0.03, 0.1],
                                     repeats=100, seed=3)
        assert report.slope > 0
        assert report.r_squared > 0.9

    def test_zero_negative_repeats_flagged(self, rng):
        inst = make_instances(rng, 5, 3)
        report = variance_experiment(inst, "s", rates=[1e-4], repeats=20, seed=4)
        row = report.rows[0]
        assert row.n_valid + row.n_invalid == 20
        assert row.n_invalid > 0

    def test_mean_tracks_full_auroc(self, rng):
        # fair-sample unbiasedness: mean over repeats within 3 SE of full
        inst = make_instances(rng, 200, 20_000)
        report = variance_experiment(inst, "s", rates=[0.05], repeats=100, seed=5)
        row = report.rows[0]
        se = np.sqrt(row.variance / row.n_valid)
        assert abs(row.mean - report.full_auroc) < 3 * se

    def test_variance_slope_helper(self):
        slope, r2 = variance_slope([0.1, 0.5, 1.0], [10.0, 2.0, 1.0])
        assert slope > 0
        assert r2 > 0.99


class TestSurrogate:
    def test_degenerate_equality(self):
        params = SurrogateParams(50, 500, 50, 500, alpha=1.0, beta=1.0,
                                 trials=4000)
        res = surrogate_simulation(params, seed=9)
        # identical distributions: the z statistic is noise around zero
        assert abs(res.sigma) < 4
        assert abs(res.mean_full - res.mean_sub) < 0.01

    def test_sigma_declines_in_beta(self):
        base = dict(p_sub=5, n_sub=500, p_full=50, n_full=20_000, trials=20_000)
        sigmas = [surrogate_simulation(
            SurrogateParams(alpha=0.3, beta=b, **base), seed=10).sigma
            for b in (2, 10, 30)]
        assert sigmas[0] >= sigmas[1] >= sigmas[2]

    def test_deterministic(self):
        params = SurrogateParams(5, 100, 20, 2000, alpha=0.5, beta=3, trials=500)
        a = surrogate_simulation(params, seed=42)
        b = surrogate_simulation(params, seed=42)
        assert a.sigma == b.sigma
        assert a.mean_full == b.mean_full

    def test_sub_samples_shared_across_beta(self):
        base = dict(p_sub=5, n_sub=100, p_full=20, n_full=2000, trials=500)
        a = surrogate_simulation(SurrogateParams(alpha=0.5, beta=2, **base),
                                 seed=1, keep_samples=True)
        b = surrogate_simulation(SurrogateParams(alpha=0.5, beta=8, **base),
                                 seed=1, keep_samples=True)
        assert np.array_equal(a.auroc_sub, b.auroc_sub)

    def test_feasibility_validation(self):
        with pytest.raises(ConfigError):
            SurrogateParams(5, 10, 50, 100, alpha=1.0, beta=50, trials=10)
        with pytest.raises(ConfigError):
            SurrogateParams(50, 100, 5, 1000, alpha=0.5, beta=1, trials=10)
        with pytest.raises(ConfigError):
            SurrogateParams(5, 10, 50, 100, alpha=0.0, beta=1, trials=10)

    def test_auroc_of_arrangements_matches_pair_count(self, rng):
        from lpeval.experiments import _auroc_from_positions
        for _ in range(20):
            m = int(rng.integers(10, 60))
            p = int(rng.integers(1, m // 2))
            pos = rng.choice(m, size=p, replace=False)
            got = _auroc_from_positions(pos[None, :], m)[0]
            scores = np.zeros(m)
            scores[:] = -np.arange(m)  # higher slot = higher score
            labels = np.zeros(m, dtype=bool)
            labels[pos] = True
            assert got == pytest.approx(auroc_pair_count(scores[np.argsort(-scores)],
                                                         labels), abs=1e-12) \
                or got == pytest.approx(auroc_pair_count(scores, labels), abs=1e-12)


class TestFilteredNegatives:
    def test_cut_below_minimum_keeps_baseline(self, rng):
        inst = make_instances(rng, 20, 200, distances=(3, 4))
        rows = filtered_negative_eval(inst, "s", cuts=[2])
        assert rows[1].auroc == rows[0].auroc
        assert rows[1].n_neg_removed == 0

    def test_removing_negatives_above_positives_reaches_one(self):
        # negatives at distance 2 outrank everything; cutting them away
        # leaves a perfectly separated ranking
        label = np.array([True] * 3 + [False] * 3 + [False] * 4)
        dist = np.array([3] * 3 + [2] * 3 + [3] * 4)
        scores = np.array([5.0, 4.0, 3.0] + [9.0, 8.0, 7.0] + [1.0, 0.8, 0.5, 0.2])
        inst = InstanceSet(np.arange(10), np.arange(10) + 50, dist, label)
        rows = filtered_negative_eval(inst, scores, cuts=[3])
        assert rows[0].auroc < 1.0
        assert rows[1].auroc == 1.0

    def test_distance_correlated_scorer_monotone(self, rng):
        # brute-force recomputation oracle at each cut
        n = 400
        dist = rng.choice([2, 3, 4, 5], size=n, p=[0.4, 0.3, 0.2, 0.1])
        label = rng.random(n) < np.where(dist == 2, 0.4, 0.05)
        scores = -dist + rng.normal(scale=0.3, size=n)
        if not label.any() or label.all():
            label[:2] = [True, False]
        inst = InstanceSet(np.arange(n), np.arange(n) + 999, dist, label)
        rows = filtered_negative_eval(inst, scores)
        vals = [r.auroc for r in rows if r.auroc is not None]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for r in rows[1:]:
            if r.auroc is None:
                continue
            keep = label | (dist >= r.cut)
            assert r.auroc == pytest.approx(
                auroc_pair_count(scores[keep], label[keep]), abs=1e-12)

    def test_all_negatives_removed_is_undefined(self, rng):
        inst = make_instances(rng, 5, 20, distances=(2,))
        rows = filtered_negative_eval(inst, "s", cuts=[3])
        assert rows[1].auroc is None


class TestPerDistance:
    def test_inverse_distance_scorer_conflation(self, rng):
        # within a bucket the scorer is pure noise (AUROC 1/2), but across
        # buckets it mirrors the label-distance correlation, inflating the
        # pooled figure; verified against the pair-count oracle
        n = 3000
        dist = rng.choice([2, 3, 4], size=n, p=[0.3, 0.4, 0.3])
        p_pos = np.where(dist == 2, 0.3, np.where(dist == 3, 0.05, 0.01))
        label = rng.random(n) < p_pos
        scores = 1.0 / dist
        inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label)
        rows = per_distance_eval(inst, scores)
        per_bucket = [r for r in rows if r.distance is not None and r.sufficient]
        overall = rows[-1]
        for r in per_bucket:
            assert r.auroc == 0.5  # constant score inside the bucket
        assert overall.auroc > 0.65
        assert overall.auroc == pytest.approx(auroc_pair_count(scores, label),
                                              abs=1e-12)

    def test_single_bucket_overall_equals_bucket(self, rng):
        inst = make_instances(rng, 10, 100, distances=(2,))
        rows = per_distance_eval(inst, "s")
        assert rows[0].auroc == rows[-1].auroc
        assert rows[0].aupr == rows[-1].aupr

    def test_random_scores_near_half_and_prevalence(self, rng):
        n = 30_000
        dist = rng.choice([2, 3], size=n)
        label = rng.random(n) < 0.1
        scores = rng.random(n)
        inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label)
        rows = per_distance_eval(inst, scores)
        for r in rows:
            assert r.auroc == pytest.approx(0.5, abs=0.03)
            prevalence = r.n_pos / (r.n_pos + r.n_neg)
            assert r.aupr == pytest.approx(prevalence, abs=0.03)

    def test_insufficient_bucket_flagged(self):
        label = np.array([True, True, False])
        dist = np.array([2, 3, 3])
        inst = InstanceSet(np.arange(3), np.arange(3) + 5, dist, label)
        rows = per_distance_eval(inst, np.array([1.0, 2.0, 3.0]))
        assert rows[0].sufficient is False
        assert rows[0].auroc is None


class TestTemporal:
    @pytest.fixture
    def setup(self):
        log = synthetic_event_log(80, 5.0, 100, locality=0.85, seed=21)
        window = WindowConfig((0, 49), (50, 59), (0, 59), (60, 100))
        return log, window

    def test_single_slice_equals_standard_eval(self, setup):
        log, window = setup
        pred = PredictorId.parse("cn")
        report = temporal_eval(log, window, TemporalSliceSpec(1), pred, l_max=3)
        assert len(report.rows) == 1
        feature = build_snapshot(log, window.test_feature)
        label = build_snapshot(log, window.test_label)
        inst = generate_test_set(feature, label, l_max=3)
        scored = score_instances(feature, inst, pred)
        from lpeval import auroc
        assert report.rows[0].auroc == pytest.approx(
            auroc(scored.scores["common-neighbors"], scored.label), abs=1e-12)

    def test_cumulative_positive_counts_nondecreasing(self, setup):
        log, window = setup
        report = temporal_eval(log, window, TemporalSliceSpec(4, "cumulative"),
                               PredictorId.parse("pa"), l_max=3)
        counts = [r.n_pos for r in report.rows]
        assert counts == sorted(counts)

    def test_slice_partition_exact(self):
        slices, remainder = slice_intervals((60, 100), 4)
        assert slices == [(60, 69), (70, 79), (80, 89), (90, 100)]
        assert remainder == 1
        assert slices[0][0] == 60 and slices[-1][1] == 100
        with pytest.raises(ConfigError):
            slice_intervals((0, 2), 5)

    def test_disjoint_positives_partition_cumulative_total(self, setup):
        log, window = setup
        disjoint = temporal_eval(log, window, TemporalSliceSpec(4, "disjoint"),
                                 PredictorId.parse("pa"), l_max=3)
        cumulative = temporal_eval(log, window, TemporalSliceSpec(4, "cumulative"),
                                   PredictorId.parse("pa"), l_max=3)
        assert cumulative.rows[-1].n_pos >= max(r.n_pos for r in disjoint.rows)

    def test_empty_slice_flagged(self):
        # all label-window events fall in the first slice
        log = synthetic_event_log(40, 4.0, 10, locality=0.5, seed=3)
        window = WindowConfig((0, 4), (5, 6), (0, 6), (7, 1000))
        report = temporal_eval(log, window, TemporalSliceSpec(5),
                               PredictorId.parse("cn"), l_max=3)
        assert any(not r.valid for r in report.rows)

    def test_cumulative_aupr_nondecreasing_on_decaying_locality(self):
        # recomputation oracle built in: candidates fixed, positives grow,
        # so the cumulative sub-problem gets easier for a local scorer
        log = synthetic_event_log(120, 5.0, 100, locality=0.9, seed=31)
        window = WindowConfig((0, 49), (50, 59), (0, 59), (60, 100))
        report = temporal_eval(log, window, TemporalSliceSpec(4, "cumulative"),
                               PredictorId.parse("aa"), l_max=3)
        vals = [r.aupr for r in report.rows if r.valid]
        assert len(vals) >= 3
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestKaggleDirection:
    def test_balanced_sampling_inflates_distance_blind_scorer(self):
        # With g(d) the AUROC of all positives against the negatives of bucket
        # d, E[AUROC] is sum_d pi_neg(d) g(d) under fair sampling and, as long
        # as every bucket holds at least as many negatives as positives,
        # sum_d pi_pos(d) g(d) under sample_kaggle (pi: the share of negatives
        # or positives in bucket d). A distance-blind scorer thus moves only
        # as far as g varies with d. For PA on this locality log g rises with
        # distance (0.433 at d=2, 0.441 at 3, 0.460 at 4, 0.474 at 5, 0.470 at
        # 6, 0.495 beyond: close pairs have larger degree products) and pi_pos
        # sits at d=2, so PA's own AUROC falls (0.489 -> 0.445). What balancing
        # does is strip a distance-aware scorer of its lead (CN 0.877 ->
        # 0.535), which flatters PA relative to CN.
        log = synthetic_event_log(150, 4.0, 100, locality=0.9, seed=17)
        feature = build_snapshot(log, (0, 79))
        label = build_snapshot(log, (80, 100))
        inst = generate_test_set(feature, label, l_max=6)
        for p in ("cn", "pa"):
            inst = score_instances(feature, inst, PredictorId.parse(p))
        from lpeval import auroc
        pa, cn = "preferential-attachment", "common-neighbors"
        n_pos = dict(zip(*np.unique(inst.distance[inst.label], return_counts=True)))
        n_neg = dict(zip(*np.unique(inst.distance[~inst.label], return_counts=True)))
        assert all(n_neg.get(d, 0) >= n for d, n in n_pos.items())
        assert bucket_mixture_auroc(inst.scores[pa], inst.label, inst.distance,
                                    n_neg) == pytest.approx(
            auroc(inst.scores[pa], inst.label), abs=1e-12)
        wins = 0
        fair_pa, kag_pa = [], []
        for s in range(20):
            fair = sample_fair(inst, SamplingSpec("fair-random", 0.2, seed=s))
            kag = sample_kaggle(inst, seed=s)
            f_pa, f_cn = (auroc(fair.scores[k], fair.label) for k in (pa, cn))
            k_pa, k_cn = (auroc(kag.scores[k], kag.label) for k in (pa, cn))
            fair_pa.append(f_pa)
            kag_pa.append(k_pa)
            wins += k_pa - k_cn >= f_pa - f_cn
        assert wins >= 15
        for draws, weights in ((fair_pa, n_neg), (kag_pa, n_pos)):
            mixture = bucket_mixture_auroc(inst.scores[pa], inst.label,
                                           inst.distance, weights)
            se = np.std(draws, ddof=1) / np.sqrt(len(draws))
            assert abs(np.mean(draws) - mixture) <= 4 * se
