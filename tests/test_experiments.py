import io

import numpy as np
import pytest

from lpeval import (ConfigError, InstanceSet, PredictorId, Ranking, SamplingSpec,
                    Snapshot, SurrogateParams, TemporalSliceSpec, UndefinedMetricError,
                    WindowConfig, analytic_sampling_variance, auroc,
                    build_snapshot, estimate_classifiable,
                    filtered_negative_eval, generate_test_set, kaggle_compare,
                    per_distance_eval, sample_fair, sample_kaggle,
                    score_instances, surrogate_simulation, synthetic_event_log,
                    temporal_eval, variance_experiment)
from lpeval import BEYOND, DISCONNECTED, pr_curve, roc_curve
from lpeval import rng as rng_mod
from lpeval.experiments import (DistanceRow, FilteredNegativeRow,
                                CONDMAT_STANDIN_COUNTS, KaggleCompareReport,
                                _balanced_counts, _kept_cells,
                                _kept_counts, slice_intervals, variance_slope)
from lpeval.metrics import write_curve_csv
from lpeval.rng import substream

from conftest import assert_same_ranking
from oracles import (auroc_from_positions, auroc_pair_count, bucket_mixture_auroc,
                     classifiable_by_rows, curve_csv_text, fair_sample_indices,
                     filtered_rows_resorted, first_kept_indices,
                     kaggle_compare_resorted, kaggle_sample_indices,
                     per_distance_rows_resorted, random_ranking,
                     surrogate_monte_carlo, variance_report_resorted)


def make_instances(rng, n_pos, n_neg, distances=(2, 3, 4)):
    n = n_pos + n_neg
    label = np.zeros(n, dtype=bool)
    label[:n_pos] = True
    dist = rng.choice(distances, size=n)
    inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label)
    inst.scores["s"] = rng.normal(size=n) + label * 1.5
    return inst


def ranked(inst, scores=None):
    """The Ranking of ``scores`` (default: column ``s``) over ``inst``'s labels
    and distances, as the CLI builds it for each predictor."""
    return Ranking(inst.scores["s"] if scores is None else scores, inst.label,
                   inst.distance)


def drawn(cells):
    """The Ranking of a draw's kept cells, as evaluate builds it."""
    return Ranking(cells.scores["score"], cells.label, cells.distance,
                   counts=cells.count)


def kept_negatives(cells):
    """The kept negative count of each (bucket, tie group) cell of a draw."""
    return cells.count[~cells.label]


class TestFairSampling:
    def test_rate_one_is_identity(self, rng):
        inst = make_instances(rng, 20, 200)
        rank = ranked(inst)
        assert_same_ranking(
            drawn(sample_fair(rank, SamplingSpec("fair-random", 1.0, seed=3))), rank)

    def test_all_positives_kept(self, rng):
        inst = make_instances(rng, 50, 500)
        rank = ranked(inst)
        cells = sample_fair(rank, SamplingSpec("fair-random", 0.2, seed=3))
        out = drawn(cells)
        assert out.n_pos == 50
        assert np.all((0 <= kept_negatives(cells)) &
                      (kept_negatives(cells) <= rank.neg.ravel()))

    def test_binomial_bound(self, rng):
        inst = make_instances(rng, 10, 10_000)
        out = drawn(sample_fair(ranked(inst), SamplingSpec("fair-random", 0.5, seed=11)))
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(out.n_neg - 5000) < 4 * sigma

    def test_deterministic_under_seed(self, rng):
        rank = ranked(make_instances(rng, 10, 1000))
        a = sample_fair(rank, SamplingSpec("fair-random", 0.5, seed=7))
        b = sample_fair(rank, SamplingSpec("fair-random", 0.5, seed=7))
        assert np.array_equal(a.count, b.count)
        c = sample_fair(rank, SamplingSpec("fair-random", 0.5, seed=8))
        assert not np.array_equal(a.count, c.count)

    def test_exact_counts_flag(self, rng):
        inst = make_instances(rng, 10, 1000)
        out = drawn(sample_fair(ranked(inst), SamplingSpec("fair-random", 0.25, seed=7,
                                                           exact_counts=True)))
        assert out.n_neg == 250

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SamplingSpec("fair-random", 0.0)
        with pytest.raises(ConfigError):
            SamplingSpec("fair-random", 1.5)
        with pytest.raises(ConfigError):
            SamplingSpec("typo", 0.5)


def kaggle_drawn(label, dist, seed, scores=None):
    """The Ranking of sample_kaggle's draw over rows of ``label`` and
    ``dist``, scored by ``scores`` (default: two tie groups)."""
    scores = np.arange(label.size) % 2 if scores is None else scores
    return drawn(sample_kaggle(Ranking(scores, label, dist), seed=seed))


class TestKaggleSampling:
    def test_bucket_balanced(self, rng):
        label = np.array([True] * 5 + [False] * 100)
        out = kaggle_drawn(label, np.full(105, 2), seed=5)
        assert (out.n_pos, out.n_neg) == (5, 5)

    def test_zero_positive_bucket_dropped(self, rng):
        label = np.array([True, False, False, False])
        dist = np.array([2, 2, 3, 3])
        out = kaggle_drawn(label, dist, seed=5)
        assert out.distances.tolist() == [2]
        assert (out.n_pos, out.n_neg) == (1, 1)

    def test_two_bucket_overall_ratio(self, rng):
        # count oracle: every bucket balances, so the union is exactly 1:1
        label = np.concatenate([np.ones(4, bool), np.zeros(50, bool),
                                np.ones(7, bool), np.zeros(90, bool)])
        dist = np.concatenate([np.full(54, 2), np.full(97, 3)])
        out = kaggle_drawn(label, dist, seed=1, scores=rng.normal(size=151))
        assert out.n_pos == out.n_neg == 11
        assert out.pos.sum(axis=1).tolist() == out.neg.sum(axis=1).tolist() == [4, 7]

    def test_small_negative_bucket_kept_whole(self, rng):
        label = np.array([True, True, True, False])
        out = kaggle_drawn(label, np.full(4, 2), seed=5)
        assert (out.n_pos, out.n_neg) == (3, 1)

    def test_deterministic_under_seed(self, rng):
        label = rng.random(500) < 0.1
        rank = Ranking(rng.normal(size=500), label, rng.choice([2, 3, 4], 500))
        a, b, c = (sample_kaggle(rank, seed=seed) for seed in (7, 7, 8))
        assert np.array_equal(a.count, b.count)
        assert not np.array_equal(a.count, c.count)


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
        assert estimate_classifiable(Ranking(scores, labels)) == 3

    def test_classifiable_estimate_matches_rows(self, rng):
        # Signed zeros share a tie group, and positives split evenly between
        # -inf and inf make a NaN median; both parities of the positive count.
        specials = np.array([-np.inf, -0.0, 0.0, np.inf])
        parities, nan_medians = set(), 0
        for _ in range(1500):
            scores, labels = random_ranking(rng, max_size=60)
            swap = rng.random(scores.size) < rng.uniform(0.0, 0.6)
            scores[swap] = rng.choice(specials, size=int(swap.sum()))
            if rng.random() < 0.1:
                rows = np.flatnonzero(labels)
                scores[rows] = np.where(np.arange(rows.size) % 2, np.inf, -np.inf)
            parities.add(int(labels.sum()) % 2)
            with np.errstate(invalid="ignore"):
                want = classifiable_by_rows(scores, labels)
                assert estimate_classifiable(Ranking(scores, labels)) == want
                pos = np.sort(scores[labels])
                nan_medians += bool(np.isnan(pos[(pos.size - 1) // 2]
                                             + pos[pos.size // 2]))
        assert parities == {0, 1} and nan_medians > 0

    def test_classifiable_estimate_needs_a_positive(self):
        with pytest.raises(UndefinedMetricError):
            estimate_classifiable(Ranking([0.5, 0.1], [False, False]))


class TestVarianceExperiment:
    def test_rate_one_zero_spread(self, rng):
        inst = make_instances(rng, 30, 500)
        report = variance_experiment(ranked(inst), rates=[1.0], repeats=10, seed=1)
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
            report = variance_experiment(ranked(inst), rates=[1.0],
                                         repeats=repeats, seed=seed)
            row = report.rows[0]
            assert row.n_valid == repeats
            assert row.mean == report.full_auroc
            assert row.variance == 0.0
            assert row.minimum == row.maximum == row.mean

    def test_variance_scales_like_inverse_rate(self, rng):
        inst = make_instances(rng, 100, 10_000)
        report = variance_experiment(ranked(inst), rates=[0.01, 0.1], repeats=100,
                                     seed=2)
        v01, v10 = report.rows[0].variance, report.rows[1].variance
        # Eq-1 ratio (0.99/0.01)/(0.9/0.1) = 11, wide band for estimator noise
        assert 5 < v01 / v10 < 20

    def test_slope_positive_with_good_fit(self, rng):
        inst = make_instances(rng, 100, 10_000)
        report = variance_experiment(ranked(inst), rates=[0.003, 0.01, 0.03, 0.1],
                                     repeats=100, seed=3)
        assert report.slope > 0
        assert report.r_squared > 0.9

    def test_zero_negative_repeats_flagged(self, rng):
        inst = make_instances(rng, 5, 3)
        with pytest.warns(UserWarning, match="not integral"):
            report = variance_experiment(ranked(inst), rates=[1e-4], repeats=20, seed=4)
        row = report.rows[0]
        assert row.n_valid + row.n_invalid == 20
        assert row.n_invalid > 0

    def test_mean_tracks_full_auroc(self, rng):
        # fair-sample unbiasedness: mean over repeats within 3 SE of full
        inst = make_instances(rng, 200, 20_000)
        report = variance_experiment(ranked(inst), rates=[0.05], repeats=100, seed=5)
        row = report.rows[0]
        se = np.sqrt(row.variance / row.n_valid)
        assert abs(row.mean - report.full_auroc) < 3 * se

    def test_variance_slope_helper(self):
        slope, r2 = variance_slope([0.1, 0.5, 1.0], [10.0, 2.0, 1.0])
        assert slope > 0
        assert r2 > 0.99


def tie_heavy_instances(seed, n=300):
    """Scores from seven values (signed zeros and infinities among them),
    about 10% positives, every distance bucket."""
    rng = np.random.default_rng(seed)
    scores = rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf], size=n)
    label = rng.random(n) < 0.1
    label[:2] = [True, False]
    dist = rng.choice([2, 3, 4, BEYOND, DISCONNECTED], size=n)
    return InstanceSet(np.arange(n), np.arange(n) + n, dist, label), scores


class TestTieGroupCounts:
    """Ranked once and counted per tie group, the sampling experiments must
    report exactly what re-ranking every sample reports."""

    @pytest.mark.parametrize("exact_counts", [False, True])
    def test_variance_matches_resorting_oracle(self, exact_counts):
        rates = [1e-3, 0.01, 0.3, 1.0]
        invalid = 0
        for seed in range(6):
            inst, scores = tie_heavy_instances(seed)
            with pytest.warns(UserWarning, match="N\\*p"):
                got = variance_experiment(ranked(inst, scores), rates=rates,
                                          repeats=8, seed=seed,
                                          exact_counts=exact_counts)
                want = variance_report_resorted(inst, scores, rates, 8, seed,
                                                exact_counts)
            assert got == want
            invalid += sum(r.n_invalid for r in got.rows)
        assert invalid > 0  # repeats that keep no negative are covered

    def test_filtered_matches_resorting_oracle(self):
        for seed in range(6):
            inst, scores = tie_heavy_instances(seed)
            assert filtered_negative_eval(ranked(inst, scores)) == \
                filtered_rows_resorted(inst, scores)
            cuts = [2, 5, BEYOND + 1]
            assert filtered_negative_eval(ranked(inst, scores), cuts) == \
                filtered_rows_resorted(inst, scores, cuts)

    @pytest.mark.filterwarnings("ignore:N\\*p")
    def test_shared_ranking_gives_the_same_reports(self):
        # The CLI ranks a column once and passes it to each experiment, so
        # no experiment may change it for the next.
        for seed in range(6):
            inst, scores = tie_heavy_instances(seed)
            rank = ranked(inst, scores)
            for _ in range(2):
                assert variance_experiment(rank, rates=[0.3, 1.0], repeats=4,
                                           seed=seed) == \
                    variance_report_resorted(inst, scores, [0.3, 1.0], 4, seed)
                assert filtered_negative_eval(rank) == \
                    filtered_rows_resorted(inst, scores)
                assert per_distance_eval(rank) == \
                    per_distance_rows_resorted(inst, scores)
                got = kaggle_compare(rank, 0.3, [seed])
                assert (got.full_auroc, list(got.fair_values),
                        list(got.kaggle_values)) == \
                    kaggle_compare_resorted(inst, scores, 0.3, [seed])

    def test_kaggle_compare_matches_resorting_oracle(self):
        for seed in range(6):
            inst, scores = tie_heavy_instances(seed)
            for rate in (0.01, 0.3, 1.0):
                seeds = range(100 * seed, 100 * seed + 8)
                got = kaggle_compare(ranked(inst, scores), rate, seeds)
                full, fair, kaggle = kaggle_compare_resorted(inst, scores, rate,
                                                             seeds)
                assert got.full_auroc == full
                assert list(got.fair_values) == fair
                assert list(got.kaggle_values) == kaggle
                assert len(kaggle) == 8

    def test_nan_scores_are_a_config_error(self):
        # The experiments take a Ranking, and a NaN score ranks nowhere.
        inst, scores = tie_heavy_instances(0)
        scores[5] = np.nan
        with pytest.raises(ConfigError):
            ranked(inst, scores)
        with pytest.raises(ConfigError):
            Ranking(scores, inst.label)

    def test_distance_experiments_need_distance(self):
        inst, scores = tie_heavy_instances(0)
        rank = Ranking(scores, inst.label)
        for run in (lambda: kaggle_compare(rank, 0.5, [1]),
                    lambda: filtered_negative_eval(rank),
                    lambda: per_distance_eval(rank)):
            with pytest.raises(ConfigError, match="distance"):
                run()
        assert variance_experiment(rank, rates=[1.0], repeats=2) == \
            variance_experiment(ranked(inst, scores), rates=[1.0], repeats=2)


def distance_tied_instances(seed, n=400):
    """About ten integer scores (0 written as -0.0) that fall with distance
    and rise with the label; positives are commonest at distance 2, so a
    balanced draw that ignored distance would move the mean AUROC."""
    rng = np.random.default_rng(seed)
    bucket = rng.integers(0, 5, n)
    dist = np.array([2, 3, 4, BEYOND, DISCONNECTED])[bucket]
    label = rng.random(n) < np.array([0.3, 0.15, 0.08, 0.05, 0.03])[bucket]
    label[:2] = [True, False]
    scores = np.round(1.5 * label - 0.8 * bucket + rng.normal(size=n))
    scores[scores == 0] = -0.0
    return InstanceSet(np.arange(n), np.arange(n) + n, dist, label), scores


class TestCountDraws:
    """The experiments draw kept negatives per tie group; each draw must
    have the distribution of the per-row draw it replaces."""

    REPEATS = 2000

    def assert_same_distribution(self, mean, var, n, rows):
        rows = np.asarray(rows)
        assert min(n, rows.size) >= 0.95 * self.REPEATS
        se = np.sqrt(var / n + rows.var(ddof=1) / rows.size)
        assert abs(mean - rows.mean()) <= 4 * se
        # The variance ratio of two samples of 2,000 near-normal draws has a
        # standard error of about sqrt(2/2000 + 2/2000) = 0.045, so the band
        # 0.8-1.25 is about five standard errors either way.
        assert 0.8 <= var / rows.var(ddof=1) <= 1.25

    @pytest.mark.filterwarnings("ignore:N\\*p")
    @pytest.mark.parametrize("exact_counts", [False, True])
    def test_fair_counts_match_row_draws(self, exact_counts):
        # The variance experiment's draws and evaluate's (sample_fair), each
        # against the row draws.
        inst, scores = distance_tied_instances(0)
        labels = inst.label
        rank = ranked(inst, scores)
        row = variance_experiment(rank, rates=[0.3], repeats=self.REPEATS, seed=11,
                                  exact_counts=exact_counts).rows[0]
        rows = []
        for rep in range(self.REPEATS):
            idx = fair_sample_indices(labels, 0.3, np.random.default_rng([17, rep]),
                                      exact_counts)
            rows.append(auroc(scores[idx], labels[idx]))
        self.assert_same_distribution(row.mean, row.variance, row.n_valid, rows)
        sampled = [auroc(drawn(sample_fair(rank, SamplingSpec(
                       "fair-random", 0.3, seed=s, exact_counts=exact_counts))))
                   for s in range(self.REPEATS)]
        self.assert_same_distribution(np.mean(sampled), np.var(sampled, ddof=1),
                                      len(sampled), rows)

    def test_balanced_counts_match_row_draws(self):
        # kaggle_compare's balanced draws and evaluate's (sample_kaggle),
        # each against the row draws; sample_kaggle(rank, seed=s) is the
        # draw of kaggle_compare's repeat seed s, so its seeds differ.
        inst, scores = distance_tied_instances(0)
        rank = ranked(inst, scores)
        counted = kaggle_compare(rank, 0.3, range(self.REPEATS)).kaggle_values
        rows = []
        for s in range(self.REPEATS, 2 * self.REPEATS):
            idx = kaggle_sample_indices(inst.label, inst.distance,
                                        substream(s, rng_mod.STREAM_KAGGLE_SAMPLE))
            rows.append(auroc(scores[idx], inst.label[idx]))
        self.assert_same_distribution(np.mean(counted), np.var(counted, ddof=1),
                                      len(counted), rows)
        sampled = [auroc(drawn(sample_kaggle(rank, seed=s)))
                   for s in range(2 * self.REPEATS, 3 * self.REPEATS)]
        self.assert_same_distribution(np.mean(sampled), np.var(sampled, ddof=1),
                                      len(sampled), rows)

    def test_evaluate_draws_use_the_named_substreams(self):
        # sample_fair draws from (seed, STREAM_FAIR_SAMPLE) and sample_kaggle
        # from (seed, STREAM_KAGGLE_SAMPLE), as kaggle_compare's repeats do.
        inst, scores = distance_tied_instances(0)
        rank = ranked(inst, scores)
        for s in range(5):
            want = _balanced_counts(rank.pos, rank.neg,
                                    substream(s, rng_mod.STREAM_KAGGLE_SAMPLE))
            assert np.array_equal(kept_negatives(sample_kaggle(rank, seed=s)),
                                  want.ravel())
            for exact in (False, True):
                want = _kept_counts(rank.neg.ravel(), 0.3,
                                    substream(s, rng_mod.STREAM_FAIR_SAMPLE), exact)
                spec = SamplingSpec("fair-random", 0.3, seed=s, exact_counts=exact)
                assert np.array_equal(kept_negatives(sample_fair(rank, spec)), want)

    def test_kept_cells_rank_as_their_first_rows(self):
        # For any kept table, the cells rank into the curves of the rows they
        # stand for: every positive and the first kept[b, g] negatives of
        # each (bucket, tie group).
        gen = np.random.default_rng(31)
        for seed in range(6):
            inst, scores = tie_heavy_instances(seed)
            rank = ranked(inst, scores)
            kept = gen.integers(0, rank.neg + 1)
            kept[0, np.argmax(rank.neg[0])] = rank.neg[0].max()  # a negative
            got = drawn(_kept_cells(rank, kept))
            idx = first_kept_indices(scores, inst.label, inst.distance, kept)
            want = Ranking(scores[idx], inst.label[idx], inst.distance[idx])
            assert_same_ranking(got, want)
            for curve in (roc_curve, pr_curve):
                buf = io.StringIO()
                write_curve_csv(curve(got), buf)
                assert buf.getvalue() == curve_csv_text(curve(want))
            assert per_distance_eval(got) == per_distance_eval(want)

    def test_count_draw_invariants(self):
        gen = np.random.default_rng(23)
        for _ in range(200):
            neg = gen.integers(0, 6, size=int(gen.integers(1, 9)))
            neg[gen.random(neg.size) < 0.3] = 0
            rate = float(gen.choice([1e-3, 0.1, 0.5, 0.77, 1.0]))
            rng = np.random.default_rng(int(gen.integers(1 << 30)))
            for exact in (False, True):
                kept = _kept_counts(neg, rate, rng, exact)
                assert np.all((0 <= kept) & (kept <= neg))
                if exact or rate == 1.0:
                    assert kept.sum() == round(neg.sum() * rate)
            state = rng.bit_generator.state
            assert _kept_counts(neg, 1.0, rng, False) is neg
            assert _kept_counts(neg, 1.0, rng, True) is neg
            assert rng.bit_generator.state == state  # rate 1 draws nothing

            pos = gen.integers(0, 4, size=(4, neg.size))
            pos[gen.random(4) < 0.3] = 0
            table = gen.integers(0, 5, size=(4, neg.size))
            kept = _balanced_counts(pos, table, rng)
            assert np.all((0 <= kept) & (kept <= table))
            assert kept.sum(axis=1).tolist() == [
                min(p, n) if p else 0
                for p, n in zip(pos.sum(axis=1), table.sum(axis=1))]


class TestSurrogate:
    # (p_sub, n_sub, p_full, n_full, alpha, beta): a generic cell; the
    # benchmark's cell at 1/1000 of the Condmat counts; a strong predictor;
    # no tail (p_full == p_sub); identical problems; a tail with no spare
    # slot (p_full == the full ranking's top alpha); a band as wide as it;
    # one tail positive in 3 free slots, where every term of the variance
    # weighs more than the tolerance.
    ORACLE_CASES = [(5, 100, 20, 2000, 0.5, 3), (1, 215, 30, 148_200, 0.2, 10),
                    (3, 60, 20, 3000, 0.1, 5), (5, 200, 5, 2000, 0.4, 4),
                    (5, 50, 5, 50, 1.0, 1.0), (2, 4, 4, 4, 0.5, 1.25),
                    (4, 46, 10, 115, 1.0, 2.5), (1, 1, 2, 2, 1.0, 2)]

    @pytest.mark.parametrize("counts", ORACLE_CASES)
    def test_matches_monte_carlo_oracle(self, counts):
        params = SurrogateParams(*counts, trials=40_000)
        exact = surrogate_simulation(params)
        for samples, mean, var in zip(surrogate_monte_carlo(params, seed=7),
                                      (exact.mean_sub, exact.mean_full),
                                      (exact.var_sub, exact.var_full)):
            assert abs(samples.mean() - mean) <= 4 * (var / samples.size) ** 0.5 + 1e-12
            assert abs(samples.var(ddof=1) - var) <= 0.03 * var + 1e-20

    def test_no_spare_slot_fixes_the_full_ranking(self):
        # Every slot of the full ranking's top alpha holds a positive.
        res = surrogate_simulation(SurrogateParams(2, 4, 4, 4, alpha=0.5, beta=1.25))
        assert res.var_full == 0.0
        assert res.mean_full == 1.0

    def test_paper_scale_moments(self):
        res = surrogate_simulation(SurrogateParams(**CONDMAT_STANDIN_COUNTS,
                                                   alpha=0.3, beta=2))
        assert round(res.mean_sub, 5) == 0.85195
        assert round(res.mean_full, 5) == 0.85605
        # The sub-problem's mean is 1 - (A - p)/(2n) for A slots.
        assert res.mean_sub == 1 - (64_744 - 1196) / (2 * 214_616)

    def test_degenerate_equality(self):
        params = SurrogateParams(50, 500, 50, 500, alpha=1.0, beta=1.0,
                                 trials=4000)
        res = surrogate_simulation(params)
        # identical distributions, computed exactly
        assert res.sigma == 0.0
        assert res.mean_full == res.mean_sub
        assert res.var_full == res.var_sub

    def test_sigma_declines_in_beta(self):
        base = dict(p_sub=5, n_sub=500, p_full=50, n_full=20_000, trials=20_000)
        sigmas = [surrogate_simulation(SurrogateParams(alpha=0.3, beta=b, **base)).sigma
                  for b in (2, 10, 30)]
        assert sigmas[0] > sigmas[1] > sigmas[2]

    def test_deterministic(self):
        params = SurrogateParams(5, 100, 20, 2000, alpha=0.5, beta=3, trials=500)
        assert surrogate_simulation(params) == surrogate_simulation(params)
        # Only sigma depends on the trial count, as sqrt(trials).
        more = surrogate_simulation(SurrogateParams(5, 100, 20, 2000, alpha=0.5,
                                                    beta=3, trials=2000))
        assert more[1:5] == surrogate_simulation(params)[1:5]
        assert more.sigma == pytest.approx(2 * surrogate_simulation(params).sigma,
                                           rel=1e-12)

    def test_sub_samples_shared_across_beta(self):
        base = dict(p_sub=5, n_sub=100, p_full=20, n_full=2000, trials=500)
        a, _ = surrogate_monte_carlo(SurrogateParams(alpha=0.5, beta=2, **base),
                                     seed=1)
        b, _ = surrogate_monte_carlo(SurrogateParams(alpha=0.5, beta=8, **base),
                                     seed=1)
        assert np.array_equal(a, b)

    def test_feasibility_validation(self):
        with pytest.raises(ConfigError):
            SurrogateParams(5, 10, 50, 100, alpha=1.0, beta=50, trials=10)
        with pytest.raises(ConfigError):
            SurrogateParams(50, 100, 5, 1000, alpha=0.5, beta=1, trials=10)
        with pytest.raises(ConfigError):
            SurrogateParams(5, 10, 50, 100, alpha=0.0, beta=1, trials=10)
        # A band (158 slots) wider than the full ranking's top alpha (110),
        # although it fits in the whole full ranking (220).
        with pytest.raises(ConfigError) as exc:
            SurrogateParams(5, 100, 20, 200, alpha=0.5, beta=3)
        assert exc.value.field == "surrogate.beta"

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ConfigError) as exc:
            SurrogateParams(5, 100, 20, 2000, alpha=0.5, beta=beta)
        assert exc.value.field == "surrogate.beta"

    def test_slots_ceil_the_exact_product(self):
        # 0.07 * 100 is 7.000000000000001 in floats, but 7 slots.
        params = SurrogateParams(5, 95, 5, 95, alpha=0.07, beta=1)
        assert (params.slots_sub, params.slots_full_band,
                params.slots_full_tail) == (7, 7, 7)
        # The default cell at the paper's counts: 0.9 * 215,812 * 10 exactly.
        params = SurrogateParams(**CONDMAT_STANDIN_COUNTS, alpha=0.9, beta=10)
        assert params.slots_full_band == 1_942_308
        for k in range(1, 101):
            for m in range(2, 200):
                params = SurrogateParams(1, m - 1, 1, m - 1, alpha=k / 100, beta=1)
                assert params.slots_sub == params.slots_full_tail == -(-k * m // 100)

    def test_auroc_of_arrangements_matches_pair_count(self, rng):
        for _ in range(20):
            m = int(rng.integers(10, 60))
            p = int(rng.integers(1, m // 2))
            pos = rng.choice(m, size=p, replace=False)
            got = auroc_from_positions(pos[None, :], m)[0]
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
        rows = filtered_negative_eval(ranked(inst), cuts=[2])
        assert rows[1].auroc == rows[0].auroc
        assert rows[1].n_neg_removed == 0

    def test_removing_negatives_above_positives_reaches_one(self):
        # negatives at distance 2 outrank everything; cutting them away
        # leaves a perfectly separated ranking
        label = np.array([True] * 3 + [False] * 3 + [False] * 4)
        dist = np.array([3] * 3 + [2] * 3 + [3] * 4)
        scores = np.array([5.0, 4.0, 3.0] + [9.0, 8.0, 7.0] + [1.0, 0.8, 0.5, 0.2])
        inst = InstanceSet(np.arange(10), np.arange(10) + 50, dist, label)
        rows = filtered_negative_eval(ranked(inst, scores), cuts=[3])
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
        rows = filtered_negative_eval(ranked(inst, scores))
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
        rows = filtered_negative_eval(ranked(inst), cuts=[3])
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
        rows = per_distance_eval(ranked(inst, scores))
        per_bucket = [r for r in rows if r.distance is not None and r.sufficient]
        overall = rows[-1]
        for r in per_bucket:
            assert r.auroc == 0.5  # constant score inside the bucket
        assert overall.auroc > 0.65
        assert overall.auroc == pytest.approx(auroc_pair_count(scores, label),
                                              abs=1e-12)

    def test_single_bucket_overall_equals_bucket(self, rng):
        inst = make_instances(rng, 10, 100, distances=(2,))
        rows = per_distance_eval(ranked(inst))
        assert rows[0].auroc == rows[-1].auroc
        assert rows[0].aupr == rows[-1].aupr

    def test_random_scores_near_half_and_prevalence(self, rng):
        n = 30_000
        dist = rng.choice([2, 3], size=n)
        label = rng.random(n) < 0.1
        scores = rng.random(n)
        inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label)
        rows = per_distance_eval(ranked(inst, scores))
        for r in rows:
            assert r.auroc == pytest.approx(0.5, abs=0.03)
            prevalence = r.n_pos / (r.n_pos + r.n_neg)
            assert r.aupr == pytest.approx(prevalence, abs=0.03)

    def test_insufficient_bucket_flagged(self):
        label = np.array([True, True, False])
        dist = np.array([2, 3, 3])
        inst = InstanceSet(np.arange(3), np.arange(3) + 5, dist, label)
        rows = per_distance_eval(ranked(inst, np.array([1.0, 2.0, 3.0])))
        assert rows[0].sufficient is False
        assert rows[0].auroc is None


class TestEmptySet:
    """An instance set without rows ranks into a count table without tie
    groups, on which the experiments give undefined results, not errors;
    only the variance experiment, which needs the full AUROC, raises."""

    def empty(self):
        none = np.zeros(0, dtype=np.int64)
        return ranked(InstanceSet(none, none, none, np.zeros(0, dtype=bool),
                                  {"s": np.zeros(0)}))

    def test_experiments_report_undefined(self):
        rank = self.empty()
        assert kaggle_compare(rank, 0.5, [1, 2]) == \
            KaggleCompareReport(None, (), ())
        assert filtered_negative_eval(rank) == \
            [FilteredNegativeRow(None, 0, 0, None)]
        assert filtered_negative_eval(rank, cuts=[3]) == \
            [FilteredNegativeRow(None, 0, 0, None), FilteredNegativeRow(3, 0, 0, None)]
        assert per_distance_eval(rank) == \
            [DistanceRow(None, 0, 0, None, None, False)]

    def test_ranking_needs_rows(self):
        rank = self.empty()
        assert rank.pos.shape == rank.neg.shape == (0, 0)
        assert rank.tp.tolist() == rank.fp.tolist() == rank.bounds.tolist() == [0]
        assert (len(rank), rank.n_pos, rank.n_neg) == (0, 0, 0)
        with pytest.raises(UndefinedMetricError):
            variance_experiment(rank, repeats=2)


class TestTemporal:
    @pytest.fixture
    def setup(self):
        log = synthetic_event_log(80, 5.0, 100, locality=0.85, seed=21)
        window = WindowConfig((0, 49), (50, 59), (0, 59), (60, 100))
        return log, window

    @staticmethod
    def temporal(log, window, spec, predictor, l_max):
        """``temporal_eval``'s report for one predictor, on the candidates
        and scores that ``evaluate`` would build."""
        feature = build_snapshot(log, window.test_feature)
        label = build_snapshot(log, window.test_label)
        inst = generate_test_set(feature, label, l_max=l_max)
        sets = {predictor.name: score_instances(feature, inst, predictor)}
        return temporal_eval(sets, log, window.test_label, spec)[predictor.name]

    def test_single_slice_equals_standard_eval(self, setup):
        log, window = setup
        pred = PredictorId.parse("cn")
        report = self.temporal(log, window, TemporalSliceSpec(1), pred, l_max=3)
        assert len(report.rows) == 1
        feature = build_snapshot(log, window.test_feature)
        label = build_snapshot(log, window.test_label)
        inst = generate_test_set(feature, label, l_max=3)
        scored = score_instances(feature, inst, pred)
        from lpeval import auroc
        assert report.rows[0].auroc == \
            auroc(scored.scores["common-neighbors"], scored.label)

    def test_cumulative_positive_counts_nondecreasing(self, setup):
        log, window = setup
        report = self.temporal(log, window, TemporalSliceSpec(4, "cumulative"),
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
        disjoint = self.temporal(log, window, TemporalSliceSpec(4, "disjoint"),
                                 PredictorId.parse("pa"), l_max=3)
        cumulative = self.temporal(log, window, TemporalSliceSpec(4, "cumulative"),
                                   PredictorId.parse("pa"), l_max=3)
        assert cumulative.rows[-1].n_pos >= max(r.n_pos for r in disjoint.rows)

    def test_empty_slice_flagged(self):
        # all label-window events fall in the first slice
        log = synthetic_event_log(40, 4.0, 10, locality=0.5, seed=3)
        window = WindowConfig((0, 4), (5, 6), (0, 6), (7, 1000))
        report = self.temporal(log, window, TemporalSliceSpec(5),
                               PredictorId.parse("cn"), l_max=3)
        assert any(not r.valid for r in report.rows)

    def test_cumulative_aupr_nondecreasing_on_decaying_locality(self):
        # recomputation oracle built in: candidates fixed, positives grow,
        # so the cumulative sub-problem gets easier for a local scorer
        log = synthetic_event_log(120, 5.0, 100, locality=0.9, seed=31)
        window = WindowConfig((0, 49), (50, 59), (0, 59), (60, 100))
        report = self.temporal(log, window, TemporalSliceSpec(4, "cumulative"),
                               PredictorId.parse("aa"), l_max=3)
        vals = [r.aupr for r in report.rows if r.valid]
        assert len(vals) >= 3
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestKaggleDirection:
    def test_balanced_sampling_inflates_distance_blind_scorer(self):
        # With g(d) the AUROC of all positives against the negatives of bucket
        # d, E[AUROC] is sum_d pi_neg(d) g(d) under fair sampling and, as long
        # as every bucket holds at least as many negatives as positives,
        # sum_d pi_pos(d) g(d) under balanced sampling (pi: the share of negatives
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
            fair = inst.take(fair_sample_indices(
                inst.label, 0.2, substream(s, rng_mod.STREAM_FAIR_SAMPLE), False))
            kag = inst.take(kaggle_sample_indices(
                inst.label, inst.distance, substream(s, rng_mod.STREAM_KAGGLE_SAMPLE)))
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
