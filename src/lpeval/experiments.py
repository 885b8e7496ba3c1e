"""Sampling-bias and stratified-evaluation experiments.

Implements the toolkit's methodological studies: fair vs. per-distance-bucket
balanced negative sampling, the analytic variance of performance measured on
a sampled negative class (with its Monte-Carlo validation hooks), surrogate
ranking simulations comparing a geodesic sub-problem against the full
problem, distance-filtered negative removal, per-distance evaluation, and
temporal slicing of the test-label window.

Every experiment is a pure function of (inputs, seed): repeats and trials
draw from named substreams so results are reproducible in any execution
order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .errors import ConfigError, UndefinedMetricError
from .graphstore import build_snapshot
from .metrics import Ranking, aupr, auroc
from .predictors import score_instances
from .rng import substream
from .stratify import BEYOND, geodesic_bucket_enumerate, label_instances

DEFAULT_RATES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

SIGMA_FORMULA = "(mean_full - mean_sub) / sqrt(var_full/trials + var_sub/trials)"


@dataclass(frozen=True)
class SamplingSpec:
    """How to thin the negative class of a test set.

    ``fair-random`` keeps every negative independently with probability
    ``rate`` (or exactly round(N * rate) of them under ``exact_counts``);
    positives are always kept. ``kaggle-balanced`` ignores ``rate`` and
    undersamples negatives per distance bucket to that bucket's positive
    count. ``none`` is the identity.
    """

    mode: str = "fair-random"
    rate: float | None = None
    seed: int = 0
    exact_counts: bool = False

    def __post_init__(self):
        if self.mode not in ("none", "fair-random", "kaggle-balanced"):
            raise ConfigError(f"unknown sampling mode {self.mode!r}",
                              field="sampling.mode")
        if self.mode == "fair-random":
            if self.rate is None or not 0 < self.rate <= 1:
                raise ConfigError("fair-random needs a rate in (0, 1]",
                                  field="sampling.rate")
        elif self.rate is not None:
            raise ConfigError(f"{self.mode} takes no rate", field="sampling.rate")


def _fair_keep_indices(labels, rate, rng, exact_counts):
    neg_idx = np.flatnonzero(~labels)
    if rate == 1.0:
        kept = neg_idx
    elif exact_counts:
        size = int(round(neg_idx.size * rate))
        kept = rng.choice(neg_idx, size=size, replace=False) if size else neg_idx[:0]
    else:
        kept = neg_idx[rng.random(neg_idx.size) < rate]
    keep = np.flatnonzero(labels)
    return np.sort(np.concatenate([keep, kept]))


def sample_fair(instances, spec):
    """Uniform random retention of negatives; the test distribution's shape
    (class-conditional score and distance mix) is preserved in expectation."""
    if spec.mode != "fair-random":
        raise ConfigError("sample_fair needs mode 'fair-random'", field="sampling.mode")
    if instances.label is None:
        raise ConfigError("sampling needs labeled instances")
    rng = substream(spec.seed, rng_mod.STREAM_FAIR_SAMPLE)
    return instances.take(_fair_keep_indices(instances.label, spec.rate, rng,
                                             spec.exact_counts))


def sample_kaggle(instances, seed=0):
    """Per-distance-bucket balancing of negatives to positives.

    Within each bucket negatives are uniformly downsampled to the bucket's
    positive count; buckets without positives are dropped entirely.
    Positives are never dropped, so the output distance distribution tracks
    the positive distribution.

    With g(d) the AUROC of all positives against the negatives of bucket d,
    the expected AUROC of the output is sum_d pi_pos(d) g(d), the positive
    share pi_pos weighting each bucket, whenever every bucket holds at least
    as many negatives as positives; fair sampling keeps the negative shares,
    sum_d pi_neg(d) g(d). Balancing therefore strips a distance-aware scorer
    of most of its lead. A distance-blind scorer moves only as far as its
    negatives' scores vary with distance: not at all in expectation if they
    do not, and downwards if, as for preferential attachment on local
    networks, close negatives score higher than far ones.
    """
    if instances.label is None:
        raise ConfigError("sampling needs labeled instances")
    rng = substream(seed, rng_mod.STREAM_KAGGLE_SAMPLE)
    keep = []
    for d in np.unique(instances.distance):
        in_bucket = instances.distance == d
        pos = np.flatnonzero(in_bucket & instances.label)
        if pos.size == 0:
            continue
        neg = np.flatnonzero(in_bucket & ~instances.label)
        if neg.size > pos.size:
            neg = rng.choice(neg, size=pos.size, replace=False)
        keep.append(pos)
        keep.append(neg)
    if not keep:
        return instances.take(np.empty(0, dtype=np.int64))
    return instances.take(np.sort(np.concatenate(keep)))


def analytic_sampling_variance(n_negatives, n_classifiable, rate):
    """Variance of measured performance X/(N*p) when N*p negatives are drawn
    without replacement and X of the C recognizable ones land in the sample:
    C(N-C)(1-p) / (N^2 (N-1) p)."""
    N, C, p = int(n_negatives), int(n_classifiable), float(rate)
    if N <= 1:
        raise UndefinedMetricError("analytic variance undefined for N <= 1")
    if not 0 <= C <= N:
        raise ConfigError(f"C {C} outside [0, {N}]")
    if not 0 < p <= 1:
        raise ConfigError(f"rate {p} outside (0, 1]")
    if (N * p) % 1 != 0:
        warnings.warn(f"N*p = {N * p} is not integral; Monte-Carlo draws round it",
                      stacklevel=2)
    return C * (N - C) * (1.0 - p) / (N * N * (N - 1.0) * p)


def estimate_classifiable(scores, labels):
    """Empirical stand-in for C: negatives ranked below the median positive."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    if pos.size == 0:
        raise UndefinedMetricError("no positives to anchor the C estimate")
    return int((scores[~labels] < np.median(pos)).sum())


@dataclass(frozen=True)
class VarianceRateRow:
    rate: float
    mean: float | None
    minimum: float | None
    maximum: float | None
    variance: float | None
    n_valid: int
    n_invalid: int
    analytic: float


@dataclass(frozen=True)
class VarianceReport:
    rows: tuple
    repeats: int
    seed: int
    full_auroc: float
    classifiable_estimate: int
    slope: float | None
    r_squared: float | None

    def as_dict(self):
        return {
            "repeats": self.repeats, "seed": self.seed,
            "full_auroc": self.full_auroc,
            "classifiable_estimate": self.classifiable_estimate,
            "variance_vs_inverse_rate": {"slope": self.slope,
                                         "r_squared": self.r_squared},
            "rows": [vars(r) for r in self.rows],
        }


def variance_slope(rates, variances):
    """Least-squares fit of sample variance against 1/rate; returns
    (slope, r_squared), or (None, None) with fewer than two points."""
    x = 1.0 / np.asarray(rates, dtype=np.float64)
    y = np.asarray(variances, dtype=np.float64)
    if x.size < 2:
        return None, None
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def variance_experiment(instances, scores, rates=DEFAULT_RATES, repeats=100,
                        seed=0, exact_counts=False):
    """AUROC spread over repeated fair negative sampling, per rate.

    For each rate, ``repeats`` independent samples are drawn from per-repeat
    substreams; a repeat that retains zero negatives is excluded and counted.
    The report carries mean/min/max/sample-variance per rate, the analytic
    variance at the estimated C, and the fitted slope of variance vs. 1/rate.
    """
    if isinstance(scores, str):
        scores = instances.scores[scores]
    scores = np.asarray(scores, dtype=np.float64)
    labels = instances.label
    if labels is None:
        raise ConfigError("variance experiment needs labeled instances")
    full = auroc(scores, labels)
    c_est = estimate_classifiable(scores, labels)
    n_neg = int((~labels).sum())

    rows = []
    for ri, p in enumerate(rates):
        if not 0 < p <= 1:
            raise ConfigError(f"rate {p} outside (0, 1]", field="sampling.rate")
        vals = []
        invalid = 0
        for rep in range(repeats):
            rng = substream(seed, rng_mod.STREAM_VARIANCE, ri, rep)
            idx = _fair_keep_indices(labels, p, rng, exact_counts)
            sub_labels = labels[idx]
            if not np.any(~sub_labels):
                invalid += 1
                continue
            vals.append(auroc(scores[idx], sub_labels))
        if vals:
            # Deviations from the first value: equal values give exactly
            # that value as the mean and exactly 0 as the variance.
            arr = np.asarray(vals)
            dev = arr - arr[0]
            var = float(dev.var(ddof=1)) if arr.size > 1 else 0.0
            row = VarianceRateRow(p, float(arr[0] + dev.mean()), float(arr.min()),
                                  float(arr.max()), var, arr.size, invalid,
                                  analytic_sampling_variance(n_neg, c_est, p)
                                  if p < 1 else 0.0)
        else:
            row = VarianceRateRow(p, None, None, None, None, 0, invalid,
                                  analytic_sampling_variance(n_neg, c_est, p)
                                  if p < 1 else 0.0)
        rows.append(row)

    fitted = [(r.rate, r.variance) for r in rows if r.variance is not None]
    slope, r2 = variance_slope([f[0] for f in fitted], [f[1] for f in fitted])
    return VarianceReport(tuple(rows), repeats, seed, full, c_est, slope, r2)


@dataclass(frozen=True)
class SurrogateParams:
    """Counts and knobs of the sub-problem vs. full-problem simulation.

    ``alpha`` spreads positives over the top fraction of the ranking (lower
    alpha = stronger predictor); ``beta`` widens the band holding the
    sub-problem's positives inside the full ranking, modeling negatives that
    are not trivially recognizable.
    """

    p_sub: int
    n_sub: int
    p_full: int
    n_full: int
    alpha: float
    beta: float
    trials: int = 100_000

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ConfigError("alpha must be in (0, 1]", field="surrogate.alpha")
        if self.beta < 1:
            raise ConfigError("beta must be >= 1", field="surrogate.beta")
        if self.p_sub > self.p_full or self.n_sub > self.n_full:
            raise ConfigError("sub-problem counts must not exceed full counts",
                              field="surrogate")
        if min(self.p_sub, self.n_sub, self.trials) < 1:
            raise ConfigError("counts and trials must be positive", field="surrogate")
        if self.slots_sub < self.p_sub:
            raise ConfigError("alpha band smaller than the positive count",
                              field="surrogate.alpha")
        if self.slots_full_band > self.p_full + self.n_full:
            raise ConfigError(
                "alpha*(p_sub+n_sub)*beta exceeds the full ranking size",
                field="surrogate.beta")
        free = self.slots_full_tail - min(self.p_sub, self.slots_full_tail)
        if self.p_full - self.p_sub > free:
            raise ConfigError("not enough free slots for the remaining positives",
                              field="surrogate")

    @property
    def slots_sub(self):
        return int(np.ceil(self.alpha * (self.p_sub + self.n_sub)))

    @property
    def slots_full_band(self):
        return int(np.ceil(self.alpha * (self.p_sub + self.n_sub) * self.beta))

    @property
    def slots_full_tail(self):
        return int(np.ceil(self.alpha * (self.p_full + self.n_full)))


def _distinct_rows(rng, trials, k, m):
    """(trials, k) matrix of distinct integers drawn uniformly from [0, m)."""
    if k > m:
        raise ConfigError(f"cannot place {k} items in {m} slots")
    if k == 0:
        return np.empty((trials, 0), dtype=np.int64)
    if 3 * k >= m:
        # Dense case: rank random keys; chunked to bound memory.
        out = np.empty((trials, k), dtype=np.int64)
        chunk = max(1, 10_000_000 // max(m, 1))
        for lo in range(0, trials, chunk):
            hi = min(trials, lo + chunk)
            keys = rng.random((hi - lo, m))
            out[lo:hi] = np.argsort(keys, axis=1)[:, :k]
        return out
    out = rng.integers(0, m, size=(trials, k), dtype=np.int64)
    while k > 1:
        srt = np.sort(out, axis=1)
        bad = np.flatnonzero(np.any(srt[:, 1:] == srt[:, :-1], axis=1))
        if bad.size == 0:
            break
        out[bad] = rng.integers(0, m, size=(bad.size, k), dtype=np.int64)
    return out


def _auroc_from_positions(positions, total_slots):
    """AUROC of rankings where ``positions`` (rows) hold the positive slots."""
    p = positions.shape[1]
    n = total_slots - p
    srt = np.sort(positions, axis=1)
    neg_above = srt - np.arange(p, dtype=np.int64)
    return 1.0 - neg_above.sum(axis=1) / (p * n)


@dataclass(frozen=True)
class SurrogateResult:
    params: SurrogateParams
    seed: int
    mean_sub: float
    var_sub: float
    mean_full: float
    var_full: float
    sigma: float
    sigma_formula: str = SIGMA_FORMULA
    auroc_sub: np.ndarray = field(repr=False, default=None)
    auroc_full: np.ndarray = field(repr=False, default=None)

    def as_dict(self):
        return {"alpha": self.params.alpha, "beta": self.params.beta,
                "p_sub": self.params.p_sub, "n_sub": self.params.n_sub,
                "p_full": self.params.p_full, "n_full": self.params.n_full,
                "trials": self.params.trials, "seed": self.seed,
                "mean_sub": self.mean_sub, "var_sub": self.var_sub,
                "mean_full": self.mean_full, "var_full": self.var_full,
                "sigma": self.sigma, "sigma_formula": self.sigma_formula}


def surrogate_simulation(params, seed=0, keep_samples=False):
    """Simulate AUROC distributions of a sub-problem and the full problem.

    Per trial the sub-problem places its positives uniformly among the top
    alpha fraction of its ranking. The full problem places the sub-problem's
    positives inside a band beta times wider, then the remaining positives
    within the top alpha fraction of the full ranking (slots never collide).
    sigma is the two-sample z statistic comparing the AUROC means over
    ``trials`` simulations; the sub-problem's random stream does not depend
    on beta, so grid sweeps over beta share identical sub-problem samples.
    """
    T = params.trials
    m_sub = params.p_sub + params.n_sub
    m_full = params.p_full + params.n_full

    rng_sub = substream(seed, rng_mod.STREAM_SURROGATE_SUB)
    pos_sub = _distinct_rows(rng_sub, T, params.p_sub, params.slots_sub)
    auroc_sub = _auroc_from_positions(pos_sub, m_sub)

    rng_full = substream(seed, rng_mod.STREAM_SURROGATE_FULL)
    band = _distinct_rows(rng_full, T, params.p_sub, params.slots_full_band)
    k2 = params.p_full - params.p_sub
    if k2 > 0:
        tail = rng_full.integers(0, params.slots_full_tail, size=(T, k2),
                                 dtype=np.int64)
        while True:
            comb = np.sort(np.concatenate([band, tail], axis=1), axis=1)
            bad = np.flatnonzero(np.any(comb[:, 1:] == comb[:, :-1], axis=1))
            if bad.size == 0:
                break
            tail[bad] = rng_full.integers(0, params.slots_full_tail,
                                          size=(bad.size, k2), dtype=np.int64)
        pos_full = np.concatenate([band, tail], axis=1)
    else:
        pos_full = band
    auroc_full = _auroc_from_positions(pos_full, m_full)

    mean_s, mean_f = float(auroc_sub.mean()), float(auroc_full.mean())
    var_s = float(auroc_sub.var(ddof=1))
    var_f = float(auroc_full.var(ddof=1))
    se = np.sqrt(var_f / T + var_s / T)
    sigma = float((mean_f - mean_s) / se) if se > 0 else 0.0
    return SurrogateResult(params, seed, mean_s, var_s, mean_f, var_f, sigma,
                           auroc_sub=auroc_sub if keep_samples else None,
                           auroc_full=auroc_full if keep_samples else None)


def surrogate_grid(alphas, betas, p_sub, n_sub, p_full, n_full,
                   trials=100_000, seed=0):
    """Sigma separations over an (alpha, beta) grid, one shared seed so the
    sub-problem samples coincide across beta at fixed alpha."""
    results = []
    for alpha in alphas:
        for beta in betas:
            params = SurrogateParams(p_sub, n_sub, p_full, n_full, alpha, beta,
                                     trials)
            results.append(surrogate_simulation(params, seed=seed))
    return results


# Full-problem / 2-hop sub-problem instance counts of the Condmat corpus,
# used as the documented stand-in when no corpus is available.
CONDMAT_STANDIN_COUNTS = {"p_sub": 1196, "n_sub": 214_616,
                          "p_full": 29_898, "n_full": 148_200_000}


@dataclass(frozen=True)
class FilteredNegativeRow:
    cut: int | None            # None = baseline (nothing removed)
    n_neg_removed: int
    n_neg_kept: int
    auroc: float | None        # None when undefined (no negatives kept)


def filtered_negative_eval(instances, scores, cuts=None):
    """AUROC after removing every negative closer than each cut.

    Positives are always retained. The default cut list is the baseline plus
    each finite distance present; sentinel-bucket negatives are never closer
    than a finite cut, so they survive every filter.
    """
    if isinstance(scores, str):
        scores = instances.scores[scores]
    scores = np.asarray(scores, dtype=np.float64)
    labels = instances.label
    dist = instances.distance
    n_neg = int((~labels).sum())
    if cuts is None:
        finite = np.unique(dist[dist < BEYOND])
        cuts = [int(d) for d in finite] + [int(finite.max()) + 1] if finite.size else []
    rows = [FilteredNegativeRow(None, 0, n_neg,
                                auroc(scores, labels) if n_neg and labels.any()
                                else None)]
    for cut in cuts:
        keep = labels | (dist >= cut)
        kept_neg = int((keep & ~labels).sum())
        rows.append(FilteredNegativeRow(
            int(cut), n_neg - kept_neg, kept_neg,
            auroc(scores[keep], labels[keep]) if kept_neg else None))
    return rows


@dataclass(frozen=True)
class DistanceRow:
    distance: int | None       # None = the overall (all buckets) row
    n_pos: int
    n_neg: int
    auroc: float | None
    aupr: float | None
    sufficient: bool


def per_distance_eval(instances, scores):
    """AUROC and AUPR per distance bucket plus the overall row.

    Buckets lacking a positive or a negative are flagged insufficient rather
    than reported with undefined areas. The overall row pools every
    instance, sentinel buckets included.
    """
    if isinstance(scores, str):
        scores = instances.scores[scores]
    scores = np.asarray(scores, dtype=np.float64)
    labels = instances.label
    rows = []
    for d in np.unique(instances.distance):
        mask = instances.distance == d
        n_pos = int(labels[mask].sum())
        n_neg = int(mask.sum()) - n_pos
        if n_pos and n_neg:
            rank = Ranking(scores[mask], labels[mask])
            rows.append(DistanceRow(int(d), n_pos, n_neg, auroc(rank),
                                    aupr(rank), True))
        else:
            rows.append(DistanceRow(int(d), n_pos, n_neg, None, None, False))
    n_pos = int(labels.sum())
    n_neg = int(labels.size) - n_pos
    if n_pos and n_neg:
        rank = Ranking(scores, labels)
        rows.append(DistanceRow(None, n_pos, n_neg, auroc(rank), aupr(rank), True))
    else:
        rows.append(DistanceRow(None, n_pos, n_neg, None, None, False))
    return rows


@dataclass(frozen=True)
class TemporalSliceSpec:
    """Equal-duration slicing of the test-label interval."""

    slices: int
    mode: str = "disjoint"

    def __post_init__(self):
        if self.slices < 1:
            raise ConfigError("slices must be >= 1", field="temporal.slices")
        if self.mode not in ("disjoint", "cumulative"):
            raise ConfigError(f"unknown slice mode {self.mode!r}",
                              field="temporal.slice_mode")


def slice_intervals(interval, k):
    """Split a closed interval into k equal-duration slices; the remainder
    goes to the last slice. Returns (slices, remainder)."""
    begin, end = interval
    duration = end - begin + 1
    width = duration // k
    if width < 1:
        raise ConfigError(f"interval of {duration} units cannot make {k} slices",
                          field="temporal.slices")
    out = []
    for i in range(k):
        lo = begin + i * width
        hi = end if i == k - 1 else begin + (i + 1) * width - 1
        out.append((lo, hi))
    return out, duration - k * width


@dataclass(frozen=True)
class TemporalRow:
    index: int
    begin: int
    end: int
    n_pos: int
    n_neg: int
    auroc: float | None
    aupr: float | None
    valid: bool


@dataclass(frozen=True)
class TemporalReport:
    mode: str
    remainder: int
    rows: tuple

    def as_dict(self):
        return {"mode": self.mode, "remainder_to_last_slice": self.remainder,
                "rows": [vars(r) for r in self.rows]}


def temporal_eval(log, window, slice_spec, predictor, policy="mean", l_max=4,
                  include_beyond=True, include_disconnected=True,
                  weight_rule="1/(k-1)"):
    """Per-slice AUROC/AUPR with a fixed candidate set.

    Candidates and scores come once from the test-feature snapshot; each
    slice of the test-label interval relabels the same candidates (disjoint
    mode) or the agglomerated prefix of slices (cumulative mode). A slice
    without positives is flagged invalid and carries no areas.
    """
    feature = build_snapshot(log, window.test_feature, weight_rule=weight_rule)
    candidates = geodesic_bucket_enumerate(
        feature, l_max, include_beyond=include_beyond,
        include_disconnected=include_disconnected)
    scored = score_instances(feature, candidates, predictor, policy=policy)
    score_col = scored.scores[predictor.name]
    slices, remainder = slice_intervals(window.test_label, slice_spec.slices)
    rows = []
    for i, (lo, hi) in enumerate(slices):
        label_interval = (slices[0][0], hi) if slice_spec.mode == "cumulative" \
            else (lo, hi)
        label_snap = build_snapshot(log, label_interval, weight_rule=weight_rule)
        labeled = label_instances(scored, label_snap)
        n_pos = labeled.n_pos
        n_neg = labeled.n_neg
        if n_pos and n_neg:
            rank = Ranking(score_col, labeled.label)
            rows.append(TemporalRow(i, lo, hi, n_pos, n_neg, auroc(rank),
                                    aupr(rank), True))
        else:
            rows.append(TemporalRow(i, lo, hi, n_pos, n_neg, None, None, False))
    return TemporalReport(slice_spec.mode, remainder, tuple(rows))
