"""Sampling-bias and stratified-evaluation experiments.

Implements the toolkit's methodological studies: fair vs. per-distance-bucket
balanced negative sampling, the analytic variance of performance measured on
a sampled negative class (with its Monte-Carlo validation hooks),
distance-filtered negative removal, per-distance evaluation, and temporal
slicing of the test-label window. The surrogate experiment, which needs no
arrays, lives in :mod:`lpeval.surrogate`; ``surrogate_simulation`` and the
sampling and slicing specs (from :mod:`lpeval.config`) are importable from
here too. The graph functions that ``temporal_eval`` calls and the
surrogate are bound with :func:`lpeval._lazy`: their modules load at the
first call, so a score-file process loads no graph module.

Every experiment is a pure function of (inputs, seed): repeats draw from
named substreams so results are reproducible in any execution order.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import _lazy, rng as rng_mod
from .cells import BEYOND, InstanceCounts
from .errors import ConfigError, UndefinedMetricError
from .metrics import Ranking, aupr, auroc, auroc_from_counts
from .rng import substream

# Defined in the numpy-free config module; importable here too.
from .config import (CONDMAT_STANDIN_COUNTS, SamplingSpec,  # noqa: F401
                     TemporalSliceSpec)

(build_snapshot,) = _lazy("graphstore", "build_snapshot")
(label_instances,) = _lazy("stratify", "label_instances")
(surrogate_simulation,) = _lazy("surrogate", "surrogate_simulation")

DEFAULT_RATES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _kept_counts(neg, rate, rng, exact_counts):
    """Negatives per tie group that a fair draw keeps from ``neg``.

    Keeping each negative row with probability ``rate`` keeps a binomial
    count of each group, independently; keeping exactly round(N * rate)
    rows without replacement keeps a multivariate hypergeometric count.
    Both have exactly the distribution of the row draw they stand for. The
    groups may be any cells, such as the (distance bucket, tie group) cells
    of a flattened table.
    """
    if rate == 1.0:
        return neg
    if exact_counts:
        return rng.multivariate_hypergeometric(neg, int(round(neg.sum() * rate)))
    return rng.binomial(neg, rate)


def _balanced_counts(pos, neg, rng):
    """Negatives per (distance bucket, tie group) that a per-distance-bucket
    balanced draw keeps: the bucket's positive count of them, drawn without
    replacement, or all of them if there are no more; none from a bucket
    without positives. Each bucket's draw has the distribution of keeping
    that many of its negative rows, chosen uniformly."""
    kept = np.zeros_like(neg)
    for d, n_pos in enumerate(pos.sum(axis=1)):
        if n_pos == 0:
            continue
        kept[d] = (neg[d] if neg[d].sum() <= n_pos
                   else rng.multivariate_hypergeometric(neg[d], n_pos))
    return kept


def _bucketed(rank):
    """The ranking's distance buckets, which it must have been built with."""
    if rank.distances is None:
        raise ConfigError("the experiment needs a ranking built with distance")
    return rank.distances


def _kept_cells(rank, kept):
    """The positives of ``rank`` and ``kept`` negatives of each of its
    (distance bucket, tie group) cells, as
    :class:`~lpeval.cells.InstanceCounts`: one entry per cell and class,
    with the group's score under the name ``score``."""
    buckets, groups = kept.shape
    distance = np.repeat(_bucketed(rank), groups)
    return InstanceCounts(np.tile(distance, 2), np.repeat([True, False], distance.size),
                          {"score": np.tile(rank.scores, 2 * buckets)},
                          np.concatenate([rank.pos.ravel(), kept.ravel()]))


def sample_fair(rank, spec):
    """Uniform random retention of negatives; the test distribution's shape
    (class-conditional score and distance mix) is preserved in expectation.

    ``rank`` is the :class:`~lpeval.metrics.Ranking` of the scored set with
    its distance buckets. One draw from the ``(spec.seed,
    STREAM_FAIR_SAMPLE)`` substream keeps a count of the negatives of each
    (bucket, tie group) cell (:func:`_kept_counts`), with the distribution
    of keeping each negative row with probability ``spec.rate``, or exactly
    round(N * rate) of them under ``spec.exact_counts``. Returns the kept
    cells, positives all kept (:func:`_kept_cells`).
    """
    if spec.mode != "fair-random":
        raise ConfigError("sample_fair needs mode 'fair-random'", field="sampling.mode")
    rng = substream(spec.seed, rng_mod.STREAM_FAIR_SAMPLE)
    kept = _kept_counts(rank.neg.ravel(), spec.rate, rng, spec.exact_counts)
    return _kept_cells(rank, kept.reshape(rank.neg.shape))


def sample_kaggle(rank, seed=0):
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

    ``rank`` is the :class:`~lpeval.metrics.Ranking` of the scored set with
    its distance buckets. One draw from the ``(seed, STREAM_KAGGLE_SAMPLE)``
    substream keeps a count of the negatives of each (bucket, tie group)
    cell (:func:`_balanced_counts`). Returns the kept cells
    (:func:`_kept_cells`).
    """
    rng = substream(seed, rng_mod.STREAM_KAGGLE_SAMPLE)
    return _kept_cells(rank, _balanced_counts(rank.pos, rank.neg, rng))


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


def estimate_classifiable(rank):
    """Empirical stand-in for C: negatives ranked below the median positive.

    The median is np.median's of the positives' scores, the mean of the
    middle one or two, found in the tie groups by the cumulative positive
    counts ``rank.tp``; C counts the negatives of the groups scored below it.
    """
    n_pos = rank.n_pos
    if n_pos == 0:
        raise UndefinedMetricError("no positives to anchor the C estimate")
    # The positives at 0-based places (n_pos - 1) // 2 and n_pos // 2 from
    # the top, one positive when n_pos is odd; rank.tp[g] positives rank
    # above group g.
    middle = np.searchsorted(rank.tp, [(n_pos - 1) // 2, n_pos // 2],
                             side="right") - 1
    high, low = rank.scores[middle]
    median = low if n_pos % 2 else (low + high) / 2
    return int(rank.neg[:, rank.scores < median].sum())


class VarianceRateRow(NamedTuple):
    rate: float
    mean: float | None
    minimum: float | None
    maximum: float | None
    variance: float | None
    n_valid: int
    n_invalid: int
    analytic: float


class VarianceReport(NamedTuple):
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
            "rows": [r._asdict() for r in self.rows],
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


def variance_experiment(rank, rates=DEFAULT_RATES, repeats=100, seed=0,
                        exact_counts=False):
    """AUROC spread over repeated fair negative sampling, per rate.

    For each rate, ``repeats`` independent samples are drawn from per-repeat
    substreams; a repeat that retains zero negatives is excluded and counted.
    The report carries mean/min/max/sample-variance per rate, the analytic
    variance at the estimated C, and the fitted slope of variance vs. 1/rate.

    ``rank`` is the :class:`~lpeval.metrics.Ranking` of the scored set;
    each repeat draws how many negatives it keeps of each tie group
    (:func:`_kept_counts`), which gives the AUROC of re-ranking a fair row
    sample exactly.
    """
    pos, neg = rank.pos.sum(axis=0), rank.neg.sum(axis=0)
    full = auroc_from_counts(pos, neg)
    c_est = estimate_classifiable(rank)

    rows = []
    for ri, p in enumerate(rates):
        if not 0 < p <= 1:
            raise ConfigError(f"rate {p} outside (0, 1]", field="sampling.rate")
        vals = []
        invalid = 0
        for rep in range(repeats):
            rng = substream(seed, rng_mod.STREAM_VARIANCE, ri, rep)
            kept = _kept_counts(neg, p, rng, exact_counts)
            if not kept.any():
                invalid += 1
                continue
            vals.append(auroc_from_counts(pos, kept))
        analytic = analytic_sampling_variance(rank.n_neg, c_est, p) if p < 1 else 0.0
        if not vals:
            rows.append(VarianceRateRow(p, None, None, None, None, 0, invalid,
                                        analytic))
            continue
        # Deviations from the first value: equal values give exactly that
        # value as the mean and exactly 0 as the variance.
        arr = np.asarray(vals)
        dev = arr - arr[0]
        var = float(dev.var(ddof=1)) if arr.size > 1 else 0.0
        rows.append(VarianceRateRow(p, float(arr[0] + dev.mean()), float(arr.min()),
                                    float(arr.max()), var, arr.size, invalid,
                                    analytic))

    fitted = [(r.rate, r.variance) for r in rows if r.variance is not None]
    slope, r2 = variance_slope([f[0] for f in fitted], [f[1] for f in fitted])
    return VarianceReport(tuple(rows), repeats, seed, full, c_est, slope, r2)


class KaggleCompareReport(NamedTuple):
    """AUROC of the full set and of each valid fair and balanced draw."""

    full_auroc: float | None
    fair_values: tuple
    kaggle_values: tuple

    @property
    def fair_mean(self):
        return float(np.mean(self.fair_values)) if self.fair_values else None

    @property
    def kaggle_mean(self):
        return float(np.mean(self.kaggle_values)) if self.kaggle_values else None

    def as_dict(self):
        return {"full_auroc": self.full_auroc, "fair_mean": self.fair_mean,
                "kaggle_mean": self.kaggle_mean,
                "fair_values": list(self.fair_values),
                "kaggle_values": list(self.kaggle_values)}


def kaggle_repeat_seeds(seed, repeats):
    """The ``repeats`` seeds of :func:`kaggle_compare`'s repeats under
    ``seed``: one draw from the ``(seed, STREAM_KAGGLE_SAMPLE, 999)``
    substream, which no repeat's own draws use."""
    master = substream(seed, rng_mod.STREAM_KAGGLE_SAMPLE, 999)
    return master.integers(0, 2 ** 62, size=repeats)


def kaggle_compare(rank, rate, repeat_seeds):
    """Fair sampling at ``rate`` vs. per-distance-bucket balanced sampling.

    Each repeat seed ``rs`` draws one fair sample from the
    ``(rs, STREAM_FAIR_SAMPLE)`` substream and one balanced sample from
    ``(rs, STREAM_KAGGLE_SAMPLE)``, both as kept negatives per tie group
    (:func:`_kept_counts`, :func:`_balanced_counts`) over ``rank``, the
    :class:`~lpeval.metrics.Ranking` of the scored set with its distance
    buckets; a draw without a positive or a negative gives no value. Each
    draw has the distribution of the row draw it stands for: every negative
    row kept with probability ``rate``, or as many of each bucket's negative
    rows as it has positives.
    """
    if not 0 < rate <= 1:
        raise ConfigError(f"rate {rate} outside (0, 1]", field="kaggle.rate")
    _bucketed(rank)
    pos, neg = rank.pos.sum(axis=0), rank.neg.sum(axis=0)
    if not pos.any() or not neg.any():
        return KaggleCompareReport(None, (), ())
    fair, kaggle = [], []
    for rs in repeat_seeds:
        kept = _kept_counts(neg, rate, substream(int(rs), rng_mod.STREAM_FAIR_SAMPLE),
                            False)
        if kept.any():
            fair.append(auroc_from_counts(pos, kept))
        kept = _balanced_counts(rank.pos, rank.neg,
                                substream(int(rs), rng_mod.STREAM_KAGGLE_SAMPLE))
        if kept.any():
            kaggle.append(auroc_from_counts(pos, kept.sum(axis=0)))
    return KaggleCompareReport(auroc_from_counts(pos, neg), tuple(fair),
                               tuple(kaggle))


class FilteredNegativeRow(NamedTuple):
    cut: int | None            # None = baseline (nothing removed)
    n_neg_removed: int
    n_neg_kept: int
    auroc: float | None        # None when undefined (no negatives kept)


def filtered_negative_eval(rank, cuts=None):
    """AUROC after removing every negative closer than each cut.

    Positives are always retained. The default cut list is the baseline plus
    each finite distance present; sentinel-bucket negatives are never closer
    than a finite cut, so they survive every filter. ``rank`` is the
    :class:`~lpeval.metrics.Ranking` of the scored set with its distance
    buckets; each cut sums the negatives of the buckets at or beyond it.
    """
    dist = _bucketed(rank)
    pos = rank.pos.sum(axis=0)
    n_neg = rank.n_neg

    def row(cut, kept):
        kept_neg = int(kept.sum())
        return FilteredNegativeRow(cut, n_neg - kept_neg, kept_neg,
                                   auroc_from_counts(pos, kept)
                                   if kept_neg and pos.any() else None)

    if cuts is None:
        finite = dist[dist < BEYOND]
        cuts = [int(d) for d in finite] + [int(finite.max()) + 1] if finite.size else []
    return [row(None, rank.neg.sum(axis=0))] + \
        [row(int(cut), rank.neg[dist >= cut].sum(axis=0)) for cut in cuts]


class DistanceRow(NamedTuple):
    distance: int | None       # None = the overall (all buckets) row
    n_pos: int
    n_neg: int
    auroc: float | None
    aupr: float | None
    sufficient: bool


def per_distance_eval(rank):
    """AUROC and AUPR per distance bucket plus the overall row.

    Buckets lacking a positive or a negative are flagged insufficient rather
    than reported with undefined areas. The overall row pools every
    instance, sentinel buckets included. ``rank`` is the
    :class:`~lpeval.metrics.Ranking` of the scored set with its distance
    buckets; each bucket's row reads :meth:`~lpeval.metrics.Ranking.bucket`.
    """
    return [_distance_row(int(d), rank.bucket(i))
            for i, d in enumerate(_bucketed(rank))] + [_distance_row(None, rank)]


def _distance_row(distance, rank):
    if rank.n_pos and rank.n_neg:
        return DistanceRow(distance, rank.n_pos, rank.n_neg, auroc(rank),
                           aupr(rank), True)
    return DistanceRow(distance, rank.n_pos, rank.n_neg, None, None, False)


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


class TemporalRow(NamedTuple):
    index: int
    begin: int
    end: int
    n_pos: int
    n_neg: int
    auroc: float | None
    aupr: float | None
    valid: bool


class TemporalReport(NamedTuple):
    mode: str
    remainder: int
    rows: tuple

    def as_dict(self):
        return {"mode": self.mode, "remainder_to_last_slice": self.remainder,
                "rows": [r._asdict() for r in self.rows]}


def temporal_eval(sets, log, interval, slice_spec, weight_rule="1/(k-1)"):
    """Per-slice AUROC/AUPR of scored instance sets over a label interval.

    ``sets`` maps each predictor name to its scored candidate set, as
    ``score`` and ``evaluate`` build it; the candidates stay fixed. Each
    slice of ``interval`` (disjoint mode) or the agglomerated prefix of
    slices (cumulative mode) becomes one label snapshot, which relabels
    every set. A slice without positives or negatives is flagged invalid
    and carries no areas. Returns ``{name: TemporalReport}``.
    """
    slices, remainder = slice_intervals(interval, slice_spec.slices)
    rows = {name: [] for name in sets}
    for i, (lo, hi) in enumerate(slices):
        label_interval = (slices[0][0], hi) if slice_spec.mode == "cumulative" \
            else (lo, hi)
        label_snap = build_snapshot(log, label_interval, weight_rule=weight_rule)
        for name, inst in sets.items():
            labeled = label_instances(inst, label_snap)
            n_pos, n_neg = labeled.n_pos, labeled.n_neg
            areas = (None, None, False)
            if n_pos and n_neg:
                rank = Ranking(inst.scores[name], labeled.label)
                areas = (auroc(rank), aupr(rank), True)
            rows[name].append(TemporalRow(i, lo, hi, n_pos, n_neg, *areas))
    return {name: TemporalReport(slice_spec.mode, remainder, tuple(r))
            for name, r in rows.items()}
