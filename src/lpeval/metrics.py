"""Ranking metrics: confusion rates, TPR_K, ROC and PR threshold curves.

Tie handling is uniform across every function here: a run of equal scores is
atomic. Rank cuts never split a run (integer cuts move to the run boundary;
interpolated cuts give the run fractional credit), the ROC curve crosses a
run as a single diagonal segment, and the PR curve follows the
achievable-point interpolation where false positives grow linearly in true
positives between achievable cuts. Under that interpolation the area has a
closed form, which is what :func:`pr_curve` integrates.

AUROC equals the rank statistic -- the probability that a random positive
outranks a random negative, ties half credit -- exactly: areas are
accumulated in integer arithmetic before the final division.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, UndefinedMetricError
from .graphstore import csv_cells

TIE_POLICY = "group-atomic"

RATE_NAMES = ("sensitivity", "specificity", "precision", "recall", "fallout",
              "accuracy")


def _rank_rows(scores, labels):
    """Validated labels, each row's tie group and each group's score.

    One ``np.unique`` numbers the groups from the highest score down;
    ``-0.0`` and ``0.0`` share a group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels must have equal length")
    if np.any(np.isnan(scores)):
        raise ConfigError("NaN scores are forbidden")
    negated, groups = np.unique(-scores, return_inverse=True)
    return labels, groups, -negated


class Ranking:
    """Scored labeled instances ranked once into tie-group counts.

    ``scores`` holds one score per tie group, highest first. ``pos`` and
    ``neg`` are int64 arrays of shape (buckets, groups): the positives and
    negatives of each (distance bucket, tie group), buckets the sorted
    distinct ``distances``, or one bucket and ``distances`` None without
    ``distance``. Any draw that keeps whole rows is a count table of the
    same shape. ``bounds`` holds the rank cuts at tie-group boundaries
    (0, ..., n); ``tp``/``fp`` the cumulative positive/negative counts at
    those cuts.
    """

    def __init__(self, scores, labels, distance=None):
        if np.size(scores) == 0:
            raise UndefinedMetricError("empty ranking")
        labels, groups, group_scores = _rank_rows(scores, labels)
        if distance is None:
            distances, cells, buckets = None, groups, 1
        else:
            distances, bucket = np.unique(np.asarray(distance, dtype=np.int64),
                                          return_inverse=True)
            cells, buckets = bucket * group_scores.size + groups, distances.size
        shape = (buckets, group_scores.size)

        def count(rows):
            return np.bincount(cells[rows], minlength=shape[0] * shape[1]) \
                .astype(np.int64, copy=False).reshape(shape)

        self._set(group_scores, distances, count(labels), count(~labels))

    def _set(self, scores, distances, pos, neg):
        self.scores, self.distances, self.pos, self.neg = scores, distances, pos, neg
        zero = np.zeros(1, dtype=np.int64)
        self.tp = np.concatenate([zero, np.cumsum(pos.sum(axis=0))])
        self.fp = np.concatenate([zero, np.cumsum(neg.sum(axis=0))])
        self.bounds = self.tp + self.fp

    def bucket(self, i):
        """The ranking of bucket ``i`` alone, its empty tie groups dropped."""
        pos, neg = self.pos[i:i + 1], self.neg[i:i + 1]
        keep = pos[0] + neg[0] > 0
        rank = object.__new__(Ranking)
        rank._set(self.scores[keep],
                  None if self.distances is None else self.distances[i:i + 1],
                  pos[:, keep], neg[:, keep])
        return rank

    def __len__(self):
        return int(self.bounds[-1])

    @property
    def n_pos(self):
        return int(self.tp[-1])

    @property
    def n_neg(self):
        return int(self.fp[-1])


class ConfusionCounts(NamedTuple):
    """Counts at a rank cut: everything above predicted positive.

    Fields are floats so interpolated (fractional tie credit) cuts are
    representable; integer cuts carry whole numbers. tp + fn equals the
    positive count and fp + tn the negative count by construction.
    """

    tp: float
    fp: float
    tn: float
    fn: float

    @property
    def cut(self):
        return self.tp + self.fp


def confusion_at(rank, cut, ties="ceil"):
    """Confusion counts with the top ``cut`` entries predicted positive.

    A cut inside a tie group cannot be realized by a score threshold:
    ``ceil`` (default) and ``floor`` move it to the nearest group boundary
    above/below (the effective cut is readable as ``result.cut``), while
    ``interpolate`` keeps the requested cut and assigns the straddled group
    expected-value fractional credit.
    """
    if not 0 <= cut <= len(rank):
        raise ConfigError(f"cut {cut} outside [0, {len(rank)}]")
    bounds, tp, fp = rank.bounds, rank.tp, rank.fp
    j = int(np.searchsorted(bounds, cut, side="left"))
    if bounds[j] == cut:
        ctp, cfp = float(tp[j]), float(fp[j])
    elif ties == "ceil":
        ctp, cfp = float(tp[j]), float(fp[j])
    elif ties == "floor":
        ctp, cfp = float(tp[j - 1]), float(fp[j - 1])
    elif ties == "interpolate":
        frac = (cut - bounds[j - 1]) / (bounds[j] - bounds[j - 1])
        ctp = float(tp[j - 1]) + frac * float(tp[j] - tp[j - 1])
        cfp = float(fp[j - 1]) + frac * float(fp[j] - fp[j - 1])
    else:
        raise ConfigError(f"unknown tie mode {ties!r}")
    return ConfusionCounts(ctp, cfp, rank.n_neg - cfp, rank.n_pos - ctp)


def rates(c):
    """The six fixed-threshold rates; None marks an undefined (0/0) rate."""
    def ratio(num, den):
        return None if den == 0 else num / den

    return {
        "sensitivity": ratio(c.tp, c.tp + c.fn),
        "specificity": ratio(c.tn, c.fp + c.tn),
        "precision": ratio(c.tp, c.tp + c.fp),
        "recall": ratio(c.tp, c.tp + c.fn),
        "fallout": ratio(c.fp, c.fp + c.tn),
        "accuracy": ratio(c.tp + c.tn, c.tp + c.fp + c.tn + c.fn),
    }


def tpr_k(rank, k=None, percent=None):
    """Fraction of positives among the top K entries (R-precision).

    Exactly one of ``k`` (absolute count) or ``percent`` (of the ranking
    size, in (0, 100]) must be given. A K boundary inside a tie group earns
    the group expected-value fractional credit.
    """
    if (k is None) == (percent is None):
        raise ConfigError("give exactly one of k or percent")
    if percent is not None:
        if not 0 < percent <= 100:
            raise ConfigError(f"percent {percent} outside (0, 100]")
        k = min(len(rank), max(1, round(percent / 100 * len(rank))))
    if not 1 <= k <= len(rank):
        raise ConfigError(f"k {k} outside [1, {len(rank)}]")
    c = confusion_at(rank, k, ties="interpolate")
    return c.tp / k


class ThresholdCurve(NamedTuple):
    """An ROC or PR curve: ordered points, area, and class counts."""

    space: str
    points: np.ndarray  # (m, 2) of (x, y)
    area: float
    n_pos: int
    n_neg: int
    tie_policy: str = TIE_POLICY

    def summary(self):
        return {"space": self.space, "area": self.area, "n_pos": self.n_pos,
                "n_neg": self.n_neg, "tie_policy": self.tie_policy}


def tie_groups(scores, labels):
    """Rank labeled scores once: each row's tie group and the positives per group.

    Groups are numbered from the highest score down, so for any subset of
    the rows, its positive and negative counts per group (``np.bincount``
    of its rows' groups) are the ranking :func:`auroc_from_counts` reads,
    without sorting the subset again. ``-0.0`` and ``0.0`` share a group.
    Returns ``(group of each row, positive count of each group)``.
    """
    labels, groups, group_scores = _rank_rows(scores, labels)
    return groups, np.bincount(groups[labels], minlength=group_scores.size)


def auroc_from_counts(pos, neg):
    """AUROC from positive and negative counts per tie group, groups in
    descending score order. Empty groups add nothing."""
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs at least one positive and one negative")
    # Trapezoid over tie groups, exact in int64: group g adds
    # neg_g * (TP before g + TP after g) = neg_g * (2 * TP before g + pos_g),
    # and the groups sum to 2 * P * N * area.
    tp_before = np.cumsum(pos) - pos
    return float(np.sum(neg * (2 * tp_before + pos))) / (2.0 * n_pos * n_neg)


def auroc(scores, labels=None):
    """Area under the ROC curve (accepts a Ranking or score/label arrays)."""
    rank = scores if isinstance(scores, Ranking) else Ranking(scores, labels)
    return auroc_from_counts(np.diff(rank.tp), np.diff(rank.fp))


def roc_curve(rank):
    """ROC threshold curve with one point per distinct-score cut.

    Tie groups appear as single diagonal segments, so the curve (and its
    trapezoid area) is independent of within-tie input order and invariant
    to changes in class prior.
    """
    if not isinstance(rank, Ranking):
        raise ConfigError("roc_curve expects a Ranking")
    if rank.n_pos == 0 or rank.n_neg == 0:
        raise UndefinedMetricError("ROC needs at least one positive and one negative")
    x = rank.fp / rank.n_neg
    y = rank.tp / rank.n_pos
    points = np.column_stack([x, y])
    return ThresholdCurve("ROC", points, auroc(rank), rank.n_pos, rank.n_neg)


def _pr_segment_areas(tp, fp):
    """Exact integral of precision d(tp) for each achievable-point segment.

    Between achievable cuts (tp_a, fp_a) -> (tp_b, fp_b) the interpolation
    adds fp linearly in tp, so precision along the segment is
    t / (a*t + c) with a = 1 + dfp/dtp and c = fp_a - (dfp/dtp) * tp_a, whose
    antiderivative is t/a - (c/a^2) * ln(a*t + c). The origin segment has
    a*t + c = 0 at t = 0 and constant precision, handled separately.
    """
    tp_a, tp_b = tp[:-1].astype(float), tp[1:].astype(float)
    fp_a, fp_b = fp[:-1].astype(float), fp[1:].astype(float)
    dtp = tp_b - tp_a
    rising = dtp > 0
    areas = np.zeros(dtp.size, dtype=np.float64)
    if not np.any(rising):
        return areas
    s = np.zeros_like(dtp)
    s[rising] = (fp_b[rising] - fp_a[rising]) / dtp[rising]
    a = 1.0 + s
    c = fp_a - s * tp_a
    start = tp_a + fp_a  # a * tp_a + c
    end = tp_b + fp_b    # a * tp_b + c
    flat = rising & ((c == 0.0) | (start == 0.0))
    areas[flat] = dtp[flat] / a[flat]
    curved = rising & ~flat
    areas[curved] = (dtp[curved] / a[curved]
                     - (c[curved] / a[curved] ** 2)
                     * np.log(end[curved] / start[curved]))
    return areas


def _pr_steps(tp):
    """The steps of the interpolated PR path, in path order.

    Segment j runs from achievable cut j to cut j + 1. A segment that adds
    true positives takes one step per TP increment, t = tp[j] + 1, ...,
    tp[j + 1]; one that adds none takes one step, to its end t = tp[j + 1].
    Returns each step's segment ``seg`` and its ``t``; ``t > tp[seg]`` marks
    the steps of segments that add true positives.
    """
    dtp = np.diff(tp)
    steps = np.maximum(dtp, 1)
    seg = np.repeat(np.arange(dtp.size), steps)
    offset = np.arange(seg.size) - np.repeat(np.cumsum(steps) - steps, steps)
    return seg, np.minimum(tp[seg] + 1 + offset, tp[seg + 1])


def pr_curve(rank):
    """Precision-recall curve under achievable-point interpolation.

    Points are emitted at every achievable cut and at every interpolated
    integer TP increment in between; the area integrates the interpolated
    curve exactly. The curve is anchored at recall 0 with the precision of
    the first achievable point (never a fabricated precision of 1). A point
    equal to the one before it is dropped.
    """
    if not isinstance(rank, Ranking):
        raise ConfigError("pr_curve expects a Ranking")
    if rank.n_pos == 0:
        raise UndefinedMetricError("PR needs at least one positive")
    P = rank.n_pos
    tp, fp = rank.tp, rank.fp
    area = float(np.sum(_pr_segment_areas(tp, fp))) / P

    seg, t = _pr_steps(tp)
    points = np.empty((t.size + 1, 2))
    points[0] = 0.0, tp[1] / (tp[1] + fp[1])
    x, y = points[1:, 0], points[1:, 1]
    # Each coordinate takes the operations of the per-step loop in the same
    # order (tests/oracles.py::pr_points_loop), so every bit agrees with it.
    x[:] = t / P
    rise = t > tp[seg]
    a, tr = seg[rise], t[rise]
    slope = (fp[a + 1] - fp[a]) / (tp[a + 1] - tp[a])
    y[rise] = tr / (tr + (fp[a] + slope * (tr - tp[a])))
    end, tf = seg[~rise] + 1, t[~rise]
    y[~rise] = tf / (tf + fp[end])
    keep = np.ones(points.shape[0], dtype=bool)
    keep[1:] = np.any(points[1:] != points[:-1], axis=1)
    return ThresholdCurve("PR", points[keep], area, P, rank.n_neg)


def aupr(scores, labels=None):
    """Area under the PR curve (accepts a Ranking or score/label arrays)."""
    rank = scores if isinstance(scores, Ranking) else Ranking(scores, labels)
    if rank.n_pos == 0:
        raise UndefinedMetricError("AUPR needs at least one positive")
    return float(np.sum(_pr_segment_areas(rank.tp, rank.fp))) / rank.n_pos


def average_precision(rank):
    """Mean interpolated precision at each TP increment (alternate statistic)."""
    if rank.n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    tp, fp = rank.tp, rank.fp
    seg, t = _pr_steps(tp)
    rise = t > tp[seg]
    a, t = seg[rise], t[rise]
    slope = (fp[a + 1] - fp[a]) / (tp[a + 1] - tp[a])
    # A running sum in step order (np.cumsum, not np.sum's pairwise order),
    # so the value agrees bit for bit with tests/oracles.py's loop.
    total = np.cumsum(t / (t + fp[a] + slope * (t - tp[a])))[-1]
    return float(total / rank.n_pos)


class ScoreDistribution(NamedTuple):
    """Histogram plus exact empirical CDF of a score sample."""

    bin_edges: np.ndarray
    bin_counts: np.ndarray
    sorted_scores: np.ndarray

    def ecdf(self, q):
        """P(score <= q), exact step function; vectorized over q."""
        pos = np.searchsorted(self.sorted_scores, q, side="right")
        return pos / self.sorted_scores.size


def score_distribution(scores, bins=100):
    """Summarize a score sample; constant input collapses to a single bin."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise UndefinedMetricError("empty score sample")
    srt = np.sort(scores)
    if srt[0] == srt[-1]:
        edges = np.array([srt[0], srt[0]])
        counts = np.array([scores.size], dtype=np.int64)
    else:
        counts, edges = np.histogram(srt, bins=bins)
    return ScoreDistribution(edges, counts, srt)


def write_curve_csv(curve, fh):
    """Write the points as ``x,y`` rows, each coordinate as its ``repr``.

    Each column is formatted once per distinct bit pattern, and the rows
    are written with one join.
    """
    cells = np.empty(curve.points.shape, dtype=object)
    for c, sep in enumerate((",", "\n")):
        text, index = csv_cells(curve.points[:, c], repr, sep)
        cells[:, c] = text[index]
    fh.write("x,y\n" + "".join(cells.ravel().tolist()))


def write_curve_json(curve, fh):
    fh.write(json.dumps(curve.summary(), sort_keys=True, indent=2) + "\n")
