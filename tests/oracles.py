"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately written from first principles (simple loops,
scipy, broadcasting) rather than through the library's own code paths, so a
disagreement always points at the implementation.
"""

import csv
import math
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from lpeval import rng as rng_mod
from lpeval.errors import IngestError
from lpeval.experiments import (DistanceRow, FilteredNegativeRow,
                                VarianceRateRow, VarianceReport,
                                analytic_sampling_variance, variance_slope)
from lpeval.metrics import _pr_segment_areas, auroc, auroc_from_counts
from lpeval.rng import substream
from lpeval.stratify import BEYOND, DISCONNECTED, InstanceSet


def auroc_pair_count(scores, labels):
    """P(random positive above random negative), ties half credit, exact.

    Accumulated as the integer 2*wins + ties before a single division.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    return _pair_count(scores[labels], scores[~labels])


def _pair_count(pos, neg):
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (2 * wins + ties) / (2.0 * pos.size * neg.size)


def bucket_mixture_auroc(scores, labels, distance, weights):
    """Sum over buckets d of w(d) * g(d), with the weights normalised to 1.

    g(d) is the pair-count AUROC of *all* positives against the negatives of
    distance bucket d; ``weights`` maps bucket -> weight (raw counts will do).
    A sampler that keeps every positive and draws negatives uniformly inside
    each bucket, in the proportions ``weights``, has this expected AUROC:
    negative counts per bucket give the full AUROC, positive counts the
    per-bucket balanced one.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    distance = np.asarray(distance)
    pos = scores[labels]
    total = mix = 0.0
    for d, w in weights.items():
        if w == 0:
            continue
        neg = scores[~labels & (distance == d)]
        assert neg.size, f"bucket {d} has weight but no negatives"
        mix += w * _pair_count(pos, neg)
        total += w
    return mix / total


def pr_boundary_path(scores, labels):
    """Cumulative (slots, tp, fp) at every tie-group boundary, from scratch."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    s = [float(scores[i]) for i in order]
    y = [bool(labels[i]) for i in order]
    slots, tps, fps = [0], [0], [0]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        gp = sum(1 for t in range(i, j) if y[t])
        slots.append(j)
        tps.append(tps[-1] + gp)
        fps.append(fps[-1] + (j - i - gp))
        i = j
    return (np.array(slots, float), np.array(tps, float), np.array(fps, float))


def aupr_per_rank_cut(scores, labels, subdiv=64):
    """Trapezoid area of the per-rank-cut PR path at slot subdivision.

    Cuts inside a tie group earn linear fractional credit (tp and fp both
    grow linearly in slots), which is the achievable-point interpolation; at
    fine subdivision the trapezoid converges to its exact area.
    """
    slots, tps, fps = pr_boundary_path(scores, labels)
    n = int(slots[-1])
    grid = np.linspace(0.0, float(n), n * subdiv + 1)
    tp = np.interp(grid, slots, tps)
    fp = np.interp(grid, slots, fps)
    total_pos = tps[-1]
    recall = tp / total_pos
    denom = tp + fp
    precision = np.divide(tp, denom, out=np.zeros_like(tp), where=denom > 0)
    if denom[0] == 0 and len(precision) > 1:
        precision[0] = precision[1]  # limit along the origin tie group
    return float(np.trapezoid(precision, recall))


def aupr_oracle(scores, labels):
    """Self-verifying AUPR by per-rank-cut trapezoids at two subdivisions.

    Trapezoid error is quadratic in the step, so Richardson extrapolation of
    the two grids removes it (observed residual ~1e-12); the pre-check that
    the grids already agree loosely guards against non-convergence.
    """
    coarse = aupr_per_rank_cut(scores, labels, subdiv=64)
    fine = aupr_per_rank_cut(scores, labels, subdiv=128)
    assert abs(fine - coarse) < 1e-4, "oracle failed to converge"
    return fine + (fine - coarse) / 3.0


def _adjacency(n, edges):
    """Symmetric 0/1 scipy CSR adjacency of an ``(u, v, ...)`` edge list."""
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    ones = np.ones(2 * u.size)
    return csr_matrix((ones, (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(n, n))


def hop_distances(n, edges):
    """All-pairs unweighted shortest path matrix via scipy (inf = unreachable)."""
    return shortest_path(_adjacency(n, edges), method="D", unweighted=True,
                         directed=False)


def lowest_reachable(n, edges):
    """Each node's lowest reachable node id (its own when it is isolated).

    Nodes are visited in id order; an unlabeled one is the lowest node of
    its component, and the nodes its :func:`hop_distances` row reaches get
    its id. Only that row is computed.
    """
    m = _adjacency(n, edges)
    label = np.full(n, -1, dtype=np.int64)
    for root in range(n):
        if label[root] < 0:
            reach = shortest_path(m, method="D", unweighted=True, directed=False,
                                  indices=root)
            label[np.isfinite(reach)] = root
    return label


def bfs_hops(adj, source):
    """Plain deque BFS distances; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def common_neighbor_sets(n, edges):
    """For every pair (u, v), the set of common neighbors, from adjacency sets;
    and every node's degree."""
    adj = [set() for _ in range(n)]
    for e in edges:
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    common = {(u, v): adj[u] & adj[v] for u in range(n) for v in range(n) if u != v}
    return common, [len(a) for a in adj]


def adamic_adar_fsum(common, degree):
    """Adamic/Adar as a correctly rounded sum (math.fsum) of 1/ln(deg)."""
    return math.fsum(1.0 / math.log(degree[m]) for m in common)


def propflow_path_sum(n, weighted_edges, source, target, l_max):
    """Sum over strictly level-increasing paths of forward-normalized
    weight products; the target absorbs (paths stop there)."""
    adj = [[] for _ in range(n)]
    for u, v, w in weighted_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = bfs_hops([[v for v, _ in row] for row in adj], source)

    def forward(u):
        return [(v, w) for v, w in adj[u]
                if dist[v] == dist[u] + 1 and dist[v] <= l_max]

    total = 0.0

    def walk(u, prob):
        nonlocal total
        if u == target:
            total += prob
            return
        fwd = forward(u)
        denom = sum(w for _, w in fwd)
        if denom <= 0:
            return
        for v, w in fwd:
            walk(v, prob * w / denom)

    walk(source, 1.0)
    return total


class SortedRanking:
    """The row-sorting ranking: rows sorted by score descending (stable),
    a tie-group cut wherever the sorted score changes.

    ``scores``/``labels`` are the sorted rows; ``bounds``, ``tp`` and ``fp``
    mean what they mean on :class:`lpeval.metrics.Ranking`, which counts
    the same cuts per tie group without sorting rows.
    """

    def __init__(self, scores, labels):
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=bool)
        order = np.argsort(-scores, kind="stable")
        self.scores = scores[order]
        self.labels = labels[order]
        change = np.flatnonzero(self.scores[1:] != self.scores[:-1]) + 1
        self.bounds = np.concatenate([[0], change, [scores.size]]).astype(np.int64)
        ctp = np.cumsum(self.labels.astype(np.int64))
        self.tp = np.concatenate([[0], ctp[self.bounds[1:] - 1]]).astype(np.int64)
        self.fp = self.bounds - self.tp
        self.n_pos, self.n_neg = int(self.tp[-1]), int(self.fp[-1])


def aupr_segments(tp, fp):
    """Achievable-point PR area from cumulative counts at the tie-group cuts,
    integrated one segment at a time in Python floats: along a segment fp
    grows linearly in tp, so precision is t / (a t + c)."""
    total = 0.0
    for ta, fa, tb, fb in zip(*(map(float, x) for x in (tp[:-1], fp[:-1],
                                                        tp[1:], fp[1:]))):
        if tb == ta:
            continue
        slope = (fb - fa) / (tb - ta)
        a, c = 1.0 + slope, fa - slope * ta
        total += (tb - ta) / a
        if c != 0.0:
            total -= c / a ** 2 * math.log((tb + fb) / (ta + fa))
    return total / float(tp[-1])


def per_distance_rows_resorted(instances, scores):
    """``per_distance_eval`` with each bucket's rows, then all rows, sorted
    again (:class:`SortedRanking`). The areas apply the library's closed
    forms to the sorted counts, so equal counts give equal rows."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = instances.label

    def row(distance, mask):
        rank = SortedRanking(scores[mask], labels[mask])
        if not (rank.n_pos and rank.n_neg):
            return DistanceRow(distance, rank.n_pos, rank.n_neg, None, None, False)
        return DistanceRow(
            distance, rank.n_pos, rank.n_neg,
            auroc_from_counts(np.diff(rank.tp), np.diff(rank.fp)),
            float(np.sum(_pr_segment_areas(rank.tp, rank.fp))) / rank.n_pos, True)

    return [row(int(d), instances.distance == d)
            for d in np.unique(instances.distance)] + \
        [row(None, np.ones(labels.size, dtype=bool))]


def confusion_by_counting(sorted_labels, cut):
    """Counts from a plain loop over the top-``cut`` entries."""
    tp = sum(1 for y in sorted_labels[:cut] if y)
    fp = cut - tp
    pos = sum(1 for y in sorted_labels if y)
    neg = len(sorted_labels) - pos
    return tp, fp, neg - fp, pos - tp


def random_ranking(rng, max_size=2000, tie_fraction=0.5):
    """Random scored labels; about ``tie_fraction`` of rankings quantize
    scores to force substantial tie groups."""
    n = int(rng.integers(10, max_size + 1))
    labels = rng.random(n) < rng.uniform(0.05, 0.5)
    if not labels.any():
        labels[int(rng.integers(n))] = True
    if labels.all():
        labels[int(rng.integers(n))] = False
    scores = rng.normal(size=n) + labels * rng.uniform(0.0, 2.0)
    if rng.random() < tie_fraction:
        scores = np.round(scores * rng.uniform(0.5, 4.0)) / 2.0
    return scores, labels


def curve_csv_text(curve):
    """The curve CSV written one point at a time from numpy scalars."""
    return "x,y\n" + "".join(f"{repr(float(x))},{repr(float(y))}\n"
                              for x, y in curve.points)


def instances_csv_text(instances, id_labels=None, score_keys=None):
    """The instance CSV built one row and one cell at a time.

    Ids that hold ``,``, ``"``, CR or LF are quoted with inner quotes
    doubled; every other cell is written as is.
    """
    keys = list(score_keys if score_keys is not None else instances.scores)

    def quote(text):
        if set(text) & set(',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    def name(i):
        return quote(str(id_labels[i])) if id_labels is not None else str(i)

    def distance(d):
        return {BEYOND: "beyond", DISCONNECTED: "disconnected"}.get(d, str(d))

    header = ["u", "v", "distance", "label"] + (["score"] if len(keys) == 1
                                                else [f"score_{k}" for k in keys])
    out = [",".join(header) + "\n"]
    for i in range(len(instances)):
        cells = [name(int(instances.u[i])), name(int(instances.v[i])),
                 distance(int(instances.distance[i])),
                 "" if instances.label is None else str(int(instances.label[i]))]
        cells += [repr(float(instances.scores[k][i])) for k in keys]
        out.append(",".join(cells) + "\n")
    return "".join(out)


def read_instances_rows(path_or_file, id_index=None):
    """The instance CSV read one row and one cell at a time (``csv.reader``,
    then ``int`` and ``float`` per cell, a distance cell also by name).

    Python's ``int`` and ``float`` also accept ``1_0``; a label column that
    is empty on some rows only reads as unlabeled.
    """
    close = False
    if hasattr(path_or_file, "read"):
        fh = path_or_file
    else:
        fh = open(path_or_file, "r", encoding="utf-8", newline="")
        close = True
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["u", "v", "distance", "label"]:
            raise IngestError("expected header u,v,distance,label[,score...]", line=1)
        score_names = [h[6:] if h.startswith("score_") else "score"
                       for h in header[4:]]
        us, vs, ds, ls = [], [], [], []
        score_cols = [[] for _ in score_names]
        have_labels = True
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(f"expected {len(header)} fields", line=line_no)
            try:
                u = int(row[0]) if id_index is None else id_index[row[0]]
                v = int(row[1]) if id_index is None else id_index[row[1]]
                d = {"beyond": BEYOND, "disconnected": DISCONNECTED}.get(
                    row[2].strip()) or int(row[2])
                if row[3] == "":
                    have_labels = False
                else:
                    ls.append(bool(int(row[3])))
                for col, cell in zip(score_cols, row[4:]):
                    col.append(float(cell))
            except (KeyError, ValueError) as exc:
                raise IngestError(str(exc), line=line_no) from None
            us.append(u)
            vs.append(v)
            ds.append(d)
        label = np.asarray(ls, dtype=bool) if have_labels and us else None
        inst = InstanceSet(np.asarray(us, dtype=np.int64),
                           np.asarray(vs, dtype=np.int64),
                           np.asarray(ds, dtype=np.int64), label)
        for nm, col in zip(score_names, score_cols):
            inst.scores[nm] = np.asarray(col, dtype=np.float64)
        return inst
    finally:
        if close:
            fh.close()


def fair_sample_indices(labels, rate, rng, exact_counts):
    """Rows a fair draw keeps: every positive, and each negative with
    probability ``rate`` (exactly round(N * rate) of them under
    ``exact_counts``), drawn over the negatives in row order."""
    neg_idx = np.flatnonzero(~labels)
    if rate == 1.0:
        kept = neg_idx
    elif exact_counts:
        size = int(round(neg_idx.size * rate))
        kept = rng.choice(neg_idx, size=size, replace=False) if size else neg_idx[:0]
    else:
        kept = neg_idx[rng.random(neg_idx.size) < rate]
    return np.sort(np.concatenate([np.flatnonzero(labels), kept]))


def kaggle_sample_indices(labels, distance, rng):
    """Rows a per-distance-bucket balanced draw keeps: in each bucket with
    positives, every positive and as many of its negatives as positives,
    drawn without replacement (all of them if there are no more); in
    increasing order of distance, over each bucket's rows in row order."""
    keep = []
    for d in sorted(set(distance.tolist())):
        in_bucket = distance == d
        pos = np.flatnonzero(in_bucket & labels)
        if pos.size == 0:
            continue
        neg = np.flatnonzero(in_bucket & ~labels)
        if neg.size > pos.size:
            neg = rng.choice(neg, size=pos.size, replace=False)
        keep += [pos, neg]
    return np.sort(np.concatenate(keep)) if keep else np.empty(0, dtype=np.int64)


def _negatives_by_group(scores, labels, rows):
    """The negative rows among ``rows``, in row order, listed per tie group:
    one list per distinct score of the whole column, highest first (Python
    equality, so -0.0 and 0.0 are one score)."""
    distinct = sorted(set(scores.tolist()), reverse=True)
    group = {s: g for g, s in enumerate(distinct)}
    by_group = [[] for _ in distinct]
    for i in rows:
        if not labels[i]:
            by_group[group[float(scores[i])]].append(int(i))
    return by_group


def _first_kept(by_group, kept):
    """The first ``kept[g]`` rows of each group's list."""
    return [i for rows, k in zip(by_group, kept) for i in rows[:k]]


def first_kept_indices(scores, labels, distance, kept):
    """Every positive row, and the first ``kept[b, g]`` negative rows in row
    order of each (distance bucket b, tie group g): the buckets in
    increasing order of distance, the groups those of the whole column."""
    idx = [int(i) for i in np.flatnonzero(labels)]
    for b, d in enumerate(sorted(set(distance.tolist()))):
        idx += _first_kept(_negatives_by_group(scores, labels,
                                               np.flatnonzero(distance == d)),
                           kept[b])
    return np.sort(np.array(idx, dtype=np.int64))


def count_sample_indices(scores, labels, rate, rng, exact_counts):
    """Rows a fair per-group count draw keeps: every positive, and the first
    kept_g negatives in row order of each tie group g. kept_g is drawn per
    group, binomial(neg_g, rate), or multivariate hypergeometric with
    round(N * rate) draws under ``exact_counts``; no draw at rate 1."""
    by_group = _negatives_by_group(scores, labels, range(labels.size))
    neg = np.array([len(rows) for rows in by_group], dtype=np.int64)
    if rate == 1.0:
        kept = neg
    elif exact_counts:
        kept = rng.multivariate_hypergeometric(neg, int(round(neg.sum() * rate)))
    else:
        kept = rng.binomial(neg, rate)
    return np.sort(np.array(list(np.flatnonzero(labels)) + _first_kept(by_group, kept),
                            dtype=np.int64))


def balanced_count_sample_indices(scores, labels, distance, rng):
    """Rows a per-distance-bucket balanced count draw keeps: in each bucket
    with positives, every positive and, when the bucket holds more
    negatives than positives, the first kept_g negatives in row order of
    each tie group, kept drawn multivariate hypergeometric with the
    bucket's positive count of draws; otherwise every negative."""
    idx = []
    for d in sorted(set(distance.tolist())):
        rows = np.flatnonzero(distance == d)
        n_pos = int(labels[rows].sum())
        if n_pos == 0:
            continue
        by_group = _negatives_by_group(scores, labels, rows)
        neg = np.array([len(r) for r in by_group], dtype=np.int64)
        kept = neg if neg.sum() <= n_pos else rng.multivariate_hypergeometric(neg, n_pos)
        idx += [int(i) for i in rows if labels[i]] + _first_kept(by_group, kept)
    return np.sort(np.array(idx, dtype=np.int64))


def kaggle_compare_resorted(instances, scores, rate, repeat_seeds):
    """``kaggle_compare`` with every draw's rows ranked again:
    ``(full AUROC, fair values, balanced values)``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = instances.label
    two_classes = labels.any() and not labels.all()
    fair, kaggle = [], []
    for rs in repeat_seeds:
        for values, idx in (
                (fair, count_sample_indices(
                    scores, labels, rate,
                    substream(int(rs), rng_mod.STREAM_FAIR_SAMPLE), False)),
                (kaggle, balanced_count_sample_indices(
                    scores, labels, instances.distance,
                    substream(int(rs), rng_mod.STREAM_KAGGLE_SAMPLE)))):
            if labels[idx].any() and not labels[idx].all():
                values.append(auroc(scores[idx], labels[idx]))
    return (auroc(scores, labels) if two_classes else None), fair, kaggle


def classifiable_by_rows(scores, labels):
    """The classifiable estimate C from the rows: negatives scored below the
    median positive, the median np.median's (the mean of the middle one or
    two sorted positives, NaN when any positive is NaN)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = np.sort(scores[labels])
    mid = pos.size // 2
    if np.isnan(pos[-1]):
        median = pos[-1]
    elif pos.size % 2:
        median = pos[mid]
    else:
        median = (pos[mid - 1] + pos[mid]) / 2
    return int((scores[~labels] < median).sum())


def variance_report_resorted(instances, scores, rates, repeats, seed,
                             exact_counts=False):
    """``variance_experiment`` with every repeat's sample ranked again:
    ``auroc(scores[idx], labels[idx])`` per repeat, the rows drawn by
    :func:`count_sample_indices` from the repeat's substream."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = instances.label
    full = auroc(scores, labels)
    c_est = classifiable_by_rows(scores, labels)
    n_neg = int((~labels).sum())
    rows = []
    for ri, p in enumerate(rates):
        vals = []
        invalid = 0
        for rep in range(repeats):
            rng = substream(seed, rng_mod.STREAM_VARIANCE, ri, rep)
            idx = count_sample_indices(scores, labels, p, rng, exact_counts)
            if labels[idx].all():
                invalid += 1
                continue
            vals.append(auroc(scores[idx], labels[idx]))
        analytic = analytic_sampling_variance(n_neg, c_est, p) if p < 1 else 0.0
        if vals:
            arr = np.asarray(vals)
            dev = arr - arr[0]
            var = float(dev.var(ddof=1)) if arr.size > 1 else 0.0
            rows.append(VarianceRateRow(p, float(arr[0] + dev.mean()),
                                        float(arr.min()), float(arr.max()), var,
                                        arr.size, invalid, analytic))
        else:
            rows.append(VarianceRateRow(p, None, None, None, None, 0, invalid,
                                        analytic))
    fitted = [(r.rate, r.variance) for r in rows if r.variance is not None]
    slope, r2 = variance_slope([f[0] for f in fitted], [f[1] for f in fitted])
    return VarianceReport(tuple(rows), repeats, seed, full, c_est, slope, r2)


def filtered_rows_resorted(instances, scores, cuts=None):
    """``filtered_negative_eval`` with each cut's kept rows ranked again."""
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


def pr_points_loop(tp, fp):
    """PR curve points built one TP increment at a time from the cumulative
    ``tp``/``fp`` counts at each tie-group cut, a point equal to the one
    before it dropped."""
    P = int(tp[-1])
    pts = []
    first_cut = tp[1] + fp[1]
    pts.append((0.0, tp[1] / first_cut))
    for j in range(1, tp.size):
        tp_a, fp_a, tp_b, fp_b = tp[j - 1], fp[j - 1], tp[j], fp[j]
        dtp = tp_b - tp_a
        if dtp == 0:
            pts.append((tp_b / P, tp_b / (tp_b + fp_b)))
            continue
        slope = (fp_b - fp_a) / dtp
        for t in range(int(tp_a) + 1, int(tp_b) + 1):
            f = fp_a + slope * (t - tp_a)
            pts.append((t / P, t / (t + f)))
    return np.array([pts[0]] + [p for i, p in enumerate(pts[1:], 1)
                                if p != pts[i - 1]])


def average_precision_loop(tp, fp):
    """Mean interpolated precision at each TP increment, summed one
    increment at a time."""
    total = 0.0
    for j in range(1, tp.size):
        tp_a, fp_a, tp_b, fp_b = tp[j - 1], fp[j - 1], tp[j], fp[j]
        if tp_b == tp_a:
            continue
        slope = (fp_b - fp_a) / (tp_b - tp_a)
        for t in range(int(tp_a) + 1, int(tp_b) + 1):
            total += t / (t + fp_a + slope * (t - tp_a))
    return total / int(tp[-1])


def _distinct_rows(rng, trials, k, m):
    """(trials, k) matrix of distinct integers drawn uniformly from [0, m):
    each row is redrawn until its entries are distinct, so keep k well
    below sqrt(m) or the redraws go on for long."""
    out = rng.integers(0, m, size=(trials, k), dtype=np.int64)
    while k > 1:
        srt = np.sort(out, axis=1)
        bad = np.flatnonzero(np.any(srt[:, 1:] == srt[:, :-1], axis=1))
        if bad.size == 0:
            break
        out[bad] = rng.integers(0, m, size=(bad.size, k), dtype=np.int64)
    return out


def auroc_from_positions(positions, total_slots):
    """AUROC of rankings where ``positions`` (rows) hold the positive slots."""
    p = positions.shape[1]
    n = total_slots - p
    srt = np.sort(positions, axis=1)
    neg_above = srt - np.arange(p, dtype=np.int64)
    return 1.0 - neg_above.sum(axis=1) / (p * n)


def surrogate_monte_carlo(params, seed=0):
    """AUROC samples (sub-problem, full problem) of ``params.trials``
    simulated rankings each, for a :class:`SurrogateParams`.

    Per trial the sub-problem places its positives uniformly among the top
    alpha fraction of its ranking. The full problem places the sub-problem's
    positives inside a band beta times wider, then the remaining positives
    within the top alpha fraction of the full ranking, redrawing a trial's
    tail until no slot collides. The sub-problem's random stream does not
    depend on beta, so a sweep over beta shares its samples.
    """
    trials = params.trials
    rng_sub = substream(seed, rng_mod.STREAM_SURROGATE_SUB)
    pos_sub = _distinct_rows(rng_sub, trials, params.p_sub, params.slots_sub)
    auroc_sub = auroc_from_positions(pos_sub, params.p_sub + params.n_sub)

    rng_full = substream(seed, rng_mod.STREAM_SURROGATE_FULL)
    band = _distinct_rows(rng_full, trials, params.p_sub, params.slots_full_band)
    k2 = params.p_full - params.p_sub
    tail = rng_full.integers(0, params.slots_full_tail, size=(trials, k2),
                             dtype=np.int64)
    while k2:
        comb = np.sort(np.concatenate([band, tail], axis=1), axis=1)
        bad = np.flatnonzero(np.any(comb[:, 1:] == comb[:, :-1], axis=1))
        if bad.size == 0:
            break
        tail[bad] = rng_full.integers(0, params.slots_full_tail,
                                      size=(bad.size, k2), dtype=np.int64)
    auroc_full = auroc_from_positions(np.concatenate([band, tail], axis=1),
                                      params.p_full + params.n_full)
    return auroc_sub, auroc_full


# The numpy graph store that lpeval.graphstore replaced with stdlib columns:
# its log reordering, window aggregation, CSR layout and edge CSV export.


def numpy_event_columns(timestamps, offsets, nodes, overrides):
    """An event log's columns in time order, sorted with a stable numpy
    argsort as the numpy ingest did; inputs are in file order."""
    timestamps = np.asarray(timestamps, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    order = np.argsort(timestamps, kind="stable")
    new_nodes, new_offsets = [], [0]
    for i in order:
        new_nodes.extend(nodes[offsets[i]:offsets[i + 1]].tolist())
        new_offsets.append(len(new_nodes))
    return {"timestamps": timestamps[order],
            "event_offsets": np.asarray(new_offsets, dtype=np.int64),
            "event_nodes": np.asarray(new_nodes, dtype=np.int64),
            "weight_overrides": np.asarray(overrides, dtype=np.float64)[order]}


class NumpySnapshot:
    """A snapshot's canonical edges and symmetric CSR, built with numpy's
    lexsort and ``np.add.at``."""

    def __init__(self, n_universe, edge_u, edge_v, edge_w, id_labels=None):
        edge_u = np.asarray(edge_u, dtype=np.int64)
        edge_v = np.asarray(edge_v, dtype=np.int64)
        edge_w = np.asarray(edge_w, dtype=np.float64)
        self.n_universe = n_universe
        self.id_labels = id_labels
        lo, hi = np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)
        order = np.lexsort((hi, lo))
        self.edge_u, self.edge_v, self.edge_w = lo[order], hi[order], edge_w[order]
        src = np.concatenate([self.edge_u, self.edge_v])
        dst = np.concatenate([self.edge_v, self.edge_u])
        wts = np.concatenate([self.edge_w, self.edge_w])
        order = np.lexsort((dst, src))
        self.indices, self.weights = dst[order], wts[order]
        self.indptr = np.zeros(n_universe + 1, dtype=np.int64)
        np.add.at(self.indptr, src[order] + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        present = np.zeros(n_universe, dtype=bool)
        present[self.edge_u] = True
        present[self.edge_v] = True
        self.node_ids = np.flatnonzero(present)

    def csv_text(self):
        """The edge CSV: rows sorted by label, ids quoted where needed."""
        labels = self.id_labels
        name = (lambda i: labels[i]) if labels is not None else str

        def field(i):
            text = str(name(i))
            return '"' + text.replace('"', '""') + '"' \
                if any(c in text for c in ',"\r\n') else text

        rows = sorted((name(a), name(b), a, b, repr(x)) for a, b, x in zip(
            self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))
        return "u,v,weight\n" + "".join(f"{field(a)},{field(b)},{x}\n"
                                        for _, _, a, b, x in rows)


def numpy_build_snapshot(columns, n_universe, interval, rule, id_labels=None):
    """The window's snapshot, aggregated event by event from numpy scalars."""
    ts = columns["timestamps"]
    offsets, nodes = columns["event_offsets"], columns["event_nodes"]
    lo = int(np.searchsorted(ts, interval[0], side="left"))
    hi = int(np.searchsorted(ts, interval[1], side="right"))
    acc = {}
    for i in range(lo, hi):
        parts = nodes[offsets[i]:offsets[i + 1]]
        override = columns["weight_overrides"][i]
        w = float(override) if np.isfinite(override) else rule(parts.size)
        for a in range(parts.size):
            for b in range(a + 1, parts.size):
                pa, pb = int(parts[a]), int(parts[b])
                key = (min(pa, pb), max(pa, pb))
                acc[key] = acc.get(key, 0.0) + w
    keys = np.array(list(acc), dtype=np.int64).reshape(-1, 2)
    return NumpySnapshot(n_universe, keys[:, 0], keys[:, 1], list(acc.values()),
                         id_labels=id_labels)
