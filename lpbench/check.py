"""Output checks for the lpeval benchmark.

Deliberately independent of ``lpeval``: the reference numbers come from the
benchmark's own inputs, plain integer arithmetic and
``scipy.sparse.csgraph.shortest_path``, so a defect in ``lpeval.metrics`` or
``lpeval.stratify`` cannot hide itself by also breaking its checker.

Every check names the CLI command whose output it inspects; ``run.py``
counts a command run as failed when any of its checks fails.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from workloads import TEMPORAL_SLICES, WINDOWS


# Name prefixes of the artifacts each command must list in its manifest.
EXPECTED = {
    "snapshot": ("snapshot_test_feature.csv", "snapshot_report.json"),
    "distance-dist": ("distance_distribution.csv", "distance_report.json"),
    "evaluate": ("evaluation.json", "instances_", "roc_", "pr_", "per_distance_"),
    "score": ("scores_",),
    "temporal": ("temporal_report.json", "temporal_"),
    "variance": ("variance_report.json", "variance_", "filtered_negatives_"),
    "kaggle-compare": ("kaggle_report.json", "kaggle_compare.csv"),
    "surrogate": ("surrogate_grid.csv", "surrogate_report.json"),
}


def _artifacts(out_dir, prefix):
    return sorted(f for f in os.listdir(out_dir)
                  if f.startswith(prefix) and f.endswith(".csv"))


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_instances(path):
    """(distance names, labels, scores) columns of an instance CSV."""
    header, rows = read_csv(path)
    if header[:4] != ["u", "v", "distance", "label"] or len(header) != 5:
        raise ValueError(f"{path}: unexpected header {header}")
    dist = [r[2] for r in rows]
    labels = np.array([r[3] == "1" for r in rows], dtype=bool)
    scores = np.array([float(r[4]) for r in rows], dtype=np.float64)
    return dist, labels, scores


def mann_whitney_auroc(scores, labels):
    """AUROC as the exact Mann-Whitney count: P(pos > neg) with ties at half.

    Counted in integers and divided once, so it is the correctly rounded
    value of the exact rational.
    """
    pos = np.asarray(scores)[labels]
    neg = np.sort(np.asarray(scores)[~labels])
    below = np.searchsorted(neg, pos, side="left").astype(np.int64)
    not_above = np.searchsorted(neg, pos, side="right").astype(np.int64)
    twice_u = int(below.sum()) + int(not_above.sum())   # 2*greater + equal
    return twice_u / (2 * int(pos.size) * int(neg.size))


class Reference:
    """Independent ground truth for one event log and window split."""

    def __init__(self, events_path, feature, label, lmax, beyond, disconnected):
        ids = {}
        feat, lab = set(), set()
        with open(events_path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                a, b, t = line.rstrip("\n").split("\t")
                t = int(t)
                pair = tuple(sorted((ids.setdefault(a, len(ids)),
                                     ids.setdefault(b, len(ids)))))
                if feature[0] <= t <= feature[1]:
                    feat.add(pair)
                if label[0] <= t <= label[1]:
                    lab.add(pair)
        self.feature_edges = len(feat)
        nodes = sorted({x for e in feat for x in e})
        index = {x: i for i, x in enumerate(nodes)}
        n = len(nodes)
        rows = [index[a] for a, _ in feat]
        cols = [index[b] for _, b in feat]
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
        dist = shortest_path(adj, directed=False, unweighted=True)
        iu, iv = np.triu_indices(n, 1)
        d = dist[iu, iv]
        counts = Counter()
        finite = np.isfinite(d)
        for k, c in zip(*np.unique(d[finite & (d >= 2) & (d <= lmax)],
                                   return_counts=True)):
            counts[str(int(k))] = int(c)
        if beyond:
            counts["beyond"] = int((finite & (d > lmax)).sum())
        if disconnected:
            counts["disconnected"] = int((~finite).sum())
        self.buckets = +counts
        self.candidates = sum(self.buckets.values())
        # Prior distance of each new link between feature nodes.
        new = Counter()
        for a, b in lab:
            if a in index and b in index and (a, b) not in feat:
                x = dist[index[a], index[b]]
                new["disconnected" if not np.isfinite(x) else str(int(x))] += 1
        total = sum(new.values())
        self.new_link_dist = {k: c / total for k, c in new.items()}


# Checks that fail because of a known defect of the program, which the
# benchmark reports but does not count in the error rate until it is fixed.
KNOWN_DEFECTS = {
    "variance-rate-1": "variance_experiment forms the rate-1 mean and variance "
                       "in floating point (arr.mean(), arr.var(ddof=1))",
}


class Checker:
    """Collects failures per command; empty ``failures`` means all passed.

    ``known`` collects the findings of the checks in ``KNOWN_DEFECTS``: they
    are as strict as the others and are printed, but they are kept out of
    ``failures`` so that a run on a program with only those defects counts
    as correct.
    """

    def __init__(self):
        self.failures = []
        self.known = []

    def expect(self, ok, command, message):
        if not ok:
            self.failures.append((command, message))
        return ok

    def expect_known(self, defect, ok, command, message):
        if not ok:
            self.known.append((command, f"{message} [known defect {defect}: "
                                        f"{KNOWN_DEFECTS[defect]}]"))
        return ok

    # -- every command --------------------------------------------------

    def manifest(self, command, listed, actual):
        """The manifest is readable, lists the command's artifacts, and each
        artifact's sha256 in it matches the file. ``listed`` is None when
        there is no readable manifest."""
        if not self.expect(listed is not None, command, "no readable manifest.json"):
            return
        for prefix in EXPECTED[command]:
            self.expect(any(rel.startswith(prefix) for rel in listed), command,
                        f"manifest lists no {prefix}* artifact")
        for rel, digest in listed.items():
            self.expect(actual.get(rel) == digest, command,
                        f"sha256 of {rel} does not match its manifest entry")

    def rerun(self, command, first, again):
        """A rerun with the same config and --out path writes the same bytes."""
        self.expect(first == again, command,
                    "rerun digests differ: "
                    + ", ".join(sorted(k for k in set(first) | set(again)
                                       if first.get(k) != again.get(k))))

    # -- graph workloads ------------------------------------------------

    def snapshot(self, out_dir, ref):
        _, rows = read_csv(os.path.join(out_dir, "snapshot_test_feature.csv"))
        self.expect(len(rows) == ref.feature_edges, "snapshot",
                    f"test_feature has {len(rows)} edges, expected "
                    f"{ref.feature_edges}")

    def distance_dist(self, out_dir, ref):
        _, rows = read_csv(os.path.join(out_dir, "distance_distribution.csv"))
        got = {d: float(p) for d, p in rows}
        self.expect(got == ref.new_link_dist, "distance-dist",
                    f"distribution {got} != reference {ref.new_link_dist}")

    def buckets(self, command, dist, ref, what):
        got = Counter(dist)
        self.expect(got == ref.buckets, command,
                    f"{what}: bucket counts {dict(got)} != shortest_path "
                    f"{dict(ref.buckets)}")

    def evaluate(self, out_dir, ref):
        with open(os.path.join(out_dir, "evaluation.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for name, entry in report["predictors"].items():
            dist, labels, scores = read_instances(
                os.path.join(out_dir, f"instances_{name}.csv"))
            self.buckets("evaluate", dist, ref, f"instances_{name}")
            self.expect(entry["n_pos"] == int(labels.sum())
                        and entry["n_neg"] == int((~labels).sum()), "evaluate",
                        f"{name}: class counts differ from the instance CSV")
            expected = mann_whitney_auroc(scores, labels)
            self.expect(entry["auroc"] == expected, "evaluate",
                        f"{name}: auroc {entry['auroc']!r} != Mann-Whitney "
                        f"{expected!r}")

    def score(self, out_dir, ref):
        rels = _artifacts(out_dir, "scores_")
        self.expect(rels, "score", "no scores_*.csv artifact")
        for rel in rels:
            dist, _, _ = read_instances(os.path.join(out_dir, rel))
            self.buckets("score", dist, ref, rel)

    def temporal(self, out_dir, ref, slices):
        rels = _artifacts(out_dir, "temporal_")
        self.expect(rels, "temporal", "no temporal_*.csv artifact")
        for rel in rels:
            _, rows = read_csv(os.path.join(out_dir, rel))
            self.expect(len(rows) == slices, "temporal",
                        f"{rel}: {len(rows)} slices, expected {slices}")
            for r in rows:
                self.expect(int(r[3]) + int(r[4]) == ref.candidates, "temporal",
                            f"{rel} slice {r[0]}: {int(r[3]) + int(r[4])} "
                            f"instances, expected {ref.candidates}")

    # -- sampling workload ----------------------------------------------

    def variance(self, out_dir, full_auroc, repeats):
        """Full AUROC is the Mann-Whitney value; the rate-1 row repeats it.

        At rate 1 every repeat keeps every row, so each repeat's AUROC is
        the full AUROC, and the row's mean must equal it exactly, with
        variance 0. That last comparison is exact and goes to
        ``Checker.known`` (``variance-rate-1``): the program misses it by
        rounding on most inputs.
        """
        with open(os.path.join(out_dir, "variance_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for name, entry in report["predictors"].items():
            self.expect(entry["full_auroc"] == full_auroc, "variance",
                        f"{name}: full_auroc {entry['full_auroc']!r} != "
                        f"Mann-Whitney {full_auroc!r}")
            rows = [r for r in entry["rows"] if r["rate"] == 1.0]
            if not self.expect(len(rows) == 1, "variance", "no rate-1 row"):
                continue
            row = rows[0]
            self.expect(row["n_valid"] == repeats
                        and row["minimum"] == row["maximum"] == full_auroc,
                        "variance", f"{name}: rate-1 row {row} does not repeat "
                        f"the full AUROC {full_auroc!r} in all {repeats} repeats")
            self.expect_known("variance-rate-1",
                              row["mean"] == full_auroc and row["variance"] == 0.0,
                              "variance", f"{name}: rate-1 row has mean "
                              f"{row['mean']!r} and variance {row['variance']!r}, "
                              f"not {full_auroc!r} and 0.0")

    def kaggle(self, out_dir, full_auroc):
        with open(os.path.join(out_dir, "kaggle_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for name, entry in report["predictors"].items():
            self.expect(entry["full_auroc"] == full_auroc, "kaggle-compare",
                        f"{name}: full_auroc {entry['full_auroc']!r} != "
                        f"Mann-Whitney {full_auroc!r}")
            self.expect(len(entry["fair_values"]) > 0
                        and len(entry["kaggle_values"]) > 0, "kaggle-compare",
                        f"{name}: no valid repeat")

    def surrogate(self, out_dir, alphas, betas):
        """A finite sigma for every (alpha, beta) cell of the grid."""
        _, rows = read_csv(os.path.join(out_dir, "surrogate_grid.csv"))
        self.expect(len(rows) == len(alphas)
                    and all(len(r) == 1 + len(betas) for r in rows), "surrogate",
                    "surrogate grid has the wrong shape")
        self.expect(all(math.isfinite(float(x)) for r in rows for x in r[1:]),
                    "surrogate", "non-finite sigma in the surrogate grid")


def _interval(text):
    begin, end = text.split(":")
    return int(begin), int(end)


def check_outputs(checker, workload, inputs, outs, skip=()):
    """Check the outputs of each of the workload's commands not in ``skip``
    against references built from its inputs; returns the input row count.

    Input rows are the candidate rows of the feature snapshot for a graph
    workload and the rows of the score file for ``sampling``.
    """
    source = os.path.join(inputs, workload.input_file)
    cfg = workload.config
    if workload.dataset_key == "scores":
        _, labels, scores = read_instances(source)
        full = mann_whitney_auroc(scores, labels)
        rows = int(labels.size)
        split = lambda key: [float(x) for x in cfg["surrogate"][key].split(",")]
        checks = {
            "variance": lambda: checker.variance(outs["variance"], full,
                                                 int(cfg["variance"]["repeats"])),
            "kaggle-compare": lambda: checker.kaggle(outs["kaggle-compare"], full),
            "surrogate": lambda: checker.surrogate(outs["surrogate"], split("alphas"),
                                                   split("betas"))}
    else:
        p = cfg["prediction"]
        ref = Reference(source, _interval(WINDOWS["test_feature"]),
                        _interval(WINDOWS["test_label"]), int(p["lmax"]),
                        p["include_beyond"] == "true",
                        p["include_disconnected"] == "true")
        rows = ref.candidates
        checks = {
            "snapshot": lambda: checker.snapshot(outs["snapshot"], ref),
            "distance-dist": lambda: checker.distance_dist(outs["distance-dist"], ref),
            "evaluate": lambda: checker.evaluate(outs["evaluate"], ref),
            "score": lambda: checker.score(outs["score"], ref),
            "temporal": lambda: checker.temporal(outs["temporal"], ref, TEMPORAL_SLICES)}
    for command in outs:
        if command in skip:
            continue
        try:
            checks[command]()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checker.expect(False, command, f"unreadable output: {exc!r}")
    return rows
