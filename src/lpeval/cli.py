"""Command-line surface: reproducible runs from a declarative config file.

Every command validates its configuration up front (exit 2 on config
errors, exit 3 on data errors and on running out of memory), writes
artifacts atomically, and finishes with a manifest listing each artifact's
sha256. Reruns with the same config and inputs produce identical digests.
Undefined metrics are written as explicit ``undefined`` markers, not
errors.

Each command loads only the modules its input needs: the names it calls
from the array modules, surrogate and render are bound here with
:func:`lpeval._lazy`, so each of those modules loads at the first call of
one of its names. ``snapshot`` loads graphstore, which imports numpy only
when graph code reads a snapshot's arrays, and ``surrogate`` surrogate:
neither, nor ``--help`` or ``--version``, loads numpy. On
``dataset.path`` the commands load graphstore, predictors and stratify;
``score`` and ``distance-dist`` never load metrics, experiments or rng. On
``dataset.scores``, ``evaluate``, ``variance`` and ``kaggle-compare`` load
the reader, cells, metrics, experiments and rng, never graphstore,
predictors, stratify or twohop. No graph command loads the reader, and only
``evaluate`` with ``run.svg`` loads render. Every bound name is a function
of this module from import on, which a caller may replace (a traced pass,
a test's monkeypatch) before any command runs.

A ``dataset.scores`` file (a third-party predictor's scores in the instance
CSV format) is read into the counts of its distinct (distance, label,
score) rows, never into its rows: ``evaluate``, ``variance`` and
``kaggle-compare`` rank each score column from those counts. The read
(:func:`~lpeval.scorefile.read_instances_csv`) cuts blocks of the file
into rows by their bytes and parses each block's distinct cells once; from
a block it cannot read so, one ``csv.reader`` pass counts the rows and
names the line of a malformed one. Its ids may be any non-empty strings,
so the node labels that ``score`` writes read back. ``score`` and
``temporal`` work on candidates, and so need ``dataset.path``.

A process started as ``lpeval`` or ``python -m lpeval.cli`` enters through
:func:`run`: once ``main`` has returned its exit code, and stdout and
stderr are flushed, it ends with ``os._exit`` and skips the interpreter's
teardown (module clearing, collection passes, deallocation), which took
21-25 ms a process with numpy loaded on a 2-core host and saves nothing,
since every artifact is closed and renamed by then. An exception that
escapes ``main``, and argparse's exits for ``--help``, ``--version`` and
usage errors, end the process the normal way. ``main`` itself returns the
code, for callers in the same process.
"""

from __future__ import annotations

import os

# Before numpy loads: an idle OpenBLAS worker thread spins on a second core,
# and lpeval makes no BLAS call large enough to use it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import functools
import sys

from . import __version__, _lazy
from .config import RunConfig
from .errors import ConfigError, LpevalError
from .manifest import (atomic_write, atomic_write_text, sha256_file, write_json,
                       write_manifest)

# The names the commands call from the modules that load at their first call.
(distance_str,) = _lazy("cells", "distance_str")
(filtered_negative_eval, kaggle_compare, kaggle_repeat_seeds, per_distance_eval,
 sample_fair, sample_kaggle, slice_intervals, temporal_eval,
 variance_experiment) = _lazy(
    "experiments", "filtered_negative_eval", "kaggle_compare", "kaggle_repeat_seeds",
    "per_distance_eval", "sample_fair", "sample_kaggle", "slice_intervals",
    "temporal_eval", "variance_experiment")
build_snapshot, ingest_events, write_snapshot_csv = _lazy(
    "graphstore", "build_snapshot", "ingest_events", "write_snapshot_csv")
Ranking, pr_curve, roc_curve, write_curve_csv, write_curve_json = _lazy(
    "metrics", "Ranking", "pr_curve", "roc_curve", "write_curve_csv",
    "write_curve_json")
(score_instances,) = _lazy("predictors", "score_instances")
(curve_svg,) = _lazy("render", "curve_svg")
(read_instances_csv,) = _lazy("scorefile", "read_instances_csv")
generate_test_set, new_link_distance_distribution, write_instances_csv = _lazy(
    "stratify", "generate_test_set", "new_link_distance_distribution",
    "write_instances_csv")
SurrogateParams, surrogate_simulation = _lazy(
    "surrogate", "SurrogateParams", "surrogate_simulation")


def _fmt(value):
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Output:
    """One command's artifacts in ``cfg.out_dir``.

    Each artifact is written atomically and the digest its writer returns
    is kept, so ``manifest`` lists every artifact without reading one back.
    """

    def __init__(self, cfg, command):
        self.cfg = cfg
        self.command = command
        self.digests = {}

    def text(self, name, text):
        self.digests[name] = atomic_write_text(
            os.path.join(self.cfg.out_dir, name), text)

    def render(self, name, write):
        """Render an artifact with ``write(sink)``, which streams its text
        into the artifact's temporary file (:func:`~lpeval.manifest.atomic_write`),
        so no copy of the text is held."""
        self.digests[name] = atomic_write(os.path.join(self.cfg.out_dir, name),
                                          write)

    def csv(self, name, header, rows):
        self.text(name, ",".join(header) + "\n" + "".join(
            ",".join(_fmt(c) for c in row) + "\n" for row in rows))

    def report(self, name, payload):
        """A JSON report headed by the run's config and seed."""
        self.digests[name] = write_json(
            os.path.join(self.cfg.out_dir, name),
            {"config": self.cfg.echo(), "seed": self.cfg.seed, **payload})

    def manifest(self, input_digest=None):
        write_manifest(self.cfg.out_dir, self.command, self.cfg.echo(),
                       self.digests, input_digest=input_digest,
                       toolkit_version=__version__)


def _load_log(cfg):
    """The dataset's event log and its digest; every caller needs windows."""
    cfg.require_dataset()
    cfg.require_windows()
    try:
        log = ingest_events(cfg.dataset_path, format=cfg.dataset_format)
    except OSError as exc:
        raise LpevalError(f"cannot read dataset: {exc}") from None
    return log, sha256_file(cfg.dataset_path)


def _test_snapshots(cfg, log):
    """The test-feature and test-label snapshots."""
    return tuple(build_snapshot(log, interval, weight_rule=cfg.weight_rule)
                 for interval in (cfg.windows.test_feature, cfg.windows.test_label))


def _graph_scored(cfg, log, use):
    """``{name: use(name, instances, feature)}`` per predictor, where
    ``instances`` are the labeled candidates of the test windows scored by
    that predictor and ``feature`` is the feature snapshot.

    The predictors are scored one at a time, each after ``use`` has
    returned for the one before, so a caller that keeps no scored set holds
    one at a time; the sets share the candidates' columns
    (:func:`~lpeval.predictors.score_instances`).
    """
    feature, label = _test_snapshots(cfg, log)
    instances = generate_test_set(feature, label, mode=cfg.mode, l_max=cfg.lmax,
                                  include_beyond=cfg.include_beyond,
                                  include_disconnected=cfg.include_disconnected)
    return {pred.name: use(pred.name, score_instances(
                feature, instances, pred, policy=cfg.policy,
                query_mode=cfg.mode == "query"), feature)
            for pred in cfg.predictors}


def _score_file(cfg):
    """The counts of the ``dataset.scores`` file's distinct (distance,
    label, score...) rows."""
    try:
        cells = read_instances_csv(cfg.scores_path)
    except OSError as exc:
        raise LpevalError(f"cannot read score file: {exc}") from None
    if cells.label is None:
        raise LpevalError("external score file has no labels")
    if not cells.scores:
        raise LpevalError("external score file has no score column")
    return cells


def _write_scored(out, prefix, name, inst, feature):
    """Write ``inst``, scored by predictor ``name``, as ``<prefix>_<name>.csv``;
    a ``use`` of :func:`_graph_scored`."""
    out.render(f"{prefix}_{name}.csv", lambda fh: write_instances_csv(
        fh, inst, id_labels=feature.id_labels, score_keys=[name]))


def _ranked(cells):
    """One :class:`~lpeval.metrics.Ranking` with distance buckets per score
    column of ``cells``, from their counts."""
    return {name: Ranking(scores, cells.label, cells.distance, counts=cells.count)
            for name, scores in cells.scores.items()}


def _rankings(cfg, rows=None):
    """One :class:`~lpeval.metrics.Ranking` with distance buckets per
    predictor name, and the input's digest.

    A ``dataset.scores`` file is ranked from the counts of its distinct
    rows, so no column of the file's rows is held. Graph input is ranked
    from each predictor's scored rows, which ``rows(name, instances,
    feature)``, when given, sees first; only the rankings are kept.
    """
    if cfg.scores_path:
        return _ranked(_score_file(cfg)), sha256_file(cfg.scores_path)
    log, digest = _load_log(cfg)

    def rank(name, inst, feature):
        if rows is not None:
            rows(name, inst, feature)
        return Ranking(inst.scores[name], inst.label, inst.distance)

    return _graph_scored(cfg, log, rank), digest


def _sampled(cfg, rank):
    """``rank``, or in a sampling mode the ranking of the cells drawn from
    it."""
    if cfg.sampling.mode == "fair-random":
        cells = sample_fair(rank, cfg.sampling)
    elif cfg.sampling.mode == "kaggle-balanced":
        cells = sample_kaggle(rank, seed=cfg.seed)
    else:
        return rank
    (rank,) = _ranked(cells).values()
    return rank


def cmd_snapshot(cfg):
    """Materialize the four window snapshots as edge CSVs."""
    log, digest = _load_log(cfg)
    out = _Output(cfg, "snapshot")
    stats = {}
    for name in ("train_feature", "train_label", "test_feature", "test_label"):
        snap = build_snapshot(log, getattr(cfg.windows, name),
                              weight_rule=cfg.weight_rule)
        out.render(f"snapshot_{name}.csv", lambda fh: write_snapshot_csv(snap, fh))
        stats[name] = {"interval": list(snap.interval), "nodes": snap.n_nodes,
                       "edges": snap.n_edges, "density": snap.density(),
                       "total_weight": snap.total_weight}
    out.report("snapshot_report.json",
               {"was_unsorted": log.was_unsorted, "snapshots": stats})
    out.manifest(digest)


def cmd_score(cfg):
    """Write scored (and labeled) candidate instances per predictor.

    The candidates come from ``dataset.path``; without it this is a config
    error, found before any file is read.
    """
    log, digest = _load_log(cfg)
    out = _Output(cfg, "score")
    _graph_scored(cfg, log, functools.partial(_write_scored, out, "scores"))
    out.manifest(digest)


def cmd_evaluate(cfg):
    """Threshold curves and the per-distance report for each predictor.

    Everything is read from one ranking per predictor, which
    ``sampling.mode`` may replace by the ranking of the cells it draws
    from it. Graph input without sampling also writes each predictor's
    scored rows as ``instances_<name>.csv``. No other instance CSV is
    written: a score file is named by the manifest's input digest, and a
    sample is drawn as counts, not rows.
    """
    out = _Output(cfg, "evaluate")
    ranks, digest = _rankings(cfg, functools.partial(_write_scored, out, "instances")
                              if cfg.sampling.mode == "none" else None)
    summary = {}
    for name in sorted(ranks):
        rank = _sampled(cfg, ranks[name])
        entry = {"n_pos": rank.n_pos, "n_neg": rank.n_neg,
                 "sampling_mode": cfg.sampling.mode,
                 "sampling_rate": cfg.sampling.rate,
                 "direction_policy": cfg.policy, "generation_mode": cfg.mode,
                 "auroc": None, "aupr": None}
        # One ranking serves the curves (its tp/fp sum over the distance
        # buckets) and the per-distance report.
        if rank.n_pos and rank.n_neg:
            for curve, tag in ((roc_curve(rank), "roc"), (pr_curve(rank), "pr")):
                entry["tie_policy"] = curve.tie_policy
                entry["auroc" if tag == "roc" else "aupr"] = curve.area
                out.render(f"{tag}_{name}.csv", lambda fh: write_curve_csv(curve, fh))
                out.render(f"{tag}_{name}.json",
                           lambda fh: write_curve_json(curve, fh))
                if cfg.svg:
                    out.text(f"{tag}_{name}.svg", curve_svg(curve))
        rows = per_distance_eval(rank)
        out.csv(f"per_distance_{name}.csv",
                ["distance", "n_pos", "n_neg", "auroc", "aupr", "sufficient"],
                [("overall" if r.distance is None else distance_str(r.distance),
                  r.n_pos, r.n_neg, r.auroc, r.aupr, int(r.sufficient))
                 for r in rows])
        summary[name] = entry
    out.report("evaluation.json", {"predictors": summary})
    out.manifest(digest)


def cmd_variance(cfg):
    """Fair-sampling AUROC spread per rate, with the analytic reference."""
    ranks, digest = _rankings(cfg)
    out = _Output(cfg, "variance")
    reports = {}
    for name in sorted(ranks):
        rank = ranks[name]
        report = variance_experiment(rank, rates=cfg.variance_rates,
                                     repeats=cfg.variance_repeats, seed=cfg.seed,
                                     exact_counts=cfg.sampling.exact_counts)
        out.csv(f"variance_{name}.csv",
                ["rate", "mean", "min", "max", "variance", "n_valid",
                 "n_invalid", "analytic"],
                [(r.rate, r.mean, r.minimum, r.maximum, r.variance,
                  r.n_valid, r.n_invalid, r.analytic) for r in report.rows])
        reports[name] = report.as_dict()

        filt = filtered_negative_eval(rank)
        out.csv(f"filtered_negatives_{name}.csv",
                ["cut", "n_neg_removed", "n_neg_kept", "auroc"],
                [("baseline" if r.cut is None else distance_str(r.cut),
                  r.n_neg_removed, r.n_neg_kept, r.auroc) for r in filt])
    out.report("variance_report.json", {"predictors": reports})
    out.manifest(digest)


def cmd_surrogate(cfg):
    """Sigma-separation grid of the sub-problem vs. full-problem rankings."""
    # surrogate_grid's cells, with surrogate_simulation read from this
    # module's namespace, where a traced pass swaps it.
    cells = [surrogate_simulation(SurrogateParams(
                 **cfg.surrogate_counts, alpha=alpha, beta=beta,
                 trials=cfg.surrogate_trials))
             for alpha in cfg.surrogate_alphas for beta in cfg.surrogate_betas]
    out = _Output(cfg, "surrogate")
    by_cell = {(c.params.alpha, c.params.beta): c for c in cells}
    out.csv("surrogate_grid.csv",
            ["alpha"] + [f"beta={b:g}" for b in cfg.surrogate_betas],
            [[alpha] + [by_cell[(alpha, beta)].sigma
                        for beta in cfg.surrogate_betas]
             for alpha in cfg.surrogate_alphas])
    out.report("surrogate_report.json", {"scale": cfg.surrogate_scale,
                                         "cells": [c.as_dict() for c in cells]})
    out.manifest()


def cmd_kaggle_compare(cfg):
    """Fair random sampling vs. per-distance-bucket balanced sampling."""
    # Ranked before the first draw imports numpy.random, so that the
    # rankings' temporaries do not add to the memory that module holds; the
    # draw's own call compiles experiments before it imports numpy.random.
    ranks, digest = _rankings(cfg)
    repeat_seeds = kaggle_repeat_seeds(cfg.seed, cfg.kaggle_repeats)
    rows = []
    detail = {}
    for name in sorted(ranks):
        report = kaggle_compare(ranks[name], cfg.kaggle_rate, repeat_seeds)
        rows.append((name, report.full_auroc, report.fair_mean, report.kaggle_mean,
                     len(report.fair_values), len(report.kaggle_values)))
        detail[name] = report.as_dict()
    out = _Output(cfg, "kaggle-compare")
    out.csv("kaggle_compare.csv", ["predictor", "full_auroc", "fair_auroc",
                                   "kaggle_auroc", "fair_repeats",
                                   "kaggle_repeats"], rows)
    out.report("kaggle_report.json", {"rate": cfg.kaggle_rate,
                                      "predictors": detail})
    out.manifest(digest)


def cmd_temporal(cfg):
    """Per-slice AUROC/AUPR over the sliced test-label interval.

    The candidates and scores are those of ``score`` and ``evaluate``; each
    slice only relabels them. They come from ``dataset.path``, since a
    ``dataset.scores`` file has no event times to slice by. A slice count
    the test-label interval cannot hold is a config error found before the
    dataset is read.
    """
    cfg.require_windows()
    slice_intervals(cfg.windows.test_label, cfg.temporal.slices)
    log, digest = _load_log(cfg)
    sets = _graph_scored(cfg, log, lambda name, inst, feature: inst)
    reports = temporal_eval(sets, log, cfg.windows.test_label, cfg.temporal,
                            weight_rule=cfg.weight_rule)
    out = _Output(cfg, "temporal")
    for name, report in reports.items():
        out.csv(f"temporal_{name}.csv",
                ["slice", "begin", "end", "n_pos", "n_neg", "auroc", "aupr",
                 "valid"],
                [(r.index, r.begin, r.end, r.n_pos, r.n_neg, r.auroc, r.aupr,
                  int(r.valid)) for r in report.rows])
    out.report("temporal_report.json", {"predictors": {
        name: report.as_dict() for name, report in reports.items()}})
    out.manifest(digest)


def cmd_distance_dist(cfg):
    """Distribution of prior geodesic distance over newly formed links."""
    log, digest = _load_log(cfg)
    dist = new_link_distance_distribution(*_test_snapshots(cfg, log))
    out = _Output(cfg, "distance-dist")
    out.csv("distance_distribution.csv", ["distance", "probability"],
            [(distance_str(d), p) for d, p in dist.items()])
    out.report("distance_report.json", {"distribution": {
        distance_str(d): p for d, p in dist.items()}})
    out.manifest(digest)


_COMMANDS = {
    "snapshot": cmd_snapshot,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "variance": cmd_variance,
    "surrogate": cmd_surrogate,
    "kaggle-compare": cmd_kaggle_compare,
    "temporal": cmd_temporal,
    "distance-dist": cmd_distance_dist,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lpeval",
        description="Link-prediction evaluation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="key=value config file (INI sections)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", help="override run.out output directory")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override any config key (repeatable)")
    return parser


def load_config(args):
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"run.out={args.out}")
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    return RunConfig.from_overrides(overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LpevalError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # numpy's _ArrayMemoryError too
        print(f"data error: {args.command} ran out of memory", file=sys.stderr)
        return 3
    return 0


def run():
    """The process entry point: exit with ``main()``'s code, without the
    interpreter's teardown. A failed flush of stdout or stderr exits 120,
    the code the interpreter gives it."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
