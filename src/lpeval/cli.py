"""Command-line surface: reproducible runs from a declarative config file.

Every command validates its configuration up front (exit 2 on config
errors, exit 3 on data errors), writes artifacts atomically, and finishes
with a manifest listing each artifact's sha256. Reruns with the same config
and inputs produce identical digests. Undefined metrics are written as
explicit ``undefined`` markers, not errors.
"""

from __future__ import annotations

import os

# Before numpy loads: an idle OpenBLAS worker thread spins on a second core,
# and lpeval makes no BLAS call large enough to use it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import io
import sys

from . import __version__
from . import rng as rng_mod
from .config import RunConfig
from .errors import ConfigError, LpevalError
from .experiments import (filtered_negative_eval, kaggle_compare,
                          per_distance_eval, sample_fair, sample_kaggle,
                          surrogate_grid, temporal_eval, variance_experiment)
from .graphstore import build_snapshot, ingest_events, write_snapshot_csv
from .manifest import atomic_write_text, sha256_file, write_json, write_manifest
from .metrics import Ranking, pr_curve, roc_curve, write_curve_csv, write_curve_json
from .predictors import score_instances
from .render import curve_svg
from .rng import substream
from .stratify import (distance_str, generate_test_set, new_link_distance_distribution,
                       read_instances_csv, write_instances_csv)


def _fmt(value):
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(c) for c in row) + "\n" for row in rows)
    atomic_write_text(path, text)


def _write_artifact(path, write):
    """Render an artifact with ``write(buffer)`` and write it atomically."""
    buf = io.StringIO()
    write(buf)
    atomic_write_text(path, buf.getvalue())
    return path


def _load_log(cfg):
    cfg.require_dataset()
    try:
        log = ingest_events(cfg.dataset_path, format=cfg.dataset_format)
    except OSError as exc:
        raise LpevalError(f"cannot read dataset: {exc}") from None
    return log, sha256_file(cfg.dataset_path)


def _build_instances(cfg, log):
    cfg.require_windows()
    feature = build_snapshot(log, cfg.windows.test_feature,
                             weight_rule=cfg.weight_rule)
    label = build_snapshot(log, cfg.windows.test_label, weight_rule=cfg.weight_rule)
    instances = generate_test_set(feature, label, mode=cfg.mode, l_max=cfg.lmax,
                                  include_beyond=cfg.include_beyond,
                                  include_disconnected=cfg.include_disconnected)
    return feature, instances


def _scored_instance_sets(cfg):
    """One labeled, scored instance set per predictor name.

    Either computed from the dataset or loaded from an external score file
    in the instance CSV format (so third-party predictors evaluate through
    the same pipeline).
    """
    if cfg.scores_path:
        try:
            inst = read_instances_csv(cfg.scores_path)
        except OSError as exc:
            raise LpevalError(f"cannot read score file: {exc}") from None
        if inst.label is None:
            raise LpevalError("external score file has no labels")
        if not inst.scores:
            raise LpevalError("external score file has no score column")
        return {name: inst for name in inst.scores}, sha256_file(cfg.scores_path), None
    log, digest = _load_log(cfg)
    feature, instances = _build_instances(cfg, log)
    query = cfg.mode == "query"
    out = {}
    for pred in cfg.predictors:
        out[pred.name] = score_instances(feature, instances, pred,
                                         policy=cfg.policy, query_mode=query)
    return out, digest, feature


def _apply_sampling(cfg, inst):
    if cfg.sampling.mode == "fair-random":
        return sample_fair(inst, cfg.sampling)
    if cfg.sampling.mode == "kaggle-balanced":
        return sample_kaggle(inst, seed=cfg.seed)
    return inst


def _finish(cfg, command, artifacts, input_digest=None):
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = write_manifest(cfg.out_dir, command, cfg.echo(), artifacts,
                          input_digest=input_digest, toolkit_version=__version__)
    return artifacts + [path]


def cmd_snapshot(cfg):
    """Materialize the four window snapshots as edge CSVs."""
    log, digest = _load_log(cfg)
    cfg.require_windows()
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts = []
    stats = {}
    for name in ("train_feature", "train_label", "test_feature", "test_label"):
        snap = build_snapshot(log, getattr(cfg.windows, name),
                              weight_rule=cfg.weight_rule)
        path = os.path.join(cfg.out_dir, f"snapshot_{name}.csv")
        artifacts.append(_write_artifact(
            path, lambda fh: write_snapshot_csv(snap, fh)))
        stats[name] = {"interval": list(snap.interval), "nodes": snap.n_nodes,
                       "edges": snap.n_edges, "density": snap.density(),
                       "total_weight": snap.total_weight}
    report = os.path.join(cfg.out_dir, "snapshot_report.json")
    write_json(report, {"config": cfg.echo(), "seed": cfg.seed,
                        "was_unsorted": log.was_unsorted, "snapshots": stats})
    artifacts.append(report)
    return _finish(cfg, "snapshot", artifacts, digest)


def cmd_score(cfg):
    """Write scored (and labeled) candidate instances per predictor."""
    sets, digest, feature = _scored_instance_sets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts = []
    labels = feature.id_labels if feature is not None else None
    for name in sorted(sets):
        path = os.path.join(cfg.out_dir, f"scores_{name}.csv")
        artifacts.append(_write_artifact(path, lambda fh: write_instances_csv(
            fh, sets[name], id_labels=labels, score_keys=[name])))
    return _finish(cfg, "score", artifacts, digest)


def cmd_evaluate(cfg):
    """Threshold curves and the per-distance report for each predictor."""
    sets, digest, feature = _scored_instance_sets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts = []
    summary = {}
    labels = feature.id_labels if feature is not None else None
    for name in sorted(sets):
        inst = _apply_sampling(cfg, sets[name])
        scores = inst.scores[name]
        path = os.path.join(cfg.out_dir, f"instances_{name}.csv")
        artifacts.append(_write_artifact(path, lambda fh: write_instances_csv(
            fh, inst, id_labels=labels, score_keys=[name])))

        entry = {"n_pos": inst.n_pos, "n_neg": inst.n_neg,
                 "sampling_mode": cfg.sampling.mode,
                 "sampling_rate": cfg.sampling.rate,
                 "direction_policy": cfg.policy, "generation_mode": cfg.mode,
                 "auroc": None, "aupr": None}
        # One ranking serves the curves (its tp/fp sum over the distance
        # buckets) and the per-distance report.
        rank = Ranking(scores, inst.label, inst.distance) if len(inst) else None
        if inst.n_pos and inst.n_neg:
            for curve, tag in ((roc_curve(rank), "roc"), (pr_curve(rank), "pr")):
                entry["tie_policy"] = curve.tie_policy
                entry["auroc" if tag == "roc" else "aupr"] = curve.area
                base = os.path.join(cfg.out_dir, f"{tag}_{name}")
                artifacts.append(_write_artifact(
                    base + ".csv", lambda fh: write_curve_csv(curve, fh)))
                artifacts.append(_write_artifact(
                    base + ".json", lambda fh: write_curve_json(curve, fh)))
                if cfg.svg:
                    atomic_write_text(base + ".svg", curve_svg(curve))
                    artifacts.append(base + ".svg")
        rows = per_distance_eval(inst, scores, rank=rank)
        dpath = os.path.join(cfg.out_dir, f"per_distance_{name}.csv")
        _write_csv(dpath, ["distance", "n_pos", "n_neg", "auroc", "aupr",
                           "sufficient"],
                   [("overall" if r.distance is None else distance_str(r.distance),
                     r.n_pos, r.n_neg, r.auroc, r.aupr, int(r.sufficient))
                    for r in rows])
        artifacts.append(dpath)
        summary[name] = entry
    report = os.path.join(cfg.out_dir, "evaluation.json")
    write_json(report, {"config": cfg.echo(), "seed": cfg.seed,
                        "predictors": summary})
    artifacts.append(report)
    return _finish(cfg, "evaluate", artifacts, digest)


def cmd_variance(cfg):
    """Fair-sampling AUROC spread per rate, with the analytic reference."""
    sets, digest, _ = _scored_instance_sets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts = []
    reports = {}
    for name in sorted(sets):
        inst = sets[name]
        rank = Ranking(inst.scores[name], inst.label, inst.distance)
        report = variance_experiment(inst, name, rates=cfg.variance_rates,
                                     repeats=cfg.variance_repeats, seed=cfg.seed,
                                     exact_counts=cfg.sampling.exact_counts,
                                     rank=rank)
        path = os.path.join(cfg.out_dir, f"variance_{name}.csv")
        _write_csv(path, ["rate", "mean", "min", "max", "variance", "n_valid",
                          "n_invalid", "analytic"],
                   [(r.rate, r.mean, r.minimum, r.maximum, r.variance,
                     r.n_valid, r.n_invalid, r.analytic) for r in report.rows])
        artifacts.append(path)
        reports[name] = report.as_dict()

        filt = filtered_negative_eval(inst, name, rank=rank)
        fpath = os.path.join(cfg.out_dir, f"filtered_negatives_{name}.csv")
        _write_csv(fpath, ["cut", "n_neg_removed", "n_neg_kept", "auroc"],
                   [("baseline" if r.cut is None else distance_str(r.cut),
                     r.n_neg_removed, r.n_neg_kept, r.auroc) for r in filt])
        artifacts.append(fpath)
    report_path = os.path.join(cfg.out_dir, "variance_report.json")
    write_json(report_path, {"config": cfg.echo(), "seed": cfg.seed,
                             "predictors": reports})
    artifacts.append(report_path)
    return _finish(cfg, "variance", artifacts, digest)


def cmd_surrogate(cfg):
    """Sigma-separation grid of the sub-problem vs. full-problem simulation."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    cells = surrogate_grid(cfg.surrogate_alphas, cfg.surrogate_betas,
                           **cfg.surrogate_counts, trials=cfg.surrogate_trials,
                           seed=cfg.seed)
    grid_path = os.path.join(cfg.out_dir, "surrogate_grid.csv")
    header = ["alpha"] + [f"beta={b:g}" for b in cfg.surrogate_betas]
    rows = []
    by_cell = {(c.params.alpha, c.params.beta): c for c in cells}
    for alpha in cfg.surrogate_alphas:
        rows.append([alpha] + [by_cell[(alpha, beta)].sigma
                               for beta in cfg.surrogate_betas])
    _write_csv(grid_path, header, rows)
    report_path = os.path.join(cfg.out_dir, "surrogate_report.json")
    write_json(report_path, {"config": cfg.echo(), "seed": cfg.seed,
                             "scale": cfg.surrogate_scale,
                             "cells": [c.as_dict() for c in cells]})
    return _finish(cfg, "surrogate", [grid_path, report_path])


def cmd_kaggle_compare(cfg):
    """Fair random sampling vs. per-distance-bucket balanced sampling."""
    sets, digest, _ = _scored_instance_sets(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    master = substream(cfg.seed, rng_mod.STREAM_KAGGLE_SAMPLE, 999)
    repeat_seeds = master.integers(0, 2 ** 62, size=cfg.kaggle_repeats)
    rows = []
    detail = {}
    for name in sorted(sets):
        report = kaggle_compare(sets[name], name, cfg.kaggle_rate, repeat_seeds)
        rows.append((name, report.full_auroc, report.fair_mean, report.kaggle_mean,
                     len(report.fair_values), len(report.kaggle_values)))
        detail[name] = report.as_dict()
    path = os.path.join(cfg.out_dir, "kaggle_compare.csv")
    _write_csv(path, ["predictor", "full_auroc", "fair_auroc", "kaggle_auroc",
                      "fair_repeats", "kaggle_repeats"], rows)
    report = os.path.join(cfg.out_dir, "kaggle_report.json")
    write_json(report, {"config": cfg.echo(), "seed": cfg.seed,
                        "rate": cfg.kaggle_rate, "predictors": detail})
    return _finish(cfg, "kaggle-compare", [path, report], digest)


def cmd_temporal(cfg):
    """Per-slice AUROC/AUPR over the sliced test-label interval."""
    log, digest = _load_log(cfg)
    cfg.require_windows()
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts = []
    reports = {}
    for pred in cfg.predictors:
        report = temporal_eval(log, cfg.windows, cfg.temporal, pred,
                               policy=cfg.policy, l_max=cfg.lmax,
                               include_beyond=cfg.include_beyond,
                               include_disconnected=cfg.include_disconnected,
                               weight_rule=cfg.weight_rule)
        path = os.path.join(cfg.out_dir, f"temporal_{pred.name}.csv")
        _write_csv(path, ["slice", "begin", "end", "n_pos", "n_neg", "auroc",
                          "aupr", "valid"],
                   [(r.index, r.begin, r.end, r.n_pos, r.n_neg, r.auroc, r.aupr,
                     int(r.valid)) for r in report.rows])
        artifacts.append(path)
        reports[pred.name] = report.as_dict()
    rpath = os.path.join(cfg.out_dir, "temporal_report.json")
    write_json(rpath, {"config": cfg.echo(), "seed": cfg.seed,
                       "predictors": reports})
    artifacts.append(rpath)
    return _finish(cfg, "temporal", artifacts, digest)


def cmd_distance_dist(cfg):
    """Distribution of prior geodesic distance over newly formed links."""
    log, digest = _load_log(cfg)
    cfg.require_windows()
    os.makedirs(cfg.out_dir, exist_ok=True)
    feature = build_snapshot(log, cfg.windows.test_feature,
                             weight_rule=cfg.weight_rule)
    label = build_snapshot(log, cfg.windows.test_label, weight_rule=cfg.weight_rule)
    dist = new_link_distance_distribution(feature, label)
    path = os.path.join(cfg.out_dir, "distance_distribution.csv")
    _write_csv(path, ["distance", "probability"],
               [(distance_str(d), p) for d, p in dist.items()])
    report = os.path.join(cfg.out_dir, "distance_report.json")
    write_json(report, {"config": cfg.echo(), "seed": cfg.seed,
                        "distribution": {distance_str(d): p
                                         for d, p in dist.items()}})
    return _finish(cfg, "distance-dist", [path, report], digest)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
