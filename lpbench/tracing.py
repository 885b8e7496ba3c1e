"""In-process traced run of a workload's command sequence.

The traced run calls each command's own function in ``lpeval.cli`` (its
``_COMMANDS`` table) with the configuration the CLI would build, so it
runs exactly the program's code path. For the duration of a traced pass
the public functions that ``lpeval.cli``, ``lpeval.experiments``,
``lpeval.stratify``, ``lpeval.predictors`` and ``lpeval.manifest`` call
are swapped, in those modules' namespaces, for wrappers that record a span
(name, start, end, parent) and counts around each call. Spans and counts
stay in memory and are reduced to the per-layer metrics when the run ends.

A span named ``<layer>.<what>`` reports its inclusive time as
``<layer>.<what>_s``; a layer's self time ``<layer>.self_s`` is the time of
its spans minus the time of their child spans. Counts are totals of the
work done over one pass.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

from lpeval import (cli, experiments, graphstore, manifest, metrics, predictors,
                    stratify)
from lpeval.config import RunConfig

LAYERS = ("graphstore", "stratify", "predictors", "metrics", "experiments",
          "manifest")
CLI_COMMANDS = ("snapshot", "distance-dist", "evaluate", "temporal", "score",
                "variance", "kaggle-compare", "surrogate")
MIB = float(1 << 20)

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    [(f"graphstore.{m}", u) for m, u in (
        ("ingest_s", "s"), ("build_snapshot_s", "s"), ("events", "count"),
        ("nodes", "count"), ("edges", "count"))]
    + [(f"stratify.{m}", u) for m, u in (
        ("enumerate_s", "s"), ("bfs_sources", "count"),
        ("candidates_finite", "count"), ("candidates_beyond", "count"),
        ("candidates_disconnected", "count"), ("positives", "count"),
        ("label_s", "s"), ("distance_dist_s", "s"), ("write_instances_s", "s"),
        ("write_instances_mb", "MiB"), ("read_instances_s", "s"))]
    + [(f"predictors.{m}", u) for m, u in (
        ("cn_s", "s"), ("aa_s", "s"), ("pa_s", "s"), ("pf_s", "s"),
        ("pairs_scored", "count"), ("pf_sweeps", "count"))]
    + [(f"metrics.{m}", u) for m, u in (
        ("ranking_s", "s"), ("curves_s", "s"), ("tie_groups", "count"))]
    + [(f"experiments.{m}", u) for m, u in (
        ("variance_s", "s"), ("kaggle_s", "s"), ("filtered_s", "s"),
        ("per_distance_s", "s"), ("temporal_s", "s"), ("surrogate_s", "s"),
        ("samples_drawn", "count"), ("invalid_repeats", "count"),
        ("np_warnings", "count"))]
    + [("manifest.write_s", "s"), ("manifest.bytes_hashed", "bytes")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"cli.{c}_{m}", u) for c in CLI_COMMANDS
       for m, u in (("s", "s"), ("rss_mb", "MiB"))]
    + [("trace.overhead_s", "s")]
)

_PREDICTOR_SPANS = {"common-neighbors": "cn", "adamic-adar": "aa",
                    "preferential-attachment": "pa", "propflow": "pf"}


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += int(n)

    def dump(self):
        """Spans (times from the first span's start) and counts, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}

    def reduce(self):
        """``{metric: value}`` of inclusive span times, self times and counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}_s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += end - start - child[i]
        out.update(self.counts)
        out["stratify.write_instances_mb"] = \
            out.pop("stratify.write_instances_bytes", 0) / MIB
        return out


def _wrappers(tr):
    """``(module, name, wrapper)`` for every call a traced pass records.

    Each wrapper times the library function in a span and records the
    counts its arguments or result carry. A name is swapped in the module
    that calls it, because ``lpeval`` modules import functions by name.
    """

    def wrap(span, fn, after=None):
        def call(*args, **kwargs):
            with tr.span(span):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return call

    def counted(name, fn):
        def call(*args, **kwargs):
            tr.count(name)
            return fn(*args, **kwargs)
        return call

    def snapshot_counts(snap, *_, **__):
        tr.count("graphstore.nodes", snap.n_nodes)
        tr.count("graphstore.edges", snap.n_edges)

    def candidate_counts(cands, *_, **__):
        d = cands.distance
        tr.count("stratify.candidates_finite", (d < stratify.BEYOND).sum())
        tr.count("stratify.candidates_beyond", (d == stratify.BEYOND).sum())
        tr.count("stratify.candidates_disconnected",
                 (d == stratify.DISCONNECTED).sum())

    def written_bytes(_, buf, *__, **___):
        tr.count("stratify.write_instances_bytes", len(buf.getvalue().encode()))

    def variance_counts(report, *_, **__):
        for row in report.rows:
            tr.count("experiments.samples_drawn", row.n_valid + row.n_invalid)
            tr.count("experiments.invalid_repeats", row.n_invalid)

    def sampled(_, *__, **___):
        tr.count("experiments.samples_drawn")

    ranking = wrap("metrics.ranking", metrics.Ranking,
                   lambda rank, *_, **__: tr.count("metrics.tie_groups",
                                                   rank.bounds.size - 1))

    def area(fn):
        # Build the Ranking here, as the metric would, so that its tie
        # groups are counted and its construction timed.
        def call(scores, labels=None):
            rank = scores if isinstance(scores, metrics.Ranking) \
                else ranking(scores, labels)
            with tr.span("metrics.ranking"):
                return fn(rank)
        return call

    def score_instances(s, instances, predictor, score=predictors.score_instances,
                        **kwargs):
        tr.count("predictors.pairs_scored", len(instances))
        with tr.span(f"predictors.{_PREDICTOR_SPANS[predictor.kind]}"):
            return score(s, instances, predictor, **kwargs)

    def hashed(path, sha256_file=manifest.sha256_file):
        tr.count("manifest.bytes_hashed", os.path.getsize(path))
        with tr.span("manifest.hash"):
            return sha256_file(path)

    shared = {
        "ingest_events": wrap(
            "graphstore.ingest", graphstore.ingest_events,
            lambda log, *_, **__: tr.count("graphstore.events", log.n_events)),
        "build_snapshot": wrap("graphstore.build_snapshot",
                               graphstore.build_snapshot, snapshot_counts),
        "write_snapshot_csv": wrap("graphstore.write_snapshot",
                                   graphstore.write_snapshot_csv),
        "generate_test_set": wrap("stratify.generate_test_set",
                                  stratify.generate_test_set),
        "geodesic_bucket_enumerate": wrap(
            "stratify.enumerate", stratify.geodesic_bucket_enumerate,
            candidate_counts),
        "label_instances": wrap(
            "stratify.label", stratify.label_instances,
            lambda inst, *_, **__: tr.count("stratify.positives", inst.n_pos)),
        "new_link_distance_distribution": wrap(
            "stratify.distance_dist", stratify.new_link_distance_distribution),
        "write_instances_csv": wrap("stratify.write_instances",
                                    stratify.write_instances_csv, written_bytes),
        "read_instances_csv": wrap("stratify.read_instances",
                                   stratify.read_instances_csv),
        "score_instances": score_instances,
        "Ranking": ranking,
        "auroc": area(metrics.auroc),
        "aupr": area(metrics.aupr),
        "roc_curve": wrap("metrics.curves", metrics.roc_curve),
        "pr_curve": wrap("metrics.curves", metrics.pr_curve),
        "write_curve_csv": wrap("metrics.write_curves", metrics.write_curve_csv),
        "write_curve_json": wrap("metrics.write_curves", metrics.write_curve_json),
        "variance_experiment": wrap("experiments.variance",
                                    experiments.variance_experiment,
                                    variance_counts),
        "filtered_negative_eval": wrap("experiments.filtered",
                                       experiments.filtered_negative_eval),
        "per_distance_eval": wrap("experiments.per_distance",
                                  experiments.per_distance_eval),
        "temporal_eval": wrap("experiments.temporal", experiments.temporal_eval),
        "surrogate_simulation": wrap("experiments.surrogate",
                                     experiments.surrogate_simulation),
        "sample_fair": wrap("experiments.sample", experiments.sample_fair, sampled),
        "sample_kaggle": wrap("experiments.sample", experiments.sample_kaggle,
                              sampled),
        "atomic_write_text": wrap("manifest.write", manifest.atomic_write_text),
        "write_json": wrap("manifest.write", manifest.write_json),
        "write_manifest": wrap("manifest.write", manifest.write_manifest),
        "sha256_file": hashed,
    }
    swaps = [(mod, name, fn) for mod in (cli, experiments, stratify)
             for name, fn in shared.items() if hasattr(mod, name)]
    swaps += [(manifest, "sha256_file", hashed),
              (stratify, "bfs_levels",
               counted("stratify.bfs_sources", stratify.bfs_levels)),
              (predictors, "propflow_all",
               counted("predictors.pf_sweeps", predictors.propflow_all))]
    return swaps


@contextmanager
def _swapped(swaps):
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in swaps]
    try:
        for mod, name, fn in swaps:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def _run_command(tr, name, cfg):
    """``lpeval.cli``'s function for command ``name``, as ``main`` calls it.

    ``kaggle-compare`` has no library entry point of its own, so its whole
    command is the ``experiments.kaggle`` span. ``variance`` warns once per
    non-integral ``N*p``; the warnings are counted, not printed.
    """
    kaggle = tr is not None and name == "kaggle-compare"
    with tr.span("experiments.kaggle") if kaggle else nullcontext(), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli._COMMANDS[name](cfg)
    if tr is not None:
        tr.count("experiments.np_warnings",
                 sum("N*p" in str(w.message) for w in caught))


def configs(config, commands, out_root):
    """``(name, RunConfig)`` per command, as ``lpeval.cli`` would load them
    with ``--config config --out <out_root>/<name>``."""
    return [(name, RunConfig.from_file(
                config, list(overrides) + [f"run.out={os.path.join(out_root, name)}"]))
            for name, overrides in commands]


def run_pass(tracer, commands):
    """One in-process pass over ``commands`` (``(name, RunConfig)`` pairs);
    returns its wall time. ``tracer`` None runs the pass untraced."""
    start = time.perf_counter()
    if tracer is None:
        for name, cfg in commands:
            _run_command(None, name, cfg)
    else:
        with _swapped(_wrappers(tracer)):
            for name, cfg in commands:
                with tracer.span(f"pass.{name}"):
                    _run_command(tracer, name, cfg)
    return time.perf_counter() - start
