"""lpeval: rigorous link-prediction evaluation.

Temporal snapshot construction, topological predictors, geodesic and
temporal stratification, threshold-curve metrics, and sampling-bias
experiments, behind both a library API and the ``lpeval`` command line.

The names below are exported lazily (PEP 562): ``import lpeval`` loads no
submodule and so not numpy, which lets ``lpeval.cli`` configure numpy's
BLAS before it is loaded. The first access to a name imports its module.
Inside the package, a module binds the names it calls from a module it
loads only on first use with :func:`_lazy`.
"""

__version__ = "0.1.0"

# The submodules exported by name; ``cells``, ``config``, ``scorefile`` and
# ``surrogate`` are not.
_MODULES = ("errors", "experiments", "graphstore", "metrics", "predictors", "rng",
            "stratify", "synth")
# Each exported name by the module that defines it, so that a name from a
# module without numpy (``config``, ``surrogate``) loads no numpy, and the
# score-file reader and the distance cells load no graph module.
_EXPORTS = {
    "cells": ("BEYOND", "DISCONNECTED", "distance_str", "parse_distance"),
    "config": ("PredictorId", "SamplingSpec", "TemporalSliceSpec", "WindowConfig"),
    "errors": ("ConfigError", "DataCorruptionError", "IngestError",
               "InvalidPairError", "LpevalError", "UndefinedMetricError",
               "UnknownNodeError"),
    "experiments": ("analytic_sampling_variance", "estimate_classifiable",
                    "filtered_negative_eval", "kaggle_compare",
                    "per_distance_eval", "sample_fair", "sample_kaggle",
                    "temporal_eval", "variance_experiment"),
    "graphstore": ("EventLog", "Snapshot", "build_snapshot", "ingest_events",
                   "write_snapshot_csv"),
    "metrics": ("ConfusionCounts", "Ranking", "ThresholdCurve", "aupr", "auroc",
                "average_precision", "confusion_at", "pr_curve", "rates",
                "roc_curve", "score_distribution", "tpr_k"),
    "predictors": ("adamic_adar", "aggregate_directional", "bfs_levels",
                   "common_neighbors", "preferential_attachment", "propflow",
                   "propflow_accounting", "propflow_all", "score_instances",
                   "score_pairs"),
    "scorefile": ("read_instances_csv",),
    "stratify": ("InstanceSet", "generate_test_set", "geodesic_bucket_enumerate",
                 "label_instances", "new_link_distance_distribution",
                 "write_instances_csv"),
    "surrogate": ("SurrogateParams", "surrogate_grid", "surrogate_simulation"),
    "synth": ("synthetic_event_log", "write_event_file"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULES, *_ORIGIN])


def _load(module):
    """The submodule ``module``, imported on first use. ``__import__``, not
    ``importlib.import_module``, so that ``python -X importtime`` lists it."""
    return __import__(f"{__name__}.{module}", fromlist=("*",))


def _lazy(module, *names):
    """One function per name of ``names``, to bind at module level in place
    of ``from .module import name``: each call imports ``module`` and calls
    the name's current value there, so ``module`` loads at the first call,
    and a name that a caller sets on the binding module (a traced pass, a
    test's monkeypatch) replaces the whole function."""
    def bind(name):
        def call(*args, **kwargs):
            return getattr(_load(module), name)(*args, **kwargs)
        call.__name__ = call.__qualname__ = name
        return call
    return tuple(bind(name) for name in names)


def __getattr__(name):
    if name in _MODULES:
        return _load(name)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_ORIGIN[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
