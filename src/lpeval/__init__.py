"""lpeval: rigorous link-prediction evaluation.

Temporal snapshot construction, topological predictors, geodesic and
temporal stratification, threshold-curve metrics, and sampling-bias
experiments, behind both a library API and the ``lpeval`` command line.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataCorruptionError, IngestError,
                     InvalidPairError, LpevalError, UndefinedMetricError,
                     UnknownNodeError)
from .experiments import (SamplingSpec, SurrogateParams, TemporalSliceSpec,
                          analytic_sampling_variance, estimate_classifiable,
                          filtered_negative_eval, kaggle_compare,
                          per_distance_eval, sample_fair, sample_kaggle,
                          surrogate_grid, surrogate_simulation, temporal_eval,
                          variance_experiment)
from .graphstore import (EventLog, Snapshot, WindowConfig, build_snapshot,
                         ingest_events, write_snapshot_csv)
from .metrics import (ConfusionCounts, Ranking, ThresholdCurve, aupr, auroc,
                      average_precision, confusion_at, pr_curve, rates,
                      roc_curve, score_distribution, tpr_k)
from .predictors import (PredictorId, adamic_adar, aggregate_directional,
                         bfs_levels, common_neighbors, preferential_attachment,
                         propflow, propflow_accounting, propflow_all,
                         score_instances, score_pairs)
from .stratify import (BEYOND, DISCONNECTED, InstanceSet, distance_str,
                       generate_test_set, geodesic_bucket_enumerate,
                       label_instances, new_link_distance_distribution,
                       parse_distance, read_instances_csv, write_instances_csv)
from .synth import synthetic_event_log, write_event_file

__all__ = [name for name in dir() if not name.startswith("_")]
