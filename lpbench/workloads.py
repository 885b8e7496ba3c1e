"""The benchmark's workloads: input sizes, CLI configuration and commands.

Standard library only. ``run.py`` imports this module and nothing heavier
while it starts CLI processes, because a child's ``ru_maxrss`` starts from
the resident set of the process that started it.

Sizes are chosen so that one repeat of a workload's command sequence takes
a few seconds on a 2-core machine, leaving several repeats per run to take
a median over. They are not chosen to avoid any known defect; see
``README.md`` for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

HORIZON = 99
FEATURE_END = 79
LABEL_BEGIN = 80
# The generator puts every feature-window edge in [0, FEATURE_END] and every
# label-window edge in [LABEL_BEGIN, HORIZON], so these windows split the
# log exactly where it was cut.
WINDOWS = {"train_feature": "0:59", "train_label": "60:69",
           "test_feature": f"0:{FEATURE_END}",
           "test_label": f"{LABEL_BEGIN}:{HORIZON}"}
TEMPORAL_SLICES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str          # function of gen.py that writes the input file
    params: dict            # its keyword arguments besides seed and path
    input_file: str
    dataset_key: str        # [dataset] key the input file is passed as
    config: dict            # every other config section
    commands: tuple         # ((command, ("section.key=value", ...)), ...)


def _graph_config(predictors, beyond):
    flag = "true" if beyond else "false"
    return {"windows": WINDOWS,
            "prediction": {"predictors": predictors, "lmax": "4",
                           "include_beyond": flag, "include_disconnected": flag},
            "temporal": {"slices": TEMPORAL_SLICES}}


WORKLOADS = {w.name: w for w in (
    Workload(
        "local", "local_log",
        {"communities": 20, "size": 30, "mean_degree": 6, "locality": 0.9,
         "bridges": 60, "label_edges": 150},
        "events.tsv", "path", _graph_config("cn,aa,pa,pf:4", beyond=False),
        (("snapshot", ()), ("distance-dist", ()), ("evaluate", ()),
         ("temporal", ("prediction.predictors=cn",)))),
    Workload(
        "full", "full_log",
        {"component_sizes": (200, 80, 60, 40, 20), "mean_degree": 3,
         "locality": 0.5, "label_edges": 150, "new_nodes": 20},
        "events.tsv", "path", _graph_config("cn,pa", beyond=True),
        (("evaluate", ()), ("score", ()))),
    Workload(
        "sampling", "score_file", {"rows": 200_000, "n_nodes": 1500},
        "scores.csv", "scores",
        # surrogate runs at 1/1000 of the Condmat counts (the default scale).
        {"variance": {"repeats": "20"}, "kaggle": {"repeats": "10"},
         "surrogate": {"alphas": "0.2,0.9", "betas": "10,50", "scale": "1000",
                       "trials": "10000"}},
        (("variance", ()), ("kaggle-compare", ()), ("surrogate", ()))),
)}
