"""The benchmark's tracer (``lpbench/tracing.py``) reads library names:
a traced pass over the program must still run and count what it records."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from lpeval import (DISCONNECTED, InstanceSet, synthetic_event_log, write_event_file,
                    write_instances_csv)
from lpeval.config import RunConfig


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "lpbench"))
    return importlib.import_module("tracing")


@pytest.mark.filterwarnings("ignore:N\\*p")
def test_traced_pass_counts_tie_groups(tmp_path, tracing):
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    settings = [f"dataset.path={events}", "windows.train_feature=0:59",
                "windows.train_label=60:69", "windows.test_feature=0:79",
                "windows.test_label=80:100", "prediction.predictors=cn",
                "prediction.lmax=3", "variance.rates=0.5,1", "variance.repeats=3"]

    def traced(*commands, config=settings):
        tracer = tracing.Tracer()
        tracing.run_pass(tracer, [
            (name, RunConfig.from_overrides(
                config + [f"run.out={tmp_path / 'out' / name}"]))
            for name in commands])
        return tracer.reduce()

    both = traced("evaluate", "variance")
    assert both["metrics.tie_groups"] > 0
    assert both["experiments.per_distance_s"] > 0
    # the sampling experiments rank through the same traced Ranking
    assert traced("variance")["metrics.tie_groups"] > 0
    # cli calls the surrogate experiment by name, where the tracer swaps it
    assert traced("surrogate")["experiments.surrogate_s"] > 0
    # kaggle-compare reads a score file and ranks it through the names the
    # tracer swaps in cli: read_instances_csv and Ranking, whose wrapper
    # passes the counts on
    rng = np.random.default_rng(7)
    n = 400
    scores = tmp_path / "scores.csv"
    with open(scores, "w", encoding="utf-8", newline="") as fh:
        write_instances_csv(fh, InstanceSet(
            np.arange(n), np.arange(n) + n, rng.choice([2, 3, DISCONNECTED], n),
            rng.random(n) < 0.2, {"s": np.round(rng.random(n), 1)}))
    kaggle = traced("kaggle-compare", config=[f"dataset.scores={scores}",
                                              "kaggle.repeats=3", "kaggle.rate=0.5"])
    assert kaggle["stratify.read_instances_s"] > 0
    assert kaggle["metrics.tie_groups"] > 0
    assert kaggle["experiments.kaggle_s"] > 0
    # and so does variance
    variance = traced("variance", config=[f"dataset.scores={scores}",
                                          "variance.rates=0.5,1",
                                          "variance.repeats=3"])
    assert variance["stratify.read_instances_s"] > 0
    assert variance["metrics.tie_groups"] > 0
    # evaluate draws one sample per predictor through the sampler names the
    # tracer swaps in cli
    sampled = traced("evaluate", config=settings + [
        "prediction.predictors=cn,pa", "sampling.mode=fair-random",
        "sampling.rate=0.5"])
    assert sampled["experiments.samples_drawn"] == 2
    assert sampled["experiments.sample_s"] > 0


def test_traced_snapshot_counts_nodes_and_edges(tmp_path, tracing):
    # snapshot reads ingest_events and build_snapshot through the names the
    # tracer swaps in cli; its counts are those of the report it writes.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracing.run_pass(tracer, [("snapshot", RunConfig.from_overrides([
        f"dataset.path={events}", "windows.train_feature=0:59",
        "windows.train_label=60:69", "windows.test_feature=0:79",
        "windows.test_label=80:100", f"run.out={out}"]))])
    got = tracer.reduce()
    snapshots = json.loads((out / "snapshot_report.json").read_text())["snapshots"]
    assert got["graphstore.ingest_s"] > 0 and got["graphstore.events"] > 0
    assert got["graphstore.build_snapshot_s"] > 0
    assert got["graphstore.nodes"] == sum(s["nodes"] for s in snapshots.values()) > 0
    assert got["graphstore.edges"] == sum(s["edges"] for s in snapshots.values()) > 0
