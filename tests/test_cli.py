import ast
import builtins
import dis
import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import lpeval
from lpeval import (BEYOND, DISCONNECTED, InstanceSet, PredictorId,
                    build_snapshot, cli, experiments, generate_test_set,
                    ingest_events, score_instances, synthetic_event_log,
                    write_event_file, write_instances_csv)
from lpeval.cells import InstanceCounts
from lpeval.manifest import sha256_file

from oracles import read_instances_rows


def test_threads_setting_is_a_config_error(capsys):
    assert cli.main(["snapshot", "--set", "run.threads=2"]) == 2
    assert "run.threads" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "run.seed=-1", "variance.repeats=0", "variance.repeats=-1",
    "variance.rates=", "variance.rates= , ", "kaggle.repeats=0",
    "kaggle.repeats=-1",
])
@pytest.mark.parametrize("command", ["variance", "kaggle-compare"])
def test_sampling_settings_out_of_range_are_config_errors(tmp_path, capsys,
                                                          command, setting):
    scores = tmp_path / "scores.csv"
    scores.write_text("u,v,distance,label,score\n0,1,2,1,0.5\n0,2,3,0,0.2\n",
                      encoding="utf-8")
    assert cli.main([command, "--out", str(tmp_path / "out"), "--set",
                     f"dataset.scores={scores}", "--set", setting]) == 2
    assert setting.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_a_config_error(capsys):
    assert cli.main(["surrogate", "--seed", "-1"]) == 2
    assert "run.seed" in capsys.readouterr().err


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["snapshot", "--threads", "2"])
    assert exc.value.code == 2


WINDOWS = ["--set", "windows.train_feature=0:59",
           "--set", "windows.train_label=60:69",
           "--set", "windows.test_feature=0:79",
           "--set", "windows.test_label=80:100"]


def test_evaluate_and_score_rerun_identically(tmp_path):
    # Ids holding ',' and '"' must be quoted in every instance CSV.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3, id_prefix='n,"'),
                     events)
    out = tmp_path / "out"
    args = ["--out", str(out), "--set", f"dataset.path={events}", *WINDOWS,
            "--set", "prediction.predictors=cn,pa,pf:2",
            "--set", "prediction.lmax=3"]
    manifests = {"evaluate": [], "score": []}
    for _ in range(2):
        for command, texts in manifests.items():
            assert cli.main([command] + args) == 0
            texts.append((out / "manifest.json").read_text())
    for first, second in manifests.values():
        assert first == second

    log = ingest_events(str(events))
    feature = build_snapshot(log, (0, 79))
    inst = generate_test_set(feature, build_snapshot(log, (80, 100)), l_max=3)
    index = {name: i for i, name in enumerate(feature.id_labels)}
    for text in ("cn", "pa", "pf:2"):
        pred = PredictorId.parse(text)
        want = score_instances(feature, inst, pred)
        back = read_instances_rows(str(out / f"scores_{pred.name}.csv"),
                                   id_index=index)
        assert np.array_equal(back.u, want.u)
        assert np.array_equal(back.v, want.v)
        assert np.array_equal(back.distance, want.distance)
        assert np.array_equal(back.label, want.label)
        assert np.array_equal(back.scores["score"].view(np.uint64),
                              want.scores[pred.name].view(np.uint64))


def test_score_output_with_string_ids_reads_back(tmp_path):
    # score writes node labels (n00042) as ids; evaluate on that file
    # through dataset.scores gives the graph evaluate's AUROCs and curves.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    args = ["--set", f"dataset.path={events}", *WINDOWS,
            "--set", "prediction.predictors=cn", "--set", "prediction.lmax=3"]
    assert cli.main(["score", "--out", str(tmp_path / "score"), *args]) == 0
    assert cli.main(["evaluate", "--out", str(tmp_path / "graph"), *args]) == 0
    scores = tmp_path / "score" / "scores_common-neighbors.csv"
    rows = [line.split(",") for line in scores.read_text(encoding="utf-8").splitlines()]
    assert all(u.startswith("n") and v.startswith("n") for u, v, *_ in rows[1:])
    assert cli.main(["evaluate", "--out", str(tmp_path / "file"),
                     "--set", f"dataset.scores={scores}"]) == 0
    for kind in ("per_distance", "roc", "pr"):
        want = (tmp_path / "graph" / f"{kind}_common-neighbors.csv").read_text(
            encoding="utf-8")
        assert want.count("\n") > 2
        assert (tmp_path / "file" / f"{kind}_score.csv").read_text(encoding="utf-8") == want


@pytest.mark.filterwarnings("ignore:N\\*p")
def test_sampling_commands_rerun_identically(tmp_path):
    rng = np.random.default_rng(5)
    n = 400
    label = rng.random(n) < 0.1
    dist = rng.choice([2, 3, 4, BEYOND, DISCONNECTED], size=n)
    inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label,
                       {"cn": np.round(rng.random(n) + label * 0.3, 1)})
    scores = tmp_path / "scores.csv"
    with open(scores, "w", encoding="utf-8") as fh:
        write_instances_csv(fh, inst)
    out = tmp_path / "out"
    args = ["--out", str(out), "--set", f"dataset.scores={scores}",
            "--set", "variance.rates=0.01,0.2,1", "--set", "variance.repeats=5",
            "--set", "kaggle.repeats=3"]
    manifests = {"variance": [], "kaggle-compare": []}
    for _ in range(2):
        for command, texts in manifests.items():
            assert cli.main([command] + args) == 0
            texts.append((out / "manifest.json").read_text())
    for first, second in manifests.values():
        assert first == second
    rows = (out / "variance_score.csv").read_text().splitlines()
    assert rows[-1].startswith("1.0,")


def sampling_score_file(tmp_path):
    """A labeled score file over sentinel and finite buckets, and its rows."""
    rng = np.random.default_rng(9)
    n = 600
    label = rng.random(n) < 0.15
    dist = rng.choice([2, 3, 4, BEYOND, DISCONNECTED], size=n)
    inst = InstanceSet(np.arange(n), np.arange(n) + n, dist, label,
                       {"cn": np.round(rng.random(n) + label * 0.3, 1)})
    path = tmp_path / "scores.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_instances_csv(fh, inst)
    return path, inst


def evaluation_entry(out):
    return json.loads((out / "evaluation.json").read_text())["predictors"]["score"]


@pytest.mark.parametrize("mode, rate, exact", [
    ("fair-random", "0.3", "false"), ("fair-random", "0.3", "true"),
    ("kaggle-balanced", "", "false"),
])
def test_evaluate_sampling_modes(tmp_path, mode, rate, exact):
    scores, inst = sampling_score_file(tmp_path)
    base = ["--set", f"dataset.scores={scores}"]
    assert cli.main(["evaluate", "--out", str(tmp_path / "full"), *base]) == 0
    full = evaluation_entry(tmp_path / "full")
    out = tmp_path / "out"
    args = ["evaluate", "--out", str(out), *base, "--set", f"sampling.mode={mode}",
            "--set", f"sampling.rate={rate}", "--set", f"sampling.exact_counts={exact}"]
    manifests = []
    for _ in range(2):
        assert cli.main(args) == 0
        manifests.append((out / "manifest.json").read_text())
    assert manifests[0] == manifests[1]
    # A score file's rows are not written back, and a sample has none.
    assert not [*out.glob("instances_*"), *(tmp_path / "full").glob("instances_*")]
    entry = evaluation_entry(out)
    assert entry["sampling_mode"] == mode
    assert entry["n_pos"] == full["n_pos"] == inst.n_pos
    if mode == "kaggle-balanced":
        assert entry["sampling_rate"] is None
        assert entry["n_neg"] == sum(
            min(inst.label[inst.distance == d].sum(),
                (~inst.label[inst.distance == d]).sum())
            for d in np.unique(inst.distance))
    elif exact == "true":
        assert entry["n_neg"] == round(full["n_neg"] * float(rate))
    else:
        assert 0 < entry["n_neg"] < full["n_neg"]


def test_evaluate_samples_graph_input_as_counts(tmp_path):
    # Graph input writes its rows, unless a sampling mode draws counts.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    args = ["--set", f"dataset.path={events}", *WINDOWS,
            "--set", "prediction.predictors=cn,pa", "--set", "prediction.lmax=3"]
    assert cli.main(["evaluate", "--out", str(tmp_path / "full"), *args]) == 0
    assert cli.main(["evaluate", "--out", str(tmp_path / "out"), *args,
                     "--set", "sampling.mode=kaggle-balanced"]) == 0
    assert len(list((tmp_path / "full").glob("instances_*.csv"))) == 2
    assert not list((tmp_path / "out").glob("instances_*"))
    full = json.loads((tmp_path / "full" / "evaluation.json").read_text())
    sampled = json.loads((tmp_path / "out" / "evaluation.json").read_text())
    for name, entry in sampled["predictors"].items():
        assert entry["n_pos"] == entry["n_neg"] == full["predictors"][name]["n_pos"]


def test_evaluate_holds_one_scored_set(tmp_path, monkeypatch):
    # Each predictor is scored, written and ranked in turn, on a set that
    # shares the candidates' columns, so three predictors peak where the
    # largest of them alone does. The input has the benchmark's full shape:
    # 79,200 candidates over every bucket.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]
                                    / "lpbench"))
    gen = importlib.import_module("gen")
    full = importlib.import_module("workloads").WORKLOADS["full"]
    events = tmp_path / "events.tsv"
    getattr(gen, full.generator)(21, str(events), **full.params)
    args = ["--set", f"dataset.path={events}"] + [
        arg for section, keys in full.config.items() for key, value in keys.items()
        for arg in ("--set", f"{section}.{key}={value}")]

    def peak(predictors):
        tracemalloc.start()
        try:
            assert cli.main(["evaluate", "--out", str(tmp_path / "out"), *args,
                             "--set", f"prediction.predictors={predictors}"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("cn,aa,pa")  # the modules a run imports are loaded outside the peaks
    single = max(peak(name) for name in ("cn", "aa", "pa"))
    assert peak("cn,aa,pa") <= single + (1 << 18)


@pytest.mark.parametrize("settings, field", [
    (["sampling.mode=stratified"], "sampling.mode"),
    (["sampling.mode=fair-random"], "sampling.rate"),
    (["sampling.mode=kaggle-balanced", "sampling.rate=0.3"], "sampling.rate"),
    (["sampling.rate=0.3"], "sampling.rate"),
], ids=["unknown-mode", "fair-random-without-rate", "kaggle-balanced-with-rate",
        "none-with-rate"])
def test_evaluate_sampling_config_errors_exit_2(tmp_path, capsys, settings, field):
    scores, _ = sampling_score_file(tmp_path)
    out = tmp_path / "out"
    sets = [arg for item in settings for arg in ("--set", item)]
    assert cli.main(["evaluate", "--out", str(out), "--set",
                     f"dataset.scores={scores}", *sets]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, line", [
    ("0,1,2,1,0.5\n0,2,far,0,0.5\n", 3),
    ("0,,2,1,0.5\n", 2),  # an empty id
    ("0,1,2,1,0.5\n0,2,2,,0.5\n", 3),
    ("0,1,2,1,0.5\n0\0,2,2,0,0.5\n", 3),  # a NUL in an id
    ("0,1,2,1,0.5\n0,2,2\0,0,0.5\n", 3),  # ... in a distance
    ("0,1,2,1,0.5\r0,2,2,0,0.5\r0,3,far,1,0.5\r", 4),  # lone CR line ends
    ("0,1,2,1,0.5\n0,2,2\r,0,0.5\n", 3),  # a lone CR inside a row
])
@pytest.mark.parametrize("command", ["variance", "kaggle-compare"])
def test_malformed_score_file_exits_3(tmp_path, capsys, command, body, line):
    scores = tmp_path / "scores.csv"
    scores.write_text("u,v,distance,label,score\n" + body, encoding="utf-8")
    assert cli.main([command, "--out", str(tmp_path / "out"),
                     "--set", f"dataset.scores={scores}"]) == 3
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("evaluate", "generate_test_set"),
                                           ("score", "write_instances_csv")])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, command, name):
    # numpy's _ArrayMemoryError is a MemoryError: a command that runs out
    # of memory, before or while it writes an artifact, is a data error
    # with one line that names the command, and leaves no file behind.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    monkeypatch.setattr(cli, name, out_of_memory)
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--set", f"dataset.path={events}",
                     *WINDOWS]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {command} ran out of memory"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["variance", "kaggle-compare"])
def test_nan_score_is_refused_after_the_file_is_read(tmp_path, capsys, command):
    # The read keeps a NaN score and the ranking refuses it, a config error;
    # a malformed row later in the file is found first, a data error.
    scores = tmp_path / "scores.csv"
    head = "u,v,distance,label,score\n0,1,2,1,nan\n0,2,3,0,0.5\n"
    for body, code in ((head, 2), (head + "0,3,far,0,0.5\n", 3)):
        scores.write_text(body, encoding="utf-8")
        assert cli.main([command, "--out", str(tmp_path / "out"),
                         "--set", f"dataset.scores={scores}"]) == code
    err = capsys.readouterr().err
    assert "config error: NaN" in err and "data error: line 4:" in err


@pytest.mark.filterwarnings("ignore:N\\*p")
@pytest.mark.parametrize("command", ["evaluate", "variance", "kaggle-compare"])
def test_counted_score_file_writes_the_bytes_of_its_rows(tmp_path, monkeypatch,
                                                         command):
    # A score file ranked from the counts of its distinct rows, and forced
    # through the rows: the same artifacts, byte for byte, and manifest.
    rng = np.random.default_rng(11)
    n = 3000
    label = rng.random(n) < 0.1
    inst = InstanceSet(np.arange(n), np.arange(n) + n,
                       rng.choice([2, 3, 4, BEYOND, DISCONNECTED], size=n), label,
                       {"cn": np.round(rng.random(n) + label * 0.3, 1),
                        "aa": rng.normal(size=n) + label,
                        "zero": np.where(rng.random(n) < 0.5, 0.0, -0.0)})
    scores = tmp_path / "scores.csv"
    with open(scores, "w", encoding="utf-8") as fh:
        write_instances_csv(fh, inst)
    out = tmp_path / "out"
    args = [command, "--out", str(out), "--set", f"dataset.scores={scores}",
            "--set", "variance.rates=0.01,0.2,1", "--set", "variance.repeats=5",
            "--set", "kaggle.repeats=3"]

    def artifacts():
        assert cli.main(args) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    shipped = artifacts()
    calls = []

    def read_rows(path):
        # The file's rows as entries of one row each (count None), which
        # Ranking ranks as rows.
        calls.append(path)
        rows = read_instances_rows(path)
        return InstanceCounts(rows.distance, rows.label, rows.scores, None)

    monkeypatch.setattr(cli, "read_instances_csv", read_rows)
    assert artifacts() == shipped
    assert calls == [str(scores)]
    assert "manifest.json" in shipped and len(shipped) > 2


@pytest.mark.parametrize("command", ["evaluate", "variance", "kaggle-compare"])
def test_missing_score_file_exits_3(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out),
                     "--set", f"dataset.scores={tmp_path / 'absent.csv'}"]) == 3
    assert "data error: cannot read score file" in capsys.readouterr().err
    assert not out.exists()


def test_score_needs_the_dataset_path(tmp_path, capsys):
    # A score file holds scores already; score exits before reading it.
    out = tmp_path / "out"
    assert cli.main(["score", "--out", str(out),
                     "--set", f"dataset.scores={tmp_path / 'absent.csv'}"]) == 2
    assert "config error: dataset.path:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, artifacts", [
    ("snapshot", ["snapshot_report.json", "snapshot_test_feature.csv",
                  "snapshot_test_label.csv", "snapshot_train_feature.csv",
                  "snapshot_train_label.csv"]),
    ("distance-dist", ["distance_distribution.csv", "distance_report.json"]),
    ("temporal", ["temporal_common-neighbors.csv", "temporal_propflow2.csv",
                  "temporal_report.json"]),
    ("surrogate", ["surrogate_grid.csv", "surrogate_report.json"]),
])
def test_other_commands_rerun_identically(tmp_path, command, artifacts):
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3, id_prefix='n,"'),
                     events)
    out = tmp_path / "out"
    args = ["--out", str(out), "--set", f"dataset.path={events}", *WINDOWS,
            "--set", "prediction.predictors=cn,pf:2",
            "--set", "prediction.lmax=3", "--set", "surrogate.trials=500"]
    manifests = []
    for _ in range(2):
        assert cli.main([command] + args) == 0
        manifests.append((out / "manifest.json").read_text())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["command"] == command
    assert [a["path"] for a in manifest["artifacts"]] == artifacts
    for entry in manifest["artifacts"]:
        assert entry["sha256"] == sha256_file(out / entry["path"])


NO_WINDOWS = " ".join(f"windows.{name}=" for name in
                      ("train_feature", "train_label", "test_feature", "test_label"))


@pytest.mark.parametrize("command, setting, field", [
    ("snapshot", "dataset.path=", "dataset.path"),
    ("distance-dist", "windows.test_label=", "windows"),
    ("temporal", "temporal.slices=1000", "temporal.slices"),
    ("surrogate", "surrogate.betas=0.5", "surrogate.beta"),
    # A band (alpha 0.2, beta 1000: 43.2M slots) wider than the full
    # ranking's top alpha (29.6M slots), although it fits in the whole
    # ranking (148.2M).
    pytest.param("surrogate", "surrogate.alphas=0.2 surrogate.betas=1000",
                 "surrogate.beta", id="surrogate-band-wider-than-tail"),
    # The slice count is checked before the (missing) dataset is read.
    pytest.param("temporal", "temporal.slices=0 dataset.path=no-such-dir/events.tsv",
                 "temporal.slices", id="temporal-slices=0-missing-dataset"),
    pytest.param("temporal", "temporal.slices=1000 dataset.path=no-such-dir/events.tsv",
                 "temporal.slices", id="temporal-slices=1000-missing-dataset"),
    # So is the weight rule.
    pytest.param("snapshot", "dataset.weight_rule=2/k dataset.path=no-such-dir/events.tsv",
                 "dataset.weight_rule", id="weight-rule-missing-dataset"),
    # So is a propflow bound that is not an integer.
    pytest.param("evaluate", "prediction.predictors=cn,pf:x", "predictors",
                 id="propflow-bound-not-integer"),
    # A missing [windows] section is a config error, whether or not the
    # dataset can be read.
    *(pytest.param(command, NO_WINDOWS + " dataset.path=no-such-dir/events.tsv",
                   "windows", id=f"{command}-no-windows-missing-dataset")
      for command in ("snapshot", "evaluate", "temporal", "distance-dist")),
])
def test_other_commands_config_error_exits_2(tmp_path, capsys, command, setting,
                                            field):
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(30, 3.0, 100, seed=4), events)
    out = tmp_path / "out"
    sets = [arg for item in setting.split() for arg in ("--set", item)]
    assert cli.main([command, "--out", str(out), "--set", f"dataset.path={events}",
                     *WINDOWS, *sets]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["snapshot", "distance-dist", "temporal"])
def test_other_commands_malformed_dataset_exits_3(tmp_path, capsys, command):
    events = tmp_path / "events.tsv"
    events.write_text("a\tb\t1\nb\tc\tsoon\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--set", f"dataset.path={events}",
                     *WINDOWS]) == 3
    assert "line 2:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore:N\\*p")
@pytest.mark.parametrize("command", ["evaluate", "variance", "kaggle-compare"])
def test_commands_rank_each_score_column_once(tmp_path, monkeypatch, command):
    # A plain function in Ranking's place, as lpbench/tracing.py puts there:
    # cli and experiments may only call Ranking(...) as a constructor.
    built = []

    def counted(*args, ranking=experiments.Ranking, **kwargs):
        built.append(args)
        return ranking(*args, **kwargs)

    monkeypatch.setattr(cli, "Ranking", counted)
    monkeypatch.setattr(experiments, "Ranking", counted)
    scores, _ = sampling_score_file(tmp_path)
    assert cli.main([command, "--out", str(tmp_path / "out"), "--set",
                     f"dataset.scores={scores}", "--set", "variance.repeats=2"]) == 0
    assert len(built) == 1


# Every pair of the feature window's triangle is an edge, so there is no
# candidate; the label-window event repeats one of the edges.
TRIANGLE = "a\tb\t1\nb\tc\t2\na\tc\t3\na\tb\t85\n"


@pytest.mark.parametrize("command, code, artifacts", [
    ("evaluate", 0, {
        "instances_common-neighbors.csv": "u,v,distance,label,score\n",
        "per_distance_common-neighbors.csv":
            "distance,n_pos,n_neg,auroc,aupr,sufficient\n"
            "overall,0,0,undefined,undefined,0\n"}),
    ("kaggle-compare", 0, {
        "kaggle_compare.csv":
            "predictor,full_auroc,fair_auroc,kaggle_auroc,fair_repeats,"
            "kaggle_repeats\ncommon-neighbors,undefined,undefined,undefined,0,0\n"}),
    # The variance report needs the full AUROC, which has no positive.
    ("variance", 3, {}),
])
def test_empty_candidate_set(tmp_path, command, code, artifacts):
    events = tmp_path / "events.tsv"
    events.write_text(TRIANGLE, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out), "--set", f"dataset.path={events}",
                     *WINDOWS, "--set", "prediction.predictors=cn"]) == code
    for name, text in artifacts.items():
        assert (out / name).read_text(encoding="utf-8") == text
    if code:
        assert not (out / "manifest.json").exists()
    else:
        listed = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert set(artifacts) <= {a["path"] for a in listed}


def test_temporal_single_slice_equals_evaluate_in_query_mode(tmp_path):
    # Label-window events that bring in ids unseen in the feature window:
    # query mode adds their pairs to the candidates of both commands.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    header, *lines = events.read_text(encoding="utf-8").splitlines()
    old = lines[0].split("\t")[0]
    lines += ["new-a\tnew-b\t85", f"new-a\t{old}\t90", f"new-c\t{old}\t95"]
    lines.sort(key=lambda line: int(line.rpartition("\t")[2]))
    events.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    args = ["--set", f"dataset.path={events}", *WINDOWS,
            "--set", "prediction.predictors=cn,pa", "--set", "prediction.lmax=3",
            "--set", "prediction.mode=query", "--set", "temporal.slices=1"]
    for command in ("evaluate", "temporal"):
        assert cli.main([command, "--out", str(tmp_path / command), *args]) == 0
    for name in ("common-neighbors", "preferential-attachment"):
        overall = (tmp_path / "evaluate" / f"per_distance_{name}.csv").read_text(
            encoding="utf-8").splitlines()[-1].split(",")
        rows = (tmp_path / "temporal" / f"temporal_{name}.csv").read_text(
            encoding="utf-8").splitlines()
        assert overall[0] == "overall" and len(rows) == 2
        # n_pos, n_neg, auroc and aupr
        assert rows[1].split(",")[3:7] == overall[1:5]


def test_temporal_builds_each_slice_label_snapshot_once(tmp_path, monkeypatch):
    built = []

    def counted(log, interval, build=experiments.build_snapshot, **kwargs):
        built.append(interval)
        return build(log, interval, **kwargs)

    monkeypatch.setattr(experiments, "build_snapshot", counted)
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    assert cli.main(["temporal", "--out", str(tmp_path / "out"),
                     "--set", f"dataset.path={events}", *WINDOWS,
                     "--set", "prediction.predictors=cn,pa",
                     "--set", "prediction.lmax=3", "--set", "temporal.slices=5"]) == 0
    assert built == [(80, 83), (84, 87), (88, 91), (92, 95), (96, 100)]


@pytest.mark.filterwarnings("ignore:N\\*p")
def test_manifest_hashes_only_inputs(tmp_path, monkeypatch):
    # Each writer returns the digest of what it wrote, so no artifact is
    # read back: the only file hashed is the command's input.
    hashed = []

    def counted(path, sha256_file=lpeval.manifest.sha256_file):
        hashed.append(os.fspath(path))
        return sha256_file(path)

    monkeypatch.setattr(lpeval.manifest, "sha256_file", counted)
    monkeypatch.setattr(cli, "sha256_file", counted)
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    scores, _ = sampling_score_file(tmp_path)
    assert cli.main(["evaluate", "--out", str(tmp_path / "evaluate"),
                     "--set", f"dataset.path={events}", *WINDOWS,
                     "--set", "prediction.lmax=3", "--set", "run.svg=true"]) == 0
    assert cli.main(["variance", "--out", str(tmp_path / "variance"),
                     "--set", f"dataset.scores={scores}",
                     "--set", "variance.repeats=2"]) == 0
    assert hashed == [str(events), str(scores)]


BLOCK = lpeval.manifest._HASH_BLOCK


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_sha256_file_hashes_every_byte(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert sha256_file(path) == "sha256:" + hashlib.sha256(data).hexdigest()


def test_sha256_file_holds_one_block(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(bytes(3 * BLOCK))
    tracemalloc.start()
    try:
        sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * BLOCK


WRITERS = {"makedirs", "atomic_write_text", "write_json"}


def direct_writes(text):
    """``(command function, call)`` of each write a ``cmd_*`` makes itself."""
    found = []
    for fn in ast.walk(ast.parse(text)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if called in WRITERS:
                    found.append((fn.name, called))
    return found


def test_commands_write_only_through_their_output():
    assert direct_writes(pathlib.Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_direct_write_guard_sees_each_form():
    code = ("def cmd_a(cfg, os):\n    os.makedirs(cfg.out_dir)\n"
            "    atomic_write_text('x', '')\n    manifest.write_json('y', {})\n"
            "    out.report('z', {})\n"
            "def helper():\n    write_json('w', {})\n")
    assert direct_writes(code) == [("cmd_a", "makedirs"),
                                   ("cmd_a", "atomic_write_text"),
                                   ("cmd_a", "write_json")]


# Candidate building and scoring have one home, cli._graph_scored:
# the experiments take scored instance sets and build or score none.
PIPELINE_CALLS = {"geodesic_bucket_enumerate", "generate_test_set",
                  "score_instances", "score_pairs"}


def pipeline_calls(text):
    """``(line, name)`` of each call, or import, of a candidate builder or
    a scorer; an import catches the calls made under an alias."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if called in PIPELINE_CALLS:
                found.append((node.lineno, called))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in PIPELINE_CALLS]
    return sorted(found)


def test_experiments_build_and_score_no_candidates():
    assert pipeline_calls(pathlib.Path(experiments.__file__).read_text(
        encoding="utf-8")) == []


def test_pipeline_guard_sees_each_form():
    code = ("from .stratify import generate_test_set as make, label_instances\n"
            "def f(s, c, p, stratify, lpeval):\n"
            "    geodesic_bucket_enumerate(s, 2)\n"
            "    stratify.generate_test_set(s, s)\n"
            "    lpeval.predictors.score_instances(s, c, p)\n"
            "    score_pairs(s, c, c, p)\n"
            "    make(s, s)\n    label_instances(c, s)\n")
    assert pipeline_calls(code) == [
        (1, "generate_test_set"), (3, "geodesic_bucket_enumerate"),
        (4, "generate_test_set"), (5, "score_instances"), (6, "score_pairs")]


# The experiments take the Ranking their caller built; only temporal_eval,
# which relabels its candidates per slice, ranks scores itself.
def ranking_calls(text):
    """``(line, name)`` of each ``Ranking`` call outside ``temporal_eval``,
    and of each import that binds ``Ranking`` to another name."""
    tree = ast.parse(text)
    allowed = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "temporal_eval"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if called == "Ranking":
                found.append((node.lineno, called))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.asname) for alias in node.names
                      if alias.name == "Ranking" and alias.asname]
    return sorted(found)


def test_experiments_rank_only_in_temporal_eval():
    assert ranking_calls(pathlib.Path(experiments.__file__).read_text(
        encoding="utf-8")) == []


def test_ranking_guard_sees_each_form():
    code = ("from .metrics import Ranking as Ranked, auroc\n"
            "def temporal_eval(s, l):\n    return Ranking(s, l)\n"
            "def f(s, l, metrics, lpeval):\n    Ranking(s, l)\n"
            "    metrics.Ranking(s, l, None)\n    lpeval.metrics.Ranking(s, l)\n"
            "    def temporal_eval():\n        Ranking(s, l)\n"
            "RANK = Ranking([], [])\n")
    assert ranking_calls(code) == [
        (1, "Ranked"), (5, "Ranking"), (6, "Ranking"), (7, "Ranking"),
        (9, "Ranking"), (10, "Ranking")]


# The package's exports, module by module, as the eager imports bound them;
# the score-file reader and the surrogate experiment by their own modules.
EXPORTS = {
    "errors": "ConfigError DataCorruptionError IngestError InvalidPairError "
              "LpevalError UndefinedMetricError UnknownNodeError",
    "experiments": "SamplingSpec TemporalSliceSpec "
                   "analytic_sampling_variance estimate_classifiable "
                   "filtered_negative_eval kaggle_compare per_distance_eval "
                   "sample_fair sample_kaggle temporal_eval variance_experiment",
    "graphstore": "EventLog Snapshot WindowConfig build_snapshot ingest_events "
                  "write_snapshot_csv",
    "metrics": "ConfusionCounts Ranking ThresholdCurve aupr auroc average_precision "
               "confusion_at pr_curve rates roc_curve score_distribution tpr_k",
    "predictors": "PredictorId adamic_adar aggregate_directional bfs_levels "
                  "common_neighbors preferential_attachment propflow "
                  "propflow_accounting propflow_all score_instances score_pairs",
    "rng": "",
    "scorefile": "read_instances_csv",
    "stratify": "BEYOND DISCONNECTED InstanceSet distance_str generate_test_set "
                "geodesic_bucket_enumerate label_instances "
                "new_link_distance_distribution parse_distance "
                "write_instances_csv",
    "surrogate": "SurrogateParams surrogate_grid surrogate_simulation",
    "synth": "synthetic_event_log write_event_file",
}
# The submodules the package exports by name.
EXPORTED_MODULES = ("errors", "experiments", "graphstore", "metrics", "predictors",
                    "rng", "stratify", "synth")


def child(*args, blas_threads=None):
    """``python *args`` run to completion in a fresh interpreter that imports
    this checkout's lpeval, with ``OPENBLAS_NUM_THREADS`` unset unless
    given, and with buffered standard streams: ``PYTHONUNBUFFERED`` unset."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(pathlib.Path(lpeval.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def run_child(code, blas_threads=None):
    """Run ``code`` in a fresh interpreter (:func:`child`); its stdout."""
    proc = child("-c", code, blas_threads=blas_threads)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_lpeval_loads_no_numpy():
    assert run_child("import sys, lpeval; print('numpy' in sys.modules)") \
        == "False\n"


def test_numpy_free_exports_load_no_numpy():
    # The value types the config builds and the surrogate experiment are
    # defined without numpy; reading them through the package loads none.
    names = ["PredictorId", "SamplingSpec", "SurrogateParams", "TemporalSliceSpec",
             "WindowConfig", "surrogate_grid", "surrogate_simulation"]
    code = f"""
import sys, lpeval
loaded = []
for name in {names!r}:
    getattr(lpeval, name)
    if "numpy" in sys.modules:
        loaded.append(name)
print(loaded)
"""
    assert run_child(code) == "[]\n"


def test_star_import_binds_every_export():
    code = f"""
import importlib, json
exports = {EXPORTS!r}
ns = {{}}
exec("from lpeval import *", ns)
del ns["__builtins__"]
want = {{name: getattr(importlib.import_module("lpeval." + module), name)
        for module, names in exports.items() for name in names.split()}}
want.update((module, importlib.import_module("lpeval." + module))
            for module in {EXPORTED_MODULES!r})
print(json.dumps([sorted(ns), sorted(name for name in want
                                     if ns.get(name) is not want[name])]))
"""
    names, different = json.loads(run_child(code))
    assert len(names) == 71
    assert names == sorted(lpeval.__all__)
    assert names == sorted(set(EXPORTED_MODULES) | {n for v in EXPORTS.values()
                                                    for n in v.split()})
    assert different == []


# The entry point has run and set the thread count; numpy loads after it,
# as it does in a command that works on arrays.
BLAS_REPORT = """
import os, sys
import numpy
print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules,
      len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
      else None)
"""

# ``python -m lpeval.cli`` runs the module as __main__ after importing the
# package; the ``lpeval`` console script calls ``lpeval.cli:run`` (the
# script that ``pyproject.toml`` declares). Each runs the command line
# ``{argv}`` and must exit 0. ``cli.run`` ends the process with
# ``os._exit``, so the child records that call and raises SystemExit in its
# place, then goes on to its report: a command must have left through it
# with code 0, and ``--version`` and ``--help`` through argparse's exit.
RECORD_EXIT = """
import os, sys
exits = []
def record_exit(code):
    exits.append(code)
    raise SystemExit(code)
os._exit = record_exit
sys.argv = ["lpeval", *{argv!r}]
try:
"""
LEFT_THROUGH_RUN = """
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
assert exits == ([] if {argv!r}[0].startswith("--") else [0]), exits
"""
ENTRIES = {
    "python -m": RECORD_EXIT + """
    import runpy
    runpy.run_module("lpeval.cli", run_name="__main__", alter_sys=True)
""" + LEFT_THROUGH_RUN,
    "console script": RECORD_EXIT + """
    from lpeval.cli import run
    run()
""" + LEFT_THROUGH_RUN,
}


def test_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(pathlib.Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lpeval": "lpeval.cli:run"}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_cli_loads_openblas_with_one_thread(entry):
    # The first line is the version that --version prints.
    _, value, numpy_loaded, tasks = run_child(
        ENTRIES[entry].format(argv=["--version"]) + BLAS_REPORT).split()
    assert (value, numpy_loaded) == ("1", "True")
    if tasks == "None":
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == "1"


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_cli_keeps_a_preset_blas_thread_count(entry):
    _, value, numpy_loaded, _ = run_child(
        ENTRIES[entry].format(argv=["--version"]) + BLAS_REPORT,
        blas_threads="2").split()
    assert (value, numpy_loaded) == ("2", "True")


# Whether numpy and the graph store are loaded.
NUMPY_LOADED = """
import sys
print("numpy" in sys.modules, "lpeval.graphstore" in sys.modules)
"""


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_surrogate_loads_no_numpy(tmp_path, entry):
    # The surrogate moments are exact rationals: the command needs no arrays.
    argv = ["surrogate", "--out", str(tmp_path / "out")]
    assert run_child(ENTRIES[entry].format(argv=argv) + NUMPY_LOADED) \
        == "False False\n"
    assert (tmp_path / "out" / "surrogate_grid.csv").exists()


@pytest.mark.parametrize("argv", [["--version"], ["--help"]],
                         ids=["--version", "--help"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_version_and_help_load_no_numpy(entry, argv):
    assert run_child(ENTRIES[entry].format(argv=argv) + NUMPY_LOADED
                     ).endswith("False False\n")


# numpy and the lpeval modules that cli loads on first use, with the ones
# they load in turn.
ARRAYS_LOADED = """
import sys
print(sorted(m for m in sys.modules if m == "numpy" or m in {
    "lpeval.cells", "lpeval.experiments", "lpeval.graphstore", "lpeval.metrics",
    "lpeval.predictors", "lpeval.render", "lpeval.rng", "lpeval.scorefile",
    "lpeval.stratify", "lpeval.surrogate", "lpeval.twohop"}))
"""


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_snapshot_loads_no_numpy(tmp_path, entry):
    # Ingest, window aggregation and the edge CSVs work on stdlib columns;
    # a snapshot's numpy arrays are built only when graph code reads them.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    argv = ["snapshot", "--out", str(tmp_path / "out"),
            "--set", f"dataset.path={events}", *WINDOWS]
    assert run_child(ENTRIES[entry].format(argv=argv) + ARRAYS_LOADED) \
        == "['lpeval.graphstore']\n"
    report = json.loads((tmp_path / "out" / "snapshot_report.json").read_text())
    assert report["snapshots"]["test_feature"]["edges"] > 0


GRAPH = ["lpeval.cells", "lpeval.graphstore", "lpeval.predictors",
         "lpeval.stratify", "numpy"]
RANKED = ["lpeval.experiments", "lpeval.metrics", "lpeval.rng"]
SCORED = ["lpeval.cells", *RANKED, "lpeval.scorefile", "numpy"]
# The modules each command loads, by its input: graph commands never the
# score-file reader, score-file commands no graph module; CN loads twohop.
COMMAND_LOADS = {
    ("snapshot", "path"): ["lpeval.graphstore"],
    ("distance-dist", "path"): GRAPH,
    ("score", "path"): GRAPH + ["lpeval.twohop"],
    ("temporal", "path"): GRAPH + RANKED + ["lpeval.twohop"],
    # run.svg is set: evaluate loads render for it.
    ("evaluate", "path"): GRAPH + RANKED + ["lpeval.render", "lpeval.twohop"],
    ("variance", "path"): GRAPH + RANKED + ["lpeval.twohop"],
    ("kaggle-compare", "path"): GRAPH + RANKED + ["lpeval.twohop"],
    ("evaluate", "scores"): SCORED,
    ("variance", "scores"): SCORED,
    ("kaggle-compare", "scores"): SCORED,
    ("surrogate", None): ["lpeval.surrogate"],
}


@pytest.mark.filterwarnings("ignore:N\\*p")
@pytest.mark.parametrize("command, source", sorted(COMMAND_LOADS, key=str),
                         ids=lambda v: v if v is not None else "none")
def test_command_loads_only_the_modules_it_binds(tmp_path, command, source):
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    scores, _ = sampling_score_file(tmp_path)
    inputs = {"path": ["--set", f"dataset.path={events}", *WINDOWS,
                       "--set", "prediction.lmax=3", "--set", "run.svg=true"],
              "scores": ["--set", f"dataset.scores={scores}"], None: []}
    argv = [command, "--out", str(tmp_path / "out"), *inputs[source],
            "--set", "variance.repeats=3", "--set", "kaggle.repeats=3",
            "--set", "surrogate.trials=500"]
    code = f"""
import warnings
from lpeval import cli
warnings.simplefilter("ignore")
assert cli.main({argv!r}) == 0
""" + ARRAYS_LOADED
    assert run_child(code) == str(sorted(COMMAND_LOADS[command, source])) + "\n"


def test_importtime_lists_each_module_a_score_file_command_loads(tmp_path):
    # Every module that loads at its first call is imported through
    # __import__, which python -X importtime reports (importlib.import_module
    # would not).
    scores, _ = sampling_score_file(tmp_path)
    proc = child("-X", "importtime", "-m", "lpeval.cli", "variance",
                 "--out", str(tmp_path / "out"), "--set", f"dataset.scores={scores}",
                 "--set", "variance.repeats=3")
    assert proc.returncode == 0, proc.stderr
    listed = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")]
    assert {module: listed.count(f"lpeval.{module}") for module in SCORE_FILE_PATH} \
        == dict.fromkeys(SCORE_FILE_PATH, 1)


def test_package_exports_of_the_reader_load_no_graph_module():
    code = """
import sys
from lpeval import (BEYOND, DISCONNECTED, distance_str, parse_distance,
                    read_instances_csv)
print(read_instances_csv.__module__, distance_str.__module__, sorted(
    m for m in sys.modules if m.startswith("lpeval.")))
"""
    assert run_child(code) == \
        "lpeval.scorefile lpeval.cells ['lpeval.cells', 'lpeval.errors', " \
        "'lpeval.scorefile']\n"


def run_module(*argv):
    """``python -m lpeval.cli *argv`` run to completion."""
    return child("-m", "lpeval.cli", *argv)


@pytest.mark.parametrize("argv, code, message", [
    (["surrogate", "--seed", "-1"], 2, "config error: "),
    (["variance", "--set", "dataset.scores=missing.csv"], 3,
     "data error: cannot read score file: "),
], ids=["config-error", "data-error"])
def test_module_exits_with_the_code_of_main(tmp_path, argv, code, message):
    proc = run_module(*argv, "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(message) and proc.stderr.endswith("\n")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_module_run_lists_every_artifact_and_prints_its_warnings(tmp_path):
    scores, _ = sampling_score_file(tmp_path)
    out = tmp_path / "out"
    proc = run_module("variance", "--out", str(out), "--set",
                      f"dataset.scores={scores}", "--set", "variance.repeats=3")
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    assert "UserWarning: N*p = " in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    # No temporary file is left beside the artifacts.
    assert sorted(os.listdir(out)) == sorted([*listed, "manifest.json"])
    assert {path: sha256_file(out / path) for path in listed} == listed


@pytest.mark.parametrize("broken, code", [(None, 0), ("stdout", 120), ("stderr", 120)])
def test_run_flushes_both_streams_before_it_exits(tmp_path, broken, code):
    # Pending text without a newline stays in each stream's buffer until a
    # flush; a stream whose flush fails makes the exit code 120, as the
    # interpreter's own teardown does.
    code_text = f"""
import io, sys
from lpeval import cli

class Broken(io.StringIO):
    def flush(self):
        raise OSError("flush failed")

if {broken!r}:
    setattr(sys, {broken!r}, Broken())
sys.stdout.write("pending out")
sys.stderr.write("pending err")
sys.argv = ["lpeval", "surrogate", "--out", {str(tmp_path / "out")!r}]
cli.run()
raise AssertionError("run returned")
"""
    proc = child("-c", code_text)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ("" if broken == "stdout" else "pending out")
    assert proc.stderr == ("" if broken == "stderr" else "pending err")
    assert (tmp_path / "out" / "manifest.json").exists()


def test_config_loads_no_numpy():
    # Every value type the config builds: windows, predictor tags with a
    # propflow bound, a sampling spec with a rate, the temporal slicing.
    settings = [w for w in WINDOWS if w != "--set"] + [
        "dataset.path=events.tsv", "prediction.predictors=cn,aa,pa,pf:3",
        "sampling.mode=fair-random", "sampling.rate=0.5"]
    code = f"""
import sys
from lpeval.config import RunConfig
cfg = RunConfig.from_overrides({settings!r})
assert cfg.windows.test_label == (80, 100) and len(cfg.predictors) == 4
print("numpy" in sys.modules)
"""
    assert run_child(code) == "False\n"


ARRAY_COMMANDS = ["snapshot", "score", "evaluate", "variance", "kaggle-compare",
                  "temporal", "distance-dist"]


@pytest.mark.parametrize("command", ARRAY_COMMANDS)
def test_array_command_runs_without_main(tmp_path, command):
    # lpbench's in-process passes call the command table directly; each
    # command must bind the array modules' names itself.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3), events)
    settings = [w for w in WINDOWS if w != "--set"] + [
        f"dataset.path={events}", "prediction.predictors=cn",
        "prediction.lmax=3", "variance.rates=0.5,1", "variance.repeats=3",
        "kaggle.repeats=3", f"run.out={tmp_path / 'out'}"]
    code = f"""
import sys, warnings
from lpeval import cli
from lpeval.config import RunConfig
warnings.simplefilter("ignore")
assert "numpy" not in sys.modules
cli._COMMANDS[{command!r}](RunConfig.from_overrides({settings!r}))
print("numpy" in sys.modules)
"""
    # snapshot's aggregation and export are pure Python
    assert run_child(code) == f"{command != 'snapshot'}\n"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == command and manifest["artifacts"]


def global_reads(text):
    """``(function, name)`` of each global name a function of ``text`` reads,
    nested functions, lambdas and comprehensions included."""
    found = set()
    todo = [compile(text, "<cli>", "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        found |= {(code.co_name, ins.argval) for ins in dis.get_instructions(code)
                  if ins.opname == "LOAD_GLOBAL"}
    return sorted(found)


def test_cli_reads_only_bound_names():
    # A name a command reads but cli does not bind fails only in a fresh
    # process that reaches it: every name cli reads is bound when it is
    # imported, before any module that a command loads at its first call.
    code = """
import json, sys
from lpeval import cli
print(json.dumps([sorted(vars(cli)), "numpy" in sys.modules]))
"""
    bound, numpy_loaded = json.loads(run_child(code))
    assert not numpy_loaded
    bound = set(bound) | set(dir(builtins))
    text = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert [read for read in global_reads(text) if read[1] not in bound] == []


def test_traced_names_are_bound_without_loading_a_module(monkeypatch):
    # lpbench's tracer swaps each name that hasattr finds in cli, before any
    # command has run: every name cli reads that it wraps is there at import,
    # and looking it up loads nothing.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]
                                    / "lpbench"))
    tracing = importlib.import_module("tracing")
    names = sorted({name for _, name, _ in tracing._wrappers(tracing.Tracer())})
    code = f"""
import json, sys
from lpeval import cli
loaded = set(sys.modules)
found = [name for name in {names!r} if hasattr(cli, name)]
print(json.dumps([found, sorted(set(sys.modules) - loaded)]))
"""
    found, loaded = json.loads(run_child(code))
    reads = {name for _, name in global_reads(
        pathlib.Path(cli.__file__).read_text(encoding="utf-8"))}
    assert loaded == []
    assert found == sorted(reads & set(names))
    assert {"Ranking", "build_snapshot", "read_instances_csv",
            "surrogate_simulation", "variance_experiment"} <= set(found)


def test_global_read_guard_sees_each_form():
    code = ("X = 1\ndef f(a):\n    g(X).h\n    return [k(y) for y in a]\n"
            "class C:\n    def m(self):\n        return lambda: w\n")
    assert global_reads(code) == [("<lambda>", "w"), ("<listcomp>", "k"),
                                  ("f", "X"), ("f", "g")]


def lazy_bindings(text):
    """``(line, target, module, name)`` for each name that ``text`` binds
    with ``target, ... = _lazy(module, name, ...)``, from the literal
    arguments; the target is None where the call is not assigned to names."""
    tree = ast.parse(text)
    targets = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            targets[id(node.value)] = [getattr(e, "id", None) for e in elts]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy":
            module, *names = (arg.value for arg in node.args)
            bound = targets.get(id(node), [])
            found += [(node.lineno, bound[i] if i < len(bound) else None,
                       module, name) for i, name in enumerate(names)]
    return sorted(found, key=lambda binding: binding[0])


def unresolved_lazy_names(text):
    """``(line, module, name)`` of each binding of :func:`lazy_bindings`
    that ``lpeval.<module>`` does not define, or that is bound to another
    name."""
    unresolved = []
    for line, target, module, name in lazy_bindings(text):
        try:
            defined = hasattr(importlib.import_module(f"lpeval.{module}"), name)
        except ImportError:
            defined = False
        if not defined or target != name:
            unresolved.append((line, module, name))
    return sorted(unresolved)


def test_lazy_names_exist():
    # A misspelt module or name would fail only at the binding's first
    # call; resolve every one up front.
    src = pathlib.Path(cli.__file__).parent
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(src.glob("*.py"))}
    assert {name: unresolved_lazy_names(text) for name, text in texts.items()} \
        == {name: [] for name in texts}
    assert [name for name, text in texts.items() if lazy_bindings(text)] == [
        "cli.py", "experiments.py", "stratify.py"]


def test_lazy_name_guard_sees_each_form():
    code = ('(Ranking,) = _lazy("metrics", "Ranking")\n'
            'auroc, aupr = _lazy("metrics", "auroc", "aupr")\n'
            'Rankin, roc_curve = _lazy("metrics", "Rankin", "roc_curve")\n'
            'pr_curve, write_curve_csv = _lazy("metrics", "write_curve_csv",\n'
            '                                  "pr_curve")\n'
            '(x,) = _lazy("no_such_module", "x")\n'
            'def f():\n    return _lazy("cells", "distance_str")\n')
    assert unresolved_lazy_names(code) == [
        (3, "metrics", "Rankin"), (4, "metrics", "pr_curve"),
        (4, "metrics", "write_curve_csv"), (6, "no_such_module", "x"),
        (8, "cells", "distance_str")]


# The modules that the surrogate command and the config load: none of them
# may import numpy or an lpeval module that imports it, at any depth.
NUMPY_FREE = ("config", "surrogate", "errors", "manifest", "render")
ARRAY_MODULES = {"cells", "graphstore", "predictors", "scorefile", "stratify",
                 "metrics", "experiments", "rng", "twohop"}


def array_imports(text):
    """``(line, module)`` of each import of numpy or of an lpeval array
    module: statements at any nesting level, and ``import_module`` or
    ``__import__`` calls with a literal name."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"lpeval.{base}".rstrip(".")
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if called not in ("import_module", "__import__") or not node.args \
                    or not isinstance(node.args[0], ast.Constant):
                continue
            name = str(node.args[0].value)
            targets = ["lpeval" + name if name.startswith(".") else name]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "numpy" or (parts[0] == "lpeval" and len(parts) > 1
                                       and parts[1] in ARRAY_MODULES):
                found.append((node.lineno, target))
    return sorted(found)


def test_numpy_free_modules_import_no_array_module():
    src = pathlib.Path(cli.__file__).parent
    assert {name: array_imports((src / f"{name}.py").read_text(encoding="utf-8"))
            for name in NUMPY_FREE} == {name: [] for name in NUMPY_FREE}


def test_array_import_guard_sees_each_form():
    code = ("import numpy\nimport numpy.random as npr, json\n"
            "from numpy import ndarray\nfrom . import rng, errors\n"
            "from .metrics import Ranking\nfrom lpeval import stratify\n"
            "import lpeval.predictors\nfrom lpeval.experiments import x\n"
            "def f():\n    from .graphstore import build_snapshot\n"
            "    importlib.import_module('.metrics', 'lpeval')\n"
            "    __import__('numpy')\n"
            "from .errors import ConfigError\nfrom .surrogate import SIGMA_FORMULA\n")
    assert array_imports(code) == [
        (1, "numpy"), (2, "numpy.random"), (3, "numpy"), (3, "numpy.ndarray"),
        (4, "lpeval.rng"), (5, "lpeval.metrics"), (5, "lpeval.metrics.Ranking"),
        (6, "lpeval.stratify"), (7, "lpeval.predictors"),
        (8, "lpeval.experiments"), (8, "lpeval.experiments.x"),
        (10, "lpeval.graphstore"), (10, "lpeval.graphstore.build_snapshot"),
        (11, "lpeval.metrics"), (12, "numpy")]


# A score-file process loads the reader, the shared cells, metrics,
# experiments and rng; a graph process the graph modules. Neither side may
# import the other's modules when it is imported.
SCORE_FILE_PATH = ("scorefile", "cells", "metrics", "experiments", "rng")
GRAPH_MODULES = ("graphstore", "predictors", "stratify", "twohop")


def import_time_imports(text):
    """The lpeval modules that the module ``text`` imports when it is
    imported: its import statements outside function bodies."""
    found = set()
    todo = list(ast.parse(text).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo += ast.iter_child_nodes(node)
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"lpeval.{base}".rstrip(".")
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {parts[1] for parts in (t.split(".") for t in targets)
                  if parts[0] == "lpeval" and len(parts) > 1}
    return found


def test_score_file_path_imports_no_graph_module():
    src = pathlib.Path(cli.__file__).parent

    def imports(name):
        return import_time_imports((src / f"{name}.py").read_text(encoding="utf-8"))

    assert {name: sorted(imports(name) & set(GRAPH_MODULES))
            for name in SCORE_FILE_PATH} == {name: [] for name in SCORE_FILE_PATH}
    assert [name for name in GRAPH_MODULES if "scorefile" in imports(name)] == []


def test_import_time_guard_sees_each_form():
    code = ("import lpeval.graphstore, json\nfrom . import rng as r, errors\n"
            "from .cells import BEYOND\nfrom lpeval import stratify\n"
            "from lpeval.twohop import two_hop_table\n"
            "try:\n    from .predictors import _walk\nexcept ImportError:\n    pass\n"
            "class C:\n    from .metrics import Ranking\n"
            "    def m(self):\n        from .scorefile import x\n"
            "def f():\n    from .experiments import y\n"
            "g = lambda: __import__('lpeval.synth')\n")
    assert import_time_imports(code) == {
        "graphstore", "rng", "errors", "cells", "stratify", "twohop",
        "predictors", "metrics"}


# One thread is enough only while lpeval makes no BLAS-sized call. polyfit in
# variance_slope is the one exception: a 6x2 least-squares fit (one row per
# sampling rate), far below the size at which OpenBLAS uses threads.
BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "polyfit"}
BLAS_ALLOWED = {("experiments.py", "variance_slope", "polyfit")}


def blas_calls(filename, text):
    """``(file, enclosing function, call)`` of each BLAS or LAPACK call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            name = "@"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            name = "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "linalg" in f"{getattr(node, 'module', '')}.{alias.name}".split(".")
                for alias in node.names):
            name = "linalg"
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if called in BLAS_CALLS:
                name = called
        if name is not None:
            found.append((filename, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), None)
    return found


def test_library_makes_no_blas_sized_call():
    src = pathlib.Path(cli.__file__).parent
    found = [call for path in sorted(src.glob("*.py"))
             for call in blas_calls(path.name, path.read_text(encoding="utf-8"))]
    assert [call for call in found if call not in BLAS_ALLOWED] == []


def test_blas_guard_sees_each_form():
    code = ("import numpy.linalg\n"
            "def f(a, b, np):\n    a @ b\n    a @= b\n    np.dot(a, b)\n"
            "    a.dot(b)\n    np.linalg.norm(a)\n    from numpy.linalg import inv\n"
            "    from numpy import linalg\n    np.einsum('i,i', a, b)\n"
            "    np.polyfit(a, b, 1)\n")
    assert blas_calls("m.py", code) == [("m.py", None, "linalg")] + [
        ("m.py", "f", name) for name in
        ("@", "@", "dot", "dot", "linalg", "linalg", "linalg", "einsum", "polyfit")]


# np.median, np.isin and np.unique without a return_* flag import numpy.ma
# at run time, which costs every process that reaches them ~16 ms of CPU;
# flagless np.unique also hashes integers, several times slower than a
# sort. The sort-based helpers (cells._sorted_unique, stratify._isin,
# the median in experiments.estimate_classifiable) give the same results.
NUMPY_MA_CALLS = {"median", "isin", "unique"}


def numpy_ma_calls(filename, text):
    """``(file, line, call)`` of each call that makes numpy import numpy.ma."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if called not in NUMPY_MA_CALLS:
            continue
        if called == "unique" and any((k.arg or "").startswith("return_")
                                      for k in node.keywords):
            continue
        found.append((filename, node.lineno, called))
    return found


def test_library_makes_no_numpy_ma_call():
    src = pathlib.Path(cli.__file__).parent
    assert [call for path in sorted(src.glob("*.py"))
            for call in numpy_ma_calls(path.name, path.read_text(encoding="utf-8"))
            ] == []


def test_numpy_ma_guard_sees_each_form():
    code = ("def f(a, b, np, numpy):\n    np.median(a)\n    np.isin(a, b)\n"
            "    np.unique(a)\n    numpy.unique(a, axis=0)\n    median(a)\n"
            "    np.unique(a, return_inverse=True)\n    np.sort(a)\n")
    assert numpy_ma_calls("m.py", code) == [
        ("m.py", 2, "median"), ("m.py", 3, "isin"), ("m.py", 4, "unique"),
        ("m.py", 5, "unique"), ("m.py", 6, "median")]


# Every artifact streams into its temporary file (manifest.atomic_write);
# a text buffer in cli would hold a whole artifact, and its copies, again.
def string_buffers(text):
    """``(line, name)`` of each ``StringIO`` the code names: a call, an
    attribute read or an import."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and node.id == "StringIO":
            found.append((node.lineno, "StringIO"))
        elif isinstance(node, ast.Attribute) and node.attr == "StringIO":
            found.append((node.lineno, "StringIO"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == "StringIO"]
    return sorted(found)


def test_cli_renders_no_artifact_in_memory():
    assert string_buffers(pathlib.Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_string_buffer_guard_sees_each_form():
    code = ("from io import StringIO as Buffer\n"
            "def f(io, lib):\n    io.StringIO()\n    StringIO()\n"
            "    make = lib.io.StringIO\n    Buffer()\n    io.BytesIO()\n")
    assert string_buffers(code) == [(1, "StringIO"), (3, "StringIO"),
                                    (4, "StringIO"), (5, "StringIO")]


@pytest.mark.filterwarnings("ignore:N\\*p")
def test_no_command_imports_numpy_ma(tmp_path):
    # Sparse, without sentinel buckets: the candidate and edge keys span a
    # range wide enough that np.isin would take its sort path.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(200, 3.0, 100, seed=3), events)
    scores, _ = sampling_score_file(tmp_path)
    graph = ["--set", f"dataset.path={events}", *WINDOWS,
             "--set", "prediction.predictors=cn,pf:2", "--set", "prediction.lmax=3",
             "--set", "prediction.include_beyond=false",
             "--set", "prediction.include_disconnected=false"]
    sampled = ["--set", f"dataset.scores={scores}", "--set", "variance.repeats=3",
               "--set", "kaggle.repeats=3"]
    runs = [["snapshot", *graph], ["distance-dist", *graph], ["evaluate", *graph],
            ["evaluate", *graph, "--set", "sampling.mode=fair-random",
             "--set", "sampling.rate=0.3"],
            ["evaluate", *graph, "--set", "sampling.mode=kaggle-balanced"],
            ["temporal", *graph], ["score", *graph], ["variance", *sampled],
            ["kaggle-compare", *sampled],
            ["surrogate", "--set", "surrogate.trials=500"]]
    out = str(tmp_path / "out")
    code = f"""
import sys, warnings
from lpeval import cli
warnings.simplefilter("ignore")
for argv in {runs!r}:
    assert cli.main(argv + ["--out", {out!r}]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    assert run_child(code) == "[]\n"


@pytest.mark.parametrize("body", [b"a\tb\t1\n\xff\xfe\tc\t2\n",
                                  b"a\tb\t1\nb\tc\t99999999999999999999\n",
                                  b"a\tb\t1\na\t\t2\n"],
                         ids=["not-utf-8", "timestamp-beyond-int64",
                              "empty-node-id"])
def test_unreadable_event_file_exits_3(tmp_path, capsys, body):
    events = tmp_path / "events.tsv"
    events.write_bytes(body)
    out = tmp_path / "out"
    assert cli.main(["snapshot", "--out", str(out), "--set", f"dataset.path={events}",
                     *WINDOWS]) == 3
    assert "line 2:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
