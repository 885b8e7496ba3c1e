import json

import numpy as np
import pytest

from lpeval import (BEYOND, DISCONNECTED, InstanceSet, PredictorId,
                    build_snapshot, cli, generate_test_set, ingest_events,
                    read_instances_csv, score_instances, synthetic_event_log,
                    write_event_file, write_instances_csv)
from lpeval.manifest import sha256_file


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
        back = read_instances_csv(str(out / f"scores_{pred.name}.csv"),
                                  id_index=index)
        assert np.array_equal(back.u, want.u)
        assert np.array_equal(back.v, want.v)
        assert np.array_equal(back.distance, want.distance)
        assert np.array_equal(back.label, want.label)
        assert np.array_equal(back.scores["score"].view(np.uint64),
                              want.scores[pred.name].view(np.uint64))


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
    ("99999999999999999999,2,2,1,0.5\n", 2),
    ("0,1,2,1,0.5\n0,2,2,,0.5\n", 3),
])
@pytest.mark.parametrize("command", ["variance", "kaggle-compare"])
def test_malformed_score_file_exits_3(tmp_path, capsys, command, body, line):
    scores = tmp_path / "scores.csv"
    scores.write_text("u,v,distance,label,score\n" + body, encoding="utf-8")
    assert cli.main([command, "--out", str(tmp_path / "out"),
                     "--set", f"dataset.scores={scores}"]) == 3
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "score", "variance",
                                     "kaggle-compare"])
def test_missing_score_file_exits_3(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out),
                     "--set", f"dataset.scores={tmp_path / 'absent.csv'}"]) == 3
    assert "data error: cannot read score file" in capsys.readouterr().err
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


@pytest.mark.parametrize("command, setting, field", [
    ("snapshot", "dataset.path=", "dataset.path"),
    ("distance-dist", "windows.test_label=", "windows"),
    ("temporal", "temporal.slices=1000", "temporal.slices"),
    ("surrogate", "surrogate.betas=0.5", "surrogate.beta"),
    # The slice count is checked before the (missing) dataset is read.
    pytest.param("temporal", "temporal.slices=0 dataset.path=no-such-dir/events.tsv",
                 "temporal.slices", id="temporal-slices=0-missing-dataset"),
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
