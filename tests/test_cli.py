import numpy as np
import pytest

from lpeval import (BEYOND, DISCONNECTED, InstanceSet, PredictorId,
                    build_snapshot, cli, generate_test_set, ingest_events,
                    read_instances_csv, score_instances, synthetic_event_log,
                    write_event_file, write_instances_csv)


def test_threads_setting_is_a_config_error(capsys):
    assert cli.main(["snapshot", "--set", "run.threads=2"]) == 2
    assert "run.threads" in capsys.readouterr().err


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["snapshot", "--threads", "2"])
    assert exc.value.code == 2


def test_evaluate_and_score_rerun_identically(tmp_path):
    # Ids holding ',' and '"' must be quoted in every instance CSV.
    events = tmp_path / "events.tsv"
    write_event_file(synthetic_event_log(60, 4.0, 100, seed=3, id_prefix='n,"'),
                     events)
    out = tmp_path / "out"
    args = ["--out", str(out), "--set", f"dataset.path={events}",
            "--set", "windows.train_feature=0:59",
            "--set", "windows.train_label=60:69",
            "--set", "windows.test_feature=0:79",
            "--set", "windows.test_label=80:100",
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
