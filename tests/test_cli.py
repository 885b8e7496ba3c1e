import numpy as np
import pytest

from lpeval import (PredictorId, build_snapshot, cli, generate_test_set,
                    ingest_events, read_instances_csv, score_instances,
                    synthetic_event_log, write_event_file)


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
