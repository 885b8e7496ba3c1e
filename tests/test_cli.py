import pytest

from lpeval import cli


def test_threads_setting_is_a_config_error(capsys):
    assert cli.main(["snapshot", "--set", "run.threads=2"]) == 2
    assert "run.threads" in capsys.readouterr().err


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["snapshot", "--threads", "2"])
    assert exc.value.code == 2
