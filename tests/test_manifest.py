"""The one artifact writer: ``manifest.atomic_write`` streams a writer's
text into a temporary file, hashing it as it passes."""

import hashlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lpeval import BEYOND, DISCONNECTED, InstanceSet, cli, stratify, write_instances_csv
from lpeval.config import RunConfig
from lpeval.manifest import atomic_write, atomic_write_text

from oracles import instances_csv_text

ID_LABELS = ["ann", "bé", "ç,d", 'e"f', "gö", "日本"]


def instances(n, seed=3):
    rng = np.random.default_rng(seed)
    return InstanceSet(rng.integers(0, 3, n), rng.integers(3, 6, n),
                       rng.choice([2, 3, BEYOND, DISCONNECTED], n),
                       rng.random(n) < 0.3, {"cn": np.round(rng.random(n), 2)})


def disk_digest(path):
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("rows, chunk_rows", [(0, 8192), (5, 8192), (50, 3)],
                         ids=["empty", "one-chunk", "many-chunks"])
def test_digest_is_that_of_the_bytes_on_disk(tmp_path, rows, chunk_rows):
    inst = instances(rows)
    path = tmp_path / "out" / "instances.csv"
    with mock.patch.object(stratify, "_CHUNK_ROWS", chunk_rows):
        digest = atomic_write(path, lambda sink: write_instances_csv(
            sink, inst, id_labels=ID_LABELS))
    assert digest == disk_digest(path)
    assert path.read_bytes() == instances_csv_text(inst, ID_LABELS).encode("utf-8")


def test_empty_text(tmp_path):
    path = tmp_path / "empty.txt"
    assert atomic_write(path, lambda sink: None) == disk_digest(path)
    assert path.read_bytes() == b""
    assert atomic_write_text(path, "") == disk_digest(path)


def test_failed_write_keeps_the_old_artifact(tmp_path):
    path = tmp_path / "instances.csv"
    old = atomic_write_text(path, "old\n")

    def write(sink):
        sink.writelines(["u,v\n"] * 10_000)
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(path, write)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert disk_digest(path) == old
    assert sorted(os.listdir(tmp_path)) == ["instances.csv"]


def test_getvalue_reads_the_text_written(tmp_path):
    seen = []

    def write(sink):
        sink.write("u,v\n")
        seen.append(sink.getvalue())
        sink.writelines(["bé,1\n", "日本,2\n"])
        seen.append(sink.getvalue())

    path = tmp_path / "ids.csv"
    atomic_write(path, write)
    assert seen == ["u,v\n", "u,v\nbé,1\n日本,2\n"]
    assert path.read_text(encoding="utf-8") == seen[-1]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_artifact_mode_is_that_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "artifact.csv", "u,v\n")
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "artifact.csv").st_mode & 0o777
    assert mode == os.stat(tmp_path / "plain.csv").st_mode & 0o777 \
        == 0o666 & ~umask


def test_render_holds_no_copy_of_the_text(tmp_path):
    # Written straight to an open file, the instance CSV writer holds one
    # chunk of rows, and whatever its column formatting holds; rendered as
    # an artifact it holds no more at four times the rows, where a text
    # buffer would add three copies of the text.
    out = cli._Output(RunConfig.from_overrides([f"run.out={tmp_path}"]), "score")
    n = 50_000
    inst = instances(n)
    excess = []
    for reps in (1, 4):
        rows = inst.take(np.tile(np.arange(n), reps))
        peaks = []
        for render in (False, True):
            write = lambda fh: write_instances_csv(fh, rows, id_labels=ID_LABELS)
            tracemalloc.start()
            try:
                if render:
                    out.render("instances.csv", write)
                else:
                    with open(tmp_path / "plain.csv", "w", encoding="utf-8",
                              newline="") as fh:
                        write(fh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "instances.csv").read_bytes() == \
            (tmp_path / "plain.csv").read_bytes()
        excess.append(peaks[1] - peaks[0])
    chunk = os.path.getsize(tmp_path / "plain.csv") // (4 * n) * stratify._CHUNK_ROWS
    assert excess[0] <= 2 * chunk
    assert excess[1] <= excess[0] + (64 << 10)
