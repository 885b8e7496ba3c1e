import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpeval import (ConfigError, EventLog, IngestError, Snapshot, WindowConfig,
                    build_snapshot, ingest_events, write_snapshot_csv)
from lpeval.config import WEIGHT_RULES

from oracles import NumpySnapshot, numpy_build_snapshot, numpy_event_columns


def ingest_text(text, format="pair"):
    return ingest_events(io.StringIO(text), format=format)


class TestIngest:
    def test_three_line_pair_file(self):
        log = ingest_text("a\tb\t1\nb\tc\t2\nc\td\t2\n")
        assert log.n_events == 3
        assert log.n_nodes == 4
        assert log.timestamps.tolist() == [1, 2, 2]
        assert not log.was_unsorted

    def test_empty_file(self):
        log = ingest_text("")
        assert log.n_events == 0
        assert log.n_nodes == 0

    def test_comments_and_blank_lines_skipped(self):
        log = ingest_text("# header\n\na\tb\t1\n")
        assert log.n_events == 1

    def test_weight_column(self):
        log = ingest_text("a\tb\t1\t2.5\n")
        assert log.weight_overrides[0] == 2.5

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(IngestError) as err:
            ingest_text("a\tb\t1\nbroken line\n")
        assert err.value.line == 2

    def test_bad_timestamp(self):
        with pytest.raises(IngestError) as err:
            ingest_text("a\tb\tnot_a_time\n")
        assert err.value.line == 1

    def test_self_pair_rejected(self):
        with pytest.raises(IngestError):
            ingest_text("a\ta\t1\n")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(IngestError):
            ingest_text("a\tb\t1\t0\n")
        with pytest.raises(IngestError):
            ingest_text("a\tb\t1\t-2\n")

    def test_unsorted_input_sorted_with_notice(self):
        with pytest.warns(UserWarning, match="not sorted"):
            log = ingest_text("a\tb\t5\nb\tc\t1\n")
        assert log.was_unsorted
        assert log.timestamps.tolist() == [1, 5]
        # the event at t=1 is the (b, c) one
        assert log.participants(0).tolist() == [1, 2]

    def test_clique_format(self):
        with pytest.warns(UserWarning):
            log = ingest_text("3\tx|y|z\n1\ta|b\t0.5\n", format="clique")
        assert log.n_events == 2
        assert log.timestamps.tolist() == [1, 3]
        assert log.participants(1).size == 3

    @pytest.mark.parametrize("text, format", [
        ("a\tb\t1\na\t\t2\n", "pair"), ("a\tb\t1\n\ta\t2\n", "pair"),
        ("1\ta|b\n2\t|a|b\n", "clique"), ("1\ta|b\n2\ta||b\n", "clique")])
    def test_empty_node_id_rejected(self, text, format):
        with pytest.raises(IngestError, match="empty node id") as err:
            ingest_text(text, format=format)
        assert err.value.line == 2

    def test_clique_duplicate_participant_rejected(self):
        with pytest.raises(IngestError):
            ingest_text("1\ta|b|a\n", format="clique")

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            ingest_text("a\tb\t1\n", format="edges")

    def test_ids_interned_with_side_table(self):
        log = ingest_text("alice\tbob\t1\nbob\tcarol\t2\n")
        assert log.id_labels == ["alice", "bob", "carol"]
        assert log.participants(0).tolist() == [0, 1]


# Pieces of event lines that reach every branch of the line parser: ids,
# clique and field separators, comments, line ends, timestamps inside and
# outside int64, and weights of every kind.
PIECES = st.one_of(
    st.sampled_from(["a", "b", "c", "a|b", "|", "\t", "\n", "\r\n", "#", " ", "-",
                     "0", "1", "0.5", "-2", "nan", "inf", "1e400", "x y"]),
    st.integers(-(2 ** 65), 2 ** 65).map(str),
    st.text(max_size=3))
EVENT_TEXT = st.one_of(st.lists(PIECES, max_size=40).map("".join), st.text())
EVENT_BYTES = st.one_of(
    st.lists(st.one_of(PIECES.map(str.encode), st.binary(max_size=2)),
             max_size=40).map(b"".join),
    st.binary())
FORMATS = st.sampled_from(["pair", "clique"])


def assert_log_or_ingest_error(source, format):
    """``ingest_events`` raises IngestError or returns a well-formed log."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unsorted input is sorted with a notice
        try:
            log = ingest_events(source, format=format)
        except IngestError:
            return
    assert isinstance(log, EventLog)
    offsets, nodes = log.event_offsets, log.event_nodes
    assert offsets.size == log.n_events + 1 and offsets[0] == 0
    assert offsets[-1] == nodes.size
    assert np.all(np.diff(offsets) >= 2)
    assert np.all(log.timestamps[1:] >= log.timestamps[:-1])
    assert np.all((nodes >= 0) & (nodes < log.n_nodes))
    assert "" not in log.id_labels
    for i in range(log.n_events):
        parts = log.participants(i).tolist()
        assert len(set(parts)) == len(parts)
    w = log.weight_overrides
    assert w.size == log.n_events
    assert np.all(np.isnan(w) | (np.isfinite(w) & (w > 0)))


class TestIngestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(EVENT_TEXT, FORMATS)
    @example("a\tb\t1\nb\tc\t99999999999999999999\n", "pair")
    @example("1\ta|b\n-99999999999999999999\tb|c\n", "clique")
    @example("a\t\t1\n", "pair")
    @example("1\t|a|b\n", "clique")
    def test_text_gives_a_log_or_an_ingest_error(self, text, format):
        assert_log_or_ingest_error(io.StringIO(text), format)

    @settings(max_examples=300, deadline=None)
    @given(EVENT_BYTES, FORMATS)
    @example(b"a\tb\t1\n\xff\xfe\tc\t2\n", "pair")
    @example(b"1\ta|b\n2\tb|\xc3\n", "clique")
    def test_bytes_give_a_log_or_an_ingest_error(self, data, format):
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            # The first line holding an undecodable byte is named.
            lines = data.decode("utf-8", "surrogateescape").split("\n")
            bad = next(i for i, line in enumerate(lines, 1)
                       if any("\udc80" <= c <= "\udcff" for c in line))
            with pytest.raises(IngestError) as err:
                ingest_events(io.BytesIO(data), format=format)
            assert err.value.line == bad
            # A text stream fails as it decodes, before any line is read.
            with pytest.raises(IngestError):
                ingest_events(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                              format=format)
        else:
            assert_log_or_ingest_error(io.BytesIO(data), format)

    @pytest.mark.filterwarnings("error")
    def test_timestamps_at_the_int64_limits_are_kept(self):
        log = ingest_text(f"a\tb\t{-(2 ** 63)}\nb\tc\t{2 ** 63 - 1}\n")
        assert log.timestamps.tolist() == [-(2 ** 63), 2 ** 63 - 1]
        assert not log.was_unsorted
        with pytest.raises(IngestError) as err:
            ingest_text(f"a\tb\t1\nb\tc\t{2 ** 63}\n")
        assert err.value.line == 2


class TestBuildSnapshot:
    def test_single_pair_event_weight_one(self):
        log = ingest_text("a\tb\t1\n")
        s = build_snapshot(log, (0, 10))
        assert s.weight(0, 1) == 1.0

    def test_three_clique_weights(self):
        # clique expansion oracle: each of the 3 pairs gets 1/(k-1) = 0.5
        log = ingest_text("1\ta|b|c\n", format="clique")
        s = build_snapshot(log, (1, 1))
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            assert s.weight(u, v) == pytest.approx(0.5)

    def test_repeated_pair_additivity(self):
        log = ingest_text("a\tb\t1\na\tb\t2\n")
        s = build_snapshot(log, (1, 2))
        assert s.weight(0, 1) == 2.0

    def test_events_outside_interval_ignored(self):
        log = ingest_text("a\tb\t1\nc\td\t9\n")
        s = build_snapshot(log, (0, 5))
        assert s.n_edges == 1
        assert s.weight(2, 3) == 0.0

    def test_zero_event_interval_is_valid_and_empty(self):
        log = ingest_text("a\tb\t1\n")
        s = build_snapshot(log, (5, 9))
        assert s.n_edges == 0
        assert s.n_nodes == 0

    def test_empty_interval_rejected(self):
        log = ingest_text("a\tb\t1\n")
        with pytest.raises(ConfigError):
            build_snapshot(log, (5, 4))

    def test_weight_override_replaces_rule(self):
        log = ingest_text("1\ta|b|c\t2.0\n", format="clique")
        s = build_snapshot(log, (1, 1))
        assert s.weight(0, 1) == 2.0

    def test_alternative_weight_rules(self):
        log = ingest_text("1\ta|b|c\n", format="clique")
        assert build_snapshot(log, (1, 1), weight_rule="1/k").weight(0, 1) == \
            pytest.approx(1 / 3)
        assert build_snapshot(log, (1, 1), weight_rule="1").weight(0, 1) == 1.0
        with pytest.raises(ConfigError):
            build_snapshot(log, (1, 1), weight_rule="sqrt")

    def test_clique_expansion_total_weight(self, rng):
        # a k-clique event adds k*(k-1)/2 * 1/(k-1) = k/2 total weight
        for k in (2, 3, 5, 8):
            ids = "|".join(f"v{i}" for i in range(k))
            log = ingest_text(f"1\t{ids}\n", format="clique")
            s = build_snapshot(log, (1, 1))
            assert s.total_weight == pytest.approx(k / 2)

    def test_interval_additivity(self, rng):
        # weight over [a, c] equals the edge-wise sum over [a, b] and [b+1, c]
        for trial in range(10):
            events = []
            for _ in range(40):
                t = int(rng.integers(0, 20))
                u, v = rng.choice(12, size=2, replace=False)
                events.append((t, (int(u), int(v)), None))
            log = EventLog.from_tuples(events)
            split = int(rng.integers(1, 19))
            whole = build_snapshot(log, (0, 19))
            left = build_snapshot(log, (0, split))
            right = build_snapshot(log, (split + 1, 19))
            for u in range(12):
                for v in range(u + 1, 12):
                    assert whole.weight(u, v) == pytest.approx(
                        left.weight(u, v) + right.weight(u, v), abs=1e-12)

    def test_symmetry_exhaustive(self, rng):
        for _ in range(5):
            events = [(int(rng.integers(10)),
                       tuple(int(x) for x in rng.choice(10, size=2, replace=False)),
                       None) for _ in range(30)]
            s = build_snapshot(EventLog.from_tuples(events), (0, 10))
            for u in range(10):
                for v in range(10):
                    if u != v:
                        assert s.weight(u, v) == s.weight(v, u)


class TestQueries:
    def test_triangle_degrees(self):
        s = Snapshot.from_edges([(0, 1), (1, 2), (0, 2)])
        assert [s.degree(i) for i in range(3)] == [2, 2, 2]

    def test_unknown_node_degree_zero(self):
        s = Snapshot.from_edges([(0, 1)])
        assert s.degree(99) == 0
        assert s.neighbors(99).size == 0

    def test_star_neighbors(self):
        s = Snapshot.from_edges([(0, i) for i in range(1, 6)])
        assert s.degree(0) == 5
        assert sorted(s.neighbors(0).tolist()) == [1, 2, 3, 4, 5]
        assert s.neighbors(3).tolist() == [0]

    def test_snapshot_is_frozen(self):
        s = Snapshot.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            s.weights[0] = 5.0


class TestExportAndDeterminism:
    def test_export_format(self):
        log = ingest_text("b\ta\t1\nc\ta\t2\n")
        s = build_snapshot(log, (0, 10))
        buf = io.StringIO()
        write_snapshot_csv(s, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "u,v,weight"
        # interned order b=0, a=1, c=2: edges orient as (b,a) and (a,c);
        # rows then sort lexicographically by label
        assert lines[1] == "a,c,1.0"
        assert lines[2] == "b,a,1.0"

    def test_ids_needing_quotes_are_quoted(self):
        s = build_snapshot(ingest_text('a,b\tz\t1\nq"x\tz\t2\n'), (0, 10))
        buf = io.StringIO()
        write_snapshot_csv(s, buf)
        assert buf.getvalue().splitlines()[1:] == ['"a,b",z,1.0', 'z,"q""x",1.0']
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[1:] == [["a,b", "z", "1.0"], ["z", 'q"x', "1.0"]]

    def test_identical_bytes_identical_snapshot(self):
        text = "a\tb\t1\nb\tc\t2\na\tc\t2\na\tb\t3\n"
        out = []
        for _ in range(2):
            buf = io.StringIO()
            write_snapshot_csv(build_snapshot(ingest_text(text), (0, 5)), buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]


# Ids that CSV must quote, and ones it need not.
IDS = ["a", "b", "n07", "c,d", 'q"x', "e f", "\u00fc", "x,\"y\"", "10", "9"]


def random_event_text(rng, format):
    """A random event file (pair or clique events, some with a weight
    override, in or out of time order), its columns in file order with ids
    interned by first appearance, and the interned labels."""
    events = []
    for _ in range(int(rng.integers(0, 40))):
        k = 2 if format == "pair" else int(rng.integers(2, 6))
        ids = [IDS[i] for i in rng.choice(len(IDS), size=k, replace=False)]
        w = None if rng.random() < 0.6 else float(rng.choice([0.1, 0.5, 2.5, 1 / 3]))
        events.append((int(rng.integers(0, 30)), ids, w))
    if rng.random() < 0.5:
        events.sort(key=lambda e: e[0])
    index, lines = {}, []
    timestamps, offsets, nodes, overrides = [], [0], [], []
    for t, ids, w in events:
        tail = "" if w is None else f"\t{w!r}"
        lines.append(f"{ids[0]}\t{ids[1]}\t{t}{tail}\n" if format == "pair"
                     else f"{t}\t{'|'.join(ids)}{tail}\n")
        nodes.extend(index.setdefault(label, len(index)) for label in ids)
        timestamps.append(t)
        offsets.append(len(nodes))
        overrides.append(math.nan if w is None else w)
    return "".join(lines), (timestamps, offsets, nodes, overrides), list(index)


def assert_frozen_equal(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    assert not got.flags.writeable


class TestMatchesNumpyGraphStore:
    """The stdlib event log and window aggregation against the numpy ones
    they replaced: the same arrays, the same CSV bytes."""

    @pytest.mark.parametrize("format", ["pair", "clique"])
    def test_logs_snapshots_and_csv(self, rng, format):
        for _ in range(60):
            text, columns, labels = random_event_text(rng, format)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                log = ingest_text(text, format=format)
            want = numpy_event_columns(*columns)
            assert log.id_labels == labels
            assert log.was_unsorted == bool(np.any(np.diff(columns[0]) < 0))
            for name, arr in want.items():
                assert_frozen_equal(getattr(log, name), arr)
            for i in range(log.n_events):
                assert_frozen_equal(log.participants(i), want["event_nodes"][
                    want["event_offsets"][i]:want["event_offsets"][i + 1]])
            # windows before, inside and after the events; some select none
            for _ in range(4):
                begin = int(rng.integers(-5, 35))
                end = begin + int(rng.integers(0, 20))
                rule = str(rng.choice(list(WEIGHT_RULES)))
                snap = build_snapshot(log, (begin, end), weight_rule=rule)
                ref = numpy_build_snapshot(want, len(labels), (begin, end),
                                           WEIGHT_RULES[rule], labels)
                self.check(snap, ref)

    def test_snapshot_constructor(self, rng):
        # either orientation, repeated pairs kept in input order
        for _ in range(40):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(0, 30))
            u = rng.integers(0, n, m)
            v = (u + rng.integers(1, n, m)) % n
            w = rng.choice([0.1, 0.2, 1.0, 3.5], m)
            self.check(Snapshot(n, u, v, w), NumpySnapshot(n, u, v, w))

    @staticmethod
    def check(snap, ref):
        for attr in ("indptr", "indices", "weights", "node_ids"):
            assert_frozen_equal(getattr(snap, attr), getattr(ref, attr))
        for got, want in zip(snap.edge_arrays(), (ref.edge_u, ref.edge_v, ref.edge_w)):
            assert_frozen_equal(got, want)
        assert_frozen_equal(snap.degrees(), np.diff(ref.indptr))
        assert (snap.n_nodes, snap.n_edges) == (ref.node_ids.size, ref.edge_u.size)
        assert snap.total_weight == math.fsum(ref.edge_w.tolist())
        buf = io.StringIO()
        write_snapshot_csv(snap, buf)
        assert buf.getvalue() == ref.csv_text()


class TestWindowConfig:
    def test_valid(self):
        WindowConfig((0, 59), (60, 79), (0, 79), (80, 100))

    def test_label_must_follow_features(self):
        with pytest.raises(ConfigError):
            WindowConfig((0, 60), (60, 79), (0, 79), (80, 100))
        with pytest.raises(ConfigError):
            WindowConfig((0, 59), (60, 79), (0, 85), (80, 100))

    def test_test_label_after_all_training(self):
        with pytest.raises(ConfigError):
            WindowConfig((0, 59), (60, 90), (0, 79), (80, 100))

    def test_window_lengths_are_free(self):
        # training and testing feature windows may differ in length
        WindowConfig((10, 59), (60, 79), (0, 79), (80, 100))
