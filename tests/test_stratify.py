import io
import itertools
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpeval import (BEYOND, DISCONNECTED, ConfigError, IngestError, InstanceSet,
                    Snapshot, build_snapshot, distance_str, generate_test_set,
                    geodesic_bucket_enumerate, label_instances,
                    new_link_distance_distribution, parse_distance,
                    read_instances_csv, synthetic_event_log, write_instances_csv)
from lpeval import predictors, stratify

from conftest import random_graph
from oracles import (hop_distances, instances_csv_text, lowest_reachable,
                     read_instances_rows)


def pair_set(inst):
    return set(zip(inst.u.tolist(), inst.v.tolist()))


def bucket_map(inst):
    return {(int(u), int(v)): int(d)
            for u, v, d in zip(inst.u, inst.v, inst.distance)}


SPECIAL_SCORES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1 + 0.2]


@st.composite
def instance_sets(draw):
    """A random InstanceSet with its id labels (or None) and score keys."""
    n = draw(st.integers(0, 20))
    n_ids = draw(st.integers(1, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    ids = st.integers(0, n_ids - 1)
    label = draw(st.none() | st.just(column(st.booleans())))
    keys = draw(st.lists(st.sampled_from(["cn", "aa", "pa", "propflow4"]),
                         unique=True, max_size=3))
    score = st.sampled_from(SPECIAL_SCORES) | st.floats() | \
        st.integers(-3, 3).map(float)
    inst = InstanceSet(column(ids), column(ids),
                       column(st.sampled_from([2, 3, 7, BEYOND, DISCONNECTED])),
                       label,
                       {k: np.array(column(score), dtype=float) for k in keys})
    id_labels = draw(st.none() | st.lists(
        st.text(st.sampled_from(list('ab ,"\r\n\xe9')), max_size=4),
        min_size=n_ids, max_size=n_ids, unique=True))
    return inst, id_labels, keys


def multi_component_graph(rng):
    """A feature snapshot over 2-4 random graphs on disjoint, shuffled ids,
    with its edge list and universe size."""
    edges, n = [], 0
    for _ in range(int(rng.integers(2, 5))):
        _, part, size = random_graph(rng, n=int(rng.integers(3, 15)))
        edges += [(u + n, v + n) for u, v, _ in part]
        n += size
    ids = rng.permutation(n).tolist()
    edges = [(ids[u], ids[v]) for u, v in edges]
    return Snapshot.from_edges(edges, n=n), edges, n


def small_blocks(monkeypatch, rng, s):
    """Patch the block size to 1-3 sources of ``s``."""
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", int(rng.integers(1, 4))
                        * (s.n_universe + s.indices.size))


def distance_distribution_oracle(feature, label):
    """The new-link distance distribution from scipy all-pairs hop counts."""
    fu, fv, _ = feature.edge_arrays()
    oracle = hop_distances(feature.n_universe, list(zip(fu, fv)))
    lu, lv, _ = label.edge_arrays()
    counts = {}
    feat_keys = feature.edge_key_set()
    for u, v in zip(lu.tolist(), lv.tolist()):
        if not (feature.contains(u) and feature.contains(v)):
            continue
        if u * feature.n_universe + v in feat_keys:
            continue
        d = oracle[u, v]
        d = DISCONNECTED if np.isinf(d) else int(d)
        counts[d] = counts.get(d, 0) + 1
    total = sum(counts.values())
    return {d: c / total for d, c in counts.items()}


def score_bits(a):
    """Bit patterns of a float array, every NaN as the one NaN repr reads."""
    return np.where(np.isnan(a), np.float64(np.nan), a).view(np.uint64)


def with_line_ends(text, ends):
    """``text`` with each record-ending newline (one outside quotes) replaced
    by the next string of ``ends``."""
    out, quoted = [], False
    for ch in text:
        if ch == '"':
            quoted = not quoted
        out.append(next(ends) if ch == "\n" and not quoted else ch)
    return "".join(out)


LINE_ENDS = ["\n", "\r\n", "\n\n", "\r\n\r\n", "\n\r\n"]
HEADER = "u,v,distance,label,score\n"


class TestEnumeration:
    def test_path_graph_buckets(self):
        s = Snapshot.from_edges([(0, 1), (1, 2), (2, 3)])
        inst = geodesic_bucket_enumerate(s, 3)
        assert bucket_map(inst) == {(0, 2): 2, (1, 3): 2, (0, 3): 3}

    def test_triangle_has_no_candidates(self):
        s = Snapshot.from_edges([(0, 1), (1, 2), (0, 2)])
        assert len(geodesic_bucket_enumerate(s, 4)) == 0

    def test_disjoint_edges_disconnected(self):
        s = Snapshot.from_edges([(0, 1), (2, 3)])
        inst = geodesic_bucket_enumerate(s, 3, include_disconnected=True)
        assert bucket_map(inst) == {(0, 2): DISCONNECTED, (0, 3): DISCONNECTED,
                                    (1, 2): DISCONNECTED, (1, 3): DISCONNECTED}
        assert len(geodesic_bucket_enumerate(s, 3)) == 0

    def test_beyond_bucket_on_request(self):
        s = Snapshot.from_edges([(i, i + 1) for i in range(4)])  # path of 5
        inst = geodesic_bucket_enumerate(s, 2, include_beyond=True)
        buckets = bucket_map(inst)
        assert buckets[(0, 2)] == 2
        assert buckets[(0, 3)] == BEYOND
        assert buckets[(0, 4)] == BEYOND

    def test_lmax_validation(self):
        s = Snapshot.from_edges([(0, 1)])
        with pytest.raises(ConfigError):
            geodesic_bucket_enumerate(s, 1)

    def test_output_ordering(self):
        s = Snapshot.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        inst = geodesic_bucket_enumerate(s, 4)
        rows = list(zip(inst.distance.tolist(), inst.u.tolist(), inst.v.tolist()))
        assert rows == sorted(rows)

    def test_far_same_component_pairs_are_not_disconnected(self):
        s = Snapshot.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
        got = bucket_map(geodesic_bucket_enumerate(s, 2,
                                                   include_disconnected=True))
        assert {p for p, d in got.items() if d == 2} == {(0, 2), (1, 3), (2, 4)}
        assert {p for p, d in got.items() if d == DISCONNECTED} == \
            {(a, b) for a in range(5) for b in (5, 6)}
        assert not {(0, 3), (0, 4), (1, 4)} & got.keys()

    def test_buckets_match_allpairs_bfs_oracle(self, rng):
        for _ in range(20):
            s, edges, n = random_graph(rng, n=int(rng.integers(8, 40)))
            l_max = int(rng.integers(2, 6))
            dist = hop_distances(n, [(u, v) for u, v, _ in edges])
            nodes = s.node_ids.tolist()
            for beyond, disconnected in itertools.product((True, False), repeat=2):
                inst = geodesic_bucket_enumerate(s, l_max, include_beyond=beyond,
                                                 include_disconnected=disconnected)
                want = {}
                for i, u in enumerate(nodes):
                    for v in nodes[i + 1:]:
                        d = dist[u, v]
                        if d == 1:
                            continue
                        if np.isinf(d):
                            if disconnected:
                                want[(u, v)] = DISCONNECTED
                        elif d > l_max:
                            if beyond:
                                want[(u, v)] = BEYOND
                        else:
                            want[(u, v)] = int(d)
                assert bucket_map(inst) == want

    @pytest.mark.parametrize("beyond, disconnected",
                             itertools.product((True, False), repeat=2))
    def test_walk_is_cut_at_lmax(self, beyond, disconnected):
        s = Snapshot.from_edges([(i, i + 1) for i in range(7)] + [(8, 9)])
        limits = []
        blocks = stratify.bfs_level_blocks

        def walk(snapshot, sources, depth_limit=None):
            limits.append(depth_limit)
            return blocks(snapshot, sources, depth_limit)

        with mock.patch.object(stratify, "bfs_level_blocks", walk):
            inst = geodesic_bucket_enumerate(s, 3, include_beyond=beyond,
                                             include_disconnected=disconnected)
        assert limits and set(limits) == {3}
        assert (BEYOND in inst.distance) == beyond
        assert (DISCONNECTED in inst.distance) == disconnected

    @pytest.mark.parametrize("beyond, disconnected",
                             itertools.product((True, False), repeat=2))
    def test_rows_strictly_ordered_across_blocks(self, rng, monkeypatch,
                                                  beyond, disconnected):
        for _ in range(20):
            s, _, _ = multi_component_graph(rng)
            small_blocks(monkeypatch, rng, s)
            inst = geodesic_bucket_enumerate(s, int(rng.integers(2, 4)),
                                             include_beyond=beyond,
                                             include_disconnected=disconnected)
            rows = list(zip(inst.distance.tolist(), inst.u.tolist(),
                            inst.v.tolist()))
            assert all(a < b for a, b in zip(rows, rows[1:]))


class TestComponents:
    def check(self, s):
        eu, ev, _ = s.edge_arrays()
        want = lowest_reachable(s.n_universe, list(zip(eu.tolist(), ev.tolist())))
        np.testing.assert_array_equal(stratify._components(s), want)

    def test_random_graphs(self, rng):
        for _ in range(40):
            self.check(random_graph(rng, p=float(rng.uniform(0.02, 0.35)))[0])

    def test_many_three_node_paths(self, rng):
        ids = rng.permutation(6000).reshape(2000, 3)
        u = np.concatenate([ids[:, 0], ids[:, 1]])
        v = np.concatenate([ids[:, 1], ids[:, 2]])
        self.check(Snapshot(6000, u, v, np.ones(u.size)))

    def test_long_path_with_shuffled_ids(self, rng):
        ids = rng.permutation(20_001)
        s = Snapshot(ids.size, ids[:-1], ids[1:], np.ones(ids.size - 1))
        self.check(s)


class TestLabeling:
    def test_toy_network_labels(self):
        a, b, c, d, x, y, z = range(7)
        feature = Snapshot.from_edges([(a, x), (b, x), (a, y), (b, y), (c, z), (d, z)])
        label = Snapshot.from_edges([(a, b)], n=7)
        inst = label_instances(geodesic_bucket_enumerate(feature, 2), label)
        labels = {(int(u), int(v)): bool(l)
                  for u, v, l in zip(inst.u, inst.v, inst.label)}
        assert labels[(a, b)] is True
        assert labels[(c, d)] is False

    def test_empty_label_snapshot_all_negative(self):
        s = Snapshot.from_edges([(0, 1), (1, 2)])
        inst = label_instances(geodesic_bucket_enumerate(s, 2),
                               Snapshot.from_edges([], n=3))
        assert inst.n_pos == 0
        assert inst.n_neg == len(inst)

    def test_label_equal_to_feature_complement_all_positive(self):
        s = Snapshot.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        complement = Snapshot.from_edges([(0, 2), (1, 3)])
        inst = label_instances(
            geodesic_bucket_enumerate(s, 4, include_beyond=True,
                                      include_disconnected=True), complement)
        assert inst.n_neg == 0
        assert inst.n_pos == len(inst) == 2

    def test_count_conservation(self, rng):
        s, _, n = random_graph(rng, n=15)
        label, _, _ = random_graph(rng, n=15)
        cands = geodesic_bucket_enumerate(s, 3, include_beyond=True,
                                          include_disconnected=True)
        inst = label_instances(cands, label)
        assert inst.n_pos + inst.n_neg == len(cands)


class TestGenerateTestSet:
    def test_new_node_excluded_then_included(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2)], n=4)
        label = Snapshot.from_edges([(0, 3)], n=4)  # node 3 is new
        rec = generate_test_set(feature, label, mode="recommendation", l_max=3)
        qry = generate_test_set(feature, label, mode="query", l_max=3)
        assert (0, 3) not in pair_set(rec)
        assert (0, 3) in pair_set(qry)
        qmap = {(int(u), int(v)): (int(d), bool(l))
                for u, v, d, l in zip(qry.u, qry.v, qry.distance, qry.label)}
        assert qmap[(0, 3)] == (DISCONNECTED, True)

    def test_no_new_nodes_modes_identical(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2), (2, 3)])
        label = Snapshot.from_edges([(0, 2)], n=4)
        rec = generate_test_set(feature, label, mode="recommendation", l_max=3)
        qry = generate_test_set(feature, label, mode="query", l_max=3)
        assert pair_set(rec) == pair_set(qry)
        assert rec.label.tolist() == qry.label.tolist()

    def test_new_node_positive_count_difference(self, rng):
        # 20-node synthetic with 3 label-only nodes: the query-mode positive
        # surplus is exactly the number of new-node links (set difference).
        base_edges = [(int(u), int(v)) for u, v in
                      {tuple(sorted(rng.choice(17, 2, replace=False)))
                       for _ in range(30)}]
        feature = Snapshot.from_edges(base_edges, n=20)
        feat_keys = {tuple(sorted(e)) for e in base_edges}
        label_edges = [(0, 17), (5, 18), (17, 19), (1, 2), (3, 8)]
        label_edges = [e for e in label_edges if tuple(sorted(e)) not in feat_keys]
        label = Snapshot.from_edges(label_edges, n=20)
        rec = generate_test_set(feature, label, mode="recommendation", l_max=4)
        qry = generate_test_set(feature, label, mode="query", l_max=4)
        new_node_links = sum(1 for u, v in label_edges
                             if not (feature.contains(u) and feature.contains(v)))
        assert qry.n_pos - rec.n_pos == new_node_links

    def test_query_superset_of_recommendation(self, rng):
        s, _, _ = random_graph(rng, n=12)
        label, _, _ = random_graph(rng, n=12)
        rec = generate_test_set(s, label, mode="recommendation", l_max=3)
        qry = generate_test_set(s, label, mode="query", l_max=3)
        assert pair_set(rec) <= pair_set(qry)


class TestDistanceDistribution:
    def test_single_closing_edge(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2)])
        label = Snapshot.from_edges([(0, 2)], n=3)
        assert new_link_distance_distribution(feature, label) == {2: 1.0}

    def test_two_edges_even_split(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2), (2, 3)])
        label = Snapshot.from_edges([(0, 2), (0, 3)], n=4)
        dist = new_link_distance_distribution(feature, label)
        assert dist == {2: 0.5, 3: 0.5}

    def test_existing_and_unknown_endpoints_ignored(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2)], n=5)
        label = Snapshot.from_edges([(0, 1), (0, 4), (0, 2)], n=5)
        # (0,1) already exists; (0,4) touches an edgeless node; (0,2) counts
        assert new_link_distance_distribution(feature, label) == {2: 1.0}

    def test_empty_when_no_qualifying_edges(self):
        feature = Snapshot.from_edges([(0, 1)])
        label = Snapshot.from_edges([(0, 1)])
        assert new_link_distance_distribution(feature, label) == {}

    def test_locality_generator_mass_decreasing(self, rng):
        # growth by triadic closure concentrates new links at short range;
        # recompute every distance against the scipy all-pairs oracle
        log = synthetic_event_log(120, 4.0, 100, locality=0.9, seed=7)
        feature = build_snapshot(log, (0, 79))
        label = build_snapshot(log, (80, 100))
        dist = new_link_distance_distribution(feature, label)
        finite = {d: p for d, p in dist.items() if d < BEYOND}
        assert finite[2] == max(dist.values())
        if 3 in finite:
            assert finite[2] >= finite[3]
        assert dist == pytest.approx(distance_distribution_oracle(feature, label))

    def test_matches_hop_distances_across_components(self, rng, monkeypatch):
        for _ in range(30):
            feature, edges, n = multi_component_graph(rng)
            pairs = rng.integers(0, n + 2, size=(int(rng.integers(1, 25)), 2))
            pairs = [(u, v) for u, v in pairs.tolist() if u != v]
            pairs += [edges[int(i)] for i in rng.integers(0, len(edges), 3)]
            label = Snapshot.from_edges(pairs, n=n + 2)
            small_blocks(monkeypatch, rng, feature)
            assert new_link_distance_distribution(feature, label) == \
                distance_distribution_oracle(feature, label)

    def test_walk_ends_at_the_last_target(self, monkeypatch):
        feature = Snapshot.from_edges([(i, i + 1) for i in range(39)] + [(40, 41)])
        label = Snapshot.from_edges([(0, 2), (1, 3), (0, 41)], n=42)
        depths = []
        walk = stratify._walk

        def counted(*args):
            for level in walk(*args):
                depths.append(level.depth)
                yield level

        monkeypatch.setattr(stratify, "_walk", counted)
        assert new_link_distance_distribution(feature, label) == \
            {2: 2 / 3, DISCONNECTED: 1 / 3}
        assert max(depths) == 2


class TestInstanceCsv:
    def test_roundtrip_with_sentinels_and_scores(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2), (3, 4)], n=5)
        label = Snapshot.from_edges([(0, 2)], n=5)
        inst = generate_test_set(feature, label, l_max=2)
        inst.scores["demo"] = np.arange(len(inst), dtype=float) / 7.0
        buf = io.StringIO()
        write_instances_csv(buf, inst, score_keys=["demo"])
        back = read_instances_csv(io.StringIO(buf.getvalue()))
        assert back.u.tolist() == inst.u.tolist()
        assert back.distance.tolist() == inst.distance.tolist()
        assert back.label.tolist() == inst.label.tolist()
        assert np.array_equal(back.scores["score"], inst.scores["demo"])

    @settings(max_examples=150, deadline=None)
    @given(instance_sets(), st.sampled_from([1, 3, 8192]))
    def test_matches_row_oracle_and_reads_back(self, case, chunk_rows):
        inst, id_labels, keys = case
        buf = io.StringIO()
        with mock.patch.object(stratify, "_CHUNK_ROWS", chunk_rows):
            write_instances_csv(buf, inst, id_labels=id_labels, score_keys=keys)
        text = buf.getvalue()
        assert text == instances_csv_text(inst, id_labels, keys)

        index = None if id_labels is None else \
            {name: i for i, name in enumerate(id_labels)}
        back = read_instances_csv(io.StringIO(text), id_index=index)
        assert np.array_equal(back.u, inst.u)
        assert np.array_equal(back.v, inst.v)
        assert np.array_equal(back.distance, inst.distance)
        if inst.label is None or not len(inst):
            assert back.label is None
        else:
            assert np.array_equal(back.label, inst.label)
        names = ["score"] if len(keys) == 1 else keys
        assert list(back.scores) == names
        for name, k in zip(names, keys):
            assert np.array_equal(score_bits(back.scores[name]),
                                  score_bits(inst.scores[k]))

    @settings(max_examples=150, deadline=None)
    @given(instance_sets(), st.data())
    def test_reader_matches_row_reader(self, case, data):
        # CRLF line ends and blank lines, quoted ids (CR, LF, ',' and '"')
        # through id_index, 0 to 3 score columns; from a stream or a file.
        inst, id_labels, keys = case
        buf = io.StringIO()
        write_instances_csv(buf, inst, id_labels=id_labels, score_keys=keys)
        ends = data.draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(inst) + 1,
                                  max_size=len(inst) + 1))
        text = with_line_ends(buf.getvalue(), iter(ends))
        index = None if id_labels is None else \
            {name: i for i, name in enumerate(id_labels)}
        want = read_instances_rows(io.StringIO(text), id_index=index)
        if data.draw(st.booleans()):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "scores.csv")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                got = read_instances_csv(path, id_index=index)
        else:
            got = read_instances_csv(io.StringIO(text), id_index=index)
        for name in ("u", "v", "distance"):
            assert getattr(got, name).dtype == np.int64
            assert np.array_equal(getattr(got, name), getattr(want, name))
        if want.label is None:
            assert got.label is None
        else:
            assert got.label.dtype == bool
            assert np.array_equal(got.label, want.label)
        assert list(got.scores) == list(want.scores)
        for name in want.scores:
            assert np.array_equal(score_bits(got.scores[name]),
                                  score_bits(want.scores[name]))

    def test_underscore_digits_are_rejected(self):
        # Python's int() and float() read "1_0" as 10; the typed reader,
        # like the writer, knows only plain digits.
        for row, col, value in (("1_0,2,2,1,0.5", "u", 10),
                                ("1,2,2,1,1_0.5", "score", 10.5)):
            text = HEADER + "0,1,2,0,0.5\n" + row + "\n"
            back = read_instances_rows(io.StringIO(text))
            assert (back.u if col == "u" else back.scores["score"])[1] == value
            with pytest.raises(IngestError) as exc:
                read_instances_csv(io.StringIO(text))
            assert exc.value.line == 3

    @pytest.mark.parametrize("body, line", [
        ("99999999999999999999,2,2,1,0.5\n", 2),        # id outside int64
        ("0,1,2,1,0.5\n0,2,far,0,0.5\n", 3),            # bad distance token
        ("0,1,2,1,0.5\n0,2,99999999999999999999,0,0.5\n", 3),
        ("0,1,2,1,0.5\n\n\n0,2,2,0\n", 5),              # too few fields
        ("0,1,2,1,0.5\r\n0,2,2,0,0.5,1\r\n", 3),        # too many fields
        ("0,1,2,1,0.5\r\n\r\n0,2,2,0,high\r\n", 4),    # unparseable score
        ("0,1,2,yes,0.5\n", 2),                         # unparseable label
        ("0,1,2,1,0.5\n0,2,2,,0.5\n", 3),               # partly empty labels
        ("0,1,2,,0.5\n\n0,2,2,1,0.5\n", 2),
    ])
    def test_malformed_row_names_its_line(self, body, line):
        with pytest.raises(IngestError) as exc:
            read_instances_csv(io.StringIO(HEADER + body))
        assert exc.value.line == line

    def test_unknown_id_names_its_line(self):
        # The first record spans lines 2 and 3.
        text = HEADER + '"a\nb",c,2,1,0.5\n"a\nb",zz,2,0,0.5\n'
        with pytest.raises(IngestError) as exc:
            read_instances_csv(io.StringIO(text), id_index={"a\nb": 0, "c": 1})
        assert exc.value.line == 4

    @pytest.mark.parametrize("rows", [1, 5000])
    def test_bytes_that_are_not_utf8(self, tmp_path, rows):
        # The first chunk decoded holds the header and, in a short file,
        # the bad byte too; in a long one loadtxt meets it.
        path = tmp_path / "scores.csv"
        path.write_bytes((HEADER + "0,1,2,1,0.5\n" * rows).encode()
                         + b"0,2,2,0,\xff\n")
        with pytest.raises(IngestError, match="utf-8"):
            read_instances_csv(str(path))

    def test_stream_that_cannot_seek(self):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

        back = read_instances_csv(Pipe(HEADER + "0,1,2,1,0.5\n"))
        assert back.label.tolist() == [True]
        with pytest.raises(IngestError) as exc:
            read_instances_csv(Pipe(HEADER + "0,1,2,1,0.5\n0,2,far,0,0.5\n"))
        assert exc.value.line == 3

    def test_empty_body_and_unlabeled_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = read_instances_csv(io.StringIO(HEADER))
            unlabeled = read_instances_csv(io.StringIO(HEADER + "0,1,2,,0.5\n"))
        assert len(empty) == 0 and empty.label is None
        assert empty.scores["score"].shape == (0,)
        assert unlabeled.label is None and unlabeled.u.tolist() == [0]

    def test_negative_zero_keeps_its_sign(self):
        inst = InstanceSet([0, 0], [2, 3], [2, 2], None,
                           {"s": np.array([0.0, -0.0])})
        buf = io.StringIO()
        write_instances_csv(buf, inst)
        assert buf.getvalue().splitlines()[1:] == ["0,2,2,,0.0", "0,3,2,,-0.0"]

    def test_ids_needing_quotes_round_trip(self):
        ids = ["a,b", "z", 'q"x']
        inst = InstanceSet([0, 1], [2, 2], [2, 3], [True, False])
        buf = io.StringIO()
        write_instances_csv(buf, inst, id_labels=ids)
        assert buf.getvalue().splitlines()[1] == '"a,b","q""x",2,1'
        back = read_instances_csv(io.StringIO(buf.getvalue()),
                                  id_index={name: i for i, name in enumerate(ids)})
        assert back.u.tolist() == [0, 1]
        assert back.v.tolist() == [2, 2]

    def test_distance_string_round_trip(self):
        for d in (2, 7, BEYOND, DISCONNECTED):
            assert parse_distance(distance_str(d)) == d

    def test_unlabeled_column_empty(self):
        s = Snapshot.from_edges([(0, 1), (1, 2)])
        cands = geodesic_bucket_enumerate(s, 2)
        buf = io.StringIO()
        write_instances_csv(buf, cands)
        assert buf.getvalue().splitlines()[1].endswith(",2,")

    def test_id_labels_used(self):
        s = Snapshot.from_edges([(0, 1), (1, 2)], id_labels=["ann", "bob", "cat"])
        cands = geodesic_bucket_enumerate(s, 2)
        buf = io.StringIO()
        write_instances_csv(buf, cands, id_labels=s.id_labels)
        assert buf.getvalue().splitlines()[1].startswith("ann,cat")
