import io
import itertools
import os
import tempfile
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpeval import (BEYOND, DISCONNECTED, ConfigError, IngestError, InstanceSet,
                    Ranking, Snapshot, build_snapshot, distance_str, generate_test_set,
                    geodesic_bucket_enumerate, label_instances,
                    new_link_distance_distribution, parse_distance,
                    read_instances_csv, synthetic_event_log, write_instances_csv)
from lpeval import cli, predictors, scorefile, stratify
from lpeval.cells import InstanceCounts

from conftest import assert_same_ranking, random_graph
from oracles import (distance_distribution_oracle, hop_distances, instances_csv_text,
                     lowest_reachable, read_instances_rows)


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
    """Patch the run budget to 1-3 sources of ``s`` whose walks reach every
    cell and entry (``predictors._runs``)."""
    n = s.n_universe
    monkeypatch.setattr(predictors, "_BLOCK_CELLS", int(rng.integers(1, 4))
                        * (n + s.indices.size + -(-n // 8)))


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


def empty_id_record(inst, id_labels):
    """The first record of ``inst`` whose id cell is empty under
    ``id_labels``, and that cell's name, or None."""
    if id_labels is not None:
        for record, ids in enumerate(zip(inst.u.tolist(), inst.v.tolist())):
            for name, i in zip("uv", ids):
                if id_labels[i] == "":
                    return record, name
    return None


def assert_empty_id_error(read, prefix, name):
    """``read()`` raises the error of an empty ``name`` cell on the line of
    the record that follows ``prefix``, the text before it: lines end at
    '\n', '\r\n' or a lone '\r', from a file or a stream."""
    breaks = prefix.count("\n") + prefix.count("\r") - prefix.count("\r\n")
    with pytest.raises(IngestError, match=f"empty {name} cell") as exc:
        read()
    assert exc.value.line == breaks + 1


LINE_ENDS = ["\n", "\r\n", "\n\n", "\r\n\r\n", "\n\r\n"]
HEADER = "u,v,distance,label,score\n"


def cell_counter(inst):
    """How many rows each (distance, label, score bits...) cell holds, in an
    InstanceSet or an InstanceCounts; an empty label reads -1."""
    n = len(inst.distance)
    label = np.full(n, -1) if inst.label is None else inst.label.astype(int)
    cells = zip(inst.distance.tolist(), label.tolist(),
                *(score_bits(s).tolist() for s in inst.scores.values()))
    count = getattr(inst, "count", None)
    counter = Counter()
    for cell, rows in zip(cells, [1] * n if count is None else count.tolist()):
        counter[cell] += rows
    return counter


def assert_read_as_rows(got, want):
    """``got``, the counts read from a file, holds the rows of ``want``."""
    assert isinstance(got, InstanceCounts)
    assert got.distance.dtype == got.count.dtype == np.int64
    assert (got.label is None) == (want.label is None)
    if got.label is not None:
        assert got.label.dtype == bool
    assert list(got.scores) == list(want.scores)
    assert got.count.min(initial=1) > 0
    assert cell_counter(got) == cell_counter(want)


def ingest_error(read):
    """The IngestError that ``read()`` raises."""
    with pytest.raises(IngestError) as exc:
        read()
    return exc.value


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
        cells = stratify._walk

        def walk(snapshot, sources, depth_limit=None):
            limits.append(depth_limit)
            return cells(snapshot, sources, depth_limit)

        with mock.patch.object(stratify, "_walk", walk):
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

    @pytest.mark.parametrize("beyond, disconnected",
                             itertools.product((True, False), repeat=2))
    def test_small_blocks_match_allpairs_oracle(self, rng, monkeypatch,
                                                beyond, disconnected):
        # Each block's rows join the lists of their distances; across many
        # blocks the joined columns are the oracle's rows in (distance, u, v)
        # order.
        for _ in range(10):
            s, edges, n = multi_component_graph(rng)
            small_blocks(monkeypatch, rng, s)
            l_max = int(rng.integers(2, 5))
            dist = hop_distances(n, edges)
            want = []
            for u, v in itertools.combinations(s.node_ids.tolist(), 2):
                d = dist[u, v]
                if np.isinf(d):
                    if disconnected:
                        want.append((DISCONNECTED, u, v))
                elif d > l_max:
                    if beyond:
                        want.append((BEYOND, u, v))
                elif d >= 2:
                    want.append((int(d), u, v))
            inst = geodesic_bucket_enumerate(s, l_max, include_beyond=beyond,
                                             include_disconnected=disconnected)
            assert inst.u.dtype == inst.v.dtype == inst.distance.dtype == np.int64
            assert list(zip(inst.distance.tolist(), inst.u.tolist(),
                            inst.v.tolist())) == sorted(want)


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

    @pytest.mark.parametrize("chunk_rows", [1, 3, stratify._CHUNK_ROWS])
    def test_chunked_labels_match_edge_lookup(self, rng, chunk_rows):
        # Query-mode candidates touch nodes the feature snapshot lacks; the
        # extra pairs here also hold ids outside the label universe (at or
        # past it, negative) and pairs given as (v, u).
        feature, _, _ = random_graph(rng, n=15)
        label, label_edges, n = random_graph(rng, n=18, p=0.3)
        qry = generate_test_set(feature, label, mode="query", l_max=3)
        extra_u = rng.integers(-2, n + 3, 40)
        extra_v = rng.integers(-2, n + 3, 40)
        u = np.concatenate([qry.u, qry.v[:20], extra_u])
        v = np.concatenate([qry.v, qry.u[:20], extra_v])
        cands = InstanceSet(u, v, np.full(u.size, DISCONNECTED))
        edges = {(a, b) for a, b, _ in label_edges}
        want = [(min(a, b), max(a, b)) in edges
                for a, b in zip(u.tolist(), v.tolist())]
        with mock.patch.object(stratify, "_CHUNK_ROWS", chunk_rows):
            got = label_instances(cands, label)
        assert got.label.tolist() == want
        assert any(want) and not all(want)


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


class Unseekable(io.StringIO):
    """A text stream that cannot seek, like a pipe."""

    def seekable(self):
        return False


class TestInstanceCsv:
    def test_roundtrip_with_sentinels_and_scores(self):
        feature = Snapshot.from_edges([(0, 1), (1, 2), (3, 4)], n=5)
        label = Snapshot.from_edges([(0, 2)], n=5)
        inst = generate_test_set(feature, label, l_max=2)
        inst.scores["demo"] = np.arange(len(inst), dtype=float) / 7.0
        buf = io.StringIO()
        write_instances_csv(buf, inst, score_keys=["demo"])
        back = read_instances_rows(io.StringIO(buf.getvalue()))
        assert back.u.tolist() == inst.u.tolist()
        assert back.distance.tolist() == inst.distance.tolist()
        assert back.label.tolist() == inst.label.tolist()
        assert np.array_equal(back.scores["score"], inst.scores["demo"])
        assert_read_as_rows(read_instances_csv(io.StringIO(buf.getvalue())), back)

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
        back = read_instances_rows(io.StringIO(text), id_index=index)
        empty = empty_id_record(inst, id_labels)
        if empty is None:
            assert_read_as_rows(read_instances_csv(io.StringIO(text)), back)
        else:
            record, name = empty
            assert_empty_id_error(
                lambda: read_instances_csv(io.StringIO(text)),
                instances_csv_text(inst.take(np.arange(record)), id_labels, keys), name)
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
        # CRLF line ends and blank lines, quoted ids (CR, LF, ',' and '"'),
        # which the row reader maps through id_index, 0 to 3 score columns;
        # from a stream or a file, read in chunks of 1, 3 or 4,096 records.
        inst, id_labels, keys = case
        buf = io.StringIO()
        write_instances_csv(buf, inst, id_labels=id_labels, score_keys=keys)
        ends = data.draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(inst) + 1,
                                  max_size=len(inst) + 1))
        text = with_line_ends(buf.getvalue(), iter(ends))
        index = None if id_labels is None else \
            {name: i for i, name in enumerate(id_labels)}
        want = read_instances_rows(io.StringIO(text), id_index=index)
        read_rows = data.draw(st.sampled_from([1, 3, 4096]))
        from_file = data.draw(st.booleans())
        with mock.patch.object(scorefile, "_READ_ROWS", read_rows), \
                tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scores.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)

            def read():
                return read_instances_csv(path if from_file else io.StringIO(text))

            empty = empty_id_record(inst, id_labels)
            if empty is not None:
                record, name = empty
                prefix = instances_csv_text(inst.take(np.arange(record)), id_labels, keys)
                assert_empty_id_error(read, with_line_ends(prefix, iter(ends)), name)
                return
            cells = read()
        assert_read_as_rows(cells, want)

    @settings(max_examples=150, deadline=None)
    @given(instance_sets(), st.sampled_from([1, 3, 8192]),
           st.sampled_from([1, 3, 4096]))
    def test_counted_ranking_equals_row_ranking(self, case, read_rows, block_chars):
        # Each score column of a file ranks from its counts into the Ranking
        # of the file's rows; a NaN score is refused by both.
        inst, id_labels, keys = case
        buf = io.StringIO()
        write_instances_csv(buf, inst, id_labels=id_labels, score_keys=keys)
        index = None if id_labels is None else \
            {name: i for i, name in enumerate(id_labels)}
        rows = read_instances_rows(io.StringIO(buf.getvalue()), id_index=index)
        with mock.patch.object(scorefile, "_READ_ROWS", read_rows), \
                mock.patch.object(scorefile, "_BLOCK_CHARS", block_chars):
            empty = empty_id_record(inst, id_labels)
            if empty is not None:
                record, name = empty
                assert_empty_id_error(
                    lambda: read_instances_csv(io.StringIO(buf.getvalue())),
                    instances_csv_text(inst.take(np.arange(record)), id_labels, keys),
                    name)
                return
            cells = read_instances_csv(io.StringIO(buf.getvalue()))
        assert_read_as_rows(cells, rows)
        if rows.label is None:
            return
        for name, scores in rows.scores.items():
            def rank(counted):
                source = cells if counted else rows
                return Ranking(source.scores[name], source.label, source.distance,
                               counts=cells.count if counted else None)

            if np.isnan(scores).any():
                for counted in (False, True):
                    with pytest.raises(ConfigError, match="NaN"):
                        rank(counted)
            else:
                assert_same_ranking(rank(True), rank(False))

    def test_counted_all_distinct_scores(self, rng):
        # 20,000 distinct scores beside a tied column, then the same rows
        # again: the merges of the first copy keep every row, so each puts
        # off the next, and the last merge sums each second-copy row into
        # its first.
        n = 20_000
        inst = InstanceSet(rng.integers(0, 500, n), rng.integers(0, 500, n),
                           rng.choice([2, 3, BEYOND, DISCONNECTED], n),
                           rng.random(n) < 0.05,
                           {"a": rng.normal(size=n), "b": np.round(rng.random(n), 1)})
        inst = inst.take(np.tile(np.arange(n), 2))
        buf = io.StringIO()
        write_instances_csv(buf, inst)
        with mock.patch.object(scorefile, "_READ_ROWS", 1000):
            cells = read_instances_csv(io.StringIO(buf.getvalue()))
        assert cells.count.size == n and set(cells.count.tolist()) == {2}
        assert_read_as_rows(cells, inst)
        for name in ("a", "b"):
            assert_same_ranking(
                Ranking(cells.scores[name], cells.label, cells.distance,
                        counts=cells.count),
                Ranking(inst.scores[name], inst.label, inst.distance))

    def test_distinct_rows_of_many_wide_words(self, rng):
        # A first word of 32 values, then six of 2,048: built word by word,
        # a code would carry the first word's rank times 2**66, lost in
        # int64, so the codes must be ranked down on the way for the 65,536
        # distinct rows to keep distinct codes.
        i = np.arange(1 << 16)
        words = np.column_stack([i % 32] + [i // 32 * 7 + j for j in range(6)])
        words = words[rng.integers(0, len(words), size=100_000)]
        index, distinct = scorefile._distinct_rows(words)
        assert np.array_equal(distinct[index], words)
        assert len(distinct) == len({tuple(row) for row in words.tolist()})

    @pytest.mark.parametrize("read_rows", [1, 2, 3, 1 << 20])
    def test_records_bound_counts_every_line_end(self, tmp_path, read_rows):
        # np.loadtxt ends a record at \n, \r\n or a lone \r; the counted
        # cells hold each record once, however the body is cut into chunks.
        rows = ["0,1,2,1,0.5", "0,2,3,0,0.25", "1,2,beyond,0,0.0", "1,3,2,1,1.0"]
        want = read_instances_rows(io.StringIO(HEADER + "\n".join(rows)))
        for ends in (["\n"] * 4, ["\r"] * 4, ["\r\n"] * 4, ["\r", "\r\n", "\n", ""]):
            text = HEADER + "".join(r + e for r, e in zip(rows, ends))
            path = tmp_path / "scores.csv"
            path.write_bytes(text.encode())
            with mock.patch.object(scorefile, "_READ_ROWS", read_rows):
                back = read_instances_csv(str(path))
            assert back.count.sum() == len(rows)
            assert_read_as_rows(back, want)

    def test_underscore_digits_are_rejected(self):
        # Python's int() and float() read "1_0" as 10; the typed reader,
        # like the writer, knows only plain digits in the distance and score
        # cells. An id is any string, so "1_0" is one.
        for row, col, value in (("1_0,2,2,1,0.5", "u", 10),
                                ("1,2,1_0,1,0.5", "distance", 10),
                                ("1,2,2,1,1_0.5", "score", 10.5)):
            text = HEADER + "0,1,2,0,0.5\n" + row + "\n"
            back = read_instances_rows(io.StringIO(text))
            column = back.scores["score"] if col == "score" else getattr(back, col)
            assert column[1] == value
            if col == "u":
                assert_read_as_rows(read_instances_csv(io.StringIO(text)), back)
                continue
            with pytest.raises(IngestError) as exc:
                read_instances_csv(io.StringIO(text))
            assert exc.value.line == 3

    @pytest.mark.parametrize("cell", ["+2", " 2", "2\t", " -0 ", "-1", "+", "2 2",
                                      "0x2", "2.0", "1e1", " ", "1_0"])
    def test_distance_and_label_cells_read_as_ids(self, cell):
        # Distance and label cells take the grammar np.loadtxt reads int64
        # columns with: blanks, an optional sign and ASCII digits. An id
        # cell that holds anything is read.
        def read(row):
            try:
                return read_instances_csv(io.StringIO(HEADER + "0,1,2,0,0.5\n"
                                                      + row + "\n"))
            except IngestError as exc:
                assert exc.line == 3
                return None

        try:
            as_id = int(np.loadtxt(io.StringIO(f"{cell},2\n"), dtype=np.int64,
                                   delimiter=",", usecols=0, ndmin=1)[0])
        except ValueError:
            as_id = None
        assert read(f"{cell},2,2,1,0.5") is not None
        rows = [("distance", f"0,2,{cell},1,0.5", 2)]
        if len(cell) <= 2:  # a label cell has at most 2 bytes
            rows.append(("label", f"0,2,2,{cell},0.5", False))
        for column, row, first in rows:
            back = read(row)
            assert (back is None) == (as_id is None)
            if back is not None:
                want = as_id != 0 if column == "label" else as_id
                assert sorted(np.repeat(getattr(back, column), back.count).tolist()) \
                    == sorted([first, want])

    @pytest.mark.parametrize("body, line, message", [
        (",2,2,1,0.5\n", 2, "empty u cell"),            # empty id
        ("0,1,2,1,0.5\n\n0,,2,0,0.5\n", 4, "empty v cell"),
        ("0,1,2,1,0.5\n0,2,far,0,0.5\n", 3,             # bad distance token
         "cannot read distance cell 'far'"),
        ("0,1,2,1,0.5\n0,2,99999999999999999999,0,0.5\n", 3,
         "distance cell '9999999999999'... is too long"),
        ("0,1,2,1,0.5\n\n\n0,2,2,0\n", 5,               # too few fields
         "expected 5 fields, found 4"),
        ("0,1,2,1,0.5\r\n0,2,2,0,0.5,1\r\n", 3,         # too many fields
         "expected 5 fields, found 6"),
        ("0,1,2,1,0.5\r\n\r\n0,2,2,0,high\r\n", 4,     # unparseable score
         "could not convert string 'high' to float64 at column 5"),
        ("0,1,2,yes,0.5\n", 2,                          # unparseable label
         "label cell 'yes'... is too long"),
        ("0,1,2,1,0.5\n0,2,2,,0.5\n", 3,                # partly empty labels
         "empty label in a labeled score file"),
        ("0,1,2,,0.5\n\n0,2,2,1,0.5\n", 2, "empty label in a labeled score file"),
        # A NUL in any cell, on the block path and on the csv pass.
        ("0,1,2,1,0.5\n0\0,2,2,0,0.5\n", 3, "NUL in u cell"),
        ("0,1,2,1,0.5\n0,2,2\0,0,0.5\n", 3, "cannot read distance cell '2\\x00'"),
        ("0,1,2,1,0.5\n0,2,2,\0,0.5\n", 3, "cannot read label cell '\\x00'"),
        ("0,1,2,1,0.5\n0,2,2,0,0.5\0\n", 3,
         "could not convert string '0.5\\x00' to float64 at column 5"),
        ('"a",b,2,1,0.5\n0,2\0,2,0,0.5\n', 3, "NUL in v cell"),
        # A lone CR ends a line, from a file or a stream.
        ("0,1,2,1,0.5\r0,2,far,0,0.5\r", 3, "cannot read distance cell 'far'"),
        ("0,1,2,1,0.5\r\r0,,2,0,0.5\n", 4, "empty v cell"),
        ("0,1,2,1\r0,2,2,0,0.5\n", 2, "expected 5 fields, found 4"),
        ("0,1,2,1,0.5\n0,2,2\r,0,0.5\n", 3, "expected 5 fields, found 3"),
        ("0,1,2,1,0.5\n0,2,2,0,0.5\r1,2,2,,0.5\r", 4,
         "empty label in a labeled score file"),
        # Quoted ids are read on the block path; a quoted id with a line
        # end, or a quoted cell after the ids, sends the block to the csv
        # pass.
        ('"a,b","c,""d""",2,1,0.5\n0,2,far,0,0.5\n', 3, "cannot read distance cell 'far'"),
        ('"a\nb",c,2,1,0.5\n0,2,far,0,0.5\n', 4, "cannot read distance cell 'far'"),
        ('0,1,"2",1,0.5\n0,2,"far",0,0.5\n', 3, "cannot read distance cell 'far'"),
    ])
    def test_malformed_row_names_its_line(self, tmp_path, body, line, message):
        path = tmp_path / "scores.csv"
        path.write_bytes((HEADER + body).encode("utf-8"))
        for source in (str(path), io.StringIO(HEADER + body), Unseekable(HEADER + body)):
            exc = ingest_error(lambda: read_instances_csv(source))
            assert exc.line == line
            assert message in str(exc)

    @pytest.mark.parametrize("bad", [13, 19])
    @pytest.mark.parametrize("column, cell", [(0, ""), (2, "far"), (4, "high")])
    def test_error_path_checks_only_the_failed_chunk(self, column, cell, bad):
        # A block a record, parsed 4 at a time: the bad record fails the
        # parse of its 4 blocks, which are then parsed one by one up to its
        # own, and the csv pass starts there and checks it alone. Every
        # record before it is counted once; np.loadtxt sees each record
        # before the failed 4 once and those at most twice, and the read
        # never starts over from the first record.
        rows = [[str(i), str(i + 1), "2", str(i % 2), "0.5"] for i in range(20)]
        rows[bad][column] = cell
        text = HEADER + "".join(",".join(row) + "\n" for row in rows)
        row_values = mock.Mock(wraps=scorefile._row_values)
        parsed, counted = [], []
        loadtxt, add = np.loadtxt, scorefile._CellCounts.add

        def spy(fh, *args, **kwargs):
            parsed.append(fh.getvalue().count(b"\n"))
            return loadtxt(fh, *args, **kwargs)

        def count(table, cells, counts):
            counted.append(int(counts.sum()))
            add(table, cells, counts)

        with mock.patch.object(scorefile, "_BLOCK_CHARS", 1), \
                mock.patch.object(scorefile, "_READ_ROWS", 4), \
                mock.patch.object(scorefile, "_row_values", row_values), \
                mock.patch.object(scorefile._CellCounts, "add", count), \
                mock.patch.object(scorefile.np, "loadtxt", spy):
            exc = ingest_error(lambda: read_instances_csv(io.StringIO(text)))
        assert exc.line == bad + 2
        assert [call.args[1] for call in row_values.call_args_list] == [rows[bad]]
        assert sum(counted) == bad
        assert max(parsed) <= 4 and sum(parsed) <= bad // 4 * 4 + 2 * 4

    @pytest.mark.parametrize("block_chars", [1, 7, None])
    def test_first_empty_label_names_its_line(self, block_chars):
        # A labeled column's first empty label is found from the first
        # parse that holds one, on the block path (ids quoted or not) or the
        # csv pass (after a quoted distance cell); a column empty on every
        # row reads as unlabeled.
        body = "0,1,2,1,0.5\n\n0,2,2,,0.5\n0,3,2,,0.5\n"
        with mock.patch.object(scorefile, "_BLOCK_CHARS",
                               block_chars or scorefile._BLOCK_CHARS):
            for text in (HEADER + body, HEADER + '"a",' + body[2:],
                         HEADER + '0,1,"2"' + body[5:]):
                exc = ingest_error(lambda: read_instances_csv(io.StringIO(text)))
                assert (exc.line, str(exc)) == (
                    4, "line 4: empty label in a labeled score file")
            text = HEADER + body.replace(",1,0.5", ",,0.5")
            assert read_instances_csv(io.StringIO(text)).label is None

    @settings(max_examples=1000, deadline=None)
    @given(st.text(st.sampled_from(list("0123456789+-.eE_infaINF \t\x0b\x0c"
                                        "\u00a0\x85\x1c\u0663\uff11")), max_size=6))
    def test_score_cell_grammar_is_loadtxts(self, cell):
        # The locator reads a score cell as np.loadtxt reads a float64 CSV
        # column: Python's float() also takes "1_0", "\u0663" and "\uff11".
        try:
            want = np.loadtxt(io.StringIO(cell + ",0\n"), dtype=np.float64,
                              delimiter=",", usecols=0, ndmin=1)[0]
        except ValueError:
            want = None
        try:
            got = np.float64(scorefile._float_cell(cell))
        except ValueError:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert got.view(np.int64) == want.view(np.int64)

    @pytest.mark.parametrize("body, line", [
        # A bad distance before a row that np.loadtxt itself rejects.
        ("0,1,2,1,0.5\n0,2,far,0,0.5\n0,3,2,0,high\n", 3),
        ("0,1,2,1,0.5\n0,2,2,0,high\n0,3,far,0,0.5\n", 3),
        ("0,1,2,1,0.5\n\n0,2,2,yes,0.5\n0,3,2,0\n", 4),
        ("0,1,2,1,0.5\n0,2,٣,0,0.5\n0,3,2,0,0.5,1\n", 3),
        # The byte-wise smaller of two bad tokens comes later.
        ("0,1,2,1,0.5\n0,2,far,0,0.5\n0,3,abc,0,0.5\n", 3),
        # A bad distance and a bad label on one row, or on two.
        ("0,1,2,1,0.5\n0,2,far,yes,0.5\n", 3),
        ("0,1,2,1,0.5\n0,2,2,yes,0.5\n0,3,far,0,0.5\n", 3),
        # A bad cell is found before a partly empty label column.
        ("0,1,2,,0.5\n0,2,2,1,0.5\n0,3,far,0,0.5\n", 4),
        # A block of one line shorter than a word.
        ("0,1,2,1,0.5\na\n0,2,2,0,0.5\n", 3),
        # A quoted id with a line end, which small blocks cut.
        ('"a\nb",c,2,1,0.5\n0,2,far,0,0.5\n', 4),
    ])
    @pytest.mark.parametrize("block_chars", [1, 2, 4096])
    def test_first_malformed_row_wins(self, body, line, block_chars):
        # Blocks and parses of 1 and 2 records put each bad row just after a
        # boundary, and a bad row of one parse after a good earlier parse.
        with mock.patch.object(scorefile, "_BLOCK_CHARS", block_chars):
            for read_rows, stream in itertools.product([1, 2, 3, 8192],
                                                       (io.StringIO, Unseekable)):
                with mock.patch.object(scorefile, "_READ_ROWS", read_rows):
                    exc = ingest_error(lambda: read_instances_csv(
                        stream(HEADER + body)))
                assert exc.line == line

    @pytest.mark.parametrize("cell", ["٣", "１", "é", "2\u00a0"])
    def test_distance_and_label_cells_are_ascii(self, cell):
        # int() reads "٣" as 3, "１" as 1 and "2\u00a0" as 2; distance and
        # label cells are ASCII, so these, like "é", are errors.
        for row in (f"0,2,{cell},0,0.5", f"0,2,2,{cell},0.5"):
            with pytest.raises(IngestError) as exc:
                read_instances_csv(io.StringIO(HEADER + "0,1,2,1,0.5\n" + row + "\n"))
            assert exc.value.line == 3

    @pytest.mark.parametrize("row, ok", [
        ("0,2,000000000002,00,0.5", True),        # 12-byte distance, 2-byte label
        ("0,2,disconnected,1,0.5", True),
        ("0,2,0000000000002,0,0.5", False),       # 13 bytes
        ("0,2,123456789012345678,0,0.5", False),
        ("0,2,2,000,0.5", False),                 # 3 bytes
    ])
    def test_over_long_cells_are_rejected(self, row, ok):
        text = HEADER + "0,1,2,1,0.5\n" + row + "\n"
        if ok:
            back = read_instances_csv(io.StringIO(text))
            assert_read_as_rows(back, read_instances_rows(io.StringIO(text)))
        else:
            with pytest.raises(IngestError, match="too long") as exc:
                read_instances_csv(io.StringIO(text))
            assert exc.value.line == 3

    def test_loadtxt_converts_only_ids(self):
        # No cell is read through a per-cell Python converter, ids included,
        # on either path.
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(kwargs.get("converters") or {})
            return loadtxt(*args, **kwargs)

        with mock.patch.object(scorefile.np, "loadtxt", spy):
            read_instances_csv(io.StringIO(HEADER + "0,1,beyond,1,0.5\n"))
            read_instances_csv(io.StringIO(HEADER + '"a",b,2,,0.5\n'))
            with pytest.raises(IngestError):
                read_instances_csv(io.StringIO(HEADER + "0,1,2,1,0.5\n0,2,2,0,x\n"))
        # Each read parses its one block, quoted ids and all; the failed
        # one's error is located by csv, not by a second np.loadtxt pass.
        assert calls == [{}] * 3

    @settings(max_examples=100, deadline=None)
    @given(instance_sets(), st.sampled_from([1, 3, 4096]))
    def test_decode_blocks_match_row_reader(self, case, block_chars):
        inst, id_labels, keys = case
        buf = io.StringIO()
        write_instances_csv(buf, inst, score_keys=keys)
        text = buf.getvalue()
        want = read_instances_rows(io.StringIO(text))
        with mock.patch.object(scorefile, "_BLOCK_CHARS", block_chars):
            got = read_instances_csv(io.StringIO(text))
        assert_read_as_rows(got, want)

    def test_unknown_id_names_its_line(self):
        # Any id that is there is read; an empty one is an error. The first
        # record spans lines 2 and 3.
        text = HEADER + '"a\nb",zz,2,1,0.5\n"a\nb",c,2,0,0.5\n'
        assert read_instances_csv(io.StringIO(text)).count.tolist() == [1, 1]
        for empty in ('""', ""):
            with pytest.raises(IngestError, match="empty v cell") as exc:
                read_instances_csv(io.StringIO(text.replace(",c,", f",{empty},")))
            assert exc.value.line == 4

    @pytest.mark.parametrize("rows", [1, 5000])
    def test_bytes_that_are_not_utf8(self, tmp_path, rows):
        # The first chunk decoded holds the header and, in a short file,
        # the bad byte too; in a long one loadtxt meets it.
        path = tmp_path / "scores.csv"
        path.write_bytes((HEADER + "0,1,2,1,0.5\n" * rows).encode()
                         + b"0,2,2,0,\xff\n")
        exc = ingest_error(lambda: read_instances_csv(str(path)))
        assert "utf-8" in str(exc)

    def test_stream_that_cannot_seek(self):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

        back = read_instances_csv(Pipe(HEADER + "0,1,2,1,0.5\n"))
        assert back.label.tolist() == [True]
        exc = ingest_error(lambda: read_instances_csv(
            Pipe(HEADER + "0,1,2,1,0.5\n0,2,far,0,0.5\n")))
        assert exc.line == 3

    def test_empty_body_and_unlabeled_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = read_instances_csv(io.StringIO(HEADER))
            unlabeled = read_instances_csv(io.StringIO(HEADER + "0,1,2,,0.5\n"))
        assert len(empty.distance) == 0 and empty.label is None
        assert empty.scores["score"].shape == (0,)
        assert unlabeled.label is None
        assert empty.count.size == 0 and unlabeled.count.tolist() == [1]

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
        index = {name: i for i, name in enumerate(ids)}
        back = read_instances_rows(io.StringIO(buf.getvalue()), id_index=index)
        assert back.u.tolist() == [0, 1]
        assert back.v.tolist() == [2, 2]
        assert_read_as_rows(read_instances_csv(io.StringIO(buf.getvalue())), back)

    def test_distance_string_round_trip(self):
        for d in (2, 7, BEYOND, DISCONNECTED):
            assert parse_distance(distance_str(d)) == d
        for text in ("1_0", "٣", "", "beyond2"):
            with pytest.raises(ValueError):
                parse_distance(text)

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


def assert_same_counts(got, want):
    """Two reads give the same InstanceCounts arrays."""
    assert np.array_equal(got.distance, want.distance)
    assert (got.label is None) == (want.label is None)
    if got.label is not None:
        assert np.array_equal(got.label, want.label)
    assert list(got.scores) == list(want.scores)
    for name, scores in got.scores.items():
        assert np.array_equal(scores.view(np.int64), want.scores[name].view(np.int64))
    assert np.array_equal(got.count, want.count)


class TestBlockPath:
    @settings(max_examples=150, deadline=None)
    @given(instance_sets(), st.sampled_from([1, 7, scorefile._BLOCK_CHARS]))
    def test_blocks_match_rows(self, case, block_chars):
        # Several score columns, -0.0 and NaN, sentinel buckets, labelled and
        # unlabelled rows; a block of 1 or 7 characters reaches the end of
        # its first line, so it holds one or a few rows. Every block size
        # gives the same counts, those of the rows.
        inst, id_labels, keys = case
        buf = io.StringIO()
        write_instances_csv(buf, inst, id_labels=id_labels, score_keys=keys)
        text = buf.getvalue()
        index = None if id_labels is None else \
            {name: i for i, name in enumerate(id_labels)}
        csv_pass = mock.Mock(wraps=scorefile._count_csv)
        empty = empty_id_record(inst, id_labels)
        if empty is not None:
            # The block that holds the first empty id goes to the csv pass,
            # which names its line.
            record, name = empty
            prefix = instances_csv_text(inst.take(np.arange(record)), id_labels, keys)
            with mock.patch.object(scorefile, "_BLOCK_CHARS", block_chars), \
                    mock.patch.object(scorefile, "_count_csv", csv_pass):
                assert_empty_id_error(lambda: read_instances_csv(io.StringIO(text)),
                                      prefix, name)
            assert csv_pass.called
            return
        want = read_instances_csv(io.StringIO(text))
        with mock.patch.object(scorefile, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(scorefile, "_count_csv", csv_pass):
            got = read_instances_csv(io.StringIO(text))
        assert_same_counts(got, want)
        assert_read_as_rows(got, read_instances_rows(io.StringIO(text), id_index=index))
        # Only a quoted id with a line end, which a block may also cut, sends
        # these bodies to the csv pass.
        assert not csv_pass.called or '"' in text

    @pytest.mark.parametrize("body, ids", [
        ("0,1,2,1,0.5\r\n0,2,3,0,0.25\r\n1,2,beyond,0,0.5\r\n", None),  # CRLF
        ("0,1,2,1,0.5\r0,2,3,0,0.25\r1,2,beyond,0,0.5\r", None),        # lone CR
        ('"a,b",c,2,1,0.5\nc,"a,b",3,0,0.25\n"d,",c,2,0,0.5\n', ["a,b", "c", "d,"]),
        ("0,1,2,1,0.5\n\n0,2,3,0,0.25\n\n\n1,2,2,0,0.5\n", None),       # blank lines
        ("0,1,2,1,0.5\n0,2,3,0,0.25\n1,2,2,1,0.5", None),               # no last newline
        ("é,ü,2,1,0.5\nü,n00042,3,0,0.25\n€,é,2,1,0.5\n", ["é", "ü", "n00042", "€"]),
        # Blank lines of every line end, first and last lines among them.
        ("\r\n0,1,2,1,0.5\r\n\r\n0,2,3,0,0.25\r\n1,2,beyond,0,0.5\r\n\r\n", None),
        ("\r0,1,2,1,0.5\r\r0,2,3,0,0.25\r1,2,beyond,0,0.5\r\r", None),
        ("\n\n0,1,2,1,0.5\r\n0,2,3,0,0.25\r\r\n1,2,2,0,0.5\n\r", None),
    ])
    @pytest.mark.parametrize("block_chars", [1, 7, None])
    def test_bodies_read_as_rows(self, tmp_path, body, ids, block_chars):
        # Every line end and quoted id is read by bytes on the block path,
        # from a file or any stream.
        text = HEADER + body
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode("utf-8"))
        index = None if ids is None else {name: i for i, name in enumerate(ids)}
        want = read_instances_rows(io.StringIO(text, newline=""), id_index=index)
        csv_pass = mock.Mock(wraps=scorefile._count_csv)
        with mock.patch.object(scorefile, "_BLOCK_CHARS",
                               block_chars or scorefile._BLOCK_CHARS), \
                mock.patch.object(scorefile, "_count_csv", csv_pass):
            for source in (str(path), io.StringIO(text, newline=""), io.StringIO(text),
                           Unseekable(text)):
                got = read_instances_csv(source)
                assert got.count.sum() == 3
                assert_read_as_rows(got, want)
        assert not csv_pass.called

    @pytest.mark.parametrize("read_rows", [1, 2, 5])
    def test_waiting_tails_are_parsed_between_blocks(self, read_rows):
        # About six rows a block, of one or two tails: the tails of a few
        # blocks wait, and are parsed while later blocks are still to be
        # read; each is counted once, and no block goes to the csv pass.
        n = 300
        inst = InstanceSet(np.arange(n) + 1000, np.arange(n) + 2000, np.full(n, 2),
                           np.arange(n) % 20 == 0, {"score": np.full(n, 0.5)})
        buf = io.StringIO()
        write_instances_csv(buf, inst)
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            rows = loadtxt(*args, **kwargs)
            parsed.append(len(rows))
            return rows

        csv_pass = mock.Mock(wraps=scorefile._count_csv)
        with mock.patch.object(scorefile, "_BLOCK_CHARS", 100), \
                mock.patch.object(scorefile, "_READ_ROWS", read_rows), \
                mock.patch.object(scorefile, "_count_csv", csv_pass), \
                mock.patch.object(scorefile.np, "loadtxt", spy):
            got = read_instances_csv(io.StringIO(buf.getvalue()))
        assert_read_as_rows(got, inst)
        assert not csv_pass.called
        assert len(parsed) > 2

    def test_plain_file_parses_only_distinct_tails(self):
        # 10,000 rows of 2 distances, 2 labels and 11 scores: no np.loadtxt
        # call parses more than the blocks' distinct tails, as a block
        # parsed whole would.
        rng = np.random.default_rng(3)
        n = 10_000
        inst = InstanceSet(rng.integers(0, 500, n), rng.integers(500, 1000, n),
                           rng.choice([2, BEYOND], n), rng.random(n) < 0.1,
                           {"score": np.round(rng.random(n), 1)})
        buf = io.StringIO()
        write_instances_csv(buf, inst)
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            rows = loadtxt(*args, **kwargs)
            parsed.append(len(rows))
            return rows

        with mock.patch.object(scorefile.np, "loadtxt", spy):
            got = read_instances_csv(io.StringIO(buf.getvalue()))
        assert_read_as_rows(got, inst)
        blocks = -(-len(buf.getvalue()) // scorefile._BLOCK_CHARS)
        assert 0 < sum(parsed) <= 2 * 2 * 11 * (blocks + 1)

    def test_mostly_distinct_blocks_are_parsed_whole(self, rng):
        # A continuous score column: the rows of each block are mostly
        # distinct, so each block is parsed whole, ids and all, without
        # grouping; a malformed record in any block names its line.
        n = 3 * scorefile._READ_ROWS
        inst = InstanceSet(np.arange(n), np.arange(n) + 1, np.full(n, 2),
                           rng.random(n) < 0.5, {"score": rng.normal(size=n)})
        buf = io.StringIO()
        write_instances_csv(buf, inst)
        text = buf.getvalue()
        fields = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            fields.append(np.dtype(kwargs["dtype"]).names[0])
            return loadtxt(*args, **kwargs)

        csv_pass = mock.Mock(wraps=scorefile._count_csv)
        with mock.patch.object(scorefile.np, "loadtxt", spy), \
                mock.patch.object(scorefile, "_count_csv", csv_pass):
            got = read_instances_csv(io.StringIO(text))
        assert_read_as_rows(got, inst)
        assert set(fields) == {"u"} and not csv_pass.called
        for line in (2, n // 2 + 2, n + 1):
            lines = text.splitlines(keepends=True)
            cells = lines[line - 1].split(",")
            lines[line - 1] = ",".join(cells[:2] + ["far"] + cells[3:])
            exc = ingest_error(lambda: read_instances_csv(io.StringIO("".join(lines))))
            assert exc.line == line


def sampling_shaped_file(path, rows, seed):
    """A labeled score file shaped like lpbench's ``sampling`` input: a
    two-decimal score, mostly tied, over two finite and two sentinel
    buckets, with integer ids."""
    rng = np.random.default_rng(seed)
    distance = rng.choice([2, 3, BEYOND, DISCONNECTED], rows, p=[0.3, 0.3, 0.25, 0.15])
    label = rng.random(rows) < 0.002
    score = np.round(np.where(label, rng.beta(2.0, 3.0, rows), rng.beta(1.0, 6.0, rows)), 2)
    inst = InstanceSet(rng.integers(0, 1500, rows), rng.integers(0, 1500, rows),
                       distance, label, {"score": score})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_instances_csv(fh, inst)
    return inst


def test_block_path_peak_does_not_grow_with_the_file(tmp_path):
    # A sampling-shaped file and four times its rows: the read holds a few
    # blocks and the table of distinct rows, never the rows, so its peak
    # grows by under a byte for each row added; no block goes to the csv
    # pass.
    path = tmp_path / "scores.csv"
    inst = sampling_shaped_file(path, 100_000, 2811)
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    path4 = tmp_path / "scores4.csv"
    path4.write_text(head + "\n" + body * 4, encoding="utf-8")
    peaks, reads = [], []
    csv_pass = mock.Mock(wraps=scorefile._count_csv)
    with mock.patch.object(scorefile, "_count_csv", csv_pass):
        for source in (path, path4):
            tracemalloc.start()
            try:
                reads.append(read_instances_csv(str(source)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert not csv_pass.called
    assert_read_as_rows(reads[0], inst)
    assert np.array_equal(reads[1].count, 4 * reads[0].count)
    assert peaks[1] <= peaks[0] + 3 * 100_000


@pytest.mark.parametrize("seed", [5, 2])
def test_score_path_memory_budget(tmp_path, seed):
    # A score file is read into the counts of its distinct rows, in chunks,
    # so no command holds its rows; rows in memory rank with two 8-byte
    # temporaries a row, where np.unique's inverse (~49 B a row) would not
    # fit. The read's peak must not move with where its merges fall: with
    # seed 2 they fell so that four times the rows peaked 129 KB higher.
    rng = np.random.default_rng(seed)
    n = 50_000
    inst = InstanceSet(rng.integers(0, 1000, n), rng.integers(1000, 2000, n),
                       rng.choice([2, 3, 4, BEYOND, DISCONNECTED], n),
                       rng.random(n) < 0.01, {"s": np.round(rng.random(n), 3)})
    path = tmp_path / "scores.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_instances_csv(fh, inst)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        rank = Ranking(inst.scores["s"], inst.label, inst.distance)
        _, rank_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank_peak - before <= 24 * n
    assert len(rank) == n and rank.n_pos == inst.n_pos

    # The read keeps no row: it holds one chunk and the table of distinct
    # rows, which a merge holds with as many rows waiting (at least
    # _READ_ROWS) and a few int64 columns of both. The same rows four times
    # over make the same table and the same peak.
    chunk = scorefile._READ_ROWS * 40  # u, v, the two byte cells, one score
    assert n >= 4 * scorefile._READ_ROWS
    text = path.read_text(encoding="utf-8")
    head, _, body = text.partition("\n")
    path4 = tmp_path / "scores4.csv"
    path4.write_text(head + "\n" + body * 4, encoding="utf-8")
    peaks = []
    for source in (path, path4):
        tracemalloc.start()
        try:
            cells = read_instances_csv(str(source))
            counted = Ranking(cells.scores["score"], cells.label, cells.distance,
                              counts=cells.count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(counted.bounds, rank.bounds * (4 if peaks[1:] else 1))
    merge_rows = 2 * max(cells.count.size, scorefile._READ_ROWS) + scorefile._READ_ROWS
    assert cells.count.size < n // 8
    assert peaks[0] <= chunk + 128 * merge_rows
    assert peaks[1] <= peaks[0] + n  # under a byte for each row added

    # So does evaluate, which ranks the file's counts and writes its curves
    # and per-distance rows from that ranking.
    peaks = []
    for source in (path, path4):
        tracemalloc.start()
        try:
            assert cli.main(["evaluate", "--out", str(tmp_path / source.stem),
                             "--set", f"dataset.scores={source}"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + n


def test_counted_read_of_a_varied_head_stays_with_its_cells(tmp_path):
    # 3,000 distinct rows, then a body that cycles through 500 rows of its
    # own: the head's merges keep every row, and the body's must still
    # merge, so that four times the body holds no more than the body once.
    rng = np.random.default_rng(11)
    head, cycle = 3000, 500
    inst = InstanceSet(rng.integers(0, 1000, head + cycle),
                       rng.integers(1000, 2000, head + cycle),
                       rng.choice([2, 3, BEYOND], head + cycle),
                       rng.random(head + cycle) < 0.1,
                       {"s": rng.random(head + cycle)})
    peaks = []
    for body in (40_000, 160_000):
        take = np.concatenate([np.arange(head),
                               head + np.arange(body) % cycle])
        path = tmp_path / f"scores{body}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_instances_csv(fh, inst.take(take))
        with mock.patch.object(scorefile, "_READ_ROWS", 1000):
            tracemalloc.start()
            try:
                cells = read_instances_csv(str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert cells.count.size == head + cycle
        assert cells.count.sum() == head + body
    assert peaks[1] <= peaks[0] + 120_000  # under a byte for each row added
