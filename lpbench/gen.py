"""Seeded input generator for the lpeval benchmark.

The benchmark owns its inputs: it does not call ``lpeval.synth``, so a change
to the toolkit's bundled generator cannot move the baseline. Every generator
here is a pure function of its seed and writes a plain text file in a format
the ``lpeval`` CLI documents:

* pair events ``src<TAB>dst<TAB>timestamp`` (graph workloads);
* a third-party score file ``u,v,distance,label,score`` with integer node
  ids (the ``sampling`` workload).

Run as a script it serves batches of set-ups: for each line it reads on
standard input it makes one workload's inputs several times over and prints
one JSON line with the time of each set-up; it exits at the end of its
input::

    echo | python3 lpbench/gen.py local 1 .bench_work/local/input
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

import numpy as np

import probe
from workloads import FEATURE_END, HORIZON, LABEL_BEGIN, WORKLOADS

SETUPS = 2            # set-ups per batch, at least
SETUP_SECONDS = 0.25  # ... and for at least this long, probes included


class _Graph:
    """Growing simple undirected graph with O(1) membership and sampling."""

    def __init__(self, n):
        self.nbrs = [[] for _ in range(n)]
        self.sets = [set() for _ in range(n)]
        self.edges = []

    def add(self, a, b):
        if a == b or b in self.sets[a]:
            return False
        self.nbrs[a].append(b)
        self.nbrs[b].append(a)
        self.sets[a].add(b)
        self.sets[b].add(a)
        self.edges.append((a, b))
        return True


def _random_tree(rng, g, nodes):
    """Random recursive tree over ``nodes`` (each joins an earlier node)."""
    order = [int(x) for x in rng.permutation(nodes)]
    for i in range(1, len(order)):
        g.add(order[i], order[int(rng.integers(i))])


def _closing_pair(rng, g, nodes):
    """A non-adjacent pair at distance 2 (closes a wedge), or None."""
    for _ in range(16):
        a = int(nodes[int(rng.integers(len(nodes)))])
        if not g.nbrs[a]:
            continue
        x = g.nbrs[a][int(rng.integers(len(g.nbrs[a])))]
        b = g.nbrs[x][int(rng.integers(len(g.nbrs[x])))]
        if b != a and b not in g.sets[a]:
            return a, b
    return None


def _random_pair(rng, g, nodes):
    while True:
        a = int(nodes[int(rng.integers(len(nodes)))])
        b = int(nodes[int(rng.integers(len(nodes)))])
        if a != b and b not in g.sets[a]:
            return a, b


def _grow(rng, g, nodes, count, locality):
    """Add ``count`` edges among ``nodes``; each closes a wedge with
    probability ``locality`` and otherwise joins a random non-adjacent pair."""
    added = 0
    while added < count:
        pair = _closing_pair(rng, g, nodes) if rng.random() < locality else None
        if pair is None:
            pair = _random_pair(rng, g, nodes)
        added += g.add(*pair)


def _events(edges, begin, end):
    """Spread edges over ``[begin, end]`` in generation order."""
    span = end - begin + 1
    total = max(len(edges), 1)
    return [(a, b, begin + i * span // total) for i, (a, b) in enumerate(edges)]


def _communities(rng, g, sizes, mean_degree, locality):
    """Grow each run of ``sizes`` consecutive nodes into a connected
    community: a random tree plus wedge-closing edges up to ``mean_degree``.
    Returns each node's community index."""
    lo = 0
    for size in sizes:
        comp = np.arange(lo, lo + size)
        _random_tree(rng, g, comp)
        _grow(rng, g, comp, int(round(mean_degree * size / 2)) - (size - 1),
              locality)
        lo += size
    return np.repeat(np.arange(len(sizes)), sizes)


def _bridges(rng, g, community, count):
    """Add ``count`` edges, each between two different communities."""
    nodes = np.arange(community.size)
    added = 0
    while added < count:
        a, b = _random_pair(rng, g, nodes)
        if community[a] != community[b]:
            added += g.add(a, b)


def _write_log(path, g, n_feature, labels):
    """Pair events: the first ``n_feature`` edges in the feature window,
    the rest in the label window."""
    events = (_events(g.edges[:n_feature], 0, FEATURE_END)
              + _events(g.edges[n_feature:], LABEL_BEGIN, HORIZON))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# pair events: src<TAB>dst<TAB>timestamp\n")
        fh.writelines(f"{labels[a]}\t{labels[b]}\t{t}\n" for a, b, t in events)


def local_log(seed, path, communities, size, mean_degree, locality, bridges,
              label_edges):
    """One connected, highly clustered network of equal communities.

    The feature window holds ``communities`` communities of ``size`` nodes
    joined by ``bridges`` edges; the label window adds ``label_edges`` edges
    grown over the whole network the same way, so new links sit at short
    distances. Most pairs within four hops share a community, so the
    candidate count varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 1])
    n = communities * size
    g = _Graph(n)
    community = _communities(rng, g, [size] * communities, mean_degree, locality)
    _bridges(rng, g, community, bridges)
    n_feature = len(g.edges)
    _grow(rng, g, np.arange(n), label_edges, locality)
    _write_log(path, g, n_feature, [f"n{i:05d}" for i in range(n)])


def full_log(seed, path, component_sizes, mean_degree, locality, label_edges,
             new_nodes):
    """Several feature-window components and label-window newcomers.

    Component sizes and edge counts are fixed, so the candidate count of a
    full (beyond + disconnected) enumeration does not depend on the seed.
    Label-window edges close wedges inside components (three fifths), join
    components (one fifth), and attach ``new_nodes`` nodes never seen in the
    feature window.
    """
    rng = np.random.default_rng([seed, 2])
    n_feat = sum(component_sizes)
    g = _Graph(n_feat + new_nodes)
    component = _communities(rng, g, component_sizes, mean_degree, locality)
    n_feature = len(g.edges)
    for c, size in enumerate(component_sizes):
        _grow(rng, g, np.flatnonzero(component == c),
              label_edges * 3 * size // (5 * n_feat), locality)
    _bridges(rng, g, component, label_edges // 5)
    for x in range(n_feat, n_feat + new_nodes):
        g.add(x, int(rng.integers(n_feat)))
    # Shuffle node labels so component membership is not readable from ids.
    perm = rng.permutation(n_feat + new_nodes)
    _write_log(path, g, n_feature, [f"n{int(p):05d}" for p in perm])


# Share of rows and positive rate per distance bucket of the score file:
# positives are rare and concentrated at short distance, as in the paper.
SCORE_BUCKETS = (("2", 0.08, 0.02), ("3", 0.22, 0.002), ("4", 0.30, 0.0005),
                 ("beyond", 0.25, 0.0002), ("disconnected", 0.15, 0.0001))


def score_file(seed, path, rows, n_nodes):
    """A labeled third-party score file with many tied scores.

    Scores are on a coarse grid (two decimals), so most rows share a value
    with many others; positives score higher on average, more so at short
    distance. Pairs are distinct, u < v, with integer ids.
    """
    rng = np.random.default_rng([seed, 3])
    keys = rng.choice(n_nodes * (n_nodes - 1) // 2, size=rows, replace=False)
    iu, iv = np.triu_indices(n_nodes, 1)
    u, v = iu[keys], iv[keys]
    lines = ["u,v,distance,label,score\n"]
    start = 0
    for k, (dist, share, pos_rate) in enumerate(SCORE_BUCKETS):
        count = rows - start if k == len(SCORE_BUCKETS) - 1 else int(rows * share)
        n_pos = max(1, int(round(count * pos_rate)))
        label = np.zeros(count, dtype=np.int64)
        label[rng.choice(count, size=n_pos, replace=False)] = 1
        base = rng.beta(1.0, 6.0 + 2.0 * k, size=count)
        lift = rng.beta(2.0, 3.0 + 2.0 * k, size=count)
        score = np.round(np.where(label == 1, lift, base), 2)
        lines += [f"{a},{b},{dist},{lab},{s!r}\n"
                  for a, b, lab, s in zip(u[start:start + count].tolist(),
                                          v[start:start + count].tolist(),
                                          label.tolist(), score.tolist())]
        start += count
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


GENERATORS = {"local_log": local_log, "full_log": full_log, "score_file": score_file}


def _ini(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for name, kv in sections.items())


def make_inputs(workload, seed, directory):
    """Write the workload's input file and its ``lpeval.ini``."""
    path = os.path.join(directory, workload.input_file)
    GENERATORS[workload.generator](seed, path, **workload.params)
    sections = {"dataset": {workload.dataset_key: path}, **workload.config,
                "run": {"seed": seed}}
    with open(os.path.join(directory, "lpeval.ini"), "w", encoding="utf-8") as fh:
        fh.write(_ini(sections))


def _digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def batch(workload, seed, directory, digests):
    """Make the inputs ``SETUPS`` times at least and for ``SETUP_SECONDS`` at
    least; each set-up's raw time and its time scaled to the reference core
    by the probes taken just before and just after it (``probe.py``)."""
    times, scaled = [], []
    start = time.perf_counter()
    before = probe.probe()
    while len(times) < SETUPS or time.perf_counter() - start < SETUP_SECONDS:
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        t0 = time.perf_counter()
        make_inputs(workload, seed, directory)
        times.append(time.perf_counter() - t0)
        after = probe.probe()
        scaled.append(times[-1] * probe.scale(before, after))
        before = after
        digests.add(_digest(directory))
    return {"setup_s": times, "scaled_setup_s": scaled}


def main(argv):
    name, seed, directory = argv[0], int(argv[1]), argv[2]
    digests = set()
    for _ in sys.stdin:
        times = batch(WORKLOADS[name], seed, directory, digests)
        if len(digests) != 1:
            print("gen: the same seed gave different inputs", file=sys.stderr)
            return 1
        print(json.dumps(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
