"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately written from first principles (simple loops,
scipy, broadcasting) rather than through the library's own code paths, so a
disagreement always points at the implementation.
"""

import math
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from lpeval.stratify import BEYOND, DISCONNECTED


def auroc_pair_count(scores, labels):
    """P(random positive above random negative), ties half credit, exact.

    Accumulated as the integer 2*wins + ties before a single division.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    return _pair_count(scores[labels], scores[~labels])


def _pair_count(pos, neg):
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (2 * wins + ties) / (2.0 * pos.size * neg.size)


def bucket_mixture_auroc(scores, labels, distance, weights):
    """Sum over buckets d of w(d) * g(d), with the weights normalised to 1.

    g(d) is the pair-count AUROC of *all* positives against the negatives of
    distance bucket d; ``weights`` maps bucket -> weight (raw counts will do).
    A sampler that keeps every positive and draws negatives uniformly inside
    each bucket, in the proportions ``weights``, has this expected AUROC:
    negative counts per bucket give the full AUROC, positive counts the
    per-bucket balanced one.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    distance = np.asarray(distance)
    pos = scores[labels]
    total = mix = 0.0
    for d, w in weights.items():
        if w == 0:
            continue
        neg = scores[~labels & (distance == d)]
        assert neg.size, f"bucket {d} has weight but no negatives"
        mix += w * _pair_count(pos, neg)
        total += w
    return mix / total


def pr_boundary_path(scores, labels):
    """Cumulative (slots, tp, fp) at every tie-group boundary, from scratch."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    s = [float(scores[i]) for i in order]
    y = [bool(labels[i]) for i in order]
    slots, tps, fps = [0], [0], [0]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        gp = sum(1 for t in range(i, j) if y[t])
        slots.append(j)
        tps.append(tps[-1] + gp)
        fps.append(fps[-1] + (j - i - gp))
        i = j
    return (np.array(slots, float), np.array(tps, float), np.array(fps, float))


def aupr_per_rank_cut(scores, labels, subdiv=64):
    """Trapezoid area of the per-rank-cut PR path at slot subdivision.

    Cuts inside a tie group earn linear fractional credit (tp and fp both
    grow linearly in slots), which is the achievable-point interpolation; at
    fine subdivision the trapezoid converges to its exact area.
    """
    slots, tps, fps = pr_boundary_path(scores, labels)
    n = int(slots[-1])
    grid = np.linspace(0.0, float(n), n * subdiv + 1)
    tp = np.interp(grid, slots, tps)
    fp = np.interp(grid, slots, fps)
    total_pos = tps[-1]
    recall = tp / total_pos
    denom = tp + fp
    precision = np.divide(tp, denom, out=np.zeros_like(tp), where=denom > 0)
    if denom[0] == 0 and len(precision) > 1:
        precision[0] = precision[1]  # limit along the origin tie group
    return float(np.trapezoid(precision, recall))


def aupr_oracle(scores, labels):
    """Self-verifying AUPR by per-rank-cut trapezoids at two subdivisions.

    Trapezoid error is quadratic in the step, so Richardson extrapolation of
    the two grids removes it (observed residual ~1e-12); the pre-check that
    the grids already agree loosely guards against non-convergence.
    """
    coarse = aupr_per_rank_cut(scores, labels, subdiv=64)
    fine = aupr_per_rank_cut(scores, labels, subdiv=128)
    assert abs(fine - coarse) < 1e-4, "oracle failed to converge"
    return fine + (fine - coarse) / 3.0


def hop_distances(n, edges):
    """All-pairs unweighted shortest path matrix via scipy (inf = unreachable)."""
    if not edges:
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
        return d
    u = np.array([e[0] for e in edges])
    v = np.array([e[1] for e in edges])
    ones = np.ones(u.size)
    m = csr_matrix((np.concatenate([ones, ones]),
                    (np.concatenate([u, v]), np.concatenate([v, u]))),
                   shape=(n, n))
    return shortest_path(m, method="D", unweighted=True, directed=False)


def bfs_hops(adj, source):
    """Plain deque BFS distances; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def common_neighbor_sets(n, edges):
    """For every pair (u, v), the set of common neighbors, from adjacency sets;
    and every node's degree."""
    adj = [set() for _ in range(n)]
    for e in edges:
        adj[e[0]].add(e[1])
        adj[e[1]].add(e[0])
    common = {(u, v): adj[u] & adj[v] for u in range(n) for v in range(n) if u != v}
    return common, [len(a) for a in adj]


def adamic_adar_fsum(common, degree):
    """Adamic/Adar as a correctly rounded sum (math.fsum) of 1/ln(deg)."""
    return math.fsum(1.0 / math.log(degree[m]) for m in common)


def propflow_path_sum(n, weighted_edges, source, target, l_max):
    """Sum over strictly level-increasing paths of forward-normalized
    weight products; the target absorbs (paths stop there)."""
    adj = [[] for _ in range(n)]
    for u, v, w in weighted_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = bfs_hops([[v for v, _ in row] for row in adj], source)

    def forward(u):
        return [(v, w) for v, w in adj[u]
                if dist[v] == dist[u] + 1 and dist[v] <= l_max]

    total = 0.0

    def walk(u, prob):
        nonlocal total
        if u == target:
            total += prob
            return
        fwd = forward(u)
        denom = sum(w for _, w in fwd)
        if denom <= 0:
            return
        for v, w in fwd:
            walk(v, prob * w / denom)

    walk(source, 1.0)
    return total


def confusion_by_counting(sorted_labels, cut):
    """Counts from a plain loop over the top-``cut`` entries."""
    tp = sum(1 for y in sorted_labels[:cut] if y)
    fp = cut - tp
    pos = sum(1 for y in sorted_labels if y)
    neg = len(sorted_labels) - pos
    return tp, fp, neg - fp, pos - tp


def random_ranking(rng, max_size=2000, tie_fraction=0.5):
    """Random scored labels; about ``tie_fraction`` of rankings quantize
    scores to force substantial tie groups."""
    n = int(rng.integers(10, max_size + 1))
    labels = rng.random(n) < rng.uniform(0.05, 0.5)
    if not labels.any():
        labels[int(rng.integers(n))] = True
    if labels.all():
        labels[int(rng.integers(n))] = False
    scores = rng.normal(size=n) + labels * rng.uniform(0.0, 2.0)
    if rng.random() < tie_fraction:
        scores = np.round(scores * rng.uniform(0.5, 4.0)) / 2.0
    return scores, labels


def instances_csv_text(instances, id_labels=None, score_keys=None):
    """The instance CSV built one row and one cell at a time.

    Ids that hold ``,``, ``"``, CR or LF are quoted with inner quotes
    doubled; every other cell is written as is.
    """
    keys = list(score_keys if score_keys is not None else instances.scores)

    def quote(text):
        if set(text) & set(',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    def name(i):
        return quote(str(id_labels[i])) if id_labels is not None else str(i)

    def distance(d):
        return {BEYOND: "beyond", DISCONNECTED: "disconnected"}.get(d, str(d))

    header = ["u", "v", "distance", "label"] + (["score"] if len(keys) == 1
                                                else [f"score_{k}" for k in keys])
    out = [",".join(header) + "\n"]
    for i in range(len(instances)):
        cells = [name(int(instances.u[i])), name(int(instances.v[i])),
                 distance(int(instances.distance[i])),
                 "" if instances.label is None else str(int(instances.label[i]))]
        cells += [repr(float(instances.scores[k][i])) for k in keys]
        out.append(",".join(cells) + "\n")
    return "".join(out)
