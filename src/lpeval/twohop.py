"""The sorted table of two-hop paths that CN and AA read.

Each path source → middle → target is keyed ``source * n + target``, and a
key's run of paths counts the pair's common neighbors (CN) or sums their
1/ln(deg) (AA). The sources are taken in the runs that
:func:`lpeval.predictors._runs` cuts for walks of two hops, so a run's
paths stay within ``predictors._BLOCK_CELLS`` unless a single source has
more. :mod:`lpeval.predictors` imports this module when it first scores CN
or AA, so the commands that score neither do not compile it.
"""

from __future__ import annotations

import numpy as np

from .errors import DataCorruptionError
from .predictors import _ranges, _runs


def _two_hop_paths(s, run, deg, weights):
    """The two-hop paths from the sources of ``run`` as ``(key, w)``: each
    path's ``source * n + target`` and, given ``weights``, the weight of its
    middle node (else None).

    Each source's paths are gathered together, through its middle nodes in
    ascending degree. Given ``weights``, a degree-1 middle node whose one
    neighbor is not the source raises: a true common neighbor touches both
    ends, so it has degree >= 2, and such a node means the snapshot is
    corrupt.
    """
    counts, pos = _ranges(s.indptr[run], s.indptr[run + 1])
    src, mid = np.repeat(run, counts), s.indices[pos]
    order = np.lexsort((deg[mid], src))
    src, mid = src[order], mid[order]
    if weights is not None:
        lone = deg[mid] == 1
        if np.any(s.indices[s.indptr[mid[lone]]] != src[lone]):
            raise DataCorruptionError("common neighbor with degree < 2")
    counts, pos = _ranges(s.indptr[mid], s.indptr[mid + 1])
    key = np.repeat(src * s.n_universe, counts)
    key += s.indices[pos]
    return key, None if weights is None else np.repeat(weights[mid], counts)


def two_hop_table(s, sources, weighted):
    """The two-hop paths from ``sources`` (distinct, ascending) as
    ``(keys, values)``.

    ``keys`` holds each distinct ``source * n + target``, ascending, and
    ``values`` its number of paths (CN) or, ``weighted``, the sum of
    1/ln(deg) over their middle nodes (AA). A stable sort keeps each key's
    paths in ascending degree of the middle node (:func:`_two_hop_paths`),
    so AA adds its terms in that order, one at a time: pairs whose common
    neighbors have the same degree multiset get bit-equal scores, whatever
    their node ids. The sources are taken in runs, whose tables join in key
    order.
    """
    deg = np.diff(s.indptr)
    inv_log = None
    if weighted:
        inv_log = np.zeros(s.n_universe)
        many = deg >= 2
        inv_log[many] = 1.0 / np.log(deg[many])
    keys, values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for run in _runs(s, sources, 2):
        key, w = _two_hop_paths(s, run, deg, inv_log)
        if weighted:
            order = np.argsort(key, kind="stable")
            key = key[order]
            w = w[order]
        else:
            key.sort()
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        run_of = np.cumsum(first)
        run_of -= 1
        keys.append(key[first])
        values.append(np.bincount(run_of, weights=w).astype(np.float64, copy=False))
    return np.concatenate(keys), np.concatenate(values)
