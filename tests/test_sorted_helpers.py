"""The sort-based stand-ins for np.unique, np.isin and np.median, against numpy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpeval import ConfigError, Ranking, estimate_classifiable
from lpeval.cells import _sorted_unique
from lpeval.stratify import _isin

# Keys as the kernels make them: small ids, the -1 sentinel, negatives and
# cell keys near the top of int64.
KEYS = st.one_of(st.integers(-3, 12), st.just(-1),
                 st.integers(2 ** 62 - 4, 2 ** 62 + 4),
                 st.integers(-(2 ** 63), 2 ** 63 - 1))
KEY_ARRAYS = st.lists(KEYS, max_size=40).map(lambda k: np.array(k, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(KEY_ARRAYS)
def test_sorted_unique_is_np_unique(a):
    got = _sorted_unique(a)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(a))


@settings(max_examples=300, deadline=None)
@given(KEY_ARRAYS, KEY_ARRAYS)
@example(np.array([-1, 0, 5], dtype=np.int64), np.empty(0, dtype=np.int64))
@example(np.empty(0, dtype=np.int64), np.array([3], dtype=np.int64))
def test_isin_is_np_isin(keys, table):
    got = _isin(keys, table)
    assert got.dtype == bool and got.shape == keys.shape
    assert np.array_equal(got, np.isin(keys, table))


def classifiable_oracle(scores, labels):
    return int((scores[~labels] < np.median(scores[labels])).sum())


SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan, np.inf, -np.inf,
                                    1e308, -1e308]),
                   st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(SCORES, st.booleans()), min_size=1, max_size=30)
       .filter(lambda rows: any(label for _, label in rows)))
@example([(np.nan, True), (0.0, True), (-1.0, False)])
@example([(-0.0, True), (0.0, True), (-0.0, False), (-1.0, False)])
@example([(1e308, True), (1e308, True), (2.0, False)])
@example([(np.inf, True), (-np.inf, True), (2.0, False)])
def test_classifiable_count_uses_np_median(rows):
    scores = np.array([s for s, _ in rows], dtype=np.float64)
    labels = np.array([label for _, label in rows], dtype=bool)
    if np.isnan(scores).any():
        # A NaN score has no place in a ranking, so it never reaches C.
        with pytest.raises(ConfigError):
            Ranking(scores, labels)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        want = classifiable_oracle(scores, labels)
        assert estimate_classifiable(Ranking(scores, labels)) == want
