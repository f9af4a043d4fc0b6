import numpy as np
import pytest

from degclass import modmat
from oracles import Reference


def _cases(p, rng):
    yield rng.integers(0, p, (6, 6))
    yield rng.integers(0, p, (5, 11))  # wide
    yield rng.integers(0, p, (12, 4))  # tall
    yield rng.integers(0, p, (9, 3)) @ rng.integers(0, p, (3, 9))  # rank <= 3
    yield rng.integers(0, p, (7, 2)) @ rng.integers(0, p, (2, 15))  # wide, rank <= 2
    yield np.zeros((4, 5), dtype=np.int64)
    sparse = rng.integers(0, p, (10, 10))
    sparse[rng.random((10, 10)) < 0.7] = 0
    yield sparse
    eye = np.eye(8, dtype=np.int64)
    yield np.concatenate([eye[rng.permutation(8)], eye], axis=1)


@pytest.mark.parametrize("p", [2, 3, 7, 97, 401])
def test_rref_matches_reference(p):
    rng = np.random.default_rng(p)
    for _ in range(5):
        for m in _cases(p, rng):
            got, pivots = modmat.rref(m, p)
            want, want_pivots = Reference.rref(m, p)
            assert pivots == want_pivots
            assert np.array_equal(got, want)

