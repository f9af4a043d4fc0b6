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



PRIMES = [2, 3, 7, 97]


def _rank(m, p):
    return len(modmat.rref(m, p)[1])


@pytest.mark.parametrize("p", PRIMES)
def test_nullspace_is_a_basis_of_the_kernel(p):
    rng = np.random.default_rng(p)
    for m in _cases(p, rng):
        basis = modmat.nullspace(m, p)
        assert basis.shape == (m.shape[1], m.shape[1] - _rank(m, p))
        assert not np.any(m @ basis % p)
        assert _rank(basis, p) == basis.shape[1]


@pytest.mark.parametrize("p", PRIMES)
def test_solve_right_solves_full_column_rank_systems(p):
    rng = np.random.default_rng(p)
    for rows, cols, rhs in [(6, 6, 3), (9, 4, 5), (5, 1, 2)]:
        b = rng.integers(0, p, (rows, cols))
        while _rank(b, p) < cols:
            b = rng.integers(0, p, (rows, cols))
        x = rng.integers(0, p, (cols, rhs))
        c = b @ x % p
        assert np.array_equal(modmat.solve_right(b, c, p), x)
        if rows > cols:
            eye = np.eye(rows, dtype=np.int64)
            outside = next(e for e in eye if _rank(np.c_[b, e], p) > cols)
            with pytest.raises(ValueError, match="inconsistent"):
                modmat.solve_right(b, (c + outside[:, None]) % p, p)


def _evaluate(f, a, p):
    out = np.zeros_like(a)
    for coeff in reversed(f):
        out = (out @ a + coeff * np.eye(len(a), dtype=np.int64)) % p
    return out


def _square_cases(p, rng):
    yield rng.integers(0, p, (6, 6))
    yield np.zeros((4, 4), dtype=np.int64)
    yield 3 * np.eye(5, dtype=np.int64)
    yield np.eye(5, k=1, dtype=np.int64)  # nilpotent, minimal polynomial x^5
    s = rng.integers(0, p, (6, 6))
    while _rank(s, p) < 6:
        s = rng.integers(0, p, (6, 6))
    s_inv = modmat.solve_right(s, np.eye(6, dtype=np.int64), p)
    yield s @ np.diag([0, 1, 1, 1, 0, 1]) @ s_inv % p  # two eigenvalues, repeated


@pytest.mark.parametrize("p", PRIMES)
def test_minimal_polynomial_is_the_least_annihilating_monic_polynomial(p):
    rng = np.random.default_rng(p)
    for a in _square_cases(p, rng):
        a = a % p
        f = modmat.minimal_polynomial(a, p)
        assert f[-1] == 1
        assert not np.any(_evaluate(f, a, p))
        # no polynomial of lower degree annihilates A: I, A, ..., A^(deg-1) are independent
        powers = [np.eye(len(a), dtype=np.int64)]
        for _ in range(len(f) - 2):
            powers.append(powers[-1] @ a % p)
        assert _rank(np.array([q.ravel() for q in powers]), p) == len(f) - 1
