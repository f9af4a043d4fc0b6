import math

import numpy as np
import pytest

from degclass import group as groups
from degclass import modmat
from degclass.arith import is_prime
from degclass.chardeg import PRIME_SEARCH_FACTOR
from degclass.group import ENUMERATION_CAP
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


def _python_product(a, b, p):
    return np.array(a.astype(object) @ b.astype(object) % p, dtype=np.int64).reshape(len(a), b.shape[1])


@pytest.mark.parametrize("block", [groups.BLOCK_CELLS, 7])
@pytest.mark.parametrize("p", [2, 3, 7, 97, 401])
def test_matmul_matches_python_ints(monkeypatch, p, block):
    monkeypatch.setattr(groups, "BLOCK_CELLS", block)
    rng = np.random.default_rng(p)
    for rows, inner, cols in [(1, 1, 1), (5, 7, 3), (12, 1, 9), (3, 40, 200), (40, 40, 40), (0, 4, 3), (4, 0, 3)]:
        a, b = rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))
        assert np.array_equal(modmat.matmul(a, b, p), _python_product(a, b, p))


@pytest.mark.parametrize("cells", [7, modmat.REDUCE_CELLS - 1, modmat.REDUCE_CELLS, 5000])
@pytest.mark.parametrize("p,dtype", [(37, np.int16), (401, np.int32), (1999993, np.int64)])
def test_reduce_gives_the_residues_of_remainder_in_place(p, dtype, cells):
    # below REDUCE_CELLS by np.remainder, from it on by floor division; both
    # take negative values to 0..p-1, as % does
    square = (p - 1) ** 2
    x = np.random.default_rng(cells).integers(-square, square + 1, cells).astype(dtype)
    want = x % p
    got = modmat.reduce(x, p)
    assert got is x and got.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p,dtype", [(181, np.int16), (191, np.int32), (46337, np.int32), (46349, np.int64)])
def test_residues_hold_a_product_of_two_residues(p, dtype):
    # the primes on either side of 182 and of 46341, where (p - 1)**2 outgrows 2**15 - 1 and 2**31 - 1
    assert is_prime(p) and modmat.residues(p) is dtype
    assert (p - 1) ** 2 <= np.iinfo(dtype).max
    rng = np.random.default_rng(p)
    for rows, inner, cols in [(5, 7, 3), (40, 40, 40), (3, 300, 2)]:
        a, b = rng.integers(0, p, (rows, inner)), rng.integers(0, p, (inner, cols))
        a[0], b[:, 0] = p - 1, p - 1  # the largest products
        product = modmat.matmul(a.astype(dtype), b.astype(dtype), p)
        assert product.dtype == dtype
        assert np.array_equal(product, _python_product(a, b, p))


@pytest.mark.parametrize(
    "r,widths", [(128, [128]), (300, [109, 109, 82]), (512, [64] * 8), (600, [75] * 8)]
)
def test_matmul_panels_are_at_least_an_eighth_of_the_columns(monkeypatch, r, widths):
    # BLOCK_CELLS // (rows + inner) columns a panel where that is wider, so
    # every r <= 512 keeps its panels; above it, modmat.PANELS panels
    seen, product = [], modmat._chunked_product
    monkeypatch.setattr(modmat, "_chunked_product", lambda a, b, *rest: seen.append(b.shape[1]) or product(a, b, *rest))
    rng = np.random.default_rng(r)
    a, b = rng.integers(0, 97, (r, r)), rng.integers(0, 97, (r, r))
    assert np.array_equal(modmat.matmul(a, b, 97), a @ b % 97)
    assert seen == widths


def test_matmul_is_exact_across_chunks():
    # the largest prime the dixon prime search can reach at the enumeration
    # cap: an inner dimension of 4600 is three chunks of 2**53 // (p - 1)**2
    # = 2251 terms, each term near (p - 1)**2
    p = next(q for q in range(PRIME_SEARCH_FACTOR * ENUMERATION_CAP, 0, -1) if is_prime(q))
    assert 2 * (2**53 // (p - 1) ** 2) < 4600
    rng = np.random.default_rng(0)
    a, b = rng.integers(p - 1000, p, (3, 4600)), rng.integers(p - 1000, p, (4600, 40))
    assert np.array_equal(modmat.matmul(a, b, p), _python_product(a, b, p))
    # the largest modulus with (p - 1)**2 < 2**53 takes one term a chunk
    p = math.isqrt(2**53 - 1) + 1
    a = np.full((2, 3), p - 1)
    assert np.array_equal(modmat.matmul(a, a.T, p), _python_product(a, a.T, p))


@pytest.mark.parametrize("p", [math.isqrt(2**53 - 1) + 2, 2**31 - 1, 2**61 - 1])
def test_matmul_refuses_a_modulus_whose_products_reach_2_53(p):
    assert (p - 1) ** 2 >= 2**53
    with pytest.raises(ValueError, match="2\\*\\*53"):
        modmat.matmul(np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), p)


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
