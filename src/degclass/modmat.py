"""Exact linear algebra over a prime field, on numpy integer arrays.

``chardeg`` uses ``rref``, ``matmul``, ``poly_roots``, ``inv_mod`` and
``reduce``, its one reduction of an array mod p: one elimination of a
Krylov chain gives the minimal polynomial of a class sum of several
elements, a scan of the field its roots, and ``matmul`` every matrix
product of the split.
``nullspace``, ``solve_right`` and ``minimal_polynomial`` (with the
polynomial helpers it needs) have no caller in the package; they stay
because the benchmark's tracer (``perfbench/tracer.py``) wraps them by name,
and ``tests/test_modmat.py`` checks them by definition.

``matmul`` multiplies on float64 BLAS and stays exact by summing at most
2**53 // (p - 1)**2 products at a time; it raises ValueError when one
product (p - 1)**2 can reach 2**53.  Its result, like every residue array
of ``chardeg``, has the dtype ``residues(p)``, the narrowest that holds a
product of two residues.  Elsewhere nothing bounds the modulus: an int64
product of n-term row sums needs n * p**2 < 2**63 (int64 would wrap
silently), and ``poly_roots`` allocates an array of length p.
``chardeg`` keeps both safe by rejecting any dixon prime above its search
bound, at most ``PRIME_SEARCH_FACTOR * ENUMERATION_CAP`` = 2 * 10**6.
Polynomials are coefficient lists, constant term first, always
reduced mod p and trimmed.
"""

from __future__ import annotations

import numpy as np

from . import group as groups

Poly = list[int]

#: ``matmul`` splits a product into at most this many column panels once a
#: panel of BLOCK_CELLS cells would be narrower
PANELS = 8

#: ``reduce`` takes floor division from this many cells on: on int16, int32
#: and int64 arrays, x % p and x - x // p * p cost the same near 1024 cells,
#: and at 16384 cells the latter takes a fifth to a half of the time
REDUCE_CELLS = 1024


def residues(p: int) -> type:
    """The narrowest signed integer dtype that holds every product of two
    residues mod p, (p - 1)**2: int16 for p <= 182, int32 for p <= 46341,
    else int64.  A product in it is reduced mod p before it meets a third
    value, and sums of products are accumulated in int64."""
    square = (p - 1) ** 2
    return np.int16 if square < 2**15 else np.int32 if square < 2**31 else np.int64


def reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for an integer array x, and x itself.  From
    REDUCE_CELLS cells on it is x - (x // p) * p, the same residues as x %
    p, which numpy does not vectorize, while floor division by a scalar is
    vectorized; below that one np.remainder call costs less than three."""
    if x.size < REDUCE_CELLS:
        return np.remainder(x, p, out=x)
    q = np.floor_divide(x, p)
    q *= p
    x -= q
    return x


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


def rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (R, pivot_columns), R in
    the dtype ``residues(p)``.

    Each pivot clears its column in the other rows that have an entry there
    with one outer product, skipped when no other row has one.
    """
    a = (np.asarray(matrix) % p).astype(residues(p), copy=False)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # rows r.. are zero left of column c, so only columns c.. change
        a[r, c:] = a[r, c:] * inv_mod(int(a[r, c]), p) % p
        col = a[:, c].copy()
        col[r] = 0
        rest = col.nonzero()[0]
        if len(rest):
            a[rest, c:] = reduce(a[rest, c:] - reduce(np.outer(col[rest], a[r, c:]), p), p)
        pivots.append(c)
        r += 1
    return a, pivots


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, in the dtype ``residues(p)``, for 2-d arrays with entries
    in 0..p-1.

    The product runs on float64 BLAS, exactly.  Each product of two entries
    is at most (p - 1)**2, so a chunk of 2**53 // (p - 1)**2 inner terms
    sums to an integer of at most 2**53, and so does every partial sum in
    whatever order BLAS adds them: float64 holds each exactly, and a fused
    multiply-add rounds an exact integer to itself.  The chunks' sums are
    added and reduced in int64 (``reduce``), and the last reduction is
    copied into the narrow result.  Raises ValueError when not even one term
    fits, that is when (p - 1)**2 >= 2**53.  Columns go a panel at a time
    (``groups.blocks``), so besides ``a``'s float copy and the result the
    temporaries stay within one panel.  A panel is at least 1/PANELS of the
    columns wide: blocks of BLOCK_CELLS cells alone would make r x r x r
    products ever thinner panel products as r grows.
    """
    if (p - 1) ** 2 >= 2**53:
        raise ValueError(f"modulus {p}: a product of two residues may exceed 2**53")
    terms = 2**53 // (p - 1) ** 2
    a = np.asarray(a, dtype=np.float64)
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.empty((rows, cols), dtype=residues(p))
    for block in groups.blocks(cols, rows + inner, least=-(-cols // PANELS)):
        _chunked_product(a, np.asarray(b[:, block], dtype=np.float64), p, terms, out[:, block])
    return out


def _chunked_product(a: np.ndarray, b: np.ndarray, p: int, terms: int, out: np.ndarray) -> None:
    """out = a @ b mod p for float64 a and b, ``terms`` inner terms at a time.

    A function of its own, so that one block's float temporaries are freed
    before the next block's are made."""
    total = (a[:, :terms] @ b[:terms]).astype(np.int64)
    for start in range(terms, a.shape[1], terms):
        reduce(total, p)
        total += (a[:, start : start + terms] @ b[start : start + terms]).astype(np.int64)
    out[...] = reduce(total, p)


def nullspace(matrix: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the right nullspace of ``matrix`` over GF(p)."""
    a = np.asarray(matrix, dtype=np.int64) % p
    _, cols = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[row, fc])) % p
    return basis


def solve_right(b: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Solve B @ A = C over GF(p) for full-column-rank B; raises if inconsistent."""
    b = np.asarray(b, dtype=np.int64) % p
    c = np.asarray(c, dtype=np.int64) % p
    d = b.shape[1]
    aug = np.concatenate([b, c], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:d] != list(range(d)) or len(pivots) != d:
        raise ValueError("matrix does not have full column rank or system is inconsistent")
    if np.any(r[d:, d:]):
        raise ValueError("inconsistent system: columns of C leave the span of B")
    return r[:d, d:].copy()


# --- polynomials over GF(p) --------------------------------------------------


def poly_trim(f: Poly) -> Poly:
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def poly_mul(f: Poly, g: Poly, p: int) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    g = poly_trim([x % p for x in g])
    if g == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    f = [x % p for x in f]
    ginv = inv_mod(g[-1], p)
    quot = [0] * max(1, len(f) - len(g) + 1)
    rem = list(f)
    while len(poly_trim(rem)) >= len(g) and poly_trim(rem) != [0]:
        rem = poly_trim(rem)
        shift = len(rem) - len(g)
        coeff = rem[-1] * ginv % p
        quot[shift] = coeff
        for i, b in enumerate(g):
            rem[shift + i] = (rem[shift + i] - coeff * b) % p
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(f: Poly, g: Poly, p: int) -> Poly:
    f, g = poly_trim([x % p for x in f]), poly_trim([x % p for x in g])
    while g != [0]:
        _, r = poly_divmod(f, g, p)
        f, g = g, r
    if f == [0]:
        return f
    lead = inv_mod(f[-1], p)
    return [x * lead % p for x in f]


def poly_lcm(f: Poly, g: Poly, p: int) -> Poly:
    if poly_trim(f) == [0] or poly_trim(g) == [0]:
        return [0]
    q, _ = poly_divmod(poly_mul(f, g, p), poly_gcd(f, g, p), p)
    lead = inv_mod(q[-1], p)
    return [x * lead % p for x in q]


def poly_roots(f: Poly, p: int) -> list[int]:
    """All roots of f in GF(p), found by a vectorized scan of the field."""
    f = poly_trim([x % p for x in f])
    if f == [0]:
        raise ValueError("zero polynomial has every root")
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for coeff in reversed(f):
        acc = reduce(acc * xs + coeff, p)
    return [int(x) for x in xs[acc == 0]]


def poly_eval_matrix_vector(f: Poly, a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """f(A) @ v by Horner's rule."""
    out = np.zeros_like(v)
    for coeff in reversed(f):
        out = (a @ out + coeff * v) % p
    return out


def _krylov_minpoly(a: np.ndarray, v: np.ndarray, p: int) -> Poly:
    """Minimal polynomial of the vector v under A over GF(p)."""
    d = len(v)
    # echelonized Krylov vectors plus their expressions over A^t v
    pivots: list[tuple[int, np.ndarray, np.ndarray]] = []
    w = v % p
    k = 0
    while True:
        vec = w.copy()
        expr = np.zeros(d + 1, dtype=np.int64)
        expr[k] = 1
        for piv, pvec, pexpr in pivots:
            c = int(vec[piv])
            if c:
                vec = (vec - c * pvec) % p
                expr = (expr - c * pexpr) % p
        nz = np.nonzero(vec)[0]
        if len(nz) == 0:
            return poly_trim([int(x) for x in expr[: k + 1]])
        piv = int(nz[0])
        scale = inv_mod(int(vec[piv]), p)
        pivots.append((piv, vec * scale % p, expr * scale % p))
        w = (a @ w) % p
        k += 1
        if k > d:
            raise RuntimeError("internal error: Krylov chain exceeded dimension")


def minimal_polynomial(a: np.ndarray, p: int) -> Poly:
    """Minimal polynomial of A over GF(p): lcm of vector minpolys over a basis."""
    a = np.asarray(a, dtype=np.int64) % p
    d = a.shape[0]
    m: Poly = [1]
    for col in range(d):
        v = np.zeros(d, dtype=np.int64)
        v[col] = 1
        if np.any(poly_eval_matrix_vector(m, a, v, p)):
            m = poly_lcm(m, _krylov_minpoly(a, v, p), p)
            if len(m) == d + 1:
                break
    return m

