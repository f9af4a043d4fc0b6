"""Exact irreducible character degrees via class-algebra eigensplitting.

The method works entirely over a prime field GF(l) where l = 1 (mod e) for
the group exponent e and l > 2*sqrt(|G|):

1. compute the class multiplication coefficients a[i][j][k] (the number of
   ways a fixed element of class k factors as x*y with x in class i and
   y in class j);
2. the r matrices M_i with (M_i)[j][k] = a[i][j][k] commute and are
   simultaneously diagonalizable over GF(l).  Following Dixon and
   Schneider, the class sums K_0, K_1, ... are scanned in class order for
   one that generates the algebra: its Krylov chain 1, K, K^2, ... (the
   coordinates of K*x are M.T @ x) has r independent powers exactly when K
   has r distinct eigenvalues.  Then one elimination of the Krylov matrix C
   yields both the minimal polynomial of K, whose r roots are the
   eigenvalues, and C^-1, which writes every K_j as a polynomial in K;
   evaluating those polynomials at the roots (one Vandermonde product)
   gives every common eigenvector at once, in O(r^3).  When no class sum
   generates (always when r > l), the identity is split into the
   primitive idempotents of the algebra instead: each class sum, longest
   chain first (class order breaks ties), multiplies every idempotent
   found so far by its Lagrange idempotents E_lambda = prod over mu !=
   lambda of (K - mu) / (lambda - mu), and the nonzero products are the
   next idempotents.  A primitive idempotent e gives the central character
   w_j = |K_j| * e_{j*} / e_0.  Both paths read the class matrices through a
   sparse action on the coefficients and are deterministic: no random
   linear combinations;
3. each common eigenvector, normalized to 1 at the identity class, is the
   row of central-character values w_j = |K_j| * chi(g_j) / chi(1) mod l;
   every row is checked against all coefficients,
   w_i * w_j = sum_k a[i][j][k] * w_k;
4. chi(1)^2 = |G| * (sum_j w_j * w_{j*} / |K_j|)^(-1) mod l, and the degree
   is the unique square root in (0, sqrt(|G|)] - unique because
   l > 2*sqrt(|G|).

Both congruence constraints on l force l coprime to |G| (every prime of |G|
divides e), which is what makes the class algebra split.  Only the degrees
are kept; the character values are internal scaffolding and are discarded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

from . import modmat
from .arith import is_prime
from .group import Group

if TYPE_CHECKING:
    from .structure import ConjugacyClassSet

#: primes are searched up to this multiple of the group order; at desk scale
#: the least admissible prime appears far earlier, but the failure path is real
PRIME_SEARCH_FACTOR = 100

#: below this modulus the modular square root is a plain scan
SQRT_SCAN_LIMIT = 10**4

#: the coefficient check handles this many (character, coefficient) cells at
#: a time, so no array of r * nnz cells is ever built
CHECK_BLOCK_CELLS = 1 << 13

#: the sparse class action and the idempotent split handle this many cells at
#: a time, so no array of r * nnz_g or r^3 cells is ever built
SPLIT_BLOCK_CELLS = 1 << 16


class DixonPrimeSearchError(RuntimeError):
    """No admissible prime below the search bound; raise the bound."""


class EigensplitError(RuntimeError):
    """Eigenspace refinement failed to produce r one-dimensional spaces.

    This cannot happen for correct class-algebra coefficients; it signals an
    internal bug and must never be swallowed."""


@dataclass(frozen=True)
class DegreeFrequency:
    """The multiset of irreducible character degrees, as sorted (degree,
    multiplicity) pairs."""

    entries: tuple[tuple[int, int], ...]

    def multiplicity(self, degree: int) -> int:
        return dict(self.entries).get(degree, 0)

    def irreducible_count(self) -> int:
        return sum(m for _, m in self.entries)

    def sum_of_squares(self) -> int:
        return sum(m * d * d for d, m in self.entries)

    def degrees(self) -> list[int]:
        return [d for d, _ in self.entries]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


@dataclass(frozen=True)
class ClassAlgebraData:
    """Class multiplication coefficients plus the data needed to split them."""

    class_count: int
    coefficients: dict[tuple[int, int, int], int]
    exponent: int
    dixon_prime: int

    def coefficient(self, i: int, j: int, k: int) -> int:
        return self.coefficients.get((i, j, k), 0)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The coefficients as arrays (i, j, k, value) sorted by (i, j, k),
        plus ``start`` with the entries of class i at start[i]:start[i + 1]."""
        # one array of n codes (i * r + j) * r + k is sorted and split in place
        r, n = self.class_count, len(self.coefficients)
        keys = np.fromiter(itertools.chain.from_iterable(self.coefficients), np.int64, 3 * n)
        code = keys.reshape(n, 3) @ np.array([r * r, r, 1])
        del keys
        order = np.argsort(code, kind="stable")
        code = code[order]
        values = np.fromiter(self.coefficients.values(), np.int64, n)[order]
        del order
        k = code % r
        code //= r
        j = code % r
        code //= r
        return code, j, k, values, np.searchsorted(code, np.arange(r + 1))

    @cached_property
    def actions(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per class g, its coefficients grouped by k for ``act``: (j, value,
        ks, starts) sorted by (k, j), the entries of column ks[t] of the class
        matrix at starts[t]:starts[t + 1]."""
        r = self.class_count
        i, j, k, values, start = self.arrays
        order = np.argsort((i * r + k) * r + j, kind="stable")
        # i leads both orders, so the class slices keep their bounds
        j, k, values = j[order], k[order], values[order]
        first = np.flatnonzero(np.r_[True, (i[1:] != i[:-1]) | (k[1:] != k[:-1])])
        bounds = np.searchsorted(first, start)
        return [
            (j[lo:hi], values[lo:hi], k[first[a:b]], first[a:b] - lo)
            for lo, hi, a, b in zip(start[:-1], start[1:], bounds[:-1], bounds[1:])
        ]

    def act(self, g: int, x: np.ndarray, ell: int) -> np.ndarray:
        """x @ M_g mod ell for rows x reduced mod ell: row t of the result is
        the coordinate row of (row t of x) * K_g.  Costs len(x) * nnz_g cells,
        a block of rows at a time; each sum has at most r terms below ell^2."""
        j, values, ks, starts = self.actions[g]
        values = values % ell
        out = np.zeros_like(x)
        step = max(1, SPLIT_BLOCK_CELLS // max(1, len(j)))
        for lo in range(0, len(x), step):
            block = x[lo : lo + step, j] * values
            out[lo : lo + step, ks] = np.add.reduceat(block, starts, axis=1) % ell
        return out

    def matrix(self, i: int) -> np.ndarray:
        r = self.class_count
        _, j, k, values, start = self.arrays
        own = slice(start[i], start[i + 1])
        m = np.zeros((r, r), dtype=np.int64)
        m[j[own], k[own]] = values[own]
        return m


def admissible_primes(order: int, exponent: int, bound: int | None = None) -> Iterator[int]:
    """Primes l = 1 (mod exponent) with l^2 > 4*order, ascending, up to the bound."""
    if bound is None:
        bound = PRIME_SEARCH_FACTOR * order
    # l = 1 (mod e) and l odd except for the degenerate exponent-1 case
    candidate = exponent + 1 if exponent > 1 else 2
    found = False
    while candidate <= bound:
        if candidate * candidate > 4 * order and is_prime(candidate):
            found = True
            yield candidate
        candidate += exponent if exponent > 1 else 1
    if not found:
        raise DixonPrimeSearchError(
            f"no prime l = 1 (mod {exponent}) with l > 2*sqrt({order}) below {bound}"
        )


def least_admissible_prime(order: int, exponent: int, bound: int | None = None) -> int:
    return next(admissible_primes(order, exponent, bound))


def class_algebra(group: Group, classes: "ConjugacyClassSet") -> ClassAlgebraData:
    """Structure constants of the class algebra plus exponent and dixon prime.

    a[i][j][k] is computed by fixing the representative z_k of class k and,
    for every group element x (in class i), locating the class j of
    x^-1 * z_k: one table gather per k, counted by (i, j) pair.
    """
    r = len(classes)
    coeff: dict[tuple[int, int, int], int] = {}
    reps = [group.index_of(c.representative) for c in classes.classes]
    class_of = np.array(classes.class_index, dtype=np.int64)
    inv = group.inverses
    for k, zk in enumerate(reps):
        pairs, counts = np.unique(class_of * r + class_of[group.mul(inv, zk)], return_counts=True)
        for pair, count in zip(pairs.tolist(), counts.tolist()):
            i, j = divmod(pair, r)
            coeff[(i, j, k)] = count
    exponent = math.lcm(*(group.element_order(x) for x in range(group.order)))
    return ClassAlgebraData(r, coeff, exponent, least_admissible_prime(group.order, exponent))


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod p (p an odd prime or 2); raises if none exists.

    Scans exhaustively for small p, uses Tonelli-Shanks above the scan limit.
    """
    a %= p
    if a == 0:
        return 0
    if p < SQRT_SCAN_LIMIT:
        for x in range(1, p):
            if x * x % p == a:
                return x
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


def _simultaneous_eigenvectors(data: ClassAlgebraData, ell: int) -> list[np.ndarray]:
    """Central-character vectors over GF(ell), sorted: from one generating
    class sum when there is one, else by idempotent refinement."""
    r = data.class_count
    lengths = []
    for g in range(r):
        powers, dependent = _identity_chain(data, g, ell)
        if len(powers) == r:
            vectors = _split_by_generator(powers, dependent, ell)
            break
        lengths.append(len(powers))
    else:
        vectors = _refine(data, ell, sorted(range(r), key=lambda i: (-lengths[i], i)))
    return sorted(vectors, key=lambda v: tuple(int(x) for x in v))


def _identity_chain(data: ClassAlgebraData, g: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Krylov chain 1, K, K^2, ... of the class sum K = K_g.

    Returns the independent powers as rows (their number is the number of
    distinct eigenvalues of K) and the first power that depends on them.
    Each power is reduced against the earlier ones, kept in reduced echelon
    form, so testing it costs one sparse action and one vector-matrix product.
    """
    r = data.class_count
    echelon = np.zeros((r, r), dtype=np.int64)
    pivots: list[int] = []
    powers = []
    x = np.zeros(r, dtype=np.int64)
    x[0] = 1
    while True:
        k = len(pivots)
        rest = (x - x[pivots] @ echelon[:k]) % ell
        nz = np.flatnonzero(rest)
        if len(nz) == 0:
            return np.array(powers, dtype=np.int64).reshape(-1, r), x
        c = int(nz[0])
        rest = rest * modmat.inv_mod(int(rest[c]), ell) % ell
        echelon[:k] = (echelon[:k] - np.outer(echelon[:k, c], rest)) % ell
        echelon[k] = rest
        pivots.append(c)
        powers.append(x)
        x = data.act(g, x[None], ell)[0]


def _split_by_generator(powers: np.ndarray, dependent: np.ndarray, ell: int) -> list[np.ndarray]:
    """Every central character from a class sum K with r distinct eigenvalues.

    ``powers`` holds K^0..K^{r-1} as rows, so C = powers.T is invertible and
    one elimination of [C | I | K^r] gives C^-1 and the coefficients c of
    K^r = sum_t c_t K^t.  Column j of C^-1 writes K_j as a polynomial in K,
    so w(K_j) is that polynomial evaluated at w(K), a root of
    x^r - sum_t c_t x^t.
    """
    r = len(powers)
    augmented = np.concatenate(
        [powers.T, np.eye(r, dtype=np.int64), dependent[:, None]], axis=1
    )
    reduced, pivots = modmat.rref(augmented, ell)
    if pivots != list(range(r)):
        raise EigensplitError("Krylov matrix of the generating class sum is singular")
    inverse, tail = reduced[:, r : 2 * r], reduced[:, 2 * r]
    roots = modmat.poly_roots([(-int(c)) % ell for c in tail] + [1], ell)
    if len(roots) != r:
        raise EigensplitError(
            f"generating class sum has {len(roots)} eigenvalues in GF({ell}), expected {r}"
        )
    vandermonde = np.ones((r, r), dtype=np.int64)
    lam = np.array(roots, dtype=np.int64)
    for t in range(1, r):
        vandermonde[:, t] = vandermonde[:, t - 1] * lam % ell
    return list(vandermonde @ inverse % ell)


def _lagrange(powers: np.ndarray, dependent: np.ndarray, ell: int) -> np.ndarray:
    """L with E_lambda = sum_t L[t, lambda] K^t, the Lagrange idempotents of
    the class sum K whose identity chain is (powers, dependent).

    One elimination of [C | K^n] gives K's minimal polynomial f, which must
    have n distinct roots in GF(ell).  Then E_lambda = f(K) / ((K - lambda)
    * f'(lambda)); the quotients f / (x - lambda) come by synthetic division,
    and L is the inverse of the Vandermonde matrix of the roots.
    """
    n = len(powers)
    # the powers are independent and the dependent power lies in their span
    reduced, _ = modmat.rref(np.concatenate([powers.T, dependent[:, None]], axis=1), ell)
    f = [(-int(c)) % ell for c in reduced[:n, n]] + [1]
    roots = modmat.poly_roots(f, ell)
    if len(roots) != n:
        raise EigensplitError(
            f"minimal polynomial of degree {n} of a class sum has {len(roots)} distinct roots in GF({ell})"
        )
    lam = np.array(roots, dtype=np.int64)
    quotients = np.zeros((n, n), dtype=np.int64)
    quotients[n - 1] = 1
    for t in range(n - 1, 0, -1):
        quotients[t - 1] = (f[t] + lam * quotients[t]) % ell
    derivative = np.zeros(n, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        derivative = (derivative * lam + quotients[t]) % ell
    scale = np.array([modmat.inv_mod(int(d), ell) for d in derivative], dtype=np.int64)
    return quotients * scale % ell


def _refine(data: ClassAlgebraData, ell: int, order: list[int]) -> list[np.ndarray]:
    """Central characters from the primitive idempotents of the class algebra
    over GF(ell), refining by the class sums in ``order``.

    ``rows`` holds orthogonal idempotents summing to 1, as coordinate rows
    over the class sums, starting from the identity.  A class sum K replaces
    each row e by the nonzero rows e * E_lambda over its Lagrange idempotents.
    Afterwards e * K = lambda * e, so once every class sum is used each row
    spans a one-dimensional ideal: one pass suffices, and it stops at r rows.
    """
    r = data.class_count
    rows = np.zeros((1, r), dtype=np.int64)
    rows[0, 0] = 1
    for g in order:
        if len(rows) >= r:
            break
        powers, dependent = _identity_chain(data, g, ell)
        n = len(powers)
        if n == 1:  # a scalar splits nothing
            continue
        lagrange = _lagrange(powers, dependent, ell)
        refined = []
        step = max(1, SPLIT_BLOCK_CELLS // (n * r))
        for lo in range(0, len(rows), step):
            chain = [rows[lo : lo + step]]
            for _ in range(n - 1):
                chain.append(data.act(g, chain[-1], ell))
            # each sum has n <= r terms below ell^2
            split = (np.tensordot(lagrange.T, np.stack(chain), axes=1) % ell).reshape(-1, r)
            refined.append(split[split.any(axis=1)])
        rows = np.concatenate(refined)
    if len(rows) < r:
        raise EigensplitError(f"refinement stalled with {len(rows)} idempotents for {r} classes")
    if len(rows) != r:
        raise EigensplitError(f"found {len(rows)} primitive idempotents, expected {r}")

    if not rows[:, 0].all():
        raise EigensplitError("idempotent vanishes at the identity class")
    # w_j = |K_j| * e_{j*} / e_0: a[j][i][0] is |K_j| for i = j* and 0 otherwise
    i, j, k, values, _ = data.arrays
    unit = k == 0
    omega = np.zeros_like(rows)
    omega[:, i[unit]] = rows[:, j[unit]] * (values[unit] % ell) % ell
    inverse = np.array([modmat.inv_mod(int(e), ell) for e in rows[:, 0]], dtype=np.int64)
    return list(omega * inverse[:, None] % ell)


def _check_central_characters(data: ClassAlgebraData, vectors: list[np.ndarray], ell: int) -> None:
    """Raise unless every w satisfies w_i * w_j = sum_k a[i][j][k] * w_k mod ell.

    Checked for all r^2 pairs (i, j) on a block of characters at a time.
    """
    r = data.class_count
    i, j, k, values, _ = data.arrays
    pair = i * r + j
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
    if len(first) != r * r:
        raise EigensplitError(f"coefficients cover {len(first)} class pairs, expected {r * r}")
    values = values % ell
    omega = np.array(vectors, dtype=np.int64).reshape(-1, r)
    step = max(1, CHECK_BLOCK_CELLS // max(len(values), r * r))
    for lo in range(0, len(omega), step):
        w = omega[lo : lo + step]
        # each sum has at most r terms below ell^2
        sums = np.add.reduceat(np.take(w, k, axis=1) * values, first, axis=1) % ell
        if not np.array_equal(sums, (w[:, :, None] * w[:, None, :] % ell).reshape(len(w), r * r)):
            raise EigensplitError("a split vector is not a central character of the class algebra")


def _degree_of_vector(
    omega: np.ndarray, inverse_pairing: np.ndarray, inverse_sizes: np.ndarray, order: int, ell: int
) -> int:
    total = int((omega * omega[inverse_pairing] % ell * inverse_sizes % ell).sum()) % ell
    if total == 0:
        raise EigensplitError("orthogonality sum vanished mod the dixon prime")
    square = order % ell * modmat.inv_mod(total, ell) % ell
    root = sqrt_mod(square, ell)
    limit = math.isqrt(order)
    candidates = [x for x in (root, ell - root) if 1 <= x <= limit]
    if len(candidates) != 1:
        raise EigensplitError(f"degree root not unique in (0, sqrt(order)]: {candidates}")
    return candidates[0]


def degrees_from_class_algebra(
    group: Group,
    classes: "ConjugacyClassSet",
    data: ClassAlgebraData,
    dixon_prime: int | None = None,
) -> DegreeFrequency:
    """Run the eigensplit for one modulus and aggregate the recovered degrees."""
    ell = data.dixon_prime if dixon_prime is None else dixon_prime
    if dixon_prime is not None:
        # above the search bound r * ell^2 may wrap int64 and the root scan
        # allocates ell cells; the bound keeps both safe up to the
        # enumeration cap
        if ell > PRIME_SEARCH_FACTOR * group.order:
            raise ValueError(
                f"dixon prime {ell} is above the search bound {PRIME_SEARCH_FACTOR} * {group.order}"
            )
        if not is_prime(ell) or ell % data.exponent != (1 % data.exponent) or ell * ell <= 4 * group.order:
            raise ValueError(f"{ell} is not an admissible dixon prime for this group")
    vectors = _simultaneous_eigenvectors(data, ell)
    _check_central_characters(data, vectors, ell)
    star = np.array(classes.inverse_pairing, dtype=np.intp)
    inverse_sizes = np.array([modmat.inv_mod(n, ell) for n in classes.sizes()], dtype=np.int64)
    counts: dict[int, int] = {}
    for omega in vectors:
        d = _degree_of_vector(omega, star, inverse_sizes, group.order, ell)
        counts[d] = counts.get(d, 0) + 1
    freq = DegreeFrequency(tuple(sorted(counts.items())))
    _check_consistency(freq, group.order, len(classes))
    return freq


def _check_consistency(freq: DegreeFrequency, order: int, class_count: int) -> None:
    if freq.sum_of_squares() != order:
        raise EigensplitError(
            f"degree squares sum to {freq.sum_of_squares()}, group order is {order}"
        )
    if freq.irreducible_count() != class_count:
        raise EigensplitError(
            f"{freq.irreducible_count()} characters found for {class_count} classes"
        )
    for d, _ in freq.entries:
        if order % d != 0:
            raise EigensplitError(f"degree {d} does not divide the group order {order}")


def character_degrees(group: Group, dixon_prime: int | None = None) -> DegreeFrequency:
    """The character degree frequency of the group.

    ``dixon_prime`` overrides the least admissible modulus; any admissible
    choice yields the identical frequency, which the tests exploit as a
    cross-check.
    """
    from .structure import conjugacy_classes

    classes = conjugacy_classes(group)
    data = class_algebra(group, classes)
    return degrees_from_class_algebra(group, classes, data, dixon_prime)
