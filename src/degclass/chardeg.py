"""Exact irreducible character degrees via class-algebra eigensplitting.

The method works entirely over a prime field GF(l) where l = 1 (mod e) for
the group exponent e and l > 2*sqrt(|G|):

1. compute the class multiplication coefficients a[i][j][k] (the number of
   ways a fixed element of class k factors as x*y with x in class i and
   y in class j);
2. the r matrices M_i with (M_i)[j][k] = a[i][j][k] commute and are
   simultaneously diagonalizable over GF(l); refine the full space into
   their common one-dimensional eigenspaces by cycling through M_0..M_{r-1}
   in order (deterministic - no random linear combinations);
3. each common eigenvector, normalized to 1 at the identity class, is the
   row of central-character values w_j = |K_j| * chi(g_j) / chi(1) mod l;
4. chi(1)^2 = |G| * (sum_j w_j * w_{j*} / |K_j|)^(-1) mod l, and the degree
   is the unique square root in (0, sqrt(|G|)] - unique because
   l > 2*sqrt(|G|).

Both congruence constraints on l force l coprime to |G| (every prime of |G|
divides e), which is what makes the class algebra split.  Only the degrees
are kept; the character values are internal scaffolding and are discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def matrix(self, i: int) -> np.ndarray:
        r = self.class_count
        m = np.zeros((r, r), dtype=np.int64)
        for (ii, j, k), v in self.coefficients.items():
            if ii == i:
                m[j, k] = v
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
    """Common one-dimensional eigenspaces of the class matrices over GF(ell)."""
    r = data.class_count
    spaces: list[np.ndarray] = [np.eye(r, dtype=np.int64)]

    def split_all() -> bool:
        return all(s.shape[1] == 1 for s in spaces)

    # one full pass leaves every space inside a common eigenspace intersection,
    # which is one-dimensional for a split semisimple class algebra; the second
    # pass is purely defensive
    for _ in range(2):
        if split_all():
            break
        for i in range(r):
            if split_all():
                break
            m = data.matrix(i)
            refined: list[np.ndarray] = []
            for basis in spaces:
                d = basis.shape[1]
                if d == 1:
                    refined.append(basis)
                    continue
                try:
                    action = modmat.solve_right(basis, (m @ basis) % ell, ell)
                except ValueError as exc:
                    raise EigensplitError(f"subspace not invariant under class matrix {i}: {exc}")
                eigs = modmat.eigenvalues(action, ell)
                if len(eigs) <= 1:
                    refined.append(basis)
                    continue
                total = 0
                for lam in eigs:
                    shifted = (action - lam * np.eye(d, dtype=np.int64)) % ell
                    kernel = modmat.nullspace(shifted, ell)
                    if kernel.shape[1] == 0:
                        raise EigensplitError(f"eigenvalue {lam} of class matrix {i} has empty kernel")
                    total += kernel.shape[1]
                    refined.append((basis @ kernel) % ell)
                if total != d:
                    raise EigensplitError(
                        f"class matrix {i} is not semisimple on a subspace: {total} != {d}"
                    )
            spaces = refined
    if not split_all():
        raise EigensplitError(f"refinement stalled with {len(spaces)} spaces for {r} classes")
    if len(spaces) != r:
        raise EigensplitError(f"found {len(spaces)} one-dimensional spaces, expected {r}")

    vectors = []
    for s in spaces:
        v = s[:, 0] % ell
        if v[0] == 0:
            raise EigensplitError("eigenvector vanishes at the identity class")
        vectors.append(v * modmat.inv_mod(int(v[0]), ell) % ell)
    return sorted(vectors, key=lambda v: tuple(int(x) for x in v))


def _degree_of_vector(
    omega: np.ndarray, classes: "ConjugacyClassSet", order: int, ell: int
) -> int:
    total = 0
    for j, cls in enumerate(classes.classes):
        jstar = classes.inverse_pairing[j]
        total = (total + int(omega[j]) * int(omega[jstar]) * modmat.inv_mod(cls.size, ell)) % ell
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
        if not is_prime(ell) or ell % data.exponent != (1 % data.exponent) or ell * ell <= 4 * group.order:
            raise ValueError(f"{ell} is not an admissible dixon prime for this group")
    vectors = _simultaneous_eigenvectors(data, ell)
    counts: dict[int, int] = {}
    for omega in vectors:
        d = _degree_of_vector(omega, classes, group.order, ell)
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
