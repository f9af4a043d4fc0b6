"""Exact irreducible character degrees via class-algebra eigensplitting.

The method works entirely over a prime field GF(l) where l = 1 (mod e) for
the group exponent e and l > 2*sqrt(|G|):

1. the class multiplication coefficients a[i][j][k] count the ways a fixed
   element of class k factors as x*y with x in class i and y in class j.
   Class i's coefficients are counted only when the split or the
   certificate first reads them, by one gather of |K_i| * r products, so
   the r * min(r^2, |G|) table is never built;
2. the r matrices M_i with (M_i)[j][k] = a[i][j][k] commute and are
   simultaneously diagonalizable over GF(l), so the identity splits into r
   primitive idempotents.  The class sums are visited generators' classes
   first (Dixon and Schneider split by a generator's class sum), then in
   class order, and one sparse action (the coordinates of x*K are x @ M, a
   gather of columns when |K| = 1) tells whether a class sum K acts as a
   scalar on every idempotent found so far.  If not, the Krylov chain 1, K,
   K^2, ... gives K's minimal polynomial, whose n distinct roots are its
   eigenvalues, and each idempotent e is replaced by the nonzero products
   e * E_lambda with the Lagrange idempotents E_lambda = prod over mu !=
   lambda of (K - mu) / (lambda - mu).  The identity's products are read off
   the chain itself, so a class sum with r distinct eigenvalues splits the
   whole algebra with one elimination and one r x r x r product, exact on
   float64 BLAS (``modmat.matmul``).  A class of one element z (|K| = 1, so
   z is central) needs neither: z permutes the class sums, z * K_j =
   K_pi(j), so the chain is the orbit of the identity class, n = o(z) unit
   vectors; the minimal polynomial is x^n - 1, whose roots are the powers of
   a primitive n-th root of unity zeta (n divides e, which divides l - 1);
   and E_{zeta^s} = n^-1 * sum_t zeta^(-ts) K^t is a row of the inverse DFT
   matrix.  So a generator of a cyclic group splits the whole algebra in
   O(r^2), and a later refinement by a central class sum multiplies by that
   matrix.  A primitive idempotent e gives the central character w_j = |K_j|
   * e_{j*} / e_0.  The split is deterministic: no random linear
   combinations.  Every array of residues mod l (the idempotent rows and
   their images, the chain powers and their echelon form, the Lagrange and
   inverse DFT matrices, the central characters) has the narrowest signed
   dtype that holds a product of two residues, ``modmat.residues(l)``:
   int16 for l <= 182, int32 for l <= 46341, else int64.  A product of two
   residues is reduced mod l before it meets a third value, and every sum of
   such products is accumulated in int64.
   When every class is one element (G is abelian) the split is not run:
   the central characters are written down from a normal form of G over
   the class sums.  The class sums are walked in the same order, each
   through its permutation pi, and z is used exactly when its class lies
   outside H, the subgroup the class sums used before it generate (the
   orbit of class 0 under their permutations).  That is the split's own
   rule: each idempotent found so far is e_psi = |H|^-1 * sum over h in H
   of psi(h^-1) h for a character psi of H, supported on H, so z acts on
   it as a scalar when z lies in H and moves it off H otherwise, and the
   classes used are the ones the split would use.  z_i's relative order
   m_i is the least m with z_i^m in H, and z_i^m_i = prod_{j<i}
   z_j^u_ij, so every class x is prod z_i^t_i(x) for one exponent vector
   t(x) with 0 <= t_i < m_i.  The characters are w_x = zeta^(a . t(x)),
   zeta a primitive e-th root of unity mod l, for the vectors a with m_i
   * a_i = sum_j u_ij * a_j (mod e).  m_i divides the order of z_i, which
   divides e, so relation i has a solution exactly when m_i divides its
   right side (which every character of H extending to <H, z_i> forces,
   and which is checked), and then exactly m_i of them, a_i = c / m_i + s
   * e / m_i: distinct characters, since GF(l) holds e distinct e-th roots
   of unity because e divides l - 1.  So the prod m_i = r vectors a give r
   distinct characters, which are certified and read on the normal form
   (steps 3 and 4) without being made: no row of them is held;
3. the vectors are certified on the set S of class sums the split used
   (those that split an idempotent): there are r of
   them with w_0 = 1, w_g * w_j = sum_k a[g][j][k] * w_k for every g in S and
   every j, and no two agree on all of S.  The set A of elements a with
   w(a * x) = w(a) * w(x) for all x is a subalgebra containing S, so each w
   is multiplicative on the algebra generated by S; r distinct
   homomorphisms there are linearly independent (Dedekind), so that algebra
   is the whole class algebra and every w is a central character.  The
   argument needs an associative table, which a table counted from a group
   is; the coefficients of every g in S are checked against the counting
   identities: every class j occurs, sum_j a[g][j][k] = |K_g| for every k,
   and a[g][j][0] = |K_g| exactly when j = g*.  For |K_g| = 1 these say the
   column is a permutation pi with pi(g*) = 0, and w_g * w_j = w_pi(j).
   The sums over k run in int64 on the narrow vectors.  The checks of each
   row are made a block of rows at a time, and the restrictions to S are
   gathered, r x |S|: two vectors that agree on all of S are neighbours
   once those are sorted.
   The closed form's rows w_a(x) = zeta^(a . t(x)) are certified without
   being made.  NF carries a vector v of digits from the top digit down:
   at digit j, q = v_j // m_j, v_j drops by q * m_j and q * u_j is added to
   the digits below it (only a digit that may overflow, and only where u_j
   is nonzero, costs anything).  That changes a . v by q * (u_j . a - m_j * a_j),
   a multiple of e when a solves relation j, so zeta^(a . v) = zeta^(a .
   NF(v)).  Then, over the r classes at once, with t(x) the digits of x's
   place: for every z_i used, the counting identities (pi_i permutes the
   classes and pi_i(z_i*) = 0), t(z_i) = e_i, and t(pi_i(x)) = NF(t(x) +
   e_i) for every x, so w_a(z_i) * w_a(x) = w_a(pi_i(x)), which is check
   (b) for every a at once; t(1) = 0, so w_a(1) = 1; there are r vectors a,
   distinct, with 0 <= a_i < e and m_i * a_i = u_i . a (mod e); and e
   divides l - 1.  As zeta has order e, distinct vectors give rows that
   differ at some z_i.  That is O(r * k) digits per class sum used, k of
   them, plus r for each nonzero u_ij a carry reaches, held as k x r int64
   arrays: no r x r array and no row is made;
4. chi(1)^2 * T = |G| mod l with T = sum_j w_j * w_{j*} / |K_j|, so the
   degree is the one d in 1..isqrt(|G|) with d^2 * T = |G| mod l, read once
   for each distinct T.  No two candidates match, because
   l > 2*sqrt(|G|) cannot divide (d1 - d2) * (d1 + d2), and T = 0 matches
   none, because l does not divide |G|; so "exactly one match" is the whole
   check.  T is summed a block of rows at a time, but not for the closed
   form: NF(t(x) + t(x*)) = 0 is checked for every x, so w_a(x) * w_a(x*) =
   1, and every one of its characters has T = r.

Both congruence constraints on l force l coprime to |G| (every prime of |G|
divides e), which is what makes the class algebra split.  Only the degrees
are kept; the character values are internal scaffolding and are discarded.

The degree step reads one ``ClassAlgebraData``: the columns, the class sizes
(which sum to |G|), the inverse classes, the generators' classes that set
the visiting order, and l, the least admissible prime.  A different prime or
visiting order is a different ``ClassAlgebraData`` (``dataclasses.replace``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from . import group as groups
from . import modmat
from .arith import is_prime, primes_of
from .group import Group, GroupTooLargeError

if TYPE_CHECKING:
    from .structure import ConjugacyClassSet

#: primes are searched up to this multiple of the group order.  For every
#: order n <= ENUMERATION_CAP some k <= 84 makes k * n + 1 an admissible prime
#: (the test suite sieves this), and the exponent divides n, so the search
#: never fails on a group that can be enumerated.  Every Dixon prime is thus
#: at most PRIME_SEARCH_FACTOR * ENUMERATION_CAP = 2 * 10**6: a product of two
#: residues is below 2^42, so it always fits the int64 that
#: ``modmat.residues`` falls back to (int16 or int32 hold it for ell <= 182 or
#: ell <= 46341); the sums of the chain, the sparse action, the certificate
#: and the degree readout (at most r <= 2 * 10**4 products each, below 2^57)
#: are accumulated in int64, where they cannot wrap; the root scan takes ell
#: cells; and ``modmat.matmul`` is exact for any ell below 2^26.5
PRIME_SEARCH_FACTOR = 100


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
    """Class multiplication coefficients, counted one class at a time when
    first read, plus the data needed to split them: the one input of the
    degree step."""

    #: class g -> its nonzero a[g][j][k] as codes k * r + j in ascending order,
    #: and their values: (M_g)[j][k] column by column
    source: Callable[[int], tuple[np.ndarray, np.ndarray]]
    #: the class sizes |K_j| and the inverse classes j*
    sizes: tuple[int, ...]
    star: tuple[int, ...]
    exponent: int
    dixon_prime: int
    #: the classes of the group's generators in generator order, each once
    #: and the identity class left out: the split tries these class sums first
    generator_classes: tuple[int, ...] = ()
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _permutations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def class_count(self) -> int:
        return len(self.sizes)

    @property
    def order(self) -> int:
        """|G|, the sum of the class sizes."""
        return sum(self.sizes)

    def column(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Class g's codes and values from ``source``, computed on the first read."""
        if g not in self._columns:
            self._columns[g] = self.source(g)
        return self._columns[g]

    def permutation(self, g: int) -> np.ndarray:
        """pi with z * K_j = K_pi(j) for a class g = {z} of one element, read off
        its column, one entry 1 at each (j, pi(j)), on the first call and kept
        in place of the column, which holds the same coefficients in twice
        the bytes."""
        if g not in self._permutations:
            r = self.class_count
            codes, values = self.column(g)
            del self._columns[g]
            k, j = np.divmod(codes, r)
            # the codes ascend, so one entry 1 per class k reads k = 0, 1, ..., r - 1, and j = pi^-1
            if len(codes) != r or (values != 1).any() or (k != np.arange(r)).any() or not np.bincount(j, minlength=r).all():
                raise EigensplitError(f"class sum {g} of one element does not permute the classes")
            self._permutations[g] = np.argsort(j)
        return self._permutations[g]

    @cached_property
    def coefficients(self) -> dict[tuple[int, int, int], int]:
        """The nonzero coefficients keyed by (i, j, k), built from every class's
        column when first read; the degree layer reads only the columns it needs."""
        r, out = self.class_count, {}
        for i in range(r):
            codes, values = self.column(i)
            k, j = np.divmod(codes, r)
            out.update(zip(zip([i] * len(codes), j.tolist(), k.tolist()), values.tolist()))
        return out

    def action(self, g: int, ell: int) -> Callable[[np.ndarray], np.ndarray]:
        """x -> x @ M_g mod ell on rows x reduced mod ell, in x's dtype: row t of
        the image is the coordinate row of x_t * K_g.  A class g = {z} of one
        element moves coordinate j to pi(j) (``permutation``), so a call
        gathers len(x) * r cells, with no sums.  Otherwise a call costs
        len(x) * nnz_g cells, a block of rows at a time; the products fit x's
        dtype ``modmat.residues(ell)`` and each sum of at most r of them is
        accumulated in int64."""
        if self.sizes[g] == 1:
            inverse = np.argsort(self.permutation(g))
            return lambda x: x.take(inverse, axis=1)
        codes, values = self.column(g)
        k, j = np.divmod(codes, self.class_count)
        ks, starts = np.unique(k, return_index=True)
        values = (values % ell).astype(modmat.residues(ell))

        def act(x: np.ndarray) -> np.ndarray:
            out = np.zeros_like(x)
            for block in groups.blocks(len(x), len(j)):
                out[block, ks] = modmat.reduce(np.add.reduceat(x[block, j] * values, starts, axis=1, dtype=np.int64), ell)
            return out

        return act

    def matrix(self, i: int) -> np.ndarray:
        codes, values = self.column(i)
        k, j = np.divmod(codes, self.class_count)
        m = np.zeros((self.class_count, self.class_count), dtype=np.int64)
        m[j, k] = values
        return m


def admissible_primes(order: int, exponent: int) -> Iterator[int]:
    """Primes l = 1 (mod exponent) with l^2 > 4*order, ascending, up to
    PRIME_SEARCH_FACTOR * order."""
    bound = PRIME_SEARCH_FACTOR * order
    candidate = exponent + 1
    found = False
    while candidate <= bound:
        if candidate * candidate > 4 * order and is_prime(candidate):
            found = True
            yield candidate
        candidate += exponent
    if not found:
        raise DixonPrimeSearchError(
            f"no prime l = 1 (mod {exponent}) with l > 2*sqrt({order}) below {bound}"
        )


def least_admissible_prime(order: int, exponent: int) -> int:
    return next(admissible_primes(order, exponent))


def _check_degree_budget(sizes: np.ndarray, ell: int, generators: int) -> None:
    """Raise GroupTooLargeError when the arrays the degree layer holds at
    once would outgrow the table budget.

    Its residues mod ell are held in ``modmat.residues(ell)``, of itemsize
    s.  When every class is one element no residue array is made: the
    closed form holds (48 k + 200) bytes a class, for k <= min(log2 r,
    ``generators``) the class sums used (each at least doubles H, and the
    generators' classes, which come first, generate G).  That is six int64
    cells of each class for each class sum used: its permutation, kept, the
    characters' exponent vectors, the digits of the places and a shifted
    copy of them, and two more copies of the vectors while a relation is
    solved or the vectors are sorted; and 200 bytes: the walk's lists of
    places, members and two permutations (8 bytes a slot and 32 for an int
    object), and a few int64 arrays of r entries (the places, their gathers
    and a carry's quotient).
    Otherwise at most the larger of two sets of arrays coexist: six r x r
    residue arrays (the Krylov powers and the elimination of ``_lagrange``
    with its temporaries), or three of them plus int64 and float64
    transients of r^2 + 3 r * r / PANELS cells: the chain's int64 copy of
    the echelon rows it reduces a power against, or the first split's
    ``modmat.matmul`` with a float64 copy of the r x r left factor and
    three panels of r x r / PANELS cells (a float64 copy of the right
    factor's panel, the product, its int64 copy).  Every other step is
    blocked, and its int64 sums and float64 panels take at most three
    arrays of min(r^2, BLOCK_CELLS) 8-byte cells beyond the r x r arrays; a
    refinement chains only the rows its class sum does not act on as a
    scalar.  Counting the largest class's column takes 18 bytes per cell of
    its |K_g| * r products (its intp index, then the int64 codes and
    np.unique's sorted copy).  tracemalloc puts the whole peak at 0.10 MB
    on C2^8 (k = 8), 0.07 MB on C3^5 (k = 5), 0.04 MB on C400 (k = 1), 2.1
    MB on C2^12 (k = 12) and 2.3 MB on C3^8 (k = 8), 0.07 MB on S5 x S4
    (int16), 0.51 MB on D200 (int32), 30 MB on D2000 (int32) and 57 MB on
    D8^3 x C2^4 (int16); the count is 1.35 to 2.8 times these.  Below a few kilobytes fixed Python
    overhead is not counted: S6 (r = 11) peaks at 37 KB against 34 KB
    counted.  The columns kept for the class sums the split visits, each of
    at most min(r^2, |K_g| * r) cells, are not counted for a group with a
    class of several elements: on every group measured it visits at most
    one class sum beyond those it uses."""
    r, largest = len(sizes), int(np.max(sizes))
    s = np.dtype(modmat.residues(ell)).itemsize
    if largest == 1:
        held = (48 * min(generators, r.bit_length() - 1) + 200) * r
    else:
        block = min(r * r, groups.BLOCK_CELLS)
        held = max(6 * s * r * r, 3 * s * r * r + 8 * (r * r + 3 * r * -(-r // modmat.PANELS))) + 24 * block
    size = held + 18 * largest * r
    if size > groups.TABLE_MAX_BYTES:
        raise GroupTooLargeError(
            f"group too large: the class algebra arrays of {r} classes needs {size} bytes, "
            f"above the table budget of {groups.TABLE_MAX_BYTES}"
        )


def class_algebra(group: Group, classes: "ConjugacyClassSet") -> ClassAlgebraData:
    """The class algebra's coefficients, counted one class at a time when the
    split first reads them, plus exponent and dixon prime.

    a[g][j][k] counts the x in class g with x^-1 * z_k in class j, z_k the
    representative of class k: class g's column is one gather of |K_g| * r
    cells, counted by (k, j).  Raises GroupTooLargeError, before anything is
    allocated, when the degree layer would exceed the table budget.
    """
    r, sizes = len(classes), classes.sizes
    exponent = int(np.lcm.reduce(group.element_orders))
    ell = least_admissible_prime(group.order, exponent)
    class_of, representatives = classes.class_index, classes.representatives
    generator_classes = dict.fromkeys(class_of[group.generator_indices].tolist())
    generator_classes.pop(0, None)
    _check_degree_budget(sizes, ell, len(generator_classes))
    offsets = np.arange(r) * r

    def column(g: int) -> tuple[np.ndarray, np.ndarray]:
        inverses = group.inverses[classes.members(g)]
        return np.unique(class_of[group.mul(inverses[:, None], representatives)] + offsets, return_counts=True)

    return ClassAlgebraData(column, tuple(sizes.tolist()), classes.inverse_pairing, exponent, ell, tuple(generator_classes))


def _simultaneous_eigenvectors(data: ClassAlgebraData, ell: int) -> tuple[np.ndarray, list[int]]:
    """Central-character vectors over GF(ell) as the rows of an array, in no
    particular order, from the primitive idempotents of the class algebra
    (see ``_idempotents``), and the class sums that split one.  A primitive
    idempotent e gives w_j = |K_j| * e_{j*} / e_0."""
    rows, used = _idempotents(data, ell)
    if not rows[:, 0].all():
        raise EigensplitError("idempotent vanishes at the identity class")
    # e_0 = chi(1)^2 / |G| takes one value per degree
    distinct, which = np.unique(rows[:, 0], return_inverse=True)
    dtype = modmat.residues(ell)
    inverse = np.array([modmat.inv_mod(e, ell) for e in distinct.tolist()], dtype=dtype)[which]
    sizes = (np.array(data.sizes, dtype=np.int64) % ell).astype(dtype)
    # take, not rows[:, star], keeps the rows C-contiguous for the certificate's row blocks
    return modmat.reduce(modmat.reduce(rows.take(data.star, axis=1) * sizes, ell) * inverse[:, None], ell), used


def _identity_chain(act: Callable, r: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Krylov chain 1, K, K^2, ... of the class sum K whose action is ``act``.

    Returns the independent powers as rows (their number is the number of
    distinct eigenvalues of K) and the first power that depends on them.
    Each power is reduced against the earlier ones, kept in reduced echelon
    form: only against the echelon rows at its nonzero pivot coordinates,
    and the new pivot column is cleared only in the rows with an entry
    there.  The split reads the chain of a class sum of one element from
    ``_central_orbit`` instead.
    """
    dtype = modmat.residues(ell)
    echelon = np.zeros((r, r), dtype=dtype)
    pivots = np.zeros(r, dtype=np.intp)
    powers = []
    x = np.zeros(r, dtype=dtype)
    x[0] = 1
    while True:
        k = len(powers)
        coordinates = x[pivots[:k]]
        at = coordinates.nonzero()[0]
        rest = x
        if len(at):
            # a sum of up to r products, in int64
            rest = modmat.reduce(x - np.matmul(coordinates[at], echelon[at], dtype=np.int64), ell).astype(dtype)
        nz = rest.nonzero()[0]
        if len(nz) == 0:
            return np.array(powers, dtype=dtype).reshape(-1, r), x
        c = int(nz[0])
        rest = rest * modmat.inv_mod(int(rest[c]), ell) % ell
        hit = echelon[:k, c].nonzero()[0]
        if len(hit):
            echelon[hit] = modmat.reduce(echelon[hit] - modmat.reduce(np.outer(echelon[hit, c], rest), ell), ell)
        echelon[k] = rest
        pivots[k] = c
        powers.append(x)
        x = act(x[None])[0]


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
    dtype = modmat.residues(ell)
    lam = np.array(roots, dtype=dtype)
    quotients = np.zeros((n, n), dtype=dtype)
    quotients[n - 1] = 1
    for t in range(n - 1, 0, -1):
        quotients[t - 1] = (f[t] + lam * quotients[t] % ell) % ell
    derivative = np.zeros(n, dtype=dtype)
    for t in range(n - 1, -1, -1):
        derivative = (derivative * lam % ell + quotients[t]) % ell
    scale = np.array([modmat.inv_mod(int(d), ell) for d in derivative], dtype=dtype)
    return quotients * scale % ell


def _central_orbit(data: ClassAlgebraData, g: int) -> np.ndarray:
    """The identity chain of a class sum K = z of one central element z, as
    the classes of 1, z, z^2, ...: the orbit of class 0 under the permutation
    pi of ``ClassAlgebraData.permutation``, whose length n is the order of z."""
    pi = data.permutation(g).tolist()
    orbit, c = [0], pi[0]
    while c:
        orbit.append(c)
        c = pi[c]
    return np.array(orbit, dtype=np.intp)


def _inverse_dft(n: int, ell: int) -> np.ndarray:
    """L with E_lambda = sum_t L[t, lambda] K^t, the Lagrange idempotents of a
    class sum K with minimal polynomial x^n - 1 (see ``_lagrange``).

    Its roots are the powers of a primitive n-th root of unity zeta, which
    GF(ell) has exactly when n divides ell - 1, and E_{zeta^s} = n^-1 * sum_t
    zeta^(-ts) K^t: L is the inverse DFT matrix, one gather from the n powers
    of zeta.
    """
    if (ell - 1) % n:
        raise EigensplitError(
            f"minimal polynomial x^{n} - 1 of a class sum has {math.gcd(n, ell - 1)} distinct roots in GF({ell})"
        )
    scaled = _roots_of_unity(n, ell) * modmat.inv_mod(n, ell) % ell
    t = np.arange(n)
    out = np.empty((n, n), dtype=scaled.dtype)
    for block in groups.blocks(n, n):
        out[block] = scaled[-t[block, None] * t % n]
    return out


def _roots_of_unity(n: int, ell: int) -> np.ndarray:
    """zeta^0, zeta^1, ..., zeta^(n - 1) mod ell in ``modmat.residues(ell)``,
    for a primitive n-th root of unity zeta; n must divide ell - 1."""
    primes = primes_of(n)
    # a^((ell - 1) / n) has order n for a primitive root a, so the search ends
    zeta = next(
        z
        for z in (pow(a, (ell - 1) // n, ell) for a in range(2, ell))
        if all(pow(z, n // q, ell) != 1 for q in primes)
    )
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * zeta % ell)
    return np.array(powers, dtype=modmat.residues(ell))


def _idempotents(data: ClassAlgebraData, ell: int) -> tuple[np.ndarray, list[int]]:
    """The primitive idempotents of the class algebra over GF(ell), and the
    class sums that split one, visited generators' classes first, then in
    class order.

    ``rows`` holds orthogonal idempotents summing to 1, as coordinate rows
    over the class sums, starting from the identity.  One action tells
    whether a class sum K acts on every row as a scalar, e * K = lambda * e;
    such a class sum splits nothing and is skipped.  Otherwise K replaces
    each row e it does not act on as a scalar by the nonzero rows e *
    E_lambda over its Lagrange idempotents (a row it acts on as lambda is
    its own only nonzero product), in closed form when K is one central element
    (``_central_orbit``, ``_inverse_dft``); while the only row is the
    identity, its chain e, e * K, ... is K's identity chain and is not
    acted out again.  Afterwards e * K = lambda * e, so once every class
    sum is used each row spans a one-dimensional ideal: one pass suffices,
    and it stops at r rows.
    """
    r, first = data.class_count, data.generator_classes
    tried = set(first)
    dtype = modmat.residues(ell)
    rows = np.zeros((1, r), dtype=dtype)
    rows[0, 0] = 1
    used = []
    for g in [*first, *(g for g in range(1, r) if g not in tried)]:
        if len(rows) >= r:
            break
        act = data.action(g, ell)
        image = act(rows)
        scalar = _eigenvector_rows(rows, image, ell)
        if scalar.all():
            continue
        if data.sizes[g] == 1:
            orbit = _central_orbit(data, g)
            n = len(orbit)
            lagrange = _inverse_dft(n, ell)
            if not used:
                rows = np.zeros((n, r), dtype=dtype)
                rows[:, orbit] = lagrange.T
        else:
            powers, dependent = _identity_chain(act, r, ell)
            n = len(powers)
            lagrange = _lagrange(powers, dependent, ell)
            if not used:
                rows = modmat.matmul(lagrange.T, powers, ell)
        if used:
            # a row K acts on as a scalar is its own only nonzero product
            refined, split, image = [rows[scalar]], rows[~scalar], image[~scalar]
            for block in groups.blocks(len(split), n * r):
                chain = [split[block], image[block]]
                for _ in range(n - 2):
                    chain.append(act(chain[-1]))
                products = modmat.matmul(lagrange.T, np.stack(chain).reshape(n, -1), ell).reshape(-1, r)
                refined.append(products[products.any(axis=1)])
            rows = np.concatenate(refined)
        used.append(g)
    if len(rows) < r:
        raise EigensplitError(f"refinement stalled with {len(rows)} idempotents for {r} classes")
    if len(rows) != r:
        raise EigensplitError(f"found {len(rows)} primitive idempotents, expected {r}")
    return rows, used


def _eigenvector_rows(rows: np.ndarray, image: np.ndarray, ell: int) -> np.ndarray:
    """Whether each image row is a multiple of its row: y = lambda * e iff
    y_j * e_p = y_p * e_j for all j, at a coordinate p where e_p != 0."""
    at = np.arange(len(rows))
    p = (rows != 0).argmax(axis=1)
    return (modmat.reduce(image * rows[at, p][:, None], ell) == modmat.reduce(rows * image[at, p][:, None], ell)).all(axis=1)


def _abelian_characters(data: ClassAlgebraData, ell: int) -> tuple[np.ndarray, list[int]]:
    """The exponent vectors a of the central characters w_a(x) = zeta^(a .
    t(x)) of a class algebra whose classes are all one element (step 2
    above), one row each, certified on the normal form (step 3), and the
    class sums used, in the split's visiting order.  The vectors are solved
    one relation at a time, r x |used| in all."""
    e = data.exponent
    normal_form = _normal_form(data)
    _, orders, relations, used = normal_form
    characters = np.zeros((1, 0), dtype=np.int64)
    for i, (m, g) in enumerate(zip(orders.tolist(), used)):
        c = characters @ relations[i, :i] % e
        if e % m or (c % m).any():
            raise EigensplitError(f"the relation of class sum {g}, of relative order {m}, has no {m} solutions mod {e}")
        solutions = (c // m)[:, None] + np.arange(m) * (e // m)
        characters = np.concatenate([np.repeat(characters, m, axis=0), solutions.reshape(-1, 1)], axis=1)
    _certify_normal_form(data, normal_form, characters, ell)
    return characters, used


def _normal_form(data: ClassAlgebraData) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Walk the class sums of a class algebra whose classes are all one
    element through their permutations (step 2 above): each class's place,
    the relative orders m_i, the relations u_i as the rows of a strictly
    lower triangular matrix, and the class sums used.

    The walk places the classes of H in the order they join it: z_i^s * h,
    the class pi^s(h), follows all of z_i^(s-1) * H, so a class's place has
    the mixed-radix digits t(x), t_i the most significant when z_i joins.
    """
    r, first = data.class_count, data.generator_classes
    tried = set(first)
    place, members = [-1] * r, [0]
    place[0] = 0
    orders, relations, used = [], [], []
    for g in itertools.chain(first, (g for g in range(1, r) if g not in tried)):
        if len(members) >= r:
            break
        if place[g] >= 0:
            continue
        pi = data.permutation(g).tolist()
        m, c = 1, pi[0]
        while place[c] < 0:
            m, c = m + 1, pi[c]
        # z^m lies in H: its exponents are the digits of its place
        p, digits = place[c], []
        for radix in orders:
            p, t = divmod(p, radix)
            digits.append(t)
        relations.append(digits)
        # the place n + i holds z times the class at place i
        for i in range((m - 1) * len(members)):
            x = pi[members[i]]
            if place[x] >= 0:
                raise EigensplitError(f"class sum {g} of one element does not permute the cosets of the class sums before it")
            place[x] = len(members)
            members.append(x)
        orders.append(m)
        used.append(g)
    if len(members) < r:
        raise EigensplitError(f"refinement stalled with {len(members)} idempotents for {r} classes")
    u = np.zeros((len(orders), len(orders)), dtype=np.int64)
    for i, digits in enumerate(relations):
        u[i, :i] = digits
    return np.array(place, dtype=np.intp), np.array(orders, dtype=np.int64), u, used


def _carry(v: np.ndarray, orders: np.ndarray, relations: np.ndarray, overflowing: Iterable[int]) -> np.ndarray:
    """NF of each column of v, one row of digits per class sum used, in
    place (step 3 above), when only the digits ``overflowing`` may lie
    outside 0..m_j - 1: from the top down, such a digit keeps its remainder
    by m_j, and its quotient q adds q * u_j to the digits below, where u_j
    is nonzero, which may then overflow in turn."""
    overflowing = set(overflowing)
    for j in range(max(overflowing, default=-1), -1, -1):
        if j in overflowing:
            q, v[j] = np.divmod(v[j], orders[j])
            for i in np.flatnonzero(relations[j]).tolist():
                v[i] += q * relations[j, i]
                overflowing.add(i)
    return v


def _certify_normal_form(data: ClassAlgebraData, normal_form: tuple, characters: np.ndarray, ell: int) -> None:
    """Raise unless the rows zeta^(a . t(x)), for the exponent vectors a in
    ``characters`` and the digits t(x) of each class's place in
    ``normal_form`` (see ``_normal_form``), are the r central characters,
    checked on the class sums used without making a row (see step 3
    above): k x r digits at a time, for the k class sums used."""
    place, orders, relations, used = normal_form
    r, e, k = data.class_count, data.exponent, len(orders)
    if (ell - 1) % e:
        raise EigensplitError(f"GF({ell}) holds no root of unity of order {e}")
    if place[0] != 0:
        raise EigensplitError("a split vector is not 1 at the identity class")
    if len(characters) != r:
        raise EigensplitError(f"found {len(characters)} vectors, expected {r}")
    for i, g in enumerate(used):
        a = characters[:, i]
        if (a < 0).any() or (a >= e).any() or ((a * orders[i] - characters[:, :i] @ relations[i, :i]) % e).any():
            raise EigensplitError(f"a character's exponents are not residues mod {e} that solve the relation of class sum {g}")
    if r > 1 and _has_equal_rows(characters):
        raise EigensplitError("two split vectors agree on every class sum used")
    strides = np.cumprod([1, *orders.tolist()])
    for i, g in enumerate(used):
        if data.permutation(g)[data.star[g]] != 0:
            raise EigensplitError(f"coefficients of class sum {g}: a[g][j][0] is not |K_g| exactly at j = g*")
        if place[g] != strides[i]:
            raise EigensplitError(f"class sum {g} is not the generator of digit {i} of the normal form")
    digits = place // strides[:k, None] % orders[:, None]
    products = digits.take(data.star, axis=1)
    products += digits
    if _carry(products, orders, relations, range(k)).any():
        raise EigensplitError("a class and its inverse class do not multiply to 1 in the normal form")
    del products
    for i, g in enumerate(used):
        # adding e_i changes no digit above i
        step = digits[: i + 1].copy()
        step[i] += 1
        moved = strides[: i + 1] @ _carry(step, orders, relations, [i]) + place // strides[i + 1] * strides[i + 1]
        if not np.array_equal(moved, place.take(data.permutation(g))):
            raise EigensplitError(f"class sum {g} does not add 1 to digit {i} of the normal form")


def _certify(data: ClassAlgebraData, rows: np.ndarray, used: list[int], ell: int) -> None:
    """Raise unless ``rows`` are the r central characters of the class
    algebra, checked on the class sums ``used`` (see step 3 above).

    First class g's column, for every g in ``used``, is checked against the
    counting identities, in O(nnz_g): every class j occurs, sum_j
    a[g][j][k] = |K_g| for every k, and a[g][j][0] = |K_g| exactly when j =
    g*.  Then, a block of rows at a time, every row has w_0 = 1 and, for
    every g in ``used`` and every j, sum_k a[g][j][k] * w_k = w_g * w_j, at
    nnz_g cells a row.  For |K_g| = 1 the identities are that the column is
    a permutation pi with pi(g*) = 0, and the sums gather w_pi(j).  Last:
    there are r rows, and no two agree on every class in ``used``.
    """
    r = data.class_count
    images = [_transposed_action(data, g, ell) for g in used]
    for block in groups.blocks(len(rows), r):
        w = rows[block]
        if not (w[:, 0] == 1).all():
            raise EigensplitError("a split vector is not 1 at the identity class")
        for g, image in zip(used, images):
            if not np.array_equal(image(w), modmat.reduce(w[:, g : g + 1] * w, ell)):
                raise EigensplitError(f"a split vector is not a central character on class sum {g}")
    if len(rows) != r:
        raise EigensplitError(f"found {len(rows)} vectors, expected {r}")
    if r > 1 and (not used or _has_equal_rows(rows[:, used])):
        raise EigensplitError("two split vectors agree on every class sum used")


def _transposed_action(data: ClassAlgebraData, g: int, ell: int) -> Callable[[np.ndarray], np.ndarray]:
    """Check class g's column against the counting identities (see
    ``_certify``) and return w -> M_g w mod ell on rows w: the entry j of a
    row's image is sum_k a[g][j][k] * w_k."""
    r, size, star = data.class_count, data.sizes[g], data.star[g]
    if size == 1:
        # r unit entries meet the counting identities exactly when they permute the classes with pi(g*) = 0
        pi = data.permutation(g)
        if pi[star] != 0:
            raise EigensplitError(f"coefficients of class sum {g}: a[g][j][0] is not |K_g| exactly at j = g*")
        return lambda w: w.take(pi, axis=1)
    codes, values = data.column(g)
    k, j = np.divmod(codes, r)
    covered = np.count_nonzero(np.bincount(j, minlength=r))
    if covered != r:
        raise EigensplitError(f"coefficients of class sum {g} cover {covered} classes j, expected {r}")
    ks, starts = np.unique(k, return_index=True)
    if len(ks) != r or (np.add.reduceat(values, starts) != size).any():
        raise EigensplitError(f"coefficients of class sum {g}: some sum over j of a[g][j][k] differs from |K_g|")
    if not np.array_equal(j[k == 0], [star]) or values[0] != size:
        raise EigensplitError(f"coefficients of class sum {g}: a[g][j][0] is not |K_g| exactly at j = g*")
    by_row = np.argsort(j, kind="stable")
    ks, coefficients = k[by_row], (values[by_row] % ell).astype(modmat.residues(ell))
    # every class j occurs, so the regrouped entries hold the r rows j of M_g in order
    rows = np.searchsorted(j[by_row], np.arange(r))

    def image(w: np.ndarray) -> np.ndarray:
        out = np.empty(w.shape, dtype=np.int64)
        for block in groups.blocks(len(w), len(codes)):
            # each sum of at most r products runs in int64
            out[block] = modmat.reduce(np.add.reduceat(w[block][:, ks] * coefficients, rows, axis=1, dtype=np.int64), ell)
        return out

    return image


def _has_equal_rows(keys: np.ndarray) -> bool:
    """Whether two rows of ``keys`` (at least one column) are equal: they are
    neighbours once the rows are sorted."""
    ordered = keys[np.lexsort(keys.T)]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


def _inner_products(data: ClassAlgebraData, rows: np.ndarray, ell: int) -> np.ndarray:
    """T = sum_j w_j * w_{j*} / |K_j| mod ell for each central character w,
    a row of ``rows`` (step 4 above), a block of rows at a time."""
    star = np.array(data.star)
    distinct, which = np.unique(data.sizes, return_inverse=True)
    inverse_sizes = np.array([modmat.inv_mod(n, ell) for n in distinct.tolist()], dtype=modmat.residues(ell))[which]
    t = np.empty(len(rows), dtype=np.int64)
    for block in groups.blocks(len(rows), len(star)):
        w = rows[block]
        # each product is reduced in the residue dtype, and each row's r terms below ell are summed in int64
        t[block] = modmat.reduce(modmat.reduce(w * w.take(star, axis=1), ell) * inverse_sizes, ell).sum(axis=1, dtype=np.int64)
    return modmat.reduce(t, ell)


def _degree_frequency(order: int, t: np.ndarray, ell: int) -> DegreeFrequency:
    """The degrees of the central characters whose T values mod ell (step 4
    above) are ``t``: for each distinct T, the one d <= isqrt(|G|) with d^2 *
    T = |G| mod ell.  Distinct T give distinct degrees."""
    values, counts = np.unique(t, return_counts=True)
    d = np.arange(1, math.isqrt(order) + 1, dtype=np.int64)
    # d^2 <= order and T < ell, so the product stays far below 2^63
    match = d * d * values[:, None] % ell == order % ell
    if not (match.sum(axis=1) == 1).all():
        raise EigensplitError(f"a central character has no single degree d <= {len(d)} with d^2 * T = {order} mod {ell}")
    degrees = d[match.argmax(axis=1)]
    by_degree = np.argsort(degrees)
    return DegreeFrequency(tuple(zip(degrees[by_degree].tolist(), counts[by_degree].tolist())))


def degrees_from_class_algebra(data: ClassAlgebraData) -> DegreeFrequency:
    """Split modulo ``data.dixon_prime`` and certify the central
    characters, on the normal form when every class is one element, then
    read their degrees."""
    ell, r = data.dixon_prime, data.class_count
    if set(data.sizes) == {1}:
        characters, _ = _abelian_characters(data, ell)
        # every character certified on the normal form has T = r (step 4 above)
        t = np.full(len(characters), r % ell)
    else:
        rows, used = _simultaneous_eigenvectors(data, ell)
        _certify(data, rows, used, ell)
        t = _inner_products(data, rows, ell)
    freq = _degree_frequency(data.order, t, ell)
    _check_consistency(data, freq)
    return freq


def _check_consistency(data: ClassAlgebraData, freq: DegreeFrequency) -> None:
    order, class_count = data.order, data.class_count
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


def character_degrees(group: Group) -> DegreeFrequency:
    """The character degree frequency of the group, split modulo the least
    admissible prime; any admissible prime yields the identical frequency,
    which the tests check on a ``dataclasses.replace`` of the data."""
    from .structure import conjugacy_classes

    return degrees_from_class_algebra(class_algebra(group, conjugacy_classes(group)))
