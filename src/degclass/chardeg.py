"""Exact irreducible character degrees via class-algebra eigensplitting.

The method works entirely over a prime field GF(l) where l = 1 (mod e) for
the group exponent e and l > 2*sqrt(|G|):

1. the class multiplication coefficients a[i][j][k] count the ways a fixed
   element of class k factors as x*y with x in class i and y in class j.
   Class i's coefficients are counted only when the split or the
   certificate first reads them, by one gather of |K_i| * r products, so
   the r * min(r^2, |G|) table is never built;
2. the class algebra is split one character of its centre at a time
   (Isaacs, ch. 2).  The classes of one element form Z = Z(G), and z * K_j
   = K_pi(j) for a permutation pi read off z's column.  They are walked
   generators' classes first, then in class order: z is used exactly when
   it lies outside the subgroup H the ones used before it generate, its
   relative order m_i is the least m with z^m in H, and z_i^m_i = prod_{j<i}
   z_j^u_ij.  So every z in Z is prod z_i^t_i for one vector of digits t, 0
   <= t_i < m_i, and the characters of Z are lambda_a(z) = zeta^(a . t),
   zeta a primitive e-th root of unity mod l, for the vectors a with m_i *
   a_i = u_i . a (mod e): relation i has m_i solutions when m_i divides its
   right side (checked), so |Z| in all.  The same walk from the least class
   c_o of each Z-orbit o places each class j of o at digits t(j), j =
   z^t(j) * c_o, in the normal form of Z over the stabiliser of c_o, and
   lambda_a is trivial on that stabiliser exactly when a solves its
   relations.  e_lambda = |Z|^-1 sum_z lambda(z^-1) z cuts the class algebra
   into blocks e_lambda * Z(FG) with basis b_o = e_lambda * K_c_o over the
   orbits o whose stabiliser lambda is trivial on, since e_lambda *
   K_(z*c_o) = lambda(z) * b_o, which is 0 when z * c_o = c_o and lambda(z)
   != 1; there are r_lambda of them, the characters over lambda, and sum
   r_lambda = r.  A block of Z's orbit alone is lambda on Z and 0 elsewhere
   (every block, when Z = G).  A class sum K_g of several elements acts on
   a block by (F_g)[o][o'] = sum over k in o' of a[g][c_o][k] *
   lambda(z_k), its column read at the representatives and folded, so the
   class sums of one orbit act as multiples of one another, and one of one
   element as the scalar lambda(z): one class sum of each other orbit is
   visited.  The other blocks are split in turns, the pending ones of the
   same orbits as one direct sum within one block of cells.  The split: the
   matrices commute and are simultaneously diagonalizable, so the identity
   splits into primitive idempotents.  One sparse action (x @ M) tells
   whether a class sum K acts as a scalar on every idempotent found so far.
   If not, the Krylov chain 1, K, K^2, ... gives K's minimal polynomial,
   whose n distinct roots are its eigenvalues, and each idempotent e is
   replaced by the nonzero products e * E_mu with the Lagrange idempotents
   E_mu = prod over nu != mu of (K - nu) / (mu - nu), read off the chain
   itself for the identity, whose products are cut into the blocks.  The
   split is deterministic: no random linear combinations.  A primitive
   idempotent y of a block gives the central character at the
   representatives, w(c_o) = |K_c_o| * |Z| / |o| * lambda(z)^-1 * y_o' /
   y_0 for (c_o)* = z * c_o'; elsewhere w(z * c_o) = lambda(z) * w(c_o), and
   w is 0 off the block.  Every array of residues mod l has the narrowest
   signed dtype that holds a product of two residues,
   ``modmat.residues(l)``: int16 for l <= 182, int32 for l <= 46341, else
   int64; a product is reduced mod l before it meets a third value, and
   every sum of such products is accumulated in int64;
3. the vectors are certified on the class sums z_i of one element used and
   the set S of class sums that split a block: w_0 = 1, w_g * w_j = sum_k
   a[g][j][k] * w_k for every g used and every j, and the vectors over one
   lambda differ on S.  For z_i, with NF carrying digits from the top down
   (a digit v_j >= m_j drops by q * m_j and adds q * u_j below it, which
   changes a . v by a multiple of e when a solves relation j): pi_i(z_i*) =
   0, t(z_i) = e_i, and for every class x, pi_i keeps x's orbit and
   t(pi_i(x)) = NF(t(x) + e_i) in its orbit's normal form, so w_(pi_i(x)) =
   lambda(z_i) * w_x; each orbit's representative is at place 0 and the
   orbit has as many classes as places, so the class at digits t is z^t *
   c_o; each a lies in 0..e - 1 and solves Z's relations, the |Z| vectors a
   differ, and e divides l - 1, so they are the characters of Z; each
   lambda has a vector for each orbit whose relations a solves, 0 off
   them.  For g in S, folded again from its checked column, the equation is
   checked at the representatives only, (F_g w)_o = w_g * w_o.  The set A
   of elements x with w(x * y) = w(x) * w(y) for all y is a subalgebra
   holding every z_i, hence Z, and w(K_g * K_(z*c_o)) = w(z * K_g * K_c_o)
   = w_g * w(z * c_o), so the equation holds at every class of o; at a
   class of an orbit off the block it reads 0 = 0, since some s with s *
   c_o = c_o and lambda(s) != 1 gives w(K_g * K_c_o) = lambda(s) * w(K_g *
   K_c_o).  So A holds Z and S, and w(e_lambda) = 1: the vectors over
   lambda, distinct homomorphisms on the algebra C they generate, are
   linearly independent on e_lambda * C, which is then all of the block
   (dimension r_lambda), so w(x * y) = w(e_lambda * x * e_lambda * y) =
   w(x) * w(y): every w is a central character.  The argument needs an
   associative table, which a table counted from a group is; each column
   read is checked against the counting identities: every class j occurs,
   sum_j a[g][j][k] = |K_g| for every k, and a[g][j][0] = |K_g| exactly
   when j = g*, which for |K_g| = 1 says it is a permutation with pi(g*) = 0;
4. chi(1)^2 * T = |G| mod l with T = sum_j w_j * w_{j*} / |K_j|, so the
   degree is the one d in 1..isqrt(|G|) with d^2 = |G| / T mod l, read once
   for each distinct T: no two d have one square, because l > 2*sqrt(|G|)
   cannot divide (d1 - d2) * (d1 + d2), and T = 0 matches none, because l
   does not divide |G|.  T is summed orbit by orbit: NF(t(j) + t(j*)) =
   t((c_o)*) for every class j of o, so w_j * w_(j*) = lambda(z) * w(c_o) *
   w(c_o') for (c_o)* = z * c_o', and T = |Z| for a lambda alone in Z's orbit.

Both congruence constraints on l force l coprime to |G| (every prime of |G|
divides e), which is what makes the class algebra split.  Only the degrees
are kept; the character values are internal scaffolding and are discarded.

The degree step reads one ``ClassAlgebraData``: the columns, the class sizes
(which sum to |G|), the inverse classes, the generators' classes that set
the visiting order, and l, the least admissible prime.  A different prime or
visiting order is a different ``ClassAlgebraData`` (``dataclasses.replace``).
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

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
            if len(codes) != r or np.count_nonzero(values != 1) or np.count_nonzero(k != np.arange(r)) or np.count_nonzero(np.bincount(j, minlength=r)) != r:
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

    @cached_property
    def centre(self) -> "_Centre":
        """The orbits of the centre on the classes and their normal forms,
        walked on the first read (``_walk_centre``)."""
        return _walk_centre(self)

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


def _check_degree_budget(sizes: tuple[int, ...], ell: int, k: int, orbits: int) -> None:
    """Raise GroupTooLargeError when the arrays the degree layer holds at
    once would outgrow the table budget, for k class sums of one element
    used (k <= log2 |Z|) and b Z-orbits (``orbits``), the largest block.

    Residues take s bytes.  The centre's walk and normal forms hold (64 k +
    200) bytes a class.  With several orbits, a split's direct sum of d =
    max(b, min(r, isqrt(BLOCK_CELLS))) coordinates holds the larger of six d
    x d residue arrays (the Krylov powers and their elimination) and three
    plus the transients of d^2 + 3 d * d / PANELS 8-byte cells
    (``modmat.matmul``), besides three blocked arrays of min(d^2,
    BLOCK_CELLS) 8-byte cells, and two folded columns of |Z| x min(b^2, |K|
    * b) int64 cells; the vectors, at most b * r residues, are held with a
    copy; counting the largest class's column takes 18 bytes per cell of its
    |K| * r products.  The columns kept for the class sums visited are not
    counted.  tracemalloc puts the peak at 0.16 MB on C2^8, 0.11 MB on C3^5,
    0.07 MB on C400, 3.7 MB on C2^12, 4.0 MB on C3^8, 0.13 MB on S5 x S4,
    0.38 MB on D200, 21 MB on D2000, 0.07 MB on D8 x C9, 0.58 MB on D8 x
    C2^5 and 3.9 MB on D8^3 x C2^4, 1.1 to 2.3 times below the count; S6
    (r = 11) peaks at 45 KB against 38 KB, fixed overhead the count leaves
    out (``BENCH_27.json``)."""
    r, largest, b, s = len(sizes), max(sizes), orbits, np.dtype(modmat.residues(ell)).itemsize
    # a split runs only with several orbits
    d = max(b, min(r, math.isqrt(groups.BLOCK_CELLS))) if b > 1 else 0
    split = max(6 * s * d * d, 3 * s * d * d + 8 * (d * d + 3 * d * -(-d // modmat.PANELS))) + 24 * min(d * d, groups.BLOCK_CELLS)
    folds = 16 * sizes.count(1) * min(b * b, largest * b) if b > 1 else 0
    size = (64 * k + 200) * r + split + 2 * s * b * r + folds + 18 * largest * r
    if size > groups.TABLE_MAX_BYTES:
        raise GroupTooLargeError(
            f"group too large: the class algebra arrays of {r} classes needs {size} bytes, "
            f"above the table budget of {groups.TABLE_MAX_BYTES}"
        )


def class_algebra(group: Group, classes: "ConjugacyClassSet") -> ClassAlgebraData:
    """The class algebra's coefficients, counted one class at a time when the
    split first reads them, plus exponent and dixon prime: a[g][j][k] counts
    the x in class g with x^-1 * z_k in class j, z_k the representative of
    class k, one gather of |K_g| * r cells.  Raises GroupTooLargeError when
    the degree layer would exceed the table budget: before anything is
    allocated when the centre is 1 or G, else once its orbits are walked."""
    r, sizes = len(classes), classes.sizes
    exponent = int(np.lcm.reduce(group.element_orders))
    ell = least_admissible_prime(group.order, exponent)
    class_of, representatives = classes.class_index, classes.representatives
    generator_classes = dict.fromkeys(class_of[group.generator_indices].tolist())
    generator_classes.pop(0, None)
    offsets = np.arange(r) * r

    def column(g: int) -> tuple[np.ndarray, np.ndarray]:
        inverses = group.inverses[classes.members(g)]
        codes, starts = _runs(np.sort(class_of[group.mul(inverses[:, None], representatives)] + offsets, axis=None))
        return codes, np.concatenate([starts[1:], [len(inverses) * r]]) - starts

    data = ClassAlgebraData(column, tuple(sizes.tolist()), classes.inverse_pairing, exponent, ell, tuple(generator_classes))
    z = data.sizes.count(1)
    if z in (1, r):
        _check_degree_budget(data.sizes, ell, min(len(generator_classes), z.bit_length() - 1), r - z + 1)
    else:
        _check_degree_budget(data.sizes, ell, len(data.centre.used), len(data.centre.reps))
    return data


class _Centre(NamedTuple):
    """The orbits of Z = Z(G) on the classes and their normal forms (step 2
    above).  class -> its orbit, numbered by least class (orbit 0 is Z), its
    place in the orbit's normal form (0 exactly at the orbit's least class)
    and the k x r digits t(j); orbit -> its least class c_o and its normal
    form, a row of orders (the relative orders m_i), relations (the strictly
    lower triangular u_i) and strides (each digit's place value, the size
    last), kind 0 being Z's own; the classes z_i of one element used;
    class -> its inverse class."""

    orbit: np.ndarray
    place: np.ndarray
    digits: np.ndarray
    reps: np.ndarray
    kind: np.ndarray
    orders: np.ndarray
    relations: np.ndarray
    strides: np.ndarray
    used: list[int]
    star: np.ndarray


class _Split(NamedTuple):
    """The central characters over the characters of Z not alone in their
    block (step 2 above): row t of ``vectors`` is one over the character
    ``owner[t]``, read at every orbit's representative (0 off its block);
    ``used`` holds the class sums that split a block."""

    vectors: np.ndarray
    owner: np.ndarray
    used: list[int]


def _walk_centre(data: ClassAlgebraData) -> _Centre:
    """Walk the classes of one element through their permutations in the
    split's visiting order, then each other orbit from its least class
    through the same permutations (step 2 above)."""
    r, first = data.class_count, data.generator_classes
    tried, central = set(first), data.sizes.count(1)
    orbit, place = [-1] * r, [-1] * r
    orbit[0] = place[0] = 0
    members, forms, permutations, used = [0], [([], [])], [], []
    for g in itertools.chain(first, (g for g in range(1, r) if g not in tried)):
        if len(members) >= central:
            break
        if data.sizes[g] == 1 and orbit[g] < 0:
            permutations.append(data.permutation(g).tolist())
            used.append(g)
            _adjoin(g, permutations[-1], members, orbit, place, *forms[0])
    if len(members) < central:
        raise EigensplitError(f"refinement stalled with {len(members)} idempotents for {central} classes")
    reps = [0]
    for c in range(r):
        if orbit[c] < 0:
            orbit[c], place[c], members = len(reps), 0, [c]
            reps.append(c)
            forms.append(([], []))
            for g, pi in zip(used, permutations):
                _adjoin(g, pi, members, orbit, place, *forms[-1])
    kinds, k = {}, len(used)
    kind = np.array([kinds.setdefault((tuple(m), tuple(map(tuple, u))), len(kinds)) for m, u in forms])
    orders, relations = np.array([m for m, _ in kinds], dtype=np.int64).reshape(len(kinds), k), np.zeros((len(kinds), k, k), dtype=np.int64)
    for c, (_, u) in enumerate(kinds):
        for i, digits in enumerate(u):
            relations[c, i, :i] = digits
    strides = np.array([[math.prod(m[:i]) for i in range(k + 1)] for m, _ in kinds], dtype=np.int64)
    orbit, place = np.array(orbit), np.array(place)
    of_class = kind[orbit]
    digits = place // strides[of_class, :k].T % orders[of_class].T
    return _Centre(orbit, place, digits, np.array(reps), kind, orders, relations, strides, used, np.array(data.star))


def _adjoin(g: int, pi: list[int], members: list[int], orbit: list[int], place: list[int], orders: list, relations: list) -> None:
    """Adjoin z = g, which moves class x to pi[x], to the walk of the orbit
    of members[0]: z's relative order m is the least m with z^m * members[0]
    in the orbit so far, the digits of that class's place are its relation,
    and z^s * x, the class pi^s(x), takes the place s * n + (the place of x)
    for the n members so far, 0 < s < m."""
    label = orbit[members[0]]
    m, c = 1, pi[members[0]]
    while orbit[c] != label:
        m, c = m + 1, pi[c]
    p, digits = place[c], []
    for radix in orders:
        p, t = divmod(p, radix)
        digits.append(t)
    relations.append(digits)
    orders.append(m)
    n = len(members)
    for i in range((m - 1) * n):
        x = pi[members[i]]
        if orbit[x] >= 0:
            raise EigensplitError(f"class sum {g} of one element does not permute the cosets of the class sums before it")
        orbit[x] = label
        place[x] = n + i
        members.append(x)


def _characters_of_centre(data: ClassAlgebraData, centre: _Centre) -> np.ndarray:
    """The exponent vectors a of the characters lambda_a(z) = zeta^(a . t(z))
    of Z (step 2 above), one row each, solved one relation at a time."""
    e, orders, relations = data.exponent, centre.orders[0], centre.relations[0]
    characters = np.zeros((1, 0), dtype=np.int64)
    for i, (m, g) in enumerate(zip(orders.tolist(), centre.used)):
        c = characters @ relations[i, :i] % e
        if e % m or np.count_nonzero(c % m):
            raise EigensplitError(f"the relation of class sum {g}, of relative order {m}, has no {m} solutions mod {e}")
        solutions = (c // m)[:, None] + np.arange(m) * (e // m)
        characters = np.concatenate([np.repeat(characters, m, axis=0), solutions.reshape(-1, 1)], axis=1)
    return characters


def _block_orbits(centre: _Centre, characters: np.ndarray, e: int) -> np.ndarray:
    """characters x orbits: whether lambda_a is trivial on the orbit's
    stabiliser, that is whether a solves the relations of its kind."""
    defects = (characters * centre.orders[:, None] - characters @ centre.relations.transpose(0, 2, 1)) % e
    return ~defects.any(axis=2).T[:, centre.kind]


@cache
def _roots_of_unity(n: int, ell: int) -> np.ndarray:
    """zeta^0, zeta^1, ..., zeta^(n - 1) mod ell in int64, read-only and made
    once for each (n, ell), for a primitive n-th root of unity zeta, which
    GF(ell) has exactly when n divides ell - 1."""
    if (ell - 1) % n:
        raise EigensplitError(f"GF({ell}) holds no root of unity of order {n}")
    primes = primes_of(n)
    # a^((ell - 1) / n) has order n for a primitive root a, so the search ends
    zeta = next(z for z in (pow(a, (ell - 1) // n, ell) for a in range(2, ell)) if all(pow(z, n // q, ell) != 1 for q in primes))
    powers = np.fromiter(itertools.accumulate(range(n - 1), lambda z, _: z * zeta % ell, initial=1), dtype=np.int64, count=n)
    powers.setflags(write=False)
    return powers


def _fold(data: ClassAlgebraData, centre: _Centre, characters: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Class sum g's column read at the orbits' representatives and folded
    for each lambda_a in ``characters`` (step 2 above): codes o' * R + o
    ascending over the R orbits, and a row of values sum over k in o' of
    a[g][c_o][k] * lambda(z_k) mod ell per character."""
    r, n, e, ell = data.class_count, len(centre.reps), data.exponent, data.dixon_prime
    codes, values = data.column(g)
    if n == r:
        # every class is an orbit, so Z = 1 and lambda = 1: the column is folded already;
        # folding it anyway makes S5's and A6's degree step 7-12% slower
        return codes, values[None] % ell
    k, j = np.divmod(codes, r)
    kept = (centre.place[j] == 0).nonzero()[0]
    folded = centre.orbit[k[kept]] * n + centre.orbit[j[kept]]
    by_code = np.argsort(folded, kind="stable")
    codes, starts = _runs(folded[by_code])
    kept = kept[by_code]
    terms = _roots_of_unity(e, ell)[characters @ centre.digits[:, k[kept]] % e] * (values[kept] % ell)
    return codes, np.add.reduceat(terms, starts, axis=1) % ell


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted ``keys`` and where each run starts."""
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    starts = fresh.nonzero()[0]
    return keys[starts], starts


def _action(codes: np.ndarray, values: np.ndarray, r: int, ell: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> x @ M mod ell on rows x reduced mod ell, in x's dtype, for the r x
    r matrix M with entries ``values`` at codes k * r + j (M[j][k])
    ascending: row t of the image is the coordinate row of x_t * K, a block
    of rows at a time, each sum of at most r products in int64."""
    k, j = np.divmod(codes, r)
    ks, starts = _runs(k)
    values = (values % ell).astype(modmat.residues(ell))

    def act(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for block in groups.blocks(len(x), len(j)):
            out[block, ks] = modmat.reduce(np.add.reduceat(x[block, j] * values, starts, axis=1, dtype=np.int64), ell)
        return out

    return act


def _blocks(data: ClassAlgebraData, centre: _Centre, characters: np.ndarray, good: np.ndarray) -> _Split:
    """Split the blocks ``good`` of several orbits in turns (step 2 above):
    the first pending character's block with the pending ones of the same
    orbits, as many as keep their direct sum within one block of cells, on
    the folded columns of one class sum of each Z-orbit but Z's,
    generators' classes first, then in class order."""
    e, ell, n, dtype = data.exponent, data.dixon_prime, len(centre.reps), modmat.residues(data.dixon_prime)
    pending, folds, used = good.sum(axis=1) > 1, {}, set()
    vectors, owners = [np.zeros((0, n), dtype=dtype)], [np.zeros(0, dtype=np.intp)]
    # the class sums of one orbit act on a block as multiples of one another: one of each is visited
    first = {}
    for g in itertools.chain(data.generator_classes, centre.reps.tolist()):
        first.setdefault(int(centre.orbit[g]), g)
    order = [g for o, g in first.items() if o]
    # w(c_o) = |K_c_o| * |Z| / |o| * lambda(z)^-1 * y_o' / y_0 for (c_o)* = z * c_o'
    pair = centre.star[centre.reps]
    twist = np.array(data.sizes)[centre.reps] * (centre.strides[0, -1] // centre.strides[centre.kind, -1]) % ell
    twist = _roots_of_unity(e, ell)[-(characters @ centre.digits[:, pair]) % e] * twist % ell
    while np.count_nonzero(pending):
        inside = good[pending.argmax()]
        size, rank = int(inside.sum()), np.cumsum(inside) - 1
        # one direct sum per batch: a block at a time makes D8 x C9's degree step 1.1 -> 4.0 ms
        batch = (pending & (good == inside).all(axis=1)).nonzero()[0][: max(1, math.isqrt(groups.BLOCK_CELLS) // size)]
        pending[batch] = False
        # the t-th character's part holds the coordinates t * size + rank[o]: code t * size * (d + 1) + rank[k] * d + rank[j]
        d = len(batch) * size
        t = np.arange(len(batch))[:, None] * size * (d + 1)

        def action(g: int) -> Callable[[np.ndarray], np.ndarray]:
            if g not in folds:
                folds[g] = _fold(data, centre, characters, g)
            codes, values = folds[g]
            col, row = np.divmod(codes, n)
            keep = (inside[col] & inside[row]).nonzero()[0]
            return _action((rank[col[keep]] * d + rank[row[keep]] + t).ravel(), values[batch][:, keep].ravel(), d, ell)

        rows, splitting = _idempotents(action, np.eye(d, dtype=dtype)[::size].sum(axis=0, dtype=dtype), size, order, ell)
        used.update(splitting)
        part = (rows != 0).argmax(axis=1) // size
        y = np.zeros((len(rows), n), dtype=np.int64)
        y[:, inside] = rows.reshape(len(rows), len(batch), size)[np.arange(len(rows)), part]
        # y_0 = |Z| * chi(1)^2 / |G| takes one value per degree
        y0 = y[:, 0].tolist()
        if 0 in y0:
            raise EigensplitError("idempotent vanishes at the identity class")
        inverse = {v: pow(v, -1, ell) for v in set(y0)}
        owners.append(batch[part])
        scale = np.array([inverse[v] for v in y0])[:, None] * twist[owners[-1]] % ell
        vectors.append((y.take(centre.orbit[pair], axis=1) * scale % ell).astype(dtype))
    return _Split(np.concatenate(vectors), np.concatenate(owners), sorted(used))


def _idempotents(action: Callable[[int], Callable], one: np.ndarray, size: int, order: list[int], ell: int) -> tuple[np.ndarray, list[int]]:
    """The primitive idempotents, as coordinate rows, of an algebra over
    GF(ell), a direct sum of blocks of ``size`` coordinates with identity
    ``one``, and the class sums that split one, visited in ``order``;
    ``action(g)`` is class sum g's action on coordinate rows.

    ``rows`` holds orthogonal idempotents summing to 1, starting from the
    identity.  A class sum K that acts on every row as a scalar is skipped;
    otherwise each row e it does not act on as a scalar is replaced by the
    nonzero rows e * E_lambda over K's Lagrange idempotents, read off K's
    identity chain for the identity and cut into the blocks, whose
    identities are central.  One pass suffices, ending at as many rows as
    coordinates."""
    r, rows, used = len(one), one[None], []
    for g in order:
        if len(rows) >= r:
            break
        act = action(g)
        image = act(rows)
        scalar = _eigenvector_rows(rows, image, ell)
        if np.count_nonzero(scalar) == len(rows):
            continue
        powers, coefficients = _identity_chain(act, one, ell)
        n = len(powers)
        lagrange = _lagrange(powers, coefficients, ell)
        if len(rows) == 1:
            parts = modmat.matmul(lagrange.T, powers, ell).reshape(n, -1, size)
            at = parts.any(axis=2).nonzero()
            rows = np.zeros((len(at[0]), r // size, size), dtype=parts.dtype)
            rows[np.arange(len(at[0])), at[1]] = parts[at]
            rows = rows.reshape(-1, r)
        else:
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


def _identity_chain(act: Callable, one: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Krylov chain 1, K, K^2, ... of the class sum K whose action is ``act``,
    from the identity ``one``: the first n powers, which are independent (n
    is the number of distinct eigenvalues of K), and the c with K^n = sum_t
    c_t K^t.  The chain grows in runs, eight powers and then four times as
    many, each run eliminated once as the columns of one matrix: once K^n
    depends on the powers before it so does every later power, so the
    pivots are the first n columns, and column n holds c."""
    powers = [one]
    while True:
        for _ in range(min(len(one) + 1, max(8, 4 * len(powers))) - len(powers)):
            powers.append(act(powers[-1][None])[0])
        reduced, pivots = modmat.rref(np.array(powers).T, ell)
        if len(pivots) < len(powers):
            return np.array(powers[: len(pivots)]), reduced[: len(pivots), len(pivots)]


def _lagrange(powers: np.ndarray, coefficients: np.ndarray, ell: int) -> np.ndarray:
    """L with E_lambda = sum_t L[t, lambda] K^t, the Lagrange idempotents of
    the class sum K whose identity chain is (powers, coefficients), which
    give K's minimal polynomial f; it must have n distinct roots in GF(ell).
    Then E_lambda = f(K) / ((K - lambda) * f'(lambda)); the quotients f / (x
    - lambda) come by synthetic division."""
    n = len(powers)
    f = [(-int(c)) % ell for c in coefficients] + [1]
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
    scale = np.array([pow(int(d), -1, ell) for d in derivative], dtype=dtype)
    return quotients * scale % ell


def _eigenvector_rows(rows: np.ndarray, image: np.ndarray, ell: int) -> np.ndarray:
    """Whether each image row is a multiple of its row: y = lambda * e iff
    y_j * e_p = y_p * e_j for all j, at a coordinate p where e_p != 0."""
    at = np.arange(len(rows))
    p = (rows != 0).argmax(axis=1)
    return (modmat.reduce(image * rows[at, p][:, None], ell) == modmat.reduce(rows * image[at, p][:, None], ell)).all(axis=1)


def _certify_centre(data: ClassAlgebraData, centre: _Centre, characters: np.ndarray) -> None:
    """Raise unless the orbits' normal forms and the exponent vectors of Z's
    characters meet the checks of step 3 above on the classes of one
    element used, over the r classes at once: k x r digits at a time."""
    e, k, used, star = data.exponent, len(centre.used), centre.used, centre.star
    orbit, place, digits, orders, relations, reps = centre.orbit, centre.place, centre.digits, centre.orders, centre.relations, centre.reps
    kinds, size = centre.kind[orbit], centre.strides[centre.kind, k]
    if (data.dixon_prime - 1) % e:
        raise EigensplitError(f"GF({data.dixon_prime}) holds no root of unity of order {e}")
    if orbit[0] or place[0]:
        raise EigensplitError("a split vector is not 1 at the identity class")
    counts = np.bincount(orbit)
    if len(counts) != len(size) or np.count_nonzero(counts != size) or np.count_nonzero(orbit[reps] != np.arange(len(reps))) or np.count_nonzero(place[reps]):
        raise EigensplitError("an orbit's classes are not its representative and as many as the places of its normal form")
    if len(characters) != size[0]:
        raise EigensplitError(f"found {len(characters)} vectors, expected {size[0]}")
    bad = ((characters % e != characters) | ((characters * orders[0] - characters @ relations[0].T) % e != 0)).any(axis=0).nonzero()[0]
    if len(bad):
        raise EigensplitError(f"a character's exponents are not residues mod {e} that solve the relation of class sum {used[bad[0]]}")
    if len(characters) > 1 and _has_equal_rows(characters):
        raise EigensplitError("two split vectors agree on every class sum used")
    strides, m = centre.strides[kinds].T, orders[kinds].T
    lower = [relations[:, j].any(axis=0).nonzero()[0].tolist() for j in range(k)]

    def carry(v: np.ndarray, overflowing: Iterable[int]) -> np.ndarray:
        # NF of each column of v in place, when only the digits ``overflowing`` may lie outside 0..m_j - 1:
        # from the top down, such a digit's quotient q by m_j adds q * u_j to the digits below
        overflowing = set(overflowing)
        for j in range(max(overflowing, default=-1), -1, -1):
            if j in overflowing:
                q, v[j] = np.divmod(v[j], m[j])
                for i in lower[j]:
                    v[i] += q * relations[kinds, j, i]
                    overflowing.add(i)
        return v

    for i, g in enumerate(used):
        if data.permutation(g)[star[g]] != 0:
            raise EigensplitError(f"coefficients of class sum {g}: a[g][j][0] is not |K_g| exactly at j = g*")
        if orbit[g] != 0 or place[g] != strides[i, 0]:
            raise EigensplitError(f"class sum {g} is not the generator of digit {i} of the normal form")
    expected = star[reps[orbit]]
    product = (strides[:k] * carry(digits + digits[:, star], range(k))).sum(axis=0)
    if np.count_nonzero(orbit[star] != orbit[expected]) or np.count_nonzero(kinds[star] != kinds) or np.count_nonzero(product != place[expected]):
        raise EigensplitError("a class and its inverse class do not multiply to 1 in the normal form")
    for i, g in enumerate(used):
        # adding e_i changes no digit above i
        step = digits[: i + 1].copy()
        step[i] += 1
        moved = (strides[: i + 1] * carry(step, [i])).sum(axis=0) + place // strides[i + 1] * strides[i + 1]
        image = data.permutation(g)
        if np.count_nonzero(orbit[image] != orbit) or np.count_nonzero(moved != place[image]):
            raise EigensplitError(f"class sum {g} does not add 1 to digit {i} of the normal form")


def _certify(data: ClassAlgebraData, centre: _Centre, characters: np.ndarray, good: np.ndarray, split: _Split) -> None:
    """Raise unless lambda on Z and 0 elsewhere, for each of the certified
    ``characters`` alone in its block of ``good``, and the vectors of
    ``split`` are the r central characters (step 3 above): one for each
    orbit of a character's block, 1 at Z's orbit, 0 off the block, and
    checks (b) and (c) on each class sum of ``split.used``, folded from its
    checked column, a block of rows at a time."""
    ell, e, n, v, owner = data.dixon_prime, data.exponent, len(centre.reps), split.vectors, split.owner
    sizes = good.sum(axis=1)
    # a character alone in its block counts its own
    counts = np.bincount(owner, minlength=len(sizes)) + (sizes == 1)
    if counts.sum() != data.class_count:
        raise EigensplitError(f"found {counts.sum()} vectors, expected {data.class_count}")
    if len(counts) != len(sizes) or np.count_nonzero(counts != sizes) or np.count_nonzero(v[~good[owner]]):
        raise EigensplitError("a block's orbits are not those on whose stabiliser its characters of the centre are trivial")
    if np.count_nonzero(v[:, 0] != 1):
        raise EigensplitError("a split vector is not 1 at the identity class")
    keys = [owner]
    for g in split.used:
        _check_column(data, g)
        codes, values = _fold(data, centre, characters, g)
        col, row = np.divmod(codes, n)
        by_row = np.argsort(row, kind="stable")
        rows, starts = _runs(row[by_row])
        # w_g, 0 off the block
        value = _roots_of_unity(e, ell)[characters[owner] @ centre.digits[:, g] % e] * v[:, centre.orbit[g]] % ell
        for chunk in groups.blocks(len(v), len(codes)):
            image = np.zeros((len(owner[chunk]), n), dtype=np.int64)
            # each sum of products of two residues runs in int64
            image[:, rows] = modmat.reduce(np.add.reduceat(v[chunk][:, col[by_row]] * values[owner[chunk]][:, by_row], starts, axis=1), ell)
            if np.count_nonzero(image != modmat.reduce(value[chunk, None] * v[chunk], ell)):
                raise EigensplitError(f"a split vector is not a central character on class sum {g}")
        keys.append(value)
    if len(v) > 1 and _has_equal_rows(np.stack(keys, axis=1)):
        raise EigensplitError("two split vectors agree on every class sum used")


def _check_column(data: ClassAlgebraData, g: int) -> None:
    """Raise unless class g's column meets the counting identities (step 3
    above): every class j occurs, sum_j a[g][j][k] = |K_g| for every k, and
    a[g][j][0] = |K_g| exactly when j = g*; O(nnz_g)."""
    r, size, star = data.class_count, data.sizes[g], data.star[g]
    codes, values = data.column(g)
    k, j = np.divmod(codes, r)
    covered = np.count_nonzero(np.bincount(j, minlength=r))
    if covered != r:
        raise EigensplitError(f"coefficients of class sum {g} cover {covered} classes j, expected {r}")
    ks, starts = _runs(k)
    if len(ks) != r or np.count_nonzero(np.add.reduceat(values, starts) != size):
        raise EigensplitError(f"coefficients of class sum {g}: some sum over j of a[g][j][k] differs from |K_g|")
    if k[1:2].tolist() == [0] or j[0] != star or values[0] != size:
        raise EigensplitError(f"coefficients of class sum {g}: a[g][j][0] is not |K_g| exactly at j = g*")


def _has_equal_rows(keys: np.ndarray) -> bool:
    """Whether two rows of ``keys`` (at least one column) are equal: they are
    neighbours once the rows are sorted."""
    ordered = keys[np.lexsort(keys.T)]
    return bool(np.count_nonzero((ordered[1:] == ordered[:-1]).all(axis=1)))


def _inner_products(data: ClassAlgebraData, centre: _Centre, characters: np.ndarray, split: _Split) -> np.ndarray:
    """T = sum_j w_j * w_{j*} / |K_j| mod ell for each central character w
    (step 4 above): |Z| for each character of Z alone in its block, and for
    each vector of ``split``, orbit by orbit, w_j * w_{j*} = lambda(z) *
    w(c_o) * w(c_o') for the |o| classes j of o, each of |K_c_o| elements,
    and (c_o)* = z * c_o'."""
    ell, e, dtype, reps, v, owner = data.dixon_prime, data.exponent, modmat.residues(data.dixon_prime), centre.reps, split.vectors, split.owner
    t = [np.full(data.class_count - len(v), len(characters) % ell)]
    inverse = {n: pow(n, -1, ell) for n in set(data.sizes)}
    pair, weights = centre.star[reps], centre.strides[centre.kind, -1] * [inverse[data.sizes[c]] for c in reps.tolist()] % ell
    for chunk in groups.blocks(len(v), len(pair)):
        twist = (_roots_of_unity(e, ell)[characters[owner[chunk]] @ centre.digits[:, pair] % e] * weights % ell).astype(dtype)
        # each product is reduced in the residue dtype, and each row's terms below ell are summed in int64
        t.append(modmat.reduce(modmat.reduce(v[chunk] * v[chunk].take(centre.orbit[pair], axis=1), ell) * twist, ell).sum(axis=1, dtype=np.int64))
    return np.concatenate(t) % ell


def _degree_frequency(order: int, t: np.ndarray, ell: int) -> DegreeFrequency:
    """The degrees of the central characters whose T values mod ell are
    ``t``: for each distinct T, the one d <= isqrt(|G|) with d^2 = |G| / T
    mod ell (step 4 above)."""
    square_root = {d * d % ell: d for d in range(1, math.isqrt(order) + 1)}
    counts = collections.Counter(t.tolist())
    degrees = {v: square_root.get(order * pow(v, -1, ell) % ell) if v else None for v in counts}
    if None in degrees.values():
        raise EigensplitError(f"a central character has no single degree d <= {math.isqrt(order)} with d^2 * T = {order} mod {ell}")
    return DegreeFrequency(tuple(sorted((degrees[v], c) for v, c in counts.items())))


def degrees_from_class_algebra(data: ClassAlgebraData) -> DegreeFrequency:
    """Split modulo ``data.dixon_prime`` the blocks of the centre's
    characters, certify the central characters, then read their degrees."""
    centre = data.centre
    characters = _characters_of_centre(data, centre)
    _certify_centre(data, centre, characters)
    # with one orbit, Z = G, every character of Z is alone in its block, with T = |Z|;
    # skipping the blocks' split and certificate saves each abelian group 70-90 us
    t = np.full(len(characters), len(characters) % data.dixon_prime)
    if len(centre.reps) > 1:
        good = _block_orbits(centre, characters, data.exponent)
        split = _blocks(data, centre, characters, good)
        _certify(data, centre, characters, good, split)
        t = _inner_products(data, centre, characters, split)
    freq = _degree_frequency(data.order, t, data.dixon_prime)
    _check_consistency(data, freq)
    return freq


def _check_consistency(data: ClassAlgebraData, freq: DegreeFrequency) -> None:
    order, class_count = data.order, data.class_count
    if freq.sum_of_squares() != order:
        raise EigensplitError(f"degree squares sum to {freq.sum_of_squares()}, group order is {order}")
    if freq.irreducible_count() != class_count:
        raise EigensplitError(f"{freq.irreducible_count()} characters found for {class_count} classes")
    for d, _ in freq.entries:
        if order % d != 0:
            raise EigensplitError(f"degree {d} does not divide the group order {order}")


def character_degrees(group: Group) -> DegreeFrequency:
    """The character degree frequency of the group, split modulo the least
    admissible prime; any admissible prime yields the identical frequency,
    which the tests check on a ``dataclasses.replace`` of the data."""
    from .structure import conjugacy_classes

    return degrees_from_class_algebra(class_algebra(group, conjugacy_classes(group)))
