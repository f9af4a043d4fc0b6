"""Conjugacy classes and brute-force structural oracles.

Everything in this module works over the full element enumeration of the
group through its Cayley table, so it requires the element cache and the
table budget and fails with GroupTooLargeError beyond them.  Oracles are
deliberately exhaustive: every all-pairs definition (commutators,
centralizers, normalizers, the hypercentre step, product closure of the
pi-elements) is still evaluated on every pair, now as array gathers on the
table, and normality checks conjugate members explicitly instead of trusting
theory, so theorem verification stays genuinely two-sided.

Subgroups are plain index sets into the parent enumeration; equality of
subgroups is equality of those sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .arith import PrimeSet, is_prime, prime_set, valuation
from .group import Group
from .perm import Permutation

#: cells per block of an all-pairs step; apart from the table itself no
#: temporary grows beyond a few arrays of this many cells
BLOCK_CELLS = 1 << 13


def _blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Consecutive slices of ``rows``; a slice by ``width`` columns spans at
    most BLOCK_CELLS cells."""
    step = max(1, BLOCK_CELLS // max(1, width))
    for start in range(0, len(rows), step):
        yield rows[start : start + step]


def _array(indices: Iterable[int]) -> np.ndarray:
    """The indices as a sorted index array."""
    return np.sort(np.fromiter(indices, dtype=np.intp))


def _mask(group: Group, indices: Iterable[int]) -> np.ndarray:
    """The indices as a boolean membership mask over the enumeration."""
    mask = np.zeros(group.order, dtype=bool)
    mask[np.fromiter(indices, dtype=np.intp)] = True
    return mask


def _commutators(
    group: Group, xs: np.ndarray, ys: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of xs with their commutators [x, y] = x^-1 y^-1 x y, one row
    per x in the block and one column per y in ys."""
    inv = group.inverses
    inv_ys = inv[ys]
    for xb in _blocks(xs, len(ys)):
        col = xb[:, None]
        yield xb, group.mul(group.mul(inv[col], inv_ys), group.mul(col, ys))


def _commute(
    group: Group, xs: np.ndarray, ys: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of xs with a row per x of whether x commutes with each y in ys."""
    for xb, comms in _commutators(group, xs, ys):
        yield xb, comms == group.identity_index


def _commutator_closure(group: Group, xs: np.ndarray, ys: np.ndarray) -> frozenset[int]:
    """Subgroup generated by every commutator [x, y], x in xs, y in ys."""
    seen = np.zeros(group.order, dtype=bool)
    for _, comms in _commutators(group, xs, ys):
        seen[comms] = True
    return _closure(group, np.flatnonzero(seen).tolist())


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    size: int
    member_indices: frozenset[int]


class ConjugacyClassSet:
    """The conjugacy classes of a group, ordered by smallest member index.

    ``class_index[i]`` is the class of element i; ``inverse_pairing[c]`` is
    the class holding the inverses of class c.
    """

    def __init__(self, group: Group):
        self.group = group
        everyone = np.arange(group.order)
        inv = group.inverses
        class_index = np.full(group.order, -1, dtype=np.intp)
        classes: list[ConjugacyClass] = []
        for start in range(group.order):
            if class_index[start] >= 0:
                continue
            # the class of x is {g^-1 x g : g in G}, one gather over all g
            orbit = np.unique(group.mul(group.mul(inv, start), everyone))
            class_index[orbit] = len(classes)
            classes.append(
                ConjugacyClass(group.elements[start], len(orbit), frozenset(orbit.tolist()))
            )
        self.classes = tuple(classes)
        class_index = class_index.tolist()
        self.class_index = tuple(class_index)
        self.inverse_pairing = tuple(
            class_index[group.i_inv(group.index_of(c.representative))] for c in classes
        )

    def __len__(self) -> int:
        return len(self.classes)

    def sizes(self) -> list[int]:
        return [c.size for c in self.classes]

    def class_of(self, element_index: int) -> int:
        return self.class_index[element_index]


def conjugacy_classes(group: Group) -> ConjugacyClassSet:
    return ConjugacyClassSet(group)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as an index set into the parent's element enumeration."""

    parent: Group
    member_indices: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.member_indices)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def perms(self) -> list[Permutation]:
        return [self.parent.elements[i] for i in sorted(self.member_indices)]

    def is_abelian(self) -> bool:
        members = _array(self.member_indices)
        return all(commute.all() for _, commute in _commute(self.parent, members, members))

    def is_normal(self) -> bool:
        """Explicit check: conjugate every member by every parent generator."""
        g = self.parent
        gens = np.array(g.generator_indices, dtype=np.intp)[:, None]
        conj = g.mul(g.mul(g.inverses[gens], _array(self.member_indices)), gens)
        return bool(_mask(g, self.member_indices)[conj].all())

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def _closure(group: Group, seed: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the seed indices (identity always included).

    Dimino's algorithm: seeds are taken in increasing order and adjoined only
    when not yet members.  The first one gives its cyclic group, power by
    power; each later seed s extends H = <gens> to <H, s> as a union of right
    cosets Hw, found by multiplying every coset representative w by every
    generator.  Each new coset is one table gather.
    """
    e = group.identity_index
    inside = np.zeros(group.order, dtype=bool)
    inside[e] = True
    members = np.array([e], dtype=np.intp)
    gens: list[int] = []
    for s in sorted(set(seed)):
        if inside[s]:
            continue
        gens.append(s)
        if len(gens) == 1:
            powers = [e, s]
            while (w := group.i_mul(powers[-1], s)) != e:
                powers.append(w)
            members = np.array(powers, dtype=np.intp)
            inside[members] = True
            continue
        cosets = [members, group.mul(members, s)]
        inside[cosets[-1]] = True
        reps = [s]
        for w in reps:
            for wg in group.mul(w, np.array(gens)).tolist():
                if not inside[wg]:
                    cosets.append(group.mul(members, wg))
                    inside[cosets[-1]] = True
                    reps.append(wg)
        members = np.concatenate(cosets)
    return frozenset(np.flatnonzero(inside).tolist())


def subgroup_from_indices(group: Group, indices: Iterable[int]) -> Subgroup:
    return Subgroup(group, _closure(group, indices))


def trivial_subgroup(group: Group) -> Subgroup:
    group._require_cache()
    return Subgroup(group, frozenset({group.identity_index}))


def full_subgroup(group: Group) -> Subgroup:
    group._require_cache()
    return Subgroup(group, frozenset(range(group.order)))


def centralizer(group: Group, perms: Iterable[Permutation]) -> Subgroup:
    """Elements commuting with every permutation in ``perms`` (all must be members)."""
    targets = _array(group.index_of(p) for p in perms)
    keep = np.zeros(group.order, dtype=bool)
    for xb, commute in _commute(group, np.arange(group.order), targets):
        keep[xb] = commute.all(axis=1)
    return Subgroup(group, frozenset(np.flatnonzero(keep).tolist()))


def centre(group: Group) -> Subgroup:
    return centralizer(group, group.generators)


def normalizer(group: Group, sub: Subgroup) -> Subgroup:
    if sub.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    members = _array(sub.member_indices)
    inside = _mask(group, sub.member_indices)
    keep = np.zeros(group.order, dtype=bool)
    for gb in _blocks(np.arange(group.order), len(members)):
        col = gb[:, None]
        conj = group.mul(group.mul(group.inverses[col], members), col)  # g^-1 m g
        keep[gb] = inside[conj].all(axis=1)
    return Subgroup(group, frozenset(np.flatnonzero(keep).tolist()))


def derived_subgroup(group: Group) -> Subgroup:
    """Closure of all commutators [x, y] over the whole enumeration."""
    everyone = np.arange(group.order)
    return Subgroup(group, _commutator_closure(group, everyone, everyone))


def derived_of(sub: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup, as a subgroup of the same parent."""
    members = _array(sub.member_indices)
    return Subgroup(sub.parent, _commutator_closure(sub.parent, members, members))


def commutator_subgroup_of(sub: Subgroup, group: Group) -> Subgroup:
    """[N, G] for N normal in G; raises if N is not normal."""
    if sub.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    if not sub.is_normal():
        raise ValueError("subgroup is not normal in its parent")
    members = _array(sub.member_indices)
    return Subgroup(group, _commutator_closure(group, members, np.arange(group.order)))


def lower_central_last(group: Group) -> Subgroup:
    """Stable term of the lower central series K_{i+1} = [K_i, G]."""
    everyone = np.arange(group.order)
    current = frozenset(everyone.tolist())
    while True:
        nxt = _commutator_closure(group, _array(current), everyone)
        if nxt == current:
            return Subgroup(group, current)
        current = nxt


def hypercentre(group: Group) -> Subgroup:
    """Stable term of the upper central series.

    Z_1 = Z(G); Z_{i+1} = {x : [x, g] in Z_i for all g}, iterated until the
    set stops growing.
    """
    current = centre(group).member_indices
    everyone = np.arange(group.order)
    while True:
        inside = _mask(group, current)
        keep = np.zeros(group.order, dtype=bool)
        for xb, comms in _commutators(group, everyone, everyone):
            keep[xb] = inside[comms].all(axis=1)
        nxt = frozenset(np.flatnonzero(keep).tolist())
        if nxt == current:
            return Subgroup(group, current)
        current = nxt


def p_residual(group: Group, p: int) -> Subgroup:
    """Smallest normal subgroup with p-group quotient: closure of all p'-elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    group._require_cache()
    seed = [i for i in range(group.order) if group.element_order(i) % p != 0]
    return Subgroup(group, _closure(group, seed))


def p_prime_residual(group: Group, p: int) -> Subgroup:
    """Smallest normal subgroup with p'-group quotient: closure of all p-elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    group._require_cache()
    seed = [i for i in range(group.order) if _is_p_power(group.element_order(i), p)]
    return Subgroup(group, _closure(group, seed))


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _is_pi_number(n: int, pi: PrimeSet) -> bool:
    for p in pi:
        while n % p == 0:
            n //= p
    return n == 1


def sylow_subgroup(group: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically.

    Starting from the trivial subgroup, repeatedly adjoin the least-index
    p-element of N_G(P) \\ P and close; each step multiplies |P| by a power
    of p, so the loop reaches |G|_p exactly.  Returns the trivial subgroup
    when p does not divide |G|.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    group._require_cache()
    target = p ** valuation(group.order, p)
    members = frozenset({group.identity_index})
    while len(members) < target:
        norm = normalizer(group, Subgroup(group, members))
        candidate = min(
            i
            for i in sorted(norm.member_indices)
            if i not in members and _is_p_power(group.element_order(i), p)
        )
        members = _closure(group, set(members) | {candidate})
    return Subgroup(group, members)


def pi_elements_subgroup(group: Group, pi: Iterable[int]) -> Optional[Subgroup]:
    """The set of pi-elements as a Subgroup iff it is product-closed, else None.

    When it is closed it is the unique normal Hall pi-subgroup of the group.
    """
    sub, _ = _pi_elements_closure(group, pi)
    return sub


def _pi_elements_closure(
    group: Group, pi: Iterable[int]
) -> tuple[Optional[Subgroup], Optional[tuple[int, int]]]:
    """Like pi_elements_subgroup but also reports the first closure failure."""
    ps = prime_set(pi)
    group._require_cache()
    members = _array(i for i in range(group.order) if _is_pi_number(group.element_order(i), ps))
    inside = _mask(group, members)
    for ab in _blocks(members, len(members)):
        outside = ~inside[group.mul(ab[:, None], members)]
        if outside.any():
            # argmax finds the first failing pair in row-major order
            a, b = divmod(int(np.argmax(outside)), len(members))
            return None, (int(ab[a]), int(members[b]))
    return Subgroup(group, frozenset(members.tolist())), None


@dataclass(frozen=True)
class DirectProductWitness:
    """Outcome of testing G = P x H for P the p-part and H the p'-part."""

    holds: bool
    p_part: Optional[Subgroup]
    p_complement: Optional[Subgroup]
    failure: Optional[str]


def is_direct_product_p(group: Group, p: int) -> DirectProductWitness:
    """True iff both the p-elements and the p'-elements form subgroups.

    Both sets are conjugation-invariant, so success makes them normal with
    trivial intersection and complementary orders: G = P x H automatically.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    from .arith import primes_of

    p_side, p_fail = _pi_elements_closure(group, (p,))
    if p_side is None:
        a, b = p_fail
        return DirectProductWitness(False, None, None, f"{p}-elements not closed at pair ({a},{b})")
    complement = tuple(q for q in primes_of(group.order) if q != p)
    h_side, h_fail = _pi_elements_closure(group, complement)
    if h_side is None:
        a, b = h_fail
        return DirectProductWitness(
            False, p_side, None, f"{p}'-elements not closed at pair ({a},{b})"
        )
    return DirectProductWitness(True, p_side, h_side, None)


def has_central_hall(group: Group, pi: Iterable[int]) -> bool:
    """The pi-elements form a subgroup lying inside the centre."""
    sub = pi_elements_subgroup(group, pi)
    return sub is not None and sub.member_indices <= centre(group).member_indices


def has_normal_abelian_hall(group: Group, pi: Iterable[int]) -> bool:
    """The pi-elements form an abelian subgroup (necessarily a normal Hall one)."""
    sub = pi_elements_subgroup(group, pi)
    return sub is not None and sub.is_abelian()


def q_r_elements_commute(group: Group, p: int) -> bool:
    """For all distinct primes q, r != p dividing |G|, every q-element
    commutes with every r-element (exhaustive test)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    from .arith import primes_of

    group._require_cache()
    others = [q for q in primes_of(group.order) if q != p]
    by_prime = {
        q: [i for i in range(group.order) if _is_p_power(group.element_order(i), q)]
        for q in others
    }
    for qi, q in enumerate(others):
        for r in others[qi + 1 :]:
            blocks = _commute(group, _array(by_prime[q]), _array(by_prime[r]))
            if not all(commute.all() for _, commute in blocks):
                return False
    return True
