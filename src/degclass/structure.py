"""Conjugacy classes and brute-force structural oracles.

Everything in this module works over the full element enumeration of the
group through its Cayley table, so it requires the element cache and the
table budget and fails with GroupTooLargeError beyond them.  Oracles are
deliberately exhaustive: every definition is evaluated on every element it
quantifies over, as array gathers on the table, and normality checks
conjugate members explicitly instead of trusting theory, so theorem
verification stays genuinely two-sided.  Four identities of sets, not
theorems, cut the gathers without dropping any x or y.  G = <S>, so Cl(x)
is x's orbit under x -> s^-1 x s for s in S: the classes come from one
|G|-cell map per generator, not one |G|-cell gather per class
(``ConjugacyClassSet``).  {[r, y] : y in G} = r^-1 Cl(r), and for a union N
of classes {[x, y] : x in N, y in G} is a union of classes, since
g^-1 [x, y] g = [x^g, y^g]: it is every class that meets c[N], where
c[x] = r^-1 x for r the representative of x's class.  So a commutator
oracle reads c, one gather of |G| cells, not x^-1 Cl(x) for every x
(``_class_commutators``).  C(<S>) = C(S) and g^-1 <S> g = <g^-1 S g>, so
centralizers and normalizers test the generators a subgroup was closed
from (``Subgroup.generators``).  A union S
of classes is {g^-1 r g : g in G, r a class representative in S}, so a
property kept by conjugation holds on S iff on those representatives
(``ConjugacyClassSet.representatives``): one row a class.

Every blocked step takes its rows from ``_rows`` (a word - a commutator, a
commuting test, a conjugation, a product - on x by every y of a list), at
most ``group.BLOCK_CELLS`` cells a block.  The class maps of the k
generators, k |G| <= |G|^2 cells of the table's dtype in all, are stacked
a block of generators at a time.  c gathers |G| cells unblocked, which
stays within a block because ``group.ENUMERATION_CAP <= group.BLOCK_CELLS``.

Every subset of the group - a subgroup, a conjugacy class, a set of
pi-elements - is a sorted, read-only ``np.intp`` index array into the parent
enumeration; equality of subgroups is equality of those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .arith import is_prime, prime_set, primes_of, valuation
from .group import Group, blocks


def _rows(xs: np.ndarray, ys: np.ndarray, word: Callable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of xs, each with its rows word(x, y): one row per x in the
    block, one column per y in ys, at most BLOCK_CELLS cells a block."""
    for block in blocks(len(xs), len(ys)):
        xb = xs[block]
        yield xb, word(xb[:, None], ys)


def _commutator(group: Group) -> Callable:
    """The word [x, y] = x^-1 y^-1 x y on index arrays."""
    inv = group.inverses
    return lambda x, y: group.mul(group.mul(inv[x], inv[y]), group.mul(x, y))


def _commutes(group: Group) -> Callable:
    """The word x y == y x: two gathers and no inverses."""
    return lambda x, y: group.mul(x, y) == group.mul(y, x)


def _where_all(rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The x, sorted, whose boolean row holds throughout."""
    return np.sort(np.concatenate([np.empty(0, dtype=np.intp), *(xb[row.all(axis=1)] for xb, row in rows)]))


def _class_commutators(classes: ConjugacyClassSet) -> np.ndarray:
    """c[x] = r^-1 x for r the representative of x's class: over the members
    x of Cl(r), the c[x] are exactly {[r, y] : y in G}.  One |G|-cell gather."""
    group = classes.group
    reps = classes.representatives[classes.class_index]
    return group.mul(group.inverses[reps], np.arange(group.order))


def _commutator_closure(classes: ConjugacyClassSet, c: np.ndarray, members: np.ndarray) -> Subgroup:
    """[N, G] for the union N of classes with these members: the closure of
    {[x, y] : x in N, y in G}, the union of the classes that meet c[N]."""
    cls = classes.class_index
    meets = np.zeros(len(classes), dtype=bool)
    meets[cls[c[members]]] = True
    return _closure(classes.group, np.flatnonzero(meets[cls]))


class ConjugacyClassSet:
    """The conjugacy classes of a group, ordered by smallest member index.

    ``class_index`` is a read-only array whose entry i is the class of
    element i; ``representatives[c]``, read-only too, is class c's first
    member; ``sizes[c]`` (read-only) is its size and ``members(c)`` its
    sorted members; ``size_counts`` pairs each distinct size, ascending,
    with its number of classes; ``inverse_pairing[c]`` is the class holding
    the inverses of class c.

    G = <S>, so the class of x is its orbit under x -> s^-1 x s for s in S.
    The conjugation maps of the generators are stacked as rows, a block of
    at most BLOCK_CELLS cells at a time: two gathers build a block's maps,
    held in the table's dtype; there are k <= |G| distinct generators, so
    the maps take no more bytes than the table.  Each pass pulls the least
    label from every x's images, a block's rows in one gather, then jumps
    pointers, until nothing changes.  Labels only fall, so then label[x] <=
    label[s^-1 x s] for every s and x: the label is constant along every
    cycle of every map, so on every class, and it is the class's least
    member.  No step works class by class: one stable sort of
    ``class_index`` lists every class's members.
    """

    def __init__(self, group: Group):
        self.group = group
        everyone = np.arange(group.order)
        generators = group.generator_indices
        stacked = (generators[block, None] for block in blocks(len(generators), group.order))
        maps = [group.mul(group.mul(group.inverses[s], everyone), s) for s in stacked]
        # label[x] is always a member of x's class no larger than x
        label = everyone
        while True:
            new = label
            for rows in maps:
                # cast a block at a time: gathering by the table's int16 rows takes longer
                new = np.minimum(new, np.minimum.reduce(new[rows.astype(np.intp)]))
            new = new[new]
            if not np.count_nonzero(new != label):
                break
            label = new
        # the least member of a class is its own label, and a class's number is its least member's rank
        least = label == everyone
        self.representatives = least.nonzero()[0]
        self.class_index = (np.cumsum(least) - 1)[label]
        self.sizes = np.bincount(self.class_index)
        counts = np.bincount(self.sizes)
        present = counts.nonzero()[0]
        self.size_counts = tuple(zip(present.tolist(), counts[present].tolist()))
        self._starts = np.cumsum(self.sizes) - self.sizes
        self._by_class = np.argsort(self.class_index, kind="stable")
        for a in (self.representatives, self.class_index, self.sizes, self._by_class):
            a.flags.writeable = False
        self.inverse_pairing = tuple(self.class_index[group.inverses[self.representatives]].tolist())

    def __len__(self) -> int:
        return len(self.representatives)

    def members(self, c: int) -> np.ndarray:
        """Class c's members, sorted and read-only."""
        start = self._starts[c]
        return self._by_class[start : start + self.sizes[c]]


def conjugacy_classes(group: Group) -> ConjugacyClassSet:
    return ConjugacyClassSet(group)


class Subgroup:
    """A subgroup as a sorted index array into the parent's element
    enumeration.  ``generators`` generate it: the seeds ``_closure`` adjoined
    for a closure-built subgroup, the members for any other.  Both arrays
    are made read-only, and the attributes cannot be reassigned."""

    __slots__ = ("parent", "members", "generators")

    def __init__(self, parent: Group, members: np.ndarray, generators: Optional[np.ndarray] = None):
        generators = members if generators is None else generators
        members.flags.writeable = generators.flags.writeable = False
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Subgroup is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return Subgroup, (self.parent, self.members, self.generators)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and np.array_equal(other.members, self.members)
        )

    @property
    def order(self) -> int:
        return len(self.members)

    def mask(self) -> np.ndarray:
        """Membership as a boolean mask over the parent's enumeration."""
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[self.members] = True
        return inside

    def is_normal(self) -> bool:
        """Explicit check: conjugate every member by every parent generator."""
        g = self.parent
        gens = g.generator_indices[:, None]
        conj = g.mul(g.mul(g.inverses[gens], self.members), gens)
        return bool(self.mask()[conj].all())

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def _closure(group: Group, seed: np.ndarray) -> Subgroup:
    """Subgroup generated by the seed index array (identity always included),
    with the seeds it adjoined as its generators.

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
    for s in np.unique(seed).tolist():
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
    return Subgroup(group, np.flatnonzero(inside), np.array(gens, dtype=np.intp))


def trivial_subgroup(group: Group) -> Subgroup:
    group._require_cache()
    return Subgroup(group, np.array([group.identity_index], dtype=np.intp))


def centralizer(group: Group, indices: np.ndarray) -> Subgroup:
    """Elements commuting with every element of the index array."""
    return Subgroup(group, _where_all(_rows(np.arange(group.order), indices, _commutes(group))))


def centre(group: Group) -> Subgroup:
    return centralizer(group, group.generator_indices)


def normalizer(group: Group, sub: Subgroup) -> Subgroup:
    """Elements g with g^-1 s g in sub for every generator s of sub."""
    if sub.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    inside = sub.mask()

    def conjugate_inside(g, m):  # g^-1 m g in sub
        return inside[group.mul(group.mul(group.inverses[g], m), g)]

    return Subgroup(group, _where_all(_rows(np.arange(group.order), sub.generators, conjugate_inside)))


def derived_subgroup(classes: ConjugacyClassSet) -> Subgroup:
    """Closure of all commutators [x, y]: the classes that meet c."""
    return _commutator_closure(classes, _class_commutators(classes), np.arange(classes.group.order))


def derived_of(sub: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup over every pair of it (its classes are not the parent's)."""
    seen = np.zeros(sub.parent.order, dtype=bool)
    for _, row in _rows(sub.members, sub.members, _commutator(sub.parent)):
        seen[row] = True
    return _closure(sub.parent, np.flatnonzero(seen))


def commutator_subgroup_of(sub: Subgroup, classes: ConjugacyClassSet) -> Subgroup:
    """[N, G] for N normal in G; raises if N is not normal."""
    if sub.parent is not classes.group:
        raise ValueError("subgroup does not belong to this group")
    if not sub.is_normal():
        raise ValueError("subgroup is not normal in its parent")
    return _commutator_closure(classes, _class_commutators(classes), sub.members)


def lower_central_last(classes: ConjugacyClassSet, derived: Subgroup) -> Subgroup:
    """Stable term of the lower central series K_{i+1} = [K_i, G], from K_2 = G' (``derived``)."""
    current, c = derived, _class_commutators(classes)
    while (nxt := _commutator_closure(classes, c, current.members)) != current:
        current = nxt
    return current


def hypercentre(classes: ConjugacyClassSet, centre: Subgroup) -> Subgroup:
    """Stable term of the upper central series, from the centre Z(G).

    Z_1 = Z(G); Z_{i+1} = {x : [x, g] in Z_i for all g}, iterated until the
    set stops growing.  Z_i is a union of classes, so a step keeps the
    classes of the r with r^-1 Cl(r) inside Z_i: those whose c values all lie
    in Z_i.
    """
    current, cls, c = centre, classes.class_index, _class_commutators(classes)
    while True:
        kept = np.ones(len(classes), dtype=bool)
        kept[cls[~current.mask()[c]]] = False
        nxt = Subgroup(current.parent, np.flatnonzero(kept[cls]))
        if nxt == current:
            return current
        current = nxt


def p_residual(group: Group, p: int) -> Subgroup:
    """Smallest normal subgroup with p-group quotient: closure of all p'-elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    group._require_cache()
    return _closure(group, np.flatnonzero(group.element_orders % p != 0))


def p_prime_residual(group: Group, p: int) -> Subgroup:
    """Smallest normal subgroup with p'-group quotient: closure of all p-elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _closure(group, np.flatnonzero(_pi_mask(group, (p,))))


def _pi_mask(group: Group, pi: Iterable[int]) -> np.ndarray:
    """Whether each element's order is a pi-number: every order divides |G|,
    so it is one iff it divides |G|_pi."""
    group._require_cache()
    part = math.prod(p ** valuation(group.order, p) for p in prime_set(pi))
    return part % group.element_orders == 0


def sylow_subgroup(group: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically.

    Starting from the trivial subgroup, repeatedly adjoin the least-index
    p-element x of N_G(P) \\ P and close <P, x> from P's generators and x;
    each step multiplies |P| by a power of p, so the loop reaches |G|_p
    exactly.  Returns the trivial subgroup when p does not divide |G|.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    p_elements = _pi_mask(group, (p,))
    target = p ** valuation(group.order, p)
    sub = trivial_subgroup(group)
    while sub.order < target:
        candidates = normalizer(group, sub).mask() & p_elements
        candidates[sub.members] = False
        sub = _closure(group, np.append(sub.generators, np.argmax(candidates)))
    return sub


def pi_elements_subgroup(classes: ConjugacyClassSet, pi: Iterable[int]) -> Optional[Subgroup]:
    """The set S of pi-elements as a Subgroup iff it is product-closed, else None.

    S is a union of classes, so S S lies in S iff r S does for each class
    representative r in S (x = g^-1 r g gives x S = g^-1 (r S) g).  When S is
    closed it is the unique normal Hall pi-subgroup of the group.
    """
    group, reps = classes.group, classes.representatives
    inside = _pi_mask(group, pi)
    members = np.flatnonzero(inside)
    rows = _rows(reps[inside[reps]], members, lambda a, b: inside[group.mul(a, b)])
    return Subgroup(group, members) if all(row.all() for _, row in rows) else None


@dataclass(frozen=True)
class DirectProductWitness:
    """Outcome of testing G = P x H for P the p-part and H the p'-part; the
    p'-part is tried only when the p-part is a subgroup."""

    holds: bool
    p_part: Optional[Subgroup]
    p_complement: Optional[Subgroup]


def is_direct_product_p(classes: ConjugacyClassSet, p: int) -> DirectProductWitness:
    """True iff both the p-elements and the p'-elements form subgroups.

    Both sets are conjugation-invariant, so success makes them normal with
    trivial intersection and complementary orders: G = P x H automatically.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    p_side = pi_elements_subgroup(classes, (p,))
    if p_side is None:
        return DirectProductWitness(False, None, None)
    h_side = pi_elements_subgroup(classes, tuple(q for q in primes_of(classes.group.order) if q != p))
    return DirectProductWitness(h_side is not None, p_side, h_side)


def has_central_hall(hall: Optional[Subgroup], centre: Subgroup) -> bool:
    """The pi-elements form a subgroup lying inside the centre, given the
    pi_elements_subgroup result ``hall`` and the centre."""
    return hall is not None and bool(centre.mask()[hall.members].all())


def has_normal_abelian_hall(hall: Optional[Subgroup], classes: ConjugacyClassSet) -> bool:
    """The pi-elements form an abelian subgroup (necessarily a normal Hall
    one), given the pi_elements_subgroup result ``hall``: being normal, it is
    abelian iff each class representative in it commutes with all of it."""
    if hall is None:
        return False
    reps = classes.representatives[hall.mask()[classes.representatives]]
    return all(row.all() for _, row in _rows(reps, hall.members, _commutes(hall.parent)))


def q_r_elements_commute(classes: ConjugacyClassSet, p: int) -> bool:
    """For all distinct primes q, r != p dividing |G|, every q-element
    commutes with every r-element.  Both sets are unions of classes, so each
    class representative among the q-elements is tested against every
    r-element, which still covers every pair."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    group, reps = classes.group, classes.representatives
    others = [q for q in primes_of(group.order) if q != p]
    masks = {q: _pi_mask(group, (q,)) for q in others}
    commutes = _commutes(group)
    for q, r in combinations(others, 2):
        if not all(row.all() for _, row in _rows(reps[masks[q][reps]], np.flatnonzero(masks[r]), commutes)):
            return False
    return True
