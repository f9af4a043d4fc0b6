"""Two-sided verification of every degree/class-size criterion.

Each criterion evaluates an invariant-side condition and a structure-side
condition, through code paths disjoint but where named, and reports whether
they agree:

* invariant sides read |G|, the degree frequency m (note m(1) = |G:G'|)
  and the class size frequency w (note w(1) = |Z(G)|), via the metrics
  module, and an oracle only for what their statement names: the subgroup
  order an identity or divisibility relates to them, the Hall subgroups of
  direct_product_necessity_u and _s, and direct_product_by_u_p_commuting's
  commuting q- and r-elements (structure.q_r_elements_commute);
* structure sides call only the brute-force oracles of the structure module.

CATALOG holds one row per criterion: its id, its kind, its scope (global,
per prime of |G|, or per set pi of primes of |G|), when it is experimental,
a one-line statement, and the two side functions.  `degclass criteria`
prints it.  How a verdict's sides must relate follows from the kind alone:
an equivalence needs both sides equal, an implication needs the invariant
side (the hypothesis) to imply the structure side (the conclusion), and an
identity or divisibility is unconditional, so only its invariant side counts
and the structure side reports the subgroup orders it reads.

The experimental rows are evaluated only for |pi| >= 2.  They are not
theorems (the p-versions are known not to generalize in any obvious way),
so a disagreement there is reported but never fatal; the corpus does contain
genuine experimental disagreements.

Primes that do not divide |G| are skipped rather than evaluated: every
criterion is degenerately true there (evaluating a row at a set holding
one raises ValueError).  run_all_criteria therefore ranges over the primes of
|G| and the subsets of those primes only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from .arith import PrimeSet, pi_sets, prime_set, primes_of
from .chardeg import DegreeFrequency
from .group import Group
from .metrics import ClassSizeFrequency, class_size_frequency, pi_complement, pi_part
from . import chardeg, metrics, structure
from .structure import ConjugacyClassSet, Subgroup, conjugacy_classes

EQUIVALENCE = "equivalence"
IMPLICATION = "implication"
IDENTITY = "identity"
DIVISIBILITY = "divisibility"

GLOBAL = "global"
PER_PRIME = "per prime"
PER_PI = "per pi-set"

# when a row's verdicts are experimental; ALWAYS rows run only at |pi| >= 2
NEVER = "never"
WIDE_PI = "|pi| >= 2"
ALWAYS = "always"

Numbers = tuple[tuple[str, int], ...]


class SideResult(NamedTuple):
    """One side of a verdict: whether its condition holds (None for a side
    that only reports numbers) and the named numbers it read."""

    holds: Optional[bool]
    numbers: Numbers = ()


class CriterionVerdict(NamedTuple):
    """The verdict of one catalog row at one prime set; like SideResult an
    immutable tuple that compares by value, its fields in this order."""

    criterion: str
    group_name: str
    primes: PrimeSet
    kind: str
    invariant_side: SideResult
    structure_side: SideResult
    agrees: bool
    experimental: bool = False


def _nums(**kwargs: int) -> Numbers:
    return tuple(kwargs.items())


def _memoized(method):
    """Cache a GroupData method's result per (method name, args)."""
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        key = (name, args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return wrapper


class GroupData:
    """Per-group cache of everything criterion sides consume.

    Building one of these requires the element cache; the heavy pieces
    (conjugacy classes, the degree frequency, structural subgroups) are
    computed once and shared by all criteria.  Prime-set arguments are
    sorted tuples, as prime_set returns them.
    """

    def __init__(self, group: Group, name: str = "G"):
        group._require_cache()
        self.group = group
        self.name = name
        self.order = group.order
        self.primes = primes_of(group.order)
        self._memo: dict[tuple, object] = {}

    @cached_property
    def classes(self) -> ConjugacyClassSet:
        return conjugacy_classes(self.group)

    @cached_property
    def degree_frequency(self) -> DegreeFrequency:
        return chardeg.degrees_from_class_algebra(chardeg.class_algebra(self.group, self.classes))

    @cached_property
    def size_frequency(self) -> ClassSizeFrequency:
        return class_size_frequency(self.classes)

    # invariant-side readings
    @property
    def m1(self) -> int:
        """|G:G'| as read off the degree frequency."""
        return self.degree_frequency.multiplicity(1)

    @property
    def w1(self) -> int:
        """|Z(G)| as read off the class size frequency."""
        return self.size_frequency.count(1)

    @_memoized
    def u(self, pi: PrimeSet) -> int:
        return metrics.u_pi(self.degree_frequency, pi)

    @_memoized
    def s(self, pi: PrimeSet) -> int:
        return metrics.s_pi_size(self.classes, pi)

    @_memoized
    def complement(self, pi: PrimeSet) -> PrimeSet:
        return pi_complement(pi, self.order)

    def u_prime(self, pi: PrimeSet) -> int:
        """u_pi'(G)."""
        return self.u(self.complement(pi))

    def s_prime(self, pi: PrimeSet) -> int:
        """|S_pi'(G)|."""
        return self.s(self.complement(pi))

    # structure-side oracles, looked up on the structure module at call time
    @cached_property
    def centre(self) -> Subgroup:
        return structure.centre(self.group)

    @cached_property
    def derived(self) -> Subgroup:
        return structure.derived_subgroup(self.classes)

    @cached_property
    def hypercentre(self) -> Subgroup:
        return structure.hypercentre(self.classes, self.centre)

    @cached_property
    def nilpotent_residual(self) -> Subgroup:
        return structure.lower_central_last(self.classes, self.derived)

    @_memoized
    def sylow(self, p: int) -> Subgroup:
        return structure.sylow_subgroup(self.group, p)

    @_memoized
    def residual(self, p: int) -> Subgroup:
        return structure.p_residual(self.classes, p)

    @_memoized
    def prime_residual(self, p: int) -> Subgroup:
        return structure.p_prime_residual(self.group, p)

    @_memoized
    def pi_subgroup(self, pi: PrimeSet) -> Optional[Subgroup]:
        return structure.pi_elements_subgroup(self.classes, pi)

    @_memoized
    def direct_product_witness(self, p: int) -> structure.DirectProductWitness:
        return structure.is_direct_product_p(self.classes, p)

    @_memoized
    def sylow_centre_is_central(self, p: int) -> bool:
        sylow = self.sylow(p)
        # Z(P) is the part of P inside C_G(P), which is C_G of P's generators
        zp = sylow.members[structure.centralizer(self.group, sylow.generators).mask()[sylow.members]]
        return bool(self.centre.mask()[zp].all())


def _data(g: Group | GroupData, name: str = "G") -> GroupData:
    return g if isinstance(g, GroupData) else GroupData(g, name)


def _order(sub: Optional[Subgroup]) -> int:
    return sub.order if sub is not None else 0


# --- sides: relations on the first two named numbers, and shared sides ----


def _equal(nums: Numbers) -> SideResult:
    return SideResult(nums[0][1] == nums[1][1], nums)


def _divisible(nums: Numbers) -> SideResult:
    """The first number is divisible by the second."""
    return SideResult(nums[0][1] % nums[1][1] == 0, nums)


def _at_most(nums: Numbers) -> SideResult:
    return SideResult(nums[0][1] <= nums[1][1], nums)


def _info(nums: Numbers = ()) -> SideResult:
    """A side that only reports numbers (identities and divisibilities)."""
    return SideResult(None, nums)


def _no_numbers(d: GroupData, ps: PrimeSet) -> SideResult:
    return _info()


def _derived_index(d: GroupData) -> int:
    return d.order // d.derived.order


def _derived_info(d: GroupData, ps: PrimeSet) -> SideResult:
    return _info(_nums(derived_order=d.derived.order))


def _u_formula(d: GroupData, ps: PrimeSet) -> int:
    """|G|_pi' * |G:G'|_pi, the value of u_pi'(G) when G = (Hall pi) x (Hall pi')."""
    return pi_part(d.order, d.complement(ps)) * pi_part(d.m1, ps)


def _s_formula(d: GroupData, ps: PrimeSet) -> int:
    """|G|_pi' * |Z(G)|_pi, the value of |S_pi'(G)| when G = (Hall pi) x (Hall pi')."""
    return pi_part(d.order, d.complement(ps)) * pi_part(d.w1, ps)


def _u_nilpotent(d: GroupData, ps: PrimeSet) -> SideResult:
    """u_p'(G)_p = |G:G'|_p."""
    return _equal(_nums(u_p_prime_p=pi_part(d.u_prime(ps), ps), m1_p=pi_part(d.m1, ps)))


def _u_full(d: GroupData, ps: PrimeSet) -> SideResult:
    """u_p(G)_p = |G|_p."""
    return _equal(_nums(u_p_p=pi_part(d.u(ps), ps), order_p=pi_part(d.order, ps)))


def _u_p_product(d: GroupData, ps: PrimeSet) -> SideResult:
    """u_p(G) = |G|_p * |G:G'|_p'."""
    return _equal(_nums(u_p=d.u(ps), expected=pi_part(d.order, ps) * pi_part(d.m1, d.complement(ps))))


def _u_and_commuting(d: GroupData, ps: PrimeSet) -> SideResult:
    u_condition = _u_p_product(d, ps).holds
    commuting = structure.q_r_elements_commute(d.classes, ps[0])
    return SideResult(
        u_condition and commuting,
        _nums(u_p=d.u(ps), u_condition=int(u_condition), qr_commute=int(commuting)),
    )


def _s_central(d: GroupData, ps: PrimeSet) -> SideResult:
    """|S_p'(G)|_p = |Z(G)|_p."""
    return _equal(_nums(s_p_prime_p=pi_part(d.s_prime(ps), ps), w1_p=pi_part(d.w1, ps)))


def _witness(d: GroupData, ps: PrimeSet) -> SideResult:
    """G = P x H for P the p-part and H the p'-part."""
    witness = d.direct_product_witness(ps[0])
    nums = _nums(p_part_order=_order(witness.p_part), complement_order=_order(witness.p_complement))
    return SideResult(witness.holds, nums)


def _normal_complement(d: GroupData, ps: PrimeSet) -> SideResult:
    """The pi'-elements form a (normal) subgroup."""
    sub = d.pi_subgroup(d.complement(ps))
    return SideResult(sub is not None, _nums(complement_order=_order(sub)))


def _hall(d: GroupData, ps: PrimeSet, holds: bool) -> SideResult:
    return SideResult(holds, _nums(hall_order=_order(d.pi_subgroup(ps))))


def _both_halls(d: GroupData, ps: PrimeSet) -> SideResult:
    """G = (Hall pi) x (Hall pi'): both element sets are subgroups."""
    hall_pi = d.pi_subgroup(ps)
    hall_comp = d.pi_subgroup(d.complement(ps))
    nums = _nums(hall_pi_order=_order(hall_pi), hall_pi_prime_order=_order(hall_comp))
    return SideResult(hall_pi is not None and hall_comp is not None, nums)


def _commutator_is_derived(d: GroupData, ps: PrimeSet) -> SideResult:
    """A normal p-complement N exists and [N,G] = N'."""
    n = d.pi_subgroup(d.complement(ps))
    if n is None:
        return SideResult(False, _nums(complement_order=0))
    ng = structure.commutator_subgroup_of(n, d.classes)
    nder = structure.derived_of(n)
    nums = _nums(complement_order=n.order, commutator_with_group=ng.order, complement_derived=nder.order)
    return SideResult(ng == nder, nums)


# --- the catalog -----------------------------------------------------------


Side = Callable[[GroupData, PrimeSet], SideResult]


@dataclass(frozen=True)
class Criterion:
    id: str
    kind: str
    scope: str
    experimental: str
    statement: str
    invariant: Side
    structure: Side


CATALOG = (
    Criterion(
        "nilpotent_residual_index_product", IDENTITY, GLOBAL, NEVER, "|G : K_inf(G)| = prod_p u_p(G)_p",
        lambda d, ps: _equal(_nums(
            u_part_product=math.prod(pi_part(d.u((p,)), (p,)) for p in ps),
            residual_index=d.order // d.nilpotent_residual.order)),
        lambda d, ps: _info(_nums(residual_order=d.nilpotent_residual.order))),
    Criterion(
        "isaacs_divisibility", DIVISIBILITY, PER_PRIME, NEVER, "|G:G'|_p divides u_p'(G)",
        lambda d, ps: _divisible(_nums(
            u_p_prime=d.u_prime(ps), index_derived_p=pi_part(_derived_index(d), ps))),
        _derived_info),
    Criterion(
        "isaacs_p_nilpotent", EQUIVALENCE, PER_PRIME, NEVER,
        "u_p'(G)_p = |G:G'|_p  <->  normal p-complement",
        _u_nilpotent, _normal_complement),
    Criterion(
        "cossey_hawkes_residual_index", IDENTITY, PER_PRIME, NEVER, "u_p(G)_p = |G : O^p(G)|",
        lambda d, ps: _equal(_nums(
            u_p_p=pi_part(d.u(ps), ps), residual_index=d.order // d.residual(ps[0]).order)),
        lambda d, ps: _info(_nums(residual_order=d.residual(ps[0]).order))),
    Criterion(
        "cossey_hawkes_p_nilpotent", EQUIVALENCE, PER_PRIME, NEVER,
        "u_p(G)_p = |G|_p  <->  normal p-complement",
        _u_full, _normal_complement),
    Criterion(
        "direct_product_by_u_pprime", EQUIVALENCE, PER_PRIME, NEVER,
        "u_p'(G) = |G|_p' * |G:G'|_p  <->  G = P x H",
        lambda d, ps: _equal(_nums(u_p_prime=d.u_prime(ps), expected=_u_formula(d, ps))),
        _witness),
    Criterion(
        "complement_commutator_by_u_p", EQUIVALENCE, PER_PRIME, NEVER,
        "u_p(G) = |G|_p * |G:G'|_p'  <->  normal p-complement N with [N,G] = N'",
        _u_p_product, _commutator_is_derived),
    Criterion(
        "direct_product_by_u_p_commuting", IMPLICATION, PER_PRIME, NEVER,
        "u_p(G) = |G|_p * |G:G'|_p' and q-, r-elements commute for q, r != p  =>  G = P x H",
        _u_and_commuting, _witness),
    Criterion(
        "u_pprime_part_bound", IMPLICATION, PER_PRIME, NEVER,
        "u_p'(G)_p = |G:G'|_p  =>  u_p'(G)_p' <= |G|_p'",
        _u_nilpotent,
        lambda d, ps: _at_most(_nums(
            u_p_prime_pprime=pi_part(d.u_prime(ps), d.complement(ps)),
            order_pprime=pi_part(d.order, d.complement(ps))))),
    Criterion(
        "u_p_part_divisibility", IMPLICATION, PER_PRIME, NEVER,
        "u_p(G)_p = |G|_p  =>  |G:G'|_p' divides u_p(G)_p'",
        _u_full,
        lambda d, ps: _divisible(_nums(
            u_p_pprime=pi_part(d.u(ps), d.complement(ps)), m1_pprime=pi_part(d.m1, d.complement(ps))))),
    Criterion(
        "chm_hypercentre_part", IDENTITY, PER_PRIME, NEVER, "|Z_inf(G)|_p = |S_p(G)|_p",
        lambda d, ps: _equal(_nums(
            s_p_p=pi_part(d.s(ps), ps), hypercentre_p=pi_part(d.hypercentre.order, ps))),
        lambda d, ps: _info(_nums(hypercentre_order=d.hypercentre.order))),
    Criterion(
        "chm_direct_product_part", EQUIVALENCE, PER_PRIME, NEVER, "|S_p(G)|_p = |G|_p  <->  G = P x H",
        lambda d, ps: _equal(_nums(s_p_p=pi_part(d.s(ps), ps), order_p=pi_part(d.order, ps))),
        _witness),
    Criterion(
        "chm_direct_product_full", EQUIVALENCE, PER_PRIME, NEVER,
        "|S_p(G)| = |G|_p * |Z(G)|_p'  <->  G = P x H",
        lambda d, ps: _equal(_nums(
            s_p=d.s(ps), expected=pi_part(d.order, ps) * pi_part(d.w1, d.complement(ps)))),
        _witness),
    Criterion(
        "centre_divides_s_pprime", DIVISIBILITY, PER_PRIME, NEVER, "|Z(G)| divides |S_p'(G)|",
        lambda d, ps: _divisible(_nums(s_p_prime=d.s_prime(ps), centre_order=d.centre.order)),
        _no_numbers),
    Criterion(
        "centralizer_of_residual_divides_s_pprime", DIVISIBILITY, PER_PRIME, NEVER,
        "|C_G(O^p'(G))| divides |S_p'(G)|",
        lambda d, ps: _divisible(_nums(
            s_p_prime=d.s_prime(ps),
            centralizer_order=structure.centralizer(d.group, d.prime_residual(ps[0]).generators).order)),
        lambda d, ps: _info(_nums(prime_residual_order=d.prime_residual(ps[0]).order))),
    Criterion(
        "central_sylow_centre_by_s_pprime", EQUIVALENCE, PER_PRIME, NEVER,
        "|S_p'(G)|_p = |Z(G)|_p  <->  Z(P) <= Z(G)",
        _s_central,
        lambda d, ps: SideResult(
            d.sylow_centre_is_central(ps[0]),
            _nums(sylow_order=d.sylow(ps[0]).order, centre_order=d.centre.order))),
    Criterion(
        "direct_product_by_s_pprime", EQUIVALENCE, PER_PRIME, NEVER,
        "|S_p'(G)| = |G|_p' * |Z(G)|_p  <->  G = P x H",
        lambda d, ps: _equal(_nums(s_p_prime=d.s_prime(ps), expected=_s_formula(d, ps))),
        _witness),
    Criterion(
        "s_pprime_part_bound", IMPLICATION, PER_PRIME, NEVER,
        "|S_p'(G)|_p = |Z(G)|_p  =>  |S_p'(G)| <= |G|_p' * |Z(G)|_p",
        _s_central,
        lambda d, ps: _at_most(_nums(s_p_prime=d.s_prime(ps), bound=_s_formula(d, ps)))),
    Criterion(
        "ito_michler", EQUIVALENCE, PER_PI, NEVER,
        "u_pi'(G) = |G|  <->  normal abelian Hall pi-subgroup",
        lambda d, ps: _equal(_nums(u_pi_prime=d.u_prime(ps), order=d.order, u_pi=d.u(ps), m1=d.m1)),
        lambda d, ps: _hall(d, ps, structure.has_normal_abelian_hall(d.pi_subgroup(ps), d.classes))),
    Criterion(
        "huppert_central_hall", EQUIVALENCE, PER_PI, WIDE_PI,
        "|S_pi'(G)| = |G|  <->  central Hall pi-subgroup",
        lambda d, ps: _equal(_nums(s_pi_prime=d.s_prime(ps), order=d.order)),
        lambda d, ps: _hall(d, ps, structure.has_central_hall(d.pi_subgroup(ps), d.centre))),
    Criterion(
        "index_pi_divides_u_piprime", DIVISIBILITY, PER_PI, NEVER, "|G:G'|_pi divides u_pi'(G)",
        lambda d, ps: _divisible(_nums(
            u_pi_prime=d.u_prime(ps), index_derived_pi=pi_part(_derived_index(d), ps))),
        _derived_info),
    Criterion(
        "centre_divides_s_piprime", DIVISIBILITY, PER_PI, NEVER, "|Z(G)| divides |S_pi'(G)|",
        lambda d, ps: _divisible(_nums(s_pi_prime=d.s_prime(ps), centre_order=d.centre.order)),
        _no_numbers),
    Criterion(
        "direct_product_necessity_u", IMPLICATION, PER_PI, NEVER,
        "G = (Hall pi) x (Hall pi')  =>  u_pi'(G) = |G|_pi' * |G:G'|_pi",
        _both_halls,
        lambda d, ps: _equal(_nums(u_pi_prime=d.u_prime(ps), expected=_u_formula(d, ps)))),
    Criterion(
        "direct_product_necessity_s", IMPLICATION, PER_PI, NEVER,
        "G = (Hall pi) x (Hall pi')  =>  |S_pi'(G)| = |G|_pi' * |Z(G)|_pi",
        _both_halls,
        lambda d, ps: _equal(_nums(s_pi_prime=d.s_prime(ps), expected=_s_formula(d, ps)))),
    Criterion(
        "isaacs_pi_nilpotent", EQUIVALENCE, PER_PI, ALWAYS,
        "u_pi'(G)_pi = |G:G'|_pi  <->  normal pi-complement (pi-set version of isaacs_p_nilpotent)",
        lambda d, ps: _equal(_nums(u_pi_prime_pi=pi_part(d.u_prime(ps), ps), m1_pi=pi_part(d.m1, ps))),
        _normal_complement),
    Criterion(
        "central_sylow_centres_by_s_piprime", EQUIVALENCE, PER_PI, ALWAYS,
        "|S_pi'(G)|_pi = |Z(G)|_pi  <->  Z(P) <= Z(G) for a Sylow p-subgroup P, every p in pi",
        lambda d, ps: _equal(_nums(s_pi_prime_pi=pi_part(d.s_prime(ps), ps), w1_pi=pi_part(d.w1, ps))),
        lambda d, ps: SideResult(all(d.sylow_centre_is_central(p) for p in ps), ())),
)

CRITERIA = {row.id: row for row in CATALOG}


def _agrees(kind: str, inv: Optional[bool], struct: Optional[bool]) -> bool:
    if kind == EQUIVALENCE:
        return inv == struct
    if kind == IMPLICATION:
        return (not inv) or struct
    return inv


def evaluate(g: Group | GroupData, criterion_id: str, primes: Iterable[int] = ()) -> CriterionVerdict:
    """The verdict of one catalog row at one prime set.

    A per-prime row takes a one-prime set and a per-pi row any set, whose
    primes all divide |G|; the global row always ranges over every prime of
    |G| and ignores primes."""
    row = CRITERIA[criterion_id]
    data = _data(g)
    ps = data.primes if row.scope == GLOBAL else prime_set(primes)
    if row.scope == PER_PRIME and len(ps) != 1:
        raise ValueError(f"{criterion_id} takes one prime, got {ps}")
    for p in ps:
        if p not in data.primes:
            raise ValueError(f"{p} does not divide the group order {data.order}")
    inv = row.invariant(data, ps)
    struct = row.structure(data, ps)
    experimental = row.experimental == ALWAYS or (row.experimental == WIDE_PI and len(ps) >= 2)
    return CriterionVerdict(
        row.id, data.name, ps, row.kind, inv, struct, _agrees(row.kind, inv.holds, struct.holds), experimental
    )


def run_all_criteria(
    g: Group | GroupData, name: str = "G", pi_bound: int = 2
) -> list[CriterionVerdict]:
    """Every criterion for every prime of |G| and every prime subset with
    |pi| <= pi_bound, in catalog order within each scope: the global row,
    the per-prime rows prime by prime, then the per-pi rows pi-set by pi-set."""
    data = _data(g, name)
    rows = {scope: [r for r in CATALOG if r.scope == scope] for scope in (GLOBAL, PER_PRIME, PER_PI)}
    runs = [(r, ()) for r in rows[GLOBAL]]
    runs += [(r, (p,)) for p in data.primes for r in rows[PER_PRIME]]
    runs += [
        (r, ps)
        for ps in pi_sets(data.primes, pi_bound)
        for r in rows[PER_PI]
        if r.experimental != ALWAYS or len(ps) >= 2
    ]
    return [evaluate(data, r.id, ps) for r, ps in runs]
