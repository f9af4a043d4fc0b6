"""Two-sided verification of every degree/class-size criterion.

Each check evaluates an invariant-side condition and a structure-side
condition through disjoint code paths and reports whether they agree:

* invariant sides read only |G|, the degree frequency m (note m(1) = |G:G'|)
  and the class size frequency w (note w(1) = |Z(G)|), via the metrics
  module;
* structure sides call only the brute-force oracles of the structure module.

The catalog, keyed by criterion id (E = equivalence, I = implication,
D/N = unconditional divisibility or identity):

==============================================  ====================================================
ito_michler (E)                                  u_pi'(G) = |G|  <->  normal abelian Hall pi-subgroup
isaacs_divisibility (D)                          |G:G'|_p divides u_p'(G)
isaacs_p_nilpotent (E)                           u_p'(G)_p = |G:G'|_p  <->  normal p-complement
cossey_hawkes_residual_index (N)                 u_p(G)_p = |G : O^p(G)|
cossey_hawkes_p_nilpotent (E)                    u_p(G)_p = |G|_p  <->  normal p-complement
nilpotent_residual_index_product (N)             |G : K_inf(G)| = prod_p u_p(G)_p
direct_product_by_u_pprime (E)                   u_p'(G) = |G|_p' * |G:G'|_p  <->  G = P x H
complement_commutator_by_u_p (E)                 u_p(G) = |G|_p * |G:G'|_p'  <->  normal p-complement
                                                 N with [N,G] = N'
direct_product_by_u_p_commuting (I)              the u_p condition plus q-/r-element commuting for
                                                 q,r != p  =>  G = P x H
u_pprime_part_bound (I)                          u_p'(G)_p = |G:G'|_p  =>  u_p'(G)_p' <= |G|_p'
u_p_part_divisibility (I)                        u_p(G)_p = |G|_p  =>  |G:G'|_p' divides u_p(G)_p'
huppert_central_hall (E)                         |S_pi'(G)| = |G|  <->  central Hall pi-subgroup
chm_hypercentre_part (N)                         |Z_inf(G)|_p = |S_p(G)|_p
chm_direct_product_part (E)                      |S_p(G)|_p = |G|_p  <->  G = P x H
chm_direct_product_full (E)                      |S_p(G)| = |G|_p * |Z(G)|_p'  <->  G = P x H
centre_divides_s_pprime (D)                      |Z(G)| divides |S_p'(G)|
centralizer_of_residual_divides_s_pprime (D)     |C_G(O^p'(G))| divides |S_p'(G)|
central_sylow_centre_by_s_pprime (E)             |S_p'(G)|_p = |Z(G)|_p  <->  Z(P) <= Z(G)
direct_product_by_s_pprime (E)                   |S_p'(G)| = |G|_p' * |Z(G)|_p  <->  G = P x H
s_pprime_part_bound (I)                          |S_p'(G)|_p = |Z(G)|_p  =>  |S_p'(G)| <= |G|_p'*|Z(G)|_p
index_pi_divides_u_piprime (D)                   |G:G'|_pi divides u_pi'(G)
centre_divides_s_piprime (D)                     |Z(G)| divides |S_pi'(G)|
direct_product_necessity_u / _s (I)              G = (Hall pi) x (Hall pi')  =>  the two product formulas
isaacs_pi_nilpotent [experimental] (E)           pi-set version of isaacs_p_nilpotent
central_sylow_centres_by_s_piprime [exp.] (E)    pi-set version of central_sylow_centre_by_s_pprime
==============================================  ====================================================

The experimental entries are evaluated only for |pi| >= 2.  They are not
theorems (the p-versions are known not to generalize in any obvious way),
so a disagreement there is reported but never fatal; the corpus does contain
genuine experimental disagreements.

Primes that do not divide |G| are skipped rather than evaluated: every
criterion is degenerately true there (the per-prime checks raise ValueError
if forced).  run_all_criteria therefore ranges over the primes of |G| and
the subsets of those primes only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .arith import PrimeSet, prime_set, primes_of
from .chardeg import DegreeFrequency
from .group import Group
from .metrics import (
    ClassSizeFrequency,
    class_size_frequency,
    pi_complement,
    pi_part,
    s_pi_size,
    u_pi,
)
from . import chardeg, structure
from .structure import (
    ConjugacyClassSet,
    DirectProductWitness,
    Subgroup,
    conjugacy_classes,
)

EQUIVALENCE = "equivalence"
IMPLICATION = "implication"
IDENTITY = "identity"
DIVISIBILITY = "divisibility"
INEQUALITY = "inequality"

Numbers = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class SideResult:
    holds: Optional[bool]
    numbers: Numbers = ()


@dataclass(frozen=True)
class CriterionVerdict:
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


class GroupData:
    """Per-group cache of everything criterion checks consume.

    Building one of these requires the element cache; the heavy pieces
    (conjugacy classes, the degree frequency, structural subgroups) are
    computed once and shared by all checks.
    """

    def __init__(self, group: Group, name: str = "G"):
        group._require_cache()
        self.group = group
        self.name = name
        self.order = group.order
        self.primes = primes_of(group.order)
        self._pi_subgroups: dict[PrimeSet, Optional[Subgroup]] = {}
        self._sylows: dict[int, Subgroup] = {}
        self._residuals: dict[int, Subgroup] = {}
        self._prime_residuals: dict[int, Subgroup] = {}
        self._dp_witnesses: dict[int, DirectProductWitness] = {}

    @cached_property
    def classes(self) -> ConjugacyClassSet:
        return conjugacy_classes(self.group)

    @cached_property
    def degree_frequency(self) -> DegreeFrequency:
        algebra = chardeg.class_algebra(self.group, self.classes)
        return chardeg.degrees_from_class_algebra(self.group, self.classes, algebra)

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

    def u(self, pi: Iterable[int]) -> int:
        return u_pi(self.degree_frequency, pi)

    def s(self, pi: Iterable[int]) -> int:
        return s_pi_size(self.classes, pi)

    def complement(self, pi: Iterable[int]) -> PrimeSet:
        return pi_complement(pi, self.order)

    # structure-side oracles
    @cached_property
    def centre(self) -> Subgroup:
        return structure.centre(self.group)

    @cached_property
    def derived(self) -> Subgroup:
        return structure.derived_subgroup(self.group)

    @cached_property
    def hypercentre(self) -> Subgroup:
        return structure.hypercentre(self.group)

    @cached_property
    def nilpotent_residual(self) -> Subgroup:
        return structure.lower_central_last(self.group)

    def sylow(self, p: int) -> Subgroup:
        if p not in self._sylows:
            self._sylows[p] = structure.sylow_subgroup(self.group, p)
        return self._sylows[p]

    def residual(self, p: int) -> Subgroup:
        if p not in self._residuals:
            self._residuals[p] = structure.p_residual(self.group, p)
        return self._residuals[p]

    def prime_residual(self, p: int) -> Subgroup:
        if p not in self._prime_residuals:
            self._prime_residuals[p] = structure.p_prime_residual(self.group, p)
        return self._prime_residuals[p]

    def pi_subgroup(self, pi: Iterable[int]) -> Optional[Subgroup]:
        key = prime_set(pi)
        if key not in self._pi_subgroups:
            self._pi_subgroups[key] = structure.pi_elements_subgroup(self.group, key)
        return self._pi_subgroups[key]

    def direct_product_witness(self, p: int) -> DirectProductWitness:
        if p not in self._dp_witnesses:
            self._dp_witnesses[p] = structure.is_direct_product_p(self.group, p)
        return self._dp_witnesses[p]

    def sylow_centre_is_central(self, p: int) -> bool:
        zp = structure.centralizer(self.group, self.sylow(p).perms())
        zp_members = zp.member_indices & self.sylow(p).member_indices
        return zp_members <= self.centre.member_indices

    def _require_prime(self, p: int) -> None:
        if p not in self.primes:
            raise ValueError(f"{p} does not divide the group order {self.order}")


def _data(g: Group | GroupData, name: str = "G") -> GroupData:
    return g if isinstance(g, GroupData) else GroupData(g, name)


# --- pi-parameterized checks -------------------------------------------------


def check_ito_michler(g: Group | GroupData, pi: Iterable[int]) -> list[CriterionVerdict]:
    """Normal abelian Hall pi-subgroup <-> every degree is a pi'-number."""
    data = _data(g)
    ps = prime_set(pi)
    comp = data.complement(ps)
    u_comp = data.u(comp)
    inv = u_comp == data.order
    struct = structure.has_normal_abelian_hall(data.group, ps)
    return [
        CriterionVerdict(
            "ito_michler",
            data.name,
            ps,
            EQUIVALENCE,
            SideResult(inv, _nums(u_pi_prime=u_comp, order=data.order, u_pi=data.u(ps), m1=data.m1)),
            SideResult(struct, _nums(hall_order=_opt_order(data.pi_subgroup(ps)))),
            inv == struct,
        )
    ]


def _opt_order(sub: Optional[Subgroup]) -> int:
    return sub.order if sub is not None else 0


def check_isaacs(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """Unconditional divisibility plus the p-nilpotency equivalence."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    u_comp = data.u(comp)
    derived_index = data.order // data.derived.order
    div_holds = u_comp % pi_part(derived_index, pp) == 0
    inv = pi_part(u_comp, pp) == pi_part(data.m1, pp)
    complement_sub = data.pi_subgroup(comp)
    struct = complement_sub is not None
    return [
        CriterionVerdict(
            "isaacs_divisibility",
            data.name,
            pp,
            DIVISIBILITY,
            SideResult(div_holds, _nums(u_p_prime=u_comp, index_derived_p=pi_part(derived_index, pp))),
            SideResult(None, _nums(derived_order=data.derived.order)),
            div_holds,
        ),
        CriterionVerdict(
            "isaacs_p_nilpotent",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv, _nums(u_p_prime_p=pi_part(u_comp, pp), m1_p=pi_part(data.m1, pp))),
            SideResult(struct, _nums(complement_order=_opt_order(complement_sub))),
            inv == struct,
        ),
    ]


def check_cossey_hawkes(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """The residual-index identity plus the p-nilpotency equivalence."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    u_p = data.u(pp)
    residual_index = data.order // data.residual(p).order
    id_holds = pi_part(u_p, pp) == residual_index
    inv = pi_part(u_p, pp) == pi_part(data.order, pp)
    complement_sub = data.pi_subgroup(data.complement(pp))
    struct = complement_sub is not None
    return [
        CriterionVerdict(
            "cossey_hawkes_residual_index",
            data.name,
            pp,
            IDENTITY,
            SideResult(id_holds, _nums(u_p_p=pi_part(u_p, pp), residual_index=residual_index)),
            SideResult(None, _nums(residual_order=data.residual(p).order)),
            id_holds,
        ),
        CriterionVerdict(
            "cossey_hawkes_p_nilpotent",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv, _nums(u_p_p=pi_part(u_p, pp), order_p=pi_part(data.order, pp))),
            SideResult(struct, _nums(complement_order=_opt_order(complement_sub))),
            inv == struct,
        ),
    ]


def check_k_infty_product(g: Group | GroupData) -> list[CriterionVerdict]:
    """|G : K_inf(G)| equals the product of the p-parts u_p(G)_p."""
    data = _data(g)
    product = 1
    for p in data.primes:
        product *= pi_part(data.u((p,)), (p,))
    residual_index = data.order // data.nilpotent_residual.order
    holds = product == residual_index
    return [
        CriterionVerdict(
            "nilpotent_residual_index_product",
            data.name,
            data.primes,
            IDENTITY,
            SideResult(holds, _nums(u_part_product=product, residual_index=residual_index)),
            SideResult(None, _nums(residual_order=data.nilpotent_residual.order)),
            holds,
        )
    ]


def check_direct_product_by_u(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """u_p'(G) = |G|_p' * |G:G'|_p <-> G is the product of its p- and p'-parts."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    u_comp = data.u(data.complement(pp))
    expected = pi_part(data.order, data.complement(pp)) * pi_part(data.m1, pp)
    inv = u_comp == expected
    witness = data.direct_product_witness(p)
    return [
        CriterionVerdict(
            "direct_product_by_u_pprime",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv, _nums(u_p_prime=u_comp, expected=expected)),
            _witness_side(witness),
            inv == witness.holds,
        )
    ]


def _witness_side(witness: DirectProductWitness) -> SideResult:
    nums = _nums(
        p_part_order=_opt_order(witness.p_part),
        complement_order=_opt_order(witness.p_complement),
    )
    return SideResult(witness.holds, nums)


def check_complement_commutator_by_u(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """u_p(G) = |G|_p * |G:G'|_p' <-> normal p-complement N with [N,G] = N'."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    u_p = data.u(pp)
    expected = pi_part(data.order, pp) * pi_part(data.m1, comp)
    inv = u_p == expected
    n = data.pi_subgroup(comp)
    if n is None:
        struct = False
        nums = _nums(complement_order=0)
    else:
        ng = structure.commutator_subgroup_of(n, data.group)
        nder = structure.derived_of(n)
        struct = ng.member_indices == nder.member_indices
        nums = _nums(
            complement_order=n.order,
            commutator_with_group=ng.order,
            complement_derived=nder.order,
        )
    return [
        CriterionVerdict(
            "complement_commutator_by_u_p",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv, _nums(u_p=u_p, expected=expected)),
            SideResult(struct, nums),
            inv == struct,
        )
    ]


def check_direct_product_with_commuting(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """The u_p product condition plus commuting q-/r-elements forces G = P x H."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    u_condition = data.u(pp) == pi_part(data.order, pp) * pi_part(data.m1, comp)
    commuting = structure.q_r_elements_commute(data.group, p)
    hypothesis = u_condition and commuting
    witness = data.direct_product_witness(p)
    agrees = (not hypothesis) or witness.holds
    return [
        CriterionVerdict(
            "direct_product_by_u_p_commuting",
            data.name,
            pp,
            IMPLICATION,
            SideResult(
                hypothesis,
                _nums(u_p=data.u(pp), u_condition=int(u_condition), qr_commute=int(commuting)),
            ),
            _witness_side(witness),
            agrees,
        )
    ]


def check_u_part_bounds(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """The two conditional extremal relations on the parts of u."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    u_comp = data.u(comp)
    u_p = data.u(pp)

    hyp_a = pi_part(u_comp, pp) == pi_part(data.m1, pp)
    concl_a = pi_part(u_comp, comp) <= pi_part(data.order, comp)
    hyp_b = pi_part(u_p, pp) == pi_part(data.order, pp)
    concl_b = pi_part(u_p, comp) % pi_part(data.m1, comp) == 0
    return [
        CriterionVerdict(
            "u_pprime_part_bound",
            data.name,
            pp,
            IMPLICATION,
            SideResult(hyp_a, _nums(u_p_prime_p=pi_part(u_comp, pp), m1_p=pi_part(data.m1, pp))),
            SideResult(
                concl_a,
                _nums(u_p_prime_pprime=pi_part(u_comp, comp), order_pprime=pi_part(data.order, comp)),
            ),
            (not hyp_a) or concl_a,
        ),
        CriterionVerdict(
            "u_p_part_divisibility",
            data.name,
            pp,
            IMPLICATION,
            SideResult(hyp_b, _nums(u_p_p=pi_part(u_p, pp), order_p=pi_part(data.order, pp))),
            SideResult(
                concl_b,
                _nums(u_p_pprime=pi_part(u_p, comp), m1_pprime=pi_part(data.m1, comp)),
            ),
            (not hyp_b) or concl_b,
        ),
    ]


def check_huppert(g: Group | GroupData, pi: Iterable[int]) -> list[CriterionVerdict]:
    """Central Hall pi-subgroup <-> every class size is a pi'-number.

    The single-prime case is the classical theorem; for |pi| >= 2 the check
    is evaluated as an experiment (the structure side reads 'central normal
    Hall pi-subgroup')."""
    data = _data(g)
    ps = prime_set(pi)
    comp = data.complement(ps)
    s_comp = data.s(comp)
    inv = s_comp == data.order
    struct = structure.has_central_hall(data.group, ps)
    return [
        CriterionVerdict(
            "huppert_central_hall",
            data.name,
            ps,
            EQUIVALENCE,
            SideResult(inv, _nums(s_pi_prime=s_comp, order=data.order)),
            SideResult(struct, _nums(hall_order=_opt_order(data.pi_subgroup(ps)))),
            inv == struct,
            experimental=len(ps) >= 2,
        )
    ]


def check_chm(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """Hypercentre identity and the two direct-product readings of S_p."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    s_p = data.s(pp)
    hyper_p = pi_part(data.hypercentre.order, pp)
    id_holds = hyper_p == pi_part(s_p, pp)
    witness = data.direct_product_witness(p)

    inv_b = pi_part(s_p, pp) == pi_part(data.order, pp)
    inv_c = s_p == pi_part(data.order, pp) * pi_part(data.w1, data.complement(pp))
    return [
        CriterionVerdict(
            "chm_hypercentre_part",
            data.name,
            pp,
            IDENTITY,
            SideResult(id_holds, _nums(s_p_p=pi_part(s_p, pp), hypercentre_p=hyper_p)),
            SideResult(None, _nums(hypercentre_order=data.hypercentre.order)),
            id_holds,
        ),
        CriterionVerdict(
            "chm_direct_product_part",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv_b, _nums(s_p_p=pi_part(s_p, pp), order_p=pi_part(data.order, pp))),
            _witness_side(witness),
            inv_b == witness.holds,
        ),
        CriterionVerdict(
            "chm_direct_product_full",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(
                inv_c,
                _nums(s_p=s_p, expected=pi_part(data.order, pp) * pi_part(data.w1, data.complement(pp))),
            ),
            _witness_side(witness),
            inv_c == witness.holds,
        ),
    ]


def check_centre_class_sizes(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """Centre divisibility, the stronger centralizer divisor, and the
    central-Sylow-centre equivalence for S_p'."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    s_comp = data.s(comp)
    z_order = data.centre.order
    div_z = s_comp % z_order == 0
    strong = structure.centralizer(data.group, data.prime_residual(p).perms())
    div_strong = s_comp % strong.order == 0
    inv = pi_part(s_comp, pp) == pi_part(data.w1, pp)
    struct = data.sylow_centre_is_central(p)
    return [
        CriterionVerdict(
            "centre_divides_s_pprime",
            data.name,
            pp,
            DIVISIBILITY,
            SideResult(div_z, _nums(s_p_prime=s_comp, centre_order=z_order)),
            SideResult(None, ()),
            div_z,
        ),
        CriterionVerdict(
            "centralizer_of_residual_divides_s_pprime",
            data.name,
            pp,
            DIVISIBILITY,
            SideResult(div_strong, _nums(s_p_prime=s_comp, centralizer_order=strong.order)),
            SideResult(None, _nums(prime_residual_order=data.prime_residual(p).order)),
            div_strong,
        ),
        CriterionVerdict(
            "central_sylow_centre_by_s_pprime",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv, _nums(s_p_prime_p=pi_part(s_comp, pp), w1_p=pi_part(data.w1, pp))),
            SideResult(struct, _nums(sylow_order=data.sylow(p).order, centre_order=z_order)),
            inv == struct,
        ),
    ]


def check_direct_product_by_s(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """|S_p'(G)| = |G|_p' * |Z(G)|_p <-> G is the product of its p- and p'-parts."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    s_comp = data.s(comp)
    expected = pi_part(data.order, comp) * pi_part(data.w1, pp)
    inv = s_comp == expected
    witness = data.direct_product_witness(p)
    return [
        CriterionVerdict(
            "direct_product_by_s_pprime",
            data.name,
            pp,
            EQUIVALENCE,
            SideResult(inv, _nums(s_p_prime=s_comp, expected=expected)),
            _witness_side(witness),
            inv == witness.holds,
        )
    ]


def check_s_part_bound(g: Group | GroupData, p: int) -> list[CriterionVerdict]:
    """If |S_p'(G)|_p is minimal then |S_p'(G)| <= |G|_p' * |Z(G)|_p."""
    data = _data(g)
    data._require_prime(p)
    pp = (p,)
    comp = data.complement(pp)
    s_comp = data.s(comp)
    hyp = pi_part(s_comp, pp) == pi_part(data.w1, pp)
    bound = pi_part(data.order, comp) * pi_part(data.w1, pp)
    concl = s_comp <= bound
    return [
        CriterionVerdict(
            "s_pprime_part_bound",
            data.name,
            pp,
            IMPLICATION,
            SideResult(hyp, _nums(s_p_prime_p=pi_part(s_comp, pp), w1_p=pi_part(data.w1, pp))),
            SideResult(concl, _nums(s_p_prime=s_comp, bound=bound)),
            (not hyp) or concl,
        )
    ]


def check_pi_divisibilities(g: Group | GroupData, pi: Iterable[int]) -> list[CriterionVerdict]:
    """|G:G'|_pi divides u_pi'(G); |Z(G)| divides |S_pi'(G)| (all pi)."""
    data = _data(g)
    ps = prime_set(pi)
    comp = data.complement(ps)
    u_comp = data.u(comp)
    s_comp = data.s(comp)
    derived_index = data.order // data.derived.order
    div_u = u_comp % pi_part(derived_index, ps) == 0
    z_order = data.centre.order
    div_s = s_comp % z_order == 0
    return [
        CriterionVerdict(
            "index_pi_divides_u_piprime",
            data.name,
            ps,
            DIVISIBILITY,
            SideResult(div_u, _nums(u_pi_prime=u_comp, index_derived_pi=pi_part(derived_index, ps))),
            SideResult(None, _nums(derived_order=data.derived.order)),
            div_u,
        ),
        CriterionVerdict(
            "centre_divides_s_piprime",
            data.name,
            ps,
            DIVISIBILITY,
            SideResult(div_s, _nums(s_pi_prime=s_comp, centre_order=z_order)),
            SideResult(None, ()),
            div_s,
        ),
    ]


def check_direct_product_necessity(g: Group | GroupData, pi: Iterable[int]) -> list[CriterionVerdict]:
    """If G is the product of a Hall pi- and a Hall pi'-subgroup, both product
    formulas hold: u_pi'(G) = |G|_pi' * |G:G'|_pi and |S_pi'(G)| = |G|_pi' * |Z(G)|_pi."""
    data = _data(g)
    ps = prime_set(pi)
    comp = data.complement(ps)
    hall_pi = data.pi_subgroup(ps)
    hall_comp = data.pi_subgroup(comp)
    hyp = hall_pi is not None and hall_comp is not None
    u_comp = data.u(comp)
    s_comp = data.s(comp)
    expected_u = pi_part(data.order, comp) * pi_part(data.m1, ps)
    expected_s = pi_part(data.order, comp) * pi_part(data.w1, ps)
    concl_u = u_comp == expected_u
    concl_s = s_comp == expected_s
    hyp_side = SideResult(
        hyp, _nums(hall_pi_order=_opt_order(hall_pi), hall_pi_prime_order=_opt_order(hall_comp))
    )
    return [
        CriterionVerdict(
            "direct_product_necessity_u",
            data.name,
            ps,
            IMPLICATION,
            hyp_side,
            SideResult(concl_u, _nums(u_pi_prime=u_comp, expected=expected_u)),
            (not hyp) or concl_u,
        ),
        CriterionVerdict(
            "direct_product_necessity_s",
            data.name,
            ps,
            IMPLICATION,
            hyp_side,
            SideResult(concl_s, _nums(s_pi_prime=s_comp, expected=expected_s)),
            (not hyp) or concl_s,
        ),
    ]


def check_isaacs_pi(g: Group | GroupData, pi: Iterable[int]) -> list[CriterionVerdict]:
    """Experimental pi-set version of the p-nilpotency equivalence."""
    data = _data(g)
    ps = prime_set(pi)
    comp = data.complement(ps)
    u_comp = data.u(comp)
    inv = pi_part(u_comp, ps) == pi_part(data.m1, ps)
    complement_sub = data.pi_subgroup(comp)
    struct = complement_sub is not None
    return [
        CriterionVerdict(
            "isaacs_pi_nilpotent",
            data.name,
            ps,
            EQUIVALENCE,
            SideResult(inv, _nums(u_pi_prime_pi=pi_part(u_comp, ps), m1_pi=pi_part(data.m1, ps))),
            SideResult(struct, _nums(complement_order=_opt_order(complement_sub))),
            inv == struct,
            experimental=True,
        )
    ]


def check_central_sylow_centres_pi(g: Group | GroupData, pi: Iterable[int]) -> list[CriterionVerdict]:
    """Experimental pi-set version of the central-Sylow-centre equivalence.

    The structure side is read as: Z(P) <= Z(G) for a Sylow p-subgroup P of
    every p in pi."""
    data = _data(g)
    ps = prime_set(pi)
    comp = data.complement(ps)
    s_comp = data.s(comp)
    inv = pi_part(s_comp, ps) == pi_part(data.w1, ps)
    struct = all(data.sylow_centre_is_central(p) for p in ps)
    return [
        CriterionVerdict(
            "central_sylow_centres_by_s_piprime",
            data.name,
            ps,
            EQUIVALENCE,
            SideResult(inv, _nums(s_pi_prime_pi=pi_part(s_comp, ps), w1_pi=pi_part(data.w1, ps))),
            SideResult(struct, ()),
            inv == struct,
            experimental=True,
        )
    ]


PER_PRIME_CHECKS = (
    check_isaacs,
    check_cossey_hawkes,
    check_direct_product_by_u,
    check_complement_commutator_by_u,
    check_direct_product_with_commuting,
    check_u_part_bounds,
    check_chm,
    check_centre_class_sizes,
    check_direct_product_by_s,
    check_s_part_bound,
)

PER_PI_CHECKS = (
    check_ito_michler,
    check_huppert,
    check_pi_divisibilities,
    check_direct_product_necessity,
)

PER_PI_EXPERIMENTAL_CHECKS = (
    check_isaacs_pi,
    check_central_sylow_centres_pi,
)


def run_all_criteria(
    g: Group | GroupData, name: str = "G", pi_bound: int = 2
) -> list[CriterionVerdict]:
    """Every criterion for every prime of |G| and every prime subset with
    |pi| <= pi_bound, in a fixed deterministic order."""
    data = _data(g, name)
    verdicts = list(check_k_infty_product(data))
    for p in data.primes:
        for check in PER_PRIME_CHECKS:
            verdicts.extend(check(data, p))
    for size in range(0, min(pi_bound, len(data.primes)) + 1):
        for ps in itertools.combinations(data.primes, size):
            for check in PER_PI_CHECKS:
                verdicts.extend(check(data, ps))
            if size >= 2:
                for check in PER_PI_EXPERIMENTAL_CHECKS:
                    verdicts.extend(check(data, ps))
    return verdicts
