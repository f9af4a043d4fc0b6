import copy
import functools
import gc
import itertools
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from degclass import group as groups
from degclass import structure
from degclass.arith import pi_sets, primes_of, valuation
from degclass.chardeg import class_algebra
from degclass.corpus import builtin_corpus, parse_corpus
from degclass.families import standard_group
from degclass.group import build_group, direct_product
from degclass.metrics import is_pi_number
from degclass.perm import parse_cycles
from degclass.report import run_report
from degclass.structure import (
    DirectProductWitness,
    Subgroup,
    _closure,
    _pi_mask,
    centralizer,
    centre,
    commutator_subgroup_of,
    conjugacy_classes,
    derived_of,
    derived_subgroup,
    has_central_hall,
    has_normal_abelian_hall,
    hypercentre,
    is_direct_product_p,
    lower_central_last,
    normalizer,
    p_prime_residual,
    p_residual,
    pi_elements_subgroup,
    q_r_elements_commute,
    sylow_subgroup,
    trivial_subgroup,
)


def hol_c7():
    return standard_group("holomorph_cyclic_prime", 7)


def as_set(indices):
    """An index array as the frozenset the reference oracles return, once it
    is checked to be a sorted, duplicate-free, read-only intp array."""
    assert indices.dtype == np.intp and not indices.flags.writeable
    assert (np.diff(indices) > 0).all()
    return frozenset(indices.tolist())


# --- conjugacy classes -------------------------------------------------------


@pytest.mark.parametrize(
    "family,parameter,sizes",
    [
        ("symmetric", 3, [1, 2, 3]),
        ("quaternion", 8, [1, 1, 2, 2, 2]),
        ("cyclic", 6, [1, 1, 1, 1, 1, 1]),
    ],
)
def test_class_sizes(family, parameter, sizes):
    g = standard_group(family, parameter)
    assert sorted(conjugacy_classes(g).sizes.tolist()) == sizes


@pytest.mark.parametrize("family,parameter", [("symmetric", 4), ("quaternion", 8), ("dihedral", 6)])
def test_classes_match_independent_oracle(family, parameter):
    g = standard_group(family, parameter)
    cs = conjugacy_classes(g)
    computed = {frozenset(g.elements[i].images for i in cs.members(c)) for c in range(len(cs))}
    expected = set(oracles.class_partition([p.images for p in g.elements]))
    assert computed == expected


def test_class_invariants_over_corpus(corpus):
    for rec in corpus:
        g = rec.group
        cs = conjugacy_classes(g)
        assert sum(cs.sizes.tolist()) == g.order
        assert all(g.order % size == 0 for size in cs.sizes.tolist())
        # classes partition the enumeration
        seen = set()
        for c in range(len(cs)):
            assert not (as_set(cs.members(c)) & seen)
            seen |= as_set(cs.members(c))
        assert len(seen) == g.order
        assert cs.sizes[0] == 1 and g.elements[cs.representatives[0]].is_identity()
        # inverse pairing is an involution with equal sizes
        for i, j in enumerate(cs.inverse_pairing):
            assert cs.inverse_pairing[j] == i
            assert cs.sizes[i] == cs.sizes[j]


# --- centralizers, centre, normalizer ---------------------------------------


def test_centralizer_examples():
    s3 = standard_group("symmetric", 3)
    assert centralizer(s3, [s3.identity_index]).order == 6
    transposition = s3.index_of(parse_cycles("(1,2)", 3))
    assert centralizer(s3, [transposition]).order == 2  # class size 3, index 3
    assert centralizer(s3, s3.generator_indices).order == centre(s3).order == 1


def test_centralizer_index_is_class_size():
    g = standard_group("symmetric", 4)
    cs = conjugacy_classes(g)
    for i in range(g.order):
        size = cs.sizes[cs.class_index[i]]
        assert g.order // centralizer(g, [i]).order == size


def test_centralizer_rejects_outsiders():
    c2 = build_group(3, [parse_cycles("(1,2)", 3)])
    with pytest.raises(ValueError, match="not an element"):
        centralizer(c2, [c2.index_of(parse_cycles("(1,2,3)", 3))])


def test_centre_examples():
    assert centre(standard_group("quaternion", 8)).order == 2
    assert centre(standard_group("symmetric", 3)).order == 1


def test_normalizer_of_whole_group():
    g = standard_group("alternating", 4)
    assert normalizer(g, Subgroup(g, np.arange(g.order))).order == g.order


def test_closure_closes_the_seed():
    g = standard_group("symmetric", 4)
    i = g.index_of(parse_cycles("(1,2)", 4))
    j = g.index_of(parse_cycles("(3,4)", 4))
    sub = _closure(g, [i, j])
    assert sub.order == 4  # <(1 2), (3 4)> is a Klein four group
    _assert_is_subgroup(g, sub)


def test_normalizer_foreign_subgroup_rejected():
    g = standard_group("symmetric", 3)
    other = standard_group("symmetric", 4)
    with pytest.raises(ValueError, match="does not belong"):
        normalizer(g, trivial_subgroup(other))


# --- derived series, hypercentre ---------------------------------------------


def test_derived_subgroup_matches_commutator_oracle():
    for family, parameter in [("symmetric", 3), ("alternating", 4), ("dihedral", 4)]:
        g = standard_group(family, parameter)
        expected = oracles.commutator_closure([p.images for p in g.elements], g.degree)
        got = {g.elements[i].images for i in derived_subgroup(conjugacy_classes(g)).members}
        assert got == expected


def test_derived_s3_is_a3():
    g = standard_group("symmetric", 3)
    der = derived_subgroup(conjugacy_classes(g))
    assert der.order == 3
    assert all(g.elements[i].order() in (1, 3) for i in der.members)


def test_lower_central_last_a4():
    g = standard_group("alternating", 4)
    cs = conjugacy_classes(g)
    k = lower_central_last(cs, derived_subgroup(cs))
    assert k.order == 4
    assert g.order // k.order == 3


def test_hypercentre_nilpotent_is_whole_group():
    for family, parameter in [("quaternion", 8), ("dihedral", 4), ("cyclic", 12)]:
        g = standard_group(family, parameter)
        assert hypercentre(conjugacy_classes(g), centre(g)).order == g.order


def test_hypercentre_trivial_cases():
    for family, parameter in [("symmetric", 3), ("alternating", 4)]:
        g = standard_group(family, parameter)
        assert hypercentre(conjugacy_classes(g), centre(g)).order == 1


def test_commutator_subgroup_of_examples():
    s3 = standard_group("symmetric", 3)
    a3 = pi_elements_subgroup(conjugacy_classes(s3), (3,))
    assert a3 is not None
    assert commutator_subgroup_of(a3, conjugacy_classes(s3)).order == 3  # [A3, S3] = A3

    g = hol_c7()
    n = pi_elements_subgroup(conjugacy_classes(g), (3, 7))
    assert n is not None and n.order == 21
    ng = commutator_subgroup_of(n, conjugacy_classes(g))
    assert ng.order == 7
    assert as_set(ng.members) == as_set(derived_of(n).members)  # [N, G] = N'

    q8 = standard_group("quaternion", 8)
    assert commutator_subgroup_of(centre(q8), conjugacy_classes(q8)).order == 1  # [Z(G), G] = 1


def test_commutator_subgroup_requires_normal():
    s3 = standard_group("symmetric", 3)
    point_stab = Subgroup(s3, np.array([0, s3.index_of(parse_cycles("(1,2)", 3))], dtype=np.intp))
    with pytest.raises(ValueError, match="not normal"):
        commutator_subgroup_of(point_stab, conjugacy_classes(s3))


def test_nilpotent_residual_intersection_identity(corpus):
    # K_inf(G) = intersection of O^p(G) over the primes of |G : G'|, and
    # K_inf is contained in the derived subgroup
    for rec in corpus:
        g = rec.group
        cs = conjugacy_classes(g)
        der = derived_subgroup(cs)
        k = lower_central_last(cs, der)
        assert as_set(k.members) <= as_set(der.members)
        index_primes = primes_of(g.order // der.order)
        members = frozenset(range(g.order))
        for p in index_primes:
            members &= as_set(p_residual(cs, p).members)
        assert as_set(k.members) == members


# --- residuals, Sylow, pi-element subgroups ----------------------------------


def test_residual_examples():
    s3 = standard_group("symmetric", 3)
    assert p_residual(conjugacy_classes(s3), 2).order == 3  # O^2(S3) = A3
    a4 = standard_group("alternating", 4)
    assert p_residual(conjugacy_classes(a4), 3).order == 4  # O^3(A4) = V4
    q8 = standard_group("quaternion", 8)
    assert p_residual(conjugacy_classes(q8), 2).order == 1  # O^p of a p-group is trivial
    assert p_prime_residual(q8, 2).order == 8


def test_residual_rejects_composite():
    with pytest.raises(ValueError, match="not prime"):
        p_residual(conjugacy_classes(standard_group("symmetric", 3)), 4)


def test_sylow_examples():
    s3 = standard_group("symmetric", 3)
    assert sylow_subgroup(s3, 2).order == 2
    a4 = standard_group("alternating", 4)
    v4 = sylow_subgroup(a4, 2)
    assert v4.order == 4
    assert v4.is_normal()
    assert sylow_subgroup(s3, 5).order == 1  # p does not divide |G|


def test_sylow_order_and_conjugate_cover(corpus):
    for rec in corpus:
        g = rec.group
        for p in primes_of(g.order):
            syl = sylow_subgroup(g, p)
            assert syl.order == p ** valuation(g.order, p)
            elements = [e.images for e in g.elements]
            covered = set()
            for x in elements:
                covered |= {
                    oracles.mul(oracles.mul(oracles.inv(x), elements[m]), x)
                    for m in syl.members
                }
            p_elements = {
                elements[i] for i in range(g.order)
                if p ** valuation(g.element_orders[i], p) == g.element_orders[i]
            }
            assert covered == p_elements


def test_pi_elements_examples():
    s3 = conjugacy_classes(standard_group("symmetric", 3))
    a3 = pi_elements_subgroup(s3, (3,))
    assert a3 is not None and a3.order == 3
    assert pi_elements_subgroup(s3, (2,)) is None  # transpositions are not closed
    a4 = conjugacy_classes(standard_group("alternating", 4))
    v4 = pi_elements_subgroup(a4, (2,))
    assert v4 is not None and v4.order == 4


def test_pi_elements_subgroup_is_normal_hall(corpus):
    import itertools

    from degclass.metrics import pi_part

    for rec in corpus:
        g = rec.group
        cs = conjugacy_classes(g)
        ps = primes_of(g.order)
        for size in range(0, min(2, len(ps)) + 1):
            for pi in itertools.combinations(ps, size):
                sub = pi_elements_subgroup(cs, pi)
                if sub is not None:
                    assert sub.order == pi_part(g.order, pi)
                    assert sub.is_normal()


def test_hall_predicates():
    c6 = standard_group("cyclic", 6)
    assert has_central_hall(pi_elements_subgroup(conjugacy_classes(c6), (2,)), centre(c6))
    g = conjugacy_classes(hol_c7())
    assert has_normal_abelian_hall(pi_elements_subgroup(g, (7,)), g)
    assert not has_normal_abelian_hall(pi_elements_subgroup(g, (3, 7)), g)  # C7:C3 is not abelian
    s3 = conjugacy_classes(standard_group("symmetric", 3))
    assert not has_normal_abelian_hall(pi_elements_subgroup(s3, (2,)), s3)
    q8c3 = direct_product(standard_group("quaternion", 8), standard_group("cyclic", 3))
    cs = conjugacy_classes(q8c3)
    assert has_central_hall(pi_elements_subgroup(cs, (3,)), centre(q8c3))
    assert not has_central_hall(pi_elements_subgroup(cs, (2,)), centre(q8c3))
    assert not has_normal_abelian_hall(pi_elements_subgroup(cs, (2,)), cs)  # Q8
    assert has_normal_abelian_hall(pi_elements_subgroup(cs, (3,)), cs)


def test_pi_mask_is_the_pi_number_test_on_every_element(corpus):
    for rec in corpus:
        g = rec.group
        for pi in pi_sets(primes_of(g.order), 2):
            expected = [is_pi_number(g.element_orders[i], pi) for i in range(g.order)]
            assert _pi_mask(g, pi).tolist() == expected, (rec.name, pi)


def test_q_r_commuting():
    # Hol(C7) at p = 7: involutions and 3-elements from different conjugates
    # of the C6 complement do not commute (e.g. t -> -t vs t -> 2t+1), so the
    # exhaustive test is false even though each single complement is cyclic.
    assert not q_r_elements_commute(conjugacy_classes(hol_c7()), 7)
    assert not q_r_elements_commute(conjugacy_classes(hol_c7()), 2)  # 3- and 7-elements do not commute
    assert not q_r_elements_commute(conjugacy_classes(standard_group("alternating", 5)), 5)
    # abelian groups commute trivially; so does a group with a single odd prime
    assert q_r_elements_commute(conjugacy_classes(standard_group("cyclic", 12)), 2)
    assert q_r_elements_commute(conjugacy_classes(standard_group("symmetric", 3)), 3)


def test_q_r_commuting_matches_pairwise_oracle():
    g = hol_c7()

    def is_power(n, p):
        while n % p == 0:
            n //= p
        return n == 1

    for p in (2, 3, 7):
        others = [q for q in (2, 3, 7) if q != p]
        expected = all(
            a * b == b * a
            for q in others
            for r in others
            if q < r
            for a in g.elements
            if is_power(a.order(), q)
            for b in g.elements
            if is_power(b.order(), r)
        )
        assert q_r_elements_commute(conjugacy_classes(g), p) == expected


def test_direct_product_detection():
    c6 = conjugacy_classes(standard_group("cyclic", 6))
    w = is_direct_product_p(c6, 2)
    assert w.holds and w.p_part.order == 2 and w.p_complement.order == 3

    # the 3-elements of S3 form A3, but its 2-elements are not closed, so
    # the 2'-side is never tried
    s3 = conjugacy_classes(standard_group("symmetric", 3))
    assert pi_elements_subgroup(s3, (3,)).order == 3
    assert is_direct_product_p(s3, 2) == DirectProductWitness(False, None, None)

    # the 2-elements of A4 form V4, its 3-elements are not closed
    w = is_direct_product_p(conjugacy_classes(standard_group("alternating", 4)), 2)
    assert not w.holds and w.p_part.order == 4 and w.p_complement is None

    q8c3 = direct_product(standard_group("quaternion", 8), standard_group("cyclic", 3))
    w = is_direct_product_p(conjugacy_classes(q8c3), 2)
    assert w.holds and w.p_part.order == 8 and w.p_complement.order == 3


def test_all_pairs_oracles_stay_within_a_few_blocks():
    # the S5 x S4 table and the Sylow subgroups are built first; then each
    # oracle's temporaries stay within a few int64 arrays of BLOCK_CELLS
    # cells, far below one array of all 2880^2 pairs
    g = direct_product(standard_group("symmetric", 5), standard_group("symmetric", 4))
    cs = conjugacy_classes(g)
    z = centre(g)
    sylows = [sylow_subgroup(g, p) for p in primes_of(g.order)]
    runs = [lambda: derived_subgroup(cs), lambda: hypercentre(cs, z)]
    for syl in sylows:
        runs += [lambda syl=syl: centralizer(g, syl.members), lambda syl=syl: normalizer(g, syl)]
    for run in runs:
        gc.collect()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * groups.BLOCK_CELLS


@pytest.fixture
def mul_cells(monkeypatch):
    """A one-entry list counting the cells Group.mul gathers from now on."""
    cells = [0]
    mul = groups.Group.mul

    def counted(self, a, b):
        out = mul(self, a, b)
        cells[0] += out.size
        return out

    monkeypatch.setattr(groups.Group, "mul", counted)
    return cells


def test_series_steps_gather_class_orbits_not_all_pairs(mul_cells):
    # a commutator step reads c[x] = r^-1 x, one gather of |G| cells, and
    # closes the union K of the classes that meet it; S6 has r^2 = 121 <=
    # |G| = 720, so K grows to K K through the rows r K, r the
    # representatives of K's classes, (classes in K) x |K| cells a round.
    # G' = A6 (6 classes) is closed in one round: 720 + 6 * 360 = 2880
    # cells, far below x^-1 Cl(x) for every x, sum |K|^2 = 71412 cells
    g = standard_group("symmetric", 6)
    cs = conjugacy_classes(g)
    z, der = centre(g), derived_subgroup(cs)
    der_classes = len(set(cs.class_index[der.members].tolist()))
    all_pairs = sum(size**2 for size in cs.sizes.tolist())
    assert (len(cs), der.order, der_classes, all_pairs) == (11, 360, 6, 71412)
    one_round = g.order + der_classes * der.order
    # series steps: G' in one round; K_3 = K_2 = A6 in one; Z_2 = Z_1 = 1 in one step
    for bound, run in [
        (one_round, lambda: derived_subgroup(cs)),
        (one_round, lambda: lower_central_last(cs, der)),
        (2 * g.order, lambda: hypercentre(cs, z)),
    ]:
        mul_cells[0] = 0
        run()
        assert 0 < mul_cells[0] <= bound < all_pairs / 20


PERFBENCH_CORPORA = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "corpus").glob("*.txt"))


def test_union_closure_routes_agree_on_every_corpus_seed(monkeypatch):
    # every union of classes a verify closes (G', K_inf, [N, G], O^p) on the
    # builtin corpus and the perfbench corpora, closed by both routes: grown
    # from classes and by Dimino's algorithm, which the size rule r^2 <= |G|
    # chooses between, against the image-tuple closure of Dimino's seeds,
    # which lie in K and close over all of K
    seeds = {}
    union_closure = structure._union_closure

    def spy(classes, kept):
        seeds.setdefault((id(classes), kept.tobytes()), (classes, kept.copy()))
        return union_closure(classes, kept)

    monkeypatch.setattr(structure, "_union_closure", spy)
    for records in [builtin_corpus(), *(parse_corpus(path.read_text()) for path in PERFBENCH_CORPORA)]:
        run_report(records)
    routes = {len(classes) ** 2 <= classes.group.order for classes, _ in seeds.values()}
    assert len(seeds) > 100 and routes == {True, False}
    for classes, kept in seeds.values():
        g = classes.group
        members = np.flatnonzero(kept[classes.class_index])
        by_classes, by_dimino = structure._class_closure(classes, kept), _closure(g, members)
        assert as_set(by_classes.members) == as_set(by_dimino.members)
        assert as_set(by_classes.generators) == as_set(by_classes.members)
        assert as_set(by_dimino.generators) <= frozenset(members.tolist())
        expected = oracles.closure_of(g.degree, [g.elements[i].images for i in by_dimino.generators])
        assert {g.elements[i].images for i in members} <= expected
        assert {g.elements[i].images for i in by_classes.members} == expected


def test_enumeration_cap_fits_one_block():
    # the class maps and the class commutators gather |G| cells unblocked
    assert groups.ENUMERATION_CAP <= groups.BLOCK_CELLS


def test_class_union_tests_gather_one_row_per_class(mul_cells):
    # a test over a union S of classes reads one row per class in S: the
    # 2-elements of S6 (256 of them in 6 classes) are tested for closure in at
    # most 6 * 256 cells, not 256^2; a hypercentre step reads x^-1 Cl(x) at
    # the representatives only, sum |K| = |G| cells, not sum |K|^2
    g = standard_group("symmetric", 6)
    cs = conjugacy_classes(g)
    z = centre(g)
    inside = _pi_mask(g, (2,))
    size, count = int(inside.sum()), len(set(cs.class_index[inside].tolist()))
    assert (size, count) == (256, 6)
    mul_cells[0] = 0
    assert pi_elements_subgroup(cs, (2,)) is None
    assert 0 < mul_cells[0] <= count * size < size**2
    mul_cells[0] = 0
    assert hypercentre(cs, z) == z  # one step: Z_2 = Z_1 = 1
    assert 0 < mul_cells[0] <= sum(cs.sizes.tolist()) == g.order
    # the 2-element representatives against the 81 3-elements, two products each
    mul_cells[0] = 0
    assert not q_r_elements_commute(cs, 5)
    assert 0 < mul_cells[0] <= 2 * count * 81 < 2 * size * 81


def test_classes_gather_two_cells_per_generator_and_element(mul_cells):
    # one conjugation map x -> s^-1 x s per generator, two gathers of |G|
    # cells each, and the propagation reads no products; a gather of |G|
    # cells per class would take 2 * 128 * 128
    g = functools.reduce(direct_product, [standard_group("cyclic", 2)] * 7)
    assert len(conjugacy_classes(g)) == 128
    assert 0 < mul_cells[0] <= 2 * 7 * 128


def test_subgroup_equality_is_set_equality():
    g = standard_group("symmetric", 3)
    a = pi_elements_subgroup(conjugacy_classes(g), (3,))
    b = p_residual(conjugacy_classes(g), 2)
    assert as_set(a.members) == as_set(b.members)
    assert a == b


def _assert_is_subgroup(g, sub):
    members = as_set(sub.members)
    assert g.identity_index in members
    tuples = {g.elements[i].images for i in members}
    assert all(oracles.mul(a, b) in tuples for a in tuples for b in tuples)
    assert all(oracles.inv(a) in tuples for a in tuples)
    assert g.order % sub.order == 0  # Lagrange


def test_set_built_subgroups_are_actual_subgroups():
    # centralizer, normalizer and hypercentre collect fixed-point sets rather
    # than closing a generating set, so closure is a genuine check on them
    for family, parameter in [("symmetric", 4), ("dihedral", 6), ("sl_2_3", 3)]:
        g = standard_group(family, parameter)
        _assert_is_subgroup(g, centre(g))
        _assert_is_subgroup(g, hypercentre(conjugacy_classes(g), centre(g)))
        _assert_is_subgroup(g, centralizer(g, [1]))
        _assert_is_subgroup(g, normalizer(g, sylow_subgroup(g, 2)))


# --- the Cayley table against the scalar tuple reference ----------------------

# generators as in the benchmark's nonabelian corpus
REFERENCE_GROUPS = {
    "S5": (5, ["(1,2,3,4,5)", "(1,2)"]),
    # GL(2,3) on the 8 nonzero vectors of F_3^2
    "GL(2,3)": (8, ["(1,4,7)(2,8,5)", "(1,6,2,3)(4,7,8,5)", "(3,6)(4,7)(5,8)"]),
    # Hol(C13): x -> x+1 and x -> 2x on Z/13
    "Hol(C13)": (13, ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(2,3,5,9,4,7,13,12,10,6,11,8)"]),
    # PSL(2,7) = GL(3,2) on 7 points
    "PSL(2,7)": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"]),
}


# the classes and the class algebra are compared on these groups as well
CLASS_ALGEBRA_GROUPS = {
    **{rec.name: (lambda rec=rec: rec.group) for rec in builtin_corpus()},
    "C96": lambda: standard_group("cyclic", 96),
    "C2^7": lambda: functools.reduce(direct_product, [standard_group("cyclic", 2)] * 7),
    "D8xC2^3": lambda: functools.reduce(direct_product, [standard_group("dihedral", 4)] + [standard_group("cyclic", 2)] * 3),
}

# the orbit classes are compared on these groups as well: S7 from a 7-cycle
# and a transposition, and S3 x D10, whose least labels take 6 and 2 rounds
# of propagation to settle
ORBIT_CLASS_GROUPS = {
    "S7": (7, ["(1,2,3,4,5,6,7)", "(1,2)"]),
    "S3xD10": (8, ["(1,2,3)", "(1,2)", "(4,5,6,7,8)", "(5,8)(6,7)"]),
}

# the class-orbit steps are compared on those groups as well, and on C2^7 (one
# class of size 1 per row) and D8xC2^3 also at 7 cells a block, so that blocks
# hold single-column rows and the rows of one class size cross block boundaries
CLASS_ORBIT_PARAMS = [(name, None) for name in CLASS_ALGEBRA_GROUPS] + [("C2^7", 7), ("D8xC2^3", 7)]

# each group once at the default block size and once at 7 cells, so that
# every all-pairs step also runs one row per block, across block boundaries
REFERENCE_PARAMS = [(name, block) for name in sorted(REFERENCE_GROUPS) for block in (None, 7)]


def _reference_id(param):
    name, block = param
    return name if block is None else f"{name}-block{block}"


@pytest.fixture(scope="module", params=REFERENCE_PARAMS, ids=_reference_id)
def with_reference(request):
    name, block = request.param
    if name in REFERENCE_GROUPS or name in ORBIT_CLASS_GROUPS:
        degree, cycles = {**REFERENCE_GROUPS, **ORBIT_CLASS_GROUPS}[name]
        g = build_group(degree, [parse_cycles(c, degree) for c in cycles])
    else:
        g = CLASS_ALGEBRA_GROUPS[name]()
    ref = oracles.Reference([e.images for e in g.elements], [p.images for p in g.generators])
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(groups, "BLOCK_CELLS", block)
        yield g, ref


def _assert_table_matches_products(g):
    elements = [e.images for e in g.elements]
    index = {e: i for i, e in enumerate(elements)}
    expected = [[index[oracles.mul(a, b)] for b in elements] for a in elements]
    assert g.table.tolist() == expected
    assert g.inverses.tolist() == [index[oracles.inv(a)] for a in elements]


def test_table_matches_tuple_products_on_builtin_groups(corpus):
    for rec in corpus:
        _assert_table_matches_products(rec.group)


def test_table_matches_tuple_products(with_reference):
    g, _ = with_reference
    _assert_table_matches_products(g)
    assert g.table.dtype == np.int16 and not g.table.flags.writeable


@pytest.mark.parametrize(
    "with_reference",
    REFERENCE_PARAMS + [(name, None) for name in [*CLASS_ALGEBRA_GROUPS, *ORBIT_CLASS_GROUPS]],
    ids=_reference_id,
    indirect=True,
)
def test_classes_and_class_algebra_match_reference(with_reference):
    g, ref = with_reference
    cs = conjugacy_classes(g)
    class_index, classes = ref.classes()
    assert cs.class_index.tolist() == class_index and not cs.class_index.flags.writeable
    assert [as_set(cs.members(c)) for c in range(len(cs))] == classes
    assert [cs.members(c)[0] for c in range(len(cs))] == [min(c) for c in classes]
    assert cs.representatives.tolist() == [min(c) for c in classes]
    assert cs.representatives.dtype == np.intp and not cs.representatives.flags.writeable
    assert cs.sizes.tolist() == [len(c) for c in classes] and not cs.sizes.flags.writeable
    assert cs.inverse_pairing == tuple(class_index[ref.inv(min(c))] for c in classes)
    assert class_algebra(g, cs).coefficients == ref.class_algebra()


@pytest.mark.parametrize(
    "with_reference", REFERENCE_PARAMS + CLASS_ORBIT_PARAMS, ids=_reference_id, indirect=True
)
def test_series_and_centre_match_reference(with_reference):
    g, ref = with_reference
    cs = conjugacy_classes(g)
    assert as_set(centre(g).members) == ref.centre()
    assert as_set(derived_subgroup(cs).members) == ref.derived()
    assert as_set(lower_central_last(cs, derived_subgroup(cs)).members) == ref.lower_central_last()
    assert as_set(hypercentre(cs, centre(g)).members) == ref.hypercentre()
    # [N, G] for every normal N the series and the residuals give
    normals = [Subgroup(g, np.arange(g.order)), derived_subgroup(cs), centre(g)]
    normals += [lower_central_last(cs, normals[1]), hypercentre(cs, normals[2])]
    normals += [sub for p in primes_of(g.order) for sub in (p_residual(cs, p), p_prime_residual(g, p))]
    for sub in normals:
        expected = ref.commutator_closure(as_set(sub.members), ref.everyone)
        assert as_set(commutator_subgroup_of(sub, cs).members) == expected


@pytest.mark.parametrize(
    "with_reference", REFERENCE_PARAMS + CLASS_ORBIT_PARAMS, ids=_reference_id, indirect=True
)
def test_prime_oracles_match_reference(with_reference):
    g, ref = with_reference
    cs = conjugacy_classes(g)
    for p in primes_of(g.order):
        syl = sylow_subgroup(g, p)
        assert as_set(syl.members) == ref.sylow(p)
        assert as_set(normalizer(g, syl).members) == ref.normalizer(as_set(syl.members))
        assert as_set(centralizer(g, syl.members).members) == ref.centralizer(as_set(syl.members))
        # C(<S>) = C(S) over the seeds the closure adjoined
        for sub in (syl, p_prime_residual(g, p)):
            assert ref.closure(sub.generators.tolist()) == as_set(sub.members)
            assert as_set(centralizer(g, sub.generators).members) == ref.centralizer(as_set(sub.members))
        assert as_set(p_residual(cs, p).members) == ref.p_residual(p)
        assert as_set(p_prime_residual(g, p).members) == ref.p_prime_residual(p)
        assert q_r_elements_commute(cs, p) == ref.q_r_elements_commute(p)
        assert is_direct_product_p(cs, p).holds == (not ref.direct_product_failure(p))


@pytest.mark.parametrize(
    "with_reference", REFERENCE_PARAMS + CLASS_ORBIT_PARAMS, ids=_reference_id, indirect=True
)
def test_pi_oracles_match_reference(with_reference):
    g, ref = with_reference
    cs = conjugacy_classes(g)
    z = ref.centre()
    for size in range(3):
        for pi in itertools.combinations(primes_of(g.order), size):
            sub = pi_elements_subgroup(cs, pi)
            members = ref.pi_elements_closure(pi)
            assert (None if sub is None else as_set(sub.members)) == members
            assert has_central_hall(sub, centre(g)) == (members is not None and members <= z)
            assert has_normal_abelian_hall(sub, cs) == (
                members is not None and ref.is_abelian(members)
            )


@pytest.mark.parametrize(
    "with_reference", REFERENCE_PARAMS + CLASS_ORBIT_PARAMS, ids=_reference_id, indirect=True
)
def test_subgroup_predicates_match_reference(with_reference):
    g, ref = with_reference
    cs = conjugacy_classes(g)
    subs = [derived_subgroup(cs), centre(g), Subgroup(g, np.arange(g.order)), trivial_subgroup(g)]
    subs += [sylow_subgroup(g, p) for p in primes_of(g.order)]
    seeds = ([1], [2, 5], [3, 7, 11], g.generator_indices[:1])
    subs += [_closure(g, [s for s in seed if s < g.order]) for seed in seeds]
    for sub in subs:
        members = as_set(sub.members)
        assert sub.is_normal() == ref.is_normal(members)
        assert as_set(derived_of(sub).members) == ref.commutator_closure(members, members)
        if ref.is_normal(members):
            assert as_set(commutator_subgroup_of(sub, cs).members) == ref.commutator_closure(
                members, ref.everyone
            )
    for seed in ([1], [2, 5], [3, 7, 11], range(0, g.order, 17)):
        seed = [s for s in seed if s < g.order]
        assert as_set(_closure(g, seed).members) == ref.closure(seed)


def test_subgroup_rejects_assignment_and_compares_by_members():
    g = standard_group("symmetric", 3)
    whole = Subgroup(g, np.arange(g.order))
    assert whole == Subgroup(g, np.arange(g.order), np.array([1, 3], dtype=np.intp))
    assert whole != Subgroup(standard_group("symmetric", 3), np.arange(6))  # another parent
    assert whole != trivial_subgroup(g)
    for attr in ("parent", "members", "generators", "order_cache"):
        with pytest.raises(AttributeError):
            setattr(whole, attr, None)
    with pytest.raises(AttributeError):
        del whole.members
    with pytest.raises(ValueError):
        whole.members[0] = 1
    assert whole.generators is whole.members and not whole.generators.flags.writeable
    assert copy.copy(whole) == whole and pickle.loads(pickle.dumps(whole)).order == g.order
