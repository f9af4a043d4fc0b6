import gc
import tracemalloc

import pytest

import oracles
from degclass import group as group_module
from degclass.group import (
    GroupTooLargeError,
    build_group,
    direct_product,
    enumerate_elements,
)
from degclass.perm import Permutation, identity, parse_cycles
from degclass.families import standard_group


@pytest.mark.parametrize(
    "count,width", [(0, 3), (10, 0), (10, 3), (9, 7), (3, 8), (4, 100)]
)
def test_blocks_partition_the_rows_within_the_block_size(monkeypatch, count, width):
    # read at call time, so the patched size is the one in force
    monkeypatch.setattr(group_module, "BLOCK_CELLS", 7)
    rows = [range(count)[block] for block in group_module.blocks(count, width)]
    assert [i for block in rows for i in block] == list(range(count))
    assert all(len(block) * width <= 7 or len(block) == 1 for block in rows)


def test_s4_order():
    g = build_group(4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)])
    assert g.order == 24


def test_a5_order():
    g = build_group(5, [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)])
    assert g.order == 60


def test_holomorph_order_against_closure_oracle():
    gens = [parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(2,4,3,7,5,6)", 7)]
    g = build_group(7, gens)
    # independent brute-force closure of the generating set
    oracle = oracles.closure_of(7, [p.images for p in gens])
    assert g.order == len(oracle) == 42
    assert {p.images for p in g.elements} == oracle


def test_trivial_group():
    g = build_group(3, [])
    assert g.order == 1
    assert enumerate_elements(g) == (identity(3),)
    assert identity(3) in g


def test_cyclic_three_elements():
    g = build_group(3, [parse_cycles("(1,2,3)", 3)])
    assert g.order == 3
    assert len(enumerate_elements(g)) == 3


def test_s3_enumeration_closed():
    g = standard_group("symmetric", 3)
    elems = enumerate_elements(g)
    assert len(elems) == 6
    members = {p.images for p in elems}
    for a in elems:
        for b in elems:
            assert (a * b).images in members
        assert a.inverse().images in members


def test_elements_sorted_lexicographically():
    g = standard_group("symmetric", 3)
    images = [p.images for p in g.elements]
    assert images == sorted(images)
    assert g.elements[0].is_identity()


def test_membership_agrees_with_cache():
    g = standard_group("alternating", 4)
    for p in g.elements:
        assert p in g
    # transposition is odd: not a member
    assert parse_cycles("(1,2)", 4) not in g
    # moving a point outside the natural orbit structure: S3 fixing point 4
    s3_on_4 = build_group(4, [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3)", 4)])
    assert parse_cycles("(3,4)", 4) not in s3_on_4
    assert parse_cycles("(1,2)", 4) in s3_on_4


def test_bsgs_order_matches_enumeration_everywhere(corpus):
    for rec in corpus:
        assert rec.group.order == len(enumerate_elements(rec.group))


def test_sifting_membership_over_corpus(corpus):
    # composed pairs of enumerated elements are members; a foreign
    # permutation of the right degree is not
    for rec in corpus:
        g = rec.group
        elems = enumerate_elements(g)
        sample = elems[:5] + elems[-5:]
        for a in sample:
            for b in sample:
                assert (a * b) in g, rec.name
        if g.degree >= 2:
            swap_last = list(range(g.degree))
            swap_last[-1], swap_last[-2] = swap_last[-2], swap_last[-1]
            foreign = Permutation(swap_last)
            assert (foreign in g) == (foreign.images in {p.images for p in elems})


def test_bsgs_matches_closure_on_random_generators():
    import random

    rng = random.Random(20240521)
    for _ in range(120):
        degree = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = build_group(degree, gens)
        oracle = oracles.closure_of(degree, [p.images for p in gens])
        assert g.order == len(oracle)
        # the draws run either way, so which groups are drawn does not depend
        # on which are cached; a group above the cap has no index to probe
        members = rng.sample(sorted(oracle), min(4, len(oracle)))
        probe = list(range(degree))
        rng.shuffle(probe)
        if g.has_element_cache:
            assert all(Permutation(t) in g for t in members)
            assert (Permutation(probe) in g) == (tuple(probe) in oracle)


@pytest.mark.parametrize("cap", [23, 24])
def test_cap_exceeded_is_loud(monkeypatch, cap):
    # S4 has order 24: the cap refuses it at 23 and enumerates it at 24
    monkeypatch.setattr(group_module, "ENUMERATION_CAP", cap)
    g = build_group(4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)])
    assert g.order == 24  # BSGS order does not need the cache
    assert g.has_element_cache == (cap >= 24)
    if g.has_element_cache:
        assert len(enumerate_elements(g)) == 24
    else:
        with pytest.raises(GroupTooLargeError, match="group too large: order 24 exceeds enumeration cap 23"):
            enumerate_elements(g)
        with pytest.raises(GroupTooLargeError, match="group too large: order 24 exceeds enumeration cap 23"):
            identity(4) in g


def test_enumeration_budget_is_checked_before_the_enumeration(monkeypatch):
    # S4 on 4 points holds 24 * 4 * 10 = 960 bytes once enumerated
    gens = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]
    monkeypatch.setattr(group_module, "TABLE_MAX_BYTES", 24 * 4 * group_module.ENUMERATION_BYTES_PER_CELL - 1)
    with monkeypatch.context() as mp:
        mp.setattr(group_module, "_enumerate", lambda *args: pytest.fail("the enumeration ran"))
        g = build_group(4, gens)
    assert g.order == 24 and not g.has_element_cache
    assert g.uncached_reason == "the enumeration of order 24 on 4 points needs 960 bytes, above the table budget of 959"
    with pytest.raises(GroupTooLargeError, match="group too large: the enumeration of order 24 on 4 points"):
        enumerate_elements(g)
    monkeypatch.setattr(group_module, "TABLE_MAX_BYTES", 24 * 4 * group_module.ENUMERATION_BYTES_PER_CELL)
    g = build_group(4, gens)
    assert g.has_element_cache and g.uncached_reason is None


def test_an_enumeration_not_closed_under_the_generators_raises(monkeypatch):
    # without its deepest level the chain of S4 writes 12 products, which
    # the Schreier-Sims order then claims are the group
    schreier_sims = group_module._schreier_sims
    monkeypatch.setattr(group_module, "_schreier_sims", lambda *args: schreier_sims(*args)[:-1])
    with pytest.raises(RuntimeError, match="enumeration of order 12 is not closed under the generators"):
        build_group(4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)])


def test_an_enumeration_that_repeats_an_element_raises(monkeypatch):
    # a transversal entry written twice writes 4 * 3 * 3 products of S4, and
    # the order read off the orbit lengths claims 36 distinct elements
    schreier_sims = group_module._schreier_sims

    def repeated(*args):
        transversals = schreier_sims(*args)
        transversals[-1].append(transversals[-1][-1])
        return transversals

    monkeypatch.setattr(group_module, "_schreier_sims", repeated)
    with pytest.raises(RuntimeError, match="enumeration of order 36 repeats an element"):
        build_group(4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)])


def test_enumeration_budget_covers_the_peak_of_a_build():
    # C400 on its own points is a wide group, where the budget can bind: the
    # traced peak of its whole build is at most the budget, and the budget at
    # most a quarter above it
    cycle = Permutation(tuple(range(1, 400)) + (0,))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_group(400, [cycle])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    budget = g.order * g.degree * group_module.ENUMERATION_BYTES_PER_CELL
    assert peak <= budget <= 1.25 * peak


def test_transversal_budget_sums_every_basic_orbit(monkeypatch):
    # S4 on 4 points keeps basic orbits of 4, 3 and 2 points: 9 image tuples
    # of 4 points, 288 bytes; a budget of 288 builds it (and the enumeration
    # budget then leaves it unenumerated), one byte less refuses it
    gens = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]
    monkeypatch.setattr(group_module, "TABLE_MAX_BYTES", 9 * 4 * group_module.TRANSVERSAL_BYTES_PER_CELL)
    g = build_group(4, gens)
    assert g.order == 24 and not g.has_element_cache
    monkeypatch.setattr(group_module, "TABLE_MAX_BYTES", 9 * 4 * group_module.TRANSVERSAL_BYTES_PER_CELL - 1)
    with pytest.raises(GroupTooLargeError, match="transversals on 4 points need more than 288 bytes, above the table budget of 287"):
        build_group(4, gens)


def test_table_budget_is_checked_before_allocating(monkeypatch):
    from degclass.structure import conjugacy_classes, derived_subgroup

    g = standard_group("symmetric", 4)
    monkeypatch.setattr(group_module, "TABLE_MAX_BYTES", g.order * g.order * 2 - 1)
    with pytest.raises(GroupTooLargeError, match="above the table budget"):
        derived_subgroup(conjugacy_classes(g))
    assert g._table is None
    monkeypatch.setattr(group_module, "TABLE_MAX_BYTES", g.order * g.order * 2)
    assert derived_subgroup(conjugacy_classes(g)).order == 12


def test_generator_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        build_group(3, [parse_cycles("(1,2)", 2)])


def test_direct_product_small():
    c2 = standard_group("cyclic", 2)
    c3 = standard_group("cyclic", 3)
    g = direct_product(c2, c3)
    assert g.degree == 5
    assert g.order == 6
    elems = enumerate_elements(g)
    assert all((a * b) == (b * a) for a in elems for b in elems)


def test_direct_product_q8_c3():
    g = direct_product(standard_group("quaternion", 8), standard_group("cyclic", 3))
    assert g.order == 24


def test_direct_product_with_trivial_preserves_class_sizes():
    from degclass.structure import conjugacy_classes

    g = standard_group("symmetric", 3)
    triv = build_group(1, [])
    prod = direct_product(triv, g)
    assert prod.order == g.order
    assert sorted(conjugacy_classes(prod).sizes.tolist()) == sorted(conjugacy_classes(g).sizes.tolist())


def test_lagrange_for_derived_and_sylow():
    from degclass import centre, conjugacy_classes, derived_subgroup, sylow_subgroup

    for family, param in [("symmetric", 4), ("alternating", 4), ("dihedral", 6)]:
        g = standard_group(family, param)
        for sub in (derived_subgroup(conjugacy_classes(g)), centre(g), sylow_subgroup(g, 2)):
            assert g.order % sub.order == 0
