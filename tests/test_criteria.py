import pytest

from degclass.criteria import (
    GroupData,
    check_centre_class_sizes,
    check_central_sylow_centres_pi,
    check_chm,
    check_complement_commutator_by_u,
    check_cossey_hawkes,
    check_direct_product_by_s,
    check_direct_product_by_u,
    check_direct_product_necessity,
    check_direct_product_with_commuting,
    check_huppert,
    check_isaacs,
    check_isaacs_pi,
    check_ito_michler,
    check_k_infty_product,
    check_pi_divisibilities,
    check_s_part_bound,
    check_u_part_bounds,
    run_all_criteria,
)
from degclass.families import standard_group
from degclass.group import build_group, direct_product


def data_for(family, parameter, name=None):
    g = standard_group(family, parameter)
    return GroupData(g, name or f"{family}{parameter}")


@pytest.fixture(scope="module")
def s3():
    return data_for("symmetric", 3, "S3")


@pytest.fixture(scope="module")
def a4():
    return data_for("alternating", 4, "A4")


@pytest.fixture(scope="module")
def q8():
    return data_for("quaternion", 8, "Q8")


@pytest.fixture(scope="module")
def hol7():
    return data_for("holomorph_cyclic_prime", 7, "Hol(C7)")


@pytest.fixture(scope="module")
def c6():
    return data_for("cyclic", 6, "C6")


@pytest.fixture(scope="module")
def q8c3():
    g = direct_product(standard_group("quaternion", 8), standard_group("cyclic", 3))
    return GroupData(g, "Q8xC3")


def test_group_data_computes_classes_once(monkeypatch):
    from degclass import criteria, structure

    calls = []
    original = structure.conjugacy_classes

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(structure, "conjugacy_classes", counted)
    monkeypatch.setattr(criteria, "conjugacy_classes", counted)
    data = data_for("symmetric", 4)
    assert data.degree_frequency.as_dict() == {1: 2, 2: 1, 3: 2}
    assert data.size_frequency.as_dict() == {1: 1, 3: 1, 6: 2, 8: 1}
    assert len(calls) == 1


def only(verdicts, criterion):
    matches = [v for v in verdicts if v.criterion == criterion]
    assert len(matches) == 1, f"{criterion}: {len(matches)} matches"
    return matches[0]


def sides(verdict):
    return verdict.invariant_side.holds, verdict.structure_side.holds


# --- Ito-Michler --------------------------------------------------------------


def test_ito_michler(hol7, s3, c6):
    v = only(check_ito_michler(hol7, (7,)), "ito_michler")
    assert sides(v) == (True, True) and v.agrees
    v = only(check_ito_michler(s3, (2,)), "ito_michler")
    assert sides(v) == (False, False) and v.agrees
    v = only(check_ito_michler(c6, (2, 3)), "ito_michler")
    assert sides(v) == (True, True) and v.agrees


# --- Isaacs -------------------------------------------------------------------


def test_isaacs_s3(s3):
    verdicts = check_isaacs(s3, 2)
    div = only(verdicts, "isaacs_divisibility")
    assert div.agrees  # |G:G'|_2 = 2 divides u_2'(S3) = 2
    eq = only(verdicts, "isaacs_p_nilpotent")
    assert sides(eq) == (True, True) and eq.agrees  # A3 is the normal 2-complement

    verdicts = check_isaacs(s3, 3)
    eq = only(verdicts, "isaacs_p_nilpotent")
    # u_3'(S3) = 6, 6_3 = 3 != 1 = |G:G'|_3; no normal subgroup of order 2
    assert sides(eq) == (False, False) and eq.agrees


def test_isaacs_holomorph(hol7):
    eq = only(check_isaacs(hol7, 7), "isaacs_p_nilpotent")
    # u_7'(G) = 42, 42_7 = 7 != 1; no normal 7-complement
    assert sides(eq) == (False, False) and eq.agrees
    nums = dict(eq.invariant_side.numbers)
    assert nums["u_p_prime_p"] == 7 and nums["m1_p"] == 1


def test_isaacs_requires_dividing_prime(s3):
    with pytest.raises(ValueError, match="does not divide"):
        check_isaacs(s3, 5)


# --- Cossey-Hawkes ------------------------------------------------------------


def test_cossey_hawkes_a4(a4):
    verdicts = check_cossey_hawkes(a4, 3)
    ident = only(verdicts, "cossey_hawkes_residual_index")
    assert ident.agrees
    assert dict(ident.invariant_side.numbers) == {"u_p_p": 3, "residual_index": 3}
    eq = only(verdicts, "cossey_hawkes_p_nilpotent")
    assert sides(eq) == (True, True) and eq.agrees  # V4 is the normal 3-complement

    verdicts = check_cossey_hawkes(a4, 2)
    ident = only(verdicts, "cossey_hawkes_residual_index")
    assert ident.agrees
    assert dict(ident.invariant_side.numbers) == {"u_p_p": 1, "residual_index": 1}
    eq = only(verdicts, "cossey_hawkes_p_nilpotent")
    assert sides(eq) == (False, False) and eq.agrees


def test_cossey_hawkes_s3(s3):
    eq = only(check_cossey_hawkes(s3, 2), "cossey_hawkes_p_nilpotent")
    assert sides(eq) == (True, True) and eq.agrees


# --- K_infty product ----------------------------------------------------------


def test_k_infty_product(a4, s3, c6):
    v = only(check_k_infty_product(a4), "nilpotent_residual_index_product")
    assert v.agrees
    assert dict(v.invariant_side.numbers) == {"u_part_product": 3, "residual_index": 3}
    v = only(check_k_infty_product(s3), "nilpotent_residual_index_product")
    assert dict(v.invariant_side.numbers) == {"u_part_product": 2, "residual_index": 2}
    v = only(check_k_infty_product(c6), "nilpotent_residual_index_product")
    assert dict(v.invariant_side.numbers) == {"u_part_product": 6, "residual_index": 6}


# --- direct product from u_p' (and from s_p') ----------------------------------


def test_direct_product_by_u(c6, s3, hol7):
    v = only(check_direct_product_by_u(c6, 2), "direct_product_by_u_pprime")
    assert sides(v) == (True, True) and v.agrees  # 6 = 3 * 2
    v = only(check_direct_product_by_u(s3, 2), "direct_product_by_u_pprime")
    assert sides(v) == (False, False) and v.agrees  # u_2' = 2 != 6
    v = only(check_direct_product_by_u(hol7, 7), "direct_product_by_u_pprime")
    assert sides(v) == (False, False) and v.agrees  # 42 != 6 * 1


def test_direct_product_by_s(q8, s3, c6):
    v = only(check_direct_product_by_s(q8, 2), "direct_product_by_s_pprime")
    assert sides(v) == (True, True) and v.agrees  # 2 = 1 * 2
    v = only(check_direct_product_by_s(s3, 2), "direct_product_by_s_pprime")
    assert sides(v) == (False, False) and v.agrees  # 4 != 3 * 1
    v = only(check_direct_product_by_s(c6, 2), "direct_product_by_s_pprime")
    assert sides(v) == (True, True) and v.agrees  # 6 = 3 * 2


# --- normal p-complement with [N,G] = N' ---------------------------------------


def test_complement_commutator(hol7, a4, q8c3):
    v = only(check_complement_commutator_by_u(hol7, 2), "complement_commutator_by_u_p")
    assert sides(v) == (True, True) and v.agrees  # u_2 = 6 = 2*3; [N,G] = N' = C7
    nums = dict(v.structure_side.numbers)
    assert nums["complement_order"] == 21
    assert nums["commutator_with_group"] == 7 == nums["complement_derived"]

    v = only(check_complement_commutator_by_u(a4, 3), "complement_commutator_by_u_p")
    assert sides(v) == (False, False) and v.agrees  # [V4, A4] = V4 != 1 = N'

    v = only(check_complement_commutator_by_u(q8c3, 2), "complement_commutator_by_u_p")
    assert sides(v) == (True, True) and v.agrees  # N = C3 central, [N,G] = 1 = N'


# --- corollary: commuting q-/r-elements ----------------------------------------


def test_direct_product_with_commuting(q8c3, hol7, a4):
    v = only(check_direct_product_with_commuting(q8c3, 2), "direct_product_by_u_p_commuting")
    assert v.invariant_side.holds and v.structure_side.holds and v.agrees

    # Hol(C7) at p = 2: the u_2 condition holds but 3- and 7-elements do not
    # commute, so the hypothesis fails and the implication is vacuous
    v = only(check_direct_product_with_commuting(hol7, 2), "direct_product_by_u_p_commuting")
    assert not v.invariant_side.holds
    assert dict(v.invariant_side.numbers)["u_condition"] == 1
    assert dict(v.invariant_side.numbers)["qr_commute"] == 0
    assert v.agrees

    # u_p condition fails: vacuously true
    v = only(check_direct_product_with_commuting(a4, 2), "direct_product_by_u_p_commuting")
    assert not v.invariant_side.holds and v.agrees


# --- extremal part bounds -------------------------------------------------------


def test_u_part_bounds(s3, a4, c6):
    verdicts = check_u_part_bounds(s3, 2)
    a = only(verdicts, "u_pprime_part_bound")
    assert a.invariant_side.holds and a.structure_side.holds and a.agrees  # 1 <= 3
    b = only(verdicts, "u_p_part_divisibility")
    assert b.invariant_side.holds and b.structure_side.holds and b.agrees  # 1 | 3

    b = only(check_u_part_bounds(a4, 3), "u_p_part_divisibility")
    assert b.invariant_side.holds and b.structure_side.holds and b.agrees  # 1 | 4

    for v in check_u_part_bounds(c6, 2):
        assert v.invariant_side.holds and v.structure_side.holds and v.agrees


def test_s_part_bound(q8, c6, s3):
    v = only(check_s_part_bound(q8, 2), "s_pprime_part_bound")
    assert v.invariant_side.holds and v.structure_side.holds and v.agrees  # 2 <= 1*2
    v = only(check_s_part_bound(c6, 2), "s_pprime_part_bound")
    assert v.invariant_side.holds and v.structure_side.holds and v.agrees  # 6 <= 3*2
    v = only(check_s_part_bound(s3, 2), "s_pprime_part_bound")
    assert not v.invariant_side.holds and v.agrees  # hypothesis fails: 4_2 != 1


# --- Huppert --------------------------------------------------------------------


def test_huppert(q8, c6, q8c3):
    v = only(check_huppert(q8, (2,)), "huppert_central_hall")
    assert sides(v) == (False, False) and v.agrees and not v.experimental
    v = only(check_huppert(c6, (2,)), "huppert_central_hall")
    assert sides(v) == (True, True) and v.agrees
    v = only(check_huppert(q8c3, (3,)), "huppert_central_hall")
    assert sides(v) == (True, True) and v.agrees  # sizes 1, 2 are all 3'-numbers
    v = only(check_huppert(q8c3, (2, 3)), "huppert_central_hall")
    assert v.experimental


# --- CHM ------------------------------------------------------------------------


def test_chm(s3, a4, q8):
    verdicts = check_chm(s3, 2)
    ident = only(verdicts, "chm_hypercentre_part")
    assert ident.agrees
    assert dict(ident.invariant_side.numbers) == {"s_p_p": 1, "hypercentre_p": 1}
    part = only(verdicts, "chm_direct_product_part")
    assert sides(part) == (False, False) and part.agrees  # |S_2|_2 = 1 != 2

    verdicts = check_chm(a4, 2)
    ident = only(verdicts, "chm_hypercentre_part")
    assert dict(ident.invariant_side.numbers) == {"s_p_p": 1, "hypercentre_p": 1}  # |S_2| = 9

    verdicts = check_chm(q8, 2)
    part = only(verdicts, "chm_direct_product_part")
    assert sides(part) == (True, True) and part.agrees  # p-group: trivially direct
    full = only(verdicts, "chm_direct_product_full")
    assert sides(full) == (True, True) and full.agrees  # 8 = 8 * 1


# --- centre vs S_p' --------------------------------------------------------------


def test_centre_class_sizes(s3, a4, q8):
    verdicts = check_centre_class_sizes(s3, 2)
    assert only(verdicts, "centre_divides_s_pprime").agrees  # 1 divides 4
    strong = only(verdicts, "centralizer_of_residual_divides_s_pprime")
    assert strong.agrees
    eq = only(verdicts, "central_sylow_centre_by_s_pprime")
    assert sides(eq) == (False, False) and eq.agrees  # 4_2 = 4 != 1; Z(P) not central

    eq = only(check_centre_class_sizes(a4, 3), "central_sylow_centre_by_s_pprime")
    assert sides(eq) == (False, False) and eq.agrees  # 9_3 = 9 != 1

    verdicts = check_centre_class_sizes(q8, 2)
    eq = only(verdicts, "central_sylow_centre_by_s_pprime")
    assert sides(eq) == (True, True) and eq.agrees  # Z(Q8) = Z(P)
    assert dict(eq.invariant_side.numbers) == {"s_p_prime_p": 2, "w1_p": 2}


# --- pi-necessity -----------------------------------------------------------------


def test_direct_product_necessity(c6, q8c3, s3):
    for v in check_direct_product_necessity(c6, (2,)):
        assert v.invariant_side.holds and v.structure_side.holds and v.agrees
    for v in check_direct_product_necessity(q8c3, (2,)):
        assert v.invariant_side.holds and v.structure_side.holds and v.agrees
    for v in check_direct_product_necessity(s3, (2,)):
        assert not v.invariant_side.holds and v.agrees  # vacuous


# --- unconditional pi-set divisibilities --------------------------------------


def test_pi_divisibilities(hol7):
    for pi in ((), (2,), (7,), (2, 3), (3, 7)):
        for v in check_pi_divisibilities(hol7, pi):
            assert v.agrees


# --- experimental pi versions --------------------------------------------------


def test_isaacs_pi_experimental_disagreement(hol7):
    # invariant side: u_{pi'}(G)_pi = 2 = |G:G'|_pi for pi = {2,7};
    # structure side: the 3-elements do not form a subgroup, so no normal
    # Hall {3}-subgroup exists.  The p-version equivalence genuinely fails
    # to generalize, exactly as the class-size remark anticipates.
    v = only(check_isaacs_pi(hol7, (2, 7)), "isaacs_pi_nilpotent")
    assert v.experimental
    assert sides(v) == (True, False)
    assert not v.agrees

    # while for pi = {2,3} the experiment happens to agree
    v = only(check_isaacs_pi(hol7, (2, 3)), "isaacs_pi_nilpotent")
    assert sides(v) == (True, True) and v.agrees


def test_central_sylow_centres_pi_is_experimental(s3):
    v = only(check_central_sylow_centres_pi(s3, (2, 3)), "central_sylow_centres_by_s_piprime")
    assert v.experimental
    assert sides(v) == (True, False) and not v.agrees


# --- run_all ---------------------------------------------------------------------


def test_run_all_s3_agrees(s3):
    verdicts = run_all_criteria(s3, "S3")
    non_exp = [v for v in verdicts if not v.experimental]
    assert all(v.agrees for v in non_exp)
    assert {v.group_name for v in verdicts} == {"S3"}
    # two primes, full per-prime block plus pi subsets
    assert sum(1 for v in verdicts if v.criterion == "isaacs_p_nilpotent") == 2


def test_run_all_trivial_group():
    g = build_group(1, [])
    verdicts = run_all_criteria(GroupData(g, "C1"), "C1")
    assert all(v.agrees for v in verdicts)
    # no primes: only the residual product and the empty-pi checks remain
    assert {v.criterion for v in verdicts} == {
        "nilpotent_residual_index_product",
        "ito_michler",
        "huppert_central_hall",
        "index_pi_divides_u_piprime",
        "centre_divides_s_piprime",
        "direct_product_necessity_u",
        "direct_product_necessity_s",
    }


def test_run_all_holomorph_non_experimental_agree(hol7):
    verdicts = run_all_criteria(hol7, "Hol(C7)")
    assert all(v.agrees for v in verdicts if not v.experimental)
    assert any(v.experimental and not v.agrees for v in verdicts)


def test_run_all_skips_pi_beyond_bound(s3):
    verdicts = run_all_criteria(s3, "S3", pi_bound=1)
    assert all(len(v.primes) <= 1 for v in verdicts if v.criterion == "ito_michler")


def test_deterministic_order(s3):
    a = run_all_criteria(s3, "S3")
    b = run_all_criteria(s3, "S3")
    assert [(v.criterion, v.primes) for v in a] == [(v.criterion, v.primes) for v in b]


def test_group_safe_to_share_across_threads():
    # groups are immutable after construction; criterion evaluation is a pure
    # function of (Group, parameters), so concurrent runs must agree
    from concurrent.futures import ThreadPoolExecutor

    g = standard_group("symmetric", 4)
    serial = run_all_criteria(GroupData(g, "S4"), "S4")
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: run_all_criteria(GroupData(g, "S4"), "S4"), range(4)))
    for verdicts in results:
        assert verdicts == serial
