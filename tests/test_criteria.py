import pytest

from degclass.criteria import (
    CATALOG,
    PER_PRIME,
    CriterionVerdict,
    GroupData,
    SideResult,
    evaluate,
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


def test_group_data_memoizes_oracles_looked_up_at_call_time(monkeypatch):
    from degclass import structure

    data = data_for("symmetric", 4)
    calls = []
    original = structure.sylow_subgroup

    def counted(g, p):
        calls.append(p)
        return original(g, p)

    monkeypatch.setattr(structure, "sylow_subgroup", counted)
    assert data.sylow(2).order == 8 and data.sylow(2).order == 8
    assert data.sylow(3).order == 3
    assert calls == [2, 3]

    data.centre
    centralizer = structure.centralizer
    monkeypatch.setattr(structure, "centralizer", lambda g, xs: calls.append("C") or centralizer(g, xs))
    assert data.sylow_centre_is_central(2) == data.sylow_centre_is_central(2)
    assert calls == [2, 3, "C"]


def test_hypercentre_starts_from_the_cached_centre(monkeypatch):
    from degclass import structure

    data = data_for("dihedral", 4)
    data.centre
    calls = []
    centralizer = structure.centralizer
    monkeypatch.setattr(structure, "centralizer", lambda g, xs: calls.append(xs) or centralizer(g, xs))
    assert data.hypercentre.order == 8
    assert calls == []


def sides(verdict):
    return verdict.invariant_side.holds, verdict.structure_side.holds


# --- Ito-Michler --------------------------------------------------------------


def test_ito_michler(hol7, s3, c6):
    v = evaluate(hol7, "ito_michler", (7,))
    assert sides(v) == (True, True) and v.agrees
    v = evaluate(s3, "ito_michler", (2,))
    assert sides(v) == (False, False) and v.agrees
    v = evaluate(c6, "ito_michler", (2, 3))
    assert sides(v) == (True, True) and v.agrees


# --- Isaacs -------------------------------------------------------------------


def test_isaacs_s3(s3):
    div = evaluate(s3, "isaacs_divisibility", (2,))
    assert div.agrees  # |G:G'|_2 = 2 divides u_2'(S3) = 2
    eq = evaluate(s3, "isaacs_p_nilpotent", (2,))
    assert sides(eq) == (True, True) and eq.agrees  # A3 is the normal 2-complement

    eq = evaluate(s3, "isaacs_p_nilpotent", (3,))
    # u_3'(S3) = 6, 6_3 = 3 != 1 = |G:G'|_3; no normal subgroup of order 2
    assert sides(eq) == (False, False) and eq.agrees


def test_isaacs_holomorph(hol7):
    eq = evaluate(hol7, "isaacs_p_nilpotent", (7,))
    # u_7'(G) = 42, 42_7 = 7 != 1; no normal 7-complement
    assert sides(eq) == (False, False) and eq.agrees
    nums = dict(eq.invariant_side.numbers)
    assert nums["u_p_prime_p"] == 7 and nums["m1_p"] == 1


def test_isaacs_requires_dividing_prime(s3):
    with pytest.raises(ValueError, match="does not divide"):
        evaluate(s3, "isaacs_p_nilpotent", (5,))


def test_pi_rows_require_dividing_primes(s3):
    for primes in [(7,), (2, 7)]:
        with pytest.raises(ValueError, match="7 does not divide"):
            evaluate(s3, "ito_michler", primes)


# --- Cossey-Hawkes ------------------------------------------------------------


def test_cossey_hawkes_a4(a4):
    ident = evaluate(a4, "cossey_hawkes_residual_index", (3,))
    assert ident.agrees
    assert dict(ident.invariant_side.numbers) == {"u_p_p": 3, "residual_index": 3}
    eq = evaluate(a4, "cossey_hawkes_p_nilpotent", (3,))
    assert sides(eq) == (True, True) and eq.agrees  # V4 is the normal 3-complement

    ident = evaluate(a4, "cossey_hawkes_residual_index", (2,))
    assert ident.agrees
    assert dict(ident.invariant_side.numbers) == {"u_p_p": 1, "residual_index": 1}
    eq = evaluate(a4, "cossey_hawkes_p_nilpotent", (2,))
    assert sides(eq) == (False, False) and eq.agrees


def test_cossey_hawkes_s3(s3):
    eq = evaluate(s3, "cossey_hawkes_p_nilpotent", (2,))
    assert sides(eq) == (True, True) and eq.agrees


# --- K_infty product ----------------------------------------------------------


def test_k_infty_product(a4, s3, c6):
    v = evaluate(a4, "nilpotent_residual_index_product")
    assert v.agrees
    assert dict(v.invariant_side.numbers) == {"u_part_product": 3, "residual_index": 3}
    v = evaluate(s3, "nilpotent_residual_index_product")
    assert dict(v.invariant_side.numbers) == {"u_part_product": 2, "residual_index": 2}
    v = evaluate(c6, "nilpotent_residual_index_product")
    assert dict(v.invariant_side.numbers) == {"u_part_product": 6, "residual_index": 6}


# --- direct product from u_p' (and from s_p') ----------------------------------


def test_direct_product_by_u(c6, s3, hol7):
    v = evaluate(c6, "direct_product_by_u_pprime", (2,))
    assert sides(v) == (True, True) and v.agrees  # 6 = 3 * 2
    v = evaluate(s3, "direct_product_by_u_pprime", (2,))
    assert sides(v) == (False, False) and v.agrees  # u_2' = 2 != 6
    v = evaluate(hol7, "direct_product_by_u_pprime", (7,))
    assert sides(v) == (False, False) and v.agrees  # 42 != 6 * 1


def test_direct_product_by_s(q8, s3, c6):
    v = evaluate(q8, "direct_product_by_s_pprime", (2,))
    assert sides(v) == (True, True) and v.agrees  # 2 = 1 * 2
    v = evaluate(s3, "direct_product_by_s_pprime", (2,))
    assert sides(v) == (False, False) and v.agrees  # 4 != 3 * 1
    v = evaluate(c6, "direct_product_by_s_pprime", (2,))
    assert sides(v) == (True, True) and v.agrees  # 6 = 3 * 2


# --- normal p-complement with [N,G] = N' ---------------------------------------


def test_complement_commutator(hol7, a4, q8c3):
    v = evaluate(hol7, "complement_commutator_by_u_p", (2,))
    assert sides(v) == (True, True) and v.agrees  # u_2 = 6 = 2*3; [N,G] = N' = C7
    nums = dict(v.structure_side.numbers)
    assert nums["complement_order"] == 21
    assert nums["commutator_with_group"] == 7 == nums["complement_derived"]

    v = evaluate(a4, "complement_commutator_by_u_p", (3,))
    assert sides(v) == (False, False) and v.agrees  # [V4, A4] = V4 != 1 = N'

    v = evaluate(q8c3, "complement_commutator_by_u_p", (2,))
    assert sides(v) == (True, True) and v.agrees  # N = C3 central, [N,G] = 1 = N'


# --- corollary: commuting q-/r-elements ----------------------------------------


def test_direct_product_with_commuting(q8c3, hol7, a4):
    v = evaluate(q8c3, "direct_product_by_u_p_commuting", (2,))
    assert v.invariant_side.holds and v.structure_side.holds and v.agrees

    # Hol(C7) at p = 2: the u_2 condition holds but 3- and 7-elements do not
    # commute, so the hypothesis fails and the implication is vacuous
    v = evaluate(hol7, "direct_product_by_u_p_commuting", (2,))
    assert not v.invariant_side.holds
    assert dict(v.invariant_side.numbers)["u_condition"] == 1
    assert dict(v.invariant_side.numbers)["qr_commute"] == 0
    assert v.agrees

    # u_p condition fails: vacuously true
    v = evaluate(a4, "direct_product_by_u_p_commuting", (2,))
    assert not v.invariant_side.holds and v.agrees


# --- extremal part bounds -------------------------------------------------------


def test_u_part_bounds(s3, a4, c6):
    a = evaluate(s3, "u_pprime_part_bound", (2,))
    assert a.invariant_side.holds and a.structure_side.holds and a.agrees  # 1 <= 3
    b = evaluate(s3, "u_p_part_divisibility", (2,))
    assert b.invariant_side.holds and b.structure_side.holds and b.agrees  # 1 | 3

    b = evaluate(a4, "u_p_part_divisibility", (3,))
    assert b.invariant_side.holds and b.structure_side.holds and b.agrees  # 1 | 4

    for criterion in ("u_pprime_part_bound", "u_p_part_divisibility"):
        v = evaluate(c6, criterion, (2,))
        assert v.invariant_side.holds and v.structure_side.holds and v.agrees


def test_s_part_bound(q8, c6, s3):
    v = evaluate(q8, "s_pprime_part_bound", (2,))
    assert v.invariant_side.holds and v.structure_side.holds and v.agrees  # 2 <= 1*2
    v = evaluate(c6, "s_pprime_part_bound", (2,))
    assert v.invariant_side.holds and v.structure_side.holds and v.agrees  # 6 <= 3*2
    v = evaluate(s3, "s_pprime_part_bound", (2,))
    assert not v.invariant_side.holds and v.agrees  # hypothesis fails: 4_2 != 1


# --- Huppert --------------------------------------------------------------------


def test_huppert(q8, c6, q8c3):
    v = evaluate(q8, "huppert_central_hall", (2,))
    assert sides(v) == (False, False) and v.agrees and not v.experimental
    v = evaluate(c6, "huppert_central_hall", (2,))
    assert sides(v) == (True, True) and v.agrees
    v = evaluate(q8c3, "huppert_central_hall", (3,))
    assert sides(v) == (True, True) and v.agrees  # sizes 1, 2 are all 3'-numbers
    v = evaluate(q8c3, "huppert_central_hall", (2, 3))
    assert v.experimental


# --- CHM ------------------------------------------------------------------------


def test_chm(s3, a4, q8):
    ident = evaluate(s3, "chm_hypercentre_part", (2,))
    assert ident.agrees
    assert dict(ident.invariant_side.numbers) == {"s_p_p": 1, "hypercentre_p": 1}
    part = evaluate(s3, "chm_direct_product_part", (2,))
    assert sides(part) == (False, False) and part.agrees  # |S_2|_2 = 1 != 2

    ident = evaluate(a4, "chm_hypercentre_part", (2,))
    assert dict(ident.invariant_side.numbers) == {"s_p_p": 1, "hypercentre_p": 1}  # |S_2| = 9

    part = evaluate(q8, "chm_direct_product_part", (2,))
    assert sides(part) == (True, True) and part.agrees  # p-group: trivially direct
    full = evaluate(q8, "chm_direct_product_full", (2,))
    assert sides(full) == (True, True) and full.agrees  # 8 = 8 * 1


# --- centre vs S_p' --------------------------------------------------------------


def test_centre_class_sizes(s3, a4, q8):
    assert evaluate(s3, "centre_divides_s_pprime", (2,)).agrees  # 1 divides 4
    strong = evaluate(s3, "centralizer_of_residual_divides_s_pprime", (2,))
    assert strong.agrees
    eq = evaluate(s3, "central_sylow_centre_by_s_pprime", (2,))
    assert sides(eq) == (False, False) and eq.agrees  # 4_2 = 4 != 1; Z(P) not central

    eq = evaluate(a4, "central_sylow_centre_by_s_pprime", (3,))
    assert sides(eq) == (False, False) and eq.agrees  # 9_3 = 9 != 1

    eq = evaluate(q8, "central_sylow_centre_by_s_pprime", (2,))
    assert sides(eq) == (True, True) and eq.agrees  # Z(Q8) = Z(P)
    assert dict(eq.invariant_side.numbers) == {"s_p_prime_p": 2, "w1_p": 2}


# --- pi-necessity -----------------------------------------------------------------


NECESSITY = ("direct_product_necessity_u", "direct_product_necessity_s")
PI_DIVISIBILITIES = ("index_pi_divides_u_piprime", "centre_divides_s_piprime")


def test_direct_product_necessity(c6, q8c3, s3):
    for v in (evaluate(c6, criterion, (2,)) for criterion in NECESSITY):
        assert v.invariant_side.holds and v.structure_side.holds and v.agrees
    for v in (evaluate(q8c3, criterion, (2,)) for criterion in NECESSITY):
        assert v.invariant_side.holds and v.structure_side.holds and v.agrees
    for v in (evaluate(s3, criterion, (2,)) for criterion in NECESSITY):
        assert not v.invariant_side.holds and v.agrees  # vacuous


# --- unconditional pi-set divisibilities --------------------------------------


def test_pi_divisibilities(hol7):
    for pi in ((), (2,), (7,), (2, 3), (3, 7)):
        for criterion in PI_DIVISIBILITIES:
            assert evaluate(hol7, criterion, pi).agrees


# --- experimental pi versions --------------------------------------------------


def test_isaacs_pi_experimental_disagreement(hol7):
    # invariant side: u_{pi'}(G)_pi = 2 = |G:G'|_pi for pi = {2,7};
    # structure side: the 3-elements do not form a subgroup, so no normal
    # Hall {3}-subgroup exists.  The p-version equivalence genuinely fails
    # to generalize, exactly as the class-size remark anticipates.
    v = evaluate(hol7, "isaacs_pi_nilpotent", (2, 7))
    assert v.experimental
    assert sides(v) == (True, False)
    assert not v.agrees

    # while for pi = {2,3} the experiment happens to agree
    v = evaluate(hol7, "isaacs_pi_nilpotent", (2, 3))
    assert sides(v) == (True, True) and v.agrees


def test_central_sylow_centres_pi_is_experimental(s3):
    v = evaluate(s3, "central_sylow_centres_by_s_piprime", (2, 3))
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


# --- the catalog -------------------------------------------------------------------


@pytest.mark.parametrize("criterion", [row.id for row in CATALOG if row.scope == PER_PRIME])
def test_per_prime_rows_require_dividing_prime(s3, criterion):
    with pytest.raises(ValueError, match="does not divide"):
        evaluate(s3, criterion, (5,))
    with pytest.raises(ValueError, match="takes one prime"):
        evaluate(s3, criterion, (2, 3))


def test_catalog_matches_builtin_report(builtin_report):
    kinds = {
        v["criterion"]: v["kind"]
        for block in builtin_report.document["groups"]
        for v in block.get("verdicts", [])
    }
    assert set(kinds) == {row.id for row in CATALOG}
    assert len(CATALOG) == 26
    for row in CATALOG:
        assert kinds[row.id] == row.kind


def test_verdict_fields_keep_their_order():
    assert CriterionVerdict._fields == (
        "criterion", "group_name", "primes", "kind", "invariant_side", "structure_side", "agrees", "experimental"
    )
    assert SideResult._fields == ("holds", "numbers")
    assert SideResult(None).numbers == ()
    assert CriterionVerdict("c", "G", (2,), "identity", SideResult(True), SideResult(None), True).experimental is False


def test_verdicts_are_immutable_and_compare_by_value(s3):
    v = evaluate(s3, "isaacs_p_nilpotent", (2,))
    again = evaluate(GroupData(s3.group, "S3"), "isaacs_p_nilpotent", [2])
    assert v == again and hash(v) == hash(again) and v is not again
    assert v.invariant_side == SideResult(v.invariant_side.holds, v.invariant_side.numbers)
    assert v != v._replace(agrees=not v.agrees)
    for obj, attr in ((v, "agrees"), (v, "primes"), (v.structure_side, "holds"), (v, "note")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)


def test_invariant_sides_reach_a_structure_oracle_only_where_the_statement_does(monkeypatch, corpus_by_name):
    # with every oracle but the classes raising, an invariant side that still
    # evaluates reads only |G|, m and w; the ones that reach an oracle are
    # the identities and divisibilities, which relate an invariant to a
    # subgroup order, the necessity rows, whose hypothesis is a Hall
    # decomposition, and the commuting row, whose hypothesis holds that q-
    # and r-elements commute
    import inspect

    from degclass import structure
    from degclass.arith import pi_sets
    from degclass.criteria import DIVISIBILITY, GLOBAL, IDENTITY

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    for name, oracle in vars(structure).items():
        public = inspect.isfunction(oracle) and oracle.__module__ == structure.__name__ and not name.startswith("_")
        if public and name != "conjugacy_classes":
            monkeypatch.setattr(structure, name, reached)
    rows = set()
    for name in ("S4", "A5", "S3xC5", "D8xC9"):
        d = GroupData(corpus_by_name[name].group, name)
        for row in CATALOG:
            if row.scope == GLOBAL:
                sets = [d.primes]
            else:
                sets = [(p,) for p in d.primes] if row.scope == PER_PRIME else pi_sets(d.primes, 2)
            for ps in sets:
                try:
                    row.invariant(d, ps)
                except Reached:
                    rows.add(row.id)
    relations = {row.id for row in CATALOG if row.kind in (IDENTITY, DIVISIBILITY)}
    hypotheses = {"direct_product_necessity_u", "direct_product_necessity_s", "direct_product_by_u_p_commuting"}
    assert rows == relations | hypotheses
