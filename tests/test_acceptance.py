"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Every numeric tolerance here is exact integer equality; the only stated
budgets are wall-clock (1 s for the holomorph reproduction, 5 minutes for
the full corpus).
"""

import itertools
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

import oracles
from degclass.arith import primes_of
from degclass.chardeg import admissible_primes, character_degrees, class_algebra, degrees_from_class_algebra
from degclass.cli import main
from degclass.criteria import GroupData, run_all_criteria
from degclass.families import standard_group
from degclass.metrics import pi_complement, pi_part, s_pi_size, u_pi
from degclass.structure import (
    centralizer,
    centre,
    conjugacy_classes,
    derived_subgroup,
    hypercentre,
    lower_central_last,
    p_prime_residual,
    p_residual,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


@pytest.fixture(scope="module")
def group_data(corpus):
    return [GroupData(rec.group, rec.name) for rec in corpus]


def test_criterion_1_holomorph_reproduction():
    with criterion(1, "holomorph reproduction"):
        start = time.monotonic()
        g = standard_group("holomorph_cyclic_prime", 7)
        freq = character_degrees(g)
        assert freq.as_dict() == {1: 6, 6: 1}
        derived_order = derived_subgroup(conjugacy_classes(g)).order
        index = g.order // derived_order  # |G:G'| = 6
        assert u_pi(freq, (2,)) == 6 == index * pi_part(derived_order, (2,))
        assert u_pi(freq, (3,)) == 6 == index * pi_part(derived_order, (3,))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_identity_suite(corpus, group_data):
    with criterion(2, "identity suite"):
        start = time.monotonic()
        assert len(corpus) >= 25
        assert all(rec.group.order <= 600 for rec in corpus)
        for data in group_data:
            g = data.group
            product = 1
            for p in primes_of(g.order):
                u_p_p = pi_part(u_pi(data.degree_frequency, (p,)), (p,))
                assert u_p_p == g.order // p_residual(g, p).order, (data.name, p)
                s_p = s_pi_size(data.classes, (p,))
                assert pi_part(hypercentre(data.classes, data.centre).order, (p,)) == pi_part(s_p, (p,)), (data.name, p)
                product *= u_p_p
            assert product == g.order // lower_central_last(data.classes, data.derived).order, data.name
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


EQUIVALENCE_IDS = (
    "isaacs_p_nilpotent",
    "cossey_hawkes_p_nilpotent",
    "direct_product_by_u_pprime",
    "complement_commutator_by_u_p",
    "huppert_central_hall",
    "chm_direct_product_part",
    "chm_direct_product_full",
    "central_sylow_centre_by_s_pprime",
    "direct_product_by_s_pprime",
)


def test_criterion_3_equivalence_suite(group_data, builtin_report):
    with criterion(3, "equivalence suite"):
        seen_true = {cid: [] for cid in EQUIVALENCE_IDS}
        seen_false = {cid: [] for cid in EQUIVALENCE_IDS}
        for data in group_data:
            for v in run_all_criteria(data, data.name):
                if v.criterion not in EQUIVALENCE_IDS or v.experimental:
                    continue
                assert v.agrees, (data.name, v.criterion, v.primes)
                if v.invariant_side.holds and v.structure_side.holds:
                    seen_true[v.criterion].append((data.name, v.primes))
                if not v.invariant_side.holds and not v.structure_side.holds:
                    seen_false[v.criterion].append((data.name, v.primes))
        for cid in EQUIVALENCE_IDS:
            assert seen_true[cid], f"{cid}: no both-true witness in the corpus"
            assert seen_false[cid], f"{cid}: no both-false witness in the corpus"
        # and the report records the same witnesses
        witnesses = builtin_report.document["summary"]["equivalence_witnesses"]
        for cid in EQUIVALENCE_IDS:
            assert witnesses[cid]["both_true"] and witnesses[cid]["both_false"]


def test_criterion_4_divisibility_suite(group_data):
    with criterion(4, "divisibility suite"):
        for data in group_data:
            g = data.group
            freq = data.degree_frequency
            derived_index = g.order // derived_subgroup(data.classes).order
            z = centre(g).order
            ps = primes_of(g.order)
            for size in range(0, min(2, len(ps)) + 1):
                for pi in itertools.combinations(ps, size):
                    comp = pi_complement(pi, g.order)
                    assert u_pi(freq, comp) % pi_part(derived_index, pi) == 0, (data.name, pi)
                    assert s_pi_size(data.classes, comp) % z == 0, (data.name, pi)
            for p in ps:
                comp = pi_complement((p,), g.order)
                s_comp = s_pi_size(data.classes, comp)
                strong = centralizer(g, p_prime_residual(g, p).members)
                assert s_comp % strong.order == 0, (data.name, p)
                # conditional part relations on u and s
                u_comp = u_pi(freq, comp)
                u_p = u_pi(freq, (p,))
                if pi_part(u_comp, (p,)) == pi_part(derived_index, (p,)):
                    assert pi_part(u_comp, comp) <= pi_part(g.order, comp), (data.name, p)
                if pi_part(u_p, (p,)) == pi_part(g.order, (p,)):
                    assert pi_part(u_p, comp) % pi_part(derived_index, comp) == 0, (data.name, p)
                if pi_part(s_comp, (p,)) == pi_part(z, (p,)):
                    bound = pi_part(g.order, comp) * pi_part(z, (p,))
                    assert s_comp <= bound, (data.name, p)


def test_criterion_5_implication_suite(group_data):
    with criterion(5, "implication suite"):
        commuting_hypotheses = 0
        necessity_hypotheses = 0
        for data in group_data:
            for v in run_all_criteria(data, data.name):
                if v.criterion == "direct_product_by_u_p_commuting":
                    assert v.agrees, (data.name, v.primes)
                    if v.invariant_side.holds:
                        commuting_hypotheses += 1
                elif v.criterion in ("direct_product_necessity_u", "direct_product_necessity_s"):
                    assert v.agrees, (data.name, v.criterion, v.primes)
                    if v.invariant_side.holds and v.primes:
                        necessity_hypotheses += 1
        # the constructed direct products make the hypotheses non-vacuous
        assert commuting_hypotheses > 0
        assert necessity_hypotheses > 0


def test_criterion_6_dixon_self_consistency(corpus, group_data):
    with criterion(6, "degree-method self-consistency"):
        for rec, data in zip(corpus, group_data):
            g = rec.group
            freq = data.degree_frequency
            assert freq.sum_of_squares() == g.order, rec.name
            assert freq.irreducible_count() == len(data.classes), rec.name
            assert freq.multiplicity(1) == g.order // derived_subgroup(data.classes).order, rec.name
            assert all(g.order % d == 0 for d in freq.degrees()), rec.name
            algebra = class_algebra(g, data.classes)
            primes = admissible_primes(g.order, algebra.exponent)
            next(primes)
            second = next(primes)
            assert degrees_from_class_algebra(replace(algebra, dixon_prime=second)) == freq, rec.name


GOLDEN = {
    "S3": {1: 2, 2: 1},
    "A4": {1: 3, 3: 1},
    "S4": {1: 2, 2: 1, 3: 2},
    "A5": {1: 1, 3: 2, 4: 1, 5: 1},
    "Q8": {1: 4, 2: 1},
    "SL(2,3)": {1: 3, 2: 3, 3: 1},
}


def test_criterion_7_golden_regression(corpus_by_name):
    with criterion(7, "golden degree regression"):
        for name, expected in GOLDEN.items():
            g = corpus_by_name[name].group
            assert character_degrees(g).as_dict() == expected, name
            # the counting constraints pin each golden multiset uniquely
            multisets = oracles.degree_multisets(
                g.order,
                len(conjugacy_classes(g)),
                g.order // derived_subgroup(conjugacy_classes(g)).order,
            )
            golden_tuple = tuple(sorted(d for d, m in expected.items() for _ in range(m)))
            assert multisets == [golden_tuple], name


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "report determinism"):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["verify", "--builtin", "--out", str(first)]) == 0
        assert main(["verify", "--builtin", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
