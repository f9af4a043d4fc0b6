import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from degclass.arith import pi_sets, prime_set, primes_of
from degclass.chardeg import character_degrees
from degclass.families import standard_group
from degclass.metrics import (
    class_size_frequency,
    is_pi_number,
    pi_complement,
    pi_part,
    s_pi_size,
    u_pi,
)
from degclass.structure import centre, conjugacy_classes, derived_subgroup


def hol_c7():
    return standard_group("holomorph_cyclic_prime", 7)


# --- pi parts ----------------------------------------------------------------


def test_pi_part_examples():
    assert pi_part(42, (2, 3)) == 6
    assert pi_part(42, ()) == 1
    assert pi_part(42, (2, 3, 7)) == 42
    assert pi_part(1, (2,)) == 1


def test_pi_part_rejects_zero_and_nonprimes():
    with pytest.raises(ValueError, match="n >= 1"):
        pi_part(0, (2,))
    with pytest.raises(ValueError, match="not prime"):
        pi_part(6, (4,))


def test_prime_set_normalises_any_iterable():
    assert prime_set([5, 2, 5]) == prime_set(p for p in (5, 2)) == prime_set((5, 2, 2)) == (2, 5)
    assert prime_set([]) == prime_set(iter(())) == prime_set(()) == ()
    # a kept result holds Python ints, whichever integer type came first
    assert all(type(p) is int for p in prime_set(np.array([7, 11])) + prime_set((7, 11)))


@pytest.mark.parametrize("bad", [(4,), (2, 9), [3, 1], (0, 5)])
def test_prime_set_raises_on_every_call_with_a_nonprime(bad):
    # a valid tuple's result is reused; a bad one is never taken for valid
    for _ in range(3):
        with pytest.raises(ValueError, match="is not prime"):
            prime_set(bad)
        with pytest.raises(ValueError, match="is not prime"):
            pi_part(30, bad)
    assert prime_set((3, 2)) == (2, 3)


def test_pi_times_complement_is_n():
    for n in (1, 2, 30, 360, 5040):
        ps = primes_of(n)
        for size in range(len(ps) + 1):
            for pi in itertools.combinations(ps, size):
                comp = pi_complement(pi, n)
                assert pi_part(n, pi) * pi_part(n, comp) == n


def test_pi_sets_by_size_then_lexicographic():
    assert pi_sets((2, 3, 5), 2) == [(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5)]
    assert pi_sets((5, 2, 3), 1) == [(), (2,), (3,), (5,)]
    assert pi_sets((2, 3, 5), 0) == [()]
    assert pi_sets((), 0) == [()]
    assert pi_sets((2, 3), 7) == [(), (2,), (3,), (2, 3)]


def test_pi_sets_rejects_negative_bound():
    with pytest.raises(ValueError, match=">= 0"):
        pi_sets((2, 3), -1)
    with pytest.raises(ValueError, match=">= 0"):
        pi_sets((), -1)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.sets(st.sampled_from([2, 3, 5, 7, 11, 13])))
def test_pi_part_multiplicative(a, b, pi):
    assert pi_part(a * b, pi) == pi_part(a, pi) * pi_part(b, pi)


@given(st.integers(1, 10**6), st.sets(st.sampled_from([2, 3, 5, 7, 11])))
def test_pi_number_iff_pi_part_full(n, pi):
    assert is_pi_number(n, pi) == (pi_part(n, pi) == n)


# --- u_pi --------------------------------------------------------------------


def test_u_pi_examples():
    assert u_pi(character_degrees(hol_c7()), (2,)) == 6
    c6 = standard_group("cyclic", 6)
    for pi in ((), (2,), (3,), (2, 3)):
        assert u_pi(character_degrees(c6), pi) == 6  # abelian: every degree is 1
    s3 = standard_group("symmetric", 3)
    # u_{2'}(S3): odd degrees of m = {1:2, 2:1} are the two linear ones
    assert u_pi(character_degrees(s3), (3,)) == 2


def test_u_pi_degenerate_sets(corpus):
    for rec in corpus:
        g = rec.group
        freq = character_degrees(g)
        assert u_pi(freq, primes_of(g.order)) == g.order
        assert u_pi(freq, ()) == g.order // derived_subgroup(conjugacy_classes(g)).order  # = |G:G'|


def test_u_pi_monotone(corpus):
    for rec in corpus:
        freq = character_degrees(rec.group)
        ps = primes_of(rec.group.order)
        for size in range(len(ps)):
            for pi in itertools.combinations(ps, size):
                for extra in ps:
                    if extra in pi:
                        continue
                    bigger = tuple(sorted(pi + (extra,)))
                    assert u_pi(freq, pi) <= u_pi(freq, bigger)


# --- class size frequency and S_pi -------------------------------------------


def test_class_size_frequency_examples():
    s3 = standard_group("symmetric", 3)
    assert class_size_frequency(conjugacy_classes(s3)).as_dict() == {1: 1, 2: 1, 3: 1}
    q8 = standard_group("quaternion", 8)
    assert class_size_frequency(conjugacy_classes(q8)).as_dict() == {1: 2, 2: 3}
    c5 = standard_group("cyclic", 5)
    assert class_size_frequency(conjugacy_classes(c5)).as_dict() == {1: 5}


def test_size_frequency_invariants(corpus):
    for rec in corpus:
        g = rec.group
        freq = class_size_frequency(conjugacy_classes(g))
        assert freq.total_elements() == g.order
        assert freq.count(1) == centre(g).order  # w(1) = |Z(G)|


def test_s_pi_examples():
    s3 = standard_group("symmetric", 3)
    assert s_pi_size(conjugacy_classes(s3), (3,)) == 4  # odd class sizes: 1 + 3
    a4 = standard_group("alternating", 4)
    assert s_pi_size(conjugacy_classes(a4), (2,)) == 9  # sizes 1 + 4 + 4
    q8 = standard_group("quaternion", 8)
    # in a p-group only central classes have p'-size
    assert s_pi_size(conjugacy_classes(q8), ()) == centre(q8).order == 2


def test_s_pi_degenerate_sets(corpus):
    for rec in corpus:
        g = rec.group
        cs = conjugacy_classes(g)
        assert s_pi_size(cs, primes_of(g.order)) == g.order
        assert s_pi_size(cs, ()) == centre(g).order


def test_s_pi_monotone(corpus):
    for rec in corpus:
        cs = conjugacy_classes(rec.group)
        ps = primes_of(rec.group.order)
        for size in range(len(ps)):
            for pi in itertools.combinations(ps, size):
                for extra in ps:
                    if extra in pi:
                        continue
                    bigger = tuple(sorted(pi + (extra,)))
                    assert s_pi_size(cs, pi) <= s_pi_size(cs, bigger)


def test_remark_divisibilities(corpus):
    # |G:G'|_pi divides u_pi'(G); |Z(G)| divides |S_pi'(G)| - for every pi
    for rec in corpus:
        g = rec.group
        freq = character_degrees(g)
        cs = conjugacy_classes(g)
        index = g.order // derived_subgroup(cs).order
        z = centre(g).order
        ps = primes_of(g.order)
        for size in range(len(ps) + 1):
            for pi in itertools.combinations(ps, size):
                comp = pi_complement(pi, g.order)
                assert u_pi(freq, comp) % pi_part(index, pi) == 0
                assert s_pi_size(cs, comp) % z == 0
