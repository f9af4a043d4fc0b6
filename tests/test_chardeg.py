import gc
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from degclass import chardeg, modmat
from degclass import group as groups
from degclass.chardeg import (
    ClassAlgebraData,
    DegreeFrequency,
    DixonPrimeSearchError,
    EigensplitError,
    admissible_primes,
    character_degrees,
    class_algebra,
    degrees_from_class_algebra,
    least_admissible_prime,
)
from degclass.families import standard_group
from degclass.group import build_group, direct_product
from degclass.perm import Permutation, parse_cycles
from degclass.structure import conjugacy_classes, derived_subgroup


def hol_c7():
    return standard_group("holomorph_cyclic_prime", 7)


# --- class algebra -----------------------------------------------------------


def test_s3_transposition_coefficient():
    g = standard_group("symmetric", 3)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    sizes = cs.sizes.tolist()
    transposition_class = sizes.index(3)  # 3 transpositions square to the identity
    assert data.matrix(transposition_class)[transposition_class, 0] == 3


def test_identity_class_acts_as_unit():
    g = standard_group("symmetric", 4)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    r = len(cs)
    for j in range(r):
        for k in range(r):
            assert data.matrix(0)[j, k] == (1 if j == k else 0)


@pytest.mark.parametrize("family,parameter", [("symmetric", 3), ("symmetric", 4), ("quaternion", 8)])
def test_coefficient_counting_identity(family, parameter):
    # sum_k a[i][j][k] * |K_k| = |K_i| * |K_j|
    g = standard_group(family, parameter)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    sizes = cs.sizes.tolist()
    r = len(cs)
    for i in range(r):
        for j in range(r):
            total = sum(data.matrix(i)[j, k] * sizes[k] for k in range(r))
            assert total == sizes[i] * sizes[j]


def test_coefficient_inverse_pairing_symmetry():
    g = standard_group("symmetric", 4)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    star = cs.inverse_pairing
    r = len(cs)
    for i in range(r):
        for j in range(r):
            for k in range(r):
                assert data.matrix(i)[j, k] == data.matrix(star[j])[star[i], star[k]]


def test_s3_exponent_and_prime():
    g = standard_group("symmetric", 3)
    data = class_algebra(g, conjugacy_classes(g))
    assert data.exponent == 6
    assert data.dixon_prime == 7  # least prime = 1 (mod 6) above 2*sqrt(6)


def test_prime_search_examples():
    assert least_admissible_prime(1, 1) == 3
    assert least_admissible_prime(24, 12) == 13
    assert least_admissible_prime(42, 42) == 43
    assert least_admissible_prime(60, 30) == 31


def test_least_admissible_prime_is_far_below_the_search_bound():
    # for every order n up to the cap, some k <= 84 makes k * n + 1 an
    # admissible prime, and k * n + 1 = 1 (mod e) for every exponent e | n:
    # the search never fails on an enumerable group (worst at n = 5207)
    bound = chardeg.PRIME_SEARCH_FACTOR * groups.ENUMERATION_CAP
    prime = np.ones(bound + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    worst = (0, 0)
    for n in range(1, groups.ENUMERATION_CAP + 1):
        k = 1
        while not (prime[k * n + 1] and (k * n + 1) ** 2 > 4 * n):
            k += 1
        worst = max(worst, (k, -n))
    assert worst == (84, -5207) and worst[0] < chardeg.PRIME_SEARCH_FACTOR
    assert least_admissible_prime(5207, 5207) == 84 * 5207 + 1


def test_prime_search_bound_failure_is_explicit(monkeypatch):
    monkeypatch.setattr(chardeg, "PRIME_SEARCH_FACTOR", 1)
    with pytest.raises(DixonPrimeSearchError, match="below"):
        list(admissible_primes(42, 42))


# --- degrees -----------------------------------------------------------------

GOLDEN = {
    ("symmetric", 3): {1: 2, 2: 1},
    ("alternating", 4): {1: 3, 3: 1},
    ("symmetric", 4): {1: 2, 2: 1, 3: 2},
    ("alternating", 5): {1: 1, 3: 2, 4: 1, 5: 1},
    ("quaternion", 8): {1: 4, 2: 1},
    ("sl_2_3", 3): {1: 3, 2: 3, 3: 1},
}


@pytest.mark.parametrize("family,parameter", sorted(GOLDEN))
def test_golden_degrees(family, parameter):
    g = standard_group(family, parameter)
    assert character_degrees(g).as_dict() == GOLDEN[(family, parameter)]


@pytest.mark.parametrize("family,parameter", sorted(GOLDEN))
def test_goldens_are_pinned_by_counting_constraints(family, parameter):
    # the constraint oracle (#classes, sum of squares, number of linear
    # characters) admits exactly one degree multiset for these groups, so the
    # golden values above are forced without any character computation
    g = standard_group(family, parameter)
    cs = conjugacy_classes(g)
    class_count = len(cs)
    linear = g.order // derived_subgroup(cs).order
    multisets = oracles.degree_multisets(g.order, class_count, linear)
    assert len(multisets) == 1
    expected = GOLDEN[(family, parameter)]
    golden_tuple = tuple(sorted(d for d, m in expected.items() for _ in range(m)))
    assert multisets[0] == golden_tuple


def test_holomorph_c7_degrees():
    assert character_degrees(hol_c7()).as_dict() == {1: 6, 6: 1}


@pytest.mark.parametrize("n", [1, 2, 5, 6, 12])
def test_abelian_degrees(n):
    g = standard_group("cyclic", n)
    assert character_degrees(g).as_dict() == {1: n}


def test_frequency_invariants_over_corpus(corpus):
    for rec in corpus:
        g = rec.group
        freq = character_degrees(g)
        assert freq.sum_of_squares() == g.order
        cs = conjugacy_classes(g)
        assert freq.irreducible_count() == len(cs)
        assert freq.multiplicity(1) == g.order // derived_subgroup(cs).order
        assert all(g.order % d == 0 for d in freq.degrees())


def test_next_admissible_prime_gives_identical_frequency(corpus):
    for rec in corpus:
        g = rec.group
        cs = conjugacy_classes(g)
        data = class_algebra(g, cs)
        primes = admissible_primes(g.order, data.exponent)
        first = next(primes)
        second = next(primes)
        assert first == data.dixon_prime
        base = degrees_from_class_algebra(data)
        again = degrees_from_class_algebra(replace(data, dixon_prime=second))
        assert base == again


@pytest.mark.parametrize("ell,dtype", [(61, np.int16), (241, np.int32), (46381, np.int64)])
def test_s6_frequency_is_the_same_in_every_residue_dtype(ell, dtype):
    # three admissible primes of S6 (exponent 60, order 720), one per dtype
    g = standard_group("symmetric", 6)
    data = class_algebra(g, conjugacy_classes(g))
    assert ell in itertools.takewhile(lambda q: q <= ell, admissible_primes(g.order, data.exponent))
    assert modmat.residues(ell) is dtype
    split = _split(replace(data, dixon_prime=ell))[-1]
    assert split.vectors.dtype == dtype
    freq = degrees_from_class_algebra(replace(data, dixon_prime=ell))
    assert freq.as_dict() == {1: 2, 5: 4, 9: 2, 10: 2, 16: 1}


def test_direct_product_frequency_multiplies():
    q8 = standard_group("quaternion", 8)
    c3 = standard_group("cyclic", 3)
    freq = character_degrees(direct_product(q8, c3))
    assert freq.as_dict() == {1: 12, 2: 3}


@pytest.mark.parametrize(
    "left,right",
    [
        (("quaternion", 8), ("cyclic", 3)),
        (("symmetric", 3), ("cyclic", 5)),
        (("alternating", 4), ("cyclic", 2)),
        (("symmetric", 3), ("symmetric", 3)),
        (("dihedral", 4), ("symmetric", 3)),
    ],
)
def test_product_frequency_is_convolution_of_factors(left, right):
    # the irreducibles of A x B are the outer products of those of A and B,
    # so m_{AxB}(n) = sum over ab = n of m_A(a) * m_B(b); this checks the
    # eigensplit on the product against two independent smaller runs
    a = standard_group(*left)
    b = standard_group(*right)
    expected: dict[int, int] = {}
    for da, ma in character_degrees(a).entries:
        for db, mb in character_degrees(b).entries:
            expected[da * db] = expected.get(da * db, 0) + ma * mb
    assert character_degrees(direct_product(a, b)).as_dict() == expected


# --- degree readout ----------------------------------------------------------

# S3's classes: the identity, the three transpositions, the two 3-cycles; each
# is its own inverse.  At ell = 7, d^2 * T = 6 holds for d = 1 at T = 6 and for
# d = 2 at T = 5.
# a[i][j][k]: K_1^2 = 3 K_0 + 3 K_2, K_1 K_2 = 2 K_1, K_2^2 = 2 K_0 + K_2
S3_COEFFICIENTS = {
    (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
    (1, 0, 1): 1, (1, 1, 0): 3, (1, 1, 2): 3, (1, 2, 1): 2,
    (2, 0, 2): 1, (2, 1, 1): 2, (2, 2, 0): 2, (2, 2, 2): 1,
}  # fmt: skip


def s3_algebra():
    return oracles.class_algebra_data(3, S3_COEFFICIENTS, 7, exponent=6)


def _s3_inner_products(vectors):
    # S3's centre is trivial: one block of its three classes, over the trivial character of Z
    data = s3_algebra()
    split = chardeg._Split(np.array(vectors), np.zeros(len(vectors), dtype=np.intp), [])
    return chardeg._inner_products(data, data.centre, np.zeros((1, 0), dtype=np.int64), split)


def test_hand_built_s3_algebra_gives_s3_degrees():
    # no group and no class set: the degree step reads only the algebra
    data = s3_algebra()
    assert (data.sizes, data.star, data.order, data.class_count) == ((1, 3, 2), (0, 1, 2), 6, 3)
    assert degrees_from_class_algebra(data).as_dict() == {1: 2, 2: 1}


def test_degree_readout_matches_each_vector_to_one_square():
    vectors = [[1, 3, 2], [1, 4, 2], [1, 0, 6]]  # trivial, sign, degree 2
    t = _s3_inner_products(vectors)
    assert t.tolist() == [6, 6, 5]
    assert chardeg._degree_frequency(6, t, 7) == DegreeFrequency(((1, 2), (2, 1)))


@pytest.mark.parametrize(
    "vector,total",
    [([1, 1, 3], 0), ([1, 0, 0], 1)],
    ids=["T-vanishes", "T-matches-no-degree"],
)
def test_degree_readout_rejects_a_vector_without_exactly_one_degree(vector, total):
    vectors = [[1, 3, 2], vector]
    inverse_sizes = [pow(n, -1, 7) for n in s3_algebra().sizes]
    assert sum(w * w * inv for w, inv in zip(vector, inverse_sizes)) % 7 == total
    with pytest.raises(EigensplitError, match="no single degree d <= 2"):
        chardeg._degree_frequency(6, _s3_inner_products(vectors), 7)


def test_eigensplit_stall_aborts_loudly():
    # scalar class matrices can never split the space: with corrupted
    # coefficients the refinement must abort instead of returning junk
    fake = oracles.class_algebra_data(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 0): 1, (1, 1, 1): 1}, 5)
    with pytest.raises(EigensplitError, match="stalled"):
        degrees_from_class_algebra(fake)


# --- the split ----------------------------------------------------------------


def _elementary_abelian(p, n):
    g = c = standard_group("cyclic", p)
    for _ in range(n - 1):
        g = direct_product(g, c)
    return g


def _split_groups():
    from degclass.corpus import builtin_corpus

    for rec in builtin_corpus():
        yield pytest.param(rec.group, id=rec.name)
    for n in range(2, 13):
        yield pytest.param(standard_group("cyclic", n), id=f"cyclic-{n}")
    yield pytest.param(standard_group("holomorph_cyclic_prime", 23), id="Hol(C23)")
    yield pytest.param(standard_group("dihedral", 100), id="dihedral-100")


def _split(data):
    """The degree step's centre, the characters of Z, their blocks and the
    split of the blocks of several orbits, at ``data.dixon_prime``."""
    centre = data.centre
    characters = chardeg._characters_of_centre(data, centre)
    good = chardeg._block_orbits(centre, characters, data.exponent)
    return centre, characters, good, chardeg._blocks(data, centre, characters, good)


def _certify(data, centre, characters, good, split):
    """The degree step's certificate: the centre, then the central characters."""
    chardeg._certify_centre(data, centre, characters)
    chardeg._certify(data, centre, characters, good, split)


def _expanded(data, centre, characters, good, split):
    """Every central character as a row over the r classes: lambda(z) *
    w(c_o) at the class z * c_o of an orbit o, which is 0 off its block."""
    e, ell = data.exponent, data.dixon_prime
    zeta = chardeg._roots_of_unity(e, ell)
    lone = characters[good.sum(axis=1) == 1]
    rows = [zeta[lone @ centre.digits % e] * (centre.orbit == 0)]
    rows.append(zeta[characters[split.owner] @ centre.digits % e] * split.vectors[:, centre.orbit].astype(np.int64) % ell)
    return np.concatenate(rows)


def _vectors(data):
    """The central characters the degree step finds, as rows over the classes."""
    return _expanded(data, *_split(data))


@pytest.mark.parametrize("g", _split_groups())
def test_generator_and_refinement_paths_agree(g):
    # the split does not depend on the order of the class sums: generators'
    # classes first and plain class order give the same vectors as a set of
    # rows (neither path sorts them), and the degree frequency is a function
    # of that set
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    primes = admissible_primes(g.order, data.exponent)
    frequencies = []
    for ell in (next(primes), next(primes)):
        at = replace(data, dixon_prime=ell)
        vectors = _vectors(at)
        refined = _vectors(replace(at, generator_classes=tuple(range(len(cs)))))
        assert sorted(vectors.tolist()) == sorted(refined.tolist()), ell
        frequencies.append(degrees_from_class_algebra(at))
    assert frequencies[0] == frequencies[1]


def _eigenvalue_counts(monkeypatch):
    """The number of eigenvalues of each class sum a split uses (``_lagrange``)."""
    counts = {"_lagrange": []}
    lagrange = chardeg._lagrange

    def spy_lagrange(powers, dependent, ell):
        counts["_lagrange"].append(len(powers))
        return lagrange(powers, dependent, ell)

    monkeypatch.setattr(chardeg, "_lagrange", spy_lagrange)
    return counts


def _closed_form_uses(monkeypatch):
    """The class sums of one element each walk of the centre uses."""
    uses, walk = [], chardeg._walk_centre

    def spy(data):
        centre = walk(data)
        uses.append(centre.used)
        return centre

    monkeypatch.setattr(chardeg, "_walk_centre", spy)
    return uses


def test_cyclic_group_splits_from_one_generator(monkeypatch):
    # the generator is one element of order 96: the walk of the centre uses
    # its class sum alone, and every block is Z's orbit alone, so no split runs
    counts, uses = _eigenvalue_counts(monkeypatch), _closed_form_uses(monkeypatch)
    g = standard_group("cyclic", 96)
    assert character_degrees(g).as_dict() == {1: 96}
    assert counts == {"_lagrange": []}
    assert uses == [list(class_algebra(g, conjugacy_classes(g)).generator_classes)] and len(uses[0]) == 1


def test_elementary_abelian_group_splits_by_seven_class_sums(monkeypatch):
    # every class sum of C2^7 has relative order 2 over the ones before it
    counts, uses = _eigenvalue_counts(monkeypatch), _closed_form_uses(monkeypatch)
    assert character_degrees(_elementary_abelian(2, 7)).as_dict() == {1: 128}
    assert counts == {"_lagrange": []}
    assert [len(used) for used in uses] == [7]


def test_c200_splits_within_seconds():
    start = perf_counter()
    assert character_degrees(standard_group("cyclic", 200)).as_dict() == {1: 200}
    assert perf_counter() - start < 10


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5)])
def test_elementary_abelian_refines_within_seconds(p, n):
    # 256 and 243 classes, more than the dixon prime 37
    start = perf_counter()
    assert character_degrees(_elementary_abelian(p, n)).as_dict() == {1: p**n}
    assert perf_counter() - start < 10


def test_refinement_with_more_classes_than_the_prime():
    g = direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3))
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    assert len(cs) == 40 > data.dixon_prime == 17
    primes = admissible_primes(g.order, data.exponent)
    first, second = (degrees_from_class_algebra(replace(data, dixon_prime=next(primes))) for _ in range(2))
    assert first.as_dict() == {1: 32, 2: 8}
    assert first == second


@pytest.mark.parametrize("square", [2, 0])
def test_class_sum_whose_minimal_polynomial_does_not_split_is_rejected(square):
    # K_1^2 = square * 1: x^2 - 2 has no root in GF(5), x^2 a double one
    coefficients = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    if square:
        coefficients[(1, 1, 0)] = square
    fake = oracles.class_algebra_data(2, coefficients, 5)
    with pytest.raises(EigensplitError, match="distinct roots"):
        degrees_from_class_algebra(replace(fake, generator_classes=(1, 0)))


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(standard_group("symmetric", 4), id="S4"),
        pytest.param(standard_group("sl_2_3", 3), id="SL(2,3)"),
        pytest.param(standard_group("alternating", 5), id="A5"),
        pytest.param(direct_product(standard_group("dihedral", 4), standard_group("cyclic", 9)), id="D8xC9"),
    ],
)
def test_identity_chain_gives_the_minimal_polynomial_of_the_class_matrix(g):
    # K^n = sum_t c_t K^t from the identity's chain is K's minimal
    # polynomial x^n - sum_t c_t x^t, which modmat finds on the class matrix
    data = class_algebra(g, conjugacy_classes(g))
    r, ell = data.class_count, data.dixon_prime
    one = np.eye(1, r, dtype=modmat.residues(ell))[0]
    several = [c for c in range(r) if data.sizes[c] > 1]
    assert several
    for c in several:
        _, coefficients = chardeg._identity_chain(chardeg._action(*data.column(c), r, ell), one, ell)
        chain = [(-int(t)) % ell for t in coefficients] + [1]
        assert chain == modmat.minimal_polynomial(data.matrix(c), ell)


def test_refinement_builds_no_class_matrix_and_solves_no_subspace(monkeypatch):
    g = direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3))
    data = class_algebra(g, conjugacy_classes(g))
    called = []

    def spy(name):
        return lambda *args, **kwargs: called.append(name)

    monkeypatch.setattr(ClassAlgebraData, "matrix", spy("matrix"))
    for name in ("nullspace", "solve_right", "minimal_polynomial"):
        monkeypatch.setattr(modmat, name, spy(name))
    vectors = _vectors(replace(data, generator_classes=tuple(range(data.class_count))))
    oracles.Reference.check_central_characters(data.coefficients, data.class_count, vectors, data.dixon_prime)
    assert character_degrees(g).as_dict() == {1: 32, 2: 8}
    assert called == []


def test_non_central_vector_is_rejected():
    g = standard_group("symmetric", 3)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    ell = data.dixon_prime
    centre, characters, good, split = _split(data)
    vectors = _expanded(data, centre, characters, good, split)
    oracles.Reference.check_central_characters(data.coefficients, 3, vectors, ell)
    broken = vectors.copy()
    broken[-1] = (broken[-1] + np.eye(3, dtype=np.int64)[1]) % ell
    with pytest.raises(EigensplitError, match="not a central character"):
        oracles.Reference.check_central_characters(data.coefficients, 3, broken, ell)
    perturbed = split.vectors.copy()
    perturbed[-1, centre.orbit[1]] = (perturbed[-1, centre.orbit[1]] + 1) % ell
    with pytest.raises(EigensplitError, match="not a central character"):
        _certify(data, centre, characters, good, split._replace(vectors=perturbed))


def _certificate_groups():
    from degclass.corpus import builtin_corpus

    for rec in builtin_corpus():
        yield pytest.param(rec.group, id=rec.name)
    yield pytest.param(standard_group("cyclic", 96), id="C96")
    yield pytest.param(_elementary_abelian(2, 7), id="C2^7")
    yield pytest.param(direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3)), id="D8xC2^3")


@pytest.mark.parametrize("g", _certificate_groups())
def test_certified_vectors_pass_the_all_pairs_check(g):
    # the certificate reads the class sums the blocks used, at their orbits'
    # representatives; the oracle checks every expanded vector against all
    # r^2 coefficient pairs
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    split = _split(data)
    _certify(data, *split)
    oracles.Reference.check_central_characters(data.coefficients, len(cs), _expanded(data, *split), data.dixon_prime)


def _certified_s4():
    g = standard_group("symmetric", 4)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    return data, *_split(data), cs


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda v: np.concatenate([v[:-1], v[:1]]), "agree on every class sum used"),
        (lambda v: np.concatenate([v[:, :1] * 2, v[:, 1:]], axis=1), "not 1 at the identity class"),
        (lambda v: v[:-1], "found 4 vectors, expected 5"),
    ],
    ids=["duplicate", "w0-not-1", "r-minus-1"],
)
def test_certificate_rejects_corrupted_vectors(corrupt, message):
    # S4's centre is trivial: one block of its five classes
    data, centre, characters, good, split, cs = _certified_s4()
    _certify(data, centre, characters, good, split)
    vectors = corrupt(split.vectors)
    with pytest.raises(EigensplitError, match=message):
        _certify(data, centre, characters, good, split._replace(vectors=vectors, owner=split.owner[: len(vectors)]))


def test_certificate_finds_a_duplicated_vector_wherever_it_sorts():
    # check (c) sorts the characters of Z on the class sums used and
    # compares neighbours: a copy of any one over any other is caught
    g = _elementary_abelian(2, 7)
    data = class_algebra(g, conjugacy_classes(g))
    centre, characters, good, split = _split(data)
    assert len(split.vectors) == 0 and len(characters) == 128
    _certify(data, centre, characters, good, split)
    for copy, over in [(0, 1), (5, 127), (127, 64), (3, 2)]:
        duplicated = characters.copy()
        duplicated[over] = characters[copy]
        with pytest.raises(EigensplitError, match="two split vectors agree on every class sum used"):
            chardeg._certify_centre(data, centre, duplicated)


def test_certificate_of_the_trivial_group_uses_no_class_sum():
    g = build_group(1, [])
    data = class_algebra(g, conjugacy_classes(g))
    split = _split(data)
    assert split[0].used == [] and split[1].shape == (1, 0) and split[3].used == []
    _certify(data, *split)
    assert degrees_from_class_algebra(data).as_dict() == {1: 1}


def _certify_corrupted_s4(corrupt):
    # corrupts the column of a class sum the split used, which the certificate
    # reads; the class sizes and inverse classes stay those of S4
    data, centre, characters, good, split, cs = _certified_s4()
    coefficients = corrupt(dict(data.coefficients), split.used[0], cs)
    corrupted = oracles.class_algebra_data(data.class_count, coefficients, data.dixon_prime)
    _certify(replace(data, source=corrupted.source), centre, characters, good, split)


def test_certificate_rejects_a_table_whose_column_sums_are_not_class_sizes():
    def bump(coefficients, t, cs):
        key = next(key for key in coefficients if key[0] == t and key[2] != 0)
        coefficients[key] += 1
        return coefficients

    with pytest.raises(EigensplitError, match=r"some sum over j of a\[g\]\[j\]\[k\] differs from \|K_g\|"):
        _certify_corrupted_s4(bump)


def test_certificate_rejects_a_table_that_lacks_a_class_pair():
    def drop_pair(coefficients, t, cs):
        return {key: v for key, v in coefficients.items() if key[:2] != (t, t)}

    with pytest.raises(EigensplitError, match="class sum 4 cover 4 classes j, expected 5"):
        _certify_corrupted_s4(drop_pair)


def test_certificate_rejects_a_unit_coefficient_off_the_inverse_class():
    # a[t][t*][0] = |K_t| moves to a[t][u][0]: the column sums still hold
    def move_unit(coefficients, t, cs):
        u = next(j for j in range(1, len(cs)) if j != cs.inverse_pairing[t])
        assert (t, u, 0) not in coefficients
        coefficients[(t, u, 0)] = coefficients.pop((t, cs.inverse_pairing[t], 0))
        return coefficients

    with pytest.raises(EigensplitError, match=r"a\[g\]\[j\]\[0\] is not \|K_g\| exactly at j = g\*"):
        _certify_corrupted_s4(move_unit)


def test_generator_classes_are_recorded_without_the_identity():
    g = _elementary_abelian(2, 3)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    assert data.generator_classes == tuple(cs.class_index[x] for x in g.generator_indices)
    assert len(data.generator_classes) == 3 and 0 not in data.generator_classes


def _call_counter(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(chardeg, name)

        def spy(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(chardeg, name, spy)
    return calls


def test_c2_7_refines_by_its_seven_generator_classes_only(monkeypatch):
    # the walk of the centre uses the seven generators' class sums, and every
    # block is Z's orbit alone, so no chain or split runs
    g = _elementary_abelian(2, 7)
    data = class_algebra(g, conjugacy_classes(g))
    assert data.centre.used == list(data.generator_classes) and len(data.centre.used) == 7
    calls = _call_counter(monkeypatch, "_identity_chain", "_lagrange")
    assert character_degrees(g).as_dict() == {1: 128}
    assert calls == {"_identity_chain": 0, "_lagrange": 0}


def test_c2_9_skips_the_class_sums_that_split_nothing():
    # in class order the ninth independent generator is class 256; every class
    # sum before it is a product of earlier ones, so it lies in H and the walk
    # of the centre skips it
    g = _elementary_abelian(2, 9)
    data = class_algebra(g, conjugacy_classes(g))
    in_class_order = replace(data, generator_classes=tuple(range(data.class_count)))
    centre = in_class_order.centre
    assert len(centre.used) == 9 and centre.used[-1] == 256
    assert chardeg._characters_of_centre(in_class_order, centre).shape == (512, 9)
    assert degrees_from_class_algebra(in_class_order).as_dict() == {1: 512}


def test_c96_runs_one_identity_chain(monkeypatch):
    # the walk of the centre is the one chain C96 runs: the orbit of class 0
    # under its generator's permutation; no Krylov chain is computed
    g = standard_group("cyclic", 96)
    data = class_algebra(g, conjugacy_classes(g))
    calls = _call_counter(monkeypatch, "_walk_centre", "_identity_chain")
    assert degrees_from_class_algebra(data).as_dict() == {1: 96}
    assert calls == {"_walk_centre": 1, "_identity_chain": 0}
    assert degrees_from_class_algebra(data).as_dict() == {1: 96}
    assert calls == {"_walk_centre": 1, "_identity_chain": 0}


def test_a_central_class_sum_of_a_non_abelian_group_is_split_in_closed_form(monkeypatch):
    # D8 x C9's class sums of one element act on every block as the scalar
    # lambda(z), so the split folds and visits only class sums of two
    # elements; the blocks of four orbits of the nine characters of Z
    # trivial on D8's centre are split as one direct sum, by two class sums
    # of two eigenvalues each (the degree step, then _split), and the other
    # nine characters are Z's orbit alone
    counts, folded = _eigenvalue_counts(monkeypatch), []
    fold = chardeg._fold
    monkeypatch.setattr(chardeg, "_fold", lambda data, centre, characters, g: folded.append(g) or fold(data, centre, characters, g))
    g = direct_product(standard_group("dihedral", 4), standard_group("cyclic", 9))
    data = class_algebra(g, conjugacy_classes(g))
    assert degrees_from_class_algebra(data).as_dict() == {1: 36, 2: 9}
    assert folded and all(data.sizes[c] == 2 for c in folded)
    centre, characters, good, split = _split(data)
    assert np.count_nonzero(good.sum(axis=1) == 1) == 9 and split.vectors.shape == (36, 4)
    assert counts["_lagrange"] == [2, 2, 2, 2]


def test_c96_degree_step_clears_no_column(monkeypatch):
    # C96 is one orbit of the centre: every character of Z is a block of its
    # own, certified on the normal form, so nothing is reduced or eliminated,
    # and no column is cleared
    g = standard_group("cyclic", 96)
    cs = conjugacy_classes(g)
    monkeypatch.setattr(np, "outer", lambda *args: pytest.fail("the degree step called np.outer"))
    assert degrees_from_class_algebra(class_algebra(g, cs)).as_dict() == {1: 96}


def test_c2_7_refinement_multiplies_through_matmul(monkeypatch):
    # the split of C2^7's class algebra as one algebra (the degree step needs
    # none): the first split reads the chain, and each of the six
    # refinements after it is one product by the 2 x 2 Lagrange matrix
    g = _elementary_abelian(2, 7)
    data = class_algebra(g, conjugacy_classes(g))
    r, ell = data.class_count, data.dixon_prime
    calls, matmul = [], modmat.matmul
    monkeypatch.setattr(modmat, "matmul", lambda a, b, p: calls.append(len(a)) or matmul(a, b, p))
    monkeypatch.setattr(np, "tensordot", lambda *args, **kwargs: pytest.fail("the refinement called np.tensordot"))
    one = np.eye(1, r, dtype=modmat.residues(ell))[0]
    rows, used = chardeg._idempotents(lambda c: chardeg._action(*data.column(c), r, ell), one, r, list(data.generator_classes), ell)
    assert len(rows) == r and used == list(data.generator_classes)
    assert calls == [2] * 7


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(standard_group("cyclic", 12), id="C12"),
        pytest.param(standard_group("quaternion", 8), id="Q8"),
        pytest.param(direct_product(standard_group("quaternion", 8), standard_group("cyclic", 3)), id="Q8xC3"),
        pytest.param(direct_product(standard_group("dihedral", 4), standard_group("cyclic", 9)), id="D8xC9"),
        # GL(2,3) on the 8 nonzero vectors of F_3^2, as in the benchmark's corpus
        pytest.param(
            build_group(8, [parse_cycles(c, 8) for c in ("(1,4,7)(2,8,5)", "(1,6,2,3)(4,7,8,5)", "(3,6)(4,7)(5,8)")]),
            id="GL(2,3)",
        ),
        pytest.param(_elementary_abelian(2, 7), id="C2^7"),
    ],
)
def test_closed_form_split_matches_the_general_path(g):
    # every central class sum K = z acts on each central character in closed
    # form, as the scalar lambda(z), which the split never visits: its general
    # sparse action on the expanded vectors, w -> M_z w, gives w_z * w
    data = class_algebra(g, conjugacy_classes(g))
    r = data.class_count
    central = [c for c in range(1, r) if data.sizes[c] == 1]
    assert central
    primes = admissible_primes(g.order, data.exponent)
    for ell in (next(primes), next(primes)):
        vectors = _vectors(replace(data, dixon_prime=ell))
        for c in central:
            codes, values = data.column(c)
            k, j = np.divmod(codes, r)
            transposed = np.argsort(j * r + k, kind="stable")
            image = chardeg._action((j * r + k)[transposed], values[transposed], r, ell)(vectors.astype(modmat.residues(ell)))
            assert np.array_equal(image, vectors[:, c : c + 1] * vectors % ell), (ell, c)


def test_a_class_sum_of_several_elements_takes_the_general_path(monkeypatch):
    # S3's centre is trivial: its transpositions' class sum splits by _lagrange
    g = standard_group("symmetric", 3)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    t = cs.sizes.tolist().index(3)
    calls = _call_counter(monkeypatch, "_lagrange")
    order = (t, *(c for c in range(1, 3) if c != t))
    split = _split(replace(data, generator_classes=order))[-1]
    assert split.used == [t] and calls["_lagrange"] == 1


def test_a_class_of_one_element_that_does_not_permute_the_classes_is_rejected():
    # a[1][1][0] = 1 makes class 1 one element, but its column also holds
    # a[1][1][1] = 1, so multiplying by K_1 permutes no class sums, and a walk
    # of the orbit of class 0 would never come back to it
    fake = oracles.class_algebra_data(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}, 5)
    assert fake.sizes == (1, 1)
    with pytest.raises(EigensplitError, match="class sum 1 of one element does not permute the classes"):
        replace(fake, generator_classes=(1,)).centre
    # the degree step walks the centre first
    with pytest.raises(EigensplitError, match="class sum 1 of one element does not permute the classes"):
        degrees_from_class_algebra(replace(fake, generator_classes=(1,)))


def _permutation_algebra(permutations, dixon_prime, exponent):
    # class i of one element moves class j to permutations[i][j]: a[i][j][pi(j)] = 1
    coefficients = {(i, j, k): 1 for i, pi in enumerate(permutations) for j, k in enumerate(pi)}
    return oracles.class_algebra_data(len(permutations), coefficients, dixon_prime, exponent)


def test_a_walk_of_the_centre_that_stalls_names_the_classes_of_one_element():
    # class 1 is one element that fixes every class, so its class sum adds
    # no class to the orbit of class 0, and the walk reaches one of the two
    # classes of one element
    fake = _permutation_algebra([[0, 1], [0, 1]], 5, 2)
    message = "the walk of the centre stalled: the class sums of one element reached only 1 of the 2 classes of one element"
    with pytest.raises(EigensplitError, match=message):
        fake.centre
    with pytest.raises(EigensplitError, match=message):
        degrees_from_class_algebra(fake)


def test_closed_form_rejects_permutations_that_are_no_group():
    # class 1 swaps classes 0 and 1, so H = {0, 1}; class 2 has relative
    # order 2 over H, but moves H onto {2, 0}, which meets H
    fake = _permutation_algebra([[0, 1, 2], [1, 0, 2], [2, 0, 1]], 7, 6)
    with pytest.raises(EigensplitError, match="class sum 2 of one element does not permute the cosets"):
        degrees_from_class_algebra(fake)


@pytest.mark.parametrize(
    "exponent,ell,message",
    [
        (1, 5, "the relation of class sum 1, of relative order 2, has no 2 solutions mod 1"),
        (4, 7, r"GF\(7\) holds no root of unity of order 4"),
    ],
)
def test_closed_form_rejects_an_exponent_that_does_not_fit(exponent, ell, message):
    # C2's class of one element has order 2, which the exponent 1 does not
    # hold, and GF(7) holds no fourth root of unity
    fake = _permutation_algebra([[0, 1], [1, 0]], ell, exponent)
    assert degrees_from_class_algebra(_permutation_algebra([[0, 1], [1, 0]], 5, 2)).as_dict() == {1: 2}
    with pytest.raises(EigensplitError, match=message):
        degrees_from_class_algebra(fake)


def _c3_squared():
    """C3 x C3's class algebra, the class sums its walk of the centre uses,
    and the permutations of every class."""
    g = _elementary_abelian(3, 2)
    data = class_algebra(g, conjugacy_classes(g))
    return data, data.centre.used, data.permutations(list(range(data.class_count))).tolist()


def test_closed_form_rejects_a_permutation_that_breaks_the_mixed_radix_step():
    # the walk reads the first class sum's permutation only on the orbit of
    # class 0; swapping two images off it leaves the walk as it was and a
    # permutation with pi(z*) = 0, but z no longer adds 1 to digit 0
    data, used, permutations = _c3_squared()
    z = used[0]
    orbit = [0]
    while permutations[z][orbit[-1]]:
        orbit.append(permutations[z][orbit[-1]])
    x, y = [c for c in range(data.class_count) if c not in orbit][:2]
    permutations[z][x], permutations[z][y] = permutations[z][y], permutations[z][x]
    fake = _permutation_algebra(permutations, data.dixon_prime, data.exponent)
    with pytest.raises(EigensplitError, match=f"class sum {z} does not add 1 to digit 0 of the normal form"):
        degrees_from_class_algebra(replace(fake, generator_classes=data.generator_classes))


@pytest.mark.parametrize("cells", [None, 1], ids=["one-block", "a-digit-a-block"])
@pytest.mark.parametrize("broken,digit", [((1,), 1), ((0, 1), 0)], ids=["last", "both"])
def test_the_stacked_mixed_radix_check_names_the_first_digit_that_fails(monkeypatch, cells, broken, digit):
    # C3 x C3 by z_0 and z_1: the walk reads pi_1 on the six classes of the
    # cosets H and z_1 H of H = <z_0>, so swapping the images of two classes
    # of z_1^2 H other than z_1^2 = z_1* leaves the walk and pi_1(z_1*) = 0
    # as they were; with pi_0 broken as well, digit 0 fails first, whether
    # the digits are carried in one block or one a block
    data, used, permutations = _c3_squared()
    if cells:
        monkeypatch.setattr(groups, "BLOCK_CELLS", cells)
    a, z = (permutations[c] for c in used)
    subgroup = [0, a[0], a[a[0]]]
    x, y = [z[z[c]] for c in subgroup][1:]
    z[x], z[y] = z[y], z[x]
    if 0 in broken:
        orbit = [0, a[0], a[a[0]]]
        u, v = [c for c in range(data.class_count) if c not in orbit][:2]
        a[u], a[v] = a[v], a[u]
    fake = replace(_permutation_algebra(permutations, data.dixon_prime, data.exponent), generator_classes=data.generator_classes)
    with pytest.raises(EigensplitError, match=f"class sum {used[digit]} does not add 1 to digit {digit} of the normal form"):
        degrees_from_class_algebra(fake)


def test_closed_form_rejects_an_inverse_pairing_off_the_normal_form():
    # two classes outside the class sums used swap their inverse classes:
    # t(x) + t(x*) no longer carries to 0
    data, used, _ = _c3_squared()
    star = list(data.star)
    x, y = [c for c in range(1, data.class_count) if c not in used][:2]
    star[x], star[y] = star[y], star[x]
    assert degrees_from_class_algebra(data).as_dict() == {1: 9}
    with pytest.raises(EigensplitError, match="a class and its inverse class do not multiply to 1 in the normal form"):
        degrees_from_class_algebra(replace(data, star=tuple(star)))


def test_closed_form_rejects_a_column_that_does_not_move_the_identity_to_its_class():
    # class i of C5 is a^i; class 1 moves 0 -> 2 -> 1 -> 3 -> 4 -> 0: a
    # 5-cycle with pi(1*) = pi(4) = 0, so the walk and the relations pass,
    # but pi(0) = 2, so class 1 is not at the place of digit 0
    permutations = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    assert degrees_from_class_algebra(_permutation_algebra(permutations, 11, 5)).as_dict() == {1: 5}
    permutations[1] = [2, 3, 1, 4, 0]
    fake = _permutation_algebra(permutations, 11, 5)
    with pytest.raises(EigensplitError, match="class sum 1 is not the generator of digit 0 of the normal form"):
        degrees_from_class_algebra(fake)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda a, e: np.concatenate([a[:-1], a[:1]]), "two split vectors agree on every class sum used"),
        (lambda a, e: a[:-1], "found 8 vectors, expected 9"),
        (lambda a, e: np.concatenate([a[:-1], a[-1:] + [e, 0]]), "are not residues mod 3"),
        (lambda a, e: np.concatenate([a[:-1], a[:1] - [0, 1]]), "are not residues mod 3"),
    ],
    ids=["duplicate", "r-minus-1", "above-e", "negative"],
)
def test_closed_form_certificate_rejects_corrupted_exponents(corrupt, message):
    # C3 x C3 is one orbit: each of its nine characters of Z is a central
    # character whose block is Z's orbit alone
    data, used, _ = _c3_squared()
    centre, characters, good, split = _split(data)
    assert centre.used == used and len(split.vectors) == 0 and characters[-1].tolist() == [2, 2]
    _certify(data, centre, characters, good, split)
    with pytest.raises(EigensplitError, match=message):
        chardeg._certify_centre(data, centre, corrupt(characters, data.exponent))


def test_closed_form_certificate_rejects_exponents_that_solve_no_relation():
    # C4 by a^2 and a: z_1 = a has relative order 2 over <a^2>, and z_1^2 =
    # z_0, so m_1 * a_1 = a_0 (mod 4); the vectors a with a_0 odd solve it
    # with a_1 = a_0 / 2 + 2 only in the rationals
    a = _cycles([4])[0]
    g = build_group(4, [a * a, a])
    data = class_algebra(g, conjugacy_classes(g))
    centre, characters, _, _ = _split(data)
    assert centre.orders.tolist() == [[2, 2]] and centre.relations.tolist() == [[[0, 0], [1, 0]]]
    broken = characters.copy()
    broken[:, 1] = (broken[:, 1] + 1) % 4
    with pytest.raises(EigensplitError, match=f"solve the relation of class sum {centre.used[1]}"):
        chardeg._certify_centre(data, centre, broken)


def _cycles(orders):
    """The basis of C_n1 x C_n2 x ...: disjoint cycles of the given lengths
    (1 for the identity), on sum(orders) points."""
    degree, basis, start = sum(orders), [], 0
    for n in orders:
        images = list(range(degree))
        images[start : start + n] = [start + (t + 1) % n for t in range(n)]
        basis.append(Permutation(images))
        start += n
    return basis


def _closed_form_certifies(gens, order):
    # the walk of the centre uses class sums that each leave the subgroup
    # the ones before it generate, and its characters pass the certificate:
    # m = {1: |G|}
    g = build_group(gens[0].degree, gens)
    data = class_algebra(g, conjugacy_classes(g))
    assert g.order == order and max(data.sizes) == 1
    assert (data.centre.orders > 1).all() and math.prod(data.centre.orders[0].tolist()) == order
    assert degrees_from_class_algebra(data).as_dict() == {1: order}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=3, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()), max_size=6),
    st.booleans(),
    st.integers(0, 3),
)
def test_closed_form_on_generators_that_are_no_basis(orders, moves, redundant, identity_at):
    # C_n1 x C_n2 x C_n3 from its basis after Nielsen moves (g_i -> g_i * g_j
    # or g_i * g_j^-1 for i != j, g_i -> g_i^-1 for i = j), which keep the
    # group, optionally with the redundant g_0 * g_1 and the identity added
    gens = _cycles(orders)
    for i, j, invert in moves:
        gens[i] = gens[i].inverse() if i == j else gens[i] * (gens[j].inverse() if invert else gens[j])
    if redundant:
        gens.append(gens[0] * gens[1])
    gens.insert(identity_at, Permutation(range(sum(orders))))
    _closed_form_certifies(gens, math.prod(orders))


@pytest.mark.parametrize(
    "orders,words,order",
    [
        # C6 by a^2, a^3; C12 by a^4, a^6, a^3 and e; C4 x C4 by y^2 x, x, y
        ([6], [[2], [3]], 6),
        ([12], [[4], [6], [3], [0]], 12),
        ([4, 4], [[1, 2], [1, 0], [0, 1]], 16),
    ],
    ids=["C6", "C12", "C4xC4"],
)
def test_closed_form_on_named_generating_tuples(orders, words, order):
    basis = _cycles(orders)
    gens = []
    for word in words:
        x = Permutation(range(sum(orders)))
        for b, power in zip(basis, word):
            for _ in range(power):
                x = x * b
        gens.append(x)
    _closed_form_certifies(gens, order)


def _move_entry(coefficients, g, source, target):
    # a[g][j][k] = 1 at (j, k) = source moves to target
    del coefficients[(g, *source)]
    coefficients[(g, *target)] = 1
    return coefficients


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(standard_group("cyclic", 12), id="C12"),
        pytest.param(direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3)), id="D8xC2^3"),
    ],
)
def test_certificate_checks_a_class_of_one_element_as_a_permutation(g):
    # the first class sum of one element the walk used: its column is one
    # entry 1 at each (j, pi(j)), checked by the certificate as a permutation
    data = class_algebra(g, conjugacy_classes(g))
    ell, r = data.dixon_prime, data.class_count
    centre, characters, good, split = _split(data)
    _certify(data, centre, characters, good, split)
    c = centre.used[0]
    pi, star = data.permutations([c])[0].tolist(), data.star[c]
    j = next(j for j in range(1, r) if j != star)

    def certify_corrupted(coefficients):
        corrupted = oracles.class_algebra_data(r, coefficients, ell)
        _certify(replace(data, source=corrupted.source), centre, characters, good, split)

    # class pi(j) loses its entry and class pi(star) gets a second one
    with pytest.raises(EigensplitError, match=f"class sum {c} of one element does not permute the classes"):
        certify_corrupted(_move_entry(dict(data.coefficients), c, (j, pi[j]), (j, pi[star])))
    # still a permutation, but it sends j, not c*, to the identity class
    swapped = _move_entry(dict(data.coefficients), c, (j, pi[j]), (j, 0))
    with pytest.raises(EigensplitError, match=r"a\[g\]\[j\]\[0\] is not \|K_g\| exactly at j = g\*"):
        certify_corrupted(_move_entry(swapped, c, (star, 0), (star, pi[j])))


def test_roots_of_unity_missing_from_the_field_are_rejected():
    # C12's characters of Z take the values of twelfth roots of unity, and
    # GF(7) holds only gcd(12, 6) = 6 of them
    g = standard_group("cyclic", 12)
    data = class_algebra(g, conjugacy_classes(g))
    with pytest.raises(EigensplitError, match=r"GF\(7\) holds no root of unity of order 12"):
        degrees_from_class_algebra(replace(data, dixon_prime=7))
    with pytest.raises(EigensplitError, match=r"GF\(7\) holds no root of unity of order 12"):
        chardeg._roots_of_unity(12, 7)


def test_refinement_reuses_the_generator_classes_chains(monkeypatch):
    # no class sum of D8 generates, so the split of its block of four orbits
    # uses several generator classes, and builds the chain of each once
    chains, class_of_action = [], {}
    idempotents, original = chardeg._idempotents, chardeg._identity_chain

    def spy(action, one, size, order, ell):
        def spied(g):
            act = action(g)
            class_of_action[act] = g
            return act

        return idempotents(spied, one, size, order, ell)

    monkeypatch.setattr(chardeg, "_idempotents", spy)
    monkeypatch.setattr(
        chardeg, "_identity_chain", lambda act, one, ell: chains.append(class_of_action[act]) or original(act, one, ell)
    )
    assert character_degrees(standard_group("dihedral", 4)).as_dict() == {1: 4, 2: 1}
    assert len(chains) == len(set(chains)) >= 2


def test_degree_budget_skips_before_allocating(monkeypatch):
    from degclass.corpus import parse_corpus
    from degclass.report import run_report

    # the int16 table of C12 takes 288 bytes, its degree layer 4200 (328
    # bytes a class for the walk of its centre by its one generator's class
    # sum, the one it can use, and the certificate's step on its one digit,
    # 4 for the characters' vectors and 18 for counting a column); both
    # groups are enumerated (2448 bytes) before the budget is lowered
    records = parse_corpus("group C12\ndegree 12\ngen (1,2,3,4,5,6,7,8,9,10,11,12)\nend\n")
    g = standard_group("cyclic", 12)
    monkeypatch.setattr(groups, "TABLE_MAX_BYTES", 1000)
    [block] = run_report(records).document["groups"]
    assert "class algebra arrays of 12 classes needs 4200 bytes" in block["skipped"]
    assert "verdicts" not in block
    cs = conjugacy_classes(g)
    assert g.table.nbytes == 288
    monkeypatch.setattr(groups.Group, "mul", lambda *args: pytest.fail("class_algebra gathered products"))
    with pytest.raises(groups.GroupTooLargeError, match="above the table budget of 1000"):
        class_algebra(g, cs)


@pytest.mark.parametrize(
    "build,dtype",
    [
        pytest.param(lambda: _elementary_abelian(2, 8), np.int16, id="C2^8"),
        pytest.param(lambda: _elementary_abelian(3, 5), np.int16, id="C3^5"),
        pytest.param(
            lambda: direct_product(standard_group("symmetric", 5), standard_group("symmetric", 4)), np.int16, id="S5xS4"
        ),
        pytest.param(lambda: standard_group("cyclic", 400), np.int32, id="C400"),
        pytest.param(lambda: standard_group("dihedral", 200), np.int32, id="D200"),
        pytest.param(lambda: direct_product(standard_group("dihedral", 4), standard_group("cyclic", 9)), np.int16, id="D8xC9"),
        pytest.param(lambda: direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 5)), np.int16, id="D8xC2^5"),
    ],
)
def test_degree_budget_covers_the_peak_of_the_degree_step(monkeypatch, build, dtype):
    # the abelian C2^8, C3^5 (int16) and C400 (int32) are one orbit, certified
    # on their normal form in k x r int64 digits for k = 8, 5 and 1 class sums
    # used; S5 x S4 (int16) is one block of r x r residue arrays, but the
    # gather of its largest class (240 elements) dominates the budget; D200
    # (int32) splits its blocks of 50 and 53 orbits in two turns; D8 x C9 and
    # D8 x C2^5 (int16) split the 4-orbit blocks of 9 and 32 characters of Z
    # as direct sums of 36 and 128 coordinates
    g = build()
    cs = conjugacy_classes(g)
    g.table, g.inverses, g.element_orders  # built before the trace starts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        degrees_from_class_algebra(class_algebra(g, cs))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert modmat.residues(class_algebra(g, cs).dixon_prime) is dtype
    monkeypatch.setattr(groups, "TABLE_MAX_BYTES", 0)  # below every count
    with pytest.raises(groups.GroupTooLargeError, match="class algebra arrays") as skip:
        class_algebra(g, cs)
    budget = int(re.search(r"needs (\d+) bytes", str(skip.value))[1])
    assert peak <= budget <= 3 * peak


@pytest.mark.parametrize(
    "g,count",
    [
        pytest.param(standard_group("cyclic", 96), 1, id="C96"),
        pytest.param(_elementary_abelian(2, 7), 7, id="C2^7"),
    ],
)
def test_degree_step_counts_only_the_columns_it_reads(monkeypatch, g, count):
    # C96 splits by its generator's class sum, C2^7 by its 7 generators' ones
    read, column = [], ClassAlgebraData.column
    monkeypatch.setattr(ClassAlgebraData, "column", lambda data, i: read.append(i) or column(data, i))
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    assert degrees_from_class_algebra(data).as_dict() == {1: g.order}
    assert set(read) == set(data.generator_classes) and len(set(read)) == count


def test_classes_and_the_centre_gather_once_for_all_the_generators(monkeypatch):
    # while the k x |G| cells of C2^k's maps fit one block, the classes build
    # the k conjugation maps in two gathers, and the walk of the centre reads
    # the columns of the k generators' classes in one
    gathers, mul = [], groups.Group.mul
    monkeypatch.setattr(groups.Group, "mul", lambda group, a, b: gathers.append(1) or mul(group, a, b))
    counts = []
    for k in (1, 3, 5, 7):
        g = _elementary_abelian(2, k)
        assert k * g.order <= groups.BLOCK_CELLS
        g.table
        gathers.clear()
        cs = conjugacy_classes(g)
        counts.append(len(gathers))
        data = class_algebra(g, cs)
        gathers.clear()
        assert len(data.centre.used) == k
        counts.append(len(gathers))
    assert counts == [2, 1] * 4


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(_elementary_abelian(2, 5), id="C2^5"),
        pytest.param(_elementary_abelian(3, 3), id="C3^3"),
        pytest.param(direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3)), id="D8xC2^3"),
        pytest.param(standard_group("symmetric", 4), id="S4"),
    ],
)
def test_blocks_of_a_few_cells_give_the_same_classes_and_degrees(monkeypatch, g):
    # with a block of one cell every stacked step takes one generator, one
    # column and one digit at a time: the classes, the centre and the
    # degrees are those of one block
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    centre, degrees = data.centre, degrees_from_class_algebra(data)
    monkeypatch.setattr(groups, "BLOCK_CELLS", 1)
    blocked = conjugacy_classes(g)
    assert np.array_equal(blocked.class_index, cs.class_index) and blocked.size_counts == cs.size_counts
    data = class_algebra(g, blocked)
    assert data.centre.used == centre.used and np.array_equal(data.centre.place, centre.place)
    assert degrees_from_class_algebra(data) == degrees


def test_d8_4_x_c2_is_evaluated_within_seconds():
    # 1250 classes in a group of order 8192: the degree layer's table of
    # r * min(r^2, |G|) coefficients would not fit the budget, its columns do
    d8 = standard_group("dihedral", 4)
    g = direct_product(direct_product(direct_product(direct_product(d8, d8), d8), d8), standard_group("cyclic", 2))
    start = perf_counter()
    assert character_degrees(g).as_dict() == {1: 512, 2: 512, 4: 192, 8: 32, 16: 2}
    assert perf_counter() - start < 3


def test_degree_layer_never_builds_the_coefficient_dict():
    g = standard_group("symmetric", 4)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    assert degrees_from_class_algebra(data).as_dict() == {1: 2, 2: 1, 3: 2}
    assert "coefficients" not in vars(data)


def test_coefficient_is_read_without_the_coefficient_dict():
    g = standard_group("symmetric", 3)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    t, c = cs.sizes.tolist().index(3), cs.sizes.tolist().index(2)  # transpositions, 3-cycles
    assert [data.matrix(i)[j, k] for i, j, k in [(t, t, 0), (t, t, c), (t, t, t), (c, c, c), (0, 0, 0)]] == [3, 3, 0, 1, 1]
    assert "coefficients" not in vars(data)
    # in C2 the last code (1, 1, 1) is absent, so its cell is zero
    g = standard_group("cyclic", 2)
    data = class_algebra(g, conjugacy_classes(g))
    assert [data.matrix(1)[1, k] for k in (0, 1)] == [1, 0]
    assert "coefficients" not in vars(data)


def test_class_matrix_matches_coefficients():
    g = standard_group("symmetric", 4)
    data = class_algebra(g, conjugacy_classes(g))
    r = data.class_count
    for i in range(r):
        want = [[data.coefficients.get((i, j, k), 0) for k in range(r)] for j in range(r)]
        assert data.matrix(i).tolist() == want


@pytest.mark.parametrize("block", [groups.BLOCK_CELLS, 7])
def test_sparse_action_matches_class_matrix(monkeypatch, block):
    monkeypatch.setattr(groups, "BLOCK_CELLS", block)
    g = standard_group("symmetric", 4)
    data = class_algebra(g, conjugacy_classes(g))
    ell = data.dixon_prime
    x = np.random.default_rng(0).integers(0, ell, (6, data.class_count))
    for i in range(data.class_count):
        assert np.array_equal(chardeg._action(*data.column(i), data.class_count, ell)(x), x @ data.matrix(i) % ell)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(standard_group("cyclic", 12), id="C12"),
        pytest.param(_elementary_abelian(2, 7), id="C2^7"),
        pytest.param(direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3)), id="D8xC2^3"),
        pytest.param(standard_group("symmetric", 4), id="S4"),
    ],
)
def test_action_of_every_class_sum_is_its_class_matrix(g):
    # a class of one element takes the same sparse sums as any other
    data = class_algebra(g, conjugacy_classes(g))
    ell = data.dixon_prime
    x = np.random.default_rng(1).integers(0, ell, (4, data.class_count))
    for c in range(data.class_count):
        assert np.array_equal(chardeg._action(*data.column(c), data.class_count, ell)(x), x @ data.matrix(c) % ell), c


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(standard_group("symmetric", 4), id="S4"),
        pytest.param(direct_product(standard_group("dihedral", 4), _elementary_abelian(2, 3)), id="D8xC2^3"),
        pytest.param(standard_group("cyclic", 96), id="C96"),
    ],
)
def test_degree_layer_at_block_7_matches_the_default_block(monkeypatch, g):
    # runs the multi-block loops of the action, the split and the certificate
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    expected = degrees_from_class_algebra(data)
    monkeypatch.setattr(groups, "BLOCK_CELLS", 7)
    assert degrees_from_class_algebra(data) == expected


def test_degree_frequency_accessors():
    freq = DegreeFrequency(((1, 2), (2, 1)))
    assert freq.multiplicity(1) == 2
    assert freq.multiplicity(5) == 0
    assert freq.irreducible_count() == 3
    assert freq.sum_of_squares() == 6
    assert freq.degrees() == [1, 2]


# --- blocks of the characters of the centre ---------------------------------


@pytest.mark.parametrize("g", _certificate_groups())
def test_blocks_partition_the_characters(g):
    # sum r_lambda = r, and the largest block, the trivial character's, holds
    # every Z-orbit (the class number of G/Z)
    data = class_algebra(g, conjugacy_classes(g))
    centre, characters, good, split = _split(data)
    sizes = good.sum(axis=1)
    assert sizes.sum() == data.class_count and sizes.max() == len(centre.reps)
    # the split finds as many central characters over each character of Z as its block has orbits
    assert np.array_equal(np.bincount(split.owner, minlength=len(sizes))[sizes > 1], sizes[sizes > 1])


def test_large_centres_split_one_block_at_a_time():
    # the Sylow subgroups of the centre are direct factors: the blocks have at
    # most 4, 3 and 16 orbits, far below r
    d8, s3, c2, c5 = (standard_group(*a) for a in [("dihedral", 4), ("symmetric", 3), ("cyclic", 2), ("cyclic", 5)])
    cases = [(direct_product(d8, _elementary_abelian(2, k)), {1: 4 * 2**k, 2: 2**k}) for k in range(3, 7)]
    cases.append((direct_product(direct_product(s3, c5), c5), {1: 50, 2: 25}))
    cases.append((direct_product(direct_product(direct_product(d8, d8), c2), c2), {1: 64, 2: 32, 4: 4}))
    start = perf_counter()
    for g, expected in cases:
        assert character_degrees(g).as_dict() == expected
    assert perf_counter() - start < 5


def _d8_x_c9():
    g = direct_product(standard_group("dihedral", 4), standard_group("cyclic", 9))
    data = class_algebra(g, conjugacy_classes(g))
    split = _split(data)
    _certify(data, *split)
    return data, *split


def test_certificate_rejects_a_perturbed_block_vector():
    data, centre, characters, good, split = _d8_x_c9()
    vectors = split.vectors.copy()
    vectors[17, 2] = (vectors[17, 2] + 1) % data.dixon_prime
    with pytest.raises(EigensplitError, match="not a central character on class sum"):
        _certify(data, centre, characters, good, split._replace(vectors=vectors))


def test_certificate_rejects_an_orbit_outside_its_characters_block():
    # a vector is moved to a character of Z that is not trivial on the
    # stabiliser of orbit 1 (its block is Z's orbit alone), where it is not 0
    data, centre, characters, good, split = _d8_x_c9()
    alone = np.flatnonzero(good.sum(axis=1) == 1)[0]
    t = np.flatnonzero(split.vectors[:, 1])[0]
    owner = split.owner.copy()
    owner[t] = alone
    with pytest.raises(EigensplitError, match="a block's orbits are not those on whose stabiliser"):
        _certify(data, centre, characters, good, split._replace(owner=owner))


def test_certificate_rejects_an_offset_off_its_class():
    # two classes of orbit 1 swap their places: the offset z_j of each no
    # longer moves the orbit's representative to it, which the normal form's
    # inverse classes and steps both see
    data, centre, characters, good, split = _d8_x_c9()
    x, y = np.flatnonzero(centre.orbit == 1)[1:3]
    place, digits = centre.place.copy(), centre.digits.copy()
    place[[x, y]], digits[:, [x, y]] = place[[y, x]], digits[:, [y, x]]
    with pytest.raises(EigensplitError, match="do not multiply to 1 in the normal form|does not add 1 to digit"):
        _certify(data, centre._replace(place=place, digits=digits), characters, good, split)


def test_certificate_folds_the_certified_column():
    # a class sum the split used keeps its counting identities but moves one
    # coefficient between two pairs (j, k) at the orbits' representatives:
    # the certificate folds the column it checked, and the vectors no longer
    # meet it
    data, centre, characters, good, split = _d8_x_c9()
    g, r = split.used[0], data.class_count
    coefficients, reps = dict(data.coefficients), centre.reps.tolist()
    (j1, k1), (j2, k2) = [(j, k) for (i, j, k) in coefficients if i == g and j in reps and k and (i, j, k) != (g, j, 0)][:2]
    assert j1 != j2 and k1 != k2
    for key, step in [((g, j1, k1), -1), ((g, j2, k1), 1), ((g, j2, k2), -1), ((g, j1, k2), 1)]:
        coefficients[key] = coefficients.get(key, 0) + step
    coefficients = {key: v for key, v in coefficients.items() if v}
    corrupted = replace(data, source=oracles.class_algebra_data(r, coefficients, data.dixon_prime).source)
    chardeg._check_column(corrupted, g)
    with pytest.raises(EigensplitError, match=f"not a central character on class sum {g}"):
        _certify(corrupted, centre, characters, good, split)
