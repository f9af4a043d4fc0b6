from time import perf_counter

import numpy as np
import pytest

import oracles
from degclass import chardeg, modmat
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
    sqrt_mod,
)
from degclass.families import standard_group
from degclass.group import direct_product
from degclass.structure import conjugacy_classes, derived_subgroup


def hol_c7():
    return standard_group("holomorph_cyclic_prime", 7)


# --- class algebra -----------------------------------------------------------


def test_s3_transposition_coefficient():
    g = standard_group("symmetric", 3)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    sizes = cs.sizes()
    transposition_class = sizes.index(3)  # 3 transpositions square to the identity
    assert data.coefficient(transposition_class, transposition_class, 0) == 3


def test_identity_class_acts_as_unit():
    g = standard_group("symmetric", 4)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    r = len(cs)
    for j in range(r):
        for k in range(r):
            assert data.coefficient(0, j, k) == (1 if j == k else 0)


@pytest.mark.parametrize("family,parameter", [("symmetric", 3), ("symmetric", 4), ("quaternion", 8)])
def test_coefficient_counting_identity(family, parameter):
    # sum_k a[i][j][k] * |K_k| = |K_i| * |K_j|
    g = standard_group(family, parameter)
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    sizes = cs.sizes()
    r = len(cs)
    for i in range(r):
        for j in range(r):
            total = sum(data.coefficient(i, j, k) * sizes[k] for k in range(r))
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
                assert data.coefficient(i, j, k) == data.coefficient(star[j], star[i], star[k])


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


def test_prime_search_bound_failure_is_explicit():
    with pytest.raises(DixonPrimeSearchError, match="below"):
        list(admissible_primes(42, 42, bound=40))


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
    class_count = len(conjugacy_classes(g))
    linear = g.order // derived_subgroup(g).order
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
        assert freq.irreducible_count() == len(conjugacy_classes(g))
        assert freq.multiplicity(1) == g.order // derived_subgroup(g).order
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
        base = degrees_from_class_algebra(g, cs, data)
        again = degrees_from_class_algebra(g, cs, data, dixon_prime=second)
        assert base == again


def test_prime_override_above_search_bound_rejected():
    # 1000003 is prime and = 1 (mod 6): only the bound 100 * |S3| rejects it
    g = standard_group("symmetric", 3)
    with pytest.raises(ValueError, match="above the search bound"):
        character_degrees(g, dixon_prime=1000003)


def test_inadmissible_prime_override_rejected():
    g = standard_group("symmetric", 3)
    with pytest.raises(ValueError, match="admissible"):
        character_degrees(g, dixon_prime=11)  # 11 != 1 (mod 6)
    with pytest.raises(ValueError, match="admissible"):
        character_degrees(g, dixon_prime=49)  # not prime


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


# --- modular square roots ----------------------------------------------------


def test_sqrt_mod_small_field():
    for p in (7, 13, 101):
        for x in range(1, p):
            r = sqrt_mod(x * x % p, p)
            assert r * r % p == x * x % p


def test_sqrt_mod_large_field_tonelli():
    p = 100003  # above the scan threshold
    for x in (2, 1234, 99999):
        r = sqrt_mod(x * x % p, p)
        assert r * r % p == x * x % p


def test_sqrt_mod_non_residue_rejected():
    with pytest.raises(ValueError, match="not a quadratic residue"):
        sqrt_mod(3, 7)
    with pytest.raises(ValueError, match="not a quadratic residue"):
        sqrt_mod(5, 100003)


def test_eigensplit_stall_aborts_loudly():
    # scalar class matrices can never split the space: with corrupted
    # coefficients the refinement must abort instead of returning junk
    from degclass.chardeg import ClassAlgebraData, EigensplitError, _simultaneous_eigenvectors

    fake = ClassAlgebraData(
        class_count=2,
        coefficients={(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 0): 1, (1, 1, 1): 1},
        exponent=1,
        dixon_prime=5,
    )
    with pytest.raises(EigensplitError, match="stalled"):
        _simultaneous_eigenvectors(fake, 5)


# --- the two split paths ------------------------------------------------------


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


@pytest.mark.parametrize("g", _split_groups())
def test_generator_and_refinement_paths_agree(g):
    # the degree frequency is a function of the sorted vectors, so equal
    # vectors give the same frequency on both paths
    cs = conjugacy_classes(g)
    data = class_algebra(g, cs)
    primes = admissible_primes(g.order, data.exponent)
    frequencies = []
    for ell in (next(primes), next(primes)):
        vectors = chardeg._simultaneous_eigenvectors(data, ell)
        refined = sorted(chardeg._refine(data, ell, list(range(len(cs)))), key=lambda v: v.tolist())
        assert [v.tolist() for v in vectors] == [v.tolist() for v in refined], ell
        frequencies.append(degrees_from_class_algebra(g, cs, data, dixon_prime=ell))
    assert frequencies[0] == frequencies[1]


def _path_spy(monkeypatch):
    used = []
    for path in ("_split_by_generator", "_refine"):
        original = getattr(chardeg, path)

        def spy(*args, _original=original, _path=path):
            used.append(_path)
            return _original(*args)

        monkeypatch.setattr(chardeg, path, spy)
    return used


def test_cyclic_group_splits_from_one_generator(monkeypatch):
    used = _path_spy(monkeypatch)
    assert character_degrees(standard_group("cyclic", 96)).as_dict() == {1: 96}
    assert used == ["_split_by_generator"]


def test_elementary_abelian_group_falls_back_to_refinement(monkeypatch):
    # every class sum of C2^7 has at most 2 eigenvalues, so none generates
    used = _path_spy(monkeypatch)
    assert character_degrees(_elementary_abelian(2, 7)).as_dict() == {1: 128}
    assert used == ["_refine"]


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
    first, second = (degrees_from_class_algebra(g, cs, data, dixon_prime=next(primes)) for _ in range(2))
    assert first.as_dict() == {1: 32, 2: 8}
    assert first == second


@pytest.mark.parametrize("square", [2, 0])
def test_class_sum_whose_minimal_polynomial_does_not_split_is_rejected(square):
    # K_1^2 = square * 1: x^2 - 2 has no root in GF(5), x^2 a double one
    coefficients = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    if square:
        coefficients[(1, 1, 0)] = square
    fake = ClassAlgebraData(class_count=2, coefficients=coefficients, exponent=1, dixon_prime=5)
    with pytest.raises(EigensplitError, match="distinct roots"):
        chardeg._refine(fake, 5, [1, 0])


def test_refinement_builds_no_class_matrix_and_solves_no_subspace(monkeypatch):
    g = _elementary_abelian(2, 7)
    data = class_algebra(g, conjugacy_classes(g))
    called = []

    def spy(name):
        return lambda *args, **kwargs: called.append(name)

    monkeypatch.setattr(ClassAlgebraData, "matrix", spy("matrix"))
    for name in ("nullspace", "solve_right", "minimal_polynomial"):
        monkeypatch.setattr(modmat, name, spy(name))
    vectors = chardeg._refine(data, data.dixon_prime, list(range(data.class_count)))
    chardeg._check_central_characters(data, vectors, data.dixon_prime)
    assert character_degrees(g).as_dict() == {1: 128}
    assert called == []


def test_non_central_vector_is_rejected():
    g = standard_group("symmetric", 3)
    data = class_algebra(g, conjugacy_classes(g))
    vectors = chardeg._simultaneous_eigenvectors(data, data.dixon_prime)
    chardeg._check_central_characters(data, vectors, data.dixon_prime)
    broken = vectors[:-1] + [(vectors[-1] + np.eye(3, dtype=np.int64)[1]) % data.dixon_prime]
    with pytest.raises(EigensplitError, match="not a central character"):
        chardeg._check_central_characters(data, broken, data.dixon_prime)


def test_class_matrix_matches_coefficients():
    g = standard_group("symmetric", 4)
    data = class_algebra(g, conjugacy_classes(g))
    r = data.class_count
    for i in range(r):
        want = [[data.coefficient(i, j, k) for k in range(r)] for j in range(r)]
        assert data.matrix(i).tolist() == want


@pytest.mark.parametrize("block", [chardeg.SPLIT_BLOCK_CELLS, 7])
def test_sparse_action_matches_class_matrix(monkeypatch, block):
    monkeypatch.setattr(chardeg, "SPLIT_BLOCK_CELLS", block)
    g = standard_group("symmetric", 4)
    data = class_algebra(g, conjugacy_classes(g))
    ell = data.dixon_prime
    x = np.random.default_rng(0).integers(0, ell, (6, data.class_count))
    for i in range(data.class_count):
        assert np.array_equal(data.act(i, x, ell), x @ data.matrix(i) % ell)


def test_degree_frequency_accessors():
    freq = DegreeFrequency(((1, 2), (2, 1)))
    assert freq.multiplicity(1) == 2
    assert freq.multiplicity(5) == 0
    assert freq.irreducible_count() == 3
    assert freq.sum_of_squares() == 6
    assert freq.degrees() == [1, 2]
