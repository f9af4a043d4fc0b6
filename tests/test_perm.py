import pytest
from hypothesis import given, strategies as st

from degclass.perm import (
    Permutation,
    compose,
    format_cycles,
    identity,
    inverse,
    parse_cycles,
)

import oracles


def perm(*cycle_text_and_degree):
    text, degree = cycle_text_and_degree
    return parse_cycles(text, degree)


def test_involution_squared_is_identity():
    t = parse_cycles("(1,2)", 2)
    assert compose(t, t) == identity(2)


def test_three_cycle_squared_is_its_inverse():
    c = parse_cycles("(1,2,3)", 3)
    assert compose(c, c) == inverse(c)


def test_compose_matches_point_by_point_oracle():
    # expected values computed point by point: x -> b(a(x))
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(2,3)", 3)
    expected = Permutation([b.images[a.images[x]] for x in range(3)])
    assert compose(a, b) == expected
    # hand-traced mapping: 0->2, 1->0, 2->1, i.e. the cycle (0 2 1)
    assert compose(a, b).images == (2, 0, 1)


@pytest.mark.parametrize(
    "text,degree",
    [("()", 1), ("(1,2)", 2), ("(1,2,3)", 3), ("(1,2,3)(4,5)", 6)],
)
def test_inverse_left_right(text, degree):
    p = parse_cycles(text, degree)
    assert compose(p, inverse(p)) == identity(degree)
    assert compose(inverse(p), p) == identity(degree)


def test_inverse_examples():
    assert inverse(identity(4)) == identity(4)
    t = parse_cycles("(1,2)", 2)
    assert inverse(t) == t
    assert inverse(parse_cycles("(1,2,3)", 3)) == parse_cycles("(1,3,2)", 3)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree mismatch"):
        compose(identity(2), identity(3))


@pytest.mark.parametrize("images", [(0, 0), (1, 2), (0, 2, 2), (-1, 0)])
def test_non_bijection_rejected(images):
    with pytest.raises(ValueError, match="bijection"):
        Permutation(images)


def test_order_and_cycles():
    p = parse_cycles("(1,2,3)(4,5)", 6)
    assert p.order() == 6
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert identity(5).order() == 1


def test_format_cycles_canonical():
    assert format_cycles(identity(3)) == "()"
    assert format_cycles(parse_cycles("(2,3,1)", 3)) == "(1,2,3)"
    assert format_cycles(parse_cycles("(5,4)(3,2,1)", 6)) == "(1,3,2)(4,5)"


@pytest.mark.parametrize(
    "text,match",
    [
        ("(1,1,2)", "repeated point"),
        ("(1,2)(2,3)", "repeated point"),
        ("(0,1)", "outside"),
        ("(1,5)", "outside"),
        ("(1,2", "unbalanced"),
        ("1,2)", "expected"),
        ("(1,x)", "malformed"),
        ("(+1,2)", "malformed"),
        ("(0_1,2)", "malformed"),
        ("(1,\u0663)", "malformed"),
        ("", "empty"),
    ],
)
def test_parse_rejects_malformed(text, match):
    with pytest.raises(ValueError, match=match):
        parse_cycles(text, 4)


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 3)))
def test_associativity(perms):
    a, b, c = (Permutation(p) for p in perms)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))))
def test_inverse_roundtrip(images):
    p = Permutation(images)
    assert compose(p, inverse(p)).is_identity()
    assert inverse(inverse(p)) == p


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_product_inverse_reverses(pair):
    a, b = Permutation(pair[0]), Permutation(pair[1])
    assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_compose_agrees_with_oracle(pair):
    a, b = Permutation(pair[0]), Permutation(pair[1])
    assert compose(a, b).images == oracles.mul(a.images, b.images)


def test_roundtrip_parse_format():
    for text, degree in [("()", 3), ("(1,2,3)(4,5)", 6), ("(1,4)(2,3)", 4)]:
        p = parse_cycles(text, degree)
        assert parse_cycles(format_cycles(p), degree) == p
