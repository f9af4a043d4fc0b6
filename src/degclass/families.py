"""Named group constructors with documented, reproducible generators.

Families and their parameters:

* ``cyclic`` n >= 1: the n-cycle (0 1 ... n-1) on n points.
* ``dihedral`` n >= 3: order 2n on n points; rotation i -> i+1 (mod n) and
  reflection i -> -i (mod n).
* ``symmetric`` n >= 1: the n-cycle plus the transposition (0 1).
* ``alternating`` n >= 3: the 3-cycle (0 1 2) plus the n-cycle for odd n or
  the (n-1)-cycle (1 2 ... n-1) for even n.
* ``quaternion`` order 2^k >= 8: the generalized quaternion group in its
  regular representation; points 0..m-1 are a^i and m..2m-1 are b*a^i for
  m = order/2, with the defining relations a^m = 1, b^2 = a^(m/2),
  b^-1 a b = a^-1.
* ``holomorph_cyclic_prime`` p prime: Hol(C_p) on p points, generated by
  x -> x+1 and x -> g*x for the least primitive root g mod p; order p(p-1).
* ``sl_2_3`` parameter 3: SL(2,3) acting on the 8 nonzero vectors of F_3^2,
  listed lexicographically; generators [[1,1],[0,1]] and [[0,-1],[1,0]].
"""

from __future__ import annotations

from .arith import is_prime
from .group import Group, build_group
from .perm import Permutation, identity

FAMILIES = (
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion",
    "holomorph_cyclic_prime",
    "sl_2_3",
)


def _cycle(degree: int, points: list[int]) -> Permutation:
    images = list(range(degree))
    for a, b in zip(points, points[1:]):
        images[a] = b
    images[points[-1]] = points[0]
    return Permutation(images)


def _cyclic(n: int) -> tuple[int, list[Permutation]]:
    if n < 1:
        raise ValueError(f"cyclic: parameter must be >= 1, got {n}")
    if n == 1:
        return 1, [identity(1)]
    return n, [_cycle(n, list(range(n)))]


def _dihedral(n: int) -> tuple[int, list[Permutation]]:
    if n < 3:
        raise ValueError(f"dihedral: parameter must be >= 3, got {n}")
    rot = _cycle(n, list(range(n)))
    refl = Permutation([(-i) % n for i in range(n)])
    return n, [rot, refl]


def _symmetric(n: int) -> tuple[int, list[Permutation]]:
    if n < 1:
        raise ValueError(f"symmetric: parameter must be >= 1, got {n}")
    if n == 1:
        return 1, [identity(1)]
    if n == 2:
        return 2, [_cycle(2, [0, 1])]
    return n, [_cycle(n, list(range(n))), _cycle(n, [0, 1])]


def _alternating(n: int) -> tuple[int, list[Permutation]]:
    if n < 3:
        raise ValueError(f"alternating: parameter must be >= 3, got {n}")
    three = _cycle(n, [0, 1, 2])
    if n == 3:
        return n, [three]
    long = _cycle(n, list(range(n))) if n % 2 == 1 else _cycle(n, list(range(1, n)))
    return n, [three, long]


def _quaternion(order: int) -> tuple[int, list[Permutation]]:
    if order < 8 or order & (order - 1):
        raise ValueError(f"quaternion: parameter must be a power of 2 >= 8, got {order}")
    m = order // 2
    # regular representation by right multiplication; see module docstring
    gen_a = Permutation([(i + 1) % m for i in range(m)] + [m + (i + 1) % m for i in range(m)])
    gen_b = Permutation([m + (-i) % m for i in range(m)] + [(m // 2 - i) % m for i in range(m)])
    return order, [gen_a, gen_b]


def _holomorph_cyclic_prime(p: int) -> tuple[int, list[Permutation]]:
    if not is_prime(p):
        raise ValueError(f"holomorph_cyclic_prime: parameter must be prime, got {p}")
    shift = _cycle(p, list(range(p))) if p > 1 else identity(1)
    if p == 2:
        return 2, [shift]
    root = next(g for g in range(2, p) if _mult_order(g, p) == p - 1)
    scale = Permutation([(root * x) % p for x in range(p)])
    return p, [shift, scale]


def _mult_order(g: int, p: int) -> int:
    x, k = g % p, 1
    while x != 1:
        x = x * g % p
        k += 1
    return k


def _sl_2_3(param: int) -> tuple[int, list[Permutation]]:
    if param != 3:
        raise ValueError(f"sl_2_3: parameter must be 3, got {param}")
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def act(matrix):
        (a, b), (c, d) = matrix
        return Permutation(
            [index[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in vectors]
        )

    return 8, [act(((1, 1), (0, 1))), act(((0, 2), (1, 0)))]


_BUILDERS = {
    "cyclic": _cyclic,
    "dihedral": _dihedral,
    "symmetric": _symmetric,
    "alternating": _alternating,
    "quaternion": _quaternion,
    "holomorph_cyclic_prime": _holomorph_cyclic_prime,
    "sl_2_3": _sl_2_3,
}


def standard_group(family: str, parameter: int) -> Group:
    """Build a named group; raises ValueError for unknown families or bad parameters."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}") from None
    degree, gens = builder(parameter)
    return build_group(degree, gens)
