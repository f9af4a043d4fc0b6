"""Exact integer plumbing: primality, factorization, prime sets.

Everything here works on unbounded Python ints; nothing may overflow or
round.  Trial division is plenty at the scales this package targets
(group orders well below 10**6).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable

PrimeSet = tuple[int, ...]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as an ordered {prime: exponent} dict."""
    if n < 1:
        raise ValueError(f"factorization requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def primes_of(n: int) -> PrimeSet:
    """Sorted tuple of the distinct primes dividing n."""
    return tuple(factorization(n))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n >= 1)."""
    if n < 1:
        raise ValueError(f"valuation requires n >= 1, got {n}")
    e = 0
    while n % p == 0:
        e += 1
        n //= p
    return e


def prime_set(primes: Iterable[int]) -> PrimeSet:
    """Normalize an iterable of primes to a sorted, duplicate-free tuple.

    Raises ValueError if any entry is not prime.  Each distinct tuple is
    validated once: only a valid one's result is kept, so a bad one raises
    on every call.  Entries are read with ``operator.index``, so a kept
    result holds Python ints whatever integer type first produced it.
    """
    return _validated(primes if type(primes) is tuple else tuple(primes))


@functools.lru_cache(maxsize=1 << 12)
def _validated(primes: tuple) -> PrimeSet:
    out = sorted(set(map(operator.index, primes)))
    for p in out:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return tuple(out)


def pi_sets(primes: Iterable[int], bound: int) -> list[PrimeSet]:
    """Every subset of the primes with at most bound members, by size and
    then lexicographically.  Raises ValueError if bound < 0."""
    if bound < 0:
        raise ValueError(f"the pi-set bound must be >= 0, got {bound}")
    ps = prime_set(primes)
    return [pi for size in range(min(bound, len(ps)) + 1) for pi in itertools.combinations(ps, size)]
