"""The arithmetic invariants: pi-parts, u_pi, class-size frequencies, |S_pi|.

A positive integer is a pi-number when its full factorization uses only
primes from pi, i.e. when pi_part(n, pi) == n.  Complements pi' are always
taken inside the primes of the relevant group order by the callers; the
quantities here never need to know the ambient prime universe because the
degrees and class sizes they inspect all divide |G|.

The class size frequency counts classes (an exact integer) rather than
elements divided by the size; the two agree because a class of size n
contributes exactly n elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .arith import PrimeSet, prime_set
from .chardeg import DegreeFrequency

if TYPE_CHECKING:
    from .structure import ConjugacyClassSet


def pi_part(n: int, pi: Iterable[int]) -> int:
    """The pi-part n_pi: the product of the prime powers of n at primes in pi."""
    if n < 1:
        raise ValueError(f"pi_part requires n >= 1, got {n}")
    ps = prime_set(pi)
    out = 1
    for p in ps:
        while n % p == 0:
            out *= p
            n //= p
    return out


def is_pi_number(n: int, pi: Iterable[int]) -> bool:
    return pi_part(n, pi) == n


def pi_complement(pi: Iterable[int], order: int) -> PrimeSet:
    """The complement of pi within the primes of the given group order."""
    from .arith import primes_of

    ps = set(prime_set(pi))
    return tuple(p for p in primes_of(order) if p not in ps)


def u_pi(freq: DegreeFrequency, pi: Iterable[int]) -> int:
    """Sum of multiplicity * degree^2 over the degrees that are pi-numbers.

    Always >= 1 because the trivial degree 1 qualifies for every pi.
    """
    ps = prime_set(pi)
    return sum(m * n * n for n, m in freq.entries if is_pi_number(n, ps))


@dataclass(frozen=True)
class ClassSizeFrequency:
    """Sorted (size, number-of-classes-of-that-size) pairs."""

    entries: tuple[tuple[int, int], ...]

    def count(self, size: int) -> int:
        return dict(self.entries).get(size, 0)

    def total_elements(self) -> int:
        return sum(size * count for size, count in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def class_size_frequency(classes: "ConjugacyClassSet") -> ClassSizeFrequency:
    return ClassSizeFrequency(classes.size_counts)


def s_pi_size(classes: "ConjugacyClassSet", pi: Iterable[int]) -> int:
    """Total size of the classes whose size is a pi-number, one test per
    distinct size.

    Always >= 1 because the identity class has size 1.
    """
    ps = prime_set(pi)
    return sum(n * c for n, c in class_size_frequency(classes).entries if is_pi_number(n, ps))
