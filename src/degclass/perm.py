"""Permutations of {0, ..., n-1} stored as image tuples.

Composition is left-to-right: ``compose(a, b)`` (also ``a * b``) sends x to
b(a(x)), i.e. a acts first.  Points are 0-based in memory; the text format
used by the corpus is 1-based disjoint-cycle notation like ``(1,2,3)(4,5)``,
with ``()`` denoting the identity.
"""

from __future__ import annotations

import math
from typing import Sequence


class Permutation:
    """An immutable bijection of {0..degree-1}."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = [False] * n
        for x in imgs:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"images are not a bijection of 0..{n - 1}: {imgs!r}")
            seen[x] = True
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial disjoint cycles, each starting at its least point, ordered by that point."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{format_cycles(self)} deg={self.degree}]"


def identity(degree: int) -> Permutation:
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return Permutation(range(degree))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Left-to-right product: the result maps x to b(a(x))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    bi = b.images
    return Permutation(tuple(bi[x] for x in a.images))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


# --- 1-based cycle text format ----------------------------------------------


def format_cycles(p: Permutation) -> str:
    """Canonical 1-based cycle string; identity renders as ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles)


def parse_decimal(text: str) -> int:
    """A number of the text format: a nonempty run of the ASCII digits 0-9
    (``int`` alone would also take ``+1``, ``1_2`` and non-ASCII digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal number: {text!r}")
    return int(text)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a 1-based cycle string like ``(1,2,3)(4,5)`` into a Permutation.

    Every point must lie in 1..degree and may appear at most once across all
    cycles of the string (disjoint-cycle notation).
    """
    s = "".join(text.split())
    if not s:
        raise ValueError("empty cycle string")
    cycles: list[list[int]] = []
    i = 0
    while i < len(s):
        if s[i] != "(":
            raise ValueError(f"expected '(' at position {i} in {text!r}")
        j = s.find(")", i)
        if j < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        body = s[i + 1 : j]
        if body:
            try:
                pts = [parse_decimal(tok) for tok in body.split(",")]
            except ValueError:
                raise ValueError(f"malformed cycle {s[i:j + 1]!r} in {text!r}") from None
            cycles.append(pts)
        i = j + 1
    images = list(range(degree))
    used: set[int] = set()
    for pts in cycles:
        for pt in pts:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} outside 1..{degree} in {text!r}")
            if pt - 1 in used:
                raise ValueError(f"repeated point {pt} in {text!r}")
            used.add(pt - 1)
        for a, b in zip(pts, pts[1:]):
            images[a - 1] = b - 1
        images[pts[-1] - 1] = pts[0] - 1
    return Permutation(images)
