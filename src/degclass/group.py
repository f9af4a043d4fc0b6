"""Permutation groups: their order and their elements from one Schreier-Sims
run.

A deterministic (non-randomized) Schreier-Sims run yields the transversals
U_1, ..., U_k of a stabilizer chain, and raises GroupTooLargeError as soon as
they would outgrow the table budget (see ``TRANSVERSAL_BYTES_PER_CELL``).
G = U_k ... U_1 writes every element exactly once, so the order is the
product of the basic orbit lengths.  Groups no larger than
``ENUMERATION_CAP``, whose enumeration fits the byte budget (see
``ENUMERATION_BYTES_PER_CELL``), take these products as their elements,
sorted lexicographically by image tuple.  Base points are always the first
moved points, and orbits are explored in FIFO order with generators applied
in input order, so the same generator sequence always repeats the same run.

The left maps of the generators, kept for the Cayley table, check that the
enumeration is the group: it holds 1, so if every g * e is in it and no
element repeats, it is <S>, of the Schreier-Sims order.  A failure is an
internal bug and raises RuntimeError.

Groups are immutable after construction.  The element index also answers
membership (``p in group``), so a group without an element cache refuses
``in`` with GroupTooLargeError, as it refuses ``index_of`` and
``enumerate_elements``.  The Cayley table ``table[i, j]`` (the index of
``elements[i] * elements[j]``) is built on first use, because it costs
n^2 * 2 bytes for order n < 2^15 (n^2 * 4 above) and only the structure
oracles and the class algebra need it.  Two readers racing to build it
build identical tables, and either one may be kept.

Every blocked array step, in the structure oracles and in the degree layer
alike, takes its rows a block at a time from :func:`blocks`, so one
constant, ``BLOCK_CELLS``, bounds their temporaries.
"""

from __future__ import annotations

import math
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .perm import Permutation

#: largest order a group enumerates; every step that reads classes, oracles
#: or degrees needs the Cayley table, which TABLE_MAX_BYTES bounds at this
#: order anyway
ENUMERATION_CAP = 20000

#: largest Cayley table a group may allocate; an int16 table at
#: ENUMERATION_CAP takes exactly this much
TABLE_MAX_BYTES = 800 * 10**6

#: cells per block of every blocked array step: apart from the Cayley table
#: and the degree layer's r x r arrays no temporary grows beyond a few arrays
#: of this many cells, so no array of |G|^2, r * nnz_g or r^3 cells is ever
#: built
BLOCK_CELLS = 1 << 16

#: bytes a group holds per order x degree cell once enumerated, checked
#: against TABLE_MAX_BYTES from the Schreier-Sims order before the
#: enumeration runs: tracemalloc puts the peak of a whole build at 8.2-9.5
#: bytes a cell on C300, C400 and C2000 on their own points and on the
#: dihedral groups of degree 300 and 1500, the wide groups where this budget
#: can bind (the image tuples, their Permutation objects and the element
#: index).  Narrow groups read more, because the per-element overhead
#: dominates there (Hol(C97) 10.4, S7 44), but at a few points per element
#: they stay far below the budget
ENUMERATION_BYTES_PER_CELL = 10

#: bytes a Schreier-Sims transversal holds per orbit point x degree cell (one
#: image tuple of degree entries a point), checked against TABLE_MAX_BYTES as
#: the orbits grow, summed over every level
TRANSVERSAL_BYTES_PER_CELL = 8

_RawPerm = tuple[int, ...]


def blocks(count: int, width: int, least: int = 1) -> Iterator[slice]:
    """Consecutive slices of range(count); a slice by ``width`` columns spans
    at most BLOCK_CELLS cells, or is ``least`` rows (default one) when that
    many rows are wider."""
    step = max(least, BLOCK_CELLS // max(1, width))
    for start in range(0, count, step):
        yield slice(start, start + step)


class GroupTooLargeError(RuntimeError):
    """The operation needs the element cache or the Cayley table, but the
    group exceeds the enumeration cap or the table budget; or the group's
    Schreier-Sims transversals alone would exceed the table budget."""


def _index_dtype(n: int) -> type:
    return np.int16 if n < 2**15 else np.int32


class _Level:
    """One stabilizer level: base point, generators fixing all earlier points,
    and a transversal mapping each orbit point to a coset representative."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[_RawPerm] = []
        self.transversal: dict[int, _RawPerm] = {point: tuple(range(degree))}


def _mul(a: _RawPerm, b: _RawPerm) -> _RawPerm:
    return tuple(b[x] for x in a)


def _inv(a: _RawPerm) -> _RawPerm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _first_moved(a: _RawPerm) -> int:
    for i, j in enumerate(a):
        if i != j:
            return i
    raise ValueError("identity moves no point")


def _schreier_sims(degree: int, raw_gens: list[_RawPerm]) -> list[list[_RawPerm]]:
    """The transversals of a stabilizer chain of <raw_gens>, the first base
    point's first, each as its list of coset representatives."""
    ident = tuple(range(degree))
    gens = [g for g in dict.fromkeys(raw_gens) if g != ident]
    base: list[int] = []
    levels: list[_Level] = []

    def rebuild_orbit(level: _Level) -> None:
        held = sum(len(lvl.transversal) for lvl in levels if lvl is not level)
        room = TABLE_MAX_BYTES // (degree * TRANSVERSAL_BYTES_PER_CELL) - held
        tr = {level.point: ident}
        queue = [level.point]
        while queue:
            x = queue.pop(0)
            ux = tr[x]
            for s in level.gens:
                y = s[x]
                if y not in tr:
                    if len(tr) >= room:
                        size = (held + len(tr) + 1) * degree * TRANSVERSAL_BYTES_PER_CELL
                        raise GroupTooLargeError(
                            f"group too large: the Schreier-Sims transversals on {degree} points need "
                            f"more than {size} bytes, above the table budget of {TABLE_MAX_BYTES}"
                        )
                    tr[y] = _mul(ux, s)
                    queue.append(y)
        level.transversal = tr

    def strip(g: _RawPerm, start: int) -> tuple[_RawPerm, int]:
        for i in range(start, len(levels)):
            lvl = levels[i]
            x = g[lvl.point]
            u = lvl.transversal.get(x)
            if u is None:
                return g, i
            g = _mul(g, _inv(u))
        return g, len(levels)

    # initial base: every input generator must move some base point
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(_first_moved(g))
            levels.append(_Level(base[-1], degree))
    for i, lvl in enumerate(levels):
        lvl.gens = [g for g in gens if all(g[b] == b for b in base[:i])]
        rebuild_orbit(lvl)

    i = len(levels) - 1
    while i >= 0:
        tr = levels[i].transversal
        for x, s in product(sorted(tr), levels[i].gens):
            sch = _mul(_mul(tr[x], s), _inv(tr[s[x]]))  # fixes base[: i + 1]
            if sch == ident:
                continue
            h, j = strip(sch, i + 1)
            if h == ident:
                continue
            if j == len(levels):
                base.append(_first_moved(h))
                levels.append(_Level(base[-1], degree))
            for k in range(i + 1, j + 1):
                levels[k].gens.append(h)
                rebuild_orbit(levels[k])
            i = j
            break
        else:
            i -= 1

    return [list(lvl.transversal.values()) for lvl in levels]


def _enumerate(degree: int, transversals: list[list[_RawPerm]]) -> list[_RawPerm]:
    """Every product u_k * ... * u_1 of one representative a level, sorted.

    The levels are popped as they are used, the deepest first, and the
    product of the identity with a representative is the representative
    itself, so no transversal is held beside a copy of it.  There is a level
    only if a generator moves a point, so the degree is at least 2 and
    itemgetter(*e)(u), the image tuple of e * u, is a tuple."""
    ident = tuple(range(degree))
    elements = [ident]
    while transversals:
        reps = transversals.pop()
        elements = [u for e in elements for u in (reps if e == ident else map(itemgetter(*e), reps))]
    elements.sort()
    return elements


class Group:
    """A finite permutation group; use :func:`build_group` to construct one."""

    __slots__ = (
        "degree",
        "generators",
        "order",
        "uncached_reason",
        "elements",
        "inverses",
        "_index",
        "_lefts",
        "element_orders",
        "_generator_indices",
        "_table",
    )

    def __init__(self, degree: int, generators: tuple[Permutation, ...]):
        self.degree = degree
        self.generators = generators

        raw_gens = [g.images for g in generators]
        transversals = _schreier_sims(degree, raw_gens)
        self.order = order = math.prod(map(len, transversals))
        self._table = self.elements = self._index = self._lefts = None
        self.inverses = self.element_orders = self._generator_indices = self.uncached_reason = None

        size = order * degree * ENUMERATION_BYTES_PER_CELL
        if order > ENUMERATION_CAP:
            self.uncached_reason = f"order {order} exceeds enumeration cap {ENUMERATION_CAP}"
            return
        if size > TABLE_MAX_BYTES:
            self.uncached_reason = (
                f"the enumeration of order {order} on {degree} points needs {size} bytes, "
                f"above the table budget of {TABLE_MAX_BYTES}"
            )
            return
        raw = _enumerate(degree, transversals)
        self.elements = tuple(Permutation(t) for t in raw)
        self._index = index = {t: i for i, t in enumerate(raw)}
        if len(index) < order:
            raise RuntimeError(f"internal error: the enumeration of order {order} repeats an element")
        dtype = _index_dtype(order)
        gens = dict.fromkeys(raw_gens)
        try:
            # the left map of s holds the index of s * elements[k] at k; the
            # identity, elements[0], needs none, so at degree 1 there is none
            # and itemgetter(*s) never returns a bare point
            self._lefts = [
                np.fromiter(map(index.__getitem__, map(itemgetter(*s), raw)), dtype, order)
                for s in gens
                if s != raw[0]
            ]
        except KeyError:
            raise RuntimeError(
                f"internal error: the enumeration of order {order} is not closed under the generators"
            ) from None
        self.inverses = np.array([index[_inv(t)] for t in raw], dtype=dtype)
        self.inverses.flags.writeable = False
        self.element_orders = np.array([p.order() for p in self.elements], dtype=np.int64)
        self.element_orders.flags.writeable = False
        self._generator_indices = np.array([index[g] for g in gens], dtype=np.intp)
        self._generator_indices.flags.writeable = False

    # -- membership ----------------------------------------------------

    def __contains__(self, p: Permutation) -> bool:
        self._require_cache()
        return isinstance(p, Permutation) and p.images in self._index

    # -- element cache access -------------------------------------------

    @property
    def has_element_cache(self) -> bool:
        return self.elements is not None

    def _require_cache(self) -> None:
        if self.elements is None:
            raise GroupTooLargeError(f"group too large: {self.uncached_reason}")

    def index_of(self, p: Permutation) -> int:
        self._require_cache()
        try:
            return self._index[p.images]
        except KeyError:
            raise ValueError(f"{p!r} is not an element of this group") from None

    @property
    def table(self) -> np.ndarray:
        """The read-only Cayley table: table[i, j] is the index of elements[i] * elements[j]."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> np.ndarray:
        self._require_cache()
        n = self.order
        dtype = _index_dtype(n)
        size = n * n * np.dtype(dtype).itemsize
        if size > TABLE_MAX_BYTES:
            raise GroupTooLargeError(
                f"group too large: Cayley table of order {n} needs {size} bytes, "
                f"above the table budget of {TABLE_MAX_BYTES}"
            )
        # breadth-first from the identity by left multiplication: when
        # e_c = g * e_k, row c is left_g[row k], where left_g is the index map
        # of left multiplication by the generator g
        table = np.empty((n, n), dtype=dtype)
        table[0] = np.arange(n)
        done = np.zeros(n, dtype=bool)
        done[0] = True
        queue = [0]
        for k in queue:
            for left in self._lefts:
                c = int(left[k])
                if not done[c]:
                    done[c] = True
                    np.take(left, table[k], out=table[c])
                    queue.append(c)
        table.flags.writeable = False
        return table

    def mul(self, a, b) -> np.ndarray:
        """Indices of elements[a] * elements[b] for index arrays a and b,
        broadcast against each other."""
        table = self._table if self._table is not None else self.table
        return table.ravel().take(np.asarray(a, dtype=np.intp) * self.order + b)

    def i_mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (left-to-right composition)."""
        return int(self.table[i, j])

    @property
    def identity_index(self) -> int:
        # the identity image tuple is lexicographically minimal, hence index 0
        return 0

    @property
    def generator_indices(self) -> np.ndarray:
        """The distinct generators' indices in generator order, read-only."""
        self._require_cache()
        return self._generator_indices

    def __repr__(self) -> str:
        return f"<Group degree={self.degree} order={self.order}>"


def build_group(degree: int, generators: Iterable[Permutation]) -> Group:
    """Build a group from generators acting on {0..degree-1}.

    An empty generator list explicitly denotes the trivial group on the given
    points.  The element cache is populated exactly when the order does not
    exceed ``ENUMERATION_CAP`` and the enumeration fits the byte budget;
    otherwise ``uncached_reason`` says which limit refused it.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    gens = tuple(generators)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != group degree {degree}")
    return Group(degree, gens)


def enumerate_elements(group: Group) -> tuple[Permutation, ...]:
    """All elements sorted lexicographically by image tuple.

    Raises GroupTooLargeError when the group has no element cache; the list
    is never silently truncated.
    """
    group._require_cache()
    return group.elements


def direct_product(g: Group, h: Group) -> Group:
    """External direct product acting on the disjoint union of the point sets."""
    dg, dh = g.degree, h.degree
    gens: list[Permutation] = []
    for a in g.generators:
        gens.append(Permutation(a.images + tuple(range(dg, dg + dh))))
    for b in h.generators:
        gens.append(Permutation(tuple(range(dg)) + tuple(x + dg for x in b.images)))
    prod = build_group(dg + dh, gens)
    if prod.order != g.order * h.order:
        raise RuntimeError(
            f"internal error: direct product order {prod.order} != {g.order} * {h.order}"
        )
    return prod
