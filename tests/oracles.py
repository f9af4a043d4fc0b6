"""Independent brute-force oracles used to pin expected values.

Everything here works on raw image tuples and never calls into the package
machinery it is checking, so a bug in the library cannot hide behind the
same bug in the tests.  :class:`Reference` keeps the scalar tuple versions of
the library's table-backed structure oracles, the row-by-row modular
``rref`` and the all-pairs central-character check, as the references they
are compared against.
"""

from itertools import combinations, product

import numpy as np


def mul(a, b):
    """Left-to-right product of image tuples: x -> b[a[x]]."""
    return tuple(b[x] for x in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def class_algebra_data(class_count, coefficients, dixon_prime, exponent=1, generator_classes=()):
    """A ClassAlgebraData whose columns come from a coefficient dict
    {(i, j, k): a[i][j][k]}, for hand-made and corrupted tables; the class
    sizes and inverse classes are read off the entries a[i][j][0]."""
    from degclass.chardeg import ClassAlgebraData

    r = class_count
    sizes, star = [0] * r, [0] * r
    for (i, j, k), value in coefficients.items():
        if k == 0:
            sizes[i], star[i] = sizes[i] + value, j

    def column(g):
        entries = sorted((k * r + j, value) for (i, j, k), value in coefficients.items() if i == g)
        codes, values = np.array(entries, dtype=np.int64).reshape(-1, 2).T
        return codes, values

    return ClassAlgebraData(lambda classes: [column(g) for g in classes], tuple(sizes), tuple(star), exponent, dixon_prime, generator_classes)


def closure_of(degree, gens):
    """All products of the generators (the generated subgroup), as a set."""
    ident = tuple(range(degree))
    members = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                c = mul(m, g)
                if c not in members:
                    members.add(c)
                    fresh.append(c)
        frontier = fresh
    return members


def conjugacy_class_of(x, elements):
    """Orbit of x under conjugation by every group element."""
    return {mul(mul(inv(g), x), g) for g in elements}


def class_partition(elements):
    """All conjugacy classes as a list of frozensets."""
    remaining = set(elements)
    classes = []
    while remaining:
        x = next(iter(remaining))
        cls = conjugacy_class_of(x, elements)
        classes.append(frozenset(cls))
        remaining -= cls
    return classes


def commutator_closure(elements, degree):
    """Subgroup generated by all commutators of the element set."""
    comms = {
        mul(mul(mul(inv(a), inv(b)), a), b) for a, b in product(elements, repeat=2)
    }
    return closure_of(degree, comms)


def degree_multisets(order, class_count, linear_count):
    """All degree multisets compatible with the counting constraints.

    Enumerates multisets of size ``class_count`` of divisors of ``order``
    with exactly ``linear_count`` entries equal to 1 and squares summing to
    ``order``.  When exactly one multiset survives, the constraints pin the
    character degrees without running any character machinery.
    """
    divisors = [d for d in range(2, order + 1) if order % d == 0]
    remaining = order - linear_count
    slots = class_count - linear_count
    found = []

    def search(start, slots_left, budget, chosen):
        if slots_left == 0:
            if budget == 0:
                found.append((1,) * linear_count + tuple(chosen))
            return
        for idx in range(start, len(divisors)):
            d = divisors[idx]
            if d * d > budget:
                break
            search(idx, slots_left - 1, budget - d * d, chosen + [d])

    search(0, slots, remaining, [])
    return found


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _is_pi_number(n, pi):
    for p in pi:
        while n % p == 0:
            n //= p
    return n == 1


class Reference:
    """Scalar tuple versions of the structure oracles over one enumeration.

    ``elements`` are image tuples in the library's enumeration order, so every
    result is a frozenset of indices, equal to the set of a library index
    array when the two oracles agree.  Each product is one
    tuple composition and one dict lookup, made once per pair and then
    remembered, and every oracle is the plain definition evaluated pair by
    pair.
    """

    def __init__(self, elements, generators):
        self.elements = [tuple(e) for e in elements]
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.n = len(self.elements)
        self.identity = self.index[tuple(range(len(self.elements[0])))]
        self.generators = [self.index[tuple(g)] for g in dict.fromkeys(map(tuple, generators))]
        self.orders = [self._order(e) for e in self.elements]
        self.everyone = range(self.n)
        self._products = {}

    @staticmethod
    def rref(matrix, p):
        """Reduced row echelon form over GF(p), one row operation at a time;
        returns (R, pivot_columns) like ``modmat.rref``."""
        a = np.array(matrix, dtype=np.int64) % p
        rows, cols = a.shape
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            piv = None
            for i in range(r, rows):
                if a[i, c]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
            nz = [i for i in range(rows) if i != r and a[i, c]]
            for i in nz:
                a[i] = (a[i] - a[i, c] * a[r]) % p
            pivots.append(c)
            r += 1
        return a, pivots

    @staticmethod
    def check_central_characters(coefficients, class_count, vectors, p):
        """Raise EigensplitError unless every vector w satisfies
        w_i * w_j = sum_k a[i][j][k] * w_k mod p for all r^2 pairs (i, j),
        read straight from the coefficient dict {(i, j, k): a[i][j][k]}."""
        from degclass.chardeg import EigensplitError

        r = class_count
        keys = np.array(list(coefficients), dtype=np.int64).reshape(-1, 3)
        values = np.array(list(coefficients.values()), dtype=np.int64) % p
        pairs = keys[:, 0] * r + keys[:, 1]
        covered = len(set(pairs.tolist()))
        if covered != r * r:
            raise EigensplitError(f"coefficients cover {covered} class pairs, expected {r * r}")
        for w in np.asarray(vectors, dtype=np.int64).reshape(-1, r):
            sums = np.zeros(r * r, dtype=np.int64)
            np.add.at(sums, pairs, w[keys[:, 2]] * values)
            if not np.array_equal(sums % p, np.outer(w, w).ravel() % p):
                raise EigensplitError("a split vector is not a central character of the class algebra")

    def _order(self, e):
        k, x, ident = 1, e, tuple(range(len(e)))
        while x != ident:
            x, k = mul(x, e), k + 1
        return k

    def mul(self, i, j):
        """One tuple composition per pair, remembered for the next call."""
        if (i, j) not in self._products:
            self._products[i, j] = self.index[mul(self.elements[i], self.elements[j])]
        return self._products[i, j]

    def inv(self, i):
        return self.index[inv(self.elements[i])]

    def conj(self, i, g):
        """g^-1 i g."""
        return self.mul(self.mul(self.inv(g), i), g)

    def comm(self, i, j):
        """i^-1 j^-1 i j."""
        return self.mul(self.mul(self.inv(i), self.inv(j)), self.mul(i, j))

    def closure(self, seed):
        """Breadth-first: multiply every member by every seed until closed."""
        seeds = sorted(set(seed))
        members = {self.identity, *seeds}
        frontier = sorted(members)
        while frontier:
            fresh = []
            for m in frontier:
                for s in seeds:
                    k = self.mul(m, s)
                    if k not in members:
                        members.add(k)
                        fresh.append(k)
            frontier = fresh
        return frozenset(members)

    def classes(self):
        """(class index of every element, member sets ordered by least member)."""
        class_index = [-1] * self.n
        classes = []
        for start in self.everyone:
            if class_index[start] >= 0:
                continue
            orbit = {start}
            queue = [start]
            while queue:
                x = queue.pop(0)
                for g in self.generators:
                    y = self.conj(x, g)
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            for y in orbit:
                class_index[y] = len(classes)
            classes.append(frozenset(orbit))
        return class_index, classes

    def class_algebra(self):
        """a[i, j, k]: x in class i with x^-1 z_k in class j, z_k the least member of class k."""
        class_index, classes = self.classes()
        coeff = {}
        for k, cls in enumerate(classes):
            zk = min(cls)
            for x in self.everyone:
                key = (class_index[x], class_index[self.mul(self.inv(x), zk)], k)
                coeff[key] = coeff.get(key, 0) + 1
        return coeff

    def centralizer(self, targets):
        return frozenset(
            i for i in self.everyone if all(self.mul(i, t) == self.mul(t, i) for t in targets)
        )

    def centre(self):
        return self.centralizer(self.generators)

    def normalizer(self, members):
        return frozenset(
            g for g in self.everyone if all(self.conj(m, g) in members for m in members)
        )

    def is_normal(self, members):
        return all(self.conj(m, x) in members for m in members for x in self.generators)

    def is_abelian(self, members):
        return all(self.mul(a, b) == self.mul(b, a) for a in members for b in members)

    def commutator_closure(self, xs, ys):
        return self.closure({self.comm(x, y) for x in xs for y in ys})

    def derived(self):
        return self.commutator_closure(self.everyone, self.everyone)

    def lower_central_last(self):
        current = frozenset(self.everyone)
        while True:
            nxt = self.commutator_closure(current, self.everyone)
            if nxt == current:
                return current
            current = nxt

    def hypercentre(self):
        current = self.centre()
        while True:
            nxt = frozenset(
                x for x in self.everyone if all(self.comm(x, g) in current for g in self.everyone)
            )
            if nxt == current:
                return current
            current = nxt

    def p_residual(self, p):
        return self.closure(i for i in self.everyone if self.orders[i] % p != 0)

    def p_prime_residual(self, p):
        return self.closure(i for i in self.everyone if _is_pi_number(self.orders[i], (p,)))

    def sylow(self, p):
        """Grown from 1 by the least p-element of N(P) outside P, as the library does."""
        target = 1
        while self.n % (target * p) == 0:
            target *= p
        members = frozenset({self.identity})
        while len(members) < target:
            norm = self.normalizer(members)
            candidate = min(
                i for i in norm if i not in members and _is_pi_number(self.orders[i], (p,))
            )
            members = self.closure(set(members) | {candidate})
        return members

    def pi_elements_closure(self, pi):
        """The pi-elements if every product of two of them is one, else None."""
        members = [i for i in self.everyone if _is_pi_number(self.orders[i], pi)]
        mset = frozenset(members)
        closed = all(self.mul(a, b) in mset for a in members for b in members)
        return mset if closed else None

    def direct_product_failure(self, p):
        """Whether the G = P x H test fails: the p-elements or the
        p'-elements are not product-closed."""
        complement = tuple(q for q in _prime_factors(self.n) if q != p)
        return self.pi_elements_closure((p,)) is None or self.pi_elements_closure(complement) is None

    def q_r_elements_commute(self, p):
        others = [q for q in _prime_factors(self.n) if q != p]
        by_prime = {
            q: [i for i in self.everyone if _is_pi_number(self.orders[i], (q,))] for q in others
        }
        return all(
            self.mul(a, b) == self.mul(b, a)
            for q, r in combinations(others, 2)
            for a in by_prime[q]
            for b in by_prime[r]
        )
