"""Group elements as signed permutations of positive roots.

All group arithmetic is table composition on tuples; inversion sets fall out
for free (an index is inverted exactly when its table entry is negative).
An involution's reflection length comes from its trace, read in integers
from the simple-root coefficients in every family.
"""

from __future__ import annotations

from math import comb, factorial

# the guard policy lives with the root-system build, the first step it bounds
from .rootsystem import DEFAULT_GUARD, GUARD_ENV, GuardExceeded, RootSystem, effective_guard


def apply_table(table, signed_index: int) -> int:
    """Image of a signed root index under a root permutation table."""
    if signed_index > 0:
        return table[signed_index - 1]
    return -table[-signed_index - 1]


def compose_tables(p, q):
    """Table of "p then q" (the group product pq under right actions)."""
    return tuple([q[v - 1] if v > 0 else -q[-v - 1] for v in p])


def signed_lookup(p) -> tuple[int, ...]:
    """A signed permutation read at signed arguments: ext[v] is the image of
    v for v in +-1..len(p), a negative v indexing from the end, and
    ext[0] = 0.  One lookup per entry then composes p after another table."""
    return (0,) + tuple(p) + tuple([-v for v in reversed(p)])


def simple_key(p, simple) -> str:
    """An element is determined by its simple-root images, so its key is p
    read at `simple`, each v as the code point v + npos (npos = len(p), so
    0 <= v + npos <= 2 npos).  Packed keys are joined by `key_sep`."""
    npos = len(p)
    return "".join([chr(p[i] + npos) for i in simple])


def key_sep(npos: int) -> str:
    """The separator of packed keys: the code point 2 npos + 1."""
    return chr(2 * npos + 1)


def key_table(p) -> str:
    """The `str.translate` table that sends code point v + npos to
    p(v) + npos, and so the key of x to that of xp.  The separator lies past
    its end and stays, so one translate carries all packed keys at once."""
    npos = len(p)
    return ("".join([chr(npos - v) for v in reversed(p)]) + chr(npos)
            + "".join([chr(npos + v) for v in p]))


def invert_table(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        if v > 0:
            out[v - 1] = i + 1
        else:
            out[-v - 1] = -(i + 1)
    return tuple(out)


def identity_table(n: int):
    return tuple(range(1, n + 1))


def is_involution_table(p) -> bool:
    """True for self-inverse tables, the identity included."""
    for i, v in enumerate(p, start=1):
        if (p[v - 1] if v > 0 else -p[-v - 1]) != i:
            return False
    return True


def bits_of_table(p) -> int:
    bits = 0
    for i, v in enumerate(p):
        if v < 0:
            bits |= 1 << i
    return bits


class GroupElement:
    """An element of a finite Coxeter group, pinned to its root system."""

    __slots__ = ("system", "perm")

    def __init__(self, system: RootSystem, perm):
        self.system = system
        self.perm = tuple(perm)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.system is not other.system:
            raise ValueError("cannot compose elements of different root systems")
        return GroupElement(self.system, compose_tables(self.perm, other.perm))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.system, invert_table(self.perm))

    def conjugated_by(self, x: "GroupElement") -> "GroupElement":
        return x.inverse() * self * x

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.perm))

    def is_involution(self) -> bool:
        """x^2 == 1, which admits the identity."""
        return is_involution_table(self.perm)

    def act(self, signed_index: int) -> int:
        return apply_table(self.perm, signed_index)

    def inversions(self) -> int:
        """Bitset of positive roots sent negative."""
        return bits_of_table(self.perm)

    def length(self) -> int:
        return bits_of_table(self.perm).bit_count()

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.system is other.system and self.perm == other.perm)

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"GroupElement({self.system.name}, len={self.length()})"


def involution_reflection_length(rs: RootSystem, table) -> int:
    """Reflection length of an involution, (rank - tr)/2, from its trace.

    An involution has eigenvalues +-1, so its fixed space has dimension
    (rank + tr)/2.  The trace sums the coefficient of alpha_k in the image
    of alpha_k over the simple roots.  For H and I2 that coefficient lies in
    Z[c]: the trace is its constant part, and its parts in c, ..., c^(d-1)
    must cancel.
    """
    d = rs.field_degree
    tr = 0
    for k, si in enumerate(rs.simple_indices):
        v = table[si]
        c = rs.coeffs[abs(v) - 1][k * d]
        tr += c if v > 0 else -c
    for j in range(1, d):
        part = sum(rs.coeffs[abs(v) - 1][k * d + j] * (1 if v > 0 else -1)
                   for k, v in enumerate(table[si] for si in rs.simple_indices))
        if part:
            raise ValueError(f"trace of an involution has part {part} c^{j}, not an integer")
    if (rs.rank - tr) % 2:
        raise ValueError(f"trace {tr} is not that of an involution in rank {rs.rank}")
    return (rs.rank - tr) // 2


def identity_element(rs: RootSystem) -> GroupElement:
    return GroupElement(rs, identity_table(rs.num_positive))


def generator(rs: RootSystem, r: int) -> GroupElement:
    return GroupElement(rs, rs.gen_tables[r])


def reflection(rs: RootSystem, root_index: int) -> GroupElement:
    return GroupElement(rs, rs.reflection_table(root_index))


def element_from_word(rs: RootSystem, word) -> GroupElement:
    """Product of generators, applied left to right; indices are 0-based."""
    p = identity_table(rs.num_positive)
    for r in word:
        p = compose_tables(p, rs.gen_tables[r])
    return GroupElement(rs, p)


def reduced_word(w: GroupElement) -> tuple[int, ...]:
    """A reduced word of w (0-based generators), found by peeling right
    descents: if l(ws) < l(w) then a word of ws followed by s is one of w."""
    rs = w.system
    p = w.perm
    n = bits_of_table(p).bit_count()
    out = []
    while n:
        for r, g in enumerate(rs.gen_tables):
            q = compose_tables(p, g)
            m = bits_of_table(q).bit_count()
            if m < n:
                out.append(r)
                p, n = q, m
                break
    return tuple(reversed(out))


def word_text(word) -> str:
    """1-based generators joined as r1.r2...; the empty word is "1"."""
    return "r" + ".r".join(str(r + 1) for r in word) if word else "1"


def inversion_set(w: GroupElement) -> int:
    return w.inversions()


def inversion_set_of_set(elements) -> int:
    bits = 0
    for w in elements:
        bits |= w.inversions()
    return bits


def _check_order(rs: RootSystem, limit: int) -> None:
    if rs.order() > limit:
        raise GuardExceeded(f"|W({rs.name})| = {rs.order()} exceeds guard {limit}")


# the involutions of the exceptional types (identity included)
_FIXED_INVOLUTIONS = {"H3": 32, "H4": 572, "F4": 140, "E6": 892, "E7": 10_208,
                      "E8": 199_952}


def involution_count(rs: RootSystem) -> int:
    """The involutions of W, the identity included, in closed form: the
    product over the components.  A_n has the telephone number T(n + 1).
    An involution of W(B_n) swaps k pairs of points, each in 2 ways, and
    fixes or negates each other point; in W(D_n) the negated points are
    even in number.  I2(m) has its m reflections, the identity, and -1 when
    m is even."""
    out = 1
    for d in rs.components:
        fam = d.family
        if fam in _FIXED_INVOLUTIONS:
            out *= _FIXED_INVOLUTIONS[fam]
        elif fam == "I2":
            out *= d.m + 1 + (d.m % 2 == 0)
        elif fam == "A":
            t, u = 1, 1  # T(k - 1), T(k)
            for k in range(1, d.rank + 1):
                t, u = u, u + k * t
            out *= u
        else:
            n, total = d.rank, 0
            for k in range(n // 2 + 1):
                pairings = comb(n, 2 * k) * factorial(2 * k) // (2 ** k * factorial(k))
                rest = n - 2 * k
                signs = 2 ** rest if fam == "B" else 2 ** max(rest - 1, 0)
                total += pairings * 2 ** k * signs
            out *= total
    return out


def check_pair_pass(rs: RootSystem, guard: int | None = None) -> None:
    """Refuse a pair pass over every involution pair of W above the guard,
    after the |W| check of `bfs_tables`; nothing is enumerated."""
    limit = effective_guard(guard)
    _check_order(rs, limit)
    k = involution_count(rs)
    if k * k > limit:
        raise GuardExceeded(f"{k}^2 = {k * k} involution pairs of W({rs.name}) "
                            f"exceed guard {limit}")


def bfs_tables(rs: RootSystem, guard: int | None = None, gens: tuple[int, ...] | None = None):
    """Enumerate by breadth-first closure under right multiplication.

    Returns (perms, words, at_key): perms in discovery order, one reduced
    word (0-based generator indices) each, and at_key, key (`simple_key`) ->
    index in index order.  Nothing is cached: every call enumerates afresh.
    For the full generating set the guard is checked against |W| first.
    """
    full = gens is None
    limit = effective_guard(guard)
    if full:
        _check_order(rs, limit)
    names = range(rs.rank) if full else gens
    # p * s reads ext_s at the entries of p, so every table holds the ints of
    # these lookups; a negation would make a new int object per entry below
    # -5, the end of CPython's small-int cache
    lookups = [signed_lookup(rs.gen_tables[r]) for r in names]
    # one translate of a level's keys through s gives the keys of its
    # products by s, and only a new element has its table built; zip lists
    # them element by element, generators in order, so the first found wins
    tables = [key_table(rs.gen_tables[r]) for r in names]
    sep = key_sep(rs.num_positive)
    ident = identity_table(rs.num_positive)
    perms = [ident]
    words = [()]
    level = [simple_key(ident, rs.simple_indices)]
    at_key = {level[0]: 0}
    while level:  # the level's elements are the last n of perms
        packed, n = sep.join(level), len(level)
        level = []
        for p, w, *ks in zip(perms[-n:], words[-n:],
                             *[packed.translate(t).split(sep) for t in tables]):
            for r, ext, k in zip(names, lookups, ks):
                if k not in at_key:
                    at_key[k] = len(perms)
                    level.append(k)
                    perms.append(tuple([ext[v] for v in p]))
                    words.append(w + (r,))
                    if len(perms) > limit:
                        raise GuardExceeded(f"enumeration exceeded guard {limit}")
    return perms, words, at_key


class InvolutionTables:
    """The involutions of W, packed for a filter that runs in C.

    `tables` holds the involution tables, sorted; a table's index is its
    handle.  `packed` holds their keys (`simple_key`) in handle order,
    separated by `sep`, and `at_key` maps each key to its handle: a table is
    an involution exactly when its key is in `at_key`.  One `str.translate`
    of `packed` through `key_table(w)` therefore carries every key through w.

    `bits` and `lr` hold an involution's inversion bitset and reflection
    length by handle, None until `fill` computes them: E8 has 199,952
    involutions, and a query reads a few.
    """

    __slots__ = ("tables", "packed", "sep", "at_key", "bits", "lr")

    def __init__(self, rs: RootSystem, tables):
        keys = [simple_key(p, rs.simple_indices) for p in tables]
        self.tables = tables
        self.sep = key_sep(rs.num_positive)
        self.packed = self.sep.join(keys)
        self.at_key = {k: i for i, k in enumerate(keys)}
        self.bits: list = [None] * len(tables)
        self.lr: list = [None] * len(tables)

    def fill(self, rs: RootSystem, handles) -> None:
        """Compute bits and l_R for the handles that lack them."""
        tables, bits, lr = self.tables, self.bits, self.lr
        for h in handles:
            if bits[h] is None:
                bits[h] = bits_of_table(tables[h])
                lr[h] = involution_reflection_length(rs, tables[h])


def involution_tables(rs: RootSystem, guard: int | None = None) -> InvolutionTables:
    """The involutions of W (the identity included), without enumerating W.

    The involutions are the orbit of the identity under x -> sx when s and x
    commute and x -> sxs otherwise (Richardson-Springer 1990), found by one
    depth-first search.  Cached on the root system, with their packed keys
    (see `InvolutionTables`); the guard is checked against |W| first, as in
    `bfs_tables`.
    """
    _check_order(rs, effective_guard(guard))
    if rs._involutions is None:
        ident = identity_table(rs.num_positive)
        seen = {ident}
        stack = [ident]
        # every entry is read from these lookups, so the tables share their
        # int objects (see `bfs_tables`)
        lookups = [(g, signed_lookup(g)) for g in rs.gen_tables]
        while stack:
            x = stack.pop()
            ext_x = signed_lookup(x)
            for g, ext_g in lookups:
                gxg = tuple([ext_g[ext_x[v]] for v in g])
                # s and x commute exactly when sxs = x, and then sx = xs
                y = tuple([ext_g[v] for v in x]) if gxg == x else gxg
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        rs._involutions = InvolutionTables(rs, sorted(seen))
    return rs._involutions


def enumerate_group(rs: RootSystem, guard: int | None = None):
    """Yield every group element exactly once, in BFS order."""
    perms, _, _ = bfs_tables(rs, guard)
    for p in perms:
        yield GroupElement(rs, p)


def group_elements(rs: RootSystem, guard: int | None = None) -> list[GroupElement]:
    return list(enumerate_group(rs, guard))


def reduced_words(rs: RootSystem, guard: int | None = None) -> dict:
    perms, words, _ = bfs_tables(rs, guard)
    return {p: w for p, w in zip(perms, words)}
