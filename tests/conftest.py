"""Shared cached builders so expensive groups are enumerated once per run."""

from functools import lru_cache

from coxex import GroupData, build_root_system, parse_descriptor
from coxex.descriptors import CoxeterDescriptor
from coxex.elements import bits_of_table, compose_tables, invert_table, key_table
from coxex.linalg import action_matrix, fixed_vector_basis
from coxex.signedperm import SignedPermutation


@lru_cache(maxsize=None)
def system(token: str):
    if "x" in token:
        return build_root_system([parse_descriptor(t) for t in token.split("x")])
    return build_root_system(parse_descriptor(token))


@lru_cache(maxsize=None)
def data(token: str) -> GroupData:
    return GroupData(system(token))


def descriptor(token: str) -> CoxeterDescriptor:
    return parse_descriptor(token)


def fixed_basis(w):
    """Basis over Q of the fixed space of a group element w, from its action
    matrix: the reference that reflection lengths and J-sets are checked
    against."""
    return fixed_vector_basis(action_matrix(w.system, w.perm))


def fixed_dim(w) -> int:
    """Dimension of w's fixed space over Q(c): its Q-basis has d vectors
    for each dimension."""
    return len(fixed_basis(w)) // w.system.field_degree


def constructive_inverter(sp: SignedPermutation) -> SignedPermutation:
    """An involution x with sp^x = sp^-1, built cycle by cycle; the tests'
    plain-product reference for the structured I_w starts from it.

    Within each cycle the point at position i (in cycle order) is sent to
    the point at position -i, with signs propagated so that the result both
    squares to the identity and reverses the cycle.  The sign recurrence is
    always consistent, so every cycle is inverted inside its own support.
    """
    images = list(range(1, sp.degree + 1))
    for c in sp.cycles().cycles:
        pts, sgn = c.points, c.signs
        m = c.length
        t = [1] * m
        for i in range(m - 1):
            t[i + 1] = t[i] * sgn[i] * sgn[(m - 1 - i) % m]
        for i in range(m):
            images[pts[i] - 1] = t[i] * pts[(-i) % m]
    return SignedPermutation._trusted(tuple(images))


def lemma22_core(g_inv, bg, bginv, bh, bgh) -> bool:
    """Lemma 2.2 on N(gh) from the table of g^-1 and the inversion bitsets
    of g, g^-1, h and gh.  Bit i stands for positive root i + 1, whose image
    under g^-1 is g_inv[i].  One pass over N(h): a root that g^-1 sends
    negative must lie in N(g^-1), and the negative of its image leaves N(g);
    any other root outside N(g^-1) adds its image to N(g).  The runner
    evaluates the same from a row per g (`verify._lemma22_from_row`); this
    form is the reference the tests hold it to."""
    removed = 0
    added = 0
    b = bh
    while b:
        low = b & -b
        s = g_inv[low.bit_length() - 1]
        if s < 0:
            if not low & bginv:
                return False  # image must stay positive here
            removed |= 1 << (-s - 1)
        elif not low & bginv:
            added |= 1 << (s - 1)
        b ^= low
    if bgh != (bg & ~removed) | added:
        return False
    lg, lh, lgh = bg.bit_count(), bh.bit_count(), bgh.bit_count()
    return lgh == lg + lh - 2 * (bginv & bh).bit_count()


def lemma22_holds(g, h) -> bool:
    """`lemma22_core` on two tables, every input computed from them."""
    g_inv = invert_table(g)
    return lemma22_core(g_inv, bits_of_table(g), bits_of_table(g_inv),
                        bits_of_table(h), bits_of_table(compose_tables(g, h)))


def keyed_product(gd):
    """(gi, hi) -> the index of gh, found by g's key translated through h
    (`elements.key_table`) in `gd.at_key`: the reference of
    `verify._product`.  A translation table is built on first use only."""
    perms, at_key = gd.perms, gd.at_key
    keys = list(at_key)  # in index order
    tables: list = [None] * len(perms)

    def product(gi, hi):
        if tables[hi] is None:
            tables[hi] = key_table(perms[hi])
        return at_key[keys[gi].translate(tables[hi])]
    return product
