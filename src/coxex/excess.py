"""Excess statistics: inverting involutions, spartan pairs, parabolic variants.

For w in W the inverting involutions are I_w = {x : x^2 = 1, w^x = w^-1}
(the identity is admitted when w itself squares to 1).  Every factorization
w = xy into involutions has x in I_w and y = xw, so the excess

    e(w) = min { l(x) + l(y) - l(w) : w = xy, x^2 = y^2 = 1 }

is a minimum over I_w, and the defect of a pair equals 2|N(x) & N(y)|.
The reflection excess E(w) restricts the minimum to the J-set J_w, the x
whose factorization w = x(xw) is additive for reflection length l_R.

No fixed space is computed for that.  An involution x has eigenvalues +-1,
so l_R(x) = (rank - tr x)/2 (`elements.involution_reflection_length`).
Every w has an l_R-additive factorization into two involutions (Carter
1972), and l_R is subadditive, so

    l_R(w) = min { l_R(x) + l_R(xw) : x in I_w }

and J_w is the set of x reaching that minimum.  J_w needs the whole of I_w:
a subset of I_w may miss the minimum.  The fixed-space description (Fix(w)
inside Fix(x)) is kept as the oracle of the `jset-equivalence` theorem.

I_w has one form, the handle pairs (x, y) with y = xw, and every statistic
is read from them by the same few kernels, with inversion bitsets and l_R
looked up by handle, so no statistic composes an element.  I_w is closed
under x -> xw, since (xw)w(xw) = w^-2 w = w^-1, so the handle of y is that
of a member, found by one lookup.

For an involution x, xwx = w^-1 exactly when (xw)^2 = 1, so exhaustive I_w
filters the involutions of W and never enumerates W itself.  The involutions
come from `elements.involution_tables`, the orbit of the identity under
x -> sx (s, x commuting) or x -> sxs (Richardson-Springer 1990), with their
simple-root images as keys.  An element is determined by those images, so
xw is an involution exactly when its rank images of the simple roots form a
key, and that key's index is the handle of xw.  The cache packs every key
(`elements.simple_key`) into one string, and a query carries them all
through w by one `str.translate` (`elements.key_table`), then splits the
result and looks each piece up, so the filter runs no Python code per
involution and composes no table.  An involution's bits and l_R are cached
on its first use.  The sweep engine `GroupData` keys the same way: for each
involution x, one translate of every involution's key through x gives the
index of each y x, and of its inverse x y, by the group's key -> index dict.

Parabolic variants need no second pass.  Reflection length in W_J is that
in W (both are the codimension of the fixed space, and W_J fixes V_J^perp
pointwise), so the J-set of w taken inside W_J is J_w intersected with W_J:
the members x with N(x) inside Phi_J.
"""

from __future__ import annotations

import enum
import sys
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import compress, count, product, repeat
from math import factorial
from operator import is_not, itemgetter
from typing import NamedTuple

from .elements import (GroupElement, GuardExceeded, bfs_tables, bits_of_table,
                       check_pair_pass, compose_tables, effective_guard,
                       involution_reflection_length, involution_tables,
                       is_involution_table, key_sep, key_table, reduced_word,
                       signed_lookup, word_text)
from .parabolic import ParabolicContext, parabolic_context
from .rootsystem import RootSystem
from .signedperm import (SignedCycle, SignedPermutation, _check_model, _cycles,
                         cycle_as_permutation, from_root_perm, point_tables)


@dataclass(frozen=True)
class InvolutionSet:
    """I_w as handle pairs (x, y) with y = xw, in ascending order of x.

    `tables`, `bits` and `lr` are indexed by handle: the root permutation
    table, the inversion bitset and the reflection length of a member.  I_w
    is closed under x -> xw, so every y is a member too, and `bits` and `lr`
    cover every handle in `pairs`.  On the structured path `signed` holds
    each member's signed images by handle, which reports format directly.
    """

    system: RootSystem
    source: str  # "exhaustive" | "structured-coset"
    pairs: tuple[tuple[int, int], ...]
    # a list, or dicts: compared, but left out of the hash
    tables: Sequence = field(repr=False, hash=False)
    bits: Mapping[int, int] = field(repr=False, hash=False)
    lr: Mapping[int, int] = field(repr=False, hash=False)
    signed: Sequence | None = field(default=None, repr=False, hash=False)

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self.system, self.tables[x]) for x, _ in self.pairs)


@dataclass(frozen=True)
class SpartanPair:
    """A factorization w = xy achieving the excess of w."""

    x: GroupElement
    y: GroupElement
    defect: int


class SignedFields(NamedTuple):
    """The bitmasks the spartan runners read of an A/B/D element, bit p
    standing for point p: `support` the points moved or negated
    (`positive_support`), `negated` the points p sent to -p, and `straddle`
    the m that one of its 2-cycles (a, b) straddles, a <= m < b."""

    support: int
    negated: int
    straddle: int


class DnCondition(enum.Enum):
    M_EQUALS_N = "m_equals_n"
    HAS_ONE_CYCLE = "has_one_cycle"
    EVEN_POSITIVE_CYCLES = "even_positive_cycles"
    NONE = "none"


def inverting_involutions(rs: RootSystem, w: GroupElement,
                          guard: int | None = None) -> InvolutionSet:
    """Exhaustive filter of the involutions; needs |W| under the guard.

    For an involution x, xwx = w^-1 exactly when (xw)^2 = 1, so x is kept
    when the simple-root images of xw, those of x carried on by w, are the
    key of an involution, whose handle is then that of y = xw.  Every key
    is carried at once, by one `str.translate` of the packed keys through
    `elements.key_table(w)` (see `elements.InvolutionTables`).
    """
    inv = involution_tables(rs, guard)
    ys = list(map(inv.at_key.get, inv.packed.translate(key_table(w.perm)).split(inv.sep)))
    pairs = tuple(compress(zip(count(), ys), map(is_not, ys, repeat(None))))
    inv.fill(rs, [x for x, _ in pairs])
    return InvolutionSet(rs, "exhaustive", pairs, inv.tables, inv.bits, inv.lr)


def _cycle_types(images) -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The cycles of a signed permutation w (`_cycles`), fixed points
    included, grouped by (length k, sign type), each as its orbit (p0,
    w(p0), ..., w^(k-1)(p0)) of signed points from its least point p0;
    w^k(p0) is p0 times the sign type."""
    types: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for points, signs in _cycles(images):
        orbit, sign = [], 1  # w^j(p0) = sign points[j]
        for p, s in zip(points, signs):
            orbit.append(sign * p)
            sign *= s
        types.setdefault((len(orbit), sign), []).append(tuple(orbit))
    return types


@lru_cache(maxsize=None)
def _type_count(k: int, m: int, f: int) -> int:
    """The members of one cycle type's factor: m cycles of length k, each
    reversed in f ways or swapped in pairs in 2k ways a pair."""
    return sum(factorial(m) // (factorial(j) * factorial(m - 2 * j) * 2 ** j)
               * f ** (m - 2 * j) * (2 * k) ** j for j in range(m // 2 + 1))


def _count(types, ambient: str) -> int:
    """|I_w| from w's cycle types: see `inverting_involution_count`."""
    def count(t):
        out = 1
        for (k, sign), cycles in types.items():
            out *= _type_count(k, len(cycles),
                               2 * k if t > 0 or (sign > 0 and k % 2 == 0) else 0)
        return out
    return count(1) if ambient == "B" else (count(1) + count(-1)) // 2


def inverting_involution_count(sp: SignedPermutation, ambient: str = "B") -> int:
    """|I_w| in W(B_n) or W(D_n) in closed form, a product over cycle types.

    Of m cycles of length k, an involutive matching with j pairs swaps each
    pair in one of 2k ways and reverses each of the m - 2j others in one of
    2k ways (see `inverting_signed_involutions`), so a type contributes
    sum_j m!/(j!(m-2j)!2^j) (2k)^(m-j).  For D, count(t) weighs a member by
    t to the number of points it negates: a swapped pair negates an even
    number, and a reversed cycle an even number in all 2k ways if it is
    positive of even length, else in exactly k of them.  So the members that
    negate an even number of points number (count(1) + count(-1)) / 2.
    """
    return _count(_cycle_types(sp.images), ambient)


def centralizer_order(sp: SignedPermutation) -> int:
    """|C(w)| in W(B_n) in closed form: the m cycles of one length k and sign
    type give a wreath product of order m! (2k)^m (see `signedperm`)."""
    out = 1
    for (k, _), cycles in _cycle_types(sp.images).items():
        out *= factorial(len(cycles)) * (2 * k) ** len(cycles)
    return out


@lru_cache(maxsize=None)
def _involutive_matchings(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The involutions of range(m) as blocks: (a, a) for a fixed item and
    (a, b) for a swapped pair."""
    if m == 0:
        return ((),)
    out = [((0, 0),) + tuple((a + 1, b + 1) for a, b in tail)
           for tail in _involutive_matchings(m - 1)]
    for other in range(1, m):
        rest = [i for i in range(1, m) if i != other]
        out.extend(((0, other),) + tuple((rest[a], rest[b]) for a, b in tail)
                   for tail in _involutive_matchings(m - 2))
    return tuple(out)


def inverting_signed_involutions(sp: SignedPermutation, ambient: str = "B",
                                 guard: int | None = None) -> list[SignedPermutation]:
    """I_w in W(B_n) or W(D_n), sorted by images, as a product over w's
    cycle types; the centralizer of w is never enumerated.

    xwx = w^-1 says x(w^-1(p)) = w(x(p)) for every signed point p, so x
    carries each cycle c of w onto a cycle d of the same length k and sign
    type, and its image r of c's first point p0 fixes the rest:
    x(w^-j(p0)) = w^j(r).  Any of the 2k signed points of d will do (Carter
    1972).  For x to be an involution, the cycles of each type are matched
    by an involution of S_m: a fixed cycle is reversed onto itself, in one of
    2k ways, all of them involutions; a swapped pair (c, d) takes one of 2k
    images r and the inverse map back from d.  So I_w is the product, over
    the cycle types, of the involutive matchings with a choice of r per
    block.  For ambient D each block's choices are kept apart by the parity
    of the points they negate, and the last block takes only the parity that
    makes the total even, so only members of W(D_n) are built.  The size is
    known first (`inverting_involution_count`) and checked against the
    guard.
    """
    trusted = SignedPermutation._trusted
    return [trusted(x) for x in _inverting_signed_images(sp, ambient, guard)]


def _inverting_signed_images(sp: SignedPermutation, ambient: str = "B",
                             guard: int | None = None,
                             blocks: dict | None = None) -> list[tuple[int, ...]]:
    """The images of `inverting_signed_involutions`, sorted, unwrapped.

    A block, the images of x at the points of c and d for each choice of r,
    depends only on w restricted to those points: on the orbits of c and d
    (`_cycle_types`) and their sign type, which key it, so callers that
    enumerate I_w for many elements may share `blocks`.
    """
    if ambient not in ("B", "D"):
        raise ValueError("ambient must be 'B' or 'D'")
    if ambient == "D" and not sp.is_positive():
        raise ValueError("element is not in the type D group")
    types = _cycle_types(sp.images)
    limit = effective_guard(guard)
    size = _count(types, ambient)
    if size > limit:
        raise GuardExceeded(f"|I_w| = {size} exceeds guard {limit}")
    by_parity = ambient == "D"
    if blocks is None:
        blocks = {}

    def block(c, d, sign):
        """(points, choices by parity): the images of x at c's points, and at
        d's when d is another cycle, for each of the 2k images r.

        With c and d given as orbits, w^-j(p0) is back[j] and w^t(d0) is
        fwd[t].  The images r are e fwd[i], i < k, e = +-1, so w^j(r) is
        e fwd[i + j], and the choice of -r negates every image of the choice
        of r.  Position m of the images is c's point m, then d's: back[j]
        is at -j mod k, and fwd[t] at t mod k in d.  A swap negates as many
        points of d as of c, so its choices are all even."""
        key = (by_parity, sign, c, d)
        if key not in blocks:
            k = len(c)
            back = (c[0],) + tuple([sign * v for v in c[:0:-1]])
            fwd = d + tuple([sign * v for v in d[:-1]])
            choices: tuple[list, list] = ([], [])
            for i in range(k):
                x = [0] * (k if d is c else 2 * k)
                for j, u in enumerate(back):  # x(u) = v
                    v = fwd[i + j]
                    x[-j % k] = v if u > 0 else -v
                    if d is not c:  # and x(v) = u
                        x[k + (i + j) % k] = u if v > 0 else -u
                negated = sum(v < 0 for v in x) & 1 if by_parity and d is c else 0
                choices[negated].append(tuple(x))
                choices[negated ^ len(x) & by_parity].append(tuple([-v for v in x]))
            blocks[key] = (tuple(map(abs, c if d is c else c + d)), choices)
        return blocks[key]

    per_type = [[[block(cycles[a], cycles[b], sign) for a, b in matching]
                 for matching in _involutive_matchings(len(cycles))]
                for (_, sign), cycles in types.items()]
    natural = list(range(1, sp.degree + 1))
    members = []
    for matchings in product(*per_type):
        chosen = [b for matching in matchings for b in matching]
        # partial images that negate an even and an odd number of points so
        # far; the last block keeps the even members only
        even, odd = [()], []
        order = []
        for points, (c0, c1) in chosen[:-1]:
            order += points
            even, odd = ([a + b for a in even for b in c0] + [a + b for a in odd for b in c1],
                         [a + b for a in even for b in c1] + [a + b for a in odd for b in c0])
        points, (c0, c1) = chosen[-1]
        order += points
        found = [a + b for a in even for b in c0] + [a + b for a in odd for b in c1]
        if order != natural:
            where = {p: i for i, p in enumerate(order)}
            found = map(itemgetter(*[where[p] for p in natural]), found)
        members.extend(found)
    members.sort()
    return members


def inverting_involutions_structured(rs: RootSystem, sp: SignedPermutation,
                                     guard: int | None = None) -> InvolutionSet:
    """I_w from the product over cycle types; the handle of y = xw is found
    among the members by its signed images, and each member's root table
    maps the signed point pair of every positive root."""
    fam = rs.family
    if fam not in ("B", "D"):
        raise ValueError("structured enumeration needs a type B or D system")
    _check_model(rs, sp)
    signed = _inverting_signed_images(sp, fam, guard)
    handle = {x: i for i, x in enumerate(signed)}
    pairs = [(i, handle[compose_tables(x, sp.images)]) for i, x in enumerate(signed)]
    roots, grid = point_tables(rs)
    tables = []
    for x in signed:
        ext = signed_lookup(x)
        tables.append(tuple([grid[ext[a]][ext[b]] for a, b in roots]))
    # bits and l_R once per member x, which covers every y as well
    bits = {x: bits_of_table(tables[x]) for x, _ in pairs}
    lr = {x: involution_reflection_length(rs, tables[x]) for x, _ in pairs}
    return InvolutionSet(rs, "structured-coset", tuple(pairs), tables, bits, lr, signed)


def involutions_inverting(rs: RootSystem, w: GroupElement,
                          guard: int | None = None) -> InvolutionSet:
    """Exhaustive when the group fits under the guard, else the structured
    path, which the same guard bounds by |I_w|."""
    limit = effective_guard(guard)
    if rs.order() <= limit:
        return inverting_involutions(rs, w, limit)
    if rs.family in ("B", "D"):
        return inverting_involutions_structured(rs, from_root_perm(w), limit)
    raise GuardExceeded(
        f"|W({rs.name})| = {rs.order()} exceeds guard {limit} and no structured path applies")


# ---------------------------------------------------------------------------
# the kernels: every statistic of InvolutionSet, excess_report and GroupData
# reads pairs (x, y) through these, with bits and lr indexed by handle

def _least_defect(pairs, bits, mask: int | None = None) -> int:
    """Least defect 2|N(x) & N(y)|, over the x inside Phi_J (N(x) within the
    mask) when a parabolic mask is given."""
    if mask is None:
        return 2 * min((bits[x] & bits[y]).bit_count() for x, y in pairs)
    return 2 * min((bits[x] & bits[y]).bit_count() for x, y in pairs
                   if bits[x] & ~mask == 0)


def _lr_reaching(pairs, lr) -> list[tuple[int, int]]:
    """The pairs whose l_R(x) + l_R(y) is least, l_R(w) (Carter 1972)."""
    lw = min(lr[x] + lr[y] for x, y in pairs)
    return [(x, y) for x, y in pairs if lr[x] + lr[y] == lw]


def _spartan(pairs, bits, tables, best: int) -> list[tuple[int, int]]:
    """The pairs of defect `best`, sorted by (l(x), table of x)."""
    out = [(x, y) for x, y in pairs if 2 * (bits[x] & bits[y]).bit_count() == best]
    out.sort(key=lambda xy: (bits[xy[0]].bit_count(), tables[xy[0]]))
    return out


def _niw(pairs, bits) -> int:
    """N(I_w), the union of the members' inversion sets."""
    out = 0
    for x, _ in pairs:
        out |= bits[x]
    return out


def j_set(w: GroupElement, iw: InvolutionSet) -> InvolutionSet:
    """Members x with l_R(x) + l_R(xw) = l_R(w).

    l_R(w) is taken as the least such sum over iw, so iw must be the whole
    of I_w.
    """
    return replace(iw, pairs=tuple(_lr_reaching(iw.pairs, iw.lr)))


def excess(w: GroupElement, iw: InvolutionSet) -> int:
    return _least_defect(iw.pairs, iw.bits)


def spartan_pairs(w: GroupElement, iw: InvolutionSet) -> list[SpartanPair]:
    """All minimizing factorizations, sorted by (l(x), table of x)."""
    best = _least_defect(iw.pairs, iw.bits)
    rs, tables = iw.system, iw.tables
    return [SpartanPair(GroupElement(rs, tables[x]), GroupElement(rs, tables[y]), best)
            for x, y in _spartan(iw.pairs, iw.bits, tables, best)]


def reflection_excess(w: GroupElement, jw: InvolutionSet) -> int:
    return excess(w, jw)


def parabolic_excess(w: GroupElement, ctx: ParabolicContext,
                     iw: InvolutionSet) -> int:
    if not ctx.contains(w):
        raise ValueError("element is not in the parabolic subgroup")
    return _least_defect(iw.pairs, iw.bits, ctx.mask)


def parabolic_reflection_excess(w: GroupElement, ctx: ParabolicContext,
                                iw: InvolutionSet) -> int:
    """Reflection excess of w taken inside W_J, from the whole of I_w.

    Reflection length in W_J is that in W, so the J-set inside W_J is J_w
    intersected with W_J (see the module docstring).
    """
    if not ctx.contains(w):
        raise ValueError("element is not in the parabolic subgroup")
    return _least_defect(_lr_reaching(iw.pairs, iw.lr), iw.bits, ctx.mask)


def n_of_inverting_set(iw: InvolutionSet) -> int:
    return _niw(iw.pairs, iw.bits)


# ---------------------------------------------------------------------------
# structural predicates on spartan pairs (signed-permutation level); the
# sweep runners evaluate them from `GroupData.signed_fields`, and these
# forms are the references that path is tested against

def spartan_support_check(x: SignedPermutation, y: SignedPermutation,
                          w: SignedPermutation, family: str) -> bool:
    """Support containment for A/B; the one-point relaxation for D."""
    sx, sy, sw = x.positive_support(), y.positive_support(), w.positive_support()
    if family in ("A", "B"):
        return (sx | sy) <= sw
    if family == "D":
        dx, dy = sx - sw, sy - sw
        if len(dy) > 1 or dx != dy:
            return False
        return all(y.images[i - 1] == -i and x.images[i - 1] == -i for i in dy)
    raise ValueError(f"no support rule for family {family!r}")


def _support_holds(fx, fy, fw, family: str) -> bool:
    """`spartan_support_check` on the bitmasks of `SignedFields`."""
    if family == "D":
        d = fy.support & ~fw.support
        return (d & (d - 1) == 0 and fx.support & ~fw.support == d
                and d & ~(fx.negated & fy.negated) == 0)
    return (fx.support | fy.support) & ~fw.support == 0


def overlap_check(x: SignedPermutation, y: SignedPermutation, m: int) -> bool:
    """2-cycles of x and y must not straddle the split {1..m} | {m+1..n}."""
    for u in (x, y):
        for c in u.cycles().cycles:
            if c.length != 2:
                continue
            a, b = c.points
            if (a <= m) != (b <= m):
                return False
    return True


def _fields_of(images) -> SignedFields:
    """`SignedFields` from an element's images: p is moved or negated when
    w(p) != p, and (p, q), p < q, is a 2-cycle when q = |w(p)|, p = |w(q)|."""
    support = negated = straddle = 0
    for p, v in enumerate(images, 1):
        if v != p:
            support |= 1 << p
            q = abs(v)
            if q == p:
                negated |= 1 << p
            elif q > p and abs(images[q - 1]) == p:
                straddle |= (1 << q) - (1 << p)
    return SignedFields(support, negated, straddle)


def swapcycle_check(x: SignedPermutation, y: SignedPermutation,
                    w: SignedPermutation) -> bool:
    """Whenever y carries an all-positive w-cycle onto the inverse of another
    w-cycle, the first cycle must reach past the start of the second."""
    n = w.degree
    cycles = [SignedCycle(*c) for c in _cycles(w.images)]
    for c1 in cycles:
        if any(s < 0 for s in c1.signs):
            continue
        for c2 in cycles:
            if c2 is c1 or c2.length != c1.length:
                continue
            if {abs(y.images[p - 1]) for p in c1.points} != set(c2.points):
                continue
            conj = cycle_as_permutation(c1, n).conjugated_by(y)
            if conj != cycle_as_permutation(c2, n).inverse():
                continue
            if max(c1.points) <= min(c2.points):
                return False
    return True


def _swap_candidates(cycles) -> list[tuple[tuple[int, ...], dict[int, int]]]:
    """The (c1, c2) on which `swapcycle_check` can fail: c1 all-positive and
    c2 another cycle of its length that starts at or after c1's end, from
    w's cycles as (points, signs).  Each is given as c1's points and c2^-1
    on the signed points of c2."""
    out = []
    for c1, signs1 in cycles:
        if -1 in signs1:
            continue
        end = max(c1)
        for c2, signs2 in cycles:
            if c2 is c1 or len(c2) != len(c1) or min(c2) < end:
                continue
            inverse = {}
            for q, s, r in zip(c2, signs2, c2[1:] + c2[:1]):
                inverse[s * r], inverse[-s * r] = q, -q  # c2 sends q to s r
            out.append((c1, inverse))
    return out


def _swaps_interleave(candidates, y) -> bool:
    """`swapcycle_check` from w's `_swap_candidates` and y's images.

    y^-1 c1 y sends y(p) to y(c1(p)), so it is c2^-1 exactly when c2^-1
    sends y(p) to y(c1(p)) at every point p of c1; a y(p) off c2's signed
    points has no entry, so y carries c1 onto c2 as well."""
    for points, inverse in candidates:
        if all(inverse.get(y[p - 1]) == y[q - 1]
               for p, q in zip(points, points[1:] + points[:1])):
            return False
    return True


def dn_condition_check(w: SignedPermutation, m: int) -> DnCondition:
    """Which hypothesis (if any) makes parabolic excess collapse on a
    Sym(1..m) x D(m+1..n) split; w must respect the split."""
    n = w.degree
    if m == n:
        return DnCondition.M_EQUALS_N
    block_cycles = []
    for points, signs in _cycles(w.images):
        inside = [p > m for p in points]
        if any(inside) and not all(inside):
            raise ValueError(f"element does not respect the split at m={m}")
        if all(inside):
            block_cycles.append(SignedCycle(points, signs))
    if any(c.length == 1 for c in block_cycles):
        return DnCondition.HAS_ONE_CYCLE
    if all(c.length % 2 == 0 and c.sign_type > 0 for c in block_cycles):
        return DnCondition.EVEN_POSITIVE_CYCLES
    return DnCondition.NONE


def _dn_condition(cycles, n: int, m: int) -> DnCondition:
    """`dn_condition_check` from w's `_cycles`.  A cycle starts at its least
    point, so it lies in {m+1..n} when its first point does, and straddles
    the split when only its last point past m does."""
    if m == n:
        return DnCondition.M_EQUALS_N
    block = []  # (length, odd number of minus signs) of the cycles past m
    for points, signs in cycles:
        if points[0] > m:
            block.append((len(points), signs.count(-1) % 2))
        elif max(points) > m:
            raise ValueError(f"element does not respect the split at m={m}")
    if any(k == 1 for k, _ in block):
        return DnCondition.HAS_ONE_CYCLE
    if all(k % 2 == 0 and not odd for k, odd in block):
        return DnCondition.EVEN_POSITIVE_CYCLES
    return DnCondition.NONE


# ---------------------------------------------------------------------------
# exhaustive sweep engine

class GroupData:
    """Tables for an enumerable group: one pass over involution pairs
    registers every inverting involution of every element at once.

    `pairs[w]` lists the (x, y) with x, y involutions and xy = w, sorted, so
    x runs over I_w.  e(w), l_R(w), E(w) and N(I_w) are `columns`, four
    lists filled by one scan of every element's pairs on first use; the
    restrictions to a W_J and the J-sets are read from the pairs on each
    call, by the kernels that serve `InvolutionSet`, with `bits` and `lr`
    indexed by element.
    `at_key` maps an element's key (`elements.simple_key`) to its index.
    Every element is yx for some involutions x, y (Carter 1972), and xy is
    its inverse, so `inverse` is read off the pairs' products.  A group whose
    pair pass exceeds the guard is refused before anything is enumerated
    (`elements.check_pair_pass`).

    What several runners read is built once, on first use: `right[r]`, the
    index of each w s_r, so the BFS parent of w_i is right[s][i] for the
    last s of words[i]; `conjugation[r]`, the index of each s_r w s_r, read
    off `right` and `inverse`, and the conjugacy classes searched on it;
    every element's signed permutation, each its parent's read through one
    generator's; an element's `SignedFields` and spartan pairs; and the
    context and members of each parabolic subgroup.
    """

    def __init__(self, rs: RootSystem, guard: int | None = None):
        self.rs = rs
        check_pair_pass(rs, guard)
        perms, words, at_key = bfs_tables(rs, guard)
        self.perms = perms
        self.words = words
        self.at_key = at_key
        self.bits = [bits_of_table(p) for p in perms]
        self.lengths = [b.bit_count() for b in self.bits]
        self.involutions = invs = [i for i, p in enumerate(perms) if is_involution_table(p)]
        # one translate of every involution's key through x gives row x: entry
        # j indexes y_j x, whose inverse x y_j is entry i of row j.  The first
        # rows meet every element (E6: 409 of 892); ints are at_key's objects.
        sep = key_sep(rs.num_positive)
        packed = sep.join(map(list(at_key).__getitem__, invs))
        rows = [array("i", map(at_key.__getitem__, packed.translate(key_table(perms[xi])).split(sep)))
                for xi in invs]
        ints = list(at_key.values())
        inverse_of: dict[int, int] = {}
        for i, row in enumerate(rows):
            inverse_of.update(zip(map(ints.__getitem__, row),
                                  map(ints.__getitem__, map(itemgetter(i), rows))))
            if len(inverse_of) == len(ints):
                break
        self.inverse = inverse = list(map(inverse_of.__getitem__, ints))
        del inverse_of, ints
        pairs: list[list[tuple[int, int]]] = [[] for _ in perms]
        for i, xi in enumerate(invs):  # x, then y, ascending: no sort needed
            for yi, wi in zip(invs, rows[i]):
                pairs[inverse[wi]].append((xi, yi))
            rows[i] = None  # placed: release the row
        self.pairs = pairs
        # l_R of each involution from its trace; None elsewhere
        self.lr: list = [None] * len(perms)
        for xi in self.involutions:
            self.lr[xi] = involution_reflection_length(rs, perms[xi])
        self._columns: tuple[list[int], ...] | None = None
        self._right: list[array] | None = None
        self._conj: list[array] | None = None
        self._sps: list | None = None
        self._fields: list = [None] * len(perms)
        self._spartans: list = [None] * len(perms)
        self._parabolics: dict = {}
        self._orbits = None

    def __len__(self):
        return len(self.perms)

    def conjugation_orbits(self):
        """The conjugacy classes, searched on the first call only: two
        theorems read them.  Returns (orbits, parent): each orbit lists
        indices in breadth-first order under w -> s w s (`conjugation`)
        from the first of its elements in index order, and the orbits come
        in that order; parent[i] is (j, r) with i = s_r j s_r and j before i
        in its orbit, None for the first."""
        if self._orbits is None:
            maps = list(enumerate(self.conjugation))
            parent: list = [None] * len(self)
            seen = bytearray(len(self))
            orbits = []
            for start in range(len(self)):
                if seen[start]:
                    continue
                seen[start] = 1
                orbit = [start]
                for wi in orbit:  # grows while it is read
                    for r, conj in maps:
                        ci = conj[wi]
                        if not seen[ci]:
                            seen[ci] = 1
                            parent[ci] = (wi, r)
                            orbit.append(ci)
                orbits.append(orbit)
            self._orbits = orbits, parent
        return self._orbits

    @property
    def conjugation(self) -> list[array]:
        """conjugation[r][i] is the index of s_r w_i s_r: w_i s_r from
        `right`, inverted to s_r w_i^-1, times s_r, inverted again."""
        if self._conj is None:
            inv = self.inverse.__getitem__
            self._conj = [array("i", map(inv, map(row.__getitem__, map(inv, row))))
                          for row in self.right]
        return self._conj

    @property
    def right(self) -> list[array]:
        """right[r][i] is the index of w_i s_r: one translate of every key
        through s_r (`elements.key_table`), each looked up in `at_key`.  Kept
        in an attribute set in __init__: a cached_property writes through
        __dict__, which slows later method calls on the instance."""
        if self._right is None:
            at_key = self.at_key
            sep = key_sep(self.rs.num_positive)
            packed = sep.join(at_key)
            self._right = [array("i", map(at_key.__getitem__,
                                          packed.translate(key_table(g)).split(sep)))
                           for g in self.rs.gen_tables]
        return self._right

    def element(self, i: int) -> GroupElement:
        return GroupElement(self.rs, self.perms[i])

    def signed_perm(self, i: int) -> SignedPermutation:
        if self._sps is None:
            # w s has w's images read through s's, so only the identity and
            # the generators go through `from_root_perm`
            gens = [signed_lookup(from_root_perm(GroupElement(self.rs, g)).images)
                    for g in self.rs.gen_tables]
            images = [from_root_perm(self.element(0)).images]
            for j, word in enumerate(self.words[1:], 1):
                r = word[-1]
                images.append(tuple(map(gens[r].__getitem__, images[self.right[r][j]])))
            self._sps = list(map(SignedPermutation._trusted, images))
        return self._sps[i]

    def signed_fields(self, i: int) -> SignedFields:
        f = self._fields[i]
        if f is None:
            f = self._fields[i] = _fields_of(self.signed_perm(i).images)
        return f

    def parabolic(self, J) -> tuple[ParabolicContext, list[int]]:
        """The context of W_J and its members in index order."""
        J = tuple(J)
        if J not in self._parabolics:
            ctx = parabolic_context(self.rs, J)
            outside = ~ctx.mask
            self._parabolics[J] = (ctx, [i for i, b in enumerate(self.bits)
                                         if not b & outside])
        return self._parabolics[J]

    def display(self, i: int) -> str:
        if self.rs.family in ("A", "B", "D"):
            return self.signed_perm(i).format()
        return word_text(self.words[i])

    @property
    def columns(self) -> tuple[list[int], ...]:
        """(e, l_R, E, N(I_w)), four lists indexed by element, from one scan
        of every element's pairs on first use: e(w) is the least defect
        2|N(x) & N(y)|; the least (l_R(x) + l_R(y), |N(x) & N(y)|) gives
        l_R(w) (Carter 1972) and E(w)/2; N(I_w) is the union of the N(x)."""
        if self._columns is None:
            bits, lr = self.bits, self.lr
            e, lrw, E, niw = columns = [], [], [], []
            for pairs in self.pairs:
                least = lw = best = sys.maxsize
                union = 0
                for x, y in pairs:
                    bx = bits[x]
                    union |= bx
                    d = (bx & bits[y]).bit_count()
                    if d < least:
                        least = d
                    s = lr[x] + lr[y]
                    if s < lw:
                        lw, best = s, d
                    elif s == lw and d < best:
                        best = d
                e.append(2 * least)
                lrw.append(lw)
                E.append(2 * best)
                niw.append(union)
            self._columns = columns
        return self._columns

    def reflection_length(self, i: int) -> int:
        return self.columns[1][i]

    def excess_of(self, wi: int) -> int:
        return self.columns[0][wi]

    def excess_in(self, wi: int, mask: int) -> int:
        return _least_defect(self.pairs[wi], self.bits, mask)

    def jset_of(self, wi: int) -> list[tuple[int, int]]:
        """The pairs (x, y) of I_w with l_R(x) + l_R(y) = l_R(w), the
        element's own pair tuples, filtered anew on each call.

        For w in a parabolic W_J, those with x in W_J form the J-set of w
        taken inside W_J (see the module docstring).
        """
        lr, lw = self.lr, self.reflection_length(wi)
        return [xy for xy in self.pairs[wi] if lr[xy[0]] + lr[xy[1]] == lw]

    def refl_excess_of(self, wi: int) -> int:
        return self.columns[2][wi]

    def refl_excess_in(self, wi: int, mask: int) -> int:
        return _least_defect(self.jset_of(wi), self.bits, mask)

    def spartan_of(self, wi: int) -> tuple[tuple[int, int], ...]:
        # kept as a tuple of int pairs, which the garbage collector untracks
        if self._spartans[wi] is None:
            self._spartans[wi] = tuple(_spartan(self.pairs[wi], self.bits, self.perms,
                                                self.excess_of(wi)))
        return self._spartans[wi]

    def niw_bits(self, wi: int) -> int:
        return self.columns[3][wi]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True, slots=True)
class ExcessReport:
    """The statistics of one element: its group's name and one interned
    string, so that reports of one element share everything they hold, as
    callers keep many reports.

    `record` has seven lines: the element's text, l(w), l_R(w), e(w), E(w),
    the parabolic rows and the witness texts.  A row is "j1 j2 ...,e_J,E_J"
    (1-based generators) and rows are joined by ";"; the witness pairs
    (x, y) are flattened and joined by "|", which no cycle text or word
    holds.  The properties read the lines back.
    """

    descriptor: str
    record: str

    def _line(self, i: int) -> str:
        return self.record.split("\n")[i]

    @property
    def element(self) -> str:
        return self._line(0)

    @property
    def length(self) -> int:
        return int(self._line(1))

    @property
    def reflection_length(self) -> int:
        return int(self._line(2))

    @property
    def excess(self) -> int:
        return int(self._line(3))

    @property
    def reflection_excess(self) -> int:
        return int(self._line(4))

    @property
    def parabolic(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        rows = self._line(5)
        out = []
        for row in rows.split(";") if rows else ():
            J, ej, Ej = row.split(",")
            out.append((tuple(map(int, J.split())), int(ej), int(Ej)))
        return tuple(out)

    @property
    def witnesses(self) -> tuple[tuple[str, str], ...]:
        texts = self._line(6)
        texts = texts.split("|") if texts else []
        return tuple(zip(texts[::2], texts[1::2]))

    def to_json_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "element": self.element,
            "length": self.length,
            "reflection_length": self.reflection_length,
            "excess": self.excess,
            "reflection_excess": self.reflection_excess,
            "parabolic": [
                {"J": list(J), "e_J": ej, "E_J": Ej} for J, ej, Ej in self.parabolic
            ],
            "witnesses": [list(pair) for pair in self.witnesses],
        }

    def csv_rows(self) -> list[list[str]]:
        """One row per parabolic row, or one with J, e_J and E_J empty."""
        lines = self.record.split("\n")
        # the element, the statistics and each row's fields are text already
        base = [self.descriptor] + lines[:5]
        if not lines[5]:
            return [base + ["", "", ""]]
        return [base + row.split(",") for row in lines[5].split(";")]


CSV_HEADER = ["descriptor", "element", "length", "reflection_length",
              "excess", "reflection_excess", "J", "e_J", "E_J"]


def _element_text(w: GroupElement) -> str:
    """Cycle text for A/B/D, else a reduced word."""
    rs = w.system
    if rs.family in ("A", "B", "D"):
        return from_root_perm(w).format()
    return word_text(reduced_word(w))


def _signed_text(images) -> str:
    return SignedPermutation._trusted(images).format()


def excess_report(rs: RootSystem, w: GroupElement,
                  parabolics: tuple[ParabolicContext, ...] = (),
                  iw: InvolutionSet | None = None,
                  guard: int | None = None) -> ExcessReport:
    """Every statistic from the pairs of I_w, which must be whole; no
    element is composed."""
    if iw is None:
        iw = involutions_inverting(rs, w, guard)
    pairs, bits, tables = iw.pairs, iw.bits, iw.tables
    jpairs = _lr_reaching(pairs, iw.lr)
    e = _least_defect(pairs, bits)
    E = _least_defect(jpairs, bits)
    if E < e or e % 2:
        raise RuntimeError("inconsistent excess values")  # defensive
    wbits = w.inversions()
    rows = ";".join([
        f"{' '.join(map(str, ctx.J_display))},{_least_defect(pairs, bits, ctx.mask)},"
        f"{_least_defect(jpairs, bits, ctx.mask)}"
        for ctx in parabolics if ctx.contains_table(wbits)])

    signed = iw.signed
    if signed is None:
        def text(h):
            return _element_text(GroupElement(rs, tables[h]))
        w_text = _element_text(w)
    else:
        # the signed members are kept by handle, and w = xy for any pair
        def text(h):
            return _signed_text(signed[h])
        x, y = pairs[0]
        w_text = _signed_text(compose_tables(signed[x], signed[y]))
    witnesses = "|".join([text(h) for xy in _spartan(pairs, bits, tables, e) for h in xy])
    x, y = jpairs[0]
    record = "\n".join([w_text, str(wbits.bit_count()), str(iw.lr[x] + iw.lr[y]),
                        str(e), str(E), rows, witnesses])
    return ExcessReport(rs.name, sys.intern(record))
