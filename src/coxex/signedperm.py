"""Signed permutations of {1..n}: the fast model for types A, B and D.

Cycle notation follows the convention that the sign written on a point is
applied when mapping that point forward: ``(+2 +4 -3)`` sends 2 to 4, 4 to
-3 and 3 to 2.  A cycle is of negative sign type when it carries an odd
number of minus signs, and an element is positive when the product of its
cycle sign types is; W(D_n) consists of the positive elements of W(B_n).

Every root of A, B and D is e_a + e_b for signed points a, b (e_{-p} = -e_p),
or e_a for the short roots of B, so a signed permutation maps a root by
mapping two points.  `to_root_perm` and `from_root_perm` read two tables
built once per root system (`point_tables`): each positive root's pair
(a, b), with b = 0 for e_a, and the signed root index of every ordered
signed pair.  Both conversions cost one lookup per root.

In W(B_n) the centralizer of w is a product over w's cycle types (length
k, sign type) of wreath products: a group of order 2k, generated by the
cycle and, for a positive cycle, its sign flip, wreathed with S_m over the
m cycles of that type (Carter 1972).  The inverting involutions I_w have
the same shape: an involution permutes the cycles of each type as an
involution of S_m, reverses each cycle it fixes in one of 2k ways and swaps
each pair it moves in one of 2k ways.  `excess.inverting_signed_involutions`
writes I_w down as that product, without the centralizer.
`centralizer_elements` closes the centralizer from `centralizer_generators`;
it is the reference the tests check that product, and the closed-form order
`excess.centralizer_order`, against.  Every cycle form, here and in
`excess`, reads one walk of the images, `_cycles`.

Only the public constructor checks that its images form a signed
permutation; it takes parsed and user input.  Products, inverses and the
centralizer closure are signed permutations by construction and skip that
check.  The images are a signed table like a root permutation's, so
products, inverses and the involution test are the table functions of
`elements`.

>>> sp = parse("(+2 +3 +5)", 5)
>>> format_cycles(sp)
'(+2 +3 +5)'
>>> sp.is_positive()
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .elements import (GroupElement, GuardExceeded, compose_tables, identity_table,
                       invert_table, is_involution_table, signed_lookup)
from .rootsystem import RootSystem


@dataclass(frozen=True)
class SignedCycle:
    """points[k] maps to signs[k] * points[k+1], cyclically."""

    points: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.points)

    @property
    def sign_type(self) -> int:
        s = 1
        for x in self.signs:
            s *= x
        return s

    def min_point(self) -> int:
        return self.points[0]

    def format(self) -> str:
        body = " ".join(f"{'+' if s > 0 else '-'}{p}" for p, s in zip(self.points, self.signs))
        return f"({body})"


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint signed cycles; untouched points are implicit positive 1-cycles."""

    cycles: tuple[SignedCycle, ...]

    @property
    def sign(self) -> int:
        s = 1
        for c in self.cycles:
            s *= c.sign_type
        return s

    def lengths(self) -> tuple[int, ...]:
        return tuple(c.length for c in self.cycles)


def _cycles(images) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every cycle of a signed permutation as (points, signs), points[k]
    mapping to signs[k] * points[k+1]: the moved and negated cycles, each
    from its least point and sorted by it, then the fixed points as
    ((p,), (1,)).  The one walk of the cycles; the other forms read it."""
    seen = [False] * (len(images) + 1)
    cycles, fixed = [], []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        if images[start - 1] == start:
            fixed.append(((start,), (1,)))
            continue
        points, signs = [], []
        p = start
        while not seen[p]:
            seen[p] = True
            v = images[p - 1]
            points.append(p)
            signs.append(1 if v > 0 else -1)
            p = abs(v)
        cycles.append((tuple(points), tuple(signs)))
    return (*cycles, *fixed)


class SignedPermutation:
    """images[i-1] = signed image of point i."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(abs(v) for v in imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images do not describe a signed permutation")
        self.images = imgs

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "SignedPermutation":
        """Wrap images already known to form a signed permutation, unchecked."""
        sp = object.__new__(cls)
        sp.images = images
        return sp

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls._trusted(identity_table(n))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return SignedPermutation._trusted(compose_tables(self.images, other.images))

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation._trusted(invert_table(self.images))

    def conjugated_by(self, x: "SignedPermutation") -> "SignedPermutation":
        return x.inverse() * self * x

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def is_involution(self) -> bool:
        """x^2 == 1, which admits the identity."""
        return is_involution_table(self.images)

    def is_positive(self) -> bool:
        """Even number of sign changes; the sign-type product rule."""
        return sum(1 for v in self.images if v < 0) % 2 == 0

    def in_D(self) -> bool:
        return self.is_positive()

    def positive_support(self) -> frozenset[int]:
        """Points a with e_a moved or negated."""
        return frozenset(i + 1 for i, v in enumerate(self.images) if v != i + 1)

    def cycles(self) -> CycleDecomposition:
        """Canonical form: the cycles of `_cycles` but the fixed points, whose
        signs alone are (1,); each starts at its least point, sorted by it."""
        return CycleDecomposition(tuple(SignedCycle(points, signs)
                                        for points, signs in _cycles(self.images)
                                        if signs != (1,)))

    def format(self) -> str:
        dec = self.cycles()
        if not dec.cycles:
            return "()"
        return "".join(c.format() for c in dec.cycles)

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"SignedPermutation({self.format()!r}, n={self.degree})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_POINT_RE = re.compile(r"([+-])(\d+)")


def parse(text: str, n: int) -> SignedPermutation:
    """Parse cycle notation at degree n; cycles must be disjoint."""
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle text {text!r}")
    images = list(range(1, n + 1))
    used: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        inner = body.strip()
        if not inner:
            continue  # "()" is the identity
        leftover = _POINT_RE.sub("", inner)
        if leftover.strip():
            raise ValueError(f"malformed cycle {body!r}")
        pts = []
        sgn = []
        for s, d in _POINT_RE.findall(inner):
            p = int(d)
            if not 1 <= p <= n:
                raise ValueError(f"point {p} out of range 1..{n}")
            if p in used:
                raise ValueError(f"point {p} repeated")
            used.add(p)
            pts.append(p)
            sgn.append(1 if s == "+" else -1)
        for k, p in enumerate(pts):
            images[p - 1] = sgn[k] * pts[(k + 1) % len(pts)]
    return SignedPermutation(images)


def format_cycles(sp: SignedPermutation) -> str:
    return sp.format()


def _check_model(rs: RootSystem, sp: SignedPermutation) -> str:
    if not rs.is_irreducible or rs.family not in ("A", "B", "D"):
        raise ValueError(f"{rs.name} has no signed-permutation model")
    fam = rs.family
    if rs.components[0].degree != sp.degree:
        raise ValueError(f"degree {sp.degree} does not match {rs.name}")
    if fam == "A" and any(v < 0 for v in sp.images):
        raise ValueError("sign changes are not elements of a type A group")
    if fam == "D" and not sp.is_positive():
        raise ValueError("negative element is not in the type D group")
    return fam


def point_tables(rs: RootSystem):
    """(pairs, grid) of an A/B/D system, built once and cached on it.

    pairs[k] is positive root k as signed points (a, b), the root e_a + e_b
    with e_{-p} = -e_p, and b = 0 for a short root e_a of B.  grid[x][y] is
    the signed index of the root e_x + e_y, in both orders and both signs;
    as in `elements.signed_lookup`, the row or column of a negative point
    is read from the end.  Entries that name no root are 0.
    """
    if rs._point_tables is None:
        n = len(rs.keys[0])
        pairs = []
        for key in rs.keys:
            pts = [i + 1 if c > 0 else -(i + 1) for i, c in enumerate(key) if c]
            if len(pts) not in (1, 2):
                raise ValueError(f"{rs.name} roots are not e_a +- e_b or e_a")
            pairs.append((pts[0], pts[1] if len(pts) == 2 else 0))
        grid = [[0] * (2 * n + 1) for _ in range(2 * n + 1)]
        for k, (a, b) in enumerate(pairs, start=1):
            grid[a][b] = grid[b][a] = k
            grid[-a][-b] = grid[-b][-a] = -k
        rs._point_tables = (tuple(pairs), grid)
    return rs._point_tables


def to_root_perm(sp: SignedPermutation, rs: RootSystem) -> GroupElement:
    """Action on the roots e_i +- e_j (and e_i for B) as a table element:
    the root e_a + e_b goes to e_sp(a) + e_sp(b)."""
    _check_model(rs, sp)
    pairs, grid = point_tables(rs)
    ext = signed_lookup(sp.images)
    return GroupElement(rs, tuple([grid[ext[a]][ext[b]] for a, b in pairs]))


def from_root_perm(w: GroupElement, rs: RootSystem | None = None) -> SignedPermutation:
    """Recover the signed point action from a root permutation."""
    rs = rs if rs is not None else w.system
    if w.system is not rs:
        raise ValueError("element does not belong to the given root system")
    fam = rs.family
    if fam not in ("A", "B", "D"):
        raise ValueError(f"{rs.name} has no signed-permutation model")
    pairs, grid = point_tables(rs)
    perm = w.perm
    n = rs.components[0].degree

    def image(a, b):
        # the signed points of w(e_a + e_b)
        s = grid[a][b]
        v = perm[s - 1] if s > 0 else -perm[-s - 1]
        x, y = pairs[abs(v) - 1]
        return (x, y) if v > 0 else (-x, -y)

    if fam == "B":
        # w(e_p) = e_w(p)
        images = [image(p, 0)[0] for p in range(1, n + 1)]
    else:
        images = []
        for p in range(1, n + 1):
            q = p + 1 if p < n else p - 1
            diff = image(p, -q)  # {w(p), -w(q)}
            if fam == "A":
                # points stay positive in type A, so w(p) is the larger one
                images.append(max(diff))
            else:
                # w(p) is the point shared with w(e_p + e_q) = {w(p), w(q)}
                total = image(p, q)
                images.append(diff[0] if diff[0] in total else diff[1])
    return SignedPermutation(images)


def cycle_as_permutation(cycle: SignedCycle, n: int) -> SignedPermutation:
    images = list(range(1, n + 1))
    pts, sgn = cycle.points, cycle.signs
    for k, p in enumerate(pts):
        images[p - 1] = sgn[k] * pts[(k + 1) % len(pts)]
    return SignedPermutation(images)


def _flip(points, n: int) -> SignedPermutation:
    images = list(range(1, n + 1))
    for p in points:
        images[p - 1] = -p
    return SignedPermutation._trusted(tuple(images))


def _block_swap(c: SignedCycle, d: SignedCycle, n: int) -> SignedPermutation:
    """Involution exchanging two cycles of equal length and sign type."""
    m = c.length
    delta = [1] * m
    for i in range(m - 1):
        delta[i + 1] = delta[i] * c.signs[i] * d.signs[i]
    images = list(range(1, n + 1))
    for i in range(m):
        images[c.points[i] - 1] = delta[i] * d.points[i]
        images[d.points[i] - 1] = delta[i] * c.points[i]
    return SignedPermutation._trusted(tuple(images))


def centralizer_generators(sp: SignedPermutation, ambient: str = "B") -> list[SignedPermutation]:
    """Generators of the centralizer of sp in W(B_n) or W(D_n).

    Per cycle: the cycle itself and the sign flip along its support; sign
    flips on fixed points; block swaps between consecutive cycles of equal
    length and sign type.  For ambient D the index-2 positive kernel is
    extracted from the B generators.
    """
    if ambient not in ("B", "D"):
        raise ValueError("ambient must be 'B' or 'D'")
    n = sp.degree
    cycles = sorted((SignedCycle(*c) for c in _cycles(sp.images)), key=SignedCycle.min_point)
    gens = []
    for c in cycles:
        if c.length > 1 or c.sign_type < 0:
            gens.append(cycle_as_permutation(c, n))
        gens.append(_flip(c.points, n))
    by_class: dict[tuple[int, int], list[SignedCycle]] = {}
    for c in cycles:
        by_class.setdefault((c.length, c.sign_type), []).append(c)
    for group in by_class.values():
        for c, d in zip(group, group[1:]):
            gens.append(_block_swap(c, d, n))
    seen = set()
    out = []
    for g in gens:
        if not g.is_identity() and g.images not in seen:
            seen.add(g.images)
            out.append(g)
    if ambient == "D":
        out = _positive_kernel_generators(out)
    return out


def _positive_kernel_generators(gens: list[SignedPermutation]) -> list[SignedPermutation]:
    pos = [g for g in gens if g.is_positive()]
    neg = [g for g in gens if not g.is_positive()]
    if not neg:
        return pos
    n0 = neg[0]
    n0i = n0.inverse()
    out = list(pos)
    out.extend(g * n0i for g in neg)
    out.extend(n0 * g * n0i for g in pos)
    out.extend(n0 * g for g in neg)
    seen = set()
    uniq = []
    for g in out:
        if not g.is_identity() and g.images not in seen:
            seen.add(g.images)
            uniq.append(g)
    return uniq


def centralizer_elements(sp: SignedPermutation, ambient: str = "B",
                         guard: int = 10 ** 6) -> list[SignedPermutation]:
    """Full centralizer by closure of the generating set, guarded."""
    gens = [signed_lookup(g.images) for g in centralizer_generators(sp, ambient)]
    ident = identity_table(sp.degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for ext in gens:
                prod = tuple([ext[v] for v in h])  # h * g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > guard:
                        raise GuardExceeded(f"centralizer closure exceeded guard {guard}")
        frontier = nxt
    trusted = SignedPermutation._trusted
    return [trusted(images) for images in sorted(seen)]

