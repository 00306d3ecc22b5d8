"""Signed permutations of {1..n}: the fast model for types A, B and D.

Cycle notation follows the convention that the sign written on a point is
applied when mapping that point forward: ``(+2 +4 -3)`` sends 2 to 4, 4 to
-3 and 3 to 2.  A cycle is of negative sign type when it carries an odd
number of minus signs, and an element is positive when the product of its
cycle sign types is; W(D_n) consists of the positive elements of W(B_n).

>>> sp = parse("(+2 +3 +5)", 5)
>>> format_cycles(sp)
'(+2 +3 +5)'
>>> sp.is_positive()
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .elements import GroupElement, GuardExceeded
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


class SignedPermutation:
    """images[i-1] = signed image of point i."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(abs(v) for v in imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images do not describe a signed permutation")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        oi = other.images
        return SignedPermutation(
            tuple(oi[v - 1] if v > 0 else -oi[-v - 1] for v in self.images)
        )

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.degree
        for i, v in enumerate(self.images):
            if v > 0:
                out[v - 1] = i + 1
            else:
                out[-v - 1] = -(i + 1)
        return SignedPermutation(out)

    def conjugated_by(self, x: "SignedPermutation") -> "SignedPermutation":
        return x.inverse() * self * x

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def is_involution(self) -> bool:
        return (self * self).is_identity()

    def is_positive(self) -> bool:
        """Even number of sign changes; the sign-type product rule."""
        return sum(1 for v in self.images if v < 0) % 2 == 0

    def in_D(self) -> bool:
        return self.is_positive()

    def positive_support(self) -> frozenset[int]:
        """Points a with e_a moved or negated."""
        return frozenset(i + 1 for i, v in enumerate(self.images) if v != i + 1)

    def cycles(self) -> CycleDecomposition:
        """Canonical form: each cycle starts at its least point, sorted by it."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1] or self.images[start - 1] == start:
                continue
            pts = []
            sgn = []
            p = start
            while not seen[p - 1]:
                seen[p - 1] = True
                v = self.images[p - 1]
                pts.append(p)
                sgn.append(1 if v > 0 else -1)
                p = abs(v)
            out.append(SignedCycle(tuple(pts), tuple(sgn)))
        return CycleDecomposition(tuple(out))

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

    def to_root_perm(self, rs: RootSystem) -> GroupElement:
        return to_root_perm(self, rs)


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


def to_root_perm(sp: SignedPermutation, rs: RootSystem) -> GroupElement:
    """Action on the roots e_i +- e_j (and e_i for B) as a table element."""
    _check_model(rs, sp)
    # coordinate j of the image of v is sign * v[i] for the point i sent to +-j
    pull = sp.inverse().images
    index = rs.key_index
    table = []
    for key in rs.keys:
        img = tuple(key[v - 1] if v > 0 else -key[-v - 1] for v in pull)
        table.append(index[img])
    return GroupElement(rs, tuple(table))


def from_root_perm(w: GroupElement, rs: RootSystem | None = None) -> SignedPermutation:
    """Recover the signed point action from a root permutation."""
    rs = rs if rs is not None else w.system
    if w.system is not rs:
        raise ValueError("element does not belong to the given root system")
    fam = rs.family
    if fam not in ("A", "B", "D"):
        raise ValueError(f"{rs.name} has no signed-permutation model")
    n = rs.components[0].degree
    images = [0] * n

    def image_key(vec):
        # coordinates of w(vec) up to a positive factor: only signs are read
        v = w.perm[rs.index_of(vec)]
        key = rs.keys[abs(v) - 1]
        return key if v > 0 else tuple(-x for x in key)

    def unit(*signed_points):
        vec = [0] * n
        for p in signed_points:
            vec[abs(p) - 1] = 1 if p > 0 else -1
        return tuple(vec)

    if fam == "B":
        for p in range(1, n + 1):
            img = image_key(unit(p))
            for q, c in enumerate(img, start=1):
                if c != 0:
                    images[p - 1] = q if c > 0 else -q
    else:
        for p in range(1, n + 1):
            q = p + 1 if p < n else p - 1
            lo, hi = min(p, q), max(p, q)
            img_diff = image_key(unit(lo, -hi))
            if fam == "A":
                # e_p - e_q maps to e_{p'} - e_{q'}; read the positive slot
                vec = img_diff if p < q else tuple(-x for x in img_diff)
                for r, c in enumerate(vec, start=1):
                    if c > 0:
                        images[p - 1] = r
            else:
                # e_p is half the sum of e_lo + e_hi and +-(e_lo - e_hi)
                img_sum = image_key(unit(lo, hi))
                sign = 1 if p < q else -1
                for r in range(n):
                    c = sign * img_diff[r] + img_sum[r]
                    if c != 0:
                        images[p - 1] = (r + 1) if c > 0 else -(r + 1)
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
    return SignedPermutation(images)


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
    return SignedPermutation(images)


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
    cycles = list(sp.cycles().cycles)
    fixed = sorted(set(range(1, n + 1)) - {p for c in cycles for p in c.points})
    cycles.extend(SignedCycle((p,), (1,)) for p in fixed)
    cycles.sort(key=lambda c: c.min_point())
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
    gens = centralizer_generators(sp, ambient)
    ident = SignedPermutation.identity(sp.degree)
    seen = {ident.images}
    frontier = [ident]
    out = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = h * g
                if prod.images not in seen:
                    seen.add(prod.images)
                    out.append(prod)
                    nxt.append(prod)
                    if len(out) > guard:
                        raise GuardExceeded(f"centralizer closure exceeded guard {guard}")
        frontier = nxt
    out.sort(key=lambda g: g.images)
    return out


def constructive_inverter(sp: SignedPermutation) -> SignedPermutation:
    """An involution x with sp^x = sp^-1, built cycle by cycle.

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
    return SignedPermutation(images)
