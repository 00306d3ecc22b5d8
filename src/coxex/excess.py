"""Excess statistics: inverting involutions, spartan pairs, parabolic variants.

For w in W the inverting involutions are I_w = {x : x^2 = 1, w^x = w^-1}
(the identity is admitted when w itself squares to 1).  Every factorization
w = xy into involutions has x in I_w and y = xw, so the excess

    e(w) = min { l(x) + l(y) - l(w) : w = xy, x^2 = y^2 = 1 }

is a minimum over I_w, and the defect of a pair equals 2|N(x) & N(y)|.
The reflection excess E(w) restricts the minimum to reflection-length
additive factorizations, i.e. to the J-set J_w of the x whose fixed space
contains that of w.

For an involution x, xwx = w^-1 exactly when (xw)^2 = 1, so exhaustive I_w
filters the involutions of W and never enumerates W itself.  The involutions
come from `elements.involution_tables`, the orbit of the identity under
x -> sx (s, x commuting) or x -> sxs (Richardson-Springer 1990), with their
simple-root images as keys.  An element is determined by those images, so
xw is an involution exactly when its rank images of the simple roots form a
key.  The sweep engine `GroupData` keeps its own filter of the enumerated
group, and the two are differential-tested against each other.

Parabolic variants need no second fixed-space computation.  V is the
orthogonal sum V_J + V_J^perp, and W_J fixes V_J^perp pointwise, so for u in
W_J the fixed space Fix_V(u) is Fix_{V_J}(u) + V_J^perp.  For w and x in W_J,
Fix(w) lies in Fix(x) in V exactly when it does in V_J: the J-set of w taken
inside W_J is J_w intersected with W_J.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .descriptors import from_spec
from .elements import (GroupElement, GuardExceeded, bfs_tables, bits_of_table,
                       compose_tables, effective_guard, invert_table,
                       involution_tables, is_involution_table)
from .linalg import fixed_vector_basis, fixes_all
from .parabolic import ParabolicContext
from .rootsystem import RootSystem, build_root_system
from .signedperm import (SignedCycle, SignedPermutation, centralizer_elements,
                         constructive_inverter, cycle_as_permutation,
                         from_root_perm, to_root_perm)


@dataclass(frozen=True)
class InvolutionSet:
    """The involutions inverting one element, with their provenance."""

    elements: tuple[GroupElement, ...]
    source: str  # "exhaustive" | "structured-coset"


@dataclass(frozen=True)
class SpartanPair:
    """A factorization w = xy achieving the excess of w."""

    x: GroupElement
    y: GroupElement
    defect: int


class DnCondition(enum.Enum):
    M_EQUALS_N = "m_equals_n"
    HAS_ONE_CYCLE = "has_one_cycle"
    EVEN_POSITIVE_CYCLES = "even_positive_cycles"
    NONE = "none"


def _defect(bits_x: int, bits_y: int) -> int:
    return 2 * (bits_x & bits_y).bit_count()


def inverting_involutions(rs: RootSystem, w: GroupElement,
                          guard: int | None = None) -> InvolutionSet:
    """Exhaustive filter of the involutions; needs |W| under the guard.

    For an involution x, xwx = w^-1 exactly when (xw)^2 = 1, so x is kept
    when the simple-root images of xw are those of an involution.
    """
    tables, keys = involution_tables(rs, guard)
    wp = w.perm
    simple = rs.simple_indices
    # the simple-root images of xw are those of x carried on by w
    out = tuple(GroupElement(rs, p) for p in tables
                if tuple(wp[v - 1] if v > 0 else -wp[-v - 1]
                         for v in (p[i] for i in simple)) in keys)
    return InvolutionSet(out, "exhaustive")


def inverting_signed_involutions(sp: SignedPermutation, ambient: str = "B",
                                 guard: int = 10 ** 6) -> list[SignedPermutation]:
    """I_w through the inverting coset of the centralizer, in W(B_n) or W(D_n).

    Every x with w^x = w^-1 is c*x0 for a centralizing c and one fixed
    inverter x0, so it suffices to filter that coset for involutions (and,
    for ambient D, for positive elements).
    """
    if ambient not in ("B", "D"):
        raise ValueError("ambient must be 'B' or 'D'")
    if ambient == "D" and not sp.is_positive():
        raise ValueError("element is not in the type D group")
    x0 = constructive_inverter(sp)
    cosets = [c * x0 for c in centralizer_elements(sp, "B", guard)]
    out = [x for x in cosets if x.is_involution()
           and (ambient == "B" or x.is_positive())]
    out.sort(key=lambda g: g.images)
    return out


def inverting_involutions_structured(rs: RootSystem, sp: SignedPermutation,
                                     guard: int = 10 ** 6) -> InvolutionSet:
    fam = rs.family
    if fam not in ("B", "D"):
        raise ValueError("structured enumeration needs a type B or D system")
    members = inverting_signed_involutions(sp, fam, guard)
    return InvolutionSet(tuple(to_root_perm(x, rs) for x in members),
                         "structured-coset")


def involutions_inverting(rs: RootSystem, w: GroupElement,
                          guard: int | None = None) -> InvolutionSet:
    """Exhaustive when the group fits under the guard, else the coset path."""
    limit = effective_guard(guard)
    if rs.order() <= limit:
        return inverting_involutions(rs, w, limit)
    if rs.family in ("B", "D"):
        return inverting_involutions_structured(rs, from_root_perm(w))
    raise GuardExceeded(
        f"|W({rs.name})| = {rs.order()} exceeds guard {limit} and no structured path applies")


def _fixing(iw: InvolutionSet, basis, exact: bool) -> InvolutionSet:
    kept = tuple(x for x in iw.elements if fixes_all(x.matrix(), basis, exact))
    return InvolutionSet(kept, iw.source)


def j_set(w: GroupElement, iw: InvolutionSet) -> InvolutionSet:
    """Members whose fixed space contains the fixed space of w."""
    return _fixing(iw, w.fixed_space_basis(), w.system.exact)


def excess(w: GroupElement, iw: InvolutionSet) -> int:
    best = None
    for x in iw.elements:
        d = _defect(x.inversions(), (x * w).inversions())
        if best is None or d < best:
            best = d
    if best is None:
        raise ValueError("empty inverting set")
    return best


def spartan_pairs(w: GroupElement, iw: InvolutionSet) -> list[SpartanPair]:
    """All minimizing factorizations, sorted by (l(x), table of x)."""
    scored = []
    for x in iw.elements:
        y = x * w
        scored.append((_defect(x.inversions(), y.inversions()), x, y))
    best = min(s for s, _, _ in scored)
    out = [SpartanPair(x, y, d) for d, x, y in scored if d == best]
    out.sort(key=lambda p: (p.x.length(), p.x.perm))
    return out


def reflection_excess(w: GroupElement, jw: InvolutionSet) -> int:
    return excess(w, jw)


def parabolic_excess(w: GroupElement, ctx: ParabolicContext,
                     iw: InvolutionSet) -> int:
    if not ctx.contains(w):
        raise ValueError("element is not in the parabolic subgroup")
    kept = tuple(x for x in iw.elements if ctx.contains(x))
    return excess(w, InvolutionSet(kept, iw.source))


def parabolic_reflection_excess(w: GroupElement, ctx: ParabolicContext,
                                iw: InvolutionSet) -> int:
    """Reflection excess of w taken inside W_J.

    W_J fixes V_J^perp pointwise, so a fixed space of an element of W_J is
    its fixed space in V_J plus V_J^perp; the J-set inside W_J is therefore
    J_w intersected with W_J, and no J-restricted fixed space is needed.
    """
    return parabolic_excess(w, ctx, j_set(w, iw))


def n_of_inverting_set(iw: InvolutionSet) -> int:
    bits = 0
    for x in iw.elements:
        bits |= x.inversions()
    return bits


# ---------------------------------------------------------------------------
# structural predicates on spartan pairs (signed-permutation level)

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


def _all_cycles(sp: SignedPermutation) -> list[SignedCycle]:
    cycles = list(sp.cycles().cycles)
    moved = {p for c in cycles for p in c.points}
    cycles.extend(SignedCycle((p,), (1,))
                  for p in range(1, sp.degree + 1) if p not in moved)
    return cycles


def swapcycle_check(x: SignedPermutation, y: SignedPermutation,
                    w: SignedPermutation) -> bool:
    """Whenever y carries an all-positive w-cycle onto the inverse of another
    w-cycle, the first cycle must reach past the start of the second."""
    n = w.degree
    cycles = _all_cycles(w)
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


def dn_condition_check(w: SignedPermutation, m: int) -> DnCondition:
    """Which hypothesis (if any) makes parabolic excess collapse on a
    Sym(1..m) x D(m+1..n) split; w must respect the split."""
    n = w.degree
    if m == n:
        return DnCondition.M_EQUALS_N
    block_cycles = []
    for c in _all_cycles(w):
        inside = [p > m for p in c.points]
        if any(inside) and not all(inside):
            raise ValueError(f"element does not respect the split at m={m}")
        if all(inside):
            block_cycles.append(c)
    if any(c.length == 1 for c in block_cycles):
        return DnCondition.HAS_ONE_CYCLE
    if all(c.length % 2 == 0 and c.sign_type > 0 for c in block_cycles):
        return DnCondition.EVEN_POSITIVE_CYCLES
    return DnCondition.NONE


# ---------------------------------------------------------------------------
# exhaustive sweep engine

def _pair_chunk(specs, guard, lo, hi):
    rs = build_root_system([from_spec(s) for s in specs])
    perms, _, index = bfs_tables(rs, guard)
    invol = [i for i, p in enumerate(perms) if is_involution_table(p)]
    rows = []
    for xi in invol[lo:hi]:
        px = perms[xi]
        for yi in invol:
            rows.append((index[compose_tables(px, perms[yi])], xi, yi))
    return rows


class GroupData:
    """Tables for an enumerable group: one pass over involution pairs
    registers every inverting involution of every element at once."""

    def __init__(self, rs: RootSystem, guard: int | None = None,
                 workers: int = 1, gens: tuple[int, ...] | None = None):
        self.rs = rs
        perms, words, index = bfs_tables(rs, guard, gens)
        self.perms = perms
        self.words = words
        self.index = index
        self.bits = [bits_of_table(p) for p in perms]
        self.lengths = [b.bit_count() for b in self.bits]
        self.inverse = [index[invert_table(p)] for p in perms]
        self.involutions = [i for i, p in enumerate(perms) if is_involution_table(p)]
        self.pairs: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(perms))}
        if workers > 1 and gens is None:
            specs = [d.spec() for d in rs.components]
            chunks = []
            k = len(self.involutions)
            step = -(-k // workers)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futs = [pool.submit(_pair_chunk, specs, effective_guard(guard), lo,
                                    min(lo + step, k))
                        for lo in range(0, k, step)]
                for f in futs:
                    chunks.append(f.result())
            for rows in chunks:
                for wi, xi, yi in rows:
                    self.pairs[wi].append((xi, yi))
        else:
            for xi in self.involutions:
                px = perms[xi]
                for yi in self.involutions:
                    self.pairs[index[compose_tables(px, perms[yi])]].append((xi, yi))
        for lst in self.pairs.values():
            lst.sort()
        self._mats: list = [None] * len(perms)
        self._kernels: dict = {}
        self._jsets: dict[int, list[tuple[int, int]]] = {}
        self._exc: dict[int, int] = {}
        self._rexc: dict[int, int] = {}
        self._niw: dict[int, int] = {}
        self._sps: list = [None] * len(perms)

    def __len__(self):
        return len(self.perms)

    def element(self, i: int) -> GroupElement:
        return GroupElement(self.rs, self.perms[i])

    def signed_perm(self, i: int) -> SignedPermutation:
        if self._sps[i] is None:
            self._sps[i] = from_root_perm(self.element(i))
        return self._sps[i]

    def display(self, i: int) -> str:
        if self.rs.family in ("A", "B", "D"):
            return self.signed_perm(i).format()
        word = self.words[i]
        return "r" + ".r".join(str(r + 1) for r in word) if word else "1"

    def matrix(self, i: int):
        if self._mats[i] is None:
            self._mats[i] = self.element(i).matrix()
        return self._mats[i]

    def kernel(self, i: int):
        if i not in self._kernels:
            self._kernels[i] = fixed_vector_basis(self.matrix(i), self.rs.exact)
        return self._kernels[i]

    def reflection_length(self, i: int) -> int:
        return self.rs.rank - len(self.kernel(i))

    def defect(self, xi: int, yi: int) -> int:
        return _defect(self.bits[xi], self.bits[yi])

    def excess_of(self, wi: int) -> int:
        if wi not in self._exc:
            self._exc[wi] = min(self.defect(x, y) for x, y in self.pairs[wi])
        return self._exc[wi]

    def excess_in(self, wi: int, mask: int) -> int:
        return min(self.defect(x, y) for x, y in self.pairs[wi]
                   if self.bits[x] & ~mask == 0)

    def jset_of(self, wi: int) -> list[tuple[int, int]]:
        """The pairs (x, y) of I_w whose x fixes the fixed space of w.

        For w in a parabolic W_J, those with x in W_J form the J-set of w
        taken inside W_J (see the module docstring).
        """
        if wi not in self._jsets:
            basis = self.kernel(wi)
            exact = self.rs.exact
            self._jsets[wi] = [(x, y) for x, y in self.pairs[wi]
                               if fixes_all(self.matrix(x), basis, exact)]
        return self._jsets[wi]

    def refl_excess_of(self, wi: int) -> int:
        if wi not in self._rexc:
            self._rexc[wi] = min(self.defect(x, y) for x, y in self.jset_of(wi))
        return self._rexc[wi]

    def refl_excess_in(self, wi: int, mask: int) -> int:
        return min(self.defect(x, y) for x, y in self.jset_of(wi)
                   if self.bits[x] & ~mask == 0)

    def spartan_of(self, wi: int) -> list[tuple[int, int]]:
        best = self.excess_of(wi)
        out = [(x, y) for x, y in self.pairs[wi] if self.defect(x, y) == best]
        out.sort(key=lambda xy: (self.lengths[xy[0]], self.perms[xy[0]]))
        return out

    def niw_bits(self, wi: int) -> int:
        if wi not in self._niw:
            bits = 0
            for x, _ in self.pairs[wi]:
                bits |= self.bits[x]
            self._niw[wi] = bits
        return self._niw[wi]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ExcessReport:
    descriptor: str
    element: str
    length: int
    reflection_length: int
    excess: int
    reflection_excess: int
    parabolic: tuple[tuple[tuple[int, ...], int, int], ...]
    witnesses: tuple[tuple[str, str], ...]

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
        base = [self.descriptor, self.element, str(self.length),
                str(self.reflection_length), str(self.excess),
                str(self.reflection_excess)]
        if not self.parabolic:
            return [base + ["", "", ""]]
        return [base + [" ".join(str(j) for j in J), str(ej), str(Ej)]
                for J, ej, Ej in self.parabolic]


CSV_HEADER = ["descriptor", "element", "length", "reflection_length",
              "excess", "reflection_excess", "J", "e_J", "E_J"]


def _element_text(w: GroupElement) -> str:
    rs = w.system
    if rs.family in ("A", "B", "D"):
        return from_root_perm(w).format()
    return f"element of {rs.name}"


def excess_report(rs: RootSystem, w: GroupElement,
                  parabolics: tuple[ParabolicContext, ...] = (),
                  iw: InvolutionSet | None = None,
                  guard: int | None = None) -> ExcessReport:
    if iw is None:
        iw = involutions_inverting(rs, w, guard)
    e = excess(w, iw)
    basis = w.fixed_space_basis()
    jw = _fixing(iw, basis, rs.exact)
    E = reflection_excess(w, jw)
    if E < e or e % 2:
        raise RuntimeError("inconsistent excess values")  # defensive
    rows = []
    for ctx in parabolics:
        if not ctx.contains(w):
            continue
        rows.append((ctx.J_display,
                     parabolic_excess(w, ctx, iw),
                     parabolic_excess(w, ctx, jw)))
    pairs = spartan_pairs(w, iw)
    witnesses = tuple((_element_text(p.x), _element_text(p.y)) for p in pairs)
    return ExcessReport(rs.name, _element_text(w), w.length(),
                        rs.rank - len(basis), e, E, tuple(rows), witnesses)
