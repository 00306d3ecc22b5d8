"""Standard parabolic subgroups via embedded root subsystems.

Membership in W_J is decided by a single primitive: N(w) must lie inside
Phi_J, the positive roots supported on the simple roots indexed by J.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elements import GroupElement
from .rootsystem import RootSystem


@dataclass(frozen=True)
class ParabolicContext:
    """A generator subset J with its embedded root subsystem Phi_J."""

    system: RootSystem
    J: tuple[int, ...]          # 0-based generator indices, sorted
    indices: tuple[int, ...]    # positive-root indices lying in Phi_J
    mask: int                   # the same indices as a bitset
    # 1-based generator numbers, as used in reports; derived from J
    J_display: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "J_display", tuple(j + 1 for j in self.J))

    def contains(self, w: GroupElement) -> bool:
        return (w.inversions() & ~self.mask) == 0

    def contains_table(self, bits: int) -> bool:
        return (bits & ~self.mask) == 0

    def __repr__(self):
        return f"ParabolicContext({self.system.name}, J={list(self.J_display)})"


def parabolic_context(rs: RootSystem, J) -> ParabolicContext:
    """Phi_J from the root system's support masks: root i lies in Phi_J
    when its mask has no bit outside J."""
    Jset = frozenset(J)
    if not all(0 <= j < rs.rank for j in Jset):
        # named by 1-based generator numbers, as in J_display and the CLI
        raise ValueError(f"generator subset {sorted(j + 1 for j in Jset)} "
                         f"out of range for rank {rs.rank}")
    outside = ~sum(1 << j for j in Jset)
    idxs = tuple(i for i, m in enumerate(rs.support_masks()) if not m & outside)
    return ParabolicContext(rs, tuple(sorted(Jset)), idxs, sum(1 << i for i in idxs))


def all_generator_subsets(rs: RootSystem) -> list[tuple[int, ...]]:
    rank = rs.rank
    out = []
    for bits in range(1 << rank):
        out.append(tuple(j for j in range(rank) if bits >> j & 1))
    return out


def maximal_generator_subsets(rs: RootSystem) -> list[tuple[int, ...]]:
    rank = rs.rank
    return [tuple(j for j in range(rank) if j != omit) for omit in range(rank)]


def generator_subsets(rs: RootSystem, selection) -> list[tuple[int, ...]]:
    """The subsets J a parabolic selection names: "all", "maximal", or one
    subset of 0-based generators."""
    if selection == "all":
        return all_generator_subsets(rs)
    if selection == "maximal":
        return maximal_generator_subsets(rs)
    return [tuple(sorted(selection))]


def split_values(rs: RootSystem) -> list[int]:
    """The m for which Sym(1..m) x W(m+1..n) is a maximal standard parabolic."""
    fam = rs.family
    if fam == "A":
        return list(range(1, rs.rank + 1))
    if fam == "B":
        return list(range(1, rs.rank + 1))
    if fam == "D":
        n = rs.rank
        return list(range(1, n - 1)) + [n]
    raise ValueError("split parabolics are defined for families A, B, D")


def split_subset(rs: RootSystem, m: int) -> tuple[int, ...]:
    """The J of the maximal parabolic Sym(1..m) x W(m+1..n): all generators
    but generator m."""
    if m not in split_values(rs):
        raise ValueError(f"no split parabolic at m={m} for {rs.name}")
    return tuple(j for j in range(rs.rank) if j != m - 1)


def split_context(rs: RootSystem, m: int) -> ParabolicContext:
    """Maximal parabolic of the form Sym(1..m) x W(m+1..n): drop generator m."""
    return parabolic_context(rs, split_subset(rs, m))
