"""Finite Coxeter type descriptors: validation, Coxeter matrices, numerology.

A descriptor names one irreducible finite Coxeter group.  Reducible groups
are handled as sequences of descriptors (see `rootsystem.build_root_system`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

FAMILIES = ("A", "B", "D", "I2", "H3", "H4", "F4", "E6", "E7", "E8")

_FIXED_RANK = {"I2": 2, "H3": 3, "H4": 4, "F4": 4, "E6": 6, "E7": 7, "E8": 8}

_FIXED_ORDER = {
    "H3": 120,
    "H4": 14400,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}

_FIXED_NUM_POSITIVE = {"H3": 15, "H4": 60, "F4": 24, "E6": 36, "E7": 63, "E8": 120}


@dataclass(frozen=True)
class CoxeterDescriptor:
    """An irreducible finite Coxeter type; `m` is only used by I2(m)."""

    family: str
    rank: int
    m: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        fixed = _FIXED_RANK.get(self.family)
        if fixed is not None and self.rank != fixed:
            raise ValueError(f"{self.family} has fixed rank {fixed}, got {self.rank}")
        if self.family == "A" and self.rank < 1:
            raise ValueError("type A requires rank >= 1")
        if self.family == "B" and self.rank < 2:
            raise ValueError("type B requires rank >= 2")
        if self.family == "D" and self.rank < 4:
            raise ValueError("type D requires rank >= 4")
        if self.family == "I2":
            if self.m is None or self.m < 5:
                raise ValueError("I2(m) requires m >= 5")
        elif self.m is not None:
            raise ValueError("m is only meaningful for family I2")

    @property
    def name(self) -> str:
        if self.family == "I2":
            return f"I2({self.m})"
        if self.family in _FIXED_RANK:
            return self.family
        return f"{self.family}{self.rank}"

    def coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Symmetric matrix of orders m_rs, with m_rr = 1."""
        n = self.rank
        mat = [[2] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 1

        def bond(i, j, order):
            mat[i][j] = mat[j][i] = order

        fam = self.family
        if fam == "A":
            for i in range(n - 1):
                bond(i, i + 1, 3)
        elif fam == "B":
            for i in range(n - 2):
                bond(i, i + 1, 3)
            bond(n - 2, n - 1, 4)
        elif fam == "D":
            for i in range(n - 2):
                bond(i, i + 1, 3)
            bond(n - 3, n - 1, 3)
        elif fam == "I2":
            bond(0, 1, self.m)
        elif fam == "H3":
            bond(0, 1, 5)
            bond(1, 2, 3)
        elif fam == "H4":
            bond(0, 1, 5)
            bond(1, 2, 3)
            bond(2, 3, 3)
        elif fam == "F4":
            bond(0, 1, 3)
            bond(1, 2, 4)
            bond(2, 3, 3)
        else:  # E6 / E7 / E8, chain 1-3-4-5-... with node 2 hanging off node 4
            chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]
            for i, j in chain:
                bond(i, j, 3)
            bond(1, 3, 3)
        return tuple(tuple(row) for row in mat)

    def order(self) -> int:
        fam = self.family
        if fam == "A":
            return math.factorial(self.rank + 1)
        if fam == "B":
            return (2 ** self.rank) * math.factorial(self.rank)
        if fam == "D":
            return (2 ** (self.rank - 1)) * math.factorial(self.rank)
        if fam == "I2":
            return 2 * self.m
        return _FIXED_ORDER[fam]

    def num_positive_roots(self) -> int:
        fam = self.family
        if fam == "A":
            return self.rank * (self.rank + 1) // 2
        if fam == "B":
            return self.rank * self.rank
        if fam == "D":
            return self.rank * (self.rank - 1)
        if fam == "I2":
            return self.m
        return _FIXED_NUM_POSITIVE[fam]

    @property
    def degree(self) -> int:
        """Number of points of the (signed) permutation model, A/B/D only."""
        if self.family == "A":
            return self.rank + 1
        if self.family in ("B", "D"):
            return self.rank
        raise ValueError(f"{self.name} has no signed-permutation model")

    def has_central_inversion(self) -> bool:
        """Whether the longest element acts as -1 on the reflection space."""
        fam = self.family
        if fam == "A":
            return self.rank == 1
        if fam == "D":
            return self.rank % 2 == 0
        if fam == "I2":
            return self.m % 2 == 0
        if fam == "E6":
            return False
        return True  # B, H3, H4, F4, E7, E8

    def is_crystallographic(self) -> bool:
        return self.family not in ("I2", "H3", "H4")


def from_spec(spec: tuple[str, int, int | None]) -> CoxeterDescriptor:
    """The descriptor of a (family, rank, m) tuple, as a saved root system
    lists its components."""
    return CoxeterDescriptor(*spec)


_DIHEDRAL_RE = re.compile(r"^I2\((\d+)\)$")
_ABD_RE = re.compile(r"^([ABD])(\d+)$")


def parse_descriptor(token: str) -> CoxeterDescriptor:
    """Parse compact names like "A4", "B3", "I2(6)", "H3", "E8"."""
    tok = token.strip()
    mobj = _DIHEDRAL_RE.match(tok)
    if mobj:
        return CoxeterDescriptor("I2", 2, int(mobj.group(1)))
    if tok in ("H3", "H4", "F4", "E6", "E7", "E8"):
        return CoxeterDescriptor(tok, _FIXED_RANK[tok])
    mobj = _ABD_RE.match(tok)
    if mobj:
        return CoxeterDescriptor(mobj.group(1), int(mobj.group(2)))
    raise ValueError(f"cannot parse descriptor {token!r}")
