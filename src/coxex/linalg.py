"""Integer linear algebra for fixed-space computations.

Matrices act on row vectors: the image of v is v @ M.  Every matrix is
integer.  An element of an H or I2 group acts on Q(c)^rank, c = 2cos(pi/m),
and is written over Q as a rank * d square matrix (restriction of scalars);
its fixed space over Q, which `fixed_vector_basis` finds, is its fixed space
over Q(c) seen as a Q-space, d times as large.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def exact_nullspace(rows) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : A x = 0} for an integer matrix, integer-scaled.

    Fraction-free elimination (Bareiss 1968): a row below the pivot is
    cleared by integer combination with the pivot row, then divided by the
    gcd of its entries, so the pivot columns are those of exact rational
    elimination.  Each free column f gives the unique kernel vector with 1
    at f and 0 at the other free columns, found by back substitution in
    integers and returned primitive with its first nonzero entry positive.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        p = pr[c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if f != 0:
                row = [p * x - f * y for x, y in zip(a[i], pr)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(c)
        if r + 1 == nrows:
            break
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for pc, row in reversed(list(zip(pivot_cols, a))):
            # the row reads q x_pc + s = 0: scale x so that x_pc is an integer
            q, s = row[pc], sum(map(mul, row[pc + 1:], vec[pc + 1:]))
            g = gcd(s, q)
            vec = [x * (q // g) for x in vec]
            vec[pc] = -s // g
        g = gcd(*vec)
        sign = -1 if next(x for x in vec if x) < 0 else 1
        basis.append(tuple(sign * x // g for x in vec))
    return tuple(basis)


def fixed_vector_basis(mat):
    """Basis of the left fixed space {v : v @ M = v}."""
    n = len(mat)
    a = [[mat[r][c] - (1 if r == c else 0) for r in range(n)] for c in range(n)]
    return exact_nullspace(a)


def columns(mat):
    """The columns of a matrix, the form `fixes_all` reads it in."""
    return tuple(zip(*mat))


def fixes_all(cols, basis) -> bool:
    """Whether v @ M = v for every basis vector v, entry by entry; cols are
    the columns of M (`columns`), so that a caller testing one M against
    many bases transposes it once."""
    for v in basis:
        for col, x in zip(cols, v):
            if sum(map(mul, v, col)) != x:
                return False
    return True


def action_matrix(rs, perm):
    """Action of a root-permutation table on the span of the simple roots,
    over Q: row k * d + j is c^j times the image of simple root k, in the
    rank * d coefficients of the roots (d = 1 in crystallographic systems)."""
    rows = []
    for si in rs.simple_indices:
        v = perm[si]
        rows.extend(rs.c_multiples[v - 1] if v > 0 else
                    [tuple(-x for x in row) for row in rs.c_multiples[-v - 1]])
    return tuple(rows)


def restrict(mat, idxs):
    """Submatrix on the given row/column indices."""
    return tuple(tuple(mat[r][c] for c in idxs) for r in idxs)
