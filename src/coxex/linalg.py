"""Small exact/float linear algebra helpers for fixed-space computations.

Matrices act on row vectors: the image of v is v @ M.  Matrices are tuples
of rows, of ints in the exact families and of floats for H and I2; both
branches are plain Python.  Float elimination treats a pivot below
FLOAT_RANK_TOL as zero, and a float `fixes_all` allows FLOAT_FIX_TOL per
entry.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

FLOAT_RANK_TOL = 1e-7
FLOAT_FIX_TOL = 1e-6


def exact_nullspace(rows) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : A x = 0} for an integer matrix, integer-scaled.

    Fraction-free Gauss-Jordan (Bareiss 1968): a row is cleared by integer
    combination with the pivot row, then divided by the gcd of its entries.
    Every row stays a nonzero multiple of its reduced-echelon form, so the
    pivots, and each basis vector up to scale, are those of exact rational
    elimination; a vector is returned primitive with its first nonzero
    entry positive.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        p = pr[c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f != 0:
                row = [p * x - f * y for x, y in zip(a[i], pr)]
                g = gcd(*row) or 1
                a[i] = [x // g for x in row]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    scale = lcm(*(a[i][pc] for i, pc in enumerate(pivot_cols)))
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -a[i][fc] * scale // a[i][pc]
        g = gcd(*vec)
        sign = -1 if next(x for x in vec if x) < 0 else 1
        basis.append(tuple(sign * x // g for x in vec))
    return tuple(basis)


def float_nullspace(rows) -> tuple[tuple[float, ...], ...]:
    """Basis of {x : A x = 0} for a float matrix.

    Gauss-Jordan with partial pivoting: each column's pivot is the entry of
    largest size at or below the current row, and a column whose pivot is
    below FLOAT_RANK_TOL is free.  A free column's basis vector has 1 there.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        size, pivot = max((abs(a[i][c]), i) for i in range(r, nrows))
        if size < FLOAT_RANK_TOL:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        pr = a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f != 0.0:
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        pivot_cols.append(c)
        r += 1
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [0.0] * ncols
        vec[fc] = 1.0
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -a[i][fc]
        basis.append(tuple(vec))
    return tuple(basis)


def fixed_vector_basis(mat, exact: bool):
    """Basis of the left fixed space {v : v @ M = v}."""
    n = len(mat)
    a = [[mat[r][c] - (1 if r == c else 0) for r in range(n)] for c in range(n)]
    return exact_nullspace(a) if exact else float_nullspace(a)


def fixes_all(mat, basis, exact: bool) -> bool:
    """Whether v @ M = v for every basis vector v, entry by entry: exactly
    for integers, within FLOAT_FIX_TOL for floats."""
    tol = 0 if exact else FLOAT_FIX_TOL
    for v in basis:
        for col, x in zip(zip(*mat), v):
            if abs(sum(map(mul, v, col)) - x) > tol:
                return False
    return True


def action_matrix(rs, perm):
    """Action of a root-permutation table on the span of the simple roots:
    row i is the image of simple root i in simple-root coefficients."""
    rows = []
    for si in rs.simple_indices:
        v = perm[si]
        c = rs.coeffs[abs(v) - 1]
        rows.append(c if v > 0 else tuple(-x for x in c))
    return tuple(rows)


def restrict(mat, idxs):
    """Submatrix on the given row/column indices."""
    return tuple(tuple(mat[r][c] for c in idxs) for r in idxs)
