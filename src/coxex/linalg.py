"""Small exact/float linear algebra helpers for fixed-space computations.

Matrices act on row vectors: the image of v is v @ M.  Exact matrices are
tuples of int rows; inexact ones are numpy arrays.  numpy is imported only
inside the float branches, so it is loaded only for the H and I2 families.
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


def fixed_vector_basis(mat, exact: bool):
    """Basis of the left fixed space {v : v @ M = v}."""
    if exact:
        n = len(mat)
        a = [[mat[r][c] - (1 if r == c else 0) for r in range(n)] for c in range(n)]
        return exact_nullspace(a)
    import numpy as np
    m = np.asarray(mat, dtype=float)
    a = m.T - np.eye(m.shape[0])
    _, s, vt = np.linalg.svd(a)
    null = [tuple(row) for row, sv in zip(vt[::-1], s[::-1]) if sv < FLOAT_RANK_TOL]
    extra = vt.shape[0] - s.shape[0]
    if extra > 0:
        null.extend(tuple(row) for row in vt[s.shape[0]:])
    return tuple(null)


def fixes_all(mat, basis, exact: bool) -> bool:
    """Whether v @ M = v for every basis vector v."""
    if exact:
        cols = tuple(zip(*mat))
        return all(sum(map(mul, v, col)) == x
                   for v in basis for col, x in zip(cols, v))
    if not basis:
        return True
    import numpy as np
    b = np.asarray(basis, dtype=float)
    diff = (b @ np.asarray(mat, dtype=float) - b).tolist()
    return all(abs(d) <= FLOAT_FIX_TOL for row in diff for d in row)


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
