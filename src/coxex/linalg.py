"""Small exact/float linear algebra helpers for fixed-space computations.

Matrices act on row vectors: the image of v is v @ M.  Exact matrices are
tuples of int rows; inexact ones are numpy arrays.  numpy is imported only
inside the float branches, so it is loaded only for the H and I2 families.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

FLOAT_RANK_TOL = 1e-7
FLOAT_FIX_TOL = 1e-6


def _normalize_int_vector(vec: list[Fraction]) -> tuple[int, ...]:
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def exact_nullspace(rows) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : A x = 0} for an exact matrix, integer-scaled."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -a[i][fc]
        basis.append(_normalize_int_vector(vec))
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


def apply_row(vec, mat):
    """v @ M for an exact matrix."""
    n = len(mat[0])
    return tuple(sum(vec[r] * mat[r][c] for r in range(len(mat))) for c in range(n))


def fixes_all(mat, basis, exact: bool) -> bool:
    """Whether v @ M = v for every basis vector v."""
    if exact:
        return all(apply_row(v, mat) == tuple(v) for v in basis)
    if not basis:
        return True
    import numpy as np
    b = np.asarray(basis, dtype=float)
    diff = (b @ np.asarray(mat, dtype=float) - b).tolist()
    return all(abs(d) <= FLOAT_FIX_TOL for row in diff for d in row)


def restrict(mat, idxs):
    """Submatrix on the given row/column indices."""
    return tuple(tuple(mat[r][c] for c in idxs) for r in idxs)
