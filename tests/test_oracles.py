"""Differential tests of the oracle computations against the paths they
replaced: rational elimination for fixed spaces, row-by-row products for
`fixes_all`, per-pair float tests for the stacked filter, full tables for
the reflection BFS, and the signed-permutation loops that the table algebra
replaced.  Each replaced path lives here as the reference."""

import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data, descriptor, system
from coxex import SignedPermutation, constructive_inverter, make_config, run_suite
from coxex.elements import (compose_tables, element_from_word, identity_table,
                            invert_table)
from coxex.linalg import action_matrix, exact_nullspace, fixed_vector_basis, fixes_all
from coxex.verify import _fixed_space_filter, _reflection_distances


def _fraction_nullspace(rows):
    """Gauss-Jordan over the rationals, normalised to primitive integer
    vectors with a positive first entry."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -a[i][fc]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    return tuple(basis)


def _fixed_space_rows(mat):
    """The matrix whose nullspace `fixed_vector_basis` takes: M^T - I."""
    n = len(mat)
    return [[mat[r][c] - (r == c) for r in range(n)] for c in range(n)]


def _apply_row(vec, mat):
    return tuple(sum(vec[r] * mat[r][c] for r in range(len(mat)))
                 for c in range(len(mat[0])))


@pytest.mark.parametrize("token", ["A4", "B4", "D5", "F4"])
def test_integer_nullspace_matches_fraction_elimination(token):
    gd = data(token)
    for wi in range(len(gd)):
        mat = action_matrix(gd.rs, gd.perms[wi])
        rows = _fixed_space_rows(mat)
        assert exact_nullspace(rows) == _fraction_nullspace(rows), (token, wi)
        assert fixed_vector_basis(mat, True) == _fraction_nullspace(rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=36))
def test_integer_nullspace_matches_fraction_elimination_e6(word):
    rs = system("E6")
    mat = action_matrix(rs, element_from_word(rs, word).perm)
    rows = _fixed_space_rows(mat)
    assert exact_nullspace(rows) == _fraction_nullspace(rows)


@pytest.mark.parametrize("token", ["A4", "B4", "D5", "F4"])
def test_exact_fixes_all_matches_row_products(token):
    gd = data(token)
    mats = {xi: action_matrix(gd.rs, gd.perms[xi]) for xi in gd.involutions}
    seen = set()
    for wi in range(len(gd)):
        basis = fixed_vector_basis(action_matrix(gd.rs, gd.perms[wi]), True)
        for x, _ in gd.pairs[wi]:
            want = all(_apply_row(v, mats[x]) == v for v in basis)
            assert fixes_all(mats[x], basis, True) == want, (token, wi, x)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("token", ["H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"])
def test_stacked_float_filter_matches_fixes_all(token):
    gd = data(token)
    via_fix = _fixed_space_filter(gd)
    mats = {xi: action_matrix(gd.rs, gd.perms[xi]) for xi in gd.involutions}
    for wi in range(len(gd)):
        basis = fixed_vector_basis(action_matrix(gd.rs, gd.perms[wi]), False)
        per_pair = {x for x, _ in gd.pairs[wi] if fixes_all(mats[x], basis, False)}
        assert via_fix(wi) == per_pair, (token, wi)


def _table_distances(rs):
    """Reflection length of every element by BFS over full tables."""
    tables = [rs.reflection_table(i) for i in range(rs.num_positive)]
    start = identity_table(rs.num_positive)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for tb in tables:
                q = compose_tables(p, tb)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


@pytest.mark.parametrize("token", ["A1", "A4", "B4", "D4", "F4", "H3", "I2(7)",
                                   "A2xA1"])
def test_keyed_reflection_bfs_matches_tables(token):
    rs = system(token)
    by_key = _reflection_distances(rs)
    by_table = _table_distances(rs)
    assert len(by_key) == len(by_table) == rs.order()
    for p, d in by_table.items():
        assert by_key[tuple(p[i] for i in rs.simple_indices)] == d
        assert by_table[invert_table(p)] == d


def test_rank_one_suite_payload_is_pinned():
    # A1's simple-root keys are bare ints in the keyed product; the digest
    # is that of every theorem's payload before the runners went on keys
    res = run_suite(make_config([descriptor("A1")]))
    payload = json.dumps(res.to_payload(), sort_keys=True)
    assert (hashlib.sha256(payload.encode()).hexdigest()
            == "b16c85b5619fc902f005bef4b829a2eb1123bc9451b81b0598eed7abbcd85392")
    assert res.failures_total == 0


def _loop_product(a, b):
    return tuple(b[v - 1] if v > 0 else -b[-v - 1] for v in a)


def _loop_inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        if v > 0:
            out[v - 1] = i + 1
        else:
            out[-v - 1] = -(i + 1)
    return tuple(out)


def _loop_is_involution(a):
    return all((a[v - 1] if v > 0 else -a[-v - 1]) == i
               for i, v in enumerate(a, start=1))


@st.composite
def _signed_pair(draw):
    """Two signed permutations of one degree 1..9, in W(B_n) or W(D_n)."""
    n = draw(st.integers(min_value=1, max_value=9))
    in_d = draw(st.booleans())

    def one():
        perm = draw(st.permutations(range(1, n + 1)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        if in_d and signs.count(-1) % 2:
            signs[-1] = -signs[-1]
        return SignedPermutation(s * p for s, p in zip(signs, perm))
    return one(), one()


@settings(max_examples=300, deadline=None)
@given(_signed_pair())
def test_signed_permutation_algebra_matches_loops(pair):
    a, b = pair
    assert (a * b).images == _loop_product(a.images, b.images)
    assert a.inverse().images == _loop_inverse(a.images)
    assert SignedPermutation.identity(a.degree).images == tuple(range(1, a.degree + 1))
    for x in (a, a * a, constructive_inverter(a), a * b * a.inverse()):
        assert x.is_involution() == _loop_is_involution(x.images)
