"""Differential tests of the oracle computations against the paths they
replaced: rational elimination for fixed spaces, row-by-row products for
`fixes_all`, the numpy SVD basis and numpy `fixes_all` on the real matrices
of H and I2, full tables for the reflection BFS, the per-sample loop of the
inversion-set identity, randrange for its bulk draws, its one-pass core for
the row kernel and the two-pass core for that, full-table conjugation and
the search on keys for the class orbits, one nullspace per element and
`fixes_all` on every column for the J-set oracle's class-wise fixed spaces
and its test on negated roots, and the signed-permutation loops that the
table algebra replaced.  Each replaced path lives here as the reference."""

import hashlib
import json
import math
import random
from fractions import Fraction
from math import gcd
from operator import getitem
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import constructive_inverter, data, descriptor, system
from coxex import GroupData, SignedPermutation, make_config, run_suite
from coxex.elements import (compose_tables, element_from_word, identity_table,
                            invert_table, involution_reflection_length, involution_tables,
                            signed_lookup, simple_key)
from coxex import verify
from coxex.linalg import action_matrix, columns, exact_nullspace, fixed_vector_basis, fixes_all
from coxex.verify import MAX_COUNTEREXAMPLES, TRUNCATED, _reflection_distances


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
        assert fixed_vector_basis(mat) == _fraction_nullspace(rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=36))
def test_integer_nullspace_matches_fraction_elimination_e6(word):
    rs = system("E6")
    mat = action_matrix(rs, element_from_word(rs, word).perm)
    rows = _fixed_space_rows(mat)
    assert exact_nullspace(rows) == _fraction_nullspace(rows)


@pytest.mark.parametrize("token", ["A4", "B4", "D5", "F4", "H3", "I2(7)"])
def test_exact_fixes_all_matches_row_products(token):
    gd = data(token)
    mats = {xi: action_matrix(gd.rs, gd.perms[xi]) for xi in gd.involutions}
    seen = set()
    for wi in range(len(gd)):
        basis = fixed_vector_basis(action_matrix(gd.rs, gd.perms[wi]))
        for x, _ in gd.pairs[wi]:
            want = all(_apply_row(v, mats[x]) == v for v in basis)
            assert fixes_all(columns(mats[x]), basis) == want, (token, wi, x)
            seen.add(want)
    assert seen == {True, False}


# tolerances of the float references below; coxex itself has none
RANK_TOL = 1e-7
FIX_TOL = 1e-6


def _real_matrix(rs, perm):
    """The action of a table on the simple roots over R: row k is the image
    of simple root k, each Z[c] coefficient evaluated at c = 2cos(pi/m)."""
    desc = rs.components[0]
    c = 2 * math.cos(math.pi / (desc.m if desc.family == "I2" else 5))
    d = rs.field_degree
    return [[sum(x * c ** j for j, x in enumerate(row[k:k + d])) for k in range(0, len(row), d)]
            for row in action_matrix(rs, perm)[::d]]


def _svd_basis(mat):
    """Real fixed space by numpy: the right singular vectors of M^T - I
    whose singular value is below RANK_TOL."""
    a = np.asarray(mat, dtype=float).T - np.eye(len(mat))
    _, s, vt = np.linalg.svd(a)
    return vt[s < RANK_TOL]


def _numpy_fixes_all(mats, basis) -> list[bool]:
    """For each matrix M of a stack: v @ M = v within FIX_TOL for every row
    v of a numpy basis."""
    return (np.abs(basis @ mats - basis) <= FIX_TOL).all(axis=(1, 2)).tolist()


@pytest.mark.parametrize("token", ["H3", "H4", *(f"I2({m})" for m in range(5, 13))])
def test_float_fixed_spaces_match_numpy_svd(token):
    # the integer fixed space over Q has d vectors for each real dimension
    gd = data(token)
    rs = gd.rs
    mats = {xi: action_matrix(rs, gd.perms[xi]) for xi in gd.involutions}
    real = {xi: _real_matrix(rs, gd.perms[xi]) for xi in gd.involutions}
    seen = set()
    for wi in range(len(gd)):
        mat = action_matrix(rs, gd.perms[wi])
        basis = fixed_vector_basis(mat)
        ref = _svd_basis(_real_matrix(rs, gd.perms[wi]))
        assert len(basis) == rs.field_degree * len(ref), (token, wi)
        assert fixes_all(columns(mat), basis)
        xs = [x for x, _ in gd.pairs[wi]]
        want = _numpy_fixes_all(np.array([real[x] for x in xs], dtype=float), ref)
        assert [fixes_all(columns(mats[x]), basis) for x in xs] == want, (token, wi)
        seen.update(want)
    assert seen == {True, False}


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
        assert by_key[simple_key(p, rs.simple_indices)] == d
        assert by_table[invert_table(p)] == d


def test_rank_one_suite_payload_is_pinned():
    # the digest is that of every theorem's payload before the runners went
    # on keys
    res = run_suite(make_config([descriptor("A1")]))
    payload = json.dumps(res.to_payload(), sort_keys=True)
    assert (hashlib.sha256(payload.encode()).hexdigest()
            == "b16c85b5619fc902f005bef4b829a2eb1123bc9451b81b0598eed7abbcd85392")
    assert res.failures_total == 0


def _two_pass_lemma22_core(g_inv, bg, bginv, bh, bgh) -> bool:
    """Lemma 2.2's core with one pass over N(h) for the removed roots and
    one over N(h) outside N(g^-1) for the added ones."""
    removed = 0
    b = bh
    while b:
        low = b & -b
        s = -g_inv[low.bit_length() - 1]
        if s > 0:
            removed |= 1 << (s - 1)
        b ^= low
    added = 0
    b = bh & ~bginv
    while b:
        low = b & -b
        s = g_inv[low.bit_length() - 1]
        if s < 0:
            return False
        added |= 1 << (s - 1)
        b ^= low
    if bgh != (bg & ~removed) | added:
        return False
    lg, lh, lgh = bg.bit_count(), bh.bit_count(), bgh.bit_count()
    return lgh == lg + lh - 2 * (bginv & bh).bit_count()


@pytest.mark.parametrize("token", ["A3", "B3", "H3", "A2xA1"])
def test_one_pass_lemma22_core_matches_two_passes_on_groups(token):
    # the true N(gh) and two wrong ones, for every pair
    gd = data(token)
    product = conftest.keyed_product(gd)
    npos = gd.rs.num_positive
    seen = set()
    for gi in range(len(gd)):
        gii = gd.inverse[gi]
        for hi in range(len(gd)):
            inputs = (gd.perms[gii], gd.bits[gi], gd.bits[gii], gd.bits[hi])
            bgh = gd.bits[product(gi, hi)]
            for b in (bgh, bgh ^ 1, bgh ^ (1 << hi % npos)):
                want = _two_pass_lemma22_core(*inputs, b)
                assert conftest.lemma22_core(*inputs, b) == want, (token, gi, hi, b)
                seen.add(want)
    assert seen == {True, False}


def _from_row(g_inv, bg, bginv, bh, bgh) -> bool:
    """The runner's kernel, fed the inputs of `conftest.lemma22_core`."""
    roots = [i for i in range(len(g_inv)) if bh >> i & 1]
    return verify._lemma22_from_row(verify._lemma22_row(g_inv, bginv), bg, bginv, bh, bgh,
                                    roots)


@pytest.mark.parametrize("token", ["A3", "B3", "H3", "A2xA1"])
def test_row_kernel_matches_lemma22_core_on_groups(token):
    # the true N(gh) and two wrong ones, for every pair
    gd = data(token)
    product = conftest.keyed_product(gd)
    npos = gd.rs.num_positive
    seen = set()
    for gi in range(len(gd)):
        gii = gd.inverse[gi]
        for hi in range(len(gd)):
            inputs = (gd.perms[gii], gd.bits[gi], gd.bits[gii], gd.bits[hi])
            bgh = gd.bits[product(gi, hi)]
            for b in (bgh, bgh ^ 1, bgh ^ (1 << hi % npos)):
                want = conftest.lemma22_core(*inputs, b)
                assert _from_row(*inputs, b) == want, (token, gi, hi, b)
                seen.add(want)
    assert seen == {True, False}


def test_row_kernel_refuses_a_negative_image_outside_n_ginv():
    # g^-1 sends root 1 negative though it lies outside N(g^-1): its entry
    # is the sentinel, and both kernels refuse the pair
    g_inv, bg, bginv, bh, bgh = (-1, 2), 0b01, 0b00, 0b01, 0b01
    assert not conftest.lemma22_core(g_inv, bg, bginv, bh, bgh)
    assert not _from_row(g_inv, bg, bginv, bh, bgh)
    assert verify._lemma22_row(g_inv, bginv)[0] == 1 << 4


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_lemma22_core_matches_two_passes_on_any_bitsets(drawn):
    # bitsets that need not belong to g^-1's table, so that a root outside
    # N(g^-1) may be sent negative
    n = drawn.draw(st.integers(min_value=1, max_value=12))
    perm = drawn.draw(st.permutations(range(1, n + 1)))
    signs = drawn.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    g_inv = tuple(s * p for s, p in zip(signs, perm))
    bitsets = [drawn.draw(st.integers(min_value=0, max_value=2 ** n - 1))
               for _ in range(4)]
    want = _two_pass_lemma22_core(g_inv, *bitsets)
    assert conftest.lemma22_core(g_inv, *bitsets) == want
    # the runner's row kernel too, whose sentinel these bitsets reach
    assert _from_row(g_inv, *bitsets) == want


def _per_sample_identity(gd, config):
    """The inversion-set runner with every draw evaluated, repeats included."""
    rng = random.Random(f"{config.seed}:{gd.rs.name}")
    perms, bits, inverse = gd.perms, gd.bits, gd.inverse
    n = len(gd)
    product = conftest.keyed_product(gd)
    t = verify._Tally()
    for _ in range(config.sample_pairs):
        gi = rng.randrange(n)
        hi = rng.randrange(n)
        gii = inverse[gi]
        ok = conftest.lemma22_core(perms[gii], bits[gi], bits[gii], bits[hi],
                                   bits[product(gi, hi)])
        t.check(ok, lambda: (f"({gd.display(gi)}, {gd.display(hi)})", "-",
                             "set identity violated", "N(gh) decomposition"))
    for xi in gd.involutions:
        t.check(verify._involution_reversal_holds(gd.perms[xi]), lambda: (
            gd.display(xi), "-", "N(x) != -N(x)x", "N(x) = -N(x)x"))
    return t


SWEEP_GROUPS = ("A3", "A4", "B3", "D4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                "A2xA1", "A1xA1xA1")


@pytest.mark.parametrize("token", SWEEP_GROUPS)
def test_deduplicated_identity_matches_per_sample_loop(token):
    gd = data(token)
    for seed in (20260809, 5):
        # the runner reads only the seed and sample count of its config
        config = make_config([], seed=seed)
        t = verify._run_inversion_identity(gd, config, {})
        ref = _per_sample_identity(gd, config)
        assert (t.passes, t.failures, t.bad) == (ref.passes, ref.failures, ref.bad)
        assert t.failures == 0


@pytest.mark.parametrize("sample_pairs", [100, 144, 10000])
def test_drawn_and_every_pair_paths_match_per_sample_loop(sample_pairs):
    # A3 has 576 pairs: 100 samples are drawn; 144, the edge of the rule
    # |W|^2 <= 4 sample_pairs, and 10,000 evaluate every pair
    gd = data("A3")
    for seed in (20260809, 1, 5):
        config = make_config([], seed=seed, sample_pairs=sample_pairs)
        notes = {}
        t = verify._run_inversion_identity(gd, config, notes)
        ref = _per_sample_identity(gd, config)
        assert (t.passes, t.failures, t.bad) == (ref.passes, ref.failures, ref.bad)
        assert t.passes == sample_pairs + len(gd.involutions)
        assert notes == {"sampled_pairs": sample_pairs}


@pytest.mark.parametrize("token", ["A3", "B3", "A4", "H3", "D4", "I2(5)", "A1xA1xA1"])
def test_every_pair_path_draws_nothing_when_every_pair_passes(token, monkeypatch):
    gd = data(token)
    config = make_config([])
    assert len(gd) ** 2 <= 4 * config.sample_pairs
    ref = _per_sample_identity(gd, config)

    def refuse(*args):
        raise AssertionError("drew samples")
    # the runner seeds a random.Random only to draw
    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=refuse))
    t = verify._run_inversion_identity(gd, config, {})
    assert (t.passes, t.failures, t.bad) == (ref.passes, ref.failures, ref.bad)


def test_repeated_failing_pairs_each_count_in_draw_order(monkeypatch):
    # A3 has 576 pairs, so 10,000 draws repeat each of these a dozen times
    gd = data("A3")
    n = len(gd)
    failing = {(gi, hi) for gi in (1, 5, 9) for hi in (0, 2, 7, 11)}
    failing_bits = {(gd.bits[gi], gd.bits[hi]) for gi, hi in failing}
    kernel = verify._lemma22_every_pair
    core = conftest.lemma22_core
    calls = []

    def patched(perms, inverse, bits, words, right):
        calls.append(len(perms))
        return kernel(perms, inverse, bits, words, right) | {gi * n + hi for gi, hi in failing}
    monkeypatch.setattr(verify, "_lemma22_every_pair", patched)
    # the per-sample reference below evaluates with the core: it fails the same pairs
    monkeypatch.setattr(conftest, "lemma22_core", lambda g_inv, bg, bginv, bh, bgh: (
        (bg, bh) not in failing_bits and core(g_inv, bg, bginv, bh, bgh)))
    config = make_config([])
    t = verify._run_inversion_identity(gd, config, {})
    rng = random.Random(f"{config.seed}:{gd.rs.name}")
    drawn = [(rng.randrange(n), rng.randrange(n)) for _ in range(config.sample_pairs)]
    failed = [pair for pair in drawn if pair in failing]
    # n * n <= 4 sample_pairs: the packed kernel runs once, over every pair
    assert calls == [n] and n * n < len(drawn)
    assert set(failed) == failing  # each failing pair is drawn: none counts undrawn
    assert len(failed) > MAX_COUNTEREXAMPLES
    assert t.failures == len(failed)
    assert t.passes == len(drawn) - len(failed) + len(gd.involutions)
    assert list(t.bad) == [
        verify.Counterexample(f"({gd.display(gi)}, {gd.display(hi)})", "-",
                              "set identity violated", "N(gh) decomposition")
        for gi, hi in failed[:MAX_COUNTEREXAMPLES]] + [TRUNCATED]
    ref = _per_sample_identity(gd, config)
    assert (t.passes, t.failures, t.bad) == (ref.passes, ref.failures, ref.bad)


def test_failing_pair_that_no_draw_hits_counts_once(monkeypatch):
    # B3 at seed 1: 26 of its 2,304 pairs are evaluated but never drawn
    gd = data("B3")
    n = len(gd)
    config = make_config([], seed=1)
    rng = random.Random(f"1:{gd.rs.name}")
    drawn = {(rng.randrange(n), rng.randrange(n)) for _ in range(config.sample_pairs)}
    undrawn = sorted({(gi, hi) for gi in range(n) for hi in range(n)} - drawn)
    assert len(undrawn) == 26
    gi, hi = undrawn[3]
    kernel = verify._lemma22_every_pair
    monkeypatch.setattr(verify, "_lemma22_every_pair", lambda *args: (
        kernel(*args) | {gi * n + hi}))
    t = verify._run_inversion_identity(gd, config, {})
    assert t.failures == 1
    assert t.passes == config.sample_pairs + len(gd.involutions)
    assert t.bad == (verify.Counterexample(f"({gd.display(gi)}, {gd.display(hi)})", "-",
                                           "set identity violated", "N(gh) decomposition"),)
    res = run_suite(make_config([descriptor("B3")], theorems=("inversion-set-identity",),
                                seed=1))
    assert res.failures_total == 1 and res.checks[0].status == "fail"


def _bit_indices(b):
    return [i for i in range(b.bit_length()) if b >> i & 1]


def _row_failures(perms, inverse, bits, product):
    """The keys g * n + h of the pairs that `_lemma22_from_row` fails, one
    pair at a time, N(h) read from bits[h] as the packed kernel reads it."""
    n = len(perms)
    roots_of = [_bit_indices(b) for b in bits]
    failed = set()
    for gi in range(n):
        gii = inverse[gi]
        row = verify._lemma22_row(perms[gii], bits[gii])
        for hi in range(n):
            if not verify._lemma22_from_row(row, bits[gi], bits[gii], bits[hi],
                                            bits[product(gi, hi)], roots_of[hi]):
                failed.add(gi * n + hi)
    return failed


def _set_part_holds(perms, inverse, bits, product, gi, hi) -> bool:
    """Whether the predicted N(gh) of `_lemma22_from_row` is the actual one,
    whatever the lengths say."""
    npos = len(perms[0])
    gii = inverse[gi]
    row = verify._lemma22_row(perms[gii], bits[gii])
    total = sum(row[i] for i in range(npos) if bits[hi] >> i & 1)
    predicted = bits[gi] & ~(total & (1 << npos) - 1) | total >> npos
    return predicted == bits[product(gi, hi)]


@pytest.mark.parametrize("token", SWEEP_GROUPS + ("I2(100)", "I2(128)"))
def test_packed_kernel_fails_exactly_the_pairs_the_row_kernel_fails(token):
    # I2(100) has 40,000 pairs, the edge of |W|^2 <= 4 sample_pairs, and npos
    # 100; I2(128) has npos 128, so its keys hold code points above 255
    gd = data(token)
    perms, inverse, bits = gd.perms, gd.inverse, gd.bits
    n, npos = len(gd), gd.rs.num_positive
    product = conftest.keyed_product(gd)

    def both(bits):
        packed = verify._lemma22_every_pair(perms, inverse, bits, gd.words, gd.right)
        assert packed == _row_failures(perms, inverse, bits, product), token
        return packed
    assert both(bits) == set()
    # one corrupted bit: a root outside N(x) joins it
    x = 1
    j = max(i for i in range(npos) if not bits[x] >> i & 1)
    assert both([b | (i == x) << j for i, b in enumerate(bits)])
    # one corrupted length: g drops a root of N(g); h = g^-1 cancels all of
    # N(g), so the pair's set identity holds and only its length fails.  g
    # must not be an involution, whose bits are also those of g^-1 (A1xA1xA1
    # has no other element)
    g = next((i for i in range(n) if inverse[i] != i), None)
    if g is not None:
        mutated = [b ^ (i == g) << (bits[g].bit_length() - 1) for i, b in enumerate(bits)]
        failed = both(mutated)
        assert g * n + inverse[g] in failed
        assert _set_part_holds(perms, inverse, mutated, product, g, inverse[g])
    # one table whose row fires the sentinel: N(x) misses a root j that x
    # sends negative, so the row of x^-1 holds the sentinel there, and gains
    # one that x keeps positive, so |N(x)| stays.  Outside the dihedral
    # groups some pairs then fail by the sentinel alone
    x = 1
    j = bits[x].bit_length() - 1
    mutated = [b ^ (i == x) * (1 << j | 1 << (~bits[x] & bits[x] + 1).bit_length() - 1)
               for i, b in enumerate(bits)]
    row = verify._lemma22_row(perms[x], mutated[x])
    assert row[j] == 1 << 2 * npos
    failed = both(mutated)
    unguarded = [0 if entry == 1 << 2 * npos else entry for entry in row]
    g = inverse[x]

    def holds(row, hi):
        bh = mutated[hi]
        return verify._lemma22_from_row(row, mutated[g], mutated[x], bh,
                                        mutated[product(g, hi)], _bit_indices(bh))
    alone = {g * n + hi for hi in range(n) if holds(unguarded, hi) and not holds(row, hi)}
    assert alone <= failed
    assert alone or gd.rs.family == "I2", token


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


def _table_conjugation_orbits(perms, index, gens):
    """The conjugacy classes as sorted lists of tables, in the order of
    their first element in `perms`, by composing full tables: s * cur * s
    for each generator s."""
    seen = [False] * len(perms)
    classes = []
    for start, p in enumerate(perms):
        if seen[start]:
            continue
        orbit = [p]
        seen[start] = True
        q = 0
        while q < len(orbit):
            cur = orbit[q]
            for g in gens:
                conj = compose_tables(compose_tables(g, cur), g)
                ci = index[conj]
                if not seen[ci]:
                    seen[ci] = True
                    orbit.append(conj)
            q += 1
        orbit.sort()
        classes.append(orbit)
    return classes


CLASS_GROUPS = ("A1", *SWEEP_GROUPS, "H4", "E6")


def _keyed_conjugation_orbits(perms, at_key, rs):
    """The conjugacy classes of an enumerated group, by breadth-first search
    under w -> s w s over the generators s, on keys (`simple_key`).

    Returns (orbits, parent) as `GroupData.conjugation_orbits` does.  The
    image of simple root k under s w s is s's image of w(s(alpha_k)): w's
    table read at the roots +-s(alpha_k), then one signed lookup in s,
    negated where s(alpha_k) is negative, written as a key's code point.
    Conjugation by s is an involution, so once i = s j s is found, s i s = j
    is not computed again.
    """
    gens = []
    for r, g in enumerate(rs.gen_tables):
        images = [g[i] for i in rs.simple_indices]
        codes = [chr(v + rs.num_positive) for v in signed_lookup(g)]
        neg = [codes[-v] for v in range(len(codes))]  # neg[v] = codes[-v]
        gens.append((r, 1 << r, [abs(v) - 1 for v in images],
                     [codes if v > 0 else neg for v in images]))
    parent: list = [None] * len(perms)
    seen = [False] * len(perms)
    known = [0] * len(perms)  # bit r: the conjugate by s_r is already seen
    orbits = []
    for start in range(len(perms)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for wi in orbit:  # grows while it is read
            p = perms[wi]
            skip = known[wi]
            for r, bit, at, lookups in gens:
                if skip & bit:
                    continue
                ci = at_key["".join(map(getitem, lookups, map(p.__getitem__, at)))]
                known[ci] |= bit
                if not seen[ci]:
                    seen[ci] = True
                    parent[ci] = (wi, r)
                    orbit.append(ci)
        orbits.append(orbit)
    return orbits, parent


@pytest.mark.parametrize("token", CLASS_GROUPS)
def test_keyed_orbits_match_table_orbits(token):
    gd = data(token)
    gens = gd.rs.gen_tables
    orbits, parent = _keyed_conjugation_orbits(gd.perms, gd.at_key, gd.rs)
    index = {p: i for i, p in enumerate(gd.perms)}
    ref = _table_conjugation_orbits(gd.perms, index, gens)
    assert [sorted(gd.perms[i] for i in orbit) for orbit in orbits] == ref
    # every element but an orbit's first is s p s for a parent p found before it
    for orbit in orbits:
        assert parent[orbit[0]] is None
        at = {wi: k for k, wi in enumerate(orbit)}
        for wi in orbit[1:]:
            pi, r = parent[wi]
            assert at[pi] < at[wi]
            assert compose_tables(compose_tables(gens[r], gd.perms[pi]), gens[r]) == gd.perms[wi]


@pytest.mark.parametrize("token", (*CLASS_GROUPS, "B6"))
def test_map_orbits_match_keyed_orbits(token):
    # the same orbits, in the same order, with the same parents; B6 is built
    # here and released, not kept in the shared cache
    gd = GroupData(system(token)) if token == "B6" else data(token)
    orbits, parent = gd.conjugation_orbits()
    assert gd.conjugation_orbits()[0] is orbits  # searched once
    assert (orbits, parent) == _keyed_conjugation_orbits(gd.perms, gd.at_key, gd.rs)


@pytest.mark.parametrize("token", ("A1", *SWEEP_GROUPS))
def test_conjugation_maps_match_composed_tables(token):
    gd = data(token)
    conj = gd.conjugation
    assert conj is gd.conjugation  # built once
    for r, g in enumerate(gd.rs.gen_tables):
        assert len(conj[r]) == len(gd)
        for wi, p in enumerate(gd.perms):
            assert gd.perms[conj[r][wi]] == compose_tables(g, compose_tables(p, g)), (token, r, wi)


@pytest.mark.parametrize("token", ["A1", "A3", "B3", "H3", "I2(7)", "A2xA1"])
def test_conjugacy_classes_keep_their_output(token):
    # the classes as sorted lists of tables, in the order of their first
    # elements
    gd = data(token)
    index = {p: i for i, p in enumerate(gd.perms)}
    ref = _table_conjugation_orbits(gd.perms, index, gd.rs.gen_tables)
    orbits, _ = gd.conjugation_orbits()
    assert [sorted(gd.perms[i] for i in orbit) for orbit in orbits] == ref


def _per_element_fixed_space_filters(gd):
    """The J-set oracle's filter with one nullspace per element, tested
    against every column of each x's matrix."""
    rs, perms = gd.rs, gd.perms
    cols = {xi: columns(action_matrix(rs, perms[xi])) for xi in gd.involutions}
    for wi in range(len(gd)):
        basis = fixed_vector_basis(action_matrix(rs, perms[wi]))
        yield wi, {x for x, _ in gd.pairs[wi] if fixes_all(cols[x], basis)}


@pytest.mark.parametrize("token", CLASS_GROUPS)
def test_class_wise_fixed_spaces_match_per_element_nullspaces(token):
    # the same x of I_w, element by element, whichever side is wrong
    gd = data(token)
    got = [None] * len(gd)
    for wi, via_fix in verify._fixed_space_filters(gd):
        assert got[wi] is None
        got[wi] = tuple(sorted(via_fix))
    kept = rejected = 0
    for wi, want in _per_element_fixed_space_filters(gd):
        assert got[wi] == tuple(sorted(want)), (token, wi)
        kept += len(want)
        rejected += len(gd.pairs[wi]) - len(want)
    assert kept and rejected


# the 15 groups of scripts/run_theorem_sweeps.py, then E6 and B6
NEGATED_ROOT_GROUPS = ("A3", "A4", "B3", "B4", "D4", "D5", "H3", "H4", "F4", "I2(5)",
                       "I2(6)", "I2(7)", "I2(8)", "A2xA1", "A1xA1xA1", "E6", "B6")


@pytest.mark.parametrize("token", NEGATED_ROOT_GROUPS)
def test_negated_roots_span_the_minus_one_eigenspace(token):
    # what the J-set oracle rests on: an involution x is a product of l_R(x)
    # reflections in orthogonal roots that it negates, so those roots span
    # its -1 eigenspace, of dimension l_R(x) over Q(c) and d l_R(x) over Q
    rs = system(token)
    d, n = rs.field_degree, rs.rank * rs.field_degree
    for x in involution_tables(rs).tables:
        rows = [row for i, v in enumerate(x) if v == -i - 1 for row in rs.c_multiples[i]]
        rank = n - len(exact_nullspace(rows)) if rows else 0
        assert rank == d * involution_reflection_length(rs, x), (token, x)
