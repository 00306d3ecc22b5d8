"""Property tests for the algebraic invariants that drive everything else."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data, lemma22_core, lemma22_holds
from coxex.elements import (apply_table, bits_of_table, compose_tables,
                            invert_table)
from coxex.verify import _involution_reversal_holds, _product


def element_indices(token, count=2):
    n = len(data(token).perms)
    return st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * count)


@settings(max_examples=300)
@given(element_indices("B3"))
def test_inversion_identity_b3(idx):
    gd = data("B3")
    assert lemma22_holds(gd.perms[idx[0]], gd.perms[idx[1]])


@settings(max_examples=200)
@given(element_indices("H3"))
def test_inversion_identity_h3(idx):
    gd = data("H3")
    assert lemma22_holds(gd.perms[idx[0]], gd.perms[idx[1]])


def test_lemma22_cached_inputs_match_tables_exhaustive():
    # the runner's inputs, gd's bitsets with gh found by the right
    # multiplication tables, against the table of gh composed in full
    for token in ["A1", "A3", "B3", "I2(5)", "H3", "A2xA1"]:
        gd = data(token)
        for gi, g in enumerate(gd.perms):
            gii = gd.inverse[gi]
            for hi, h in enumerate(gd.perms):
                bgh = gd.bits[_product(gd, gi, hi)]
                assert bgh == bits_of_table(compose_tables(g, h)), (token, gi, hi)
                assert lemma22_core(gd.perms[gii], gd.bits[gi], gd.bits[gii],
                                    gd.bits[hi], bgh) \
                    == lemma22_holds(g, h), (token, gi, hi)


@settings(max_examples=300)
@given(element_indices("H3"), st.integers(min_value=0))
def test_lemma22_cached_inputs_match_tables_perturbed(idx, pos):
    gd = data("H3")
    gi, hi = idx
    gii = gd.inverse[gi]
    h = list(gd.perms[hi])
    h[pos % len(h)] *= -1  # h is no longer a group element
    # negating an entry leaves a signed permutation of the roots, for which
    # the identity is a statement about signs and still holds
    assert lemma22_holds(gd.perms[gi], tuple(h))
    # the keyed N(gh) passes the core, and a wrong N(gh) must make it fail
    bgh = gd.bits[_product(gd, gi, hi)]
    inputs = (gd.perms[gii], gd.bits[gi], gd.bits[gii], gd.bits[hi])
    assert lemma22_core(*inputs, bgh)
    assert not lemma22_core(*inputs, bgh ^ (1 << pos % len(h)))


@settings(max_examples=200)
@given(element_indices("B3", 3))
def test_length_subadditivity(idx):
    gd = data("B3")
    g, h = gd.perms[idx[0]], gd.perms[idx[1]]
    lg, lh = bits_of_table(g).bit_count(), bits_of_table(h).bit_count()
    lgh = bits_of_table(compose_tables(g, h)).bit_count()
    assert abs(lg - lh) <= lgh <= lg + lh
    assert (lgh - lg - lh) % 2 == 0


def test_involution_reversal_exhaustive():
    for token in ["A3", "B3", "D4", "I2(7)"]:
        gd = data(token)
        for xi in gd.involutions:
            assert _involution_reversal_holds(gd.perms[xi])


@settings(max_examples=200)
@given(element_indices("D4"))
def test_excess_symmetry_d4(idx):
    gd = data("D4")
    wi = idx[0]
    e = gd.excess_of(wi)
    assert e % 2 == 0 and e >= 0
    assert gd.excess_of(gd.inverse[wi]) == e
    assert gd.refl_excess_of(wi) >= e


def test_lemma22_bulk_seeded():
    # the acceptance runs 10k pairs per group through the registry runner;
    # this is a quick deterministic slice at module level
    rng = random.Random(7)
    for token in ["A3", "B4"]:
        gd = data(token)
        n = len(gd.perms)
        for _ in range(2000):
            assert lemma22_holds(gd.perms[rng.randrange(n)],
                                  gd.perms[rng.randrange(n)])


@settings(max_examples=150)
@given(element_indices("B3"))
def test_table_inverse_involution(idx):
    gd = data("B3")
    p = gd.perms[idx[0]]
    q = invert_table(p)
    assert compose_tables(p, q) == tuple(range(1, len(p) + 1))
    assert invert_table(q) == p
    for i in range(1, len(p) + 1):
        assert apply_table(q, apply_table(p, i)) == i
