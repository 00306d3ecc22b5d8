import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import constructive_inverter, data, fixed_basis, fixed_dim, system
import coxex
from coxex import (DnCondition, GroupData, GuardExceeded, build_root_system,
                   centralizer_elements, dn_condition_check, excess,
                   excess_report, group_elements, identity_element, inverting_involutions,
                   inverting_involutions_structured,
                   inverting_signed_involutions, involutions_inverting,
                   j_set, n_of_inverting_set, overlap_check, parabolic_context,
                   parabolic_excess, parabolic_reflection_excess,
                   parse_descriptor, reflection_excess, spartan_pairs,
                   spartan_support_check, swapcycle_check)
from coxex.elements import (GroupElement, bfs_tables, bits_of_table,
                            compose_tables, element_from_word, invert_table,
                            involution_reflection_length, involution_tables,
                            is_involution_table, reduced_word, reflection,
                            signed_lookup, simple_key, word_text)
from coxex.linalg import action_matrix, columns, fixed_vector_basis, fixes_all, restrict
from coxex.parabolic import all_generator_subsets, maximal_generator_subsets
from coxex.excess import _least_defect, _lr_reaching, _niw, inverting_involution_count
from coxex.signedperm import SignedPermutation, from_root_perm, parse, to_root_perm


def _elt(token, text):
    rs = system(token)
    return rs, to_root_perm(parse(text, rs.components[0].degree), rs)


def test_iw_golden_sym5():
    rs, w = _elt("A4", "(+2 +3 +5)")
    iw = inverting_involutions(rs, w)
    names = {from_root_perm(x).format() for x in iw.elements}
    assert names == {"(+2 +3)", "(+3 +5)", "(+2 +5)",
                     "(+1 +4)(+2 +3)", "(+1 +4)(+3 +5)", "(+1 +4)(+2 +5)"}
    assert iw.source == "exhaustive"
    assert hash(iw) == hash(inverting_involutions(rs, w))
    for x in iw.elements:
        assert x.is_involution()
        assert w.conjugated_by(x) == w.inverse()


def test_iw_of_reflection_contains_itself_and_identity():
    rs = system("B3")
    r = reflection(rs, 0)
    iw = inverting_involutions(rs, r)
    assert identity_element(rs) in iw.elements
    assert r in iw.elements


def test_iw_of_identity_is_all_involutions():
    rs = system("A3")
    iw = inverting_involutions(rs, identity_element(rs))
    expected = [w for w in group_elements(rs) if w.is_involution()]
    assert set(iw.elements) == set(expected)


def test_iw_always_non_empty():
    for token in ["A3", "B3", "D4", "H3", "I2(7)"]:
        rs = system(token)
        for w in group_elements(rs):
            assert inverting_involutions(rs, w).elements


@lru_cache(maxsize=None)
def _bfs_involutions(token):
    """Involutions by the BFS filter.  The enumeration runs on a root system
    of its own, so only the involutions outlive the call."""
    fresh = build_root_system([parse_descriptor(t) for t in token.split("x")])
    return [p for p in bfs_tables(fresh)[0] if is_involution_table(p)]


def _two_composition_iw(token, w):
    """Reference I_w: the BFS involutions x with wx == xw^-1, sorted, by two
    full table compositions per involution."""
    w_inv = invert_table(w.perm)
    return sorted(p for p in _bfs_involutions(token)
                  if compose_tables(w.perm, p) == compose_tables(p, w_inv))


@pytest.mark.parametrize("token", ["A4", "B3", "B4", "D4", "F4", "H3", "I2(7)",
                                   "A2xA1"])
def test_iw_matches_two_composition_filter_on_every_element(token):
    rs = system(token)
    for w in group_elements(rs):
        iw = inverting_involutions(rs, w)
        assert [x.perm for x in iw.elements] == _two_composition_iw(token, w)


JSET_GROUPS = ["A4", "B4", "D4", "F4", "H3", "I2(7)", "A2xA1"]


def _assert_pairs(iw, w):
    """Each pair (x, y) of iw has y = xw, and bits and l_R per handle are
    those of its table."""
    rs = w.system
    assert iw.pairs
    for x, y in iw.pairs:
        assert iw.tables[y] == compose_tables(iw.tables[x], w.perm)
        for h in (x, y):
            assert iw.bits[h] == bits_of_table(iw.tables[h])
            assert iw.lr[h] == involution_reflection_length(rs, iw.tables[h])


@pytest.mark.parametrize("token", JSET_GROUPS)
def test_exhaustive_pairs_are_x_and_xw_on_every_element(token):
    rs = system(token)
    for w in group_elements(rs):
        _assert_pairs(inverting_involutions(rs, w), w)


@pytest.mark.parametrize("token", ["B4", "D4"])
def test_structured_pairs_are_x_and_xw_on_every_element(token):
    rs = system(token)
    for w in group_elements(rs):
        _assert_pairs(inverting_involutions_structured(rs, from_root_perm(w)), w)


def _words(token):
    rs = system(token)
    return st.lists(st.integers(0, rs.rank - 1), max_size=rs.num_positive)


@pytest.mark.parametrize("token", ["A6", "B5", "D5", "E6"])
@settings(max_examples=40, deadline=None)
@given(drawn=st.data())
def test_iw_matches_two_composition_filter_on_random_elements(token, drawn):
    rs = system(token)
    w = element_from_word(rs, drawn.draw(_words(token)))
    iw = inverting_involutions(rs, w)
    assert [x.perm for x in iw.elements] == _two_composition_iw(token, w)


def test_exhaustive_iw_does_not_enumerate_the_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a query enumerated the group")

    for mod in ("elements", "excess"):
        monkeypatch.setattr(sys.modules[f"coxex.{mod}"], "bfs_tables", refuse)
    rs = build_root_system(parse_descriptor("A6"))
    w = element_from_word(rs, [0, 1, 2, 3, 4, 5])
    assert len(inverting_involutions(rs, w).elements) > 0


def _fixed_space_jset(w, iw):
    """Reference J_w: the members whose fixed space contains that of w."""
    rs = w.system
    basis = fixed_basis(w)
    return tuple(x for x in iw.elements
                 if fixes_all(columns(action_matrix(rs, x.perm)), basis))


@pytest.mark.parametrize("token", JSET_GROUPS)
def test_j_set_matches_fixed_space_filter_on_every_element(token):
    rs = system(token)
    for w in group_elements(rs):
        iw = inverting_involutions(rs, w)
        assert j_set(w, iw).elements == _fixed_space_jset(w, iw)


@pytest.mark.parametrize("token", ["A6", "B5", "D5", "E6"])
@settings(max_examples=25, deadline=None)
@given(drawn=st.data())
def test_j_set_matches_fixed_space_filter_on_random_elements(token, drawn):
    rs = system(token)
    w = element_from_word(rs, drawn.draw(_words(token)))
    iw = inverting_involutions(rs, w)
    assert j_set(w, iw).elements == _fixed_space_jset(w, iw)


@pytest.mark.parametrize("token", JSET_GROUPS)
def test_group_data_reflection_data_matches_fixed_spaces(token):
    gd = data(token)
    rs = gd.rs
    for wi in range(len(gd)):
        w = gd.element(wi)
        basis = fixed_basis(w)
        via_fix = [(x, y) for x, y in gd.pairs[wi]
                   if fixes_all(columns(action_matrix(rs, gd.perms[x])), basis)]
        assert gd.reflection_length(wi) == rs.rank - len(basis) // rs.field_degree
        assert gd.jset_of(wi) == via_fix
        assert gd.refl_excess_of(wi) == _least_defect(via_fix, gd.bits)


def test_j_set_golden_sym5():
    rs, w = _elt("A4", "(+2 +3 +5)")
    iw = inverting_involutions(rs, w)
    jw = j_set(w, iw)
    names = {from_root_perm(x).format() for x in jw.elements}
    assert names == {"(+2 +3)", "(+3 +5)", "(+2 +5)"}


def test_j_set_of_identity():
    rs = system("B3")
    ident = identity_element(rs)
    jw = j_set(ident, inverting_involutions(rs, ident))
    assert [x for x in jw.elements] == [ident]


def test_j_set_reflection_length_equivalence():
    for token in ["A3", "B3"]:
        rs = system(token)
        for w in group_elements(rs):
            iw = inverting_involutions(rs, w)
            jw = set(j_set(w, iw).elements)
            # l_R(v) = rank - dim Fix(v)
            via_length = {x for x in iw.elements
                          if fixed_dim(x) + fixed_dim(x * w) == rs.rank + fixed_dim(w)}
            assert jw == via_length


def test_excess_goldens():
    rs, w = _elt("A4", "(+2 +3 +5)")
    iw = inverting_involutions(rs, w)
    assert excess(w, iw) == 0
    pairs = spartan_pairs(w, iw)
    texts = [(from_root_perm(p.x).format(), from_root_perm(p.y).format())
             for p in pairs]
    assert ("(+3 +5)", "(+2 +3)") in texts
    x35 = to_root_perm(parse("(+3 +5)", 5), rs)
    x23 = to_root_perm(parse("(+2 +3)", 5), rs)
    assert x35.inversions() & x23.inversions() == 0
    assert all(p.defect == 0 for p in pairs)
    jw = j_set(w, iw)
    assert reflection_excess(w, jw) == 0


def test_excess_of_involutions_is_zero():
    rs = system("B3")
    for w in group_elements(rs):
        if w.is_involution():
            iw = inverting_involutions(rs, w)
            assert excess(w, iw) == 0
            assert reflection_excess(w, j_set(w, iw)) == 0


def test_reflection_excess_dominates():
    rs = system("B3")
    for w in group_elements(rs):
        iw = inverting_involutions(rs, w)
        assert reflection_excess(w, j_set(w, iw)) >= excess(w, iw)


def test_parabolic_full_is_ambient():
    rs, w = _elt("A4", "(+2 +3 +5)")
    iw = inverting_involutions(rs, w)
    full = parabolic_context(rs, range(rs.rank))
    assert parabolic_excess(w, full, iw) == excess(w, iw)
    assert parabolic_reflection_excess(w, full, iw) == reflection_excess(w, j_set(w, iw))


def test_parabolic_requires_membership():
    rs, w = _elt("A4", "(+2 +3 +5)")
    iw = inverting_involutions(rs, w)
    ctx = parabolic_context(rs, (0,))
    with pytest.raises(ValueError):
        parabolic_excess(w, ctx, iw)


def test_parabolic_excess_dominates_ambient():
    # factorizations inside W_J are a subset, so e <= e_J always
    from coxex.parabolic import all_generator_subsets
    for token in ["A4", "B4", "D4"]:
        gd = data(token)
        for J in all_generator_subsets(gd.rs):
            ctx = parabolic_context(gd.rs, J)
            for wi in range(len(gd)):
                if ctx.contains_table(gd.bits[wi]):
                    assert gd.excess_in(wi, ctx.mask) >= gd.excess_of(wi)


def test_structured_matches_exhaustive_b3():
    rs = system("B3")
    for w in group_elements(rs):
        ex = inverting_involutions(rs, w)
        st = inverting_involutions_structured(rs, from_root_perm(w))
        assert st.source == "structured-coset"
        assert set(st.elements) == set(ex.elements)


def _plain_product_coset_iw(sp, ambient, guard=10 ** 6):
    """Reference structured I_w: the centralizer closed under the guard, and
    every product c * x0 built and squared."""
    x0 = constructive_inverter(sp)
    return sorted(g.images for g in (c * x0 for c in centralizer_elements(sp, "B", guard))
                  if (g * g).is_identity() and (ambient == "B" or g.is_positive()))


def _signed_permutations(n, ambient):
    """Every element of W(B_n), or of W(D_n): the positive ones."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            sp = SignedPermutation([s * p for s, p in zip(signs, perm)])
            if ambient == "B" or sp.is_positive():
                yield sp


@pytest.mark.parametrize("token", ["B3", "B4", "B5", "D3", "D4", "D5"])
def test_cycle_type_product_matches_centralizer_closure_on_every_element(token):
    ambient, n = token[0], int(token[1:])
    for sp in _signed_permutations(n, ambient):
        members = [x.images for x in inverting_signed_involutions(sp, ambient)]
        assert members == _plain_product_coset_iw(sp, ambient)
        assert inverting_involution_count(sp, ambient) == len(members)
        if ambient == "D":
            assert all(SignedPermutation(x).is_positive() for x in members)


def test_inverting_involution_count_pins():
    assert inverting_involution_count(parse("(+1 +2 +3)(-4 +5 +6)", 6)) == 36
    assert inverting_involution_count(parse("(+1 +2 +3)(+4 +5 +6)", 6)) == 36 + 6
    # the identity inverts under every involution: 6,512 of W(B_7), 921,184 of W(B_10)
    assert inverting_involution_count(SignedPermutation.identity(7)) == 6512
    assert inverting_involution_count(SignedPermutation.identity(10)) == 921184
    assert inverting_involution_count(SignedPermutation.identity(4)) == 76
    assert inverting_involution_count(SignedPermutation.identity(4), "D") == 44


def test_structured_path_refuses_on_the_size_of_iw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused query enumerated")

    monkeypatch.setattr(sys.modules["coxex.excess"], "_involutive_matchings", refuse)
    with pytest.raises(GuardExceeded, match=r"^\|I_w\| = 6512 exceeds guard 6511$"):
        inverting_signed_involutions(SignedPermutation.identity(7), "B", guard=6511)
    rs = system("B10")
    with pytest.raises(GuardExceeded, match=r"^\|I_w\| = 921184 exceeds guard 100000$"):
        involutions_inverting(rs, identity_element(rs), guard=10 ** 5)
    # the caller's guard reaches the structured path: 4 * 8 * 6 * 2 / 2 members in D10
    rs = system("D10")
    w = to_root_perm(parse("(+1 +2)(+3 +4 +5 +6)(-7 -8 +9)", 10), rs)
    with pytest.raises(GuardExceeded, match=r"^\|I_w\| = 192 exceeds guard 191$"):
        involutions_inverting(rs, w, guard=191)
    monkeypatch.undo()
    assert len(involutions_inverting(rs, w, guard=192).pairs) == 192


@pytest.mark.parametrize("token", ["B4", "D4"])
def test_structured_matches_exhaustive_and_plain_products_on_every_element(token):
    rs = system(token)
    for w in group_elements(rs):
        sp = from_root_perm(w)
        st = inverting_involutions_structured(rs, sp)
        assert set(st.elements) == set(inverting_involutions(rs, w).elements)
        assert ([x.images for x in inverting_signed_involutions(sp, token[0])]
                == _plain_product_coset_iw(sp, token[0]))


@pytest.mark.parametrize("token", ["B7", "D7"])
@settings(max_examples=25, deadline=None)
@given(drawn=st.data())
def test_structured_iw_matches_plain_products_on_random_elements(token, drawn):
    rs = system(token)
    sp = from_root_perm(element_from_word(rs, drawn.draw(_words(token))))
    try:
        reference = _plain_product_coset_iw(sp, token[0], guard=5000)
    except GuardExceeded:
        assume(False)  # a centralizer too large to square member by member
    members = inverting_signed_involutions(sp, token[0])
    assert [x.images for x in members] == reference
    iw = inverting_involutions_structured(rs, sp)
    assert [x.perm for x in iw.elements] == [to_root_perm(x, rs).perm for x in members]
    _assert_pairs(iw, to_root_perm(sp, rs))


def test_structured_report_formats_the_kept_signed_members(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a structured report converted a root table back")

    rs = system("D12")
    sp = parse("(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)", 12)
    w = to_root_perm(sp, rs)
    ctxs = _maximal_contexts(rs)
    iw = inverting_involutions_structured(rs, sp)
    by_tables = excess_report(rs, w, ctxs, replace(iw, signed=None)).to_json_dict()
    monkeypatch.setattr(sys.modules["coxex.excess"], "from_root_perm", refuse)
    assert excess_report(rs, w, ctxs, iw).to_json_dict() == by_tables


@pytest.mark.parametrize("token", ["A1", "B3", "H3", "A2xA1"])
def test_group_data_keeps_its_key_dict(token):
    gd = data(token)
    simple = gd.rs.simple_indices
    assert gd.at_key == {simple_key(p, simple): i for i, p in enumerate(gd.perms)}


# the groups of scripts/run_theorem_sweeps.py
@pytest.mark.parametrize("token", ["A3", "A4", "B3", "D4", "H3", "I2(5)", "I2(6)",
                                   "I2(7)", "I2(8)", "A2xA1", "A1xA1xA1"])
def test_involution_keys_are_group_data_keys(token):
    # one element has one key, whichever cache holds it
    gd = data(token)
    inv = involution_tables(gd.rs)
    for key, handle in inv.at_key.items():
        assert gd.perms[gd.at_key[key]] == inv.tables[handle]


def test_involutions_inverting_picks_a_path():
    rs, w = _elt("B3", "(+1 +2 +3)")
    assert involutions_inverting(rs, w).source == "exhaustive"
    assert involutions_inverting(rs, w, guard=10).source == "structured-coset"


def test_n_of_inverting_set():
    rs, w = _elt("A4", "(+2 +3 +5)")
    iw = inverting_involutions(rs, w)
    niw = n_of_inverting_set(iw)
    assert w.inversions() & ~niw == 0
    # no single member covers N(w)
    assert all(w.inversions() & ~x.inversions() for x in iw.elements)
    # a cuspidal element sees every positive root
    cox = to_root_perm(parse("(+1 +2 +3 +4 +5)", 5), rs)
    assert n_of_inverting_set(inverting_involutions(rs, cox)) == rs.full_mask()


def test_support_checks():
    w = parse("(+2 +3 +5)", 5)
    x = parse("(+3 +5)", 5)
    y = parse("(+2 +3)", 5)
    assert spartan_support_check(x, y, w, "A")
    assert spartan_support_check(w, parse("()", 5), w, "A")
    bad = parse("(+1 +4)", 5)
    assert not spartan_support_check(bad, y, w, "A")
    # D rule: one extra support point is allowed when both maps negate it
    wd = parse("(+1 +2)(+3 +4)", 4)
    xd = parse("(-1 -2)", 4)
    assert spartan_support_check(xd, xd * wd.inverse(), wd, "D") in (True, False)


def test_support_check_d12_golden():
    w = parse("(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)", 12)
    x = parse("(-1)(+2 +3)(+4 +5)(+6 +7)(+8 +9)(+10 +11)(-12)", 12)
    y = parse("(-1)(-2)(+3 +4)(+5 +6)(+7 +8)(+9 +10)(+11 +12)", 12)
    assert spartan_support_check(x, y, w, "D")
    assert x.positive_support() - w.positive_support() == {1}
    assert y.positive_support() - w.positive_support() == {1}
    assert y.images[0] == -1 and x.images[0] == -1


def test_overlap_check():
    x = parse("(+1 +2)", 5)
    assert overlap_check(x, x, 2)
    assert not overlap_check(x, x, 1)
    assert overlap_check(parse("()", 5), parse("()", 5), 3)


def test_swapcycle_check():
    # interleaved cycles: y swaps (1 3 5) onto the inverse of (2 4 6)
    w = parse("(+1 +3 +5)(+2 +4 +6)", 6)
    y = parse("(+1 +2)(+3 +6)(+4 +5)", 6)
    assert w.conjugated_by(y) == w.inverse()
    assert swapcycle_check(y * w, y, w)
    # blockwise cycles: max{1,2,3} < min{4,5,6}, so the pair must be rejected
    w2 = parse("(+1 +2 +3)(+4 +5 +6)", 6)
    y2 = parse("(+1 +4)(+2 +6)(+3 +5)", 6)
    assert w2.conjugated_by(y2) == w2.inverse()
    assert not swapcycle_check(y2 * w2, y2, w2)


def test_dn_condition_check():
    w = parse("(+1 +2)", 5)
    assert dn_condition_check(w, 5) is DnCondition.M_EQUALS_N
    assert dn_condition_check(w, 2) is DnCondition.HAS_ONE_CYCLE  # 3,4,5 fixed
    w2 = parse("(+1 +2)(+3 +4 +5)", 5)
    assert dn_condition_check(w2, 2) is DnCondition.NONE
    # (+5 -6) carries one minus sign: an even negative cycle in the block
    w3 = parse("(+3 +4)(+5 -6)", 6)
    assert dn_condition_check(w3, 2) is DnCondition.NONE
    # (-5 -6) carries two: even positive, as is (+3 +4)
    w4 = parse("(+3 +4)(-5 -6)", 6)
    assert dn_condition_check(w4, 2) is DnCondition.EVEN_POSITIVE_CYCLES
    with pytest.raises(ValueError):
        dn_condition_check(parse("(+2 +3)", 4), 2)  # straddles the split
    d12 = parse("(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)", 12)
    assert dn_condition_check(d12, 1) is DnCondition.NONE


# the groups of scripts/run_theorem_sweeps.py, B5, D5 and E6
@pytest.mark.parametrize("token", [
    "A3", "A4", "B3", "B4", "D4", "D5", "H3", "H4", "F4", *(f"I2({m})" for m in range(5, 9)),
    "A2xA1", "A1xA1xA1", "B5", "E6"])
def test_group_data_matches_function_level(token):
    # every element's columns against the kernels run on its own pairs, and
    # about 60 elements' against the function-level I_w
    gd = data(token)
    rs, bits, lr = gd.rs, gd.bits, gd.lr
    for wi, pairs in enumerate(gd.pairs):
        jpairs = _lr_reaching(pairs, lr)
        x, y = jpairs[0]
        assert gd.excess_of(wi) == _least_defect(pairs, bits)
        assert gd.reflection_length(wi) == lr[x] + lr[y]
        assert gd.refl_excess_of(wi) == _least_defect(jpairs, bits)
        assert gd.niw_bits(wi) == _niw(pairs, bits)
        assert gd.jset_of(wi) == jpairs
    for wi in range(0, len(gd), -(-len(gd) // 60)):
        w = gd.element(wi)
        iw = inverting_involutions(rs, w)
        assert gd.excess_of(wi) == excess(w, iw)
        assert gd.refl_excess_of(wi) == reflection_excess(w, j_set(w, iw))
        assert gd.niw_bits(wi) == n_of_inverting_set(iw)
        assert {gd.perms[x] for x, _ in gd.pairs[wi]} == {x.perm for x in iw.elements}


def test_group_data_parabolic_matches_function_level():
    gd = data("B3")
    rs = gd.rs
    ctx = parabolic_context(rs, (0, 1))
    for wi in range(len(gd)):
        if not ctx.contains_table(gd.bits[wi]):
            continue
        w = gd.element(wi)
        iw = inverting_involutions(rs, w)
        assert gd.excess_in(wi, ctx.mask) == parabolic_excess(w, ctx, iw)
        assert (gd.refl_excess_in(wi, ctx.mask)
                == parabolic_reflection_excess(w, ctx, iw))


@pytest.mark.parametrize("token", ["A4", "B4", "D4", "F4", "H3", "I2(7)", "A2xA1"])
def test_parabolic_jset_is_ambient_jset_cut_to_parabolic(token):
    # the reference is the J-set computed inside W_J from fixed spaces of
    # the J x J blocks of the matrices, the path GroupData used to take; over
    # Q a generator j owns the d rows and columns j * d .. j * d + d - 1
    gd = data(token)
    rs = gd.rs
    d = rs.field_degree
    for J in all_generator_subsets(rs):
        mask = parabolic_context(rs, J).mask
        rows = [j * d + i for j in J for i in range(d)]
        for wi in range(len(gd)):
            if gd.bits[wi] & ~mask:
                continue
            block = restrict(action_matrix(rs, gd.perms[wi]), rows)
            basis = fixed_vector_basis(block) if J else ()
            inside = {x for x, _ in gd.pairs[wi] if gd.bits[x] & ~mask == 0
                      and fixes_all(columns(restrict(action_matrix(rs, gd.perms[x]), rows)), basis)}
            assert inside == {x for x, _ in gd.jset_of(wi) if gd.bits[x] & ~mask == 0}
            assert len(J) - len(basis) // d == gd.reflection_length(wi)


def _full_table_pairs(perms, index):
    """The pair pass the keyed one replaced: compose every pair of
    involution tables, look the product up, then sort."""
    involutions = [i for i, p in enumerate(perms) if is_involution_table(p)]
    pairs = [[] for _ in perms]
    for xi in involutions:
        for yi in involutions:
            pairs[index[compose_tables(perms[xi], perms[yi])]].append((xi, yi))
    for lst in pairs:
        lst.sort()
    return pairs


def _trace_on(rs, table, J):
    """Trace of an element of W_J on the span of the alpha_j, j in J."""
    tr = 0
    for k in J:
        v = table[rs.simple_indices[k]]
        c = rs.coeffs[abs(v) - 1][k]
        tr += c if v > 0 else -c
    return round(tr)


@pytest.mark.parametrize("token", ["B4", "D4", "F4", "A2xA1"])
def test_subgroup_data_reflection_excess_matches_ambient(token):
    # e and E inside each maximal W_J from W_J's own pairs, with l_R taken
    # in W_J, against the ambient tables under J's mask
    gd = data(token)
    rs = gd.rs
    index = {p: i for i, p in enumerate(gd.perms)}
    for J in maximal_generator_subsets(rs):
        perms = bfs_tables(rs, gens=J)[0]
        bits = [bits_of_table(p) for p in perms]
        pairs = _full_table_pairs(perms, {p: i for i, p in enumerate(perms)})
        lr = {x: (len(J) - _trace_on(rs, perms[x], J)) // 2
              for lst in pairs for x, _ in lst}
        mask = parabolic_context(rs, J).mask
        for si, p in enumerate(perms):
            defects = [(lr[x] + lr[y], 2 * (bits[x] & bits[y]).bit_count())
                       for x, y in pairs[si]]
            lw = min(s for s, _ in defects)
            wi = index[p]
            assert gd.excess_in(wi, mask) == min(d for _, d in defects)
            assert gd.refl_excess_in(wi, mask) == min(d for s, d in defects if s == lw)


# every group the suite builds GroupData for, rank 1, E6 and B5 (k = 312)
@pytest.mark.parametrize("token", [
    "A1", "A2", "A3", "A4", "B3", "B4", "D4", "D5", "F4", "H3",
    *(f"I2({m})" for m in range(5, 9)), "A2xA1", "A1xA1xA1", "E6", "B5"])
def test_keyed_pair_pass_matches_full_table_loop(token):
    gd = data(token)
    index = {p: i for i, p in enumerate(gd.perms)}
    assert gd.pairs == _full_table_pairs(gd.perms, index)


# the groups of scripts/run_theorem_sweeps.py, E6 and B5
@pytest.mark.parametrize("token", [
    "A3", "A4", "B3", "B4", "D4", "D5", "H3", "H4", "F4",
    *(f"I2({m})" for m in range(5, 9)), "A2xA1", "A1xA1xA1", "E6", "B5"])
def test_inverse_read_off_the_pair_products_matches_table_inversion(token):
    gd = data(token)
    index = {p: i for i, p in enumerate(gd.perms)}
    assert len(gd.inverse) == len(gd)
    assert gd.inverse == [index[invert_table(p)] for p in gd.perms]


def test_excess_report_d12():
    rs = system("D12")
    sp = parse("(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)", 12)
    w = to_root_perm(sp, rs)
    iw = inverting_involutions_structured(rs, sp)
    ctx = parabolic_context(rs, tuple(range(1, 12)))
    report = excess_report(rs, w, (ctx,), iw)
    assert report.length == 28
    assert report.excess == 46
    assert report.parabolic[0][1] == 60
    assert report.parabolic[0][2] == parabolic_reflection_excess(w, ctx, iw)
    assert report.reflection_length == rs.rank - fixed_dim(w)
    doc = report.to_json_dict()
    assert doc["parabolic"][0]["e_J"] == 60
    assert doc["element"].startswith("(+2 +4")
    rows = report.csv_rows()
    assert rows[0][2] == "28"


def _fixed_space_report(rs, w, parabolics, iw):
    """Reference report of a B/D element: J_w from fixed spaces, and every
    statistic by its own compositions."""
    basis = fixed_basis(w)
    jw = [x for x in iw.elements if fixes_all(columns(action_matrix(rs, x.perm)), basis)]

    def least(xs):
        return min(2 * (x.inversions() & (x * w).inversions()).bit_count() for x in xs)

    def text(g):
        return from_root_perm(g).format()

    e = least(iw.elements)
    spartan = sorted((x for x in iw.elements if least([x]) == e),
                     key=lambda x: (x.length(), x.perm))
    return {
        "descriptor": rs.name, "element": text(w), "length": w.length(),
        "reflection_length": rs.rank - len(basis), "excess": e,
        "reflection_excess": least(jw),
        "parabolic": [{"J": list(ctx.J_display),
                       "e_J": least([x for x in iw.elements if ctx.contains(x)]),
                       "E_J": least([x for x in jw if ctx.contains(x)])}
                      for ctx in parabolics if ctx.contains(w)],
        "witnesses": [[text(x), text(x * w)] for x in spartan],
    }


def test_excess_report_matches_fixed_space_reference_d12():
    rs = system("D12")
    sp = parse("(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)", 12)
    w = to_root_perm(sp, rs)
    iw = inverting_involutions_structured(rs, sp)
    ctxs = tuple(parabolic_context(rs, J) for J in maximal_generator_subsets(rs))
    assert (excess_report(rs, w, ctxs, iw).to_json_dict()
            == _fixed_space_report(rs, w, ctxs, iw))


def test_excess_report_matches_fixed_space_reference_guarded_b7():
    rs = system("B7")
    ctxs = tuple(parabolic_context(rs, J) for J in maximal_generator_subsets(rs))
    rng = random.Random(7)
    for _ in range(6):
        w = element_from_word(rs, [rng.randrange(rs.rank) for _ in range(30)])
        iw = involutions_inverting(rs, w, guard=40000)
        assert iw.source == "structured-coset"
        assert (excess_report(rs, w, ctxs, guard=40000).to_json_dict()
                == _fixed_space_report(rs, w, ctxs, iw))


def test_reports_do_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a query computed a fixed space")

    for name in ("fixed_vector_basis", "fixes_all"):
        for mod in ("linalg", "elements", "excess", "verify"):
            module = sys.modules[f"coxex.{mod}"]
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rng = random.Random(11)
    for token, guard in (("A6", None), ("H3", None), ("B7", 40000)):
        rs = system(token)
        ctxs = tuple(parabolic_context(rs, J) for J in maximal_generator_subsets(rs))
        for _ in range(4):
            w = element_from_word(rs, [rng.randrange(rs.rank) for _ in range(20)])
            report = excess_report(rs, w, ctxs, guard=guard)
            assert report.reflection_excess >= report.excess


def test_exact_reports_do_not_load_numpy():
    # no coxex module imports numpy: neither the reports of any family nor a
    # full suite on H3 and I2, whose jset-equivalence oracle computes fixed
    # spaces over Z[2cos(pi/m)], loads it
    script = """
import sys
from coxex import (build_root_system, excess_report, make_config, parabolic_context,
                   parse, parse_descriptor, run_suite, to_root_perm)
from coxex.elements import element_from_word
for token, text in (("A4", "(+2 +3 +5)"), ("B3", "(+1 -2)(-3)")):
    rs = build_root_system(parse_descriptor(token))
    w = to_root_perm(parse(text, rs.components[0].degree), rs)
    ctx = parabolic_context(rs, tuple(range(1, rs.rank)))
    report = excess_report(rs, w, (ctx,))
    assert report.reflection_length >= 1, report
for token, word in (("H3", [0, 1, 2, 1]), ("I2(7)", [0, 1, 0])):
    rs = build_root_system(parse_descriptor(token))
    w = element_from_word(rs, word)
    ctx = parabolic_context(rs, tuple(range(1, rs.rank)))
    report = excess_report(rs, w, (ctx,))
    assert report.reflection_length >= 1, report
suite = run_suite(make_config([parse_descriptor(t) for t in ("H3", "I2(5)", "I2(8)")]))
assert suite.failures_total == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(coxex.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def _text(g):
    if g.system.family in ("A", "B", "D"):
        return from_root_perm(g).format()
    return word_text(reduced_word(g))


def _per_member_report(rs, w, parabolics, iw):
    """Reference report by the scoring pass the pair form replaced: compose
    xw for each member x, then score both x and xw."""
    rows = []
    for x in iw.elements:
        y = x * w
        rows.append((2 * (x.inversions() & y.inversions()).bit_count(),
                     involution_reflection_length(rs, x.perm)
                     + involution_reflection_length(rs, y.perm), x, y))
    lw = min(r[1] for r in rows)
    jrows = [r for r in rows if r[1] == lw]

    def least(rows, ctx=None):
        return min(d for d, _, x, _ in rows if ctx is None or ctx.contains(x))

    e = least(rows)
    spartan = sorted((r for r in rows if r[0] == e),
                     key=lambda r: (r[2].length(), r[2].perm))
    return {
        "descriptor": rs.name, "element": _text(w), "length": w.length(),
        "reflection_length": lw, "excess": e, "reflection_excess": least(jrows),
        "parabolic": [{"J": list(ctx.J_display), "e_J": least(rows, ctx),
                       "E_J": least(jrows, ctx)}
                      for ctx in parabolics if ctx.contains(w)],
        "witnesses": [[_text(x), _text(y)] for _, _, x, y in spartan],
    }


def _maximal_contexts(rs):
    return tuple(parabolic_context(rs, J) for J in maximal_generator_subsets(rs))


@pytest.mark.parametrize("token", ["A4", "B4", "D4"])
def test_excess_report_matches_per_member_scoring_on_every_element(token):
    rs = system(token)
    ctxs = _maximal_contexts(rs)
    for w in group_elements(rs):
        iw = inverting_involutions(rs, w)
        assert (excess_report(rs, w, ctxs, iw).to_json_dict()
                == _per_member_report(rs, w, ctxs, iw))


@pytest.mark.parametrize("token", ["A6", "B5", "E6"])
@settings(max_examples=25, deadline=None)
@given(drawn=st.data())
def test_excess_report_matches_per_member_scoring_on_random_elements(token, drawn):
    rs = system(token)
    ctxs = _maximal_contexts(rs)
    w = element_from_word(rs, drawn.draw(_words(token)))
    iw = inverting_involutions(rs, w)
    assert (excess_report(rs, w, ctxs, iw).to_json_dict()
            == _per_member_report(rs, w, ctxs, iw))


def test_reports_compose_no_elements(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a report composed two elements")

    monkeypatch.setattr(GroupElement, "__mul__", refuse)
    rng = random.Random(13)
    for token, guard, source in (("A6", None, "exhaustive"), ("H3", None, "exhaustive"),
                                 ("B7", 40000, "structured-coset")):
        rs = system(token)
        ctxs = _maximal_contexts(rs)
        for _ in range(4):
            w = element_from_word(rs, [rng.randrange(rs.rank) for _ in range(20)])
            iw = involutions_inverting(rs, w, guard)
            assert iw.source == source
            report = excess_report(rs, w, ctxs, iw)
            assert report.reflection_excess >= report.excess


@lru_cache(maxsize=None)
def _tuple_keys(token):
    """Each involution's simple-root images as a tuple, and a dict from
    those tuples to the involution's handle."""
    rs = system(token)
    images = [tuple([p[i] for i in rs.simple_indices])
              for p in involution_tables(rs).tables]
    return images, {k: i for i, k in enumerate(images)}


def _tuple_filter(token, w):
    """Reference I_w by the filter the packed translation replaced: carry
    each involution's tuple of simple-root images through w's signed
    lookup, one involution at a time, and look the tuple up.  Returns the
    pairs and the bits and l_R of each member."""
    rs = system(token)
    tables = involution_tables(rs).tables
    images, at_key = _tuple_keys(token)
    ext = signed_lookup(w.perm)
    pairs = []
    for x, sx in enumerate(images):
        y = at_key.get(tuple([ext[v] for v in sx]))
        if y is not None:
            pairs.append((x, y))
    bits = {x: bits_of_table(tables[x]) for x, _ in pairs}
    lr = {x: involution_reflection_length(rs, tables[x]) for x, _ in pairs}
    return tuple(pairs), bits, lr


def _assert_filter_matches(token, w):
    iw = inverting_involutions(system(token), w)
    pairs, bits, lr = _tuple_filter(token, w)
    assert iw.pairs == pairs
    assert {x: iw.bits[x] for x, _ in pairs} == bits
    assert {x: iw.lr[x] for x, _ in pairs} == lr


# I2(111) has 111 positive roots, so its keys run past code point 127 and
# its translation leaves the ASCII fast path of str.translate
@pytest.mark.parametrize("token", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4", "D5", "F4",
    "H3", *(f"I2({m})" for m in range(5, 13)), "I2(111)", "A2xA1",
    "A1xA1xA1", "B3xA2"])
def test_packed_filter_matches_tuple_filter_on_every_element(token):
    rs = system(token)
    for p in bfs_tables(rs)[0]:
        _assert_filter_matches(token, GroupElement(rs, p))


@pytest.mark.parametrize("token", ["E6", "H4"])
def test_packed_filter_matches_tuple_filter_on_sampled_elements(token):
    rs = system(token)
    perms = bfs_tables(rs)[0]
    for p in random.Random(f"packed-filter:{token}").sample(perms, 150):
        _assert_filter_matches(token, GroupElement(rs, p))


@pytest.mark.parametrize("token", ["A4", "H3"])
def test_involution_cache_fills_bits_and_lr_of_members_only(token):
    rs = build_root_system(parse_descriptor(token))
    w = element_from_word(rs, (0, 1, 2))
    iw = inverting_involutions(rs, w)
    inv = involution_tables(rs)
    members = {h for xy in iw.pairs for h in xy}
    assert {h for h, b in enumerate(inv.bits) if b is not None} == members
    assert {h for h, v in enumerate(inv.lr) if v is not None} == members


def _digest_reports():
    """Reports of seeded A6, B5 and E6 elements (exhaustive path) and of
    three D10 elements (structured path), as each output form reads them."""
    rng = random.Random(20261019)
    out = []
    for token, count, subsets in (("A6", 40, all_generator_subsets),
                                  ("B5", 30, maximal_generator_subsets),
                                  ("E6", 20, maximal_generator_subsets)):
        rs = system(token)
        ctxs = tuple(parabolic_context(rs, J) for J in subsets(rs))
        for p in rng.sample(bfs_tables(rs)[0], count):
            out.append(excess_report(rs, GroupElement(rs, p), ctxs))
    rs = system("D10")
    ctxs = _maximal_contexts(rs)
    for text in ("(+1 +2 +3)(-4 -5)(+6 -7 +8 -9)", "(+1 -2)(+3 +4 +5 -6)(-7)(-8)",
                 "(+1 +2)(+3 +4)(+5 +6)(+7 +8)(+9 +10)"):
        out.append(excess_report(rs, to_root_perm(parse(text, 10), rs), ctxs, guard=20000))
    return out


def test_report_outputs_are_pinned():
    # the digest was taken when reports kept their statistics as fields and
    # their witness texts and parabolic rows as tuples
    reports = _digest_reports()
    doc = [[r.to_json_dict(), r.csv_rows(), [list(p) for p in r.witnesses],
            list(r.parabolic)] for r in reports]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert (len(doc), sum(len(r.witnesses) for r in reports)) == (93, 198)
    assert digest == "e4897a6b1a43402a87c79e31868fe1b826b4326b0a2c9278cf899fe07ab94589"


@pytest.mark.parametrize("token, text, guard", [
    ("A6", "(+1 +2 +3)(+4 +5)", None), ("B5", "(+1 -2)(+3 +4 +5)", None),
    ("B7", "(+1 +2 +3)(-4 -5)(+6 -7)", 40000)])
def test_reports_of_one_element_share_their_strings(token, text, guard):
    rs = system(token)
    ctxs = _maximal_contexts(rs)
    w = to_root_perm(parse(text, rs.components[0].degree), rs)
    first, second = (excess_report(rs, w, ctxs, guard=guard) for _ in range(2))
    assert first == second
    # one interned record holds the element, statistics, rows and witnesses
    assert first.record is second.record
    assert all("|" not in x and "|" not in y for x, y in first.witnesses)
    assert first.witnesses and (first.parabolic or token == "B5")
