import pytest

from conftest import system
from coxex import group_elements, identity_element, parabolic_context, split_context
from coxex.elements import bfs_tables
from coxex.parabolic import (all_generator_subsets, maximal_generator_subsets,
                             split_values)


def test_empty_and_full_subsets():
    rs = system("B3")
    empty = parabolic_context(rs, ())
    full = parabolic_context(rs, range(rs.rank))
    assert empty.indices == () and empty.mask == 0
    assert full.mask == rs.full_mask()
    for w in group_elements(rs):
        assert full.contains(w)
        assert empty.contains(w) == w.is_identity()


def test_b3_a2_subsystem():
    rs = system("B3")
    ctx = parabolic_context(rs, (0, 1))
    labels = {rs.root_label(i) for i in ctx.indices}
    assert labels == {"e1-e2", "e2-e3", "e1-e3"}


def test_membership_matches_subgroup_enumeration():
    rs = system("B3")
    index_all = {w.perm: w for w in group_elements(rs)}
    for J in all_generator_subsets(rs):
        ctx = parabolic_context(rs, J)
        perms, _, _ = bfs_tables(rs, gens=tuple(J))
        in_subgroup = set(perms)
        for perm, w in index_all.items():
            assert ctx.contains(w) == (perm in in_subgroup)


def test_phi_j_closed_under_j_generators():
    rs = system("D4")
    for J in all_generator_subsets(rs):
        ctx = parabolic_context(rs, J)
        for r in J:
            table = rs.gen_tables[r]
            for i in ctx.indices:
                assert abs(table[i]) - 1 in set(ctx.indices)


def test_out_of_range_subset():
    with pytest.raises(ValueError):
        parabolic_context(system("A3"), (0, 9))


def test_split_values():
    assert split_values(system("A4")) == [1, 2, 3, 4]
    assert split_values(system("B4")) == [1, 2, 3, 4]
    assert split_values(system("D5")) == [1, 2, 3, 5]
    with pytest.raises(ValueError):
        split_values(system("H3"))


def test_split_context_drops_the_right_generator():
    rs = system("D5")
    ctx = split_context(rs, 2)
    assert ctx.J == (0, 2, 3, 4)
    ctx = split_context(rs, 5)
    assert ctx.J == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        split_context(rs, 4)  # m = n-1 is not of the split form


def test_maximal_subsets():
    rs = system("A3")
    assert maximal_generator_subsets(rs) == [(1, 2), (0, 2), (0, 1)]


def test_identity_always_member():
    rs = system("H3")
    ident = identity_element(rs)
    for J in all_generator_subsets(rs):
        assert parabolic_context(rs, J).contains(ident)


@pytest.mark.parametrize("token", ["A3", "A4", "B3", "D4", "H3", "I2(5)", "I2(6)", "I2(7)",
                                   "I2(8)", "A2xA1", "A1xA1xA1", "D12", "E6"])
def test_support_masks_match_coefficient_supports(token):
    # the context's roots, from one support mask per root, against the roots
    # whose set of supporting simple roots lies inside J, on every J
    rs = system(token)
    masks = rs.support_masks()
    assert masks is rs.support_masks()  # computed once
    supports = [set(rs.coeff_support(i)) for i in range(rs.num_positive)]
    for J in all_generator_subsets(rs):
        want = tuple(i for i, support in enumerate(supports) if support <= set(J))
        ctx = parabolic_context(rs, J)
        assert ctx.indices == want, (token, J)
        assert ctx.mask == sum(1 << i for i in want)
