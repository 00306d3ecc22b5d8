import sys

import pytest

from conftest import data, fixed_basis, fixed_dim, system
from coxex import (GuardExceeded, build_root_system, group_elements,
                   identity_element, inversion_set_of_set, inverting_involutions,
                   parse_descriptor, reduced_words)
from coxex.elements import (GroupElement, bfs_tables, compose_tables,
                            element_from_word, enumerate_group, generator,
                            involution_reflection_length, involution_tables,
                            identity_table, is_involution_table, reduced_word,
                            reflection, signed_lookup, simple_key)
from coxex.linalg import action_matrix
from coxex.signedperm import parse, to_root_perm


def test_compose_invert_identity():
    rs = system("B3")
    elems = group_elements(rs)
    ident = identity_element(rs)
    for w in elems:
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w) == ident
    a, b = elems[17], elems[31]
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_compose_rejects_mixed_systems():
    a = identity_element(system("B3"))
    b = identity_element(system("A3"))
    with pytest.raises(ValueError):
        _ = a * b


def test_act_examples():
    rs = system("A4")
    w = to_root_perm(parse("(+2 +3 +5)", 5), rs)
    # alpha_r . r = -alpha_r for every generator
    for r in range(rs.rank):
        g = generator(rs, r)
        si = rs.simple_indices[r]
        assert g.act(si + 1) == -(si + 1)
    ident = identity_element(rs)
    for i in range(1, rs.num_positive + 1):
        assert ident.act(i) == i
    # (e2 - e5) maps to e3 - e2, a negative root
    i25 = rs.index_of_label("e2-e5") + 1
    img = w.act(i25)
    assert img < 0
    assert rs.root_label(-img - 1) == "e2-e3"


def test_inversion_set_goldens():
    rs = system("A4")
    w = to_root_perm(parse("(+2 +3 +5)", 5), rs)
    assert rs.labels_of_bits(w.inversions()) == {"e2-e5", "e3-e4", "e3-e5", "e4-e5"}
    assert w.length() == 4
    t = to_root_perm(parse("(+2 +3)", 5), rs)
    assert rs.labels_of_bits(t.inversions()) == {"e2-e3"}
    assert t.length() == 1
    assert identity_element(rs).inversions() == 0


def test_inversion_set_of_set():
    rs = system("A4")
    x = to_root_perm(parse("(+2 +3)", 5), rs)
    y = to_root_perm(parse("(+3 +5)", 5), rs)
    assert inversion_set_of_set([identity_element(rs)]) == 0
    union = inversion_set_of_set([x, y])
    assert rs.labels_of_bits(union) == {"e2-e3", "e3-e4", "e3-e5", "e4-e5"}
    assert union.bit_count() == 4


@pytest.mark.parametrize("token,order", [("A3", 24), ("B3", 48), ("H3", 120)])
def test_enumeration_counts(token, order):
    assert len(group_elements(system(token))) == order


def test_reduced_word_lengths_match_inversion_counts():
    for token in ["A3", "B3", "D4", "I2(6)", "H3"]:
        rs = system(token)
        for perm, word in reduced_words(rs).items():
            bits = sum(1 for v in perm if v < 0)
            assert bits == len(word)


def test_enumeration_guard():
    rs = build_root_system(parse_descriptor("B3"))
    with pytest.raises(GuardExceeded):
        list(enumerate_group(rs, guard=10))
    with pytest.raises(GuardExceeded):
        bfs_tables(build_root_system(parse_descriptor("E8")))


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("COXEX_GUARD", "5")
    rs = build_root_system(parse_descriptor("A3"))
    with pytest.raises(GuardExceeded):
        list(enumerate_group(rs))


def _fresh(token):
    return build_root_system([parse_descriptor(t) for t in token.split("x")])


# I2(3) and I2(4) are A2 and B2: the descriptors admit I2(m) from m = 5
@pytest.mark.parametrize("token", [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5",
    "F4", "H3", "H4", "E6", *(f"I2({m})" for m in range(5, 13)),
    "A2xA1", "A1xA1xA1", "B3xA2"])
def test_involution_closure_matches_bfs_filter(token, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the involution closure enumerated the group")

    rs = _fresh(token)
    for mod in ("elements", "excess"):
        monkeypatch.setattr(sys.modules[f"coxex.{mod}"], "bfs_tables", refuse)
    inv = involution_tables(rs)
    monkeypatch.undo()
    tables, at_key = inv.tables, inv.at_key
    assert tables == sorted(p for p in bfs_tables(rs)[0] if is_involution_table(p))
    # the packed keys, rank code points v + npos a key, decode to the
    # simple-root images of the tables, in table order
    npos = rs.num_positive
    keys = inv.packed.split(inv.sep)
    assert inv.sep == chr(2 * npos + 1)
    assert all(len(k) == rs.rank for k in keys)
    simple_images = [tuple(ord(c) - npos for c in k) for k in keys]
    assert simple_images == [tuple(p[i] for i in rs.simple_indices) for p in tables]
    assert at_key == {k: i for i, k in enumerate(keys)}
    assert len(at_key) == len(tables)
    assert inv.bits == [None] * len(tables) and inv.lr == [None] * len(tables)
    assert involution_tables(rs) is rs._involutions


def _table_bfs(rs, gens=None):
    """The BFS that builds and looks up the full table of every product,
    with the key index (`simple_key`) of its own perms."""
    names = range(rs.rank) if gens is None else gens
    lookups = [signed_lookup(rs.gen_tables[r]) for r in names]
    ident = identity_table(rs.num_positive)
    perms, words, index = [ident], [()], {ident: 0}
    i = 0
    while i < len(perms):
        p, w = perms[i], words[i]
        for r, ext in zip(names, lookups):
            q = tuple([ext[v] for v in p])
            if q not in index:
                index[q] = len(perms)
                perms.append(q)
                words.append(w + (r,))
        i += 1
    return perms, words, {simple_key(p, rs.simple_indices): i for i, p in enumerate(perms)}


# the groups of scripts/run_theorem_sweeps.py, rank 1 and E6
@pytest.mark.parametrize("token", [
    "A3", "A4", "B3", "B4", "D4", "D5", "H3", "H4", "F4", "I2(5)", "I2(6)",
    "I2(7)", "I2(8)", "A2xA1", "A1xA1xA1", "A1", "E6"])
def test_keyed_bfs_matches_table_bfs(token):
    rs = _fresh(token)
    perms, words, at_key = bfs_tables(rs)
    assert (perms, words, at_key) == _table_bfs(rs)
    assert list(at_key.values()) == list(range(len(perms)))  # in index order


def test_keyed_bfs_matches_table_bfs_on_a_generator_subset():
    rs = _fresh("B4")
    for gens in ((0, 2), (3,), (1, 2, 3)):
        perms, words, at_key = bfs_tables(rs, gens=gens)
        assert (perms, words, at_key) == _table_bfs(rs, gens)
        assert list(at_key.values()) == list(range(len(perms)))


def test_involution_tables_share_int_objects():
    # every entry is read from one of the per-generator lookups, each of
    # 2 * num_positive + 1 ints, so no table makes ints of its own
    rs = _fresh("E6")
    tables = involution_tables(rs).tables
    assert len({id(v) for t in tables for v in t}) <= rs.rank * (2 * rs.num_positive + 1)


@pytest.mark.parametrize("cached_first", [True, False])
def test_guard_is_checked_before_the_caches(cached_first):
    rs = _fresh("A4")
    w = identity_element(rs)
    message = r"^\|W\(A4\)\| = 120 exceeds guard 10$"
    if cached_first:
        bfs_tables(rs)
        involution_tables(rs)
    for call in (lambda: bfs_tables(rs, 10), lambda: involution_tables(rs, 10),
                 lambda: inverting_involutions(rs, w, 10)):
        with pytest.raises(GuardExceeded, match=message):
            call()
    assert len(bfs_tables(rs, 120)[0]) == 120
    assert len(inverting_involutions(rs, w, 120).elements) == 26
    assert len(involution_tables(rs, 120).tables) == 26


def test_guard_env_override_of_involution_tables(monkeypatch):
    rs = _fresh("A3")
    involution_tables(rs)
    monkeypatch.setenv("COXEX_GUARD", "5")
    with pytest.raises(GuardExceeded, match=r"exceeds guard 5$"):
        involution_tables(rs)
    with pytest.raises(GuardExceeded, match=r"exceeds guard 5$"):
        involution_tables(_fresh("A3"))
    assert len(involution_tables(rs, guard=24).tables) == 10


def test_fixed_space_dims():
    rs = system("A4")
    assert fixed_dim(identity_element(rs)) == 4
    for i in range(rs.num_positive):
        assert fixed_dim(reflection(rs, i)) == 3
    w = to_root_perm(parse("(+2 +3 +5)", 5), rs)
    # the essential fixed space of a 3-cycle in Sym(5) is 2-dimensional
    assert fixed_dim(w) == 2
    mat = action_matrix(rs, w.perm)
    for v in fixed_basis(w):
        img = [sum(v[r] * mat[r][c] for r in range(4)) for c in range(4)]
        assert tuple(img) == tuple(v)


def test_reflection_length_against_bfs_oracle():
    # oracle: shortest factorization into reflections, breadth-first
    for token in ["A3", "B3", "I2(5)"]:
        rs = system(token)
        tables = [rs.reflection_table(i) for i in range(rs.num_positive)]
        ident = tuple(range(1, rs.num_positive + 1))
        dist = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for t in tables:
                    q = compose_tables(p, t)
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            frontier = nxt
        for w in group_elements(rs):
            assert rs.rank - fixed_dim(w) == dist[w.perm]


def test_reflection_length_examples():
    # from traces (Carter 1972) and from the fixed space
    gd = data("A4")
    rs = gd.rs
    w = to_root_perm(parse("(+2 +3 +5)", 5), rs)
    index = {p: i for i, p in enumerate(gd.perms)}
    for p, want in ((gd.perms[0], 0), (rs.reflection_table(0), 1), (w.perm, 2)):
        assert gd.reflection_length(index[p]) == want
        assert rs.rank - fixed_dim(GroupElement(rs, p)) == want


def test_cuspidal():
    # cuspidal: no nonzero fixed vector, as for a Coxeter element
    rs = system("B3")
    assert fixed_dim(identity_element(rs)) == 3
    assert fixed_dim(reflection(rs, 0)) == 2
    assert fixed_dim(element_from_word(rs, [0, 1, 2])) == 0


def test_fixed_space_plus_reflection_length_is_rank():
    # the reflection length from traces (Carter 1972) against Fix(w)
    for token in ["A3", "B3", "D4", "H3", "I2(6)"]:
        gd = data(token)
        for wi in range(len(gd)):
            assert fixed_dim(gd.element(wi)) + gd.reflection_length(wi) == gd.rs.rank


@pytest.mark.parametrize("token", ["A5", "B5", "D5", "F4", "E6", "H3", "H4", "I2(5)",
                                   "I2(6)", "I2(7)", "I2(8)", "A2xA1"])
def test_involution_reflection_length_is_rank_minus_fixed_dimension(token):
    rs = system(token)
    for p in involution_tables(rs).tables:
        assert (involution_reflection_length(rs, p)
                == rs.rank - fixed_dim(GroupElement(rs, p)))


def test_involution_reflection_length_rejects_odd_parity():
    rs = system("A2")
    rotation = element_from_word(rs, [0, 1])  # trace -1 in rank 2
    with pytest.raises(ValueError):
        involution_reflection_length(rs, rotation.perm)


@pytest.mark.parametrize("token", ["H3", "F4", "I2(7)", "A2xA1"])
def test_reduced_word_round_trips(token):
    rs = system(token)
    for w in group_elements(rs):
        word = reduced_word(w)
        assert len(word) == w.length()
        assert element_from_word(rs, word) == w


def test_reduced_word_round_trips_on_e6():
    rs = system("E6")
    for word in ([], [0, 1, 2, 3, 4, 5, 2, 3], [5, 4, 3, 2, 1, 0] * 3, [1, 1, 2]):
        w = element_from_word(rs, word)
        assert len(reduced_word(w)) == w.length()
        assert element_from_word(rs, reduced_word(w)) == w


def test_trace_with_a_part_in_c_is_refused():
    # the rotation s1 s2 of I2(5) has trace 2cos(2pi/5) = c - 1, c the golden
    # ratio: no involution has it
    rs = system("I2(5)")
    with pytest.raises(ValueError, match="not an integer"):
        involution_reflection_length(rs, element_from_word(rs, [0, 1]).perm)
