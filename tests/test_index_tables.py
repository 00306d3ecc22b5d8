"""The right multiplication tables of `GroupData` and what the sweep reads
off them: BFS parents, signed images chained down the BFS tree, the
`SignedFields` read from images, the W_J closures of `parabolic-length`
and the every-pair Lemma 2.2 kernel; with them, the bounded block memo of
the structured oracle.  Each is held to the path it replaced, kept here
as the reference."""

import random
import sys

import pytest

from conftest import data, keyed_product
from coxex import make_config, verify
from coxex.elements import compose_tables, identity_table, key_sep, key_table, simple_key
from coxex.excess import SignedFields, _fields_of
from coxex.parabolic import generator_subsets
from coxex.signedperm import _cycles, from_root_perm

# the package exports the function excess, which shadows the module
excess_module = sys.modules["coxex.excess"]

# the groups of scripts/run_theorem_sweeps.py
SCRIPT_GROUPS = ("A3", "A4", "B3", "B4", "D4", "D5", "H3", "H4", "F4",
                 "I2(5)", "I2(6)", "I2(7)", "I2(8)", "A2xA1", "A1xA1xA1")
SWEEP_GROUPS = ("A3", "A4", "B3", "D4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
                "A2xA1", "A1xA1xA1")
SIGNED_GROUPS = ("A3", "A4", "A5", "B3", "B4", "B5", "D4", "D5")


@pytest.mark.parametrize("token", SCRIPT_GROUPS + ("E6",))
def test_right_tables_and_parents_match_composed_tables(token):
    gd = data(token)
    rs = gd.rs
    right = gd.right
    assert right is gd.right  # built once
    assert len(right) == rs.rank and all(len(row) == len(gd) for row in right)
    for i, p in enumerate(gd.perms):
        for r, g in enumerate(rs.gen_tables):
            assert right[r][i] == gd.at_key[simple_key(compose_tables(p, g), rs.simple_indices)]
        if i:  # generators are involutions: w_i s is the parent, for s last in its word
            parent = right[gd.words[i][-1]][i]
            assert parent < i and gd.words[parent] == gd.words[i][:-1]


@pytest.mark.parametrize("token", SWEEP_GROUPS + ("B4", "E6"))
def test_products_down_the_words_match_keyed_products(token):
    # every pair of a sweep group, where the Lemma 2.2 kernel chains the
    # same tables; B4 and E6 take the drawn path, which calls `_product`
    gd = data(token)
    keyed = keyed_product(gd)
    n = len(gd)
    rng = random.Random(token)
    pairs = ([(gi, hi) for gi in range(n) for hi in range(n)] if n <= 200
             else [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)])
    for gi, hi in pairs:
        assert verify._product(gd, gi, hi) == keyed(gi, hi), (token, gi, hi)


@pytest.mark.parametrize("token", SIGNED_GROUPS)
def test_chained_signed_images_match_from_root_perm(token):
    gd = data(token)
    for i in range(len(gd)):
        assert gd.signed_perm(i).images == from_root_perm(gd.element(i)).images


def _signed_fields(cycles) -> SignedFields:
    """`SignedFields` from an element's `_cycles`: the reference of
    `_fields_of`."""
    support = negated = straddle = 0
    for points, signs in cycles:
        if len(points) == 1:
            if signs[0] < 0:
                support |= 1 << points[0]
                negated |= 1 << points[0]
            continue
        for p in points:
            support |= 1 << p
        if len(points) == 2:
            straddle |= (1 << points[1]) - (1 << points[0])
    return SignedFields(support, negated, straddle)


@pytest.mark.parametrize("token", SIGNED_GROUPS)
def test_fields_from_images_match_fields_from_cycles(token):
    gd = data(token)
    for i in range(len(gd)):
        images = gd.signed_perm(i).images
        assert gd.signed_fields(i) == _fields_of(images) == _signed_fields(_cycles(images))


def _keyed_parabolic_length(gd, config, notes):
    """`parabolic-length` with W_J closed on keys: one translate of a
    level's keys through each generator of J gives the next level."""
    rs = gd.rs
    sep = key_sep(rs.num_positive)
    start = simple_key(identity_table(rs.num_positive), rs.simple_indices)
    t = verify._Tally()
    for J in generator_subsets(rs, config.parabolic):
        if not J:
            continue
        ctx, _ = gd.parabolic(J)
        tables = [key_table(rs.gen_tables[r]) for r in J]
        jd = " ".join(str(j) for j in ctx.J_display)
        level, seen, depth = [start], {start}, 0
        while level:
            for wi in map(gd.at_key.__getitem__, level):
                ok = ctx.contains_table(gd.bits[wi]) and gd.lengths[wi] == depth
                t.check(ok, lambda: (gd.display(wi), jd, f"ambient length {gd.lengths[wi]}",
                                     f"subgroup word length {depth}"))
            packed = sep.join(level)
            level = []
            for ks in zip(*[packed.translate(table).split(sep) for table in tables]):
                for k in ks:
                    if k not in seen:
                        seen.add(k)
                        level.append(k)
            depth += 1
    return t


@pytest.mark.parametrize("token", SWEEP_GROUPS + ("A5", "B5", "D5"))
def test_parabolic_length_matches_the_keyed_closure(token):
    gd = data(token)
    config = make_config([], parabolic="all")
    new = verify._run_parabolic_length(gd, config, {})
    ref = _keyed_parabolic_length(gd, config, {})
    assert new.failures == 0
    assert (new.passes, new.failures, new.bad) == (ref.passes, ref.failures, ref.bad)


def test_parabolic_length_fails_perturbed_lengths_as_the_keyed_closure_does():
    # every other element claims one inversion too many, so its depth in
    # each W_J disagrees; counts and counterexamples are the reference's
    gd = excess_module.GroupData(data("B3").rs)
    gd.lengths = [lg + i % 2 for i, lg in enumerate(gd.lengths)]
    config = make_config([], parabolic="all")
    new = verify._run_parabolic_length(gd, config, {})
    ref = _keyed_parabolic_length(gd, config, {})
    assert ref.failures > 0
    assert (new.passes, new.failures, new.bad) == (ref.passes, ref.failures, ref.bad)


@pytest.mark.parametrize("token", ["B4", "D4"])
def test_structured_oracle_with_a_cleared_memo_keeps_its_verdicts(token, monkeypatch):
    gd = data(token)
    config = make_config([])
    kept = verify._run_structured_iw(gd, config, {})
    monkeypatch.setattr(verify, "MAX_BLOCKS", 3)
    cleared = verify._run_structured_iw(gd, config, {})
    assert kept.failures == 0
    assert (cleared.passes, cleared.failures, cleared.bad) == (kept.passes, 0, ())
