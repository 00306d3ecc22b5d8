"""The per-element signed data and per-subset parabolic data of `GroupData`,
the sweep runners that read them, and the pair-pass guard.

The public predicates (`spartan_support_check`, `overlap_check`,
`swapcycle_check`, `dn_condition_check`) and `inverting_signed_involutions`
are the references: every fast form is held to them on every element of the
groups below, and on pairs that break the rules."""

import sys
from collections import Counter

import pytest

from conftest import data, descriptor, system
from coxex import (GroupData, GuardExceeded, dn_condition_check,
                   inverting_involutions, make_config, overlap_check,
                   run_suite, spartan_pairs, spartan_support_check,
                   split_context, swapcycle_check)
from coxex.elements import involution_count, involution_tables
from coxex.excess import (_cycle_types, _dn_condition, _inverting_signed_images,
                          _support_holds, _swap_candidates, _swaps_interleave,
                          inverting_signed_involutions)
from coxex.parabolic import generator_subsets, parabolic_context, split_values
from coxex.signedperm import SignedCycle, SignedPermutation, _cycles
from coxex import verify

# the package exports the function excess, which shadows the module
excess_module = sys.modules["coxex.excess"]

SIGNED_GROUPS = ("A3", "A4", "A5", "B3", "B4", "B5", "D4", "D5")


def _points(mask: int) -> set[int]:
    return {p for p in range(1, mask.bit_length()) if mask >> p & 1}


def _outcome(f, *args):
    """f's value, or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _reference_cycles(sp):
    """The non-trivial cycles by their own walk, each from its least point."""
    seen = [False] * sp.degree
    out = []
    for start in range(1, sp.degree + 1):
        if seen[start - 1] or sp.images[start - 1] == start:
            continue
        pts, sgn = [], []
        p = start
        while not seen[p - 1]:
            seen[p - 1] = True
            v = sp.images[p - 1]
            pts.append(p)
            sgn.append(1 if v > 0 else -1)
            p = abs(v)
        out.append(SignedCycle(tuple(pts), tuple(sgn)))
    return tuple(out)


def _reference_all_cycles(sp):
    """`_reference_cycles`, then the fixed points as positive 1-cycles."""
    cycles = list(_reference_cycles(sp))
    moved = {p for c in cycles for p in c.points}
    cycles.extend(SignedCycle((p,), (1,))
                  for p in range(1, sp.degree + 1) if p not in moved)
    return cycles


def _reference_cycle_types(images):
    """The orbits of every cycle from its least point, by a walk that tracks
    the sign of w^j(p0), grouped by (length, sign type)."""
    types = {}
    seen = [False] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        orbit = []
        p, sign = start, 1  # w^j(p0) = sign p
        while not seen[p]:
            seen[p] = True
            orbit.append(sign * p)
            v = images[p - 1]
            if v < 0:
                p, sign = -v, -sign
            else:
                p = v
        types.setdefault((len(orbit), sign), []).append(tuple(orbit))
    return types


@pytest.mark.parametrize("token", SIGNED_GROUPS)
def test_the_cycle_walk_matches_the_reference_walks(token):
    gd = data(token)
    for i in range(len(gd)):
        sp = gd.signed_perm(i)
        assert sp.cycles().cycles == _reference_cycles(sp)
        assert _cycles(sp.images) == tuple((c.points, c.signs)
                                           for c in _reference_all_cycles(sp))
        # the same keys, and the same list per key; only the key order differs
        assert _cycle_types(sp.images) == _reference_cycle_types(sp.images)


@pytest.mark.parametrize("token", SIGNED_GROUPS)
def test_signed_fields_match_the_signed_permutation(token):
    gd = data(token)
    n = gd.rs.components[0].degree
    for i in range(len(gd)):
        sp = gd.signed_perm(i)
        f = gd.signed_fields(i)
        assert _points(f.support) == sp.positive_support()
        assert _points(f.negated) == {p for p in range(1, n + 1) if sp.images[p - 1] == -p}
        identity = SignedPermutation.identity(n)
        assert _points(f.straddle) == {m for m in range(1, n)
                                       if not overlap_check(sp, identity, m)}


@pytest.mark.parametrize("token", SIGNED_GROUPS)
def test_spartan_pairs_and_their_verdicts_match_the_references(token):
    gd = data(token)
    rs, fam = gd.rs, gd.rs.family
    n = rs.components[0].degree
    for wi in range(len(gd)):
        w = gd.signed_perm(wi)
        fw = gd.signed_fields(wi)
        spartan = gd.spartan_of(wi)
        assert spartan is gd.spartan_of(wi)  # cached
        # the exhaustive InvolutionSet path gives the same pairs, in order
        ref = spartan_pairs(gd.element(wi), inverting_involutions(rs, gd.element(wi)))
        assert [(gd.perms[x], gd.perms[y]) for x, y in spartan] == [
            (p.x.perm, p.y.perm) for p in ref]
        candidates = _swap_candidates(_cycles(w.images))
        for xi, yi in spartan:
            x, y = gd.signed_perm(xi), gd.signed_perm(yi)
            fx, fy = gd.signed_fields(xi), gd.signed_fields(yi)
            assert _support_holds(fx, fy, fw, fam) == spartan_support_check(x, y, w, fam)
            for m in range(1, n):
                assert (not (fx.straddle | fy.straddle) >> m & 1) == overlap_check(x, y, m)
            assert _swaps_interleave(candidates, y.images) == swapcycle_check(x, y, w)
        if fam == "D":  # outside the split subgroup both refuse w
            for m in split_values(rs):
                assert (_outcome(_dn_condition, _cycles(w.images), n, m)
                        == _outcome(dn_condition_check, w, m))


@pytest.mark.parametrize("token", ["A3", "B3", "D4"])
def test_fast_predicates_reject_what_the_references_reject(token):
    # every factorization pair of every element, spartan or not: many break
    # the rules, and each verdict is the reference's
    gd = data(token)
    rs, fam = gd.rs, gd.rs.family
    n = rs.components[0].degree
    rejected = Counter()
    for wi in range(len(gd)):
        w, fw = gd.signed_perm(wi), gd.signed_fields(wi)
        candidates = _swap_candidates(_cycles(w.images))
        for xi, yi in gd.pairs[wi]:
            x, y = gd.signed_perm(xi), gd.signed_perm(yi)
            fx, fy = gd.signed_fields(xi), gd.signed_fields(yi)
            support = spartan_support_check(x, y, w, fam)
            assert _support_holds(fx, fy, fw, fam) == support
            swap = swapcycle_check(x, y, w)
            assert _swaps_interleave(candidates, y.images) == swap
            overlap = [overlap_check(x, y, m) for m in range(1, n)]
            assert [not (fx.straddle | fy.straddle) >> m & 1 for m in range(1, n)] == overlap
            rejected.update(support=not support, swap=not swap, overlap=not all(overlap))
    assert all(rejected[k] for k in ("support", "swap", "overlap")), rejected


def _reference_support(gd, config, notes):
    t = verify._Tally()
    for wi in range(len(gd)):
        for xi, yi in gd.spartan_of(wi):
            ok = spartan_support_check(gd.signed_perm(xi), gd.signed_perm(yi),
                                       gd.signed_perm(wi), gd.rs.family)
            t.check(ok, lambda: (gd.display(wi), "-",
                                 f"pair ({gd.display(xi)}, {gd.display(yi)})",
                                 "support rule holds"))
    return t


def _reference_overlap(gd, config, notes):
    t = verify._Tally()
    for m in split_values(gd.rs):
        mask = split_context(gd.rs, m).mask
        for wi in [i for i, b in enumerate(gd.bits) if b & ~mask == 0]:
            for xi, yi in gd.spartan_of(wi):
                ok = overlap_check(gd.signed_perm(xi), gd.signed_perm(yi), m)
                t.check(ok, lambda: (gd.display(wi), f"m={m}",
                                     f"pair ({gd.display(xi)}, {gd.display(yi)})",
                                     "2-cycles respect the split"))
    return t


def _reference_swapcycle(gd, config, notes):
    t = verify._Tally()
    for wi in range(len(gd)):
        for xi, yi in gd.spartan_of(wi):
            ok = swapcycle_check(gd.signed_perm(xi), gd.signed_perm(yi), gd.signed_perm(wi))
            t.check(ok, lambda: (gd.display(wi), "-",
                                 f"pair ({gd.display(xi)}, {gd.display(yi)})",
                                 "swapped cycles overlap"))
    return t


@pytest.mark.parametrize("runner, reference", [
    (verify._run_spartan_support, _reference_support),
    (verify._run_spartan_overlap, _reference_overlap),
    (verify._run_spartan_swapcycle, _reference_swapcycle)])
@pytest.mark.parametrize("token", ["B3", "D4"])
def test_spartan_runners_fail_perturbed_pairs_as_the_references_do(token, runner, reference):
    # every pair of I_w stands in for the spartan pairs, so that the rules
    # break; counts and counterexample text are the reference runner's
    gd = GroupData(system(token))
    gd.spartan_of = gd.pairs.__getitem__
    config = make_config([])
    new, ref = runner(gd, config, {}), reference(gd, config, {})
    assert ref.failures > 0
    assert (new.passes, new.failures, new.bad) == (ref.passes, ref.failures, ref.bad)


def test_dn_runner_fails_perturbed_excess_as_the_reference_does(monkeypatch):
    # e_J is raised on every other member, so the conditional checks fail
    gd = GroupData(system("D4"))
    excess_in = gd.excess_in
    monkeypatch.setattr(gd, "excess_in", lambda wi, mask: excess_in(wi, mask) + 2 * (wi % 2))
    notes: dict = {}
    new = verify._run_parabolic_excess_dn(gd, make_config([]), notes)
    ref = verify._Tally()
    for m in split_values(gd.rs):
        mask = split_context(gd.rs, m).mask
        for wi in [i for i, b in enumerate(gd.bits) if b & ~mask == 0]:
            cond = dn_condition_check(gd.signed_perm(wi), m)
            ej, e = gd.excess_in(wi, mask), gd.excess_of(wi)
            if cond.value != "none":
                ref.check(ej == e, lambda: (gd.display(wi), f"m={m}",
                                            f"e_J={ej} ({cond.value})", f"e={e}"))
    assert ref.failures > 0
    assert (new.passes, new.failures, new.bad) == (ref.passes, ref.failures, ref.bad)
    assert notes["unconditional_gaps_observed"] >= ref.failures


@pytest.mark.parametrize("theorem, accessor, of, letter", [
    ("parabolic-excess", "excess_in", "excess_of", "e"),
    ("parabolic-reflection-excess", "refl_excess_in", "refl_excess_of", "E")])
def test_parabolic_equality_runners_fail_perturbed_excess_as_the_reference_does(
        theorem, accessor, of, letter, monkeypatch):
    # the parabolic excess is raised on every other member; the two
    # registered theorems share one loop and differ in the letter e or E
    gd = GroupData(system("B3"))
    excess_in = getattr(gd, accessor)
    monkeypatch.setattr(gd, accessor, lambda wi, mask: excess_in(wi, mask) + 2 * (wi % 2))
    config = make_config([])
    new = verify.THEOREMS[theorem].runner(gd, config, {})
    ref = verify._Tally()
    for J in generator_subsets(gd.rs, config.parabolic):
        ctx = parabolic_context(gd.rs, J)
        jd = " ".join(str(j) for j in ctx.J_display) or "-"
        for wi in [i for i, b in enumerate(gd.bits) if b & ~ctx.mask == 0]:
            ej, e = getattr(gd, accessor)(wi, ctx.mask), getattr(gd, of)(wi)
            ref.check(ej == e, lambda: (gd.display(wi), jd, f"{letter}_J={ej}", f"{letter}={e}"))
    assert ref.failures > 0
    assert (new.passes, new.failures, new.bad) == (ref.passes, ref.failures, ref.bad)
    # the first failure: the generator r1 = (+1 +2) in W_{1}, of excess 0
    assert new.bad[0] == verify.Counterexample("(+1 +2)", "1", f"{letter}_J=2", f"{letter}=0")


@pytest.mark.parametrize("theorem", ["cuspidal-full-inversions", "centre-full-inversions"])
def test_full_niw_runners_fail_perturbed_niw_as_the_reference_does(theorem, monkeypatch):
    # a root is dropped from N(I_w) on every other element; the two theorems
    # share one loop and differ in the elements they check
    gd = GroupData(system("B3"))
    niw_bits = gd.niw_bits
    monkeypatch.setattr(gd, "niw_bits", lambda wi: niw_bits(wi) & ~(wi % 2))
    notes: dict = {}
    new = verify.THEOREMS[theorem].runner(gd, make_config([]), notes)
    full, npos = gd.rs.full_mask(), gd.rs.num_positive
    cuspidal = theorem.startswith("cuspidal")
    ref = verify._Tally()
    for wi in range(len(gd)):
        if cuspidal and gd.reflection_length(wi) != gd.rs.rank:
            continue
        ref.check(gd.niw_bits(wi) == full, lambda: (
            gd.display(wi), "-", f"|N(I_w)|={gd.niw_bits(wi).bit_count()}", f"all {npos}"))
    assert ref.failures > 0
    assert (new.passes, new.failures, new.bad) == (ref.passes, ref.failures, ref.bad)
    assert notes == ({"cuspidal_elements": ref.passes + ref.failures} if cuspidal else {})


@pytest.mark.parametrize("token", ["B3", "B4", "B5", "D4", "D5"])
def test_shared_block_memo_gives_each_elements_own_members(token):
    ambient, n = token[0], int(token[1:])
    gd = data(token)
    shared: dict = {}
    for i in range(len(gd)):
        sp = gd.signed_perm(i)
        alone = _inverting_signed_images(sp, ambient)
        assert alone == [x.images for x in inverting_signed_involutions(sp, ambient)]
        assert _inverting_signed_images(sp, ambient, blocks=shared) == alone
    # one memo may serve both ambients: the parity split is part of a key
    both: dict = {}
    for i in range(0, len(gd), 7):
        sp = gd.signed_perm(i)
        if sp.is_positive():
            for amb in ("B", "D"):
                assert (_inverting_signed_images(sp, amb, blocks=both)
                        == _inverting_signed_images(sp, amb))


def test_one_suite_builds_each_elements_signed_data_and_each_context_once(monkeypatch):
    conversions, decompositions, contexts = Counter(), Counter(), Counter()
    from_root_perm = excess_module.from_root_perm
    cycles = SignedPermutation.cycles
    parabolic_context = excess_module.parabolic_context

    def counted_conversion(w, *args):
        conversions[w.perm] += 1
        return from_root_perm(w, *args)

    def counted_cycles(sp):
        decompositions[sp.images] += 1
        return cycles(sp)

    def counted_context(rs, J):
        contexts[tuple(J)] += 1
        return parabolic_context(rs, J)
    monkeypatch.setattr(excess_module, "from_root_perm", counted_conversion)
    monkeypatch.setattr(SignedPermutation, "cycles", counted_cycles)
    for module in ("coxex.excess", "coxex.parabolic"):
        monkeypatch.setattr(sys.modules[module], "parabolic_context", counted_context)
    res = run_suite(make_config([descriptor("D4")], parabolic="all"))
    assert res.failures_total == 0
    # the identity and the four generators; every other element's images
    # are its BFS parent's read through one generator's
    rs = system("D4")
    assert set(conversions) == {tuple(range(1, 13)), *rs.gen_tables}
    assert max(conversions.values()) == 1
    assert max(decompositions.values(), default=1) == 1
    assert len(contexts) == 16 and max(contexts.values()) == 1


# ------------------------------------------------------------ pair-pass guard

@pytest.mark.parametrize("token", [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6", "D4", "D5",
    "D6", "F4", "H3", "H4", "E6", "A2xA1"] + [f"I2({m})" for m in range(5, 13)])
def test_involution_count_closed_forms_match_the_closure(token):
    rs = system(token)
    assert involution_count(rs) == len(involution_tables(rs).tables)


def test_involution_counts_of_the_groups_refused_at_the_default_guard():
    # each passes the |W| guard of 10^7; its pair pass would not finish
    counts = {t: involution_count(system(t)) for t in ("A9", "B7", "D7", "D8", "E7")}
    assert counts == {"A9": 9496, "B7": 6512, "D7": 3256, "D8": 17040, "E7": 10208}
    assert all(system(t).order() <= 10 ** 7 < k * k for t, k in counts.items())


def test_pair_pass_is_refused_before_any_bfs(monkeypatch):
    # B4: |W| = 384 passes a guard of 1,000, and 76^2 = 5,776 pairs do not
    def no_bfs(*args, **kwargs):
        raise AssertionError("enumerated")
    monkeypatch.setattr(excess_module, "bfs_tables", no_bfs)
    message = r"^76\^2 = 5776 involution pairs of W\(B4\) exceed guard 1000$"
    with pytest.raises(GuardExceeded, match=message):
        GroupData(system("B4"), guard=1000)
    with pytest.raises(GuardExceeded, match=message):
        run_suite(make_config([descriptor("A2"), descriptor("B4")], guard=1000))
    # the |W| check keeps its message, and comes first
    with pytest.raises(GuardExceeded, match=r"^\|W\(B4\)\| = 384 exceeds guard 100$"):
        run_suite(make_config([descriptor("B4")], guard=100))
    monkeypatch.setenv("COXEX_GUARD", "5775")
    with pytest.raises(GuardExceeded, match="exceed guard 5775$"):
        GroupData(system("B4"))
    monkeypatch.undo()
    assert len(GroupData(system("B4"), guard=5776)) == 384
