from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constructive_inverter, system
from coxex import (GuardExceeded, centralizer_elements, centralizer_generators,
                   group_elements)
from coxex.excess import centralizer_order
from coxex.signedperm import (SignedPermutation, from_root_perm, parse,
                              to_root_perm)

D12_W = "(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)"


def signed_perms(max_n=8):
    def build(draw_data):
        perm, signs = draw_data
        return SignedPermutation(tuple(p if s else -p for p, s in zip(perm, signs)))
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)),
                            st.lists(st.booleans(), min_size=n, max_size=n))
    ).map(build)


def test_parse_goldens():
    sp = parse("(+1 +2)", 2)
    assert sp.images == (2, 1)
    sp = parse("(-5)", 5)
    assert sp.images == (1, 2, 3, 4, -5)
    w = parse(D12_W, 12)
    assert w.images == (1, 4, -2, 6, 3, 8, 5, 10, 7, 12, 9, -11)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("(+1 +1)", 3)          # repeated point
    with pytest.raises(ValueError):
        parse("(+1 +9)", 3)          # out of range
    with pytest.raises(ValueError):
        parse("(+1 2)", 3)           # missing sign
    with pytest.raises(ValueError):
        parse("(+1 +2", 3)           # unbalanced
    with pytest.raises(ValueError):
        parse("junk(+1 +2)", 3)


def test_format_canonical():
    w = parse(D12_W, 12)
    assert w.format() == D12_W
    assert parse("(+3 +5 +2)", 5).format() == "(+2 +3 +5)"
    assert SignedPermutation.identity(4).format() == "()"
    assert parse("()", 4) == SignedPermutation.identity(4)
    # positive 1-cycles are accepted on parse and suppressed on format
    assert parse("(+2)(+1 +3)", 3).format() == "(+1 +3)"


@settings(max_examples=200)
@given(signed_perms())
def test_parse_format_round_trip(sp):
    assert parse(sp.format(), sp.degree) == sp


@settings(max_examples=100)
@given(signed_perms(), signed_perms())
def test_group_laws(a, b):
    if a.degree != b.degree:
        a = SignedPermutation.identity(b.degree) if a.degree < b.degree else a
        b = SignedPermutation.identity(a.degree)
    prod = a * b
    assert (prod * prod.inverse()).is_identity()
    assert prod.inverse() == b.inverse() * a.inverse()


def test_sign_and_support():
    assert SignedPermutation.identity(5).is_positive()
    assert not parse("(-5)", 5).is_positive()
    w = parse(D12_W, 12)
    assert w.is_positive() and w.in_D()
    assert w.positive_support() == frozenset(range(2, 13))
    assert SignedPermutation.identity(5).positive_support() == frozenset()
    assert parse("(-5)", 5).positive_support() == {5}


def test_sign_multiplicativity_exhaustive_b3():
    rs = system("B3")
    sps = [from_root_perm(w) for w in group_elements(rs)]
    for a in sps:
        for b in sps:
            assert (a * b).is_positive() == (a.is_positive() == b.is_positive())


def test_composition_golden_sym5():
    assert (parse("(+2 +3)", 5) * parse("(+2 +5)", 5)).format() == "(+2 +3 +5)"


def test_cycle_decomposition():
    assert parse("()", 3).cycles().cycles == ()
    dec = parse("(+1 +2 +3 +4)(+5 +6 +7)", 7).cycles()
    assert dec.lengths() == (4, 3)
    assert all(c.sign_type == 1 for c in dec.cycles)
    w = parse(D12_W, 12).cycles()
    assert w.lengths() == (11,)
    assert w.cycles[0].points[0] == 2
    assert 1 not in {p for c in w.cycles for p in c.points}
    neg = parse("(+1 -2)", 2).cycles().cycles[0]
    assert neg.sign_type == -1


def test_to_root_perm_goldens():
    rs = system("A1")
    t = to_root_perm(parse("(+1 +2)", 2), rs)
    assert t.inversions() == 1  # negates the only root e1 - e2
    rs5 = system("A4")
    w = to_root_perm(parse("(+2 +3 +5)", 5), rs5)
    assert rs5.labels_of_bits(w.inversions()) == {"e2-e5", "e3-e4", "e3-e5", "e4-e5"}
    # both roots of the D2 subsystem {e1-e2, e1+e2} are negated by (-1)(-2)
    rsb2 = system("B2")
    z = to_root_perm(parse("(-1)(-2)", 2), rsb2)
    neg = rsb2.labels_of_bits(z.inversions())
    assert {"e1-e2", "e1+e2"} <= neg


def test_to_root_perm_rejects_bad_elements():
    with pytest.raises(ValueError):
        to_root_perm(parse("(-1)", 4), system("D4"))  # negative, not in D
    with pytest.raises(ValueError):
        to_root_perm(parse("(-1)", 5), system("A4"))  # signs not in A
    with pytest.raises(ValueError):
        to_root_perm(parse("(+1 +2)", 3), system("B4"))  # degree mismatch


@pytest.mark.parametrize("token", ["A3", "B3", "D4"])
def test_from_root_perm_round_trip(token):
    rs = system(token)
    for w in group_elements(rs):
        sp = from_root_perm(w)
        assert to_root_perm(sp, rs) == w


def test_homomorphism_exhaustive_b3():
    rs = system("B3")
    elems = group_elements(rs)
    sps = [from_root_perm(w) for w in elems]
    for a, pa in zip(elems, sps):
        assert from_root_perm(a.inverse()) == pa.inverse()
        for b, pb in zip(elems, sps):
            assert to_root_perm(pa * pb, rs) == a * b


def test_homomorphism_b4_exhaustive_by_generators():
    # products with every generator for every element, plus all inverses;
    # this pins the full homomorphism by induction on word length
    rs = system("B4")
    elems = group_elements(rs)
    simple = [e for e in elems if e.length() == 1]
    gens = [from_root_perm(g) for g in simple]
    for w in elems:
        sp = from_root_perm(w)
        assert from_root_perm(w.inverse()) == sp.inverse()
        for g, gsp in zip(simple, gens):
            assert from_root_perm(w * g) == sp * gsp


MODEL_GROUPS = ([f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 8)]
                + [f"D{n}" for n in range(4, 8)])


@st.composite
def model_elements(draw, count=2):
    """A group of type A, B or D of rank <= 7 and random elements of it."""
    token = draw(st.sampled_from(MODEL_GROUPS))
    n = system(token).components[0].degree
    out = []
    for _ in range(count):
        perm = draw(st.permutations(range(1, n + 1)))
        signs = [1] * n if token[0] == "A" else draw(
            st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        if token[0] == "D" and signs.count(-1) % 2:
            signs[0] = -signs[0]
        out.append(SignedPermutation(tuple(p * s for p, s in zip(perm, signs))))
    return (token, *out)


def _simple_generator(token, r):
    """Signed permutation of the r-th simple reflection (0-based)."""
    n = system(token).components[0].degree
    images = list(range(1, n + 1))
    fam = token[0]
    if fam == "B" and r == n - 1:
        images[n - 1] = -n                            # s_n = e_n -> -e_n
    elif fam == "D" and r == n - 1:
        images[n - 2], images[n - 1] = -n, -(n - 1)   # e_{n-1} + e_n
    else:
        images[r], images[r + 1] = r + 2, r + 1       # e_{r+1} - e_{r+2}
    return SignedPermutation(images)


@pytest.mark.parametrize("token", MODEL_GROUPS + ["D12"])
def test_simple_generators_map_to_generator_tables(token):
    rs = system(token)
    for r in range(rs.rank):
        sp = _simple_generator(token, r)
        assert to_root_perm(sp, rs).perm == rs.gen_tables[r]
        assert from_root_perm(to_root_perm(sp, rs)) == sp


@settings(max_examples=300)
@given(model_elements())
def test_to_root_perm_is_a_homomorphism(drawn):
    token, a, b = drawn
    rs = system(token)
    ta, tb = to_root_perm(a, rs), to_root_perm(b, rs)
    assert to_root_perm(a * b, rs) == ta * tb
    assert from_root_perm(ta) == a
    assert from_root_perm(to_root_perm(a * b, rs)) == a * b


@settings(max_examples=300)
@given(model_elements(count=0), st.integers(min_value=0), st.booleans())
def test_root_lookups_agree_on_fractions_and_ints(drawn, pick, negate):
    rs = system(drawn[0])
    i = pick % rs.num_positive
    root = rs.positive_roots[i]
    if negate:
        root = tuple(-x for x in root)
    as_ints = tuple(int(x) for x in root)
    as_fractions = tuple(Fraction(x) for x in as_ints)
    assert rs.signed_index_of(as_ints) == rs.signed_index_of(as_fractions) \
        == (-(i + 1) if negate else i + 1)
    if negate:
        for vec in (as_ints, as_fractions):
            with pytest.raises(KeyError):
                rs.index_of(vec)
    else:
        assert rs.index_of(as_ints) == rs.index_of(as_fractions) == i
    # twice a root is not a root, in either form
    for vec in (tuple(2 * x for x in as_ints), tuple(2 * x for x in as_fractions)):
        with pytest.raises(KeyError):
            rs.signed_index_of(vec)


def _brute_centralizer(sp, ambient_sps):
    return sorted((g.images for g in ambient_sps
                   if (g * sp) == (sp * g)))


def test_centralizer_matches_brute_force_b3():
    rs = system("B3")
    all_sps = [from_root_perm(w) for w in group_elements(rs)]
    for sp in all_sps:
        brute = _brute_centralizer(sp, all_sps)
        closed = sorted(g.images for g in centralizer_elements(sp, "B"))
        assert closed == brute


def test_centralizer_matches_brute_force_b4():
    rs = system("B4")
    all_sps = [from_root_perm(w) for w in group_elements(rs)]
    for sp in all_sps:
        brute = _brute_centralizer(sp, all_sps)
        closed = sorted(g.images for g in centralizer_elements(sp, "B"))
        assert closed == brute


def test_centralizer_matches_brute_force_d4():
    rs = system("D4")
    all_sps = [from_root_perm(w) for w in group_elements(rs)]
    for sp in all_sps:
        brute = _brute_centralizer(sp, all_sps)
        closed = sorted(g.images for g in centralizer_elements(sp, "D"))
        assert closed == brute


def test_centralizer_of_n_cycle_has_order_2n():
    # oracle for n = 3, 4: brute force over the whole hyperoctahedral group
    for n in (3, 4):
        rs = system(f"B{n}")
        all_sps = [from_root_perm(w) for w in group_elements(rs)]
        cyc = parse("(" + " ".join(f"+{i}" for i in range(1, n + 1)) + ")", n)
        assert len(_brute_centralizer(cyc, all_sps)) == 2 * n
        assert len(centralizer_elements(cyc, "B")) == 2 * n


def test_centralizer_of_identity_is_everything():
    assert len(centralizer_elements(SignedPermutation.identity(3), "B")) == 48
    assert len(centralizer_elements(SignedPermutation.identity(4), "D")) == 192


def test_centralizer_d12_order_44():
    w = parse(D12_W, 12)
    assert len(centralizer_elements(w, "B")) == 44


@pytest.mark.parametrize("token", ["B3", "B4", "B5"])
def test_centralizer_order_matches_the_closure(token):
    for w in group_elements(system(token)):
        sp = from_root_perm(w)
        assert centralizer_order(sp) == len(centralizer_elements(sp, "B"))


def test_centralizer_guard():
    with pytest.raises(GuardExceeded):
        centralizer_elements(SignedPermutation.identity(6), "B", guard=100)


@settings(max_examples=60)
@given(signed_perms(max_n=6))
def test_centralizer_generators_commute(sp):
    for ambient in ("B", "D"):
        for g in centralizer_generators(sp, ambient):
            assert g * sp == sp * g
            if ambient == "D":
                assert g.is_positive()


def test_constructive_inverter_golden():
    out = constructive_inverter(parse("(+2 +3 +5)", 5))
    assert out.format() == "(+3 +5)"


def test_constructive_inverter_exhaustive_b4():
    rs = system("B4")
    for w in group_elements(rs):
        sp = from_root_perm(w)
        x = constructive_inverter(sp)
        assert x.is_involution() or x.is_identity()
        assert sp.conjugated_by(x) == sp.inverse()


@settings(max_examples=200)
@given(signed_perms(max_n=8))
def test_constructive_inverter_property(sp):
    x = constructive_inverter(sp)
    assert (x * x).is_identity()
    assert sp.conjugated_by(x) == sp.inverse()


def test_constructive_inverter_d12():
    w = parse(D12_W, 12)
    x = constructive_inverter(w)
    assert (x * x).is_identity()
    assert w.conjugated_by(x) == w.inverse()


# ---------------------------------------------------------------------------
# the two-point conversions against the key-based reference they replace

def _to_root_perm_by_keys(sp, rs):
    """Reference: permute the coordinates of every root key and look the
    image up among the keys of all roots."""
    pull = sp.inverse().images
    return tuple(rs.key_index[tuple(key[v - 1] if v > 0 else -key[-v - 1] for v in pull)]
                 for key in rs.keys)


def _from_root_perm_by_keys(w):
    """Reference: read each point's image from the coordinates of the images
    of e_p (B), e_p - e_q (A) or e_p - e_q and e_p + e_q (D)."""
    rs = w.system
    fam = rs.family
    n = rs.components[0].degree
    images = [0] * n

    def image_key(*signed_points):
        vec = [0] * n
        for p in signed_points:
            vec[abs(p) - 1] = 1 if p > 0 else -1
        v = w.perm[rs.index_of(tuple(vec))]
        key = rs.keys[abs(v) - 1]
        return key if v > 0 else tuple(-x for x in key)

    for p in range(1, n + 1):
        if fam == "B":
            img = image_key(p)
        else:
            q = p + 1 if p < n else p - 1
            lo, hi = min(p, q), max(p, q)
            sign = 1 if p < q else -1
            diff = [sign * c for c in image_key(lo, -hi)]
            if fam == "A":
                img = [max(c, 0) for c in diff]
            else:
                img = [a + b for a, b in zip(diff, image_key(lo, hi))]
        (r, c), = [(r, c) for r, c in enumerate(img, start=1) if c]
        images[p - 1] = r if c > 0 else -r
    return SignedPermutation(images)


@pytest.mark.parametrize("token", [f"A{n}" for n in range(1, 7)]
                         + [f"B{n}" for n in range(2, 6)] + ["D4", "D5"])
def test_two_point_conversions_match_key_reference_on_every_element(token):
    rs = system(token)
    for w in group_elements(rs):
        sp = from_root_perm(w)
        assert sp == _from_root_perm_by_keys(w)
        assert to_root_perm(sp, rs).perm == _to_root_perm_by_keys(sp, rs) == w.perm


@st.composite
def large_model_elements(draw):
    """A random element of B7, D7 or D12."""
    token = draw(st.sampled_from(["B7", "D7", "D12"]))
    n = system(token).components[0].degree
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    if token[0] == "D" and signs.count(-1) % 2:
        signs[0] = -signs[0]
    return token, SignedPermutation(tuple(p * s for p, s in zip(perm, signs)))


@settings(max_examples=150, deadline=None)
@given(large_model_elements())
def test_two_point_conversions_match_key_reference_on_random_elements(drawn):
    token, sp = drawn
    rs = system(token)
    w = to_root_perm(sp, rs)
    assert w.perm == _to_root_perm_by_keys(sp, rs)
    assert from_root_perm(w) == _from_root_perm_by_keys(w) == sp


def test_is_involution_matches_squaring_on_b4():
    rs = system("B4")
    count = 0
    for w in group_elements(rs):
        sp = from_root_perm(w)
        assert sp.is_involution() == (sp * sp).is_identity()
        count += sp.is_involution()
    assert count == 76  # the identity and the 75 involutions of W(B4)


def test_constructor_still_checks_images():
    for bad in ((1, 1), (1, 3), (0, 2)):
        with pytest.raises(ValueError):
            SignedPermutation(bad)
    with pytest.raises(ValueError):
        SignedPermutation.identity(3) * SignedPermutation.identity(4)
