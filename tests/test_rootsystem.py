import copy
import hashlib
import json
import math
import re
from fractions import Fraction

import pytest

from conftest import system
from coxex import (GuardExceeded, build_root_system, load_root_system, parse_descriptor,
                   save_root_system)
from coxex import rootsystem
from coxex.rootsystem import minimal_polynomial, root_label, root_system_from_json

# sha256 of json.dumps(rs.to_json_dict(), sort_keys=True).  The
# crystallographic systems were recorded with the closure that computed in
# Fraction coordinates, and every later closure must reproduce them exactly;
# H3, H4 and I2(5)-I2(8) were recorded when their files became integer
# coefficients over Z[2cos(pi/m)], and TABLE_DIGESTS ties their tables to
# the float closure that came before
CLOSURE_DIGESTS = {
    "A1": "c8e404e100bcef374597537c39c4c4dcf7815e72a9ec334f9ec5f5ceb1144480",
    "A2": "b5aa1f0fabc2a9d911bc23efb5dccf5a55c9c333e3185ff1619a4de086f3fb2b",
    "A3": "6e80cc2955414d8a17d9d7cc9637e1bc4840511949422773f9ef9f6ba7c79d74",
    "A4": "7884acdb0bd0e89d07faea771f9c60140cc7cfd1b78b6cfab403864fedc09806",
    "A5": "9831df742f652e1d8875407bd02db76b5a82d0332577276a3580434cf0245f03",
    "A6": "69890e692e45ec5af063763b28b5c022c96fea6b1e2b8b93b036f2ad1a2564b5",
    "A7": "7a12653fdae91c43c914d398a46935e505440fda3a955b9bf70daf58121db191",
    "A8": "ca374c5872df121c8289018e49e7278c1c0fda555605b5180928878cd1d525d3",
    "B2": "c874eb3c17d115914c7f7f4c5f9d0ac791e0ad15faa7bc3f7632b9a0e249013c",
    "B3": "90edf2a7e228d649edd5023529c795a4b896087005d7e4d5bda1c59cf32e953f",
    "B4": "55472166260dbcb45e96afa59fa7bd301752c1914b8a51f0282fe9f6d5b3c98c",
    "B5": "a654c8f63497681b6b6feabe16f058c435a46b0221be97403728972defa92b29",
    "B6": "40e1579a097f84f65ead8ecf8b49bb8663aeba3b43e8775314d1bd1a21b93ec4",
    "B7": "266e3c1c22fa8255d39dcbf7e83ed185825182f3f96a623c31c3bc06b88c1fb8",
    "B8": "23d58e9920e3746b4f2dcc9eac7d410f4eafdfc3685acaa75e44dadfdd716fb5",
    "D4": "cb5fb7dd31af17b063a575aabf7e9a9c4475b8ee2a7aff1b8e56930e3a0970ac",
    "D5": "81f9ac4ad00aff37133a79b5fc4f6e8de375da3bac622bc86d8641ed481af572",
    "D6": "5e39933133b810f9cd97b456ee091cde32bdd05d2e062769d9d61119bf106202",
    "D7": "34e9e9c40460c52c182bda2ca0f601a96006c2471e69bbdbee69697e92c9586b",
    "D8": "607c6535559f7caa767733aaf87141bbff5d0f45968c5b50a900e626061f9079",
    "D12": "9f7634722e7fdf6cbce726466f1073b1052a3e1644c0ec45205880bf5bd56fb2",
    "F4": "0442a13b742e7dade67b02598a4b9998f59adbca73a51baba94c9340c354efec",
    "E6": "f0a69caaf59aace0b2c24ccd5a46e0db1512e517c541b26e0e276a51e97492f5",
    "E7": "1578941110f5af3949fba2a806e81efe08e2b18237f74f0d513f366c6940558a",
    "E8": "7e2f3d4f65fb17ba3922de6ce9f5f85723efdbc62c3876c2072417d7930f7862",
    "A2xA1": "51cf10975a297e241298967324cab896d4d247fba7f2a69d8f7c2b50404684c6",
    "A1xA1xA1": "32386f10d22985edd5f51739b10041a564bb89c14f10e255c85244bcfaf02d03",
    "B3xA2": "cd6e63e43e1e525693287eb786d8fbec52a1873694b3177736261ee1959a0483",
    "H3": "d93f829193813a134919f5ea70470053e2b6b69b5c01281536d325515f6f5fee",
    "H4": "564897048573c4a6b954b6e42e48fd4ec996e4a59ec99a7808dffe73550960bd",
    "I2(5)": "c2b4f8bbd0d6f5418c24a57d9ed857c565d40d15009f5dcca15047d9b4f11c07",
    "I2(6)": "a0723ca453989fed5584595713093d65a195c4748d9e22b8458001e4455682ec",
    "I2(7)": "f7bf8756d8d1cd0a7a701df87d22c6857a462e80e745a5acc84bad6e10566957",
    "I2(8)": "4d2a14eaea4bb5b2a46544d243224ffc1f8d38cb3efc70993bea6bf076a945a8",
}

# sha256 of json.dumps({"gen": ..., "refl": ..., "simple": ...}, sort_keys=True)
# over the generator tables, every reflection table and the simple indices,
# as lists: recorded from the float closure in the simple-root basis, with
# the bilinear form -cos(pi/m_rs), that H and I2 used before their integer
# realization
TABLE_DIGESTS = {
    "H3": "206f269be9a22f764745651fa497ee04acb274939563f0273fbdad0fca02b33b",
    "H4": "d3528baa306dd73f286eab031569772b1f2c29fcdf7b032b712710367b454250",
    "I2(5)": "dd932cc4dcaea00cd727d135fd442f4369d077d7811af38ca6ae0a4f3388ffab",
    "I2(6)": "a28fa0790e1d9202e60f309fe04c9b776224ea353380ed1458bf280764d2bf73",
    "I2(7)": "9b40162a8bf0ac4cd32267ffd7f64a41a9d9022a6ca1c4db32a3bcfbb39803bb",
    "I2(8)": "e9f59e7feafc1aad678b39879629a1f64032a412d707ed84387da803c82d413b",
    "I2(9)": "b74ada49a55cc815e041807b87f5846d90d3238b3e3752012e6273b27a475a4b",
    "I2(10)": "8c8355579b2afb082c2dc1a073c28bcd1e0617ddcd81b9f0436026b6f28e3e55",
    "I2(11)": "9985f3264a8a88123e9c2b35f26e08e30bb8f566ffe64cb932e600db024c967a",
    "I2(12)": "e40263d5bfdbe080ffca468e4d30c563d944be4e3f8927c86eaf62f433fe04b9",
}


def _frac_vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_a2_has_three_positive_roots():
    assert system("A2").num_positive == 3


def test_b3_roots_match_the_standard_list():
    # oracle: enumerate the forms e_i - e_j, e_i + e_j (i < j) and e_i directly
    expected = set()
    for i in range(3):
        for j in range(i + 1, 3):
            for sj in (1, -1):
                v = [0, 0, 0]
                v[i], v[j] = 1, sj
                expected.add(_frac_vec(*v))
        v = [0, 0, 0]
        v[i] = 1
        expected.add(_frac_vec(*v))
    rs = system("B3")
    assert set(rs.positive_roots) == expected
    assert rs.num_positive == 9


def test_d4_roots_match_the_standard_list():
    expected = set()
    for i in range(4):
        for j in range(i + 1, 4):
            for sj in (1, -1):
                v = [0, 0, 0, 0]
                v[i], v[j] = 1, sj
                expected.add(_frac_vec(*v))
    rs = system("D4")
    assert set(rs.positive_roots) == expected
    assert rs.num_positive == 12


@pytest.mark.parametrize("token,count", [
    ("A4", 10), ("B4", 16), ("D5", 20), ("I2(5)", 5), ("I2(8)", 8),
    ("H3", 15), ("H4", 60), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120),
])
def test_positive_root_counts(token, count):
    assert system(token).num_positive == count


def test_each_generator_negates_exactly_its_simple_root():
    for token in ["A3", "B3", "D4", "H3", "I2(7)", "F4"]:
        rs = system(token)
        for r, table in enumerate(rs.gen_tables):
            negated = [i for i, v in enumerate(table) if v < 0]
            assert negated == [rs.simple_indices[r]]


def test_tables_are_signed_permutations():
    for token in ["B3", "H3"]:
        rs = system(token)
        for table in rs.gen_tables:
            assert sorted(abs(v) for v in table) == list(range(1, rs.num_positive + 1))


def test_root_labels():
    rs = system("B3")
    assert rs.root_label(rs.index_of(_frac_vec(1, -1, 0))) == "e1-e2"
    assert rs.root_label(rs.index_of(_frac_vec(0, 1, 1))) == "e2+e3"
    assert rs.root_label(rs.index_of(_frac_vec(0, 0, 1))) == "e3"
    assert rs.index_of_label("e1+e3") == rs.index_of(_frac_vec(1, 0, 1))
    with pytest.raises(ValueError):
        root_label((Fraction(1, 2), Fraction(0)))


def test_serialization_round_trip_exact(tmp_path):
    rs = system("B3")
    path = tmp_path / "b3.json"
    save_root_system(rs, path)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "coxex.rootsystem/1"
    loaded = load_root_system(path)
    assert loaded.positive_roots == rs.positive_roots
    assert loaded.gen_tables == rs.gen_tables
    assert loaded.coeffs == rs.coeffs
    assert loaded.simple_indices == rs.simple_indices
    assert loaded.name == "B3"


def test_serialization_round_trip_dihedral(tmp_path):
    rs = build_root_system(parse_descriptor("I2(7)"))
    assert rs.field_degree == 3
    path = tmp_path / "i27.json"
    save_root_system(rs, path)
    doc = json.loads(path.read_text())
    assert doc["exact"] is True
    assert all(type(x) is int for v in doc["roots"] + doc["coeffs"] for x in v)
    assert all(len(v) == rs.rank * rs.field_degree for v in doc["roots"])
    loaded = load_root_system(path)
    assert loaded.positive_roots == rs.positive_roots
    assert loaded.gen_tables == rs.gen_tables
    assert loaded.coeffs == rs.coeffs
    assert loaded.simple_indices == rs.simple_indices
    assert loaded.num_positive == 7


def test_schema_field_is_checked():
    with pytest.raises(ValueError):
        root_system_from_json({"schema": "bogus/9"})


def test_reflection_tables_through_non_simple_roots():
    # each table is a generator table conjugated along a path of generators:
    # it must still be the involution negating exactly its own root
    from coxex.elements import compose_tables, identity_table
    for token in ["H4", "H3", "I2(7)", "F4"]:
        rs = system(token)
        for i in range(rs.num_positive):
            t = rs.reflection_table(i)
            assert sorted(abs(v) for v in t) == list(range(1, rs.num_positive + 1))
            assert t[i] == -(i + 1)
            assert compose_tables(t, t) == identity_table(rs.num_positive)


def test_product_root_system():
    rs = system("A2xA1")
    assert rs.num_positive == 4
    assert rs.rank == 3
    assert rs.order() == 12
    with pytest.raises(ValueError):
        build_root_system([parse_descriptor("A2"), parse_descriptor("H3")])


@pytest.mark.parametrize("token", sorted(CLOSURE_DIGESTS))
def test_closure_reproduces_fraction_digests(token):
    rs = system(token)
    text = json.dumps(rs.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLOSURE_DIGESTS[token]
    # Fraction coordinates for the crystallographic systems, int coefficients
    # for H and I2
    kind = int if token[0] in "HI" else Fraction
    assert all(type(x) is kind for v in rs.positive_roots for x in v)


def _two_pass_tables(rs):
    """The generator tables and simple indices as a second pass over the
    built roots once made them: every root and its negative indexed by its
    coefficients, then each root reflected through each rule."""
    comps = rs.components
    m, psi, d = rootsystem._ring(comps)
    simple_keys = rootsystem._simple_vectors_exact(comps) if m is None else None
    rules = rootsystem._reflection_rules(
        rootsystem._cartan_rows(comps, simple_keys, m, d), psi)
    index = {c: i + 1 for i, c in enumerate(rs.coeffs)}
    index.update((tuple(-x for x in c), -(i + 1)) for i, c in enumerate(rs.coeffs))
    tables = tuple(tuple(index[rootsystem._reflect(c, r, rule)] for c in rs.coeffs)
                   for r, rule in enumerate(rules))
    return tables, tuple(index[u] - 1 for u in rootsystem._unit_vectors(rs.rank, d))


ONE_PASS_GROUPS = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 11)]
                   + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8", "F4", "H3", "H4"]
                   + [f"I2({m})" for m in range(5, 41)]
                   + ["A2xA1", "A1xA1xA1", "B3xA1", "A2xB2"])


@pytest.mark.parametrize("token", ONE_PASS_GROUPS)
def test_closure_tables_match_a_second_reflection_pass(token):
    rs = system(token)
    assert (rs.gen_tables, rs.simple_indices) == _two_pass_tables(rs)


def test_closure_refuses_a_rule_that_does_not_negate_its_simple_root(monkeypatch):
    # s_2(alpha_2) comes back as alpha_2: the closure itself refuses it
    reflect = rootsystem._reflect

    def fixes_alpha_2(beta, r, rule):
        return beta if r == 1 and beta == (0, 1, 0) else reflect(beta, r, rule)
    monkeypatch.setattr(rootsystem, "_reflect", fixes_alpha_2)
    with pytest.raises(RuntimeError, match="^s2 does not negate its simple root$"):
        build_root_system(parse_descriptor("A3"))


def _saved(token, tmp_path):
    path = tmp_path / f"{token}.json"
    save_root_system(system(token), path)
    return json.loads(path.read_text())


def _differs(field, token):
    """The refusal of a file whose `field` differs from a fresh build."""
    return rf'^"{field}" differs from a fresh build of {re.escape(token)}$'


def _two_cycle(table):
    """Indices a < b with table[a] = b+1 and table[b] = a+1."""
    for a, v in enumerate(table):
        if v > a + 1 and table[v - 1] == a + 1:
            return a, v - 1
    raise AssertionError("no 2-cycle")


def _tamper_half_integer(doc):
    doc["roots"][0][0] = "1/3"


def _tamper_not_involution(doc):
    t = doc["generator_tables"]
    # s1 s2 has order 3 or more
    t[0] = [t[1][v - 1] if v > 0 else -t[1][-v - 1] for v in t[0]]


def _tamper_wrong_simple_root(doc):
    t = doc["generator_tables"]
    t[0] = list(t[1])


def _tamper_not_the_reflection(doc):
    # still an involution negating exactly its simple root, but a 2-cycle
    # of the reflection is replaced by two fixed roots
    t = doc["generator_tables"][0]
    a, b = _two_cycle(t)
    t[a], t[b] = a + 1, b + 1


def _tamper_coefficients(doc):
    row = doc["coeffs"][-1]
    row[0] += 1


def _tamper_swapped_generators(doc):
    # relabel generators 1 and 3 consistently in tables, simple roots and
    # coefficients: each table is still the reflection in its simple root,
    # but the Coxeter matrix of the descriptor no longer holds
    t, si = doc["generator_tables"], doc["simple_indices"]
    t[0], t[2] = t[2], t[0]
    si[0], si[2] = si[2], si[0]
    for c in doc["coeffs"]:
        c[0], c[2] = c[2], c[0]


# each id names what its tamper breaks; the refusal names the first field,
# in the order roots, coeffs, simple_indices, generator_tables, that differs
@pytest.mark.parametrize("token", ["B3", "F4"])
@pytest.mark.parametrize("tamper,field", [
    (_tamper_half_integer, "roots"),
    (_tamper_not_involution, "generator_tables"),
    (_tamper_wrong_simple_root, "generator_tables"),
    (_tamper_not_the_reflection, "generator_tables"),
    (_tamper_coefficients, "coeffs"),
    (_tamper_swapped_generators, "coeffs"),
], ids=["_tamper_half_integer-outside", "_tamper_not_involution-not an involution",
        "_tamper_wrong_simple_root-not exactly its simple root",
        "_tamper_not_the_reflection-differs from the reflection",
        "_tamper_coefficients-do not express", "_tamper_swapped_generators-is not the identity"])
def test_load_refuses_tampered_file(token, tamper, field, tmp_path):
    doc = _saved(token, tmp_path)
    assert root_system_from_json(copy.deepcopy(doc)).gen_tables == system(token).gen_tables
    tamper(doc)
    with pytest.raises(ValueError, match=_differs(field, token)):
        root_system_from_json(doc)


def test_load_refuses_malformed_structure(tmp_path):
    def refused(edit, message):
        doc = _saved("B3", tmp_path)
        edit(doc)
        with pytest.raises(ValueError, match=message):
            root_system_from_json(doc)

    refused(lambda d: d.pop("coeffs"), "lacks")
    refused(lambda d: d["descriptor"][0].update(family="A"), _differs("roots", "A3"))
    refused(lambda d: d["generator_tables"][1].pop(), _differs("generator_tables", "B3"))
    refused(lambda d: d["simple_indices"].pop(), _differs("simple_indices", "B3"))
    refused(lambda d: d["simple_indices"].__setitem__(0, 99), _differs("simple_indices", "B3"))
    refused(lambda d: d["roots"].__setitem__(1, [str(-Fraction(x)) for x in d["roots"][0]]),
            _differs("roots", "B3"))


# each of these once escaped as AttributeError, TypeError or KeyError, or
# loaded; the message names the field
@pytest.mark.parametrize("edit,message", [
    (lambda d: [d], "JSON object, not list"),
    (lambda d: d.update(descriptor="B3"), '"descriptor" must be a list'),
    (lambda d: d["descriptor"][0].pop("m"), '"descriptor" must be a list'),
    (lambda d: d.update(roots=5), '"roots" must be a list of lists'),
    (lambda d: d.update(simple_indices="012"), '"simple_indices" must be a list of ints'),
    (lambda d: d.update(exact="no"), '"exact" must be true or false'),
], ids=["list", "descriptor-string", "descriptor-without-m", "roots-int",
        "simple-indices-string", "exact-string"])
def test_load_refuses_wrong_json_types(edit, message, tmp_path):
    doc = _saved("B3", tmp_path)
    doc = edit(doc) or doc
    with pytest.raises(ValueError, match=message):
        root_system_from_json(doc)


@pytest.mark.parametrize("token", ["H3", "I2(7)"])
def test_load_refuses_float_table_that_is_not_the_reflection(token, tmp_path):
    # H and I2 files, once float and now integer coefficients over
    # Z[2cos(pi/m)], are compared with a fresh build too
    doc = _saved(token, tmp_path)
    _tamper_not_the_reflection(doc)
    with pytest.raises(ValueError, match=_differs("generator_tables", token)):
        root_system_from_json(doc)


def test_load_refuses_broken_relation_in_float_file(tmp_path):
    # relabelling H3's generators 1 and 2 together with their simple roots
    # keeps every table the reflection in its simple root but breaks
    # (s2 s3)^3 = 1; the simple roots are the first field that differs
    doc = _saved("H3", tmp_path)
    t, si = doc["generator_tables"], doc["simple_indices"]
    t[0], t[1] = t[1], t[0]
    si[0], si[1] = si[1], si[0]
    with pytest.raises(ValueError, match=_differs("simple_indices", "H3")):
        root_system_from_json(doc)


def _renumber(doc, a, b):
    """Swap the numbers of roots a and b in every field of a saved file."""
    p = list(range(len(doc["roots"])))
    p[a], p[b] = b, a
    for rows in (doc["roots"], doc["coeffs"], *doc["generator_tables"]):
        rows[a], rows[b] = rows[b], rows[a]
    doc["simple_indices"] = [p[i] for i in doc["simple_indices"]]
    for t in doc["generator_tables"]:
        t[:] = [(p[v - 1] + 1) if v > 0 else -(p[-v - 1] + 1) for v in t]


def test_load_refuses_a_consistently_renumbered_file(tmp_path):
    # every table is still an involution negating its simple root, the
    # reflection recomputed from the coefficients and within the Coxeter
    # relations: such a file once loaded, with its keys[a] the build's keys[b]
    doc = _saved("B3", tmp_path)
    a, b = [i for i in range(len(doc["roots"])) if i not in doc["simple_indices"]][:2]
    _renumber(doc, a, b)
    with pytest.raises(ValueError, match=_differs("roots", "B3")):
        root_system_from_json(doc)
    _renumber(doc, a, b)
    assert root_system_from_json(doc).keys == system("B3").keys


@pytest.mark.parametrize("token,old,new", [("F4", "1/2", "2/4"), ("B3", "1", 1)])
def test_load_refuses_a_coordinate_spelled_otherwise(token, old, new, tmp_path):
    # the same number, but not as save_root_system writes it
    doc = _saved(token, tmp_path)
    row = next(v for v in doc["roots"] if old in v)
    row[row.index(old)] = new
    with pytest.raises(ValueError, match=_differs("roots", token)):
        root_system_from_json(doc)


@pytest.mark.parametrize("exact", [True, False])
def test_load_refuses_an_empty_descriptor(exact):
    # a file of no roots and no tables once ended in an IndexError
    doc = {"schema": "coxex.rootsystem/1", "descriptor": [], "exact": exact, "roots": [],
           "coeffs": [], "simple_indices": [], "generator_tables": []}
    with pytest.raises(ValueError, match="^empty descriptor list$"):
        root_system_from_json(doc)


def test_load_of_a_group_past_the_guard_refuses_before_the_closure(monkeypatch, tmp_path):
    # a B3 file that names A300 is refused by the build guard, before Z[c],
    # the closure or a comparison with the file's fields
    doc = _saved("B3", tmp_path)
    doc["descriptor"] = [{"family": "A", "rank": 300, "m": None}]
    monkeypatch.setattr(rootsystem, "_ring", None)
    with pytest.raises(GuardExceeded, match=r"^building the roots of A300 costs about "):
        root_system_from_json(doc)


def test_lookups_accept_ints_and_fractions():
    rs = system("F4")
    for i, v in enumerate(rs.positive_roots):
        neg = tuple(-x for x in v)
        assert rs.index_of(v) == i
        assert rs.signed_index_of(neg) == -(i + 1)
        if all(x.denominator == 1 for x in v):
            assert rs.index_of(tuple(int(x) for x in v)) == i
    with pytest.raises(KeyError):
        rs.index_of(tuple(-x for x in rs.positive_roots[0]))
    with pytest.raises(KeyError):
        rs.signed_index_of((Fraction(1, 3), 0, 0, 0))


@pytest.mark.parametrize("token", sorted(TABLE_DIGESTS))
def test_tables_match_the_float_closure(token):
    rs = system(token)
    doc = {"gen": [list(t) for t in rs.gen_tables],
           "refl": [list(rs.reflection_table(i)) for i in range(rs.num_positive)],
           "simple": list(rs.simple_indices)}
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[token]


@pytest.mark.parametrize("m,degree", [(5, 2), (6, 2), (7, 3), (8, 4), (9, 3), (10, 4),
                                      (11, 5), (12, 4), (30, 8), (31, 15)])
def test_minimal_polynomial_of_2cos_pi_over_m(m, degree):
    psi = minimal_polynomial(m)
    assert len(psi) == degree + 1 and psi[-1] == 1
    # c = 2cos(pi/m) is a root, and the degree is phi(2m)/2
    c = 2 * math.cos(math.pi / m)
    assert abs(sum(a * c ** i for i, a in enumerate(psi))) < 1e-9
    assert sum(math.gcd(k, 2 * m) == 1 for k in range(1, 2 * m)) == 2 * degree
    # build_cost takes the bound m/2 without building Psi_m
    assert degree <= m // 2


def test_psi_is_computed_once_per_build_and_load(monkeypatch, tmp_path):
    calls = []

    def counted(m):
        calls.append(m)
        return minimal_polynomial(m)
    monkeypatch.setattr(rootsystem, "minimal_polynomial", counted)
    rs = build_root_system(parse_descriptor("I2(60)"))
    assert calls == [60]
    save_root_system(rs, tmp_path / "i2_60.json")
    assert load_root_system(tmp_path / "i2_60.json").gen_tables == rs.gen_tables
    assert calls == [60, 60]


def test_h_and_i2_use_their_rings():
    assert minimal_polynomial(5) == (-1, -1, 1)  # c^2 = c + 1, the golden ratio
    for token, d in [("H3", 2), ("H4", 2), ("I2(5)", 2), ("I2(7)", 3), ("I2(11)", 5),
                     ("A3", 1), ("E6", 1), ("A2xA1", 1)]:
        rs = system(token)
        assert rs.field_degree == d
        assert all(len(c) == rs.rank * d for c in rs.coeffs)


def _legacy_float_doc(token):
    """A file as H and I2 systems were saved in float coordinates: roots and
    coefficients as repr(float) in the simple-root basis, "exact": false."""
    rs = system(token)
    desc = rs.components[0]
    c = 2 * math.cos(math.pi / (desc.m if desc.family == "I2" else 5))
    d = rs.field_degree
    vecs = [[repr(float(sum(x * c ** j for j, x in enumerate(v[k:k + d]))))
             for k in range(0, len(v), d)] for v in rs.coeffs]
    return {
        "schema": "coxex.rootsystem/1",
        "descriptor": [{"family": desc.family, "rank": desc.rank, "m": desc.m}],
        "exact": False,
        "roots": vecs,
        "coeffs": copy.deepcopy(vecs),
        "simple_indices": list(rs.simple_indices),
        "generator_tables": [list(t) for t in rs.gen_tables],
    }


@pytest.mark.parametrize("token", ["H3", "H4", "I2(7)"])
def test_legacy_float_file_loads_to_fresh_tables(token):
    rs = system(token)
    loaded = root_system_from_json(_legacy_float_doc(token))
    assert loaded.gen_tables == rs.gen_tables
    assert loaded.simple_indices == rs.simple_indices
    assert loaded.keys == rs.keys and loaded.coeffs == rs.coeffs


def _relabel_generators(doc):
    # swap generators 1 and 2 with their simple roots: for I2(m) the tables
    # still satisfy (s1 s2)^m = 1, but they are not the fresh build's
    t, si = doc["generator_tables"], doc["simple_indices"]
    t[0], t[1] = t[1], t[0]
    si[0], si[1] = si[1], si[0]


# each id names what its tamper breaks; a float file's roots and
# coefficients are compared by their row counts only
@pytest.mark.parametrize("token,tamper,field", [
    ("I2(7)", _tamper_not_involution, "generator_tables"),
    ("I2(7)", _tamper_wrong_simple_root, "generator_tables"),
    ("H3", _relabel_generators, "simple_indices"),
    ("I2(7)", _relabel_generators, "simple_indices"),
    ("H3", lambda doc: doc["roots"].pop(), "roots"),
], ids=["I2(7)-_tamper_not_involution-not an involution",
        "I2(7)-_tamper_wrong_simple_root-not exactly its simple root",
        "H3-_relabel_generators-is not the identity",
        "I2(7)-_relabel_generators-differ from a fresh build", "H3-<lambda>-positive roots"])
def test_load_refuses_tampered_legacy_float_file(token, tamper, field):
    doc = _legacy_float_doc(token)
    tamper(doc)
    with pytest.raises(ValueError, match=_differs(field, token)):
        root_system_from_json(doc)


@pytest.mark.parametrize("token", ["A105", "B89", "D89", "I2(393)", "A300", "I2(100000)",
                                   "A999999999999"])
def test_builds_past_the_default_guard_refuse_before_the_closure(monkeypatch, token):
    # a refused build never reaches Z[c] or the closure
    monkeypatch.setattr(rootsystem, "_ring", None)
    with pytest.raises(GuardExceeded, match=rf"^building the roots of {re.escape(token)} "
                                            r"costs about \d+, which exceeds guard 10000000$"):
        build_root_system(parse_descriptor(token))


@pytest.mark.parametrize("token", ["A80", "A104", "B60", "B88", "D88", "E8", "D12",
                                   "I2(128)", "I2(257)", "I2(392)"])
def test_desk_builds_pass_the_default_guard(token):
    # A104, B88, D88 and I2(392) are the last of their families to pass
    assert rootsystem.build_cost((parse_descriptor(token),)) <= rootsystem.DEFAULT_GUARD


def test_build_guard_comes_from_the_argument_or_the_environment(monkeypatch):
    class PastTheGuard(Exception):
        pass

    def ring(components):
        raise PastTheGuard

    a105 = parse_descriptor("A105")
    assert rootsystem.build_cost((a105,)) == 10_032_750
    monkeypatch.setattr(rootsystem, "_ring", ring)
    with pytest.raises(PastTheGuard):
        build_root_system(a105, guard=10_032_750)
    monkeypatch.setenv("COXEX_GUARD", "10032750")
    with pytest.raises(PastTheGuard):
        build_root_system(a105)
    with pytest.raises(GuardExceeded, match=r"^building the roots of A2xA300 costs"):
        build_root_system([parse_descriptor("A2"), parse_descriptor("A300")])


def test_a_lowered_guard_never_refuses_a_build(monkeypatch):
    # a low guard bounds |W| or |I_w|; the build keeps the default's floor
    assert build_root_system(parse_descriptor("A3"), guard=1).num_positive == 6
    monkeypatch.setenv("COXEX_GUARD", "1")
    assert build_root_system(parse_descriptor("D10")).num_positive == 90
    with pytest.raises(GuardExceeded, match=r"which exceeds guard 10000000$"):
        build_root_system(parse_descriptor("A105"), guard=1)
