import dataclasses
import hashlib
import json
import random

import pytest

from conftest import data, descriptor, system
from coxex import GroupData, GuardExceeded, make_config, run_suite, theorem_names
from coxex.descriptors import CoxeterDescriptor
from coxex import verify
from coxex.elements import bfs_tables, identity_table
from coxex.parabolic import all_generator_subsets, parabolic_context
from coxex.verify import MAX_COUNTEREXAMPLES, THEOREMS, TRUNCATED


def _suite(tokens, **kw):
    return run_suite(make_config([descriptor(t) for t in tokens], **kw))


def test_registry_names_are_stable():
    names = theorem_names()
    for expected in ["parabolic-reflection-excess", "parabolic-excess",
                     "nw-subset-niw", "cuspidal-full-inversions",
                     "centre-full-inversions", "spartan-support",
                     "spartan-overlap", "spartan-swapcycle",
                     "structured-iw-oracle", "reflection-length-oracle",
                     "inversion-set-identity", "jset-equivalence",
                     "zero-excess-classes", "excess-additivity"]:
        assert expected in names
    assert all(THEOREMS[n].title for n in names)


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        make_config([descriptor("A2")], theorems=("no-such-check",))


def test_full_suite_on_b3_passes():
    res = _suite(["B3"])
    assert res.failures_total == 0
    statuses = {c.theorem: c.status for c in res.checks}
    assert statuses["parabolic-excess"] == "pass"
    assert statuses["excess-additivity"] == "skip"
    assert statuses["centre-full-inversions"] == "pass"


def test_centre_check_skipped_without_central_inversion():
    res = _suite(["A3"], theorems=("centre-full-inversions",))
    assert res.checks[0].status == "skip"


def test_d_family_runs_conditional_mode():
    res = _suite(["D4"], theorems=("parabolic-excess",))
    check = res.checks[0]
    assert check.status == "pass"
    assert check.notes["mode"] == "dn-conditional"
    assert "unconditional_gaps_observed" in check.notes


def test_f4_reduction_agrees_with_direct():
    direct = _suite(["F4"], theorems=("parabolic-excess",), strategy="direct")
    reduced = _suite(["F4"], theorems=("parabolic-excess",),
                     strategy="maximal-reduction")
    assert direct.failures_total == 0
    assert reduced.failures_total == 0
    assert reduced.checks[0].notes["mode"] == "maximal-reduction"


def test_guard_refuses_oversized_descriptors():
    with pytest.raises(GuardExceeded):
        _suite(["E8"], theorems=("parabolic-excess",))
    with pytest.raises(GuardExceeded):
        _suite(["B3"], theorems=("parabolic-excess",), guard=10)


def test_payload_deterministic_across_runs_and_workers():
    one = _suite(["B3"], theorems=("parabolic-excess", "nw-subset-niw"))
    two = _suite(["B3"], theorems=("parabolic-excess", "nw-subset-niw"))
    par = _suite(["B3"], theorems=("parabolic-excess", "nw-subset-niw"), workers=2)
    a = json.dumps(one.to_payload(), sort_keys=True)
    b = json.dumps(two.to_payload(), sort_keys=True)
    c = json.dumps(par.to_payload(), sort_keys=True)
    assert a == b == c


def test_result_serialization_shapes():
    res = _suite(["I2(5)"], theorems=("parabolic-excess",))
    doc = json.loads(res.to_json())
    assert doc["schema"] == "coxex.suite/1"
    assert doc["payload"]["failures_total"] == 0
    assert doc["payload"]["checks"][0]["theorem"] == "parabolic-excess"
    rows = res.csv_rows()
    assert rows[0][:3] == ["theorem", "descriptor", "status"]
    assert rows[1][0] == "parabolic-excess"


def test_zero_excess_classes_on_test_groups():
    for tok in ["A4", "B3", "D4", "H3"]:
        res = _suite([tok], theorems=("zero-excess-classes",))
        assert res.failures_total == 0, tok


def test_inversion_identity_sampling_is_seeded():
    one = _suite(["A3"], theorems=("inversion-set-identity",), sample_pairs=500)
    two = _suite(["A3"], theorems=("inversion-set-identity",), sample_pairs=500)
    assert one.to_payload() == two.to_payload()
    assert one.checks[0].passes >= 500


def test_inversion_identity_failures_name_their_own_pairs(monkeypatch):
    # one describe closure serves every sample, so each stored failure must
    # read the pair drawn for it, not a later one
    monkeypatch.setattr("coxex.verify._lemma22_from_row", lambda *args: False)
    config = make_config([descriptor("A3")], theorems=("inversion-set-identity",),
                         sample_pairs=7)
    check = run_suite(config).checks[0]
    gd = GroupData(system("A3"))
    rng = random.Random(f"{config.seed}:A3")
    drawn = [(rng.randrange(len(gd)), rng.randrange(len(gd))) for _ in range(7)]
    assert check.failures == 7
    assert [c.element for c in check.counterexamples] == [
        f"({gd.display(gi)}, {gd.display(hi)})" for gi, hi in drawn]


def test_additivity_requires_reducible():
    res = _suite(["B3"], theorems=("excess-additivity",))
    assert res.checks[0].status == "skip"
    prod = run_suite(make_config(
        [(CoxeterDescriptor("A", 2), CoxeterDescriptor("A", 1))],
        theorems=("excess-additivity",)))
    assert prod.checks[0].status == "pass"
    assert prod.failures_total == 0


def _table_projection(gd, wi, J):
    """The index of w's projection onto the factor W_J: the identity's
    table with w's entries at the roots of W_J."""
    rs = gd.rs
    proj = list(identity_table(rs.num_positive))
    for i in parabolic_context(rs, J).indices:
        proj[i] = gd.perms[wi][i]
    return gd.perms.index(tuple(proj))


@pytest.mark.parametrize("token", ["A2xA1", "A1xA1xA1", "A2xB3", "A1xD4", "B2xA2xA1"])
def test_key_projection_matches_table_projection(token):
    gd = GroupData(system(token))
    blocks = []
    a = 0
    for d in gd.rs.components:
        blocks.append(tuple(range(a, a + d.rank)))
        a += d.rank
    seen = []
    for wi, projections in verify._factor_projections(gd):
        seen.append(wi)
        assert projections == [(_table_projection(gd, wi, J), parabolic_context(gd.rs, J).mask)
                               for J in blocks]
    assert seen == list(range(len(gd)))
    check = verify._run_excess_additivity(gd, make_config([]), {})
    assert (check.passes, check.failures) == (len(gd), 0)


def test_theorem_1_1_on_f4():
    res = _suite(["F4"], theorems=("parabolic-reflection-excess",))
    assert res.failures_total == 0
    assert res.checks[0].passes > 1000


def test_excess_parity_symmetry_on_all_small_groups():
    res = _suite(["A4", "B3", "D4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"],
                 theorems=("excess-even-symmetric",))
    assert res.failures_total == 0
    assert all(c.status == "pass" for c in res.checks)


def test_jset_equivalence_on_a4_b3_d4():
    res = _suite(["A4", "B3", "D4"], theorems=("jset-equivalence",))
    assert res.failures_total == 0
    assert all(c.status == "pass" for c in res.checks)


def test_counterexample_cap_counts_every_failure(monkeypatch):
    # every e_J = e check fails; B4 over all parabolics makes 525 of them
    monkeypatch.setattr(GroupData, "excess_in",
                        lambda self, wi, mask: self.excess_of(wi) + 2)
    res = _suite(["B4"], theorems=("parabolic-excess",), parabolic="all")
    check = res.checks[0]
    rs = system("B4")
    attempted = sum(len(bfs_tables(rs, gens=J)[0])
                    for J in all_generator_subsets(rs))
    assert check.status == "fail" and check.passes == 0
    assert check.failures == attempted > MAX_COUNTEREXAMPLES
    assert res.failures_total == attempted
    assert len(check.counterexamples) == MAX_COUNTEREXAMPLES + 1
    assert check.counterexamples[-1] == TRUNCATED
    assert TRUNCATED not in check.counterexamples[:-1]
    assert check.to_dict()["failures"] == attempted
    rows = res.csv_rows()
    assert len(rows) == 1 + MAX_COUNTEREXAMPLES + 1
    assert {r[4] for r in rows[1:]} == {str(attempted)}
    # the stored records, hashed at the commit that formatted them eagerly
    records = [c.to_dict() for c in check.counterexamples[:MAX_COUNTEREXAMPLES]]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "df8627800800c5a301e4da592d8c18b26fe99a00dc6bf3e8bafda403cbbf6671"


def test_passing_checks_format_nothing(monkeypatch):
    def display(self, i):
        raise AssertionError("display called for a passing check")
    monkeypatch.setattr(GroupData, "display", display)
    res = run_suite(make_config(
        [descriptor(t) for t in ["A3", "B3", "D4", "H3"]]
        + [(CoxeterDescriptor("A", 2), CoxeterDescriptor("A", 1))],
        theorems=("all",), parabolic="all"))
    assert res.failures_total == 0
    assert all(c.status in ("pass", "skip") for c in res.checks)
    assert sum(c.passes for c in res.checks) > 0


def test_config_refuses_a_guard_below_one(monkeypatch):
    with pytest.raises(ValueError, match="guard must be at least 1"):
        make_config([descriptor("A2")], guard=0)
    monkeypatch.setenv("COXEX_GUARD", "-1")
    with pytest.raises(ValueError, match="guard must be at least 1"):
        make_config([descriptor("A2")])


def test_structured_iw_oracle_reads_the_run_guard(monkeypatch):
    # the oracle once read COXEX_GUARD, and refused |I_w| = 312 after the BFS
    # and the pair pass had run under the run's guard
    monkeypatch.setenv("COXEX_GUARD", "100")
    res = _suite(["B5"], theorems=("structured-iw-oracle",), guard=1_000_000)
    assert res.failures_total == 0
    assert [c.passes for c in res.checks] == [3840]


@pytest.mark.parametrize("sample_pairs", [-5, -1, 2.0, "10", True, None])
def test_config_refuses_a_sample_count_below_zero_or_not_an_int(sample_pairs):
    # a negative count once gave a passing check a negative pass count
    with pytest.raises(ValueError, match="sample_pairs must be an int of at least 0"):
        make_config([descriptor("A2")], theorems=("inversion-set-identity",),
                    sample_pairs=sample_pairs)


@pytest.mark.parametrize("guard", [True, 2.5])
def test_config_refuses_a_guard_that_is_not_an_int(guard):
    # True once passed as the guard 1, and 2.5 as a guard between 2 and 3
    with pytest.raises(ValueError, match=r"^guard must be an int, not "):
        make_config([descriptor("A2")], guard=guard)


@pytest.mark.parametrize("parabolic", ["some", ("1",), 2, (0.0,)])
def test_config_refuses_an_unknown_parabolic_selection(parabolic):
    # "some" once failed inside parabolic_context with a TypeError
    with pytest.raises(ValueError, match=r'^parabolic must be "all", "maximal" or '):
        make_config([descriptor("A2")], parabolic=parabolic)


def test_config_refuses_theorems_given_as_one_string():
    # read letter by letter, "all" once failed as the unknown theorem 'a'
    with pytest.raises(ValueError, match=r"^theorems must be a tuple, not the string 'all'$"):
        make_config([descriptor("A2")], theorems="all")
    assert make_config([descriptor("A2")], theorems=("all",)).theorems == ("all",)


def test_no_samples_leave_only_the_involution_checks():
    check, = _suite(["A2"], theorems=("inversion-set-identity",), sample_pairs=0).checks
    assert check.status == "pass" and check.passes == len(data("A2").involutions) == 4


def test_result_keeps_its_config_and_the_checks_that_ran(monkeypatch):
    # the guard of the run, read from the environment, is kept with it
    monkeypatch.setenv("COXEX_GUARD", "5000")
    a2a1 = (CoxeterDescriptor("A", 2), CoxeterDescriptor("A", 1))
    config = make_config([descriptor("B3"), a2a1, descriptor("B3")],
                         theorems=("inversion-set-identity", "excess-additivity"))
    res = run_suite(config)
    monkeypatch.delenv("COXEX_GUARD")
    assert res.config is config and res.limit == 5000
    # one record line a check that ran; a skip is rebuilt from the config
    assert len(res.record.splitlines()) == 4 and res.bad == ()
    assert [(c.descriptor, c.theorem, c.status) for c in res.checks] == [
        ("B3", "excess-additivity", "skip"), ("B3", "inversion-set-identity", "pass"),
        ("A2xA1", "excess-additivity", "pass"), ("A2xA1", "inversion-set-identity", "pass"),
        ("B3", "excess-additivity", "skip"), ("B3", "inversion-set-identity", "pass")]
    assert res.checks[0].reason == "needs a reducible group"
    assert res.checks[1].notes == {"sampled_pairs": 10000}
    assert res.to_payload()["config"] == {
        "descriptors": ["B3", "A2xA1", "B3"],
        "theorems": ["excess-additivity", "inversion-set-identity"],
        "parabolic": "all", "guard": 5000, "strategy": "direct",
        "sample_pairs": 10000, "seed": 20260809}
    assert res.to_payload()["checks"][1] == res.to_payload()["checks"][5]


def test_one_conjugation_search_serves_both_class_theorems(monkeypatch):
    # a call searches only while no classes are kept
    calls = []
    search = GroupData.conjugation_orbits

    def counted(self):
        if self._orbits is None:
            calls.append(self.rs.name)
        return search(self)

    monkeypatch.setattr(GroupData, "conjugation_orbits", counted)
    res = _suite(["B3", "H3"], theorems=("jset-equivalence", "zero-excess-classes"))
    assert res.failures_total == 0
    assert [c.status for c in res.checks] == ["pass"] * 4
    assert calls == ["B3", "H3"]


# (group, (w at a class's first element, w whose verdicts are carried from
# its conjugation parent), the two counterexample records)
DROPPED = {
    "B3": ((4, 35), (("(+1 +3 +2)", "-", "|fixed-space filter|=3", "|length-additive filter|=2"),
                     ("(-1 +2 -3)", "-", "|fixed-space filter|=3", "|length-additive filter|=2"))),
    "H3": ((4, 39), (("r1.r2", "-", "|fixed-space filter|=5", "|length-additive filter|=4"),
                     ("r1.r2.r3.r2.r1.r2", "-", "|fixed-space filter|=5",
                      "|length-additive filter|=4"))),
}


@pytest.mark.parametrize("token", DROPPED)
def test_a_dropped_jset_pair_fails_where_it_is_dropped(monkeypatch, token):
    # one length-additive pair dropped at a class's first element and one at
    # the last element of that class, where the oracle's set is carried
    (first, carried), records = DROPPED[token]
    orbits, parent = data(token).conjugation_orbits()
    orbit = next(o for o in orbits if o[0] == first)
    assert orbit[-1] == carried and parent[carried] is not None
    jset_of = GroupData.jset_of
    monkeypatch.setattr(GroupData, "jset_of", lambda self, wi: (
        jset_of(self, wi)[1:] if wi in (first, carried) else jset_of(self, wi)))
    check, = _suite([token], theorems=("jset-equivalence",)).checks
    assert check.status == "fail"
    assert check.failures == 2 and check.passes == len(parent) - 2
    assert check.counterexamples == tuple(verify.Counterexample(*r) for r in records)


def test_identical_runs_share_one_record():
    # a result keeps one interned record string, and counterexamples only
    # for checks that failed
    config = make_config([descriptor("B3"), descriptor("I2(5)")], parabolic="all")
    one, two = run_suite(config), run_suite(config)
    assert one.record is two.record
    assert one.bad == two.bad == ()
    assert one.to_json().split('"wall_clock_s"')[0] == two.to_json().split('"wall_clock_s"')[0]
    assert one.csv_rows() == two.csv_rows()


def test_failing_checks_keep_their_counterexamples_by_position(monkeypatch):
    # every e_J = e check of parabolic-excess fails on B3; the checks around
    # it pass and store nothing
    monkeypatch.setattr(GroupData, "excess_in",
                        lambda self, wi, mask: self.excess_of(wi) + 2)
    res = _suite(["B3"], theorems=("parabolic-reflection-excess", "parabolic-excess",
                                   "zero-excess-classes"))
    assert [pos for pos, _ in res.bad] == [1]
    checks = res.checks
    assert [c.status for c in checks] == ["pass", "fail", "pass"]
    assert checks[1].counterexamples == res.bad[0][1]
    assert len(checks[1].counterexamples) == checks[1].failures == 73
    assert checks[2].notes == {"classes": 10}
    assert res.failures_total == checks[1].failures > 0


def _run_every_theorem(gd):
    """{theorem: tally} for every theorem that applies to gd's group."""
    comps = gd.rs.components
    config = make_config([comps])
    return {name: thm.runner(gd, config, {}) for name, thm in THEOREMS.items()
            if not (thm.applicable and thm.applicable(comps))}


@pytest.mark.parametrize("token", ["B4", "H3", "A2xA1"])
def test_an_empty_jset_filter_is_a_failing_check_of_its_element(token):
    # l_R of element 5 raised by one leaves its J-set filter empty, which
    # once ended the run in min() of nothing
    gd = GroupData(system(token))
    gd.columns[1][5] += 1
    assert gd.jset_of(5) == []
    tally = _run_every_theorem(gd)["parabolic-reflection-excess"]
    assert tally.failures > 0
    assert tally.bad[0].element == gd.display(5)
    assert tally.bad[0].observed == "E_J=None"


def test_excess_additivity_fails_on_a_factor_without_a_jset_pair():
    # l_R of r1 raised by one empties the J-set filter of r1, the projection
    # onto A2 of r1 and of r1.r3
    gd = GroupData(system("A2xA1"))
    assert gd.words[1] == (0,)
    gd.columns[1][1] += 1
    tally = _run_every_theorem(gd)["excess-additivity"]
    assert tally.failures == 2
    assert {c.element for c in tally.bad} == {"r1", "r1.r3"}
    assert all("E=0 sum=None" in c.observed for c in tally.bad)


def _drop_first_pair(gd):
    del gd.pairs[7][0]


def _wrong_inverse(gd):
    gd.inverse[7] = gd.inverse[8]


# a fault in one of the two fields the pair pass fills, and the theorems
# that must catch it
PAIR_PASS_FAULTS = [
    ("B4", _drop_first_pair, {"jset-equivalence", "structured-iw-oracle"}),
    ("H3", _drop_first_pair, {"jset-equivalence"}),
    ("B4", _wrong_inverse, {"jset-equivalence", "inversion-set-identity"}),
    ("H3", _wrong_inverse, {"jset-equivalence", "inversion-set-identity"}),
]


@pytest.mark.parametrize("token, fault, catching", PAIR_PASS_FAULTS,
                         ids=[f"{t}-{f.__name__}" for t, f, _ in PAIR_PASS_FAULTS])
def test_a_fault_in_the_pair_pass_fails_its_theorems_and_raises_nothing(token, fault, catching):
    gd = GroupData(system(token))
    fault(gd)
    failed = {name for name, tally in _run_every_theorem(gd).items() if tally.failures}
    assert catching <= failed


def _raising_on_b3(monkeypatch, name):
    """Make the runner of `name` fill its notes and then raise on B3."""
    spec = THEOREMS[name]

    def runner(gd, config, notes):
        tally = spec.runner(gd, config, notes)
        if gd.rs.name == "B3":
            notes["partial"] = True
            raise ValueError("no J-set for element 5")
        return tally
    monkeypatch.setitem(THEOREMS, name, dataclasses.replace(spec, runner=runner))


def test_a_runner_that_raises_fails_its_own_check_and_the_run_goes_on(monkeypatch):
    # such a run once ended in one error: line, with no report
    passing = _suite(["A2", "B3"]).to_payload()
    _raising_on_b3(monkeypatch, "zero-excess-classes")
    res = _suite(["A2", "B3"])
    broken = [c for c in res.checks if c.status == "fail"]
    assert [(c.theorem, c.descriptor) for c in broken] == [("zero-excess-classes", "B3")]
    check, = broken
    assert (check.passes, check.failures, dict(check.notes)) == (0, 1, {})
    assert check.counterexamples == (verify.Counterexample(
        "-", "-", "ValueError: no J-set for element 5", "no exception"),)
    assert res.failures_total == 1
    # every other check, A2's zero-excess-classes among them, is as before
    same = [c for c in res.to_payload()["checks"] if c["status"] != "fail"]
    assert same == [c for c in passing["checks"]
                    if (c["theorem"], c["descriptor"]) != ("zero-excess-classes", "B3")]


def test_a_guard_refusal_inside_a_runner_still_ends_the_run(monkeypatch):
    spec = THEOREMS["zero-excess-classes"]

    def runner(gd, config, notes):
        raise GuardExceeded("|I_w| = 9 exceeds guard 8")
    monkeypatch.setitem(THEOREMS, spec.name, dataclasses.replace(spec, runner=runner))
    with pytest.raises(GuardExceeded, match=r"^\|I_w\| = 9 exceeds guard 8$"):
        _suite(["A2"])


def test_verify_writes_the_report_of_a_raising_runner_and_exits_1(monkeypatch, tmp_path, capsys):
    from coxex.cli import main
    _raising_on_b3(monkeypatch, "jset-equivalence")
    out = tmp_path / "b3.json"
    assert main(["verify", "--type", "B3", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())["payload"]
    failed = [c for c in payload["checks"] if c["status"] == "fail"]
    assert [(c["theorem"], c["failures"]) for c in failed] == [("jset-equivalence", 1)]
    assert failed[0]["counterexamples"][0]["observed"] == "ValueError: no J-set for element 5"
    assert payload["failures_total"] == 1
    assert all(c["status"] in ("pass", "skip") for c in payload["checks"] if c not in failed)
    assert "[fail] jset-equivalence on B3 (1 failures)" in capsys.readouterr().err


def test_a_subset_out_of_range_is_refused_before_any_runner(monkeypatch):
    # a runner reading it would fail one check; the run refuses it before
    # B3, where it is in range, builds a GroupData
    monkeypatch.setattr(GroupData, "__init__", None)
    with pytest.raises(ValueError, match=r"^generator subset \[3\] out of range for rank 2$"):
        _suite(["B3", "A2"], theorems=("zero-excess-classes",), parabolic=(2,))
