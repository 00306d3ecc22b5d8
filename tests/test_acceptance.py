"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.  All equalities are exact integer/set comparisons."""

import random
import time

import pytest

from conftest import data, descriptor, lemma22_holds, system
from coxex import GuardExceeded, inverting_involutions, make_config, run_suite
from coxex.elements import bfs_tables
from coxex.repro import run_d12, run_sym5, run_sym7
from coxex.signedperm import parse, to_root_perm


def _report(name: str, ok: bool, extra: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({extra})" if extra else ""))
    assert ok, name


def _run(tokens, theorems, **kw):
    cfg = make_config([descriptor(t) for t in tokens], theorems=theorems, **kw)
    return run_suite(cfg)


def test_criterion_1_sym5_golden_table():
    t0 = time.monotonic()
    res = run_sym5()
    elapsed = time.monotonic() - t0
    _report("sym5 golden table", res.ok and elapsed < 1.0,
            f"{elapsed:.2f}s, diffs={res.diffs}")


def test_criterion_2_d12_reproduction():
    t0 = time.monotonic()
    res = run_d12()
    elapsed = time.monotonic() - t0
    ok = (res.ok and res.details["excess"] == 46
          and res.details["parabolic_excess"] == 60 and elapsed < 5.0)
    _report("d12 reproduction", ok, f"{elapsed:.2f}s, diffs={res.diffs}")


def test_criterion_3_parabolic_reflection_excess_exhaustive():
    t0 = time.monotonic()
    tokens = ["A4", "B3", "B4", "D4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]
    res = _run(tokens, ("parabolic-reflection-excess",))
    elapsed = time.monotonic() - t0
    ok = res.failures_total == 0 and elapsed < 600
    checked = sum(c.passes for c in res.checks)
    _report("parabolic reflection excess", ok, f"{checked} checks, {elapsed:.1f}s")


def test_criterion_4_parabolic_excess_exhaustive():
    tokens = ["A4", "B3", "B4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]
    res = _run(tokens, ("parabolic-excess",))
    f4 = _run(["F4"], ("parabolic-excess",), strategy="maximal-reduction")
    ok = res.failures_total == 0 and f4.failures_total == 0
    assert f4.checks[0].notes["mode"] == "maximal-reduction"
    checked = sum(c.passes for c in res.checks) + f4.checks[0].passes
    _report("parabolic excess", ok, f"{checked} checks, F4 via reduction")


def test_criterion_5_inverting_set_coverage():
    tokens = ["A4", "B3", "B4", "D4", "H3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]
    res = _run(tokens, ("nw-subset-niw", "cuspidal-full-inversions"))
    centre = _run(["B3", "D4"], ("centre-full-inversions",))
    ok = res.failures_total == 0 and centre.failures_total == 0
    assert all(c.status == "pass" for c in centre.checks)
    _report("N(w) subset of N(I_w), cuspidal and centre cases", ok)


def test_criterion_6_sym7_negative_example():
    res = run_sym7()
    rs = system("A4")
    w = to_root_perm(parse("(+2 +3 +5)", 5), rs)
    iw = inverting_involutions(rs, w)
    nw = w.inversions()
    no_single_cover = all(nw & ~x.inversions() != 0 for x in iw.elements)
    _report("sym7 gap and no single covering inverter",
            res.ok and no_single_cover, f"diffs={res.diffs}")


def test_criterion_7_structural_suite():
    ab = _run(["A4", "B4"], ("spartan-support", "spartan-overlap",
                             "spartan-swapcycle"))
    d = _run(["D4", "D5"], ("spartan-support", "parabolic-excess"))
    ok = ab.failures_total == 0 and d.failures_total == 0
    modes = [c.notes.get("mode") for c in d.checks if c.theorem == "parabolic-excess"]
    assert modes == ["dn-conditional", "dn-conditional"]
    checked = sum(c.passes for c in ab.checks) + sum(c.passes for c in d.checks)
    _report("structural suite", ok, f"{checked} checks")


def test_criterion_8_oracle_equivalences():
    structured = _run(["B4", "D4"], ("structured-iw-oracle",))
    refl = _run(["A3", "B3", "I2(5)"], ("reflection-length-oracle",))
    ok = structured.failures_total == 0 and refl.failures_total == 0
    # 10,000 fresh random pairs per group for the inversion-set identity
    rng = random.Random(20260809)
    pair_failures = 0
    for token in ["B4", "D4", "A3", "B3", "I2(5)"]:
        perms = data(token).perms
        n = len(perms)
        for _ in range(10000):
            if not lemma22_holds(perms[rng.randrange(n)], perms[rng.randrange(n)]):
                pair_failures += 1
    ok = ok and pair_failures == 0
    _report("oracle equivalences", ok, f"pair failures={pair_failures}")


def test_criterion_9_e7_e8_construction_only():
    e7 = system("E7")
    e8 = system("E8")
    ok = e7.num_positive == 63 and e8.num_positive == 120
    with pytest.raises(GuardExceeded):
        bfs_tables(e8)
    _report("E7/E8 descriptor-level construction", ok,
            f"roots {e7.num_positive}/{e8.num_positive}; exhaustive sweeps refused")
