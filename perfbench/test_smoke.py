"""Smoke tests of the benchmark: every workload on tiny groups (A3, B3).

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace=0, seed=3, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, detail = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    # self times, with the operations' own, account for the traced wall time
    self_s = sum(v for name, v in values.items()
                 if got[name] == "s" and name != "trace.wall_s")
    assert self_s == pytest.approx(values["trace.wall_s"], rel=0.01)


def test_environment_and_sizes_are_recorded():
    _, detail = result_of(run_bench("query"))
    env = detail["environment"]
    assert {"python", "numpy", "nproc", "cpu", "commit"} <= set(env)
    assert detail["seed"] == 3
    sizes = detail["sizes"]
    assert sizes["B3"] == {"order": 48, "involutions": 20, "pairs": 400,
                           "queries": 4, "path": "exhaustive"}
    assert sizes["B3/guard=47"]["path"] == "structured"


def test_query_digest_follows_the_seed():
    first = result_of(run_bench("query", seed=5))[1]["digest"]
    again = result_of(run_bench("query", seed=5))[1]["digest"]
    other = result_of(run_bench("query", seed=6))[1]["digest"]
    assert first == again != other


def test_refuses_to_run_without_the_source_tree():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_bench("query", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("family, n", [("A", 4), ("B", 3), ("D", 4)])
def test_involution_counts_match_enumeration(family, n):
    import coxex
    from coxex.elements import bfs_tables, is_involution_table
    desc = coxex.CoxeterDescriptor(family, n - 1 if family == "A" else n)
    perms, _, _ = bfs_tables(coxex.build_root_system(desc))
    assert workloads.involution_count(desc) == sum(map(is_involution_table, perms))


@pytest.mark.parametrize("family, n", [("A", 5), ("B", 4), ("D", 5)])
def test_generated_elements_have_their_cycle_type(family, n):
    import coxex
    rng = random.Random(0)
    for pos, neg in workloads.stratified_types(family, n, 12):
        text = workloads.random_element_text(rng, n, pos, neg, family != "A")
        sp = coxex.parse(text, n)
        cycles = sp.cycles().cycles
        got_neg = sorted((c.length for c in cycles if c.sign_type < 0), reverse=True)
        fixed = n - sum(c.length for c in cycles)
        got_pos = sorted([c.length for c in cycles if c.sign_type > 0] + [1] * fixed,
                         reverse=True)
        assert (tuple(got_pos), tuple(got_neg)) == (pos, neg)
        if family == "D":
            assert sp.is_positive()


def test_instrument_restores_every_function():
    import coxex
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "coxex" or name.startswith("coxex.")}
    classes = [coxex.GroupData, coxex.RootSystem]
    before = [dict(vars(cls)) for cls in classes]
    registries = [dict(coxex.verify.THEOREMS), dict(coxex.repro.EXAMPLES)]
    with tracer.instrument(coxex, tracer.Tracer()):
        assert coxex.verify.THEOREMS != registries[0]
    assert {name: dict(vars(sys.modules[name])) for name in modules} == modules
    assert [dict(vars(cls)) for cls in classes] == before
    assert [dict(coxex.verify.THEOREMS), dict(coxex.repro.EXAMPLES)] == registries


def test_metric_names_follow_the_engine():
    import coxex
    assert list(run.THEOREMS) == coxex.theorem_names()
    assert set(run.REPROS) == set(coxex.repro.EXAMPLES)
