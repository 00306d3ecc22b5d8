#!/usr/bin/env python3
"""Benchmark of the coxex engine: the `sweep` and `query` workloads.

Run from the root of a checkout (coxex is imported from its `src/`):

    python3 perfbench/run.py --workload query --seed 1 --seconds 50 --trace 0

The run sets the workload up, then runs passes of it, all on the same
inputs, in a closed loop until `--seconds` have gone by, at least three
passes; each operation is kept at its lowest time over the passes.  With
`--trace 1` two traced passes follow, and the run reports the per-layer
metrics instead of the end-to-end ones.  Outputs are checked after the
passes.  The last line of standard output is the result, `{"correct",
"attempted", "failed", "metrics"}`; the lines before it give the metrics as
a table, `failed_frac` (failed / attempted operations), the query latency
percentiles, and a JSON line of details: environment, group sizes, setup
samples, pass times and a digest of the outputs, which every pass must
repeat.

End-to-end metrics (`--trace 0`):
  wall_s        time of a pass's operations, each at its lowest over the
                passes of the run; setup excluded
  setup_s       median over this process and fresh ones of the time to
                import coxex and build the workload's root systems (and,
                for `query`, the BFS tables and maximal parabolic contexts)
  peak_rss_mb   peak resident memory of this process
  checks_per_s  passed checks of a pass per second of wall_s: theorem checks
                as `coxex verify` counts them, or passed queries and repros

Per-layer metrics (`--trace 1`): means over the traced passes.  `*_s` are
self times, a wrapped call's time minus that of the wrapped calls it made,
so they and `trace.other_s` add up to `trace.wall_s`; see tracer.py.
`query.p50_ms` and `query.p90_ms` are the latency percentiles of the
queries at their lowest untraced times (0 without queries).

`--smoke` runs the same workloads on tiny groups, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import OP, Tracer, instrument
from workloads import REPROS, fastest, make_workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # this process and two fresh ones; the median is reported
MIN_PASSES = 3  # untraced passes a run makes at least, however short --seconds
TRACED_PASSES = 2

# fixed here because BENCHMARK.json lists a per-layer metric for each one;
# the benchmark's tests check it against the engine's registry
THEOREMS = (
    "parabolic-reflection-excess", "parabolic-excess", "nw-subset-niw",
    "cuspidal-full-inversions", "centre-full-inversions", "spartan-support",
    "spartan-overlap", "spartan-swapcycle", "excess-even-symmetric",
    "excess-additivity", "jset-equivalence", "structured-iw-oracle",
    "reflection-length-oracle", "inversion-set-identity", "zero-excess-classes",
    "length-reduced-word", "parabolic-length")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "checks_per_s": "1/s"}

# per-layer metric -> (unit, tracer table, key); "self" keys are self times
# in seconds, "calls" keys count calls of a timed function, "counts" keys
# are counters kept by the wrappers
_LAYERS = [
    ("rootsystem.build_s", "s", "self_s", "rootsystem.build_s"),
    ("rootsystem.build_calls", "count", "calls", "rootsystem.build_s"),
    ("rootsystem.root_lookup_s", "s", "self_s", "rootsystem.root_lookup_s"),
    ("rootsystem.root_lookup_calls", "count", "calls", "rootsystem.root_lookup_s"),
    ("elements.bfs_s", "s", "self_s", "elements.bfs_s"),
    ("elements.bfs_elements", "count", "counts", "elements.bfs_elements"),
    ("elements.compose_calls", "count", "counts", "elements.compose_calls"),
    ("excess.groupdata_s", "s", "self_s", "excess.groupdata_s"),
    ("excess.involutions", "count", "counts", "excess.involutions"),
    ("excess.pairs", "count", "counts", "excess.pairs"),
    ("excess.refl_excess_s", "s", "self_s", "excess.refl_excess_s"),
    ("excess.iw_exhaustive_s", "s", "self_s", "excess.iw_exhaustive_s"),
    ("excess.iw_structured_s", "s", "self_s", "excess.iw_structured_s"),
    ("excess.iw_size", "count", "counts", "excess.iw_size"),
    ("excess.report_s", "s", "self_s", "excess.report_s"),
    ("excess.display_calls", "count", "counts", "excess.display_calls"),
    ("linalg.fixed_space_s", "s", "self_s", "linalg.fixed_space_s"),
    ("linalg.fixed_space_calls", "count", "calls", "linalg.fixed_space_s"),
    ("linalg.fixes_all_s", "s", "self_s", "linalg.fixes_all_s"),
    ("linalg.fixes_all_calls", "count", "calls", "linalg.fixes_all_s"),
    ("linalg.restrict_calls", "count", "counts", "linalg.restrict_calls"),
    ("parabolic.context_s", "s", "self_s", "parabolic.context_s"),
    ("parabolic.context_calls", "count", "calls", "parabolic.context_s"),
    ("signedperm.centralizer_s", "s", "self_s", "signedperm.centralizer_s"),
    ("signedperm.coset_elements", "count", "counts", "signedperm.coset_elements"),
    ("signedperm.to_root_perm_s", "s", "self_s", "signedperm.to_root_perm_s"),
    ("signedperm.to_root_perm_calls", "count", "calls", "signedperm.to_root_perm_s"),
    ("signedperm.from_root_perm_s", "s", "self_s", "signedperm.from_root_perm_s"),
    ("signedperm.from_root_perm_calls", "count", "calls", "signedperm.from_root_perm_s"),
]
_LAYERS += [(f"verify.runner_s.{t}", "s", "self_s", f"verify.runner_s.{t}") for t in THEOREMS]
_LAYERS += [(f"verify.checks.{t}", "count", "counts", f"verify.checks.{t}") for t in THEOREMS]
_LAYERS += [(f"repro.example_s.{r}", "s", "self_s", f"repro.example_s.{r}") for r in REPROS]
_LAYERS += [(OP, "s", "self_s", OP)]

# ratios and whole-pass figures, computed from the tables above; the query
# latency percentiles come from the untraced passes of the run (0 on the
# suite workloads, which issue no queries)
_DERIVED = {
    "signedperm.coset_yield": "ratio",
    "verify.display_useful_ratio": "ratio",
    "query.p50_ms": "ms",
    "query.p90_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

PER_LAYER = {name: unit for name, unit, _, _ in _LAYERS} | _DERIVED


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "query"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny groups (A3, B3), for the benchmark's own tests")
    ap.add_argument("--probe-setup", action="store_true",
                    help="only set the workload up and print the seconds it took")
    return ap.parse_args(argv)


def load(args):
    """Import coxex from the checkout and set the workload up; timed."""
    start = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cx = importlib.import_module("coxex")
    if src.resolve() not in Path(cx.__file__).resolve().parents:
        raise RuntimeError(f"imported coxex from {cx.__file__}, not from {src}")
    workload = make_workload(cx, args.workload, args.seed, args.smoke)
    workload.setup()
    return cx, workload, perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples; of 102 samples,
    ten lie above p90."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def query_latency(best) -> dict:
    """p50 and p90 over the queries of a pass, in ms."""
    latencies = [op.seconds for op in best.ops if op.timed]
    if not latencies:
        return {"query.p50_ms": 0.0, "query.p90_ms": 0.0}
    return {"query.p50_ms": 1000 * percentile(latencies, 50),
            "query.p90_ms": 1000 * percentile(latencies, 90)}


def end_to_end(best, checks_passed, setup_samples, rss_mb) -> dict:
    return {
        "wall_s": best.wall_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
        "checks_per_s": checks_passed / best.wall_s,
    }


def per_layer(traced, best) -> dict:
    """Per-pass means over the traced passes; the tracing overhead is taken
    against `best`, the untraced pass that gives wall_s."""
    n = len(traced)
    out = {}
    for name, _, table, key in _LAYERS:
        out[name] = sum(getattr(t, table)[key] for _, t in traced) / n
    counts = {k: sum(t.counts[k] for _, t in traced) for k in
              ("signedperm.coset_kept", "signedperm.coset_scanned",
               "verify.counterexamples", "excess.display_calls")}
    scanned = counts["signedperm.coset_scanned"]
    out["signedperm.coset_yield"] = counts["signedperm.coset_kept"] / scanned if scanned else 0.0
    shown = counts["excess.display_calls"]
    out["verify.display_useful_ratio"] = counts["verify.counterexamples"] / shown if shown else 0.0
    out |= query_latency(best)
    out["trace.wall_s"] = sum(p.wall_s for p, _ in traced) / n
    out["trace.overhead_frac"] = out["trace.wall_s"] / best.wall_s - 1
    return out


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(), "platform": platform.platform()}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_trace(args, traced) -> str:
    """Write the spans of the traced passes; returns the file's path."""
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    passes = []
    for p, tracer in traced:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        passes.append({"wall_s": p.wall_s, "spans": [
            [name, start - t0, end - t0, parent]
            for name, start, end, parent in tracer.spans]})
    path.write_text(json.dumps({"span_fields": ["name", "start", "end", "parent"],
                                "passes": passes}))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coxex" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'coxex'} is missing; run the benchmark "
              "from a checkout of the coxex repository", file=sys.stderr)
        return 2
    cx, workload, setup_s = load(args)
    if args.probe_setup:
        print(repr(setup_s))
        return 0
    # setup_s is an end-to-end metric: a traced run does not time set-up again
    probes = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES - 1
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(probes)]

    passes, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(workload.run_pass())
    best = fastest(passes)
    for _ in range(TRACED_PASSES if args.trace else 0):
        tracer = Tracer()
        with instrument(cx, tracer):
            traced.append((workload.run_pass(tracer), tracer))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = [workload.check(p) for p in passes + [p for p, _ in traced]]
    problems = [msg for v in verdicts for msg in v.problems]
    if len({v.digest for v in verdicts}) > 1:
        problems.append("outputs differ between passes")
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)

    latency = query_latency(best)
    if args.trace:
        metrics, units = per_layer(traced, best), PER_LAYER
        trace_file = write_trace(args, traced)
    else:
        metrics = end_to_end(best, verdicts[0].checks_passed, setup_samples, rss_mb)
        units, trace_file = END_TO_END, None

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "sizes": workload.sizes(), "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "traced_wall_s": [p.wall_s for p, _ in traced],
        "latency_samples": sum(op.timed for op in best.ops),
        "digest": verdicts[0].digest, "failed_frac": failed / attempted,
        "problems": problems[:20], "trace_file": trace_file,
    }
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':44s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    if not args.trace and detail["latency_samples"]:
        for name, value in latency.items():
            print(f"{name:44s} {value:>16.6g} ms ({detail['latency_samples']} queries)")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
