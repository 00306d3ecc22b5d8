"""The benchmark workloads: `sweep` and `query`.

A workload is set up once (`setup`), then runs passes of operations in a
closed loop, one caller, `workers=1` (`run_pass`); its outputs are checked
after the timed passes (`check`).  Inputs come from the seed alone, and
every pass of a run has the same inputs.  The engine is reached only through
coxex's public functions, looked up on the package at call time so that the
tracer's wrappers apply.

A run keeps each operation at its lowest time over the passes (`fastest`).
A shared machine's speed swings within seconds and drifts over minutes; the
lowest time of an operation repeated over a run is far steadier than its
mean, and the more so the shorter the operation, so every operation of a
workload takes well under a second.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod
from time import perf_counter

# the groups of scripts/run_theorem_sweeps.py whose suite call takes well
# under a second: B4, D5, F4 and H4 (about 1.2, 7, 1.3 and 26 s) are left out
SWEEP_GROUPS = ("A3", "A4", "B3", "D4", "H3",
                "I2(5)", "I2(6)", "I2(7)", "I2(8)", "A2xA1", "A1xA1xA1")
# (group, guard, queries a pass): 101 queries, so that p90 has ten samples
# above it.  A6 and B5 take the exhaustive path; B7 and D7 are above their
# guard, so they take the structured centralizer-coset path.  B6, B8 and D10
# are left out: with B6 (46,080 elements) in place of B5 the pass time spread
# 0.24 (IQR / median) over ten seeds on a shared 2-CPU host, and B8 and D10
# queries take up to 2 s
QUERY_GROUPS = (("A6", None, 50), ("B5", None, 31), ("B7", 40000, 10), ("D7", 40000, 10))
REPROS = ("sym5-table", "d12", "sym7-gap")

# smoke mode: the same workloads on tiny groups; the second B3 of `query`
# has a guard below |W(B3)| = 48, so it takes the structured coset path
SMOKE_SWEEP_GROUPS = ("A3", "B3")
SMOKE_QUERY_GROUPS = (("A3", None, 4), ("B3", None, 4), ("B3", 47, 4))

# checks a sweep pass must make and pass, normal and smoke; the counts are
# fixed by the groups (inversion-set-identity samples a fixed number of
# pairs whatever the seed)
EXPECTED_SWEEP = {
    False: {"checks": 187, "passes": 118378},
    True: {"checks": 34, "passes": 21254},
}


@dataclass
class Op:
    """One operation: a `run_suite` call, a query or a repro."""

    name: str
    seconds: float
    error: str | None = None
    output: object = None
    timed: bool = True  # whether it is a latency sample


@dataclass
class Pass:
    ops: list[Op]

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def fastest(passes: list[Pass]) -> Pass:
    """One pass from passes of the same inputs: each op at its lowest time."""
    return Pass([min(ops, key=lambda op: op.seconds) for ops in zip(*(p.ops for p in passes))])


@dataclass
class Verdict:
    """Outcome of checking a pass's outputs."""

    attempted: int = 0
    failed: int = 0
    checks_passed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)


def _descriptor(cx, token: str):
    parts = [cx.parse_descriptor(t) for t in token.split("x")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def involution_count(desc) -> int:
    """Involutions (identity included) of W(A_n), W(B_n) or W(D_n)."""
    n = desc.degree
    total = 0
    for k in range(n // 2 + 1):
        pairings = comb(n, 2 * k) * factorial(2 * k) // (2 ** k * factorial(k))
        if desc.family == "A":
            total += pairings
        elif desc.family == "B":
            total += pairings * 2 ** k * 2 ** (n - 2 * k)
        else:  # D: an even number of the n - 2k fixed points negated
            total += pairings * 2 ** k * (2 ** (n - 2 * k - 1) if n > 2 * k else 1)
    return total


def _timed_call(name: str, call, args, tracer, timed: bool = True) -> Op:
    """Run one operation; an exception, GuardExceeded included, is recorded
    as its error and the run goes on."""
    error = output = None
    start = perf_counter()
    try:
        if tracer is None:
            output = call(*args)
        else:
            with tracer.op(name):
                output = call(*args)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return Op(name, perf_counter() - start, error, (args, output), timed)


# -------------------------------------------------------------------- sweep ---

class SweepWorkload:
    """One `run_suite` call per group a pass, every theorem; a (group,
    theorem) check is one operation of the failure count."""

    def __init__(self, cx, seed: int, smoke: bool):
        self.cx = cx
        self.seed = seed
        self.expected = EXPECTED_SWEEP[smoke]
        self.groups = SMOKE_SWEEP_GROUPS if smoke else SWEEP_GROUPS
        self.systems = []

    def setup(self):
        self.descriptors = [_descriptor(self.cx, g) for g in self.groups]
        self.systems = [self.cx.build_root_system(d) for d in self.descriptors]

    def run_pass(self, tracer=None) -> Pass:
        cx = self.cx
        ops = []
        for token, desc in zip(self.groups, self.descriptors):
            config = cx.make_config([desc], parabolic="all", workers=1, seed=self.seed)
            ops.append(_timed_call(f"run_suite:{token}", cx.run_suite, (config,),
                                   tracer, False))
        return Pass(ops)

    def check(self, p: Pass) -> Verdict:
        v = Verdict()
        want = self.expected["checks"]
        payloads = []
        for op in p.ops:
            if op.error is not None:
                v.problem(f"{op.name} raised {op.error}")
                continue
            result = op.output[1]
            checks = result.checks
            v.attempted += len(checks)
            v.failed += sum(c.status == "fail" for c in checks)
            v.checks_passed += sum(c.passes for c in checks)
            if result.failures_total != 0:
                v.problem(f"{op.name}: failures_total = {result.failures_total}")
            for c in checks:
                if c.status not in ("pass", "skip"):
                    v.problem(f"{c.theorem} on {c.descriptor}: {c.status}")
            payloads.append(result.to_payload())
        if v.attempted < want:  # the checks of a call that raised count as failed
            v.failed += want - v.attempted
            v.attempted = want
        elif v.attempted != want:
            v.problem(f"{v.attempted} checks attempted, expected {want}")
        if v.checks_passed != self.expected["passes"]:
            v.problem(f"{v.checks_passed} checks passed, expected {self.expected['passes']}")
        payload = json.dumps(payloads, sort_keys=True)
        v.digest = hashlib.sha256(payload.encode()).hexdigest()
        return v

    def sizes(self) -> dict:
        out = {}
        for token, rs in zip(self.groups, self.systems):
            out[token] = _group_sizes(self.cx, rs)
        return out


def _group_sizes(cx, rs, queries: int | None = None) -> dict:
    if rs.family in ("A", "B", "D"):
        invol = involution_count(rs.components[0])
    elif len(rs.components) > 1 and all(d.family == "A" for d in rs.components):
        invol = prod(involution_count(d) for d in rs.components)
    else:
        perms, _, _ = cx.elements.bfs_tables(rs)
        invol = sum(map(cx.elements.is_involution_table, perms))
    out = {"order": rs.order(), "involutions": invol, "pairs": invol * invol}
    if queries is not None:
        out["queries"] = queries
    return out


# -------------------------------------------------------------------- query ---

def partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def _centralizer_order(parts) -> int:
    """Order of the centralizer of a cycle type, given (length, factor) per
    cycle: the factor is l in Sym(n) and 2l in W(B_n)."""
    out = 1
    for (length, factor), m in Counter(parts).items():
        out *= factor ** m * factorial(m)
    return out


def cycle_types(family: str, n: int) -> list[tuple[Fraction, int, tuple, tuple]]:
    """(probability, centralizer order, positive cycles, negative cycles) of
    each signed cycle type of a uniform element of Sym(n), W(B_n) or W(D_n),
    sorted by centralizer order.

    In W(B_n) the class of a type has |W| / z elements, z the order of its
    centralizer in W(B_n).  W(D_n) holds the types with an even number of
    negative cycles, each with twice that share.  In Sym(n) cycles carry no
    signs and z is the Sym(n) centralizer order.
    """
    out = []
    for negated in (0,) if family == "A" else range(n + 1):
        for neg in partitions(negated):
            if family == "D" and len(neg) % 2:
                continue
            for pos in partitions(n - negated):
                if family == "A":
                    z = _centralizer_order((l, l) for l in pos)
                else:
                    z = _centralizer_order([(l, 2 * l) for l in pos]
                                           + [(-l, 2 * l) for l in neg])
                share = Fraction(2 if family == "D" else 1, z)
                out.append((share, z, pos, neg))
    if sum(t[0] for t in out) != 1:
        raise AssertionError(f"cycle type shares of {family}{n} do not sum to 1")
    out.sort(key=lambda t: (t[1], t[2], t[3]))
    return out


def stratified_types(family: str, n: int, count: int) -> list[tuple[tuple, tuple]]:
    """`count` cycle types at the midpoints of equal slices of the uniform
    distribution, ordered by centralizer order.

    A query's cost grows with the centralizer of its element, and that size
    has a heavy tail (in W(D_10) one element in 6,000 has a centralizer over
    10^5).  Taking the types at fixed quantiles gives every seed the same
    mix of costs, so run-to-run spread measures the engine, not the draw;
    the slice above the top midpoint, 1 / (2 count) of the group, is not
    sampled.
    """
    types = cycle_types(family, n)
    out = []
    acc = Fraction(0)
    it = iter(types)
    share, _, pos, neg = next(it)
    for i in range(count):
        target = Fraction(2 * i + 1, 2 * count)
        while acc + share < target:
            acc += share
            share, _, pos, neg = next(it)
        out.append((pos, neg))
    return out


def random_element_text(rng: random.Random, n: int, pos, neg, signed: bool) -> str:
    """Cycle notation of a uniform element with the given signed cycle type.

    Points are shuffled and cut into cycles; every sign but the last of a
    cycle is a coin flip and the last one fixes the cycle's sign type.  Each
    element of the class arises from the same number of shuffles, so the
    draw is uniform on the class.
    """
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cycles = []
    at = 0
    for lengths, sign_type in ((pos, 1), (neg, -1)):
        for length in lengths:
            pts = points[at:at + length]
            at += length
            if signed:
                signs = [rng.choice((1, -1)) for _ in range(length - 1)]
                signs.append(sign_type * prod(signs))
            else:
                signs = [1] * length
            if length == 1 and signs[0] == 1:
                continue
            cycles.append("(" + " ".join(f"{'+' if s > 0 else '-'}{p}"
                                         for p, s in zip(pts, signs)) + ")")
    return "".join(cycles) or "()"


@dataclass
class QueryGroup:
    token: str
    guard: int | None
    queries: int  # a pass
    desc: object = None
    rs: object = None
    contexts: tuple = ()
    path: str = ""


class QueryWorkload:
    """A seeded stream of single-element excess reports, `coxex excess
    --parabolic maximal` in library form, plus the three golden repros.

    Each group's queries are spread evenly over the pass; the repros end it.
    """

    def __init__(self, cx, seed: int, smoke: bool):
        self.cx = cx
        self.seed = seed
        specs = SMOKE_QUERY_GROUPS if smoke else QUERY_GROUPS
        self.groups = [QueryGroup(*spec) for spec in specs]

    def setup(self):
        cx = self.cx
        for g in self.groups:
            g.desc = cx.parse_descriptor(g.token)
            g.rs = cx.build_root_system(g.desc)
            if g.rs.order() <= cx.elements.effective_guard(g.guard):
                g.path = "exhaustive"
                cx.elements.bfs_tables(g.rs, g.guard)
            else:
                g.path = "structured"
            g.contexts = tuple(cx.parabolic_context(g.rs, J)
                               for J in cx.parabolic.maximal_generator_subsets(g.rs))
        self.queries = self.inputs()

    def inputs(self) -> list[tuple[QueryGroup, str]]:
        """The queries of a pass, each group's spread evenly over the pass."""
        slots = []
        for k, g in enumerate(self.groups):
            rng = random.Random(f"coxex-query:{self.seed}:{k}")
            types = stratified_types(g.desc.family, g.desc.degree, g.queries)
            rng.shuffle(types)
            for i, (pos, neg) in enumerate(types):
                text = random_element_text(rng, g.desc.degree, pos, neg,
                                           g.desc.family != "A")
                slots.append(((2 * i + 1) / (2 * g.queries), k, g, text))
        slots.sort(key=lambda s: s[:2])
        return [(g, text) for _, _, g, text in slots]

    def _query(self, g: QueryGroup, text: str):
        cx = self.cx
        w = cx.to_root_perm(cx.parse(text, g.desc.degree), g.rs)
        iw = cx.involutions_inverting(g.rs, w, g.guard)
        return cx.excess_report(g.rs, w, g.contexts, iw)

    def run_pass(self, tracer=None) -> Pass:
        ops = [_timed_call(f"{g.token}#{i}", self._query, (g, text), tracer)
               for i, (g, text) in enumerate(self.queries)]
        ops += [_timed_call(f"repro:{ex}", self.cx.run_example, (ex,), tracer, False)
                for ex in REPROS]
        return Pass(ops)

    def check(self, p: Pass) -> Verdict:
        v = Verdict()
        reports = []
        for op in p.ops:
            v.attempted += 1
            args, output = op.output
            if op.error is not None:
                v.failed += 1
                v.problem(f"{op.name}: {op.error}")
                continue
            if op.timed:
                ok = self._check_report(v, op.name, *args, output)
            else:
                ok = output.ok
                if not ok:
                    v.problem(f"{op.name}: {output.diffs}")
            reports.append(output.to_json_dict())
            if ok:
                v.checks_passed += 1
            else:
                v.failed += 1
        text = json.dumps(reports, sort_keys=True)
        v.digest = hashlib.sha256(text.encode()).hexdigest()
        return v

    def _check_report(self, v: Verdict, name: str, g: QueryGroup, text: str,
                      report) -> bool:
        cx = self.cx
        e, E = report.excess, report.reflection_excess
        bad = []
        if e % 2 or not 0 <= e <= E:
            bad.append(f"e={e} E={E}")
        for J, ej, Ej in report.parabolic:
            if not e <= ej <= Ej:
                bad.append(f"J={J}: e={e} e_J={ej} E_J={Ej}")
        if not report.witnesses:
            bad.append("no witness")
        w = cx.to_root_perm(cx.parse(text, g.desc.degree), g.rs)
        for xs, ys in report.witnesses:
            x = cx.to_root_perm(cx.parse(xs, g.desc.degree), g.rs)
            y = cx.to_root_perm(cx.parse(ys, g.desc.degree), g.rs)
            defect = 2 * (x.inversions() & y.inversions()).bit_count()
            if (x * y).perm != w.perm or defect != e:
                bad.append(f"witness ({xs}, {ys}): defect {defect}")
            if not (x.is_involution() and y.is_involution()):
                bad.append(f"witness ({xs}, {ys}) is not a pair of involutions")
        if bad:
            v.problem(f"{name} {text}: {'; '.join(bad)}")
        return not bad

    def sizes(self) -> dict:
        return {g.token + ("" if g.guard is None else f"/guard={g.guard}"):
                dict(_group_sizes(self.cx, g.rs, g.queries), path=g.path)
                for g in self.groups}


def make_workload(cx, name: str, seed: int, smoke: bool):
    if name == "query":
        return QueryWorkload(cx, seed, smoke)
    return SweepWorkload(cx, seed, smoke)
