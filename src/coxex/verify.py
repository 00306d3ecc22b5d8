"""Theorem verification suites over desk-scale groups.

Each registered check is a (hypothesis filter, conclusion predicate) pair
run exhaustively over one group; results are deterministic for a fixed
configuration.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType

from .descriptors import CoxeterDescriptor
from .elements import (bits_of_table, check_pair_pass, effective_guard,
                       identity_table, key_sep, key_table, simple_key)
from .excess import (DnCondition, GroupData, _dn_condition,
                     _inverting_signed_images, _support_holds,
                     _swap_candidates, _swaps_interleave)
from .linalg import action_matrix, columns, fixed_vector_basis, fixes_all
from .parabolic import (generator_subsets, maximal_generator_subsets,
                        parabolic_context, split_subset, split_values)
from .rootsystem import GuardExceeded, RootSystem, build_root_system
from .signedperm import _cycles

MAX_COUNTEREXAMPLES = 100
# what a check without notes holds: shared, so read-only
NO_NOTES = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class SuiteConfig:
    """What to verify: groups, checks, parabolic selection, limits."""

    descriptors: tuple[tuple[CoxeterDescriptor, ...], ...]
    theorems: tuple[str, ...] = ("all",)
    parabolic: str | tuple[int, ...] = "all"  # "all" | "maximal" | 0-based subset
    guard: int | None = None
    strategy: str = "direct"  # "direct" | "maximal-reduction"
    sample_pairs: int = 10000
    seed: int = 20260809

    def __post_init__(self):
        effective_guard(self.guard)  # refuses a guard that is no int of at least 1
        if type(self.sample_pairs) is not int or self.sample_pairs < 0:
            raise ValueError(f"sample_pairs must be an int of at least 0, "
                             f"not {self.sample_pairs!r}")
        p = self.parabolic
        if p not in ("all", "maximal") and not (
                isinstance(p, (tuple, list)) and all(type(j) is int for j in p)):
            raise ValueError(f'parabolic must be "all", "maximal" or a tuple of '
                             f"0-based generator indices, not {p!r}")
        if isinstance(self.theorems, str):
            raise ValueError(f"theorems must be a tuple, not the string {self.theorems!r}")
        if self.strategy not in ("direct", "maximal-reduction"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        for name in self.theorems:
            if name != "all" and name not in THEOREMS:
                known = ", ".join(THEOREMS)
                raise ValueError(f"unknown theorem {name!r}; known: all, {known}")


def make_config(descriptors, workers: int | None = None, **kw) -> SuiteConfig:
    """A SuiteConfig over descriptors, each one group or a tuple of factors.

    `workers` is accepted and ignored, so that callers which still pass it,
    such as `perfbench/workloads.py` (`workers=1`), keep running.
    """
    groups = []
    for d in descriptors:
        groups.append((d,) if isinstance(d, CoxeterDescriptor) else tuple(d))
    return SuiteConfig(descriptors=tuple(groups), **kw)


@dataclass(frozen=True, slots=True)
class Counterexample:
    element: str
    J: str
    observed: str
    expected: str

    def to_dict(self):
        return {"element": self.element, "J": self.J,
                "observed": self.observed, "expected": self.expected}


@dataclass(slots=True)
class CheckResult:
    theorem: str
    descriptor: str
    status: str  # "pass" | "fail" | "skip"
    passes: int = 0
    failures: int = 0  # every failed check, stored or not
    counterexamples: tuple[Counterexample, ...] = ()
    reason: str = ""
    notes: dict | MappingProxyType = field(default_factory=lambda: NO_NOTES)

    def to_dict(self):
        out = {"theorem": self.theorem, "descriptor": self.descriptor,
               "status": self.status, "passes": self.passes,
               "failures": self.failures,
               "counterexamples": [c.to_dict() for c in self.counterexamples]}
        if self.reason:
            out["reason"] = self.reason
        if self.notes:
            out["notes"] = {k: self.notes[k] for k in sorted(self.notes)}
        return out


@dataclass(slots=True)
class SuiteResult:
    """A run's outcome.  Callers may keep many results, so it holds only
    what its config does not fix: the effective guard; `record`, one line
    for each check that ran, in order, with its passes, failures and notes
    as JSON, interned so that identical runs share one string; and `bad`,
    (position in `record`, counterexamples) for each check that stored any,
    empty when every check passed.  `checks` and `to_payload` build the rest
    from the config on demand."""

    config: SuiteConfig
    limit: int
    record: str
    bad: tuple
    wall_clock_s: float

    def _ran(self):
        """(passes, failures, counterexamples, notes) of each check that ran."""
        bad = dict(self.bad)
        for pos, line in enumerate(self.record.splitlines()):
            passes, failures, notes = line.split(" ", 2)
            yield (int(passes), int(failures), bad.get(pos, ()),
                   json.loads(notes) if notes else NO_NOTES)

    @property
    def checks(self) -> list[CheckResult]:
        out = []
        names = ["x".join(d.name for d in comps) for comps in self.config.descriptors]
        ran = self._ran()
        for i, name, reason in _plan(self.config):
            descriptor = names[i]
            if reason is not None:
                out.append(CheckResult(name, descriptor, "skip", reason=reason))
                continue
            passes, failures, bad, notes = next(ran)
            out.append(CheckResult(name, descriptor, "fail" if failures else "pass",
                                   passes, failures, bad, "", notes))
        return out

    @property
    def failures_total(self) -> int:
        return sum(failures for _, failures, _, _ in self._ran())

    def to_payload(self) -> dict:
        config = self.config
        cfg = {
            "descriptors": ["x".join(d.name for d in comps) for comps in config.descriptors],
            "theorems": _selected(config),
            "parabolic": (config.parabolic if isinstance(config.parabolic, str)
                          else list(config.parabolic)),
            "guard": self.limit,
            "strategy": config.strategy,
            "sample_pairs": config.sample_pairs,
            "seed": config.seed,
        }
        return {"config": cfg,
                "checks": [c.to_dict() for c in self.checks],
                "failures_total": self.failures_total}

    def to_json(self) -> str:
        doc = {"schema": "coxex.suite/1", "payload": self.to_payload(),
               "wall_clock_s": round(self.wall_clock_s, 3)}
        return json.dumps(doc, indent=1, sort_keys=True)

    def csv_rows(self) -> list[list[str]]:
        rows = [["theorem", "descriptor", "status", "passes", "failures",
                 "element", "J", "observed", "expected"]]
        for c in self.checks:
            if not c.counterexamples:
                rows.append([c.theorem, c.descriptor, c.status, str(c.passes),
                             "0", "", "", "", ""])
            for ce in c.counterexamples:
                rows.append([c.theorem, c.descriptor, c.status, str(c.passes),
                             str(c.failures), ce.element, ce.J,
                             ce.observed, ce.expected])
        return rows


TRUNCATED = Counterexample("...", "-", "...", "truncated")


class _Tally:
    """Pass and failure counts of one check, with the first failures' text.

    `check(ok, describe)` calls `describe()` -> (element, J, observed,
    expected) only for a failure it stores, the first MAX_COUNTEREXAMPLES;
    one TRUNCATED marker follows them.  The call is synchronous, so
    `describe` may be a lambda over the caller's loop variables.
    """

    __slots__ = ("passes", "failures", "bad")

    def __init__(self):
        self.passes = 0
        self.failures = 0
        self.bad: tuple[Counterexample, ...] = ()

    def check(self, ok: bool, describe):
        if ok:
            self.passes += 1
            return
        self.failures += 1
        if self.failures <= MAX_COUNTEREXAMPLES:
            element, J, observed, expected = describe()
            self.bad += (Counterexample(element, J, str(observed), str(expected)),)
        elif self.failures == MAX_COUNTEREXAMPLES + 1:
            self.bad += (TRUNCATED,)


# --------------------------------------------------------------- runners ---

def _run_parabolic_equality(gd, config, notes, reflection=False):
    """e_J(w) = e(w) for every w in each selected W_J, or with `reflection`
    E_J(w) = E(w): the two theorems differ only in the excess they read."""
    excess_in, excess_of, e = ((gd.refl_excess_in, gd.refl_excess_of, "E") if reflection
                               else (gd.excess_in, gd.excess_of, "e"))
    t = _Tally()
    for J in generator_subsets(gd.rs, config.parabolic):
        ctx, members = gd.parabolic(J)
        jd = " ".join(str(j) for j in ctx.J_display) or "-"
        for wi in members:
            ej = excess_in(wi, ctx.mask)
            ew = excess_of(wi)
            t.check(ej == ew, lambda: (gd.display(wi), jd, f"{e}_J={ej}", f"{e}={ew}"))
    return t


def _run_parabolic_excess_dn(gd, config, notes):
    """Type D: the equality is only claimed under the split hypotheses."""
    notes["mode"] = "dn-conditional"
    gaps = 0
    t = _Tally()
    n = gd.rs.rank
    for m in split_values(gd.rs):
        ctx, members = gd.parabolic(split_subset(gd.rs, m))
        for wi in members:
            cond = _dn_condition(_cycles(gd.signed_perm(wi).images), n, m)
            ej = gd.excess_in(wi, ctx.mask)
            e = gd.excess_of(wi)
            if ej != e:
                gaps += 1
            if cond is DnCondition.NONE:
                continue
            t.check(ej == e, lambda: (gd.display(wi), f"m={m}",
                                      f"e_J={ej} ({cond.value})", f"e={e}"))
    notes["unconditional_gaps_observed"] = gaps
    return t


def _run_parabolic_excess_reduction(gd, config, notes):
    """Maximal-parabolic reduction: verify the claim inside each maximal W_J
    for all of its parabolics, then e_J = e on the maximal layer itself.

    For w in W_K with K inside J, x in W_K gives xw in W_K, so e_K(w) taken
    inside W_J is the ambient `excess_in` under K's mask."""
    notes["mode"] = "maximal-reduction"
    t = _Tally()
    for J in maximal_generator_subsets(gd.rs):
        ctx, members = gd.parabolic(J)
        maskJ = ctx.mask
        e_J = {wi: gd.excess_in(wi, maskJ) for wi in members}
        jd = " ".join(str(j + 1) for j in J)
        for kbits in range(1 << len(J)):
            K = tuple(J[i] for i in range(len(J)) if kbits >> i & 1)
            ctxK, membersK = gd.parabolic(K)  # inside W_J, in the same order
            maskK = ctxK.mask
            for wi in membersK:
                ek = gd.excess_in(wi, maskK)
                ej = e_J[wi]
                t.check(ek == ej, lambda: (
                    gd.display(wi),
                    f"K={' '.join(str(k + 1) for k in K) or '-'} in J={jd}",
                    f"e_K={ek}", f"e_J={ej}"))
        for wi in members:
            ej = e_J[wi]
            e = gd.excess_of(wi)
            t.check(ej == e, lambda: (gd.display(wi), f"J={jd}", f"e_J={ej}", f"e={e}"))
    return t


def _run_parabolic_excess(gd, config, notes):
    if gd.rs.family == "D":
        return _run_parabolic_excess_dn(gd, config, notes)
    if config.strategy == "maximal-reduction":
        return _run_parabolic_excess_reduction(gd, config, notes)
    return _run_parabolic_equality(gd, config, notes)


def _run_nw_subset_niw(gd, config, notes):
    t = _Tally()
    for wi in range(len(gd)):
        niw = gd.niw_bits(wi)
        missing = gd.bits[wi] & ~niw
        t.check(missing == 0, lambda: (
            gd.display(wi), "-",
            f"N(w) \\ N(I_w) has {missing.bit_count()} roots", "empty"))
    return t


def _niw_full(gd, members):
    """N(I_w) is every positive root, for each w in members."""
    full = gd.rs.full_mask()
    t = _Tally()
    for wi in members:
        t.check(gd.niw_bits(wi) == full, lambda: (
            gd.display(wi), "-", f"|N(I_w)|={gd.niw_bits(wi).bit_count()}",
            f"all {gd.rs.num_positive}"))
    return t


def _run_cuspidal_full(gd, config, notes):
    rank = gd.rs.rank
    cuspidal = [wi for wi in range(len(gd)) if gd.reflection_length(wi) == rank]
    notes["cuspidal_elements"] = len(cuspidal)
    return _niw_full(gd, cuspidal)


def _run_centre_full(gd, config, notes):
    minus_one = [-(i + 1) for i in range(gd.rs.num_positive)]
    if simple_key(minus_one, gd.rs.simple_indices) not in gd.at_key:
        raise RuntimeError("central inversion expected but not found")
    return _niw_full(gd, range(len(gd)))


def _run_spartan_support(gd, config, notes):
    """`excess.spartan_support_check` on the masks of `SignedFields`."""
    fam = gd.rs.family
    fields = gd.signed_fields
    t = _Tally()
    for wi in range(len(gd)):
        fw = fields(wi)
        for xi, yi in gd.spartan_of(wi):
            ok = _support_holds(fields(xi), fields(yi), fw, fam)
            t.check(ok, lambda: (gd.display(wi), "-",
                                 f"pair ({gd.display(xi)}, {gd.display(yi)})",
                                 "support rule holds"))
    return t


def _run_spartan_overlap(gd, config, notes):
    """`excess.overlap_check`: bit m of the `straddle` masks of x and y."""
    fields = gd.signed_fields
    t = _Tally()
    for m in split_values(gd.rs):
        _, members = gd.parabolic(split_subset(gd.rs, m))
        for wi in members:
            for xi, yi in gd.spartan_of(wi):
                ok = not (fields(xi).straddle | fields(yi).straddle) >> m & 1
                t.check(ok, lambda: (gd.display(wi), f"m={m}",
                                     f"pair ({gd.display(xi)}, {gd.display(yi)})",
                                     "2-cycles respect the split"))
    return t


def _run_spartan_swapcycle(gd, config, notes):
    """`excess.swapcycle_check` from w's `_swap_candidates`, read once a w."""
    t = _Tally()
    for wi in range(len(gd)):
        candidates = _swap_candidates(_cycles(gd.signed_perm(wi).images))
        for xi, yi in gd.spartan_of(wi):
            ok = _swaps_interleave(candidates, gd.signed_perm(yi).images)
            t.check(ok, lambda: (gd.display(wi), "-",
                                 f"pair ({gd.display(xi)}, {gd.display(yi)})",
                                 "swapped cycles overlap"))
    return t


def _run_excess_even_symmetric(gd, config, notes):
    t = _Tally()
    for wi in range(len(gd)):
        e = gd.excess_of(wi)
        einv = gd.excess_of(gd.inverse[wi])
        E = gd.refl_excess_of(wi)
        ok = e >= 0 and e % 2 == 0 and einv == e and E >= e
        t.check(ok, lambda: (gd.display(wi), "-", f"e={e} e(w^-1)={einv} E={E}",
                             "e even, symmetric, E >= e"))
    return t


def _factor_projections(gd):
    """(wi, [(pi, mask) per direct factor]) in index order: a factor W_J has
    the generators a..b-1, and the key of w's projection pi onto it is the
    identity's with w's code points at a..b-1."""
    at_key = gd.at_key
    ident = next(iter(at_key))  # the identity comes first
    blocks = []
    a = 0
    for d in gd.rs.components:
        b = a + d.rank
        blocks.append((a, b, gd.parabolic(range(a, b))[0].mask))
        a = b
    for key, wi in at_key.items():
        yield wi, [(at_key[ident[:a] + key[a:b] + ident[b:]], mask) for a, b, mask in blocks]


def _sum_of_parts(parts):
    """The sum over the factors, or None when a factor's value is None (it
    has no pair, `_least_defect`), so that the check fails."""
    return None if None in parts else sum(parts)


def _run_excess_additivity(gd, config, notes):
    t = _Tally()
    for wi, projections in _factor_projections(gd):
        e_sum = _sum_of_parts([gd.excess_in(pi, mask) for pi, mask in projections])
        E_sum = _sum_of_parts([gd.refl_excess_in(pi, mask) for pi, mask in projections])
        ok = gd.excess_of(wi) == e_sum and gd.refl_excess_of(wi) == E_sum
        t.check(ok, lambda: (
            gd.display(wi), "-",
            f"e={gd.excess_of(wi)} sum={e_sum}; E={gd.refl_excess_of(wi)} sum={E_sum}",
            "additive over direct factors"))
    return t


def _fixed_space_filters(gd):
    """Yield (w, {x in I_w : x fixes Fix(w) pointwise}) for every element,
    class by class, from one nullspace per conjugacy class.

    An involution x is a product of reflections in mutually orthogonal
    roots that x negates (Carter 1972; Richardson 1982 for H and I2), so the
    roots x negates span its -1 eigenspace, and x fixes v exactly when every
    s_b with x(b) = -b fixes v, over Q(c) as well.  At a class's first
    element `fixes_all` tests each reflection against the basis of Fix(w),
    and x passes when the reflection through every root it negates passes.

    Fix(s w s) is Fix(w) s in row vectors, and x inverts w exactly when
    s x s inverts s w s, so x fixes Fix(w) exactly when s x s fixes
    Fix(s w s): every other element's set is its conjugation parent's,
    mapped through `GroupData.conjugation`.
    """
    rs, perms, pairs = gd.rs, gd.perms, gd.pairs
    orbits, parent = gd.conjugation_orbits()
    conj = gd.conjugation
    reflections = [columns(action_matrix(rs, rs.reflection_table(i)))
                   for i in range(rs.num_positive)]
    negated = [0] * len(perms)  # bit i: x sends root i to its negative
    for xi in gd.involutions:
        negated[xi] = sum(1 << i for i, v in enumerate(perms[xi]) if v == -i - 1)
    for orbit in orbits:
        basis = fixed_vector_basis(action_matrix(rs, perms[orbit[0]]))
        moved = sum(1 << i for i, cols in enumerate(reflections) if not fixes_all(cols, basis))
        via = {orbit[0]: {x for x, _ in pairs[orbit[0]] if not negated[x] & moved}}
        for wi in orbit[1:]:
            pi, r = parent[wi]
            via[wi] = set(map(conj[r].__getitem__, via[pi]))
        yield from via.items()


def _run_jset_equivalence(gd, config, notes):
    """The oracle computes its own fixed spaces (`_fixed_space_filters`): J_w
    is the x in I_w whose fixed space contains that of w."""
    wrong = {}  # wi -> (|fixed-space filter|, |length-additive filter|)
    for wi, via_fix in _fixed_space_filters(gd):
        via_len = {x for x, _ in gd.jset_of(wi)}
        if via_fix != via_len:
            wrong[wi] = (len(via_fix), len(via_len))
    t = _Tally()
    for wi in range(len(gd)):
        t.check(wi not in wrong, lambda: (
            gd.display(wi), "-", f"|fixed-space filter|={wrong[wi][0]}",
            f"|length-additive filter|={wrong[wi][1]}"))
    return t


MAX_BLOCKS = 2048  # about 3 MB; B5 makes 1,598 blocks, B6 15,790


def _run_structured_iw(gd, config, notes):
    """Each element's I_w from its own cycle-type product; the blocks, which
    depend on w only at their points, are shared across the elements until
    there are more than MAX_BLOCKS of them."""
    fam = gd.rs.family
    images = {xi: gd.signed_perm(xi).images for xi in gd.involutions}
    # the run's guard: past check_pair_pass, |I_w| <= k <= k^2 <= guard for k involutions
    limit = effective_guard(config.guard)
    blocks: dict = {}
    t = _Tally()
    for wi in range(len(gd)):
        if len(blocks) > MAX_BLOCKS:
            blocks.clear()
        exhaustive = {images[xi] for xi, _ in gd.pairs[wi]}
        structured = set(_inverting_signed_images(gd.signed_perm(wi), fam, limit, blocks))
        t.check(exhaustive == structured, lambda: (
            gd.display(wi), "-", f"|structured|={len(structured)}",
            f"|exhaustive|={len(exhaustive)}"))
    return t


def _reflection_distances(rs):
    """Reflection length of every element by key (`elements.simple_key`),
    by BFS over products of reflections: one translate of the frontier's
    packed keys through each reflection t gives the keys of every pt."""
    tables = [key_table(rs.reflection_table(i)) for i in range(rs.num_positive)]
    sep = key_sep(rs.num_positive)
    start = simple_key(identity_table(rs.num_positive), rs.simple_indices)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        d = dist[frontier[0]] + 1
        packed = sep.join(frontier)
        frontier = []
        for table in tables:
            for k in packed.translate(table).split(sep):
                if k not in dist:
                    dist[k] = d
                    frontier.append(k)
    return dist


def _run_reflection_length_oracle(gd, config, notes):
    dist = _reflection_distances(gd.rs)
    t = _Tally()
    for key, wi in gd.at_key.items():
        bfs = dist[key]
        carter = gd.reflection_length(wi)
        t.check(bfs == carter, lambda: (gd.display(wi), "-", f"carter={carter}",
                                        f"bfs={bfs}"))
    return t


def _involution_reversal_holds(p) -> bool:
    bits = bits_of_table(p)
    image = 0
    b = bits
    while b:
        low = b & -b
        s = -p[low.bit_length() - 1]
        if s < 0:
            return False
        image |= 1 << (s - 1)
        b ^= low
    return image == bits


def _product(gd, gi: int, hi: int) -> int:
    """The index of gh: g carried through h's word by `GroupData.right`."""
    right = gd.right
    for r in gd.words[hi]:
        gi = right[r][gi]
    return gi


@lru_cache(maxsize=None)
def _lemma22_entries(npos: int) -> tuple[dict[int, int], dict[int, int]]:
    """What a root of N(h) contributes to Lemma 2.2 for a g, by its image s
    under g^-1, when it lies inside N(g^-1) and when outside.  Inside with
    s < 0, the bit of root -s, which leaves N(g); outside with s > 0, the
    bit of root s, which joins N(g), shifted up by npos, the number of
    positive roots; outside with s < 0, the sentinel 1 << 2 npos; inside
    with s > 0, 0.  Distinct roots give distinct bits below the sentinel,
    so a sum over N(h) is the union of their contributions."""
    signed = [*range(-npos, 0), *range(1, npos + 1)]
    return ({s: 1 << -s - 1 if s < 0 else 0 for s in signed},
            {s: 1 << 2 * npos if s < 0 else 1 << npos + s - 1 for s in signed})


def _lemma22_row(g_inv, bginv) -> list[int]:
    """Entry i is what positive root i + 1, whose image under g^-1 is
    g_inv[i], contributes (`_lemma22_entries`)."""
    inside, outside = _lemma22_entries(len(g_inv))
    return [inside[s] if bginv >> i & 1 else outside[s] for i, s in enumerate(g_inv)]


def _lemma22_from_row(row, bg, bginv, bh, bgh, roots_of_h) -> bool:
    """Lemma 2.2 on N(gh) from the row of g (`_lemma22_row`) and the
    inversion bitsets of g, g^-1, h and gh: the predicted N(gh), and
    l(gh) = l(g) + l(h) - 2 |N(g^-1) & N(h)|.  roots_of_h are the bit
    indices of bh, so their count is |N(h)|.  A sentinel in the sum sets a
    bit at npos or above in the predicted N(gh), which bgh never has.  The
    tests hold it to a pass over N(h) root by root."""
    total = sum(map(row.__getitem__, roots_of_h))
    npos = len(row)
    if bgh != (bg & ~(total & ((1 << npos) - 1))) | total >> npos:
        return False
    return bgh.bit_count() == bg.bit_count() + len(roots_of_h) - 2 * (bginv & bh).bit_count()


def _lemma22_every_pair(perms, inverse, bits, words, right) -> set[int]:
    """The keys g * n + h of the pairs that fail `_lemma22_from_row`, over
    every pair of an enumerated group, with one packed evaluation per h.

    Each g owns a field of `width` bits in a big int, g = 0 at the bottom.
    `terms[i]` holds, in field g, entry i of g's row (`_lemma22_row`) plus,
    at bit `top`, 1 if root i + 1 lies in N(g^-1).  Entries of distinct
    roots are distinct bits, and at most npos sentinels sum below `top`, so
    the sum T of terms[i] over N(h) holds in every field the removed roots,
    the added roots shifted up by npos, the sentinel count, and at `top` the
    count c = |N(g^-1) & N(h)|, with no carry between fields.  B & ~T, with
    T >> npos under the mask `mid`, is then the predicted N(gh) of every g,
    a sentinel showing as a bit at npos or above.  The lengths sit at
    `top - 1`, above it: l(g) + l(h) on the predicted side, and on the
    actual side l(gh) plus T under the mask `counts`, c << top = 2 c <<
    (top - 1).

    The h are taken in BFS order (`words`), and h = h' s for its parent h'.
    The products gh of every g are then the right multiplication table of s
    (`GroupData.right`) read at those of h', and one itemgetter of them
    reads the actual fields by index.  T is that of h' plus the terms of
    the roots in N(h) but not in N(h'), less those in N(h') but not in N(h),
    one term in all when the bitsets are true.  Only the last two lengths
    are kept.  The set identity and the length identity are then one
    comparison of two big ints.  Only a failing h is decoded field by
    field.  N(h) is read from bits[h], and every length is a bit count, as
    in `_lemma22_from_row`."""
    n, npos = len(perms), len(perms[0])
    k = npos.bit_length()  # npos < 2**k: a count of npos fits k bits
    top = 2 * npos + k
    nbytes = (top + k + 9) // 8  # l(gh) + 2 c <= 3 npos needs k + 2 bits at top - 1
    width = 8 * nbytes

    def packed(fields):
        return int.from_bytes(b"".join([f.to_bytes(nbytes, "little") for f in fields]),
                              "little")

    mid = packed([(1 << npos + k) - 1] * n)
    counts = packed([((1 << k) - 1) << top] * n)
    ones = packed([1 << top - 1] * n)
    # column i of the g^-1 tables packs as if root i + 1 lay inside every
    # N(g^-1) and as if outside; bit i of N(g^-1), spread, picks per field
    inside_bits = packed([bits[gii] for gii in inverse])
    low, spread = packed([1] * n), (1 << width) - 1
    encoded = [{s: v.to_bytes(nbytes, "little") for s, v in entries.items()}
               for entries in _lemma22_entries(npos)]
    terms = []
    for i, column in enumerate(zip(*[perms[gii] for gii in inverse])):
        inside, outside = [int.from_bytes(b"".join(map(e.__getitem__, column)), "little")
                           for e in encoded]
        at = inside_bits >> i & low
        terms.append(inside & at * spread | outside & ~(at * spread) | at << top)
    lengths = [b.bit_count() for b in bits]
    B = packed(bits)
    L = packed([lg << top - 1 for lg in lengths])
    actual = [(b | lg << top - 1).to_bytes(nbytes, "little") for b, lg in zip(bits, lengths)]

    def total(b):
        """The sum of terms[i] over the bits i of b."""
        out = 0
        while b:
            i = b.bit_length() - 1
            out += terms[i]
            b ^= 1 << i
        return out
    # h -> (the itemgetter of the gh of every g, T), for the last two lengths
    prev, level, depth = {}, {0: (itemgetter(*range(n)), total(bits[0]))}, 0
    failed = set()
    for hi, bh in enumerate(bits):
        word = words[hi]
        if len(word) > depth:
            prev, level, depth = level, {}, len(word)
        if word:
            s = right[word[-1]]
            get, T = prev[s[hi]]
            bp = bits[s[hi]]
            level[hi] = itemgetter(*get(s)), T + total(bh & ~bp) - total(bp & ~bh)
        get, T = level[hi]
        predicted = (B & ~T | T >> npos & mid) + L + bh.bit_count() * ones
        wrong = predicted ^ int.from_bytes(b"".join(get(actual)), "little") + (T & counts)
        if wrong:
            field = (1 << width) - 1
            failed.update(gi * n + hi for gi in range(n) if wrong >> gi * width & field)
    return failed


def _run_inversion_identity(gd, config, notes):
    """Lemma 2.2 on sampled pairs, with N(gh) the bits of gh's own table.

    Every draw counts, and its verdict is its pair's, so each pair is
    evaluated once.  When |W|^2 <= 4 sample_pairs, every pair is evaluated,
    with one packed evaluation per h (`_lemma22_every_pair`): there a pair
    costs far less than a draw, and the evaluation decides which draws fail.
    Above that, each distinct draw is evaluated once, from one row per g
    (`_lemma22_from_row`).  Only when a pair fails are the draws made, to
    count and store their failures in draw order; every other draw passes.
    A failing pair that no draw hits then counts once, after the draws, so
    a check never passes over a failure it evaluated.  `passes` and the
    `sampled_pairs` note are those of the draws either way."""
    perms, bits, inverse = gd.perms, gd.bits, gd.inverse
    n = len(gd)
    seed = f"{config.seed}:{gd.rs.name}"

    def draws():
        rng = random.Random(seed)
        return ((rng.randrange(n), rng.randrange(n)) for _ in range(config.sample_pairs))

    if n * n <= 4 * config.sample_pairs:
        failed = _lemma22_every_pair(perms, inverse, bits, gd.words, gd.right)
    else:
        failed = set()
        roots_of: list = [None] * n  # hi -> the bit indices of N(h)
        # the distinct drawn keys g * n + h, ascending: equal g are runs
        keys = sorted({gi * n + hi for gi, hi in draws()})
        for gi, same_g in groupby(keys, n.__rfloordiv__):
            gii = inverse[gi]
            bg, bginv = bits[gi], bits[gii]
            row = _lemma22_row(perms[gii], bginv)
            base = gi * n
            for key in same_g:
                hi = key - base
                roots = roots_of[hi]
                if roots is None:
                    roots = roots_of[hi] = [i for i, v in enumerate(perms[hi]) if v < 0]
                if not _lemma22_from_row(row, bg, bginv, bits[hi], bits[_product(gd, gi, hi)],
                                         roots):
                    failed.add(key)
    t = _Tally()

    def describe(gi, hi):
        return (f"({gd.display(gi)}, {gd.display(hi)})", "-",
                "set identity violated", "N(gh) decomposition")
    undrawn = set(failed)
    if failed:
        for gi, hi in draws():
            key = gi * n + hi
            if key in failed:
                undrawn.discard(key)
                t.check(False, lambda: describe(gi, hi))
    t.passes += config.sample_pairs - t.failures  # so far only failed draws
    for key in sorted(undrawn):
        t.check(False, lambda: describe(*divmod(key, n)))
    for xi in gd.involutions:
        t.check(_involution_reversal_holds(gd.perms[xi]), lambda: (
            gd.display(xi), "-", "N(x) != -N(x)x", "N(x) = -N(x)x"))
    notes["sampled_pairs"] = config.sample_pairs
    return t


def _run_zero_excess_classes(gd, config, notes):
    orbits, _ = gd.conjugation_orbits()
    t = _Tally()
    for orbit in orbits:
        best = min(map(gd.excess_of, orbit))
        rep = min(orbit, key=gd.perms.__getitem__)
        t.check(best == 0, lambda: (gd.display(rep), "-",
                                    f"class min excess = {best}", "0"))
    notes["classes"] = len(orbits)
    return t


def _run_length_reduced_word(gd, config, notes):
    t = _Tally()
    for wi in range(len(gd)):
        t.check(gd.lengths[wi] == len(gd.words[wi]), lambda: (
            gd.display(wi), "-", f"|N(w)|={gd.lengths[wi]}",
            f"word length {len(gd.words[wi])}"))
    return t


def _run_parabolic_length(gd, config, notes):
    """W_J closed by a BFS on `GroupData.right` for the generators of J, in
    the order of `elements.bfs_tables`, so an element's word length in W_J
    is its depth."""
    t = _Tally()
    for J in generator_subsets(gd.rs, config.parabolic):
        if not J:
            continue
        ctx, _ = gd.parabolic(J)
        tables = [gd.right[r] for r in J]
        jd = " ".join(str(j) for j in ctx.J_display)
        level, seen, depth = [0], {0}, 0
        while level:
            for wi in level:
                ok = ctx.contains_table(gd.bits[wi]) and gd.lengths[wi] == depth
                t.check(ok, lambda: (gd.display(wi), jd, f"ambient length {gd.lengths[wi]}",
                                     f"subgroup word length {depth}"))
            nxt = []
            for wi in level:
                for table in tables:
                    if table[wi] not in seen:
                        seen.add(table[wi])
                        nxt.append(table[wi])
            level = nxt
            depth += 1
    return t


# -------------------------------------------------------------- registry ---

def _needs_signed(components):
    if len(components) != 1 or components[0].family not in ("A", "B", "D"):
        return "needs a signed-permutation family (A, B or D)"
    return None


def _needs_bd(components):
    if len(components) != 1 or components[0].family not in ("B", "D"):
        return "needs an irreducible type B or D group"
    return None


@dataclass(frozen=True)
class TheoremSpec:
    name: str
    title: str
    runner: object
    applicable: object = None  # components -> skip reason or None


THEOREMS: dict[str, TheoremSpec] = {}


def _register(name, title, runner, applicable=None):
    THEOREMS[name] = TheoremSpec(name, title, runner, applicable)


_register("parabolic-reflection-excess",
          "reflection excess is insensitive to standard parabolic restriction",
          partial(_run_parabolic_equality, reflection=True))
_register("parabolic-excess",
          "excess is insensitive to standard parabolic restriction "
          "(conditional on splits for type D)",
          _run_parabolic_excess)
_register("nw-subset-niw",
          "N(w) is covered by the inversions of the inverting involutions",
          _run_nw_subset_niw)
_register("cuspidal-full-inversions",
          "cuspidal elements have N(I_w) equal to all positive roots",
          _run_cuspidal_full,
          lambda comps: None if len(comps) == 1 else "needs an irreducible group")
_register("centre-full-inversions",
          "with a central inversion, N(I_w) is everything for every w",
          _run_centre_full,
          lambda comps: None if all(d.has_central_inversion() for d in comps)
          else "group has no central inversion")
_register("spartan-support",
          "spartan pairs stay inside the support of w (one-point slack in D)",
          _run_spartan_support, _needs_signed)
_register("spartan-overlap",
          "2-cycles of spartan pairs do not straddle maximal splits",
          _run_spartan_overlap, _needs_signed)
_register("spartan-swapcycle",
          "cycles swapped by a spartan involution must interleave",
          _run_spartan_swapcycle, _needs_signed)
_register("excess-even-symmetric",
          "excess is even, inversion-symmetric, and bounded by reflection excess",
          _run_excess_even_symmetric)
_register("excess-additivity",
          "excess and reflection excess add over direct factors",
          _run_excess_additivity,
          lambda comps: None if len(comps) > 1 else "needs a reducible group")
_register("jset-equivalence",
          "fixed-space filter equals the reflection-length-additive filter",
          _run_jset_equivalence)
_register("structured-iw-oracle",
          "cycle-type enumeration of I_w matches the exhaustive filter",
          _run_structured_iw, _needs_bd)
_register("reflection-length-oracle",
          "least l_R(x) + l_R(xw) over I_w, from traces, matches BFS reflection "
          "factorization",
          _run_reflection_length_oracle)
_register("inversion-set-identity",
          "inversion sets compose correctly on random pairs; involutions reverse",
          _run_inversion_identity)
_register("zero-excess-classes",
          "every conjugacy class contains an element of excess zero",
          _run_zero_excess_classes)
_register("length-reduced-word",
          "inversion count equals reduced word length",
          _run_length_reduced_word)
_register("parabolic-length",
          "length inside a standard parabolic agrees with ambient length",
          _run_parabolic_length)


def theorem_names() -> list[str]:
    return list(THEOREMS)


def _selected(config: SuiteConfig) -> list[str]:
    """The config's theorems in registry order."""
    if "all" in config.theorems:
        return list(THEOREMS)
    return [n for n in THEOREMS if n in config.theorems]


def _plan(config: SuiteConfig):
    """(group index, theorem, skip reason or None) for each check of a run,
    in the order of its results."""
    selected = _selected(config)
    for i, comps in enumerate(config.descriptors):
        for name in selected:
            thm = THEOREMS[name]
            yield i, name, thm.applicable(comps) if thm.applicable else None


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run the config's theorems on its groups.  A runner that raises
    anything but GuardExceeded fails its theorem as one check, whose
    counterexample names the exception, and the next theorem runs."""
    t0 = time.monotonic()
    limit = effective_guard(config.guard)
    systems: list[RootSystem] = []
    for comps in config.descriptors:
        rs = build_root_system(comps, limit)
        check_pair_pass(rs, limit)
        if not isinstance(config.parabolic, str):  # refused before a runner would fail on it
            parabolic_context(rs, config.parabolic)
        systems.append(rs)
    lines: list[str] = []  # SuiteResult.record
    bad: list = []  # SuiteResult.bad
    current = gd = None
    for i, name, reason in _plan(config):
        if reason is not None:
            continue
        if i != current:
            gd = None  # the last group's tables go before the next are built
            current, gd = i, GroupData(systems[i], guard=limit)
        notes: dict = {}
        try:
            tally = THEOREMS[name].runner(gd, config, notes)
        except GuardExceeded:
            raise
        except Exception as exc:  # one failing check, and the run goes on
            notes, tally = {}, _Tally()
            tally.check(False, lambda: ("-", "-", f"{type(exc).__name__}: {exc}",
                                        "no exception"))
        if tally.bad:
            bad.append((len(lines), tally.bad))
        text = json.dumps(notes, sort_keys=True) if notes else ""
        lines.append(f"{tally.passes} {tally.failures} {text}")
    return SuiteResult(config, limit, sys.intern("\n".join(lines)), tuple(bad),
                       time.monotonic() - t0)
