"""Golden worked examples, recomputed from scratch and diffed on every run.

Three example ids are exposed: "sym5-table" (the six inverting involutions
of a 3-cycle in Sym(5) with their inversion sets), "d12" (an order-11
signed cycle in D_12 whose parabolic excess exceeds its plain excess), and
"sym7-gap" (a root missed by N(I_w) in Sym(7)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .descriptors import CoxeterDescriptor
from .elements import element_from_word, inversion_set_of_set
from .excess import (centralizer_order, excess, inverting_involutions,
                     inverting_involutions_structured, parabolic_excess,
                     spartan_pairs)
from .parabolic import parabolic_context
from .rootsystem import build_root_system
from .signedperm import from_root_perm, parse, to_root_perm

SYM5_W = "(+2 +3 +5)"

SYM5_TABLE = {
    "(+2 +3)": {"e2-e3"},
    "(+3 +5)": {"e3-e4", "e3-e5", "e4-e5"},
    "(+2 +5)": {"e2-e3", "e2-e4", "e2-e5", "e3-e5", "e4-e5"},
    "(+1 +4)(+2 +3)": {"e1-e2", "e1-e3", "e1-e4", "e2-e3", "e2-e4", "e3-e4"},
    # the e1-e5 entry is forced: an inversion set containing e1-e3 and e3-e5
    # must contain their sum, so no permutation matches this row with e1-e3
    "(+1 +4)(+3 +5)": {"e1-e2", "e1-e4", "e1-e5", "e2-e4", "e3-e4", "e3-e5"},
    "(+1 +4)(+2 +5)": {"e1-e3", "e1-e4", "e1-e5", "e2-e3", "e2-e4", "e2-e5",
                       "e3-e4", "e3-e5"},
}

SYM5_NW = {"e2-e5", "e3-e4", "e3-e5", "e4-e5"}

D12_W = "(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)"
D12_X = "(-1)(+2 +3)(+4 +5)(+6 +7)(+8 +9)(+10 +11)(-12)"
D12_Y = "(-1)(-2)(+3 +4)(+5 +6)(+7 +8)(+9 +10)(+11 +12)"
# 28-letter reduced word in 1-based generator numbers; generator 10 is the
# branch node of the D12 diagram
D12_WORD = (4, 6, 8, 10,
            3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 10,
            9, 8, 7, 6, 5, 4, 3, 2, 3, 5, 7, 9, 11)
D12_LENGTH = 28
D12_EXCESS = 46
D12_PARABOLIC_EXCESS = 60
D12_J = tuple(range(1, 12))  # 0-based: generators r2..r12, a D11 subsystem

SYM7_W = "(+1 +2 +3 +4)(+5 +6 +7)"
SYM7_MISSING_ROOT = "e4-e5"


@dataclass(slots=True)  # callers may keep many results
class ReproResult:
    example: str
    ok: bool
    diffs: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {"example": self.example, "ok": self.ok, "diffs": self.diffs,
                "details": {k: self.details[k] for k in sorted(self.details)}}


def _diff(diffs, name, got, want):
    if got != want:
        diffs.append(f"{name}: got {got!r}, expected {want!r}")


def run_sym5() -> ReproResult:
    rs = build_root_system(CoxeterDescriptor("A", 4))
    w = to_root_perm(parse(SYM5_W, 5), rs)
    diffs: list[str] = []
    _diff(diffs, "N(w)", set(rs.labels_of_bits(w.inversions())), SYM5_NW)
    iw = inverting_involutions(rs, w)
    table = {from_root_perm(x).format(): set(rs.labels_of_bits(x.inversions()))
             for x in iw.elements}
    _diff(diffs, "I_w members", set(table), set(SYM5_TABLE))
    for text, roots in sorted(SYM5_TABLE.items()):
        if text in table:
            _diff(diffs, f"N({text})", table[text], roots)
    _diff(diffs, "e(w)", excess(w, iw), 0)
    # no single member covers N(w)
    covered = [t for t, roots in table.items() if SYM5_NW <= roots]
    _diff(diffs, "members covering N(w)", covered, [])
    pair = spartan_pairs(w, iw)[0]
    details = {"excess": 0, "members": sorted(table),
               "first_witness": [from_root_perm(pair.x).format(),
                                 from_root_perm(pair.y).format()]}
    return ReproResult("sym5-table", not diffs, diffs, details)


def run_d12() -> ReproResult:
    rs = build_root_system(CoxeterDescriptor("D", 12))
    w_sp = parse(D12_W, 12)
    w = to_root_perm(w_sp, rs)
    diffs: list[str] = []
    _diff(diffs, "length", w.length(), D12_LENGTH)
    word_elt = element_from_word(rs, [r - 1 for r in D12_WORD])
    _diff(diffs, "word product", word_elt.perm == w.perm, True)
    _diff(diffs, "word letters", len(D12_WORD), D12_LENGTH)
    x = to_root_perm(parse(D12_X, 12), rs)
    y = to_root_perm(parse(D12_Y, 12), rs)
    _diff(diffs, "x^2", (x * x).is_identity(), True)
    _diff(diffs, "y^2", (y * y).is_identity(), True)
    _diff(diffs, "xy", (x * y).perm == w.perm, True)
    defect = 2 * (x.inversions() & y.inversions()).bit_count()
    _diff(diffs, "2|N(x) & N(y)|", defect, D12_EXCESS)
    iw = inverting_involutions_structured(rs, w_sp)
    _diff(diffs, "e(w)", excess(w, iw), D12_EXCESS)
    coset = centralizer_order(w_sp)
    _diff(diffs, "candidate coset size", coset, 44)
    member_images = set(iw.signed)
    _diff(diffs, "x in structured I_w", parse(D12_X, 12).images in member_images, True)
    _diff(diffs, "y in structured I_w", parse(D12_Y, 12).images in member_images, True)
    ctx = parabolic_context(rs, D12_J)
    _diff(diffs, "w in W_J", ctx.contains(w), True)
    ej = parabolic_excess(w, ctx, iw)
    _diff(diffs, "e_J(w)", ej, D12_PARABOLIC_EXCESS)
    members_j = [v for v in iw.elements if ctx.contains(v)]
    best_j = min(
        (2 * (v.inversions() & (v * w).inversions()).bit_count(), v) for v in members_j)
    details = {
        "candidate_coset": coset,
        "inverting_involutions": len(iw.elements),
        "excess": D12_EXCESS,
        "parabolic_excess": ej,
        "parabolic_witness": [from_root_perm(best_j[1]).format(),
                              from_root_perm(best_j[1] * w).format()],
        "gap": ej - D12_EXCESS,
    }
    _diff(diffs, "gap exists", ej > excess(w, iw), True)
    return ReproResult("d12", not diffs, diffs, details)


def run_sym7() -> ReproResult:
    rs = build_root_system(CoxeterDescriptor("A", 6))
    w = to_root_perm(parse(SYM7_W, 7), rs)
    diffs: list[str] = []
    iw = inverting_involutions(rs, w)
    niw = inversion_set_of_set(iw.elements)
    missing = rs.index_of_label(SYM7_MISSING_ROOT)
    _diff(diffs, f"{SYM7_MISSING_ROOT} outside N(I_w)", niw >> missing & 1, 0)
    details = {"iw_size": len(iw.elements),
               "niw_size": niw.bit_count(),
               "positive_roots": rs.num_positive}
    return ReproResult("sym7-gap", not diffs, diffs, details)


EXAMPLES = {
    "sym5-table": run_sym5,
    "d12": run_d12,
    "sym7-gap": run_sym7,
}


def run_example(example_id: str) -> ReproResult:
    if example_id not in EXAMPLES:
        raise ValueError(f"unknown example {example_id!r}; known: {sorted(EXAMPLES)}")
    return EXAMPLES[example_id]()
