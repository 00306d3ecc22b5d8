"""coxex: excess statistics and inverting involutions in finite Coxeter groups."""

from .descriptors import CoxeterDescriptor, parse_descriptor
from .elements import (GroupElement, GuardExceeded, enumerate_group,
                       group_elements, identity_element, inversion_set,
                       inversion_set_of_set, reduced_words)
from .excess import (DnCondition, ExcessReport, GroupData, InvolutionSet,
                     SpartanPair, dn_condition_check, excess, excess_report,
                     inverting_involutions, inverting_involutions_structured,
                     inverting_signed_involutions, involutions_inverting,
                     j_set, n_of_inverting_set, overlap_check,
                     parabolic_excess, parabolic_reflection_excess,
                     reflection_excess, spartan_pairs, spartan_support_check,
                     swapcycle_check)
from .parabolic import ParabolicContext, parabolic_context, split_context
from .repro import run_example
from .rootsystem import (RootSystem, build_root_system, load_root_system,
                         root_label, save_root_system)
from .signedperm import (CycleDecomposition, SignedCycle, SignedPermutation,
                         centralizer_elements, centralizer_generators,
                         format_cycles, from_root_perm, parse, to_root_perm)
from .verify import SuiteConfig, SuiteResult, make_config, run_suite, theorem_names

__version__ = "0.1.0"

__all__ = [
    "CoxeterDescriptor", "parse_descriptor",
    "GroupElement", "GuardExceeded", "RootSystem", "build_root_system",
    "save_root_system", "load_root_system", "root_label",
    "identity_element", "enumerate_group", "group_elements", "reduced_words",
    "inversion_set", "inversion_set_of_set",
    "ParabolicContext", "parabolic_context", "split_context",
    "SignedPermutation", "SignedCycle", "CycleDecomposition", "parse",
    "format_cycles", "to_root_perm", "from_root_perm",
    "centralizer_generators", "centralizer_elements",
    "InvolutionSet", "SpartanPair", "DnCondition", "ExcessReport", "GroupData",
    "inverting_involutions", "inverting_involutions_structured",
    "inverting_signed_involutions", "involutions_inverting", "j_set",
    "excess", "spartan_pairs", "reflection_excess", "parabolic_excess",
    "parabolic_reflection_excess", "n_of_inverting_set", "excess_report",
    "spartan_support_check", "overlap_check", "swapcycle_check",
    "dn_condition_check", "run_example",
    "SuiteConfig", "SuiteResult", "make_config", "run_suite", "theorem_names",
]
