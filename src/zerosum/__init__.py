"""Exact subsequence-sum counting and zero-sum structure workbench for
finite abelian groups."""

from .groups import (
    Group,
    GroupElement,
    Subgroup,
    all_elements,
    all_subgroups,
    d_star,
    elem_add,
    elem_neg,
    elem_order,
    elem_scale,
    make_group,
    order_two_subgroups,
    parse_group,
    quotient_group,
    smith_normal_form,
    subgroup_closure,
)
from .sequences import (
    Sequence,
    divides,
    format_sequence,
    iterate_multisets,
    parse_sequence,
    seq_div,
    seq_mul,
    seq_neg,
    seq_sum,
    sequence,
)
from .counting import (
    CountVector,
    ExtremalSet,
    count_all,
    count_brute_vector,
    extremal_set,
    subsums,
    transform,
)
from .davenport import (
    DavenportResult,
    davenport,
    davenport_exact,
    davenport_formula,
    is_zero_sum_free,
    t_bound,
)
from .structure import (
    ConditionProfile,
    MinZeroSumReport,
    check_corollary_decomposition,
    check_cyclic_characterization,
    check_es_chain,
    check_odd_group_structure,
    condition_profile,
    construct_unbounded_family,
    max_subgroups_in_extremal_set,
    minimal_zero_sums,
)
from .search import (
    ExtremalCatalog,
    conjecture1_harness,
    conjecture2_harness,
    construct_extremal,
    find_extremals,
    random_search,
)
from .reports import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Group", "GroupElement", "Subgroup", "Sequence", "CountVector",
    "ExtremalSet", "DavenportResult", "MinZeroSumReport", "ConditionProfile",
    "ExtremalCatalog", "VerificationReport",
    "make_group", "parse_group", "all_elements", "all_subgroups",
    "order_two_subgroups", "subgroup_closure", "quotient_group",
    "smith_normal_form", "d_star",
    "elem_add", "elem_neg", "elem_scale", "elem_order",
    "sequence", "parse_sequence", "format_sequence", "seq_sum", "divides",
    "seq_mul", "seq_div", "seq_neg", "iterate_multisets",
    "count_all", "count_brute_vector", "subsums", "transform",
    "extremal_set", "is_zero_sum_free", "davenport", "davenport_exact",
    "davenport_formula", "t_bound",
    "minimal_zero_sums", "check_odd_group_structure",
    "check_corollary_decomposition", "check_es_chain",
    "max_subgroups_in_extremal_set", "condition_profile",
    "construct_unbounded_family", "check_cyclic_characterization",
    "find_extremals", "construct_extremal", "conjecture1_harness",
    "conjecture2_harness", "random_search",
]
