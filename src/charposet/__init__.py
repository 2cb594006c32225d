"""charposet: exact connectivity of character-augmented p-subgroup posets.

Builds small finite groups as explicit multiplication tables, computes
exact complex character tables via modular arithmetic (homomorphisms into
GF(q)^* for abelian groups, Clifford theory along the p-subgroup lattice
for non-abelian p-groups, Dixon's method otherwise),
assembles the p-subgroup poset S(p, e) and its character augmentation
Gamma(p, e), and verifies the connectivity theorems on a built-in catalog.
"""

from .catalog import (
    catalog_roster,
    cycles_string,
    format_expr,
    parse_group_expr,
    realize,
    realize_group,
)
from .chartab import (
    CharContext,
    CharTable,
    Character,
    conjugacy_classes,
    decompose_restriction,
    dixon_modulus,
    induce,
    inner_product,
    irr_table,
    restrict_values,
)
from .errors import CharposetError
from .gamma import (
    GammaPoset,
    VerificationReport,
    build_gamma_poset,
    build_s_poset,
    gamma_poset,
    s_poset,
    scan_nontrivial_I,
    strongly_embedded_check,
    verify,
    x_of_sylow,
)
from .group import (
    GroupTable,
    Subgroup,
    all_subgroups,
    common_intersection_of_order,
    enumerate_p_subgroups,
    group_from_generators,
    make_subgroup,
    normalizer,
    omega1,
    subgroup_closure,
)
from .poset import Partition, action_on_components, components

__version__ = "1.0.0"

__all__ = [
    "CharContext", "CharTable", "Character", "CharposetError", "GammaPoset",
    "GroupTable", "Partition", "Subgroup", "VerificationReport",
    "action_on_components", "all_subgroups", "build_gamma_poset",
    "build_s_poset", "catalog_roster", "common_intersection_of_order",
    "components", "conjugacy_classes", "cycles_string",
    "decompose_restriction", "dixon_modulus", "enumerate_p_subgroups",
    "format_expr", "gamma_poset", "group_from_generators", "induce",
    "inner_product", "irr_table", "make_subgroup", "normalizer", "omega1",
    "parse_group_expr", "realize", "realize_group",
    "restrict_values", "s_poset",
    "scan_nontrivial_I", "strongly_embedded_check", "subgroup_closure",
    "verify", "x_of_sylow",
]
