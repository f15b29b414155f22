"""Finite group engine for derived-subgroup chain analysis."""

__version__ = "0.1.0"

from .core import (
    FiniteGroup,
    PermGroup,
    QuotientGroup,
    TableGroup,
    closure_ids,
    perm_from_cycles,
)
from .errors import DcgroupError
from .pc import PcGroup, PcPresentation, check_consistency, collect, realize_pc_group
from .lattice import (
    Subgroup,
    SubgroupClass,
    SubgroupLattice,
    all_subgroups,
    closure,
    is_normal,
    join,
    meet,
    normal_closure,
    subgroups_brute,
)
from .structure import (
    abelian_type,
    center,
    centralizer,
    derived_length,
    derived_series,
    derived_subgroup,
    exponent,
    fundamental_subgroup,
    is_cyclic,
    is_pgroup,
    lower_central_series,
    min_generators,
    nilpotency_class,
    normalizer,
    sylow_decomposition,
)
from .constructors import build_family, witness_bundle
from .dc import (
    GroupContext,
    dc_2group_predicate,
    dc_sufficient_conditions,
    is_dc_fast,
    is_sublattice,
    witness_property_check,
)
from .cli import parse_group_spec, realize_spec, run_census, validate_spec

__all__ = [
    "__version__",
    # core
    "FiniteGroup",
    "PermGroup",
    "QuotientGroup",
    "TableGroup",
    "closure_ids",
    "perm_from_cycles",
    # errors
    "DcgroupError",
    # pc
    "PcGroup",
    "PcPresentation",
    "check_consistency",
    "collect",
    "realize_pc_group",
    # lattice
    "Subgroup",
    "SubgroupClass",
    "SubgroupLattice",
    "all_subgroups",
    "closure",
    "is_normal",
    "join",
    "meet",
    "normal_closure",
    "subgroups_brute",
    # structure
    "abelian_type",
    "center",
    "centralizer",
    "derived_length",
    "derived_series",
    "derived_subgroup",
    "exponent",
    "fundamental_subgroup",
    "is_cyclic",
    "is_pgroup",
    "lower_central_series",
    "min_generators",
    "nilpotency_class",
    "normalizer",
    "sylow_decomposition",
    # constructors
    "build_family",
    "witness_bundle",
    # dc
    "GroupContext",
    "dc_2group_predicate",
    "dc_sufficient_conditions",
    "is_dc_fast",
    "is_sublattice",
    "witness_property_check",
    # cli
    "parse_group_spec",
    "realize_spec",
    "run_census",
    "validate_spec",
]
