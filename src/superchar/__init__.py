"""Exact supercharacter theory of finite algebra groups.

The library computes the standard supercharacter theory of the
unitriangular groups U_n(F_q) by two independent routes (orbit averaging
and the closed coloured-set-partition formula), verifies the axioms and
Plancherel identities in exact cyclotomic arithmetic, and follows
supercharacters up AF towers of finite fields.
"""

from .cyclotomic import Cyclotomic, cyclo_approx, cyclo_root
from .dual import (
    DualOrbit,
    base_character,
    dual_act,
    dual_canonical,
    dual_eval,
    dual_orbit,
    enumerate_dual_orbits,
    pairing_exponent,
)
from .gf import (
    Embedding,
    FieldElement,
    FiniteField,
    embed_into,
    field_cap,
    field_construct,
    field_embed,
    field_trace,
    space_cap,
    trace_lift,
)
from .nilpotent import (
    GroupElement,
    NilMatrix,
    format_matrix,
    group_inv,
    group_mul,
    parse_matrix,
)
from .orbits import (
    Superclass,
    canonical_form,
    enumerate_superclasses,
    superclass_orbit,
)
from .partitions import (
    ColouredPartition,
    SetPartition,
    arcs,
    build_e,
    closed_size,
    compute_SR,
    count_labels,
    enumerate_labels,
    enumerate_partitions,
    format_coloured,
    format_partition,
    nest,
    nest_arc,
    parse_coloured,
    parse_partition,
    partition_from_arcs,
    r_of,
)
from .table import (
    RouteDisagreement,
    SupercharTable,
    build_table,
    inner_product,
    plancherel,
    sch_bruteforce,
    sch_closed,
    table_from_json,
    table_to_csv,
    table_to_json,
    verify_theory,
)
from .tower import (
    FieldTower,
    TowerCharacter,
    TowerLabel,
    char_extend,
    char_restrict,
    convergence_report,
    fsc_diagnostic,
    limit_value,
    plancherel_profile,
    tower_supercharacter,
)

__version__ = "0.1.0"
