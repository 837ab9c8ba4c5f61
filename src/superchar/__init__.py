"""Exact supercharacter theory of finite algebra groups.

The library computes the standard supercharacter theory of the
unitriangular groups U_n(F_q) by two independent routes (orbit averaging
and the closed coloured-set-partition formula), verifies the axioms and
Plancherel identities in exact cyclotomic arithmetic, and follows
supercharacters up AF towers of finite fields.

The package exports the names the README's Library section documents;
everything else is imported from its module.
"""

from .cyclotomic import Cyclotomic
from .dual import DualOrbit, dual_canonical, enumerate_dual_orbits
from .gf import Embedding, field_construct, field_trace
from .nilpotent import NilMatrix, group_inv
from .orbits import Superclass, canonical_form, enumerate_superclasses
from .partitions import build_e, enumerate_labels, format_coloured
from .table import (
    RouteDisagreement,
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
    TowerLabel,
    convergence_report,
    fsc_diagnostic,
    plancherel_profile,
)

__version__ = "0.1.0"
