"""Quandle coloring quivers and shadow cocycle invariants of knots.

The pipeline: parse a PD code into a Diagram, enumerate quandle
colorings (or count them through the Smith normal form), extend
colorings to shadow colorings, weight them with a 3-cocycle, and
assemble coloring quivers, shadow cocycle quivers, quiver polynomials
and isomorphism verdicts.
"""

from .quandle import (
    FiniteQuandle,
    InvalidParameterError,
    QuandleAxiomError,
    QuandleMap,
    compose,
    constant_map,
    enumerate_autos,
    enumerate_homs,
    from_table,
    identity_map,
    is_affine_end,
    is_homomorphism,
    make_alexander,
    make_dihedral,
    parse_table_text,
    table_text,
)
from .diagram import (
    Crossing,
    Diagram,
    ParseError,
    PDCode,
    StructuralError,
    UnsupportedDiagramError,
    build_diagram,
    crossing_relation,
    emit_pd,
    parse_pd,
    pd_from_quadruples,
    unknot_diagram,
)
from .coloring import (
    Coloring,
    ColoringMatrix,
    ShadowColoring,
    ShadowConflictError,
    apply_endo,
    coloring_matrix,
    count_colorings_dihedral,
    enumerate_colorings,
    extend_shadow,
    is_valid_coloring,
)
from .cocycle import (
    Cocycle3,
    invariant_multiset,
    mochizuki,
    multiset_to_json,
    verify_cocycle,
    weight_sum,
    zero_cocycle,
)
from .quiver import (
    Polynomial2,
    WeightedQuiver,
    cocycle_polynomial,
    coloring_quiver,
    end_modules,
    quiver_isomorphic,
    quiver_to_json,
    shadow_cocycle_quiver,
    to_dot,
)
from .snf import smith_normal_form, solution_count_mod
from .catalog import Catalog, CatalogEntry, CatalogError, load_catalog

__version__ = "0.1.0"
