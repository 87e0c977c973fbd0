"""Exact local-unitary classification of maximally entangled Pauli state sets."""

from .classify import (
    Classification,
    ClassReport,
    CountFormula,
    DimensionTooLarge,
    OutOfDomain,
    enumerate_pairs,
    enumerate_triples,
    expected_count,
    family_breakdown,
    formula_for,
    locate_class,
    sign_flip_feasibility,
)
from .moves import (
    GuardFailed,
    Move,
    PreconditionViolated,
    apply_trace,
    parse_move,
    rule_catalog,
)
from .pauli import (
    CosFingerprint,
    Gpm,
    GpmSet,
    InvariantVector,
    default_probes,
    gpm_dagger,
    gpm_product,
    gpm_trace,
    invariant1,
    invariant2,
    invariant3,
    invariant_vector,
    powered_set,
)
from .residues import (
    BracketClass,
    NonInvertible,
    bracket_class,
    bracket_partition,
    count_quadratic_check,
    factorize,
    inv_mod,
    prime_power,
    solve_self_inverse,
)

__version__ = "0.1.0"
