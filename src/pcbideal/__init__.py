"""Exact toolkit for positive critical binomial matrices and their ideals."""

__version__ = "0.1.0"

from .core import (
    Binomial,
    DiagonalSignError,
    DimensionTooSmall,
    NegativeEntry,
    NonPositiveOffDiagonal,
    NonSquare,
    PcbAnalysis,
    PcbMatrix,
    PcbValidationError,
    RowSumNonzero,
    TooSmall,
    TorsionProfile,
    analyze,
    associated_vector,
    generators,
    grading_degree,
    mixedness_witness,
    normalized_snf,
    small_dim_decomposition,
    syzygy_vectors,
    torsion_profile,
    validate,
)
from .decomp import (
    BadPrime,
    ComponentCount,
    ComponentSpec,
    DecompositionReport,
    PrimeFieldRealization,
    VerificationFailed,
    component_count,
    embedded_component,
    enumerate_components,
    hull,
    hull_is_prime,
    pcb_ideal,
    realize_over_prime_field,
    unmixedness_test,
    verify_full_decomposition,
)
from .intmat import (
    IntMatrix,
    SnfResult,
    adjugate,
    bezout,
    determinant,
    lattice_contains,
    smith_normal_form,
)
