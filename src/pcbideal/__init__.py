"""Exact toolkit for positive critical binomial matrices and their ideals.

The names only `pcb decompose` runs (ComponentSpec, PrimeFieldRealization,
embedded_component, enumerate_components and realize_over_prime_field)
load from .decompose on the first lookup of one of them, through the
module __getattr__ (PEP 562), so that no other command compiles it.
"""

__version__ = "0.1.0"

from .core import (
    Binomial,
    ComponentCount,
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
    component_count,
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
    DecompositionReport,
    VerificationFailed,
    hull,
    hull_is_prime,
    pcb_ideal,
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

_DECOMPOSE = (
    "ComponentSpec",
    "PrimeFieldRealization",
    "embedded_component",
    "enumerate_components",
    "realize_over_prime_field",
)


def __getattr__(name: str):
    if name in _DECOMPOSE:
        from . import decompose

        return getattr(decompose, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
