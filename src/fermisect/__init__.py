"""Bisected 1-D massive Fermi field toolkit.

Subsection mode bases on a bisected interval, closed-form Bogoliubov
coefficients with an independent quadrature oracle, the resulting vacuum
noise spectra and cross-half correlations, an exact fermionic Fock-space
engine, phase-space smeared detector statistics, and a two-outcome POVM toy
model.
"""

from .bogoliubov import (
    QuadratureUnresolved,
    canonicity_residual,
    coeff_w,
    overlap_oracle,
    region_sign,
)
from .detector import (
    DetectorMode,
    LevelTooHigh,
    PhasePoint,
    WidthMismatch,
    gram_matrix,
    joint_correlation_exact,
    joint_correlation_surface,
    mode_overlap,
    registration_probabilities,
)
from .field import (
    Branch,
    DegenerateDispersion,
    FieldConfig,
    Region,
    Spinor,
    energy,
    mode_function,
    spinor,
)
from .fock import (
    DimensionTooLarge,
    FockSpace,
    QuasiOperator,
    build_space,
    random_canonical_transform,
    vacuum_expectation,
)
from .povm import (
    JointTable,
    OutOfRange,
    UndefinedConditional,
    conditionals,
    entangled_table,
    product_table,
)
from .spectrum import (
    correlation_matrix,
    occupation_spectrum,
)

__version__ = "0.1.0"
