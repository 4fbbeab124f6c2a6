"""Term-by-term forms of the oracle engines, the references their fast forms must equal bit for bit."""

import numpy as np
from scipy import sparse

from fermisect.detector import DetectorMode, _check_widths, _state_modes, mode_overlap


def matrix_by_terms(op, space):
    """`QuasiOperator.matrix` as a sum of one sparse matrix per nonzero coefficient."""
    out = sparse.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for j, a in enumerate(op.alpha):
        if a != 0:
            out = out + a * space.create_particle[j].conj().T.tocsr()
    for j, b in enumerate(op.beta):
        if b != 0:
            out = out + np.conj(b) * space.create_anti[j]
    return out


def joint_correlation_by_overlaps(a, b) -> float:
    """`joint_correlation` from its eight scalar mode overlaps."""
    _check_widths(a, b)
    g1, g2 = _state_modes(a.sigma)
    mode_a = DetectorMode(a, 0)
    mode_b = DetectorMode(b, 0)
    occupied = sum(mode_overlap(mode_a, g) * mode_overlap(g, mode_b) for g in (g1, g2))
    remainder = mode_overlap(mode_b, mode_a) - sum(
        mode_overlap(mode_b, g) * mode_overlap(g, mode_a) for g in (g1, g2)
    )
    return float((occupied * remainder).real)
