"""Term-by-term and row-by-row forms of the oracle engines.

They are the references that the fast forms must equal bit for bit.
"""

import numpy as np
from scipy import sparse

from fermisect.bogoliubov import QuadratureUnresolved
from fermisect.detector import DetectorMode, _check_widths, _state_modes, mode_overlap
from fermisect.field import Branch, Region, mode_function, section_momentum, spinor, subsection_momentum


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
    """One `joint_correlation_surface` entry from its eight scalar mode overlaps."""
    _check_widths(a, b)
    g1, g2 = _state_modes(a.sigma)
    mode_a = DetectorMode(a, 0)
    mode_b = DetectorMode(b, 0)
    occupied = sum(mode_overlap(mode_a, g) * mode_overlap(g, mode_b) for g in (g1, g2))
    remainder = mode_overlap(mode_b, mode_a) - sum(
        mode_overlap(mode_b, g) * mode_overlap(g, mode_a) for g in (g1, g2)
    )
    return float((occupied * remainder).real)


def _row_values(m, ks, region, branches, cfg, order):
    """Mode overlap integrals of row ``m`` over the indices ``ks`` at one quadrature order."""
    lo, hi = region.interval(cfg)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    f_half = np.conj(mode_function(m, region, x, cfg))
    f_full = mode_function(ks[:, None], Region.WHOLE, x, cfg)
    if branches[0] is not branches[1]:
        f_full = np.conj(f_full)
    return np.sum(w * f_half * f_full, axis=-1)


def row_oracle(m, k, region, branches, cfg, order=None):
    """`overlap_oracle` one row ``m`` at a time, each row's order groups integrated apart."""
    ks = np.atleast_1d(np.asarray(k, dtype=int))
    if order is None:
        cycles = (abs(2 * m) + np.abs(ks)) / 2.0
        orders = np.maximum(64, 32 * np.ceil((8 * cycles + 16) / 32).astype(int))
    else:
        orders = np.full(ks.shape, order)
    b1, b2 = branches
    spin = spinor(subsection_momentum(m, cfg), cfg.mass, b1).dot(
        spinor(section_momentum(ks, cfg), cfg.mass, b2))
    coarse = np.empty(ks.shape, dtype=complex)
    fine = np.empty_like(coarse)
    for group_order in np.unique(orders).tolist():
        group = np.flatnonzero(orders == group_order)
        args = (m, ks[group], region, branches, cfg)
        coarse[group] = spin[group] * _row_values(*args, group_order)
        fine[group] = spin[group] * _row_values(*args, 2 * group_order)
    gap = np.abs(fine - coarse)
    unresolved = np.flatnonzero(gap > 1e-8)
    if unresolved.size:
        i = unresolved[0]
        raise QuadratureUnresolved(f"entry (m={m}, k={ks[i]}): orders {orders[i]} and"
                                   f" {2 * orders[i]} disagree by {gap[i]:.3e}")
    if b1 is not b2:
        fine = np.conj(fine) if b1 is Branch.POSITIVE else -np.conj(fine)
    return fine[0] if np.ndim(k) == 0 else fine
