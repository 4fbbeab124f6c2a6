"""Term-by-term, row-by-row and pair-by-pair forms of the oracle engines and of the kernel.

They are the references that the fast forms must equal bit for bit.
"""

import math
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.special import eval_genlaguerre

from fermisect.bogoliubov import KAPPA_ALPHA, KAPPA_BETA, QuadratureUnresolved, coeff_w
from fermisect.detector import DetectorMode, PhasePoint, gram_matrices
from fermisect.field import (Branch, energy, mode_function, section_momentum, spinor,
                             subsection_momentum)
from fermisect.fock import QuasiOperator, build_space


@lru_cache(maxsize=8)
def jordan_wigner(nmodes: int) -> tuple:
    """Creation operators of an `nmodes` chain as Kronecker products, CSR sparse.

    Mode ``i`` is ``1 x ... x 1 x up x Z x ... x Z``, mode 0 the leftmost
    factor; the annihilators are their adjoints.
    """
    id2 = sparse.identity(2, format="csr")
    z = sparse.csr_matrix(np.diag([1.0, -1.0]))
    up = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    ops = []
    for i in range(nmodes):
        mat = sparse.identity(1, format="csr")
        for j in range(nmodes):
            factor = id2 if j < i else up if j == i else z
            mat = sparse.kron(mat, factor, format="csr")
        mat.eliminate_zeros()
        ops.append(mat)
    return tuple(ops)


def matrix_by_terms(op):
    """The matrix of a one-row `QuasiOperator`, one Kronecker-built matrix per nonzero coefficient.

    Column k is the operator's action on basis state k, on the space of one mode per entry.
    """
    n_particle = len(op.alpha)
    create = jordan_wigner(n_particle + len(op.beta))
    out = sparse.csr_matrix((2 ** len(create),) * 2, dtype=complex)
    for j, a in enumerate(op.alpha):
        if a != 0:
            out = out + a * create[j].conj().T.tocsr()
    for j, b in enumerate(op.beta):
        if b != 0:
            out = out + np.conj(b) * create[n_particle + j]
    return out


def _check_widths(a: PhasePoint, b: PhasePoint) -> None:
    if a.sigma != b.sigma:
        raise ValueError(f"widths differ: {a.sigma} vs {b.sigma}")


def _displaced_number_overlap(n: int, m: int, gamma: complex) -> complex:
    """``<n| D(gamma) |m>`` for the oscillator displacement operator."""
    if n < m:
        return complex(np.conj(_displaced_number_overlap(m, n, -gamma)))
    x = abs(gamma) ** 2
    amp = math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) - 0.5 * x)
    return complex(amp * gamma ** (n - m) * eval_genlaguerre(m, n - m, x))


def mode_overlap(a: DetectorMode, b: DetectorMode) -> complex:
    """`detector.mode_overlap`, one `gram_matrices` entry, on Python and numpy scalars."""
    _check_widths(a.point, b.point)
    al, bl = a.point.label, b.point.label
    phase = np.exp(0.5 * (np.conj(al) * bl - al * np.conj(bl)))
    return complex(phase * _displaced_number_overlap(a.level, b.level, -1j * (bl - al)))


def gram_by_pairs(modes) -> np.ndarray:
    """A `detector.gram_matrices` entry from one scalar `mode_overlap` per upper-triangle pair."""
    modes = list(modes)
    n = len(modes)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        gram[i, i] = 1.0
        for j in range(i + 1, n):
            gram[i, j] = mode_overlap(modes[i], modes[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram


def registration_by_points(b: PhasePoint) -> tuple[float, float]:
    """`detector.registration_probabilities` at one point, on numpy scalars."""
    r = abs(b.label) ** 2
    return float(np.exp(-abs(b.label) ** 2)), float((1.0 + r) * np.exp(-r))


def _state_modes(sigma: float) -> tuple[DetectorMode, DetectorMode]:
    origin = PhasePoint(sigma=sigma)
    return DetectorMode(origin, 0), DetectorMode(origin, 1)


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


def joint_correlation_by_span(a, b) -> float:
    """`detector.joint_correlation_exact_surface` one pair at a time, on its own Fock space.

    Orthonormalizes the span of the four modes from the pair's own Gram
    matrix and builds every annihilator as a one-row `QuasiOperator`, acting
    on the pair's state alone.
    """
    g1, g2 = _state_modes(a.sigma)
    gram = gram_matrices([[g1, g2, DetectorMode(a, 0), DetectorMode(b, 0)]])[0]
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12
    coeffs = np.conj(evecs[:, keep] * np.sqrt(evals[keep]))
    space = build_space(coeffs.shape[1], 0)
    ann = [QuasiOperator(np.conj(coeffs[row]), np.zeros(0)) for row in range(4)]

    def apply(ops, vec):
        for op in reversed(ops):
            vec = op.act(vec[None])[0]
        return vec

    state = apply([ann[0].adjoint, ann[1].adjoint], space.vacuum())
    state = state / np.linalg.norm(state)
    n_a, n_b = [ann[2].adjoint, ann[2]], [ann[3].adjoint, ann[3]]
    four = complex(state.conj() @ apply(n_b + n_a, state))
    singles = complex(state.conj() @ apply(n_b, state)) * complex(state.conj() @ apply(n_a, state))
    return float((four - singles).real)


def _row_values(m, ks, region, branches, cfg, order):
    """Mode overlap integrals of row ``m`` over the indices ``ks`` at one quadrature order."""
    lo, hi = region.interval(cfg)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    f_half = np.conj(mode_function(m, region, x, cfg))
    f_full = mode_function(ks[:, None], None, x, cfg)
    if branches[0] is not branches[1]:
        f_full = np.conj(f_full)
    return np.sum(w * f_half * f_full, axis=-1)


def row_oracle(m, k, region, branches, cfg, order):
    """`overlap_oracle` one row ``m`` at a time, at the given order."""
    ks = np.atleast_1d(np.asarray(k, dtype=int))
    b1, b2 = branches
    spin = spinor(subsection_momentum(m, cfg), cfg.mass, b1).dot(
        spinor(section_momentum(ks, cfg), cfg.mass, b2))
    args = (m, ks, region, branches, cfg)
    coarse = spin * _row_values(*args, order)
    fine = spin * _row_values(*args, 2 * order)
    gap = np.abs(fine - coarse)
    unresolved = np.flatnonzero(gap > 1e-8)
    if unresolved.size:
        i = unresolved[0]
        raise QuadratureUnresolved(f"entry (m={m}, k={ks[i]}): orders {order} and"
                                   f" {2 * order} disagree by {gap[i]:.3e}")
    if b1 is not b2:
        fine = np.conj(fine) if b1 is Branch.POSITIVE else -np.conj(fine)
    return fine[0] if np.ndim(k) == 0 else fine


def spinor_overlaps(q, p, mass):
    """``u+(q) . u+(p)`` and ``u-(q) . u+(p)`` over one shared denominator, for arrays."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    eps_q = energy(q, mass)
    eps_p = energy(p, mass)
    den = 2.0 * np.sqrt(eps_p * eps_q * (eps_p + mass) * (eps_q + mass))
    plus = ((eps_p + mass) * (eps_q + mass) + p * q) / den
    cross = (p * (eps_q + mass) - q * (eps_p + mass)) / den
    return plus, cross


def kernel_row(m, ks, cfg):
    """One `iter_coefficients` row ``(alpha, beta)`` alone, its column terms and overlaps its own."""
    ks = np.asarray(ks, dtype=int)
    odd = ks % 2 != 0
    k_odd = ks[odd]
    p_odd = section_momentum(k_odd, cfg)
    eps_odd = energy(p_odd, cfg.mass)
    q = float(subsection_momentum(m, cfg))
    eps_q = float(energy(q, cfg.mass))
    s_plus, s_cross = spinor_overlaps(q, p_odd, cfg.mass) if k_odd.size else (p_odd, p_odd)
    alpha = np.zeros(ks.shape, dtype=complex)
    beta = np.zeros(ks.shape, dtype=complex)
    alpha[ks == 2 * m] = 1.0 / math.sqrt(2.0)
    beta[ks == -2 * m] = coeff_w(m, cfg)
    ph_a = np.exp(1j * (eps_q - eps_odd) * cfg.time)
    ph_b = np.exp(-1j * (eps_q + eps_odd) * cfg.time)
    alpha[odd] = KAPPA_ALPHA * s_plus * ph_a / ((k_odd - 2 * m) / 2.0)
    beta[odd] = KAPPA_BETA * s_cross * ph_b / ((k_odd + 2 * m) / 2.0)
    return alpha, beta
