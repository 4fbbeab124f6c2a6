"""Bogoliubov coefficients between half-interval and full-interval bases.

A positive-frequency half-interval quasi-particle annihilator decomposes over
the full-interval operators as

    c_m = sum_k ( alpha[m, k] * a_k + conj(beta[m, k]) * bdag_k )

with closed-form coefficients obtained from half-interval overlap integrals:

* even ``k``: ``alpha[m, 2m] = 1/sqrt(2)`` and ``beta[m, -2m] = W_m``, where
  ``W_m = q_m * exp(-2i*eps(q_m)*t) / (sqrt(2)*eps(q_m))``;
* odd ``k``: resonance series with prefactor ``+i/(sqrt(2)*pi)`` for alpha and
  ``-i/(sqrt(2)*pi)`` for beta (see ``SERIES_PREFACTOR``), spinor weight, a
  free-phase factor and a half-integer resonance denominator.

The prefactor magnitudes and signs are not taken on faith: the independent
quadrature oracle ``overlap_oracle``, which integrates the defining overlaps
numerically, pins every entry of the closed form (verification criterion 1
and the test suite).

The kernel computes the left half only.  Right-half coefficients equal
left-half ones times ``(-1)**k`` (translation of the half by L flips the
sign of every odd full-interval mode); `region_sign` is that column factor,
applied as ``row * region_sign(ks, region)``.

`iter_coefficients` streams the rows of both matrices over any indices, so
`pair_to_csv` never holds a dump's ``(2N+1)**2`` matrices; the contractions
of :mod:`fermisect.spectrum` build no row.  `check_domain` is the one domain
check of both, and it returns the odd columns' momenta and energies both use.
`cutoff_indices` turns a cutoff ``N`` into the index set ``|k| <= N`` and
rejects ``N < 1``.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from functools import lru_cache
from itertools import chain

import numpy as np

from ._textio import write_table
from .field import (
    Branch,
    DegenerateDispersion,
    FieldConfig,
    Region,
    energy,
    mode_function,
    section_momentum,
    spinor,
    subsection_momentum,
)

__all__ = [
    "KAPPA_ALPHA",
    "KAPPA_BETA",
    "QuadratureUnresolved",
    "SERIES_PREFACTOR",
    "canonicity_residual",
    "check_domain",
    "coeff_w",
    "cutoff_indices",
    "iter_coefficients",
    "overlap_oracle",
    "pair_to_csv",
    "region_sign",
]

#: Magnitude of the odd-column series prefactor, fixed by the half-interval
#: Fourier integral and confirmed against the quadrature oracle.  Note this
#: is 1/(sqrt(2)*pi), not 1/sqrt(2*pi).
SERIES_PREFACTOR = 1.0 / (math.sqrt(2.0) * math.pi)

#: Signed prefactors of the odd-column series, as the oracle measures them.
KAPPA_ALPHA = 1j * SERIES_PREFACTOR
KAPPA_BETA = -1j * SERIES_PREFACTOR

SQRT_HALF = 1.0 / math.sqrt(2.0)


class QuadratureUnresolved(RuntimeError):
    """Two successive quadrature orders disagree beyond tolerance."""


def cutoff_indices(n_max: int) -> np.ndarray:
    """Full-interval indices ``|k| <= n_max`` of a symmetric cutoff ``n_max >= 1``."""
    n = int(n_max)
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")
    return np.arange(-n, n + 1)


def coeff_w(m: int, cfg: FieldConfig) -> complex:
    """Matched-momentum beta coefficient ``W_m``; ``W_0 = 0`` by continuity."""
    if m == 0:
        return 0.0 + 0.0j
    q = float(subsection_momentum(m, cfg))
    eps = float(energy(q, cfg.mass))
    return q * np.exp(-2j * eps * cfg.time) / (math.sqrt(2.0) * eps)


def region_sign(ks, region: Region) -> np.ndarray:
    """Column factor from left-half rows over ``ks`` to ``region``.

    Ones on the left, ``(-1)**k`` on the right, as float64; apply it as
    ``row * region_sign(ks, region)``.
    """
    if region is Region.RIGHT:
        return np.where(np.asarray(ks) % 2 == 0, 1.0, -1.0)
    return np.ones_like(np.asarray(ks, dtype=float))


def check_domain(ms, ks, cfg: FieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Momenta and energies ``(p, eps)`` of the odd columns in ``ks``, after the domain checks.

    Raises before the first row of rows ``ms`` over ``ks``: `ValueError` where a phase argument
    ``(eps_q +- eps_p) * t`` may overflow, and where, from ``mu`` or a momentum about 1e77 on,
    the odd columns' spinor-overlap denominator does, largest at the largest ``|m|``;
    `DegenerateDispersion` at mass 0 when a row ``m = 0`` meets an odd column.
    """
    ks = np.asarray(ks, dtype=int)
    ms = np.asarray(ms, dtype=int)
    odd = ks % 2 != 0
    p = section_momentum(ks, cfg)
    m_top = max(map(abs, ms.tolist()), default=0)
    eps_q = float(energy(subsection_momentum(m_top, cfg), cfg.mass))
    with np.errstate(over="ignore"):  # 2 * eps * |t| bounds (eps_q +- eps_p) * t and 2 * eps_q * t
        eps = energy(p, cfg.mass)
        bound = 2.0 * (np.append(energy(subsection_momentum(ms, cfg), cfg.mass), eps)
                       * abs(cfg.time))
        p, eps = p[odd], eps[odd]
        den = 2.0 * np.sqrt(eps * eps_q * (eps + cfg.mass) * (eps_q + cfg.mass))
    if not np.all(np.isfinite(bound)):
        raise ValueError(f"--time {cfg.time!r} overflows the phase arguments (eps_q + eps_p) * t")
    if not np.all(np.isfinite(den)):
        raise ValueError(f"spinor overlap overflows float64 at mass {cfg.mass!r}"
                         " (mass or momentum beyond about 1e77)")
    if cfg.mass == 0 and odd.any() and np.any(ms == 0):
        raise DegenerateDispersion("spinor overlap undefined at p = mass = 0")
    return p, eps


def iter_coefficients(ms, ks, cfg: FieldConfig):
    """Left-half rows ``m`` in ``ms`` of ``(alpha, beta)`` over the full-interval indices ``ks``.

    Yields one ``(alpha_row, beta_row)`` pair per ``m``, in order, after `check_domain`, whose odd
    column terms serve every row.  On the odd columns each row forms the spinor overlaps
    ``u+(q) . u+(p)`` and ``u-(q) . u+(p)``: with ``d = 2*sqrt(eps_p*eps_q*(eps_p+mu)*(eps_q+mu))``
    they are ``[(eps_p+mu)(eps_q+mu) + p*q] / d`` and ``[p*(eps_q+mu) - q*(eps_p+mu)] / d``.
    """
    ks = np.asarray(ks, dtype=int)
    p, eps_p = check_domain(ms, ks, cfg)
    mu = cfg.mass
    eps_mu = eps_p + mu
    odd = ks % 2 != 0
    k_odd = ks[odd]
    for m in ms:
        m = int(m)
        q = float(subsection_momentum(m, cfg))
        eps_q = float(energy(q, mu))
        den = 2.0 * np.sqrt(eps_p * eps_q * eps_mu * (eps_q + mu))
        s_plus = (eps_mu * (eps_q + mu) + p * q) / den
        s_cross = (p * (eps_q + mu) - q * eps_mu) / den
        alpha = np.zeros(ks.shape, dtype=complex)
        beta = np.zeros(ks.shape, dtype=complex)
        alpha[ks == 2 * m] = SQRT_HALF
        beta[ks == -2 * m] = coeff_w(m, cfg)
        ph_a = np.exp(1j * (eps_q - eps_p) * cfg.time)
        ph_b = np.exp(-1j * (eps_q + eps_p) * cfg.time)
        # resonance denominators n -+ m + 1/2 with n = (j-1)/2
        alpha[odd] = KAPPA_ALPHA * s_plus * ph_a / ((k_odd - 2 * m) / 2.0)
        beta[odd] = KAPPA_BETA * s_cross * ph_b / ((k_odd + 2 * m) / 2.0)
        yield alpha, beta


def canonicity_residual(m: int, n_max: int, cfg: FieldConfig) -> float:
    """``| sum_{|k|<=n_max} (|alpha[m,k]|^2 + |beta[m,k]|^2) - 1 |``.

    The exact transform would make this vanish as ``n_max`` grows; with the
    matched-momentum ``W_m`` term present the limit is nonzero for ``m != 0``
    (see package docs), so the number is reported rather than assumed small.
    Both halves give the same residual, since ``|region_sign| = 1``.
    """
    a, b = next(iter_coefficients((m,), cutoff_indices(n_max), cfg))
    return float(abs(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2) - 1.0))


# ---------------------------------------------------------------------------
# quadrature oracle


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gauss_legendre_block(out, ms, ks, in_group, region, branches, cfg, order):
    """Write the mode overlap integrals of the block entries ``in_group`` at one order into ``out``.

    One node set, one half-mode call over the rows and one whole-interval call over the columns
    that hold an entry of the group; each row is reduced over its own entries, so a row of the
    block is the row alone, bit for bit.
    """
    lo, hi = region.interval(cfg)
    nodes, weights = _leggauss(order)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    rows = np.flatnonzero(in_group.any(axis=1))
    cols = np.flatnonzero(in_group.any(axis=0))
    f_half = np.conj(mode_function(ms[rows, None], region, x, cfg))
    f_full = mode_function(ks[cols, None], Region.WHOLE, x, cfg)
    if branches[0] is not branches[1]:
        # mixed-branch overlaps pair the half mode with the conjugate full mode
        f_full = np.conj(f_full)
    for r, f_row in zip(rows.tolist(), f_half):
        g = np.flatnonzero(in_group[r, cols])
        out[r, cols[g]] = np.sum(w * f_row * f_full[g], axis=-1)


def overlap_oracle(
    m,
    k,
    region: Region,
    branches: tuple[Branch, Branch],
    cfg: FieldConfig,
    order: int | None = None,
):
    """Numerical-quadrature estimate of the Bogoliubov coefficients of rows ``m`` over ``k``.

    Integrates ``[u^{b1}(q_m) . u^{b2}(p_k)] * conj(phi_m_half) * phi_k`` over
    the half interval (the full-interval mode is conjugated when ``b2`` is the
    negative branch).  Branch pairs map onto coefficients as

    ==========  =========================================
    (+, +)      alpha[m, k]
    (-, -)      alpha[m, k]  (antiparticle route)
    (+, -)      beta[m, k]   (integral estimates conj(beta))
    (-, +)      beta[m, k]   (integral estimates -conj(beta))
    ==========  =========================================

    ``m`` and ``k`` are each an int or a 1-D integer array; the result has shape
    ``np.shape(m) + np.shape(k)``: a complex, a row over ``k``, or a ``(len(m), len(k))``
    block.  The entries are grouped by their quadrature order; each group fetches
    its node set once and evaluates every half mode and every full-interval mode
    of the group once, and every entry equals the one-entry call bit for bit.
    Each integral is evaluated at two orders (``order`` and ``2*order``); the
    first entry in row-major order whose two values disagree beyond 1e-8 raises
    `QuadratureUnresolved` naming its ``(m, k)``.
    """
    ms = np.atleast_1d(np.asarray(m, dtype=int))
    ks = np.atleast_1d(np.asarray(k, dtype=int))
    if order is None:
        # >= 8 nodes per oscillation wavelength of the integrand, rounded up
        # to a multiple of 32 so cached node sets are reused across the grid
        cycles = (np.abs(2 * ms)[:, None] + np.abs(ks)) / 2.0
        orders = np.maximum(64, 32 * np.ceil((8 * cycles + 16) / 32).astype(int))
    else:
        orders = np.full((ms.size, ks.size), order)
    b1, b2 = branches
    spin = spinor(subsection_momentum(ms[:, None], cfg), cfg.mass, b1).dot(
        spinor(section_momentum(ks, cfg), cfg.mass, b2))
    coarse = np.empty(orders.shape, dtype=complex)
    fine = np.empty_like(coarse)
    for group_order in np.unique(orders).tolist():
        in_group = orders == group_order
        args = (ms, ks, in_group, region, branches, cfg)
        _gauss_legendre_block(coarse, *args, group_order)
        _gauss_legendre_block(fine, *args, 2 * group_order)
    coarse, fine = spin * coarse, spin * fine
    gap = np.abs(fine - coarse)
    unresolved = np.argwhere(gap > 1e-8)  # in row-major order
    if unresolved.size:
        r, c = unresolved[0]
        raise QuadratureUnresolved(
            f"entry (m={ms[r]}, k={ks[c]}): orders {orders[r, c]} and {2 * orders[r, c]}"
            f" disagree by {gap[r, c]:.3e}"
        )
    if b1 is not b2:
        fine = np.conj(fine) if b1 is Branch.POSITIVE else -np.conj(fine)
    return fine.reshape(np.shape(m) + np.shape(k))[()]


# ---------------------------------------------------------------------------
# serialization


def pair_to_csv(region: Region, path_or_buf, cfg: FieldConfig, n_max: int) -> None:
    """Write one half's nonzero entries over ``|m|, |k| <= n_max`` as ``m,k,re_alpha,...`` rows.

    Rejects mass 0, then ``n_max < 1``, before the target is opened: every dump
    holds the row ``m = 0``, whose spinor overlaps are undefined at mass 0.
    Each row ``m`` is formatted by one ``%`` call of the template
    ``"m,%d,%r,%r,%r,%r\n"``, repeated once per nonzero column, over the
    flat cells ``k, re_alpha, im_alpha, re_beta, im_beta``: float ``repr``
    is the only float formatter, so every value is its shortest round-trip
    form, ``-0.0`` included.
    """
    if cfg.mass == 0:
        raise DegenerateDispersion("spinor overlap undefined at p = mass = 0 (the m = 0 row)")
    ks = cutoff_indices(n_max)
    sign = region_sign(ks, region)

    def rows():
        for m, (a, b) in zip(ks.tolist(), iter_coefficients(ks, ks, cfg)):
            a, b = a * sign, b * sign
            nz = np.flatnonzero((a != 0) | (b != 0))
            if nz.size == 0:
                continue
            a, b = a[nz], b[nz]
            cells = chain.from_iterable(zip(ks[nz].tolist(), a.real.tolist(), a.imag.tolist(),
                                            b.real.tolist(), b.imag.tolist()))
            yield (f"{m},%d,%r,%r,%r,%r\n" * nz.size) % tuple(cells)

    write_table(path_or_buf, {"region": region.value, **asdict(cfg), "n_max": int(ks[-1])},
                ("m", "k", "re_alpha", "im_alpha", "re_beta", "im_beta"), rows())
