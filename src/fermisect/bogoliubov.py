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

`iter_coefficients` streams the rows of both matrices over any indices
(`coefficients` is one row), so a dump never holds its ``(2N+1)**2`` matrices;
the contractions of :mod:`fermisect.spectrum` build no row.  `check_domain` is
the one float64 range check of both, and `cutoff_indices` turns a cutoff ``N``
into the index set ``|k| <= N`` and rejects ``N < 1``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

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
    spinor_overlaps,
    subsection_momentum,
)

__all__ = [
    "BogoliubovPair",
    "KAPPA_ALPHA",
    "KAPPA_BETA",
    "QuadratureUnresolved",
    "SERIES_PREFACTOR",
    "build_pair",
    "canonicity_residual",
    "check_domain",
    "coeff_w",
    "coefficients",
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


def check_domain(ms, ks, cfg: FieldConfig) -> None:
    """Raise `ValueError` before the first row if rows ``ms`` over indices ``ks`` leave float64.

    A phase argument ``(eps_q +- eps_p) * t`` may overflow, and so may, from ``mu`` or a momentum
    about 1e77 on, the odd columns' spinor-overlap denominator, largest at the largest ``|m|``.
    """
    ks = np.asarray(ks, dtype=int)
    p = section_momentum(ks, cfg)
    m_top = max(map(abs, np.asarray(ms, dtype=int).tolist()), default=0)
    eps_q = float(energy(subsection_momentum(m_top, cfg), cfg.mass))
    eps_p = energy(p[ks % 2 != 0], cfg.mass)
    with np.errstate(over="ignore"):  # 2 * eps * |t| bounds (eps_q +- eps_p) * t and 2 * eps_q * t
        bound = 2.0 * (energy(np.append(subsection_momentum(ms, cfg), p), cfg.mass) * abs(cfg.time))
        den = 2.0 * np.sqrt(eps_p * eps_q * (eps_p + cfg.mass) * (eps_q + cfg.mass))
    if not np.all(np.isfinite(bound)):
        raise ValueError(f"--time {cfg.time!r} overflows the phase arguments (eps_q + eps_p) * t")
    if not np.all(np.isfinite(den)):
        raise ValueError(f"spinor overlap overflows float64 at mass {cfg.mass!r}"
                         " (mass or momentum beyond about 1e77)")


def iter_coefficients(ms, ks, cfg: FieldConfig):
    """Left-half rows ``m`` in ``ms`` of ``(alpha, beta)`` over the full-interval indices ``ks``.

    Yields one ``(alpha_row, beta_row)`` pair per ``m``, in order, after `check_domain`; the
    ``m``-independent column terms are computed once per call.
    """
    ks = np.asarray(ks, dtype=int)
    check_domain(ms, ks, cfg)
    odd = ks % 2 != 0
    k_odd = ks[odd]
    p_odd = section_momentum(k_odd, cfg)
    eps_odd = energy(p_odd, cfg.mass)
    for m in ms:
        m = int(m)
        q = float(subsection_momentum(m, cfg))
        eps_q = float(energy(q, cfg.mass))
        s_plus, s_cross = spinor_overlaps(q, p_odd, cfg.mass) if k_odd.size else (p_odd, p_odd)
        alpha = np.zeros(ks.shape, dtype=complex)
        beta = np.zeros(ks.shape, dtype=complex)
        alpha[ks == 2 * m] = SQRT_HALF
        beta[ks == -2 * m] = coeff_w(m, cfg)
        ph_a = np.exp(1j * (eps_q - eps_odd) * cfg.time)
        ph_b = np.exp(-1j * (eps_q + eps_odd) * cfg.time)
        # resonance denominators n -+ m + 1/2 with n = (j-1)/2; no odd column, no spinor evaluated
        alpha[odd] = KAPPA_ALPHA * s_plus * ph_a / ((k_odd - 2 * m) / 2.0)
        beta[odd] = KAPPA_BETA * s_cross * ph_b / ((k_odd + 2 * m) / 2.0)
        yield alpha, beta


def coefficients(m: int, ks, cfg: FieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Left-half row ``m`` of ``(alpha, beta)`` over the full-interval indices ``ks``."""
    return next(iter_coefficients((m,), ks, cfg))


@dataclass(frozen=True)
class BogoliubovPair:
    """Coefficients over ``|m|, |k| <= n_max`` for one half.

    The pair holds only its configuration; `pair_to_csv` streams its rows
    from `iter_coefficients`.
    """

    region: Region
    cfg: FieldConfig
    n_max: int

    @property
    def indices(self) -> np.ndarray:
        return cutoff_indices(self.n_max)


def build_pair(region: Region, cfg: FieldConfig, n_max: int) -> BogoliubovPair:
    """The coefficient pair over ``|m|, |k| <= n_max`` for one half; rejects ``n_max < 1``.

    Also rejects mass 0 before any row is written: every pair holds the row
    ``m = 0``, whose spinor overlaps are undefined there.
    """
    if cfg.mass == 0:
        raise DegenerateDispersion("spinor overlap undefined at p = mass = 0 (the m = 0 row)")
    return BogoliubovPair(region=region, cfg=cfg, n_max=int(cutoff_indices(n_max)[-1]))


def canonicity_residual(m: int, n_max: int, cfg: FieldConfig) -> float:
    """``| sum_{|k|<=n_max} (|alpha[m,k]|^2 + |beta[m,k]|^2) - 1 |``.

    The exact transform would make this vanish as ``n_max`` grows; with the
    matched-momentum ``W_m`` term present the limit is nonzero for ``m != 0``
    (see package docs), so the number is reported rather than assumed small.
    Both halves give the same residual, since ``|region_sign| = 1``.
    """
    a, b = coefficients(m, cutoff_indices(n_max), cfg)
    return float(abs(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2) - 1.0))


# ---------------------------------------------------------------------------
# quadrature oracle


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gauss_legendre_values(m, ks, region, branches, cfg, order):
    """Mode overlap integrals of row ``m`` over the indices ``ks`` at one quadrature order."""
    lo, hi = region.interval(cfg)
    nodes, weights = _leggauss(order)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    f_half = np.conj(mode_function(m, region, x, cfg))
    f_full = mode_function(ks[:, None], Region.WHOLE, x, cfg)
    if branches[0] is not branches[1]:
        # mixed-branch overlaps pair the half mode with the conjugate full mode
        f_full = np.conj(f_full)
    return np.sum(w * f_half * f_full, axis=-1)


def overlap_oracle(
    m: int,
    k,
    region: Region,
    branches: tuple[Branch, Branch],
    cfg: FieldConfig,
    order: int | None = None,
):
    """Numerical-quadrature estimate of Bogoliubov coefficients in row ``m``.

    Integrates ``[u^{b1}(q_m) . u^{b2}(p_k)] * conj(phi_m_half) * phi_k`` over
    the half interval (the full-interval mode is conjugated when ``b2`` is the
    negative branch).  Branch pairs map onto coefficients as

    ==========  =========================================
    (+, +)      alpha[m, k]
    (-, -)      alpha[m, k]  (antiparticle route)
    (+, -)      beta[m, k]   (integral estimates conj(beta))
    (-, +)      beta[m, k]   (integral estimates -conj(beta))
    ==========  =========================================

    ``k`` is an int, which gives a complex, or a 1-D integer array, which
    gives a complex array of its length.  The entries of a row are grouped
    by their quadrature order; each group fetches its node set once and
    integrates all its modes as one ``(n_k, order)`` array, and every entry
    equals the one-entry call bit for bit.  Each integral is evaluated at two orders
    (``order`` and ``2*order``); the first entry whose two values disagree
    beyond 1e-8 raises `QuadratureUnresolved` naming its ``(m, k)``.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=int))
    if order is None:
        # >= 8 nodes per oscillation wavelength of the integrand, rounded up
        # to a multiple of 32 so cached node sets are reused across the grid
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
        coarse[group] = spin[group] * _gauss_legendre_values(*args, group_order)
        fine[group] = spin[group] * _gauss_legendre_values(*args, 2 * group_order)
    gap = np.abs(fine - coarse)
    unresolved = np.flatnonzero(gap > 1e-8)
    if unresolved.size:
        i = unresolved[0]
        raise QuadratureUnresolved(
            f"entry (m={m}, k={ks[i]}): orders {orders[i]} and {2 * orders[i]}"
            f" disagree by {gap[i]:.3e}"
        )
    if b1 is not b2:
        fine = np.conj(fine) if b1 is Branch.POSITIVE else -np.conj(fine)
    return fine[0] if np.ndim(k) == 0 else fine


# ---------------------------------------------------------------------------
# serialization


def pair_to_csv(pair: BogoliubovPair, path_or_buf) -> None:
    """Write a pair's nonzero entries as ``m,k,re_alpha,im_alpha,re_beta,im_beta`` rows."""
    write_table(path_or_buf, {"region": pair.region.value, **asdict(pair.cfg), "n_max": pair.n_max},
                ("m", "k", "re_alpha", "im_alpha", "re_beta", "im_beta"), _pair_rows(pair))


def _pair_rows(pair: BogoliubovPair):
    """The rows' text, one chunk of ``m,k,...`` lines per row ``m`` with a nonzero entry.

    Each row is formatted in one pass: the tuple ``repr`` of Python floats is
    their shortest round-trip ``repr`` (``-0.0`` included), and the two
    replacements turn ``[(k, ...), (k, ...)]`` into CSV lines.
    """
    ks = pair.indices
    sign = region_sign(ks, pair.region)
    for m, (a, b) in zip(ks.tolist(), iter_coefficients(ks, ks, pair.cfg)):
        a, b = a * sign, b * sign
        nz = np.flatnonzero((a != 0) | (b != 0))
        if nz.size == 0:
            continue
        cells = repr(list(zip(ks[nz].tolist(), a.real[nz].tolist(), a.imag[nz].tolist(),
                              b.real[nz].tolist(), b.imag[nz].tolist())))
        yield f"{m}," + cells[2:-2].replace("), (", f"\n{m},").replace(", ", ",") + "\n"
