"""Vacuum noise spectra of the half-interval representations.

The full-interval vacuum is not a vacuum for the half-interval
quasi-particles, so each half-interval mode carries a nonzero mean filling
number, and the filling numbers of the left and the right half are
correlated.  Both quantities reduce to contractions of the Bogoliubov
coefficient rows that :func:`fermisect.bogoliubov.iter_coefficients` yields,
once per mode (right-half rows are the left ones times
:func:`fermisect.bogoliubov.region_sign`):

* ``occupation(k) = sum_j |beta[k, j]|^2`` (identical for particles and
  antiparticles and for the two halves);
* ``correlation[k, m] = (sum_j betaL[k,j] * conj(betaR[m,j]))
  * (sum_j alphaL[k,j] * conj(alphaR[m,j]))`` -- the connected part of the
  joint filling-number expectation, already minus the product of singles.

Every sum runs over ``|j| <= n_max`` for a cutoff ``n_max`` that the caller
passes; `auto_truncation` chooses one when the caller has none.

The contraction form is validated end to end against the exact Fock-space
engine in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._textio import write_table
from .bogoliubov import coefficient_rows, cutoff_indices, iter_coefficients, region_sign
from .field import FieldConfig, Region

__all__ = [
    "CorrelationMatrix",
    "OccupationSpectrum",
    "auto_truncation",
    "correlation_matrix",
    "cross_correlation_from_rows",
    "occupation",
    "occupation_spectrum",
    "write_correlation_csv",
    "write_spectrum_csv",
]

#: Doubling probe of `auto_truncation`: relative tolerance on the spectrum,
#: first cutoff and largest cutoff (powers of two plus one), and the largest
#: mode it checks.
PROBE_REL_TOL = 1e-3
PROBE_N_START = 65
PROBE_N_CAP = 16385
PROBE_K_MAX = 16


@dataclass(frozen=True)
class OccupationSpectrum:
    """Mean filling number per half-interval mode, k = 1..len(values)."""

    values: np.ndarray
    cfg: FieldConfig
    truncation_used: int


@dataclass(frozen=True)
class CorrelationMatrix:
    """Left/right filling-number correlation over modes 1..k_max."""

    entries: np.ndarray
    cfg: FieldConfig
    truncation_used: int


def occupation(k: int, cfg: FieldConfig, n_max: int) -> float:
    """Vacuum mean filling number of half-interval mode ``k >= 1`` at cutoff ``n_max``."""
    if k < 1:
        raise ValueError("mode number must be >= 1")
    return _occupations((k,), cfg, n_max)[0]


def occupation_spectrum(k_max: int, cfg: FieldConfig, n_max: int) -> OccupationSpectrum:
    """Occupation for modes 1..k_max at cutoff ``n_max``."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = int(n_max)
    values = np.array(_occupations(range(1, k_max + 1), cfg, n))
    return OccupationSpectrum(values=values, cfg=cfg, truncation_used=n)


def _occupations(ks, cfg: FieldConfig, n_max: int) -> list[float]:
    """``sum_j |beta[k, j]|^2`` for each mode in ``ks``, one kernel row at a time."""
    rows = iter_coefficients(ks, cutoff_indices(n_max), cfg)
    return [float(np.sum(np.abs(beta) ** 2)) for _, beta in rows]


def cross_correlation_from_rows(alpha_c, beta_c, alpha_f, beta_f) -> complex:
    """Connected ``<nc nf> - <nc><nf>`` from two quasi-operator rows.

    Valid for any coefficient rows over a common vacuum (canonicity is not
    required): the Wick expansion of the four-point function leaves exactly
    the product of the beta-beta and alpha-alpha cross contractions.
    """
    beta_c = np.asarray(beta_c)
    beta_f = np.asarray(beta_f)
    alpha_c = np.asarray(alpha_c)
    alpha_f = np.asarray(alpha_f)
    return complex(np.sum(beta_c * np.conj(beta_f)) * np.sum(alpha_c * np.conj(alpha_f)))


def correlation_matrix(k_max: int, cfg: FieldConfig, n_max: int) -> CorrelationMatrix:
    """Correlation over 1 <= k, m <= k_max at cutoff ``n_max``, vectorized over rows.

    The kernel runs once per mode: the right-half rows are the left rows
    times `region_sign`.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    js = cutoff_indices(n_max)
    alpha, beta = coefficient_rows(range(1, k_max + 1), js, cfg)
    sign = region_sign(js, Region.RIGHT)
    entries = (beta @ (beta * sign).conj().T) * (alpha @ (alpha * sign).conj().T)
    return CorrelationMatrix(entries=entries, cfg=cfg, truncation_used=int(js[-1]))


def auto_truncation(cfg: FieldConfig, k_max: int) -> int:
    """Default cutoff for modes 1..k_max: a doubling probe, raised to ``2*k_max + 1``.

    Doubles the cutoff (keeping it a power of two plus one) until the
    occupation values for modes 1..min(k_max, ``PROBE_K_MAX``) change by
    less than ``PROBE_REL_TOL`` relative to their magnitude, or
    ``PROBE_N_CAP`` is reached.  Mode ``k`` needs ``N >= 2k`` to reach its
    matched ``W_k`` column, beyond the modes the probe checks.
    """
    k_probe = min(k_max, PROBE_K_MAX)
    n = max(PROBE_N_START, 2 * k_probe + 1)
    prev = occupation_spectrum(k_probe, cfg, n).values
    while n < PROBE_N_CAP:
        n_next = 2 * (n - 1) + 1
        cur = occupation_spectrum(k_probe, cfg, n_next).values
        n = n_next
        if np.max(np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-30)) < PROBE_REL_TOL:
            break
        prev = cur
    return max(n, 2 * k_max + 1)


def write_spectrum_csv(path_or_buf, spectra: dict[float, OccupationSpectrum]) -> None:
    """One k column plus one occupation column per sweep value (mu*L)."""
    mu_ls = sorted(spectra)
    first = spectra[mu_ls[0]]
    header = {**asdict(first.cfg), "truncation": first.truncation_used,
              "mu_l_values": ",".join(repr(v) for v in mu_ls)}
    columns = [spectra[v].values.tolist() for v in mu_ls]
    lines = (f"{k},{','.join(map(repr, row))}\n" for k, row in enumerate(zip(*columns), 1))
    write_table(path_or_buf, header, ["k"] + [f"n_muL_{v!r}" for v in mu_ls], lines)


def write_correlation_csv(path_or_buf, matrix: CorrelationMatrix) -> None:
    """Rows ``k,m,re_d,im_d`` with a config echo header."""
    lines = (f"{k},{m},{d.real!r},{d.imag!r}\n"
             for k, row in enumerate(matrix.entries.tolist(), 1) for m, d in enumerate(row, 1))
    write_table(path_or_buf, {**asdict(matrix.cfg), "truncation": matrix.truncation_used},
                ("k", "m", "re_d", "im_d"), lines)
