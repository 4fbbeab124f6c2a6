"""Vacuum noise spectra of the half-interval representations.

The full-interval vacuum is not a vacuum for the half-interval
quasi-particles, so each half-interval mode carries a nonzero mean filling
number, and the filling numbers of the left and the right half are
correlated.  Both quantities reduce to contractions of the Bogoliubov
coefficient rows that :func:`fermisect.bogoliubov.coefficients` computes,
once per ``(mode, half)``:

* ``occupation(k) = sum_j |beta[k, j]|^2`` (identical for particles and
  antiparticles and for the two halves);
* ``cross_correlation(k, m) = (sum_j betaL[k,j] * conj(betaR[m,j]))
  * (sum_j alphaL[k,j] * conj(alphaR[m,j]))`` -- the connected part of the
  joint filling-number expectation, already minus the product of singles.

The contraction form is validated end to end against the exact Fock-space
engine in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._textio import text_buffer
from .bogoliubov import coefficients
from .field import FieldConfig, Region

__all__ = [
    "CorrelationMatrix",
    "OccupationSpectrum",
    "auto_truncation",
    "correlation_matrix",
    "cross_correlation",
    "cross_correlation_from_rows",
    "occupation",
    "occupation_spectrum",
    "write_correlation_csv",
    "write_spectrum_csv",
]

#: Doubling probe of `auto_truncation`: relative tolerance on the spectrum,
#: first cutoff and largest cutoff (powers of two plus one).
PROBE_REL_TOL = 1e-3
PROBE_N_START = 65
PROBE_N_CAP = 16385


@dataclass(frozen=True)
class OccupationSpectrum:
    """Mean filling number per half-interval mode, k = 1..len(values)."""

    values: np.ndarray
    cfg: FieldConfig
    truncation_used: int
    region: Region = Region.LEFT

    def __getitem__(self, k: int) -> float:
        return float(self.values[k - 1])


@dataclass(frozen=True)
class CorrelationMatrix:
    """Left/right filling-number correlation over modes 1..k_max."""

    entries: np.ndarray
    cfg: FieldConfig
    truncation_used: int

    def __getitem__(self, km: tuple[int, int]) -> complex:
        k, m = km
        return complex(self.entries[k - 1, m - 1])


def _indices(cfg: FieldConfig, n_max: int | None) -> np.ndarray:
    """Full-interval indices ``|j| <= n_max`` (default: the config's truncation)."""
    n = cfg.truncation if n_max is None else int(n_max)
    return np.arange(-n, n + 1)


def occupation(k: int, cfg: FieldConfig, n_max: int | None = None) -> float:
    """Vacuum mean filling number of half-interval mode ``k >= 1``."""
    if k < 1:
        raise ValueError("mode number must be >= 1")
    beta = coefficients(k, _indices(cfg, n_max), Region.LEFT, cfg)[1]
    return float(np.sum(np.abs(beta) ** 2))


def occupation_spectrum(k_max: int, cfg: FieldConfig, n_max: int | None = None) -> OccupationSpectrum:
    """Occupation for modes 1..k_max at fixed truncation."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = cfg.truncation if n_max is None else int(n_max)
    values = np.array([occupation(k, cfg, n) for k in range(1, k_max + 1)])
    return OccupationSpectrum(values=values, cfg=cfg, truncation_used=n)


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


def cross_correlation(k: int, m: int, cfg: FieldConfig, n_max: int | None = None) -> complex:
    """Left-mode-k / right-mode-m filling-number correlation."""
    if k < 1 or m < 1:
        raise ValueError("mode numbers must be >= 1")
    js = _indices(cfg, n_max)
    return cross_correlation_from_rows(*coefficients(k, js, Region.LEFT, cfg),
                                       *coefficients(m, js, Region.RIGHT, cfg))


def _rows(k_max: int, js: np.ndarray, region: Region, cfg: FieldConfig):
    """Stacked ``(alpha, beta)`` rows of modes 1..k_max, one kernel call per row."""
    alpha = np.empty((k_max, js.size), dtype=complex)
    beta = np.empty_like(alpha)
    for i in range(k_max):
        alpha[i], beta[i] = coefficients(i + 1, js, region, cfg)
    return alpha, beta


def correlation_matrix(k_max: int, cfg: FieldConfig, n_max: int | None = None) -> CorrelationMatrix:
    """Correlation over 1 <= k, m <= k_max, vectorized over rows."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    js = _indices(cfg, n_max)
    a_left, b_left = _rows(k_max, js, Region.LEFT, cfg)
    a_right, b_right = _rows(k_max, js, Region.RIGHT, cfg)
    entries = (b_left @ b_right.conj().T) * (a_left @ a_right.conj().T)
    return CorrelationMatrix(entries=entries, cfg=cfg, truncation_used=int(js[-1]))


def auto_truncation(cfg: FieldConfig, k_max: int) -> int:
    """Doubling probe: smallest cutoff at which the spectrum has converged.

    Doubles the cutoff (keeping it a power of two plus one) until the
    occupation values for modes 1..k_max change by less than
    ``PROBE_REL_TOL`` relative to their magnitude, or ``PROBE_N_CAP`` is
    reached.
    """
    n = max(PROBE_N_START, 2 * k_max + 1)
    prev = occupation_spectrum(k_max, cfg, n).values
    while n < PROBE_N_CAP:
        n_next = 2 * (n - 1) + 1
        cur = occupation_spectrum(k_max, cfg, n_next).values
        if np.max(np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-30)) < PROBE_REL_TOL:
            return n_next
        prev = cur
        n = n_next
    return n


def _config_header(cfg: FieldConfig, **extra) -> str:
    fields = {
        "mass": repr(cfg.mass),
        "half_length": repr(cfg.half_length),
        "time": repr(cfg.time),
    }
    fields.update({k: repr(v) if isinstance(v, float) else str(v) for k, v in extra.items()})
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"


def write_spectrum_csv(path_or_buf, spectra: dict[float, OccupationSpectrum]) -> None:
    """One k column plus one occupation column per sweep value (mu*L)."""
    with text_buffer(path_or_buf) as buf:
        mu_ls = sorted(spectra)
        first = spectra[mu_ls[0]]
        buf.write(_config_header(first.cfg, truncation=first.truncation_used,
                                 mu_l_values=",".join(repr(v) for v in mu_ls)))
        buf.write("k," + ",".join(f"n_muL_{v!r}" for v in mu_ls) + "\n")
        k_max = len(first.values)
        for k in range(1, k_max + 1):
            row = ",".join(repr(float(spectra[v].values[k - 1])) for v in mu_ls)
            buf.write(f"{k},{row}\n")


def write_correlation_csv(path_or_buf, matrix: CorrelationMatrix) -> None:
    """Rows ``k,m,re_d,im_d`` with a config echo header."""
    with text_buffer(path_or_buf) as buf:
        buf.write(_config_header(matrix.cfg, truncation=matrix.truncation_used))
        buf.write("k,m,re_d,im_d\n")
        k_max = matrix.entries.shape[0]
        for k in range(1, k_max + 1):
            for m in range(1, k_max + 1):
                d = complex(matrix.entries[k - 1, m - 1])
                buf.write(f"{k},{m},{d.real!r},{d.imag!r}\n")
