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

`occupation_spectrum` and `correlation_matrix` return plain arrays.  Every
sum runs over ``|j| <= n_max`` for a cutoff ``n_max`` that the caller
passes, and with ``tail=True`` they add the `tail_sums` past it.  The CSV
writers take the configuration, the one cutoff and the ``tail`` flag of
their table, so a table's header states how every column was summed.

The contraction form is validated end to end against the exact Fock-space
engine in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from scipy.special import digamma, zeta

from ._textio import write_table
from .bogoliubov import SERIES_PREFACTOR, coefficient_rows, cutoff_indices, iter_coefficients
from .bogoliubov import region_sign
from .field import FieldConfig, Region, energy, subsection_momentum

__all__ = [
    "converged_cutoff",
    "correlation_matrix",
    "cross_correlation_from_rows",
    "occupation",
    "occupation_spectrum",
    "tail_sums",
    "write_correlation_csv",
    "write_spectrum_csv",
]


def converged_cutoff(k_max: int, cfg: FieldConfig) -> int:
    """Smallest odd ``N >= max(513, 4*k_max + 1, 32*mu*L)``, from which `tail_sums` holds."""
    mu_l = cfg.mass * cfg.half_length
    if mu_l > 512.0:  # compared before 32 * mu_l, which may be inf
        raise ValueError(f"mu*L {mu_l!r} above 512 needs a cutoff past 16385; pass --truncation N")
    return max(513, 4 * k_max + 1, int(np.ceil(32.0 * mu_l))) | 1


def tail_sums(ks, ms, cfg: FieldConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha_tail, beta_tail)``: sums over odd ``|j| > n_max`` of the cross terms, no phases.

    Terms ``|kappa|^2 s_k s_m / (((j -+ 2k)/2) ((j -+ 2m)/2))`` with ``s_k s_m`` to first order
    in ``mu/|p|`` sum to digamma differences and trigammas (DLMF 5.7, 5.15).  Integer arrays
    ``ks``, ``ms`` broadcast: ``ks[:, None], ks[None, :]`` gives matrices, ``ks, ks`` diagonals.
    """
    # sums of 1/((x+a)(x+b)) and 1/(x(x+a)(x+b)) over x = |j|/2 >= x0 at (a, b) = +-(k, m)
    x0 = (n_max + 1 + n_max % 2) / 2.0
    a, b = np.stack((ks, -ks)), np.stack((ms, -ms))
    psi0, psi_a, psi_b = digamma(x0), digamma(x0 + a), digamma(x0 + b)
    tri_a, d_a, d_b = zeta(2.0, x0 + a), (psi_a - psi0) / a, (psi_b - psi0) / b  # psi' = zeta(2, .)
    same, step = a == b, np.where(a == b, 1, b - a)
    s1 = np.where(same, tri_a, (psi_b - psi_a) / step)
    s2 = np.where(same, (d_a - tri_a) / a, (d_a - d_b) / step)
    # s_k s_m -> lo_k lo_m (a = +k) or hi_k hi_m (a = -k), -+ mu (lo_k hi_m + hi_k lo_m) / (2|p|)
    q = subsection_momentum(np.stack(np.broadcast_arrays(ks, ms)), cfg)
    eps = energy(q, cfg.mass)
    c = 2.0 * np.sqrt(eps * (eps + cfg.mass))
    lo, hi = (eps + cfg.mass - q) / c, (eps + cfg.mass + q) / c  # |s| as p -> +oo and -oo
    lead = lo[0] * lo[1] * s1[0] + hi[0] * hi[1] * s1[1]
    first = (cfg.mass * cfg.half_length / (4 * np.pi) * (lo[0] * hi[1] + hi[0] * lo[1])
             * (s2[0] + s2[1]))
    return SERIES_PREFACTOR**2 * (lead + first), SERIES_PREFACTOR**2 * (lead - first)


def occupation(k: int, cfg: FieldConfig, n_max: int) -> float:
    """Vacuum mean filling number of half-interval mode ``k >= 1`` at cutoff ``n_max``."""
    if k < 1:
        raise ValueError("mode number must be >= 1")
    return _occupations((k,), cfg, n_max)[0]


def occupation_spectrum(k_max: int, cfg: FieldConfig, n_max: int, tail: bool = False) -> np.ndarray:
    """Occupation of modes 1..k_max, entry ``k - 1``, at cutoff ``n_max`` (and tail if ``tail``)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks = np.arange(1, k_max + 1)
    values = np.array(_occupations(ks, cfg, n_max))
    return values + tail_sums(ks, ks, cfg, n_max)[1] if tail else values


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


def correlation_matrix(k_max: int, cfg: FieldConfig, n_max: int, tail: bool = False) -> np.ndarray:
    """Correlation over 1 <= k, m <= k_max at cutoff ``n_max``, entry ``[k - 1, m - 1]``.

    The kernel runs once per mode: the right-half rows are the left rows times `region_sign`.
    A ``tail`` enters with the odd-column sign -1 and its phase ``exp(-+i (eps_k - eps_m) t)``.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    js, ks = cutoff_indices(n_max), np.arange(1, k_max + 1)
    alpha, beta = coefficient_rows(ks, js, cfg)
    sign = region_sign(js, Region.RIGHT)
    beta_sum, alpha_sum = beta @ (beta * sign).conj().T, alpha @ (alpha * sign).conj().T
    if tail:
        eps = energy(subsection_momentum(ks, cfg), cfg.mass)
        phase = np.exp(-1j * (eps[:, None] - eps[None, :]) * cfg.time)
        alpha_tail, beta_tail = tail_sums(ks[:, None], ks[None, :], cfg, n_max)
        beta_sum, alpha_sum = beta_sum - beta_tail * phase, alpha_sum - alpha_tail * phase.conj()
    return beta_sum * alpha_sum


def write_spectrum_csv(path_or_buf, spectra: dict[float, np.ndarray], cfg: FieldConfig,
                       n_max: int, tail: bool = False) -> None:
    """One k column plus one occupation column per sweep value (mu*L), all at cutoff ``n_max``.

    The header echoes ``cfg``, the configuration of the smallest mu*L.
    """
    mu_ls = sorted(spectra)
    header = {**asdict(cfg), "truncation": n_max, **({"tail": "digamma"} if tail else {}),
              "mu_l_values": ",".join(map(repr, mu_ls))}
    columns = [spectra[v].tolist() for v in mu_ls]
    lines = (f"{k},{','.join(map(repr, row))}\n" for k, row in enumerate(zip(*columns), 1))
    write_table(path_or_buf, header, ["k"] + [f"n_muL_{v!r}" for v in mu_ls], lines)


def write_correlation_csv(path_or_buf, entries: np.ndarray, cfg: FieldConfig, n_max: int,
                          tail: bool = False) -> None:
    """Rows ``k,m,re_d,im_d`` of ``entries`` at cutoff ``n_max``, with a config header."""
    lines = (f"{k},{m},{d.real!r},{d.imag!r}\n"
             for k, row in enumerate(entries.tolist(), 1) for m, d in enumerate(row, 1))
    header = {**asdict(cfg), "truncation": n_max, **({"tail": "digamma"} if tail else {})}
    write_table(path_or_buf, header, ("k", "m", "re_d", "im_d"), lines)
