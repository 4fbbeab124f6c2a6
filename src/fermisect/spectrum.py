"""Vacuum noise spectra of the half-interval representations.

The full-interval vacuum is not a vacuum for the half-interval
quasi-particles, so each half-interval mode carries a nonzero mean filling
number, and the filling numbers of the left and the right half are
correlated.  Both are contractions of the Bogoliubov coefficient rows, the
right-half rows being the left ones times ``(-1)**j``:

* ``occupation(k) = sum_j |beta[k, j]|^2`` (identical for particles and
  antiparticles and for the two halves);
* ``correlation[k, m] = (sum_j betaL[k,j] * conj(betaR[m,j]))
  * (sum_j alphaL[k,j] * conj(alphaR[m,j]))`` -- the connected part of the
  joint filling-number expectation, already minus the product of singles.

On the odd columns the row phases cancel up to the pair phase
``exp(-+i (eps_k - eps_m) t)``, so each sum is the matched term (``|W_k|^2``
or ``1/2``, if the cutoff holds its column) plus a real sum over the odd
columns of the factors that :func:`fermisect.bogoliubov.iter_odd_factors`
yields, over ``|j| <= n_max`` for a cutoff ``n_max`` that the caller passes;
with ``tail=True`` the `tail_sums` past it join the odd sum.  The CSV writers
take the configuration, the one cutoff and the ``tail`` flag of their table,
so a table's header states how every column was summed.  Tests check the
contractions against the exact Fock-space engine and the complex rows.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from scipy.special import digamma, zeta

from ._textio import write_table
from .bogoliubov import SERIES_PREFACTOR, coeff_w, cutoff_indices, iter_odd_factors
from .field import FieldConfig, energy, subsection_momentum

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
    tails = tail_sums(ks, ks, cfg, n_max)[1] if tail else 0.0
    return np.array(_occupations(ks, cfg, n_max)) + tails


def _occupations(ks, cfg: FieldConfig, n_max: int) -> list[float]:
    """``sum_j |beta[k, j]|^2`` for each mode in ``ks``, one real odd-column row at a time."""
    return [_matched_w2(k, cfg, n_max) + SERIES_PREFACTOR**2 * float(np.sum((s_cross / den_b) ** 2))
            for k, _, s_cross, _, den_b in iter_odd_factors(ks, cutoff_indices(n_max), cfg)]


def _matched_w2(k: int, cfg: FieldConfig, n_max: int) -> float:
    """``|W_k|^2`` if the cutoff holds the matched column ``-2k``, else 0 (a raw sum omits it)."""
    return abs(coeff_w(k, cfg)) ** 2 if 2 * k <= n_max else 0.0


def cross_correlation_from_rows(alpha_c, beta_c, alpha_f, beta_f) -> complex:
    """Connected ``<nc nf> - <nc><nf>`` from two quasi-operator rows.

    Valid for any coefficient rows over a common vacuum (canonicity is not
    required): the Wick expansion of the four-point function leaves exactly
    the product of the beta-beta and alpha-alpha cross contractions.
    """
    return complex(np.sum(beta_c * np.conj(beta_f)) * np.sum(alpha_c * np.conj(alpha_f)))


def correlation_matrix(k_max: int, cfg: FieldConfig, n_max: int, tail: bool = False) -> np.ndarray:
    """Correlation over 1 <= k, m <= k_max at cutoff ``n_max``, entry ``[k - 1, m - 1]``.

    Each cross sum is its matched diagonal minus the pair phase times the real odd-column sum
    and its ``tail`` (right-half rows carry -1 there); only two real odd-column blocks are held.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    js, ks = cutoff_indices(n_max), np.arange(1, k_max + 1)
    a, b = np.empty((2, k_max, np.count_nonzero(js % 2)))
    for i, (_, s_plus, s_cross, den_a, den_b) in enumerate(iter_odd_factors(ks, js, cfg)):
        a[i], b[i] = s_plus / den_a, s_cross / den_b
    alpha_odd, beta_odd = a @ a.T, b @ b.T
    # the diagonals cancel against the matched terms: sum them pairwise, as the occupation does
    np.fill_diagonal(alpha_odd, [np.sum(row**2) for row in a])
    np.fill_diagonal(beta_odd, [np.sum(row**2) for row in b])
    alpha_tail, beta_tail = tail_sums(ks[:, None], ks[None, :], cfg, n_max) if tail else (0.0, 0.0)
    eps = energy(subsection_momentum(ks, cfg), cfg.mass)
    phase = np.exp(-1j * (eps[:, None] - eps[None, :]) * cfg.time)
    beta_sum = (np.diag([_matched_w2(k, cfg, n_max) for k in ks])
                - phase * (SERIES_PREFACTOR**2 * beta_odd + beta_tail))
    alpha_sum = (np.diag(np.where(2 * ks <= n_max, 0.5, 0.0))
                 - phase.conj() * (SERIES_PREFACTOR**2 * alpha_odd + alpha_tail))
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
