"""Vacuum noise spectra of the half-interval representations.

The full-interval vacuum is not a vacuum for the half-interval
quasi-particles: mode ``k`` of either half, particle or antiparticle, has the
mean filling number ``n(k) = sum_j |beta[k, j]|^2``, and the halves'
filling numbers have the connected correlation ``(sum_j betaL[k,j] *
conj(betaR[m,j])) * (sum_j alphaL[k,j] * conj(alphaR[m,j]))``, right-half rows
being the left ones times ``(-1)**j``.  On the odd columns the row phases
cancel up to the pair phase ``exp(-+i (eps_k - eps_m) t)``, so each sum is the
matched term (``|W_k|^2`` or ``1/2``, if the cutoff ``n_max`` holds its column)
plus a real odd-column sum, formed by `_odd_sums` from one table of
column-weight sums per mode; ``tail=True`` adds `tail_sums`, the same form
past the cutoff.  A CSV header states the configuration, the one cutoff and
the ``tail`` flag.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
from scipy.special import digamma, zeta

from ._textio import write_table
from .bogoliubov import SERIES_PREFACTOR, check_domain, coeff_w, cutoff_indices
from .field import Branch, FieldConfig, energy, spinor, subsection_momentum

__all__ = [
    "converged_cutoff",
    "correlation_matrix",
    "cross_correlation_from_rows",
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


def _weight_sums(ks, cfg: FieldConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T, S)``, each ``(3, len(ks))``: the sums of ``X_j/d_kj`` and ``X_j/d_kj^2`` over odd j.

    ``|j| <= n_max``, ``d_kj = (j + 2k)/2``; ``u+(p) = (U, V)`` gives ``UU = (eps+mu)/(2 eps)``,
    ``UV = p/(2 eps)`` and ``VV = p^2/(2 eps (eps+mu))``, as ``1/2 - mu/(2 eps)`` would cancel.
    """
    js = cutoff_indices(n_max)
    p, eps = check_domain(ks, js, cfg)
    j = js[js % 2 != 0]
    weights = np.stack(((eps + cfg.mass) / (2.0 * eps), p / (2.0 * eps),
                        p * p / (2.0 * eps * (eps + cfg.mass))))
    t, s = np.empty((2, 3, len(ks)))
    for i, k in enumerate(ks):
        r = 1.0 / ((j + 2 * k) / 2.0)
        w_r = weights * r
        # pairwise sums along each contiguous row: a BLAS product would round past 1e-15
        t[:, i], s[:, i] = np.sum(w_r, axis=1), np.sum(w_r * r, axis=1)
    return t, s


def _odd_sums(ks, ms, cfg: FieldConfig, t_k, t_m, s_k) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, beta)``: ``|kappa|^2`` times the odd-column sums of mode pairs ``(k, m)``.

    From weight sums ``(UU, UV, VV)`` along the first axis: ``s_cross(k) s_cross(m) = U_k U_m VV
    - (U_k V_m + V_k U_m) UV + V_k V_m UU``, ``1/(d_k d_m) = (1/d_k - 1/d_m)/(m - k)``, and
    ``j -> -j`` swaps ``UU`` and ``VV`` in the alpha sums.
    """
    same = ks == ms
    pair = np.where(same, s_k, (t_k - t_m) / np.where(same, 1, ms - ks))
    u_k, u_m = (spinor(subsection_momentum(n, cfg), cfg.mass, Branch.POSITIVE) for n in (ks, ms))
    coeff = (u_k.lower * u_m.lower, -(u_k.upper * u_m.lower + u_k.lower * u_m.upper),
             u_k.upper * u_m.upper)
    return (SERIES_PREFACTOR**2 * (coeff[0] * pair[2] + coeff[1] * pair[1] + coeff[2] * pair[0]),
            SERIES_PREFACTOR**2 * (coeff[0] * pair[0] + coeff[1] * pair[1] + coeff[2] * pair[2]))


def tail_sums(ks, ms, cfg: FieldConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha_tail, beta_tail)``: sums over odd ``|j| > n_max`` of the cross terms, no phases.

    `_odd_sums` of the weight limits ``1/2 +- mu/(2|p|)`` and ``+-1/2`` to first order in
    ``mu/|p|``, summed over ``x = |j|/2 >= x0`` by digammas and trigammas (DLMF 5.7, 5.15), ``T``
    up to a ``k``-independent constant.  ``ks``, ``ms`` broadcast (``ks[:, None], ks[None, :]``).
    """
    x0 = (n_max + 1 + n_max % 2) / 2.0
    c, psi0 = cfg.mass * cfg.half_length / (4 * np.pi), digamma(x0)  # mu/(2|p|) = c/x

    def sums(n):  # over d = x + a, a = n and -n: 1/d (less a constant), 1/d^2, 1/(x d), 1/(x d^2)
        a = np.stack((n, -n)).astype(float)
        psi, tri = digamma(x0 + a), zeta(2.0, x0 + a)
        g = (psi - psi0) / a
        t, t_mu = 0.5 * (psi[1] - psi[0]), c * (g[0] - g[1])
        s, s_mu = 0.5 * (tri[0] + tri[1]), c * ((g - tri) / a).sum(axis=0)
        return (np.stack((t + t_mu, -0.5 * (psi[0] + psi[1]), t - t_mu)),
                np.stack((s + s_mu, 0.5 * (tri[0] - tri[1]), s - s_mu)))

    (t_k, s_k), (t_m, _) = sums(np.asarray(ks)), sums(np.asarray(ms))
    return _odd_sums(ks, ms, cfg, t_k, t_m, s_k)


def occupation_spectrum(k_max: int, cfg: FieldConfig, n_max: int, tail: bool = False) -> np.ndarray:
    """``sum_j |beta[k, j]|^2`` of modes 1..k_max, entry ``k - 1``, at cutoff ``n_max``.

    ``|W_k|^2`` plus the odd diagonal, and `tail_sums` if ``tail``.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks = np.arange(1, k_max + 1)
    t, s = _weight_sums(ks, cfg, n_max)
    occupations = _matched_w2(ks, cfg, n_max) + _odd_sums(ks, ks, cfg, t, t, s)[1]
    return occupations + (tail_sums(ks, ks, cfg, n_max)[1] if tail else 0.0)


def _matched_w2(ks, cfg: FieldConfig, n_max: int) -> np.ndarray:
    """``|W_k|^2`` where the cutoff holds the matched column ``-2k``, else 0 (raw sums omit it)."""
    return np.array([abs(coeff_w(k, cfg)) ** 2 if 2 * k <= n_max else 0.0 for k in ks.tolist()])


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
    and its ``tail`` (right-half rows carry -1 there), all from one table of weight sums.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks = np.arange(1, k_max + 1)
    t, s = _weight_sums(ks, cfg, n_max)
    alpha_odd, beta_odd = _odd_sums(ks[:, None], ks[None, :], cfg, t[:, :, None], t[:, None, :],
                                    s[:, :, None])
    alpha_tail, beta_tail = tail_sums(ks[:, None], ks[None, :], cfg, n_max) if tail else (0.0, 0.0)
    eps = energy(subsection_momentum(ks, cfg), cfg.mass)
    phase = np.exp(-1j * (eps[:, None] - eps[None, :]) * cfg.time)
    beta_sum = np.diag(_matched_w2(ks, cfg, n_max)) - phase * (beta_odd + beta_tail)
    alpha_sum = (np.diag(np.where(2 * ks <= n_max, 0.5, 0.0))
                 - phase.conj() * (alpha_odd + alpha_tail))
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
