"""Vacuum noise spectra of the half-interval representations.

The full-interval vacuum is not a vacuum for the half-interval
quasi-particles: mode ``k`` of either half, particle or antiparticle, has the
mean filling number ``n(k) = sum_j |beta[k, j]|^2``, and the halves'
filling numbers have the connected correlation ``(sum_j betaL[k,j] *
conj(betaR[m,j])) * (sum_j alphaL[k,j] * conj(alphaR[m,j]))``, right-half rows
being the left ones times ``(-1)**j``.  Both depend on ``mu*L`` alone, so the functions take
``mu_l`` and work at ``L = 1``, time 0.  On the odd columns the row phases cancel up to pair
phases ``exp(-+i (eps_k - eps_m) t)``, which cancel in the product, so each sum is the matched
term (``|W_k|^2`` or ``1/2``, if the cutoff ``n_max`` holds its column) plus a real odd-column
sum, formed by `_odd_sums` from one table of column-weight sums per mode; `_weight_sums` fills
it in blocks of modes through one reused buffer, each mode's reciprocal denominators a window
of one vector over the odd integers.  ``tail=True`` adds the same form past the cutoff,
from a table of cumulative sums of reciprocals and one `_trigamma` (`tail_sums` for any mode
arrays).  `correlation_matrix` forms its rows in blocks into the one output array, so no
temporary holds a whole matrix.  A CSV header states the configuration of its ``mu*L`` at
``L = 1``, the one cutoff and the ``tail`` flag; the correlation CSV converts one row at a time.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._textio import write_table
from .bogoliubov import SERIES_PREFACTOR, check_domain, coeff_w
from .field import Branch, FieldConfig, _integer, spinor, subsection_momentum

__all__ = [
    "converged_cutoff",
    "correlation_matrix",
    "cross_correlation_from_rows",
    "occupation_spectrum",
    "tail_sums",
    "write_correlation_csv",
    "write_spectrum_csv",
]


#: Entries of one block: ``(mode, column)`` entries per weight row in the one buffer of
#: `_weight_sums`, which then holds one mode at the largest default cutoff, 16385, and
#: ``(k, m)`` entries in `correlation_matrix`, whose block temporaries then hold about 1.2 MB
#: beside its output at ``k_max`` 1024.
_BLOCK_ENTRIES = 8193


def converged_cutoff(k_max: int, mu_l: float) -> int:
    """Smallest odd ``N >= max(513, 4*k_max + 1, 32*mu*L)``, from which `tail_sums` holds."""
    mu_l = FieldConfig.from_mu_l(mu_l).mass  # validated; the mass at L = 1
    if mu_l > 512.0:  # compared before 32 * mu_l, which may be inf
        raise ValueError(f"mu*L {mu_l!r} above 512 needs a cutoff past 16385; pass --truncation N")
    if _integer(k_max, "k_max must be an integer") > 4096:
        raise ValueError(f"k_max {k_max} above 4096 needs a cutoff past 16385; pass --truncation N")
    return max(513, 4 * k_max + 1, int(np.ceil(32.0 * mu_l))) | 1


def _odd_cutoff(n_max) -> int:
    """The largest odd ``|j| <= n_max``; a cutoff below 1 raises as in `cutoff_indices`."""
    n = _integer(n_max, "n_max must be an integer")
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")
    return n - 1 + n % 2


def _weight_sums(ks, cfg: FieldConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T, S)``, each ``(3, len(ks))``: the sums of ``X_j/d_kj`` and ``X_j/d_kj^2`` over odd j.

    ``|j| <= n_max``, ``d_kj = (j + 2k)/2``; ``u+(p) = (U, V)`` gives ``UU = (eps+mu)/(2 eps)``,
    ``UV = p/(2 eps)`` and ``VV = p^2/(2 eps (eps+mu))``, as ``1/2 - mu/(2 eps)`` would cancel.
    The modes ``ks`` are consecutive.  The reciprocals ``2/n`` are formed once over the odd
    ``n = j + 2k`` of all modes (equal to ``1/d_kj``, as halving is exact), mode ``k`` reading
    the window at offset ``k - ks[0]``.  Modes go in blocks of at most `_BLOCK_ENTRIES`
    ``(mode, column)`` entries, at least one mode each, multiplied and summed in one reused
    ``(3, modes, columns)`` buffer.
    """
    top = _odd_cutoff(n_max)
    p, eps = check_domain(ks, np.arange(-top, top + 1, 2), cfg)
    weights = np.empty((3, top + 1))  # rows UU, UV, VV, from eps + mu, p^2 and 2 eps in place
    np.add(eps, cfg.mass, out=weights[0])
    np.multiply(p, p, out=weights[2])
    eps *= 2.0
    np.divide(p, eps, out=weights[1])
    weights[2] /= eps * weights[0]
    weights[0] /= eps
    del p, eps
    r = sliding_window_view(2.0 / np.arange(2 * ks[0] - top, 2 * ks[-1] + top + 1, 2), top + 1)
    step = max(1, _BLOCK_ENTRIES // (top + 1))
    weights, buf = weights[:, None, :], np.empty((3, min(step, len(ks)), top + 1))
    t, s = np.empty((2, 3, len(ks)))
    for lo in range(0, len(ks), step):
        r_block = r[lo:lo + step]
        w_r = buf[:, :len(r_block)]
        np.multiply(weights, r_block, out=w_r)
        # pairwise sums along each contiguous row: a BLAS product would round past 1e-15
        np.add.reduce(w_r, axis=-1, out=t[:, lo:lo + step])
        w_r *= r_block
        np.add.reduce(w_r, axis=-1, out=s[:, lo:lo + step])
    return t, s


def _spinor_rows(ms, cfg: FieldConfig) -> np.ndarray:
    """``(U, V)`` of the positive spinors ``u+(q_m)`` of half-interval modes ``ms``, stacked."""
    u = spinor(subsection_momentum(ms, cfg), cfg.mass, Branch.POSITIVE)
    return np.array((u.upper, u.lower))


def _odd_sums(ks, ms, u_k, u_m, t_k, t_m, s_k) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, beta)``: ``|kappa|^2`` times the odd-column sums of mode pairs ``(k, m)``.

    From `_spinor_rows` ``(U, V)`` and weight sums ``(UU, UV, VV)`` along the first axis:
    ``s_cross(k) s_cross(m) = U_k U_m VV - (U_k V_m + V_k U_m) UV + V_k V_m UU``,
    ``1/(d_k d_m) = (1/d_k - 1/d_m)/(m - k)``, and ``j -> -j`` swaps ``UU`` and ``VV`` in the
    alpha sums.
    """
    same = ks == ms
    pair = np.where(same, s_k, (t_k - t_m) / np.where(same, 1, ms - ks))
    (up_k, low_k), (up_m, low_m) = u_k, u_m
    coeff = (low_k * low_m, -(up_k * low_m + low_k * up_m), up_k * up_m)
    return (SERIES_PREFACTOR**2 * (coeff[0] * pair[2] + coeff[1] * pair[1] + coeff[2] * pair[0]),
            SERIES_PREFACTOR**2 * (coeff[0] * pair[0] + coeff[1] * pair[1] + coeff[2] * pair[2]))


def _trigamma(x: float) -> float:
    """``zeta(2, x)`` of a float ``x > 0``: the recurrence DLMF 5.15.5 lifts ``x`` to ``>= 20``,
    where the asymptotic series 5.15.8 ends at ``x^-11``, its next term below 2e-17 of the value.
    """
    steps = 0.0
    while x < 20.0:
        r = 1.0 / x
        steps += r * r
        x += 1.0
    z = 1.0 / (x * x)
    series = (1 / 6 - z * (1 / 30 - z * (1 / 42 - z * (1 / 30 - z * 5 / 66)))) / x
    return (1.0 + (0.5 + series) / x) / x + steps


def _tail_weight_sums(k_top: int, cfg: FieldConfig, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T, S)`` past the cutoff of modes 1..k_top, each ``(3, k_top)``, entry ``k - 1``.

    The weight limits ``1/2 +- mu/(2|p|)`` and ``+-1/2`` to first order in ``mu/|p|``, summed
    over ``x = |j|/2 >= x0`` in closed form (DLMF 5.7, 5.15): each digamma as
    ``psi(x0 +- n) - psi(x0)``, a sum of ``1/(x0 +- i)`` (5.5.2), each trigamma as `_trigamma` of
    ``x0`` plus or minus a sum of their squares, and ``T`` less the ``k``-independent ``psi(x0)``.
    """
    x0 = (_odd_cutoff(n_max) + 2) / 2.0
    c, tri0 = cfg.mass / (4 * np.pi), _trigamma(x0)  # mu/(2|p|) = c/x
    # entry n - 1: psi(x0 + n) - psi(x0), psi(x0) - psi(x0 - n), zeta(2, x0) - zeta(2, x0 + n)
    # and zeta(2, x0 - n) - zeta(2, x0), as sums of 1/(x0 + i), i < n, 1/(x0 - i), 1 <= i <= n
    i = np.arange(k_top)
    up, down = 1.0 / (x0 + i), 1.0 / (x0 - 1 - i)
    psi_up, psi_down, tri_up, tri_down = np.cumsum((up, down, up * up, down * down), axis=1)
    # over d = x + a, a = n and -n: 1/d (less psi(x0)), 1/d^2, 1/(x d), 1/(x d^2)
    n = i + 1
    g = (psi_up - psi_down) / n
    t, t_mu = -0.5 * (psi_up + psi_down), c * g
    s, s_mu = tri0 + 0.5 * (tri_down - tri_up), c * (g + tri_up + tri_down) / n
    return (np.stack((t + t_mu, 0.5 * (psi_down - psi_up), t - t_mu)),
            np.stack((s + s_mu, -0.5 * (tri_up + tri_down), s - s_mu)))


def tail_sums(ks, ms, mu_l: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha_tail, beta_tail)``: sums over odd ``|j| > n_max`` of the cross terms, no phases.

    `_odd_sums` of `_tail_weight_sums`.  ``ks``, ``ms`` are integer arrays that broadcast
    (``ks[:, None], ks[None, :]``).  ``n_max < 1`` (as in `cutoff_indices`), a mode below 1 or
    non-integer modes raise `ValueError`.
    """
    _odd_cutoff(n_max)  # the cutoff is refused before mu_l and the modes
    cfg = FieldConfig.from_mu_l(mu_l)
    ks, ms = np.asarray(ks), np.asarray(ms)
    modes = np.concatenate((ks.ravel(), ms.ravel()))
    if modes.dtype.kind not in "iu":
        raise ValueError(f"modes must be integers, got an array of {modes.dtype}")
    if modes.size and modes.min() < 1:
        raise ValueError(f"modes must be >= 1, got {modes.min()}")
    t, s = _tail_weight_sums(modes.max(initial=0), cfg, n_max)
    return _odd_sums(ks, ms, _spinor_rows(ks, cfg), _spinor_rows(ms, cfg), t[:, ks - 1],
                     t[:, ms - 1], s[:, ks - 1])


def occupation_spectrum(k_max: int, mu_l: float, n_max: int, tail: bool = False) -> np.ndarray:
    """``sum_j |beta[k, j]|^2`` of modes 1..k_max at ``mu_l`` and cutoff ``n_max``, entry ``k - 1``.

    ``|W_k|^2`` plus the odd diagonal, and `tail_sums` if ``tail``.
    """
    if _integer(k_max, "k_max must be an integer") < 1:
        raise ValueError("k_max must be >= 1")
    cfg = FieldConfig.from_mu_l(mu_l)
    ks = np.arange(1, k_max + 1)
    t, s = _weight_sums(ks, cfg, n_max)
    u = _spinor_rows(ks, cfg)
    occupations = _matched_w2(ks, cfg, n_max) + _odd_sums(ks, ks, u, u, t, t, s)[1]
    return occupations + (tail_sums(ks, ks, mu_l, n_max)[1] if tail else 0.0)


def _matched_w2(ks, cfg: FieldConfig, n_max: int) -> np.ndarray:
    """``|W_k|^2`` where the cutoff holds the matched column ``-2k``, else 0 (raw sums omit it).

    One `coeff_w` call; ``abs`` of its Python complexes, as ``np.abs`` rounds apart.
    """
    held = 2 * ks <= n_max
    w2 = np.zeros(ks.shape)
    w2[held] = [abs(w) ** 2 for w in coeff_w(ks[held], cfg).tolist()]
    return w2


def cross_correlation_from_rows(alpha_c, beta_c, alpha_f, beta_f) -> complex:
    """Connected ``<nc nf> - <nc><nf>`` from two quasi-operator rows.

    Valid for any coefficient rows over a common vacuum (canonicity is not
    required): the Wick expansion of the four-point function leaves exactly
    the product of the beta-beta and alpha-alpha cross contractions.
    """
    return complex(np.sum(beta_c * np.conj(beta_f)) * np.sum(alpha_c * np.conj(alpha_f)))


def correlation_matrix(k_max: int, mu_l: float, n_max: int, tail: bool = False) -> np.ndarray:
    """Real correlation over 1 <= k, m <= k_max at cutoff ``n_max``, entry ``[k - 1, m - 1]``.

    Each cross sum is its matched diagonal minus the real odd-column sum and its ``tail``
    (right-half rows carry -1 there), all from one table of weight sums at ``mu*L = mu_l``.
    Rows are formed in blocks of at most `_BLOCK_ENTRIES` entries, at least one row each, into
    the one output array.
    """
    if _integer(k_max, "k_max must be an integer") < 1:
        raise ValueError("k_max must be >= 1")
    cfg = FieldConfig.from_mu_l(mu_l)
    ks = np.arange(1, k_max + 1)
    t, s = _weight_sums(ks, cfg, n_max)
    u, w2, held = _spinor_rows(ks, cfg), _matched_w2(ks, cfg, n_max), 2 * ks <= n_max
    t_tail, s_tail = _tail_weight_sums(k_max, cfg, n_max) if tail else (None, None)
    m, u_m, out = ks[None, :], u[:, None, :], np.empty((k_max, k_max))
    step = max(1, _BLOCK_ENTRIES // k_max)
    for lo in range(0, k_max, step):
        rows = slice(lo, lo + step)
        k, u_k = ks[rows, None], u[:, rows, None]
        alpha_odd, beta_odd = _odd_sums(k, m, u_k, u_m, t[:, rows, None], t[:, None, :],
                                        s[:, rows, None])
        alpha_tail, beta_tail = (_odd_sums(k, m, u_k, u_m, t_tail[:, rows, None],
                                           t_tail[:, None, :], s_tail[:, rows, None])
                                 if tail else (0.0, 0.0))
        diag = k == m
        beta_sum = np.where(diag, w2[rows, None], 0.0) - (beta_odd + beta_tail)
        alpha_sum = np.where(diag & held[rows, None], 0.5, 0.0) - (alpha_odd + alpha_tail)
        np.multiply(beta_sum, alpha_sum, out=out[rows])
    return out


def write_spectrum_csv(path_or_buf, spectra: dict[float, np.ndarray], n_max: int,
                       tail: bool = False) -> None:
    """One k column plus one occupation column per sweep value (mu*L), all at cutoff ``n_max``.

    The header names the configuration of the smallest mu*L, at ``L = 1``.
    """
    mu_ls = sorted(spectra)
    header = {**asdict(FieldConfig.from_mu_l(min(spectra))), "truncation": n_max,
              **({"tail": "digamma"} if tail else {}), "mu_l_values": ",".join(map(repr, mu_ls))}
    columns = [spectra[v].tolist() for v in mu_ls]
    lines = (f"{k},{','.join(map(repr, row))}\n" for k, row in enumerate(zip(*columns), 1))
    write_table(path_or_buf, header, ["k"] + [f"n_muL_{v!r}" for v in mu_ls], lines)


def write_correlation_csv(path_or_buf, entries: np.ndarray, mu_l: float, n_max: int,
                          tail: bool = False) -> None:
    """Rows ``k,m,re_d,im_d`` of the real ``entries`` at ``mu_l``, cutoff ``n_max``; ``im_d`` 0.0.

    Each row ``k``, under a config header, is one ``%`` call of ``"k,%d,%r,0.0\n"``, repeated once
    per entry, over the flat cells ``m, re_d``: float ``repr`` is the one float formatter.
    """
    ms = range(1, entries.shape[1] + 1)
    lines = ((f"{k},%d,%r,0.0\n" * len(ms)) % tuple(chain.from_iterable(zip(ms, re)))
             for k, re in enumerate(map(np.ndarray.tolist, entries), 1))
    header = {**asdict(FieldConfig.from_mu_l(mu_l)), "truncation": n_max,
              **({"tail": "digamma"} if tail else {})}
    write_table(path_or_buf, header, ("k", "m", "re_d", "im_d"), lines)
