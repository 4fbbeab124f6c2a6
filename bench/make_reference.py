"""Regenerate ``bench/reference.json``: converged occupation spectra.

For each ``mu*L`` of the benchmark's 9-point log grid on [0.1, 10] and each
half-interval mode ``k = 1..128`` this writes

* the vacuum occupation ``n(k) = sum_j |beta[k, j]|^2`` and
* the left/right correlation diagonal
  ``D(k, k) = (sum_j beta_L conj(beta_R)) * (sum_j alpha_L conj(alpha_R))``,

both summed over the whole full-interval ladder.  The coefficient magnitudes
are written out here from their closed form, with no call into
``fermisect``, so the reference stays fixed whatever summation method the
package later uses.  Only ``|beta|^2`` and ``|alpha|^2`` enter, so the values
depend on ``mu*L`` alone (time and ``L`` cancel); ``L = 1`` below.

Method: raw truncated sums at the cutoffs ``N = 2**15+1, 2**16+1, 2**17+1``.
The truncation error of a raw sum falls like ``1/N``, so one Richardson step
in ``h = 1/N`` on the two largest cutoffs removes the leading tail.  The
same step on the two smaller cutoffs gives a second estimate; the largest
gap between the two, relative to the value, is recorded as the estimated
residual.

Run from the repository root::

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GRID = [float(v) for v in np.logspace(-1.0, 1.0, 9)]
K_MAX = 128
CUTOFFS = (2**15 + 1, 2**16 + 1, 2**17 + 1)
OUT = Path(__file__).with_name("reference.json")

#: squared magnitude of the odd-column series prefactor, 1/(sqrt(2)*pi)
KAPPA2 = 1.0 / (2.0 * math.pi**2)


def odd_sums(mu: float, k: int, n: int) -> tuple[float, float]:
    """``(sum |alpha[k, j]|^2, sum |beta[k, j]|^2)`` over odd ``|j| <= n``."""
    j = np.arange(-n, n + 1, 2, dtype=float)  # n is odd, so these are the odd j
    q = 2.0 * math.pi * k
    p = math.pi * j
    eps_q = math.hypot(q, mu)
    eps_p = np.hypot(p, mu)
    den = 2.0 * np.sqrt(eps_p * eps_q * (eps_p + mu) * (eps_q + mu))
    s_plus = ((eps_p + mu) * (eps_q + mu) + p * q) / den
    s_cross = (p * (eps_q + mu) - q * (eps_p + mu)) / den
    a = KAPPA2 * s_plus**2 / ((j - 2 * k) / 2.0) ** 2
    b = KAPPA2 * s_cross**2 / ((j + 2 * k) / 2.0) ** 2
    return math.fsum(a), math.fsum(b)


def raw(mu: float, k: int, n: int) -> tuple[float, float]:
    """Raw truncated ``(occupation, diagonal)`` at cutoff ``n >= 2k``."""
    q = 2.0 * math.pi * k
    w2 = q * q / (2.0 * (q * q + mu * mu))  # |W_k|^2 at the even column j = -2k
    a_odd, b_odd = odd_sums(mu, k, n)
    return w2 + b_odd, (w2 - b_odd) * (0.5 - a_odd)


def richardson(lo: float, hi: float, n_lo: int, n_hi: int) -> float:
    """Limit of ``S(N) = S + c/N`` from two cutoffs."""
    return (n_hi * hi - n_lo * lo) / (n_hi - n_lo)


def main() -> None:
    n0, n1, n2 = CUTOFFS
    occ, diag = [], []
    residual = {"occupation": 0.0, "diagonal": 0.0}
    for mu in GRID:
        occ_row, diag_row = [], []
        for k in range(1, K_MAX + 1):
            s0, s1, s2 = raw(mu, k, n0), raw(mu, k, n1), raw(mu, k, n2)
            for i, (name, row) in enumerate((("occupation", occ_row), ("diagonal", diag_row))):
                best = richardson(s1[i], s2[i], n1, n2)
                second = richardson(s0[i], s1[i], n0, n1)
                residual[name] = max(residual[name], abs(best - second) / abs(best))
                row.append(best)
        occ.append(occ_row)
        diag.append(diag_row)
    payload = {
        "method": ("raw truncated sums of the closed-form |alpha|^2, |beta|^2 at cutoffs "
                   f"N = {n1} and {n2}, plus one Richardson step in 1/N"),
        "residual_method": (f"max relative gap to the same Richardson step on N = {n0} and {n1}"),
        "estimated_residual": residual,
        "mu_l": GRID,
        "k": list(range(1, K_MAX + 1)),
        "occupation": occ,
        "diagonal": diag,
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} (estimated residual {residual})")


if __name__ == "__main__":
    main()
