"""Stacked kernel rows, the dump reader, and the per-item references of the dump bytes, the
correlation bytes, the contractions' weight table, the correlation matrix and ``W``, for the tests
that compare whole blocks."""

import math
from dataclasses import asdict

import numpy as np

from fermisect._textio import write_table
from fermisect.bogoliubov import check_domain, cutoff_indices, iter_coefficients, region_sign
from fermisect.field import FieldConfig, _integer, energy, subsection_momentum
from fermisect.spectrum import _matched_w2, _odd_sums, _spinor_rows, _weight_sums, tail_sums


def coefficient_rows(ms, ks, cfg):
    """Left-half rows ``ms`` of ``(alpha, beta)`` over ``ks``, stacked from `iter_coefficients`."""
    alpha, beta = zip(*iter_coefficients(ms, ks, cfg))
    return np.array(alpha), np.array(beta)


def pair_from_csv(buf) -> dict[tuple[int, int], tuple[complex, complex]]:
    """The rows `pair_to_csv` wrote to ``buf``, as a sparse ``{(m, k): (alpha, beta)}`` map."""
    entries = {}
    for line in buf:
        if line.startswith("#") or line.startswith("m,"):
            continue
        m_s, k_s, ra, ia, rb, ib = line.strip().split(",")
        entries[(int(m_s), int(k_s))] = (complex(float(ra), float(ia)),
                                         complex(float(rb), float(ib)))
    return entries


def reference_pair_csv(region, buf, cfg, n_max) -> None:
    """`pair_to_csv`'s bytes by the tuple-list formatter it used before its row template.

    Each row is the ``repr`` of a list of ``(k, re_alpha, im_alpha, re_beta, im_beta)``
    tuples, turned into CSV lines by two replacements.
    """
    ks = cutoff_indices(n_max)
    sign = region_sign(ks, region)

    def rows():
        for m, (a, b) in zip(ks.tolist(), iter_coefficients(ks, ks, cfg)):
            a, b = a * sign, b * sign
            nz = np.flatnonzero((a != 0) | (b != 0))
            if nz.size == 0:
                continue
            cells = repr(list(zip(ks[nz].tolist(), a.real[nz].tolist(), a.imag[nz].tolist(),
                                  b.real[nz].tolist(), b.imag[nz].tolist())))
            yield f"{m}," + cells[2:-2].replace("), (", f"\n{m},").replace(", ", ",") + "\n"

    write_table(buf, {"region": region.value, **asdict(cfg), "n_max": int(ks[-1])},
                ("m", "k", "re_alpha", "im_alpha", "re_beta", "im_beta"), rows())


def reference_weight_sums(ks, cfg, n_max):
    """`spectrum._weight_sums` by its former loop: one mode at a time, ``1/((j + 2k)/2)``."""
    js = cutoff_indices(n_max)
    p, eps = check_domain(ks, js, cfg)
    j = js[js % 2 != 0]
    weights = np.stack(((eps + cfg.mass) / (2.0 * eps), p / (2.0 * eps),
                        p * p / (2.0 * eps * (eps + cfg.mass))))
    t, s = np.empty((2, 3, len(ks)))
    for i, k in enumerate(ks):
        r = 1.0 / ((j + 2 * k) / 2.0)
        w_r = weights * r
        t[:, i], s[:, i] = np.sum(w_r, axis=1), np.sum(w_r * r, axis=1)
    return t, s


def reference_correlation_matrix(k_max, mu_l, n_max, tail=False):
    """`spectrum.correlation_matrix` by its former one-shot body: all rows in one block."""
    if _integer(k_max, "k_max must be an integer") < 1:
        raise ValueError("k_max must be >= 1")
    cfg = FieldConfig.from_mu_l(mu_l)
    ks = np.arange(1, k_max + 1)
    t, s = _weight_sums(ks, cfg, n_max)
    u = _spinor_rows(ks, cfg)
    alpha_odd, beta_odd = _odd_sums(ks[:, None], ks[None, :], u[:, :, None], u[:, None, :],
                                    t[:, :, None], t[:, None, :], s[:, :, None])
    alpha_tail, beta_tail = tail_sums(ks[:, None], ks[None, :], mu_l, n_max) if tail else (0.0, 0.0)
    beta_sum = np.diag(_matched_w2(ks, cfg, n_max)) - (beta_odd + beta_tail)
    alpha_sum = np.diag(np.where(2 * ks <= n_max, 0.5, 0.0)) - (alpha_odd + alpha_tail)
    return beta_sum * alpha_sum


def reference_coeff_w(m, cfg):
    """`bogoliubov.coeff_w` of one int ``m`` by its former scalar form."""
    if m == 0:
        return 0.0 + 0.0j
    q = float(subsection_momentum(m, cfg))
    eps = float(energy(q, cfg.mass))
    return q * np.exp(-2j * eps * cfg.time) / (math.sqrt(2.0) * eps)


def reference_correlation_csv(buf, entries, cfg, n_max, tail=False):
    """`spectrum.write_correlation_csv`'s bytes by its former per-entry f-string."""
    lines = (f"{k},{m},{d.real!r},{d.imag!r}\n"
             for k, row in enumerate(entries.tolist(), 1) for m, d in enumerate(row, 1))
    header = {**asdict(cfg), "truncation": n_max, **({"tail": "digamma"} if tail else {})}
    write_table(buf, header, ("k", "m", "re_d", "im_d"), lines)
