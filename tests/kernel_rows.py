"""Stacked kernel rows, the dump reader and the dump's byte reference, for the tests that compare
whole coefficient blocks."""

from dataclasses import asdict

import numpy as np

from fermisect._textio import write_table
from fermisect.bogoliubov import cutoff_indices, iter_coefficients, region_sign


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
