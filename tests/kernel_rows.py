"""Stacked kernel rows and the dump reader, for the tests that compare whole coefficient blocks."""

import numpy as np

from fermisect.bogoliubov import iter_coefficients


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
