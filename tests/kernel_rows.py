"""Stacked kernel rows for the tests that compare whole coefficient blocks."""

import numpy as np

from fermisect.bogoliubov import iter_coefficients


def coefficient_rows(ms, ks, cfg):
    """Left-half rows ``ms`` of ``(alpha, beta)`` over ``ks``, stacked from `iter_coefficients`."""
    alpha, beta = zip(*iter_coefficients(ms, ks, cfg))
    return np.array(alpha), np.array(beta)
