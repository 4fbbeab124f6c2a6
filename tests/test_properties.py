"""Invariants of the coefficient kernel and the occupation, over drawn configurations.

Draws are derandomized and few, so the suite stays deterministic and fast.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisect.bogoliubov import (
    build_pair,
    coefficient_rows,
    coefficients,
    cutoff_indices,
    pair_from_csv,
    pair_to_csv,
)
from fermisect.field import FieldConfig, Region
from fermisect.spectrum import occupation

N = 65
DRAWS = settings(max_examples=30, derandomize=True, deadline=None, database=None)

mu_ls = st.floats(0.01, 100.0)
half_lengths = st.floats(0.1, 10.0)
times = st.floats(-10.0, 10.0)
modes = st.integers(1, 20)


@DRAWS
@given(mu_l=mu_ls, half_length=half_lengths, time=times, k=modes)
def test_occupation_depends_on_mu_l_alone(mu_l, half_length, time, k):
    # time enters only through phases and L only through mu*L
    ref = occupation(k, FieldConfig.from_mu_l(mu_l), N)
    moved = occupation(k, FieldConfig.from_mu_l(mu_l, half_length=half_length, time=time), N)
    assert moved == pytest.approx(ref, rel=1e-12, abs=0.0)


@DRAWS
@given(mu_l=mu_ls, time=times, k=modes)
def test_occupation_is_a_filling_fraction(mu_l, time, k):
    assert 0.0 <= occupation(k, FieldConfig.from_mu_l(mu_l, time=time), N) <= 1.0


@DRAWS
@given(mu_l=mu_ls, time=times, m=st.integers(-20, 20))
def test_left_and_right_magnitudes_equal(mu_l, time, m):
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    js = cutoff_indices(N)
    alpha_l, beta_l = coefficients(m, js, Region.LEFT, cfg)
    alpha_r, beta_r = coefficients(m, js, Region.RIGHT, cfg)
    assert np.array_equal(np.abs(beta_l), np.abs(beta_r))
    assert np.array_equal(np.abs(alpha_l), np.abs(alpha_r))


@DRAWS
@given(mu_l=st.floats(0.05, 20.0), time=st.floats(-2.0, 2.0),
       region=st.sampled_from((Region.LEFT, Region.RIGHT)), n=st.integers(1, 12))
def test_csv_round_trip_is_exact(mu_l, time, region, n):
    # the dump holds every nonzero entry of the kernel, bit for bit, and nothing else
    cfg = FieldConfig.from_mu_l(mu_l, time=time)
    buf = io.StringIO()
    pair_to_csv(build_pair(region, cfg, n), buf)
    buf.seek(0)
    ks = cutoff_indices(n)
    alpha, beta = coefficient_rows(ks, ks, region, cfg)
    nonzero = {(m, k): (complex(alpha[i, j]), complex(beta[i, j]))
               for i, m in enumerate(ks.tolist()) for j, k in enumerate(ks.tolist())
               if alpha[i, j] != 0 or beta[i, j] != 0}
    assert pair_from_csv(buf) == nonzero
