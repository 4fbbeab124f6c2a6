import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from fermisect.detector import (
    DetectorMode,
    LevelTooHigh,
    PhasePoint,
    WidthMismatch,
    gram_matrix,
    joint_correlation,
    joint_correlation_exact,
    mode_overlap,
    registration_prob_one,
    registration_prob_two,
    wavefunction,
)


def _quad_overlap(ma: DetectorMode, mb: DetectorMode, n=6000, span=40.0):
    pa, pb = ma.point, mb.point
    center = 0.5 * (pa.p + pb.p)
    half = 0.5 * abs(pa.p - pb.p) + span * max(pa.sigma, 1.0 / pa.sigma)
    p = np.linspace(center - half, center + half, n)
    return trapezoid(np.conj(wavefunction(ma, p)) * wavefunction(mb, p), p)


# --- phase points ------------------------------------------------------------

def test_label_round_trip():
    pt = PhasePoint(sigma=0.7, x=1.3, p=-2.1)
    assert pt.label == pytest.approx(0.7 * 1.3 - 1j * 2.1 / 1.4)
    # the label determines the point: x = Re(label)/sigma, p = 2*sigma*Im(label)
    assert pt.label.real / 0.7 == pytest.approx(pt.x)
    assert 2.0 * 0.7 * pt.label.imag == pytest.approx(pt.p)


def test_label_zero_iff_origin():
    assert PhasePoint(1.0).label == 0
    assert PhasePoint(1.0, x=0.1).label != 0
    with pytest.raises(ValueError):
        PhasePoint(sigma=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for kwargs in ({"sigma": bad}, {"sigma": 1.0, "x": bad}, {"sigma": 1.0, "p": bad}):
            with pytest.raises(ValueError, match="finite"):
                PhasePoint(**kwargs)


def test_level_bounds():
    with pytest.raises(LevelTooHigh):
        DetectorMode(PhasePoint(1.0), 31)
    with pytest.raises(ValueError):
        DetectorMode(PhasePoint(1.0), -1)


# --- ground overlap ----------------------------------------------------------

def ground_overlap(a: PhasePoint, b: PhasePoint) -> complex:
    """`mode_overlap` at levels (0, 0)."""
    return mode_overlap(DetectorMode(a, 0), DetectorMode(b, 0))


def test_ground_overlap_identity_and_modulus():
    a = PhasePoint(1.0, 0.4, 1.0)
    b = PhasePoint(1.0, -0.6, 0.3)
    assert ground_overlap(a, a) == pytest.approx(1.0)
    assert abs(ground_overlap(a, b)) == pytest.approx(
        math.exp(-0.5 * abs(a.label - b.label) ** 2))
    origin = PhasePoint(1.0)
    assert abs(ground_overlap(origin, b)) == pytest.approx(
        math.exp(-0.5 * abs(b.label) ** 2))


def test_ground_overlap_conjugate_symmetric():
    a = PhasePoint(0.8, 0.9, -0.2)
    b = PhasePoint(0.8, -0.1, 1.1)
    assert ground_overlap(a, b) == pytest.approx(np.conj(ground_overlap(b, a)))


def test_width_mismatch_rejected():
    with pytest.raises(WidthMismatch):
        mode_overlap(DetectorMode(PhasePoint(1.0), 0), DetectorMode(PhasePoint(2.0), 0))


def test_ground_overlap_against_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(6):
        s = float(rng.uniform(0.5, 1.5))
        a = PhasePoint(s, float(rng.normal()), float(rng.normal()))
        b = PhasePoint(s, float(rng.normal()), float(rng.normal()))
        quad = _quad_overlap(DetectorMode(a, 0), DetectorMode(b, 0))
        al, bl = a.label, b.label
        closed = np.exp(-0.5 * abs(al - bl) ** 2 + 0.5 * (np.conj(al) * bl - al * np.conj(bl)))
        assert abs(quad - ground_overlap(a, b)) <= 1e-10
        assert abs(closed - ground_overlap(a, b)) <= 1e-14


# --- wavefunctions -----------------------------------------------------------

def test_ground_wavefunction_is_the_printed_gaussian():
    pt = PhasePoint(sigma=0.9, x=0.0, p=1.4)  # x = 0: gauge phase is trivial
    p = np.linspace(-4, 6, 11)
    expected = (1.0 / math.sqrt(pt.sigma * math.sqrt(2 * math.pi))
                * np.exp(-((p - pt.p) ** 2) / (4 * pt.sigma ** 2)))
    assert np.allclose(wavefunction(DetectorMode(pt, 0), p), expected)


def test_wavefunction_norms_all_levels():
    pt = PhasePoint(sigma=1.2, x=0.7, p=-0.9)
    for n in (0, 1, 2, 5, 12, 30):
        mode = DetectorMode(pt, n)
        norm = _quad_overlap(mode, mode, n=20000)
        assert norm.real == pytest.approx(1.0, abs=1e-9)


def test_same_point_ladder_orthogonality():
    pt = PhasePoint(sigma=0.8, x=0.4, p=0.6)
    for n in range(4):
        for m in range(4):
            val = mode_overlap(DetectorMode(pt, n), DetectorMode(pt, m))
            assert abs(val - (1.0 if n == m else 0.0)) <= 1e-14


def test_general_overlap_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = float(rng.uniform(0.5, 1.5))
        ma = DetectorMode(PhasePoint(s, float(rng.normal()), float(rng.normal())),
                          int(rng.integers(0, 6)))
        mb = DetectorMode(PhasePoint(s, float(rng.normal()), float(rng.normal())),
                          int(rng.integers(0, 6)))
        assert abs(_quad_overlap(ma, mb, n=12000) - mode_overlap(ma, mb)) <= 1e-10


def test_excited_to_ground_overlap_modulus():
    # |<(0,1)|(b,0)>|^2 = |b|^2 exp(-|b|^2), the weight behind the
    # two-particle registration curve
    for r in (0.3, 1.0, 2.2):
        b = PhasePoint(1.0, x=r)
        val = mode_overlap(DetectorMode(PhasePoint(1.0), 1), DetectorMode(b, 0))
        assert abs(val) ** 2 == pytest.approx(r ** 2 * math.exp(-(r ** 2)))


# --- registration probabilities ----------------------------------------------

def test_prob_one_closed_form():
    assert registration_prob_one(PhasePoint(1.0)) == 1.0
    b_unit = PhasePoint(1.0, x=1.0)  # |label| = 1
    assert registration_prob_one(b_unit) == pytest.approx(math.exp(-1.0))


def test_prob_two_closed_form():
    assert registration_prob_two(PhasePoint(1.0)) == 1.0
    b_unit = PhasePoint(1.0, x=1.0)
    assert registration_prob_two(b_unit) == pytest.approx(2.0 * math.exp(-1.0))


def test_probs_match_gram_evaluation():
    rng = np.random.default_rng(4)
    origin = PhasePoint(1.1)
    for _ in range(8):
        b = PhasePoint(1.1, float(rng.normal()), float(rng.normal()))
        p1_gram = abs(mode_overlap(DetectorMode(origin, 0), DetectorMode(b, 0))) ** 2
        p2_gram = sum(
            abs(mode_overlap(DetectorMode(origin, m), DetectorMode(b, 0))) ** 2
            for m in (0, 1)
        )
        assert abs(p1_gram - registration_prob_one(b)) <= 1e-12
        assert abs(p2_gram - registration_prob_two(b)) <= 1e-12


def test_two_particle_curve_dominates_and_decreases():
    radii = np.linspace(0.0, 4.0, 60)
    p1 = [registration_prob_one(PhasePoint(1.0, x=r)) for r in radii]
    p2 = [registration_prob_two(PhasePoint(1.0, x=r)) for r in radii]
    assert all(b >= a for a, b in zip(p1, p2))
    assert all(p1[i + 1] < p1[i] for i in range(len(p1) - 1))
    assert all(p2[i + 1] < p2[i] for i in range(len(p2) - 1))


def test_vacuum_registers_nothing():
    # common vacuum: detector transforms never mix creation with annihilation,
    # so the vacuum expectation of any detector number operator is exactly 0.
    # Represent a detector annihilator on an orthonormal span and check.
    from fermisect.fock import build_space, vacuum_expectation

    rng = np.random.default_rng(6)
    space = build_space(3, 0)
    for _ in range(5):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        coeffs /= np.linalg.norm(coeffs)
        ann = sum(np.conj(c) * space.annihilate_particle(j) for j, c in enumerate(coeffs))
        assert vacuum_expectation(space, [ann.conj().T, ann]) == 0
    # and far from the state, registration of the particle state dies off too
    assert registration_prob_one(PhasePoint(1.0, x=40.0)) <= 1e-300


# --- gram matrices -----------------------------------------------------------

def test_gram_hermitian_psd_unit_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        s = float(rng.uniform(0.4, 1.8))
        modes = [DetectorMode(PhasePoint(s, float(rng.normal()), float(rng.normal())),
                              int(rng.integers(0, 6))) for _ in range(n)]
        gram = gram_matrix(modes)
        assert np.allclose(gram, gram.conj().T)
        assert np.allclose(np.diag(gram), 1.0)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


# --- joint correlation ---------------------------------------------------------

def test_origin_detector_decorrelates():
    origin = PhasePoint(1.0)
    for x in (-3.0, 0.5, 2.0, 5.0):
        for p in (-2.0, 0.0, 3.0):
            assert joint_correlation(origin, PhasePoint(1.0, x=x, p=p)) == 0.0


def test_equal_points_give_occupation_variance():
    for x in (0.3, 1.2, 2.5):
        a = PhasePoint(1.0, x=x)
        c = joint_correlation(a, a)
        # n(1-n) for the detector-mode occupation n in the two-particle state
        n = registration_prob_two(a)
        assert c == pytest.approx(n * (1.0 - n), abs=1e-12)
        assert -0.25 <= c <= 0.25


def test_wick_matches_fock_span_computation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = PhasePoint(1.0, float(rng.uniform(0, 3)), float(rng.uniform(-2, 2)))
        b = PhasePoint(1.0, float(rng.uniform(0, 3)), float(rng.uniform(-2, 2)))
        assert abs(joint_correlation(a, b) - joint_correlation_exact(a, b)) <= 1e-10


def test_fock_span_handles_detector_on_state_mode():
    # rank-deficient span: detector a exactly on the origin ground mode
    origin = PhasePoint(1.0)
    b = PhasePoint(1.0, x=1.0)
    assert abs(joint_correlation_exact(origin, b)) <= 1e-12


def test_surface_snapshot():
    vals = {
        (0.5, 0.5): 0.025796823038266217,
        (1.0, 2.0): 0.08871968211182263,
        (2.5, 1.5): 0.036504797139020356,
    }
    for (a, b), expected in vals.items():
        got = joint_correlation(PhasePoint(1.0, x=a), PhasePoint(1.0, x=b))
        assert got == pytest.approx(expected, abs=1e-12)


def test_joint_correlation_width_mismatch():
    with pytest.raises(WidthMismatch):
        joint_correlation(PhasePoint(1.0), PhasePoint(2.0, x=1.0))
