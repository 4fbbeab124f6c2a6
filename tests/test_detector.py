import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import eval_genlaguerre

from fermisect.detector import (
    MAX_LEVEL,
    DetectorMode,
    PhasePoint,
    gram_matrices,
    joint_correlation_exact,
    joint_correlation_exact_surface,
    joint_correlation_surface,
    mode_overlap,
    registration_probabilities,
)
from fermisect import detector
import oracle_reference as reference


def _wavefunction(mode: DetectorMode, p) -> np.ndarray:
    """Momentum-space wavefunction of a detector mode, unit L2 norm; `_quad_overlap` integrates it.

    Levels are generated by the stable normalized Hermite recurrence rather
    than repeated differentiation.  The overall phase is fixed so that
    numerical overlaps of these functions reproduce `mode_overlap` exactly,
    which pins the gauge ``exp(i*p_c*x_c/2)`` relative to the bare Gaussian.
    """
    pt = mode.point
    p = np.asarray(p, dtype=float)
    u = (p - pt.p) / (math.sqrt(2.0) * pt.sigma)
    gauss = np.exp(-0.5 * u * u) / math.sqrt(pt.sigma * math.sqrt(2.0 * math.pi))
    phase = np.exp(-1j * p * pt.x + 0.5j * pt.p * pt.x)
    if mode.level == 0:
        return gauss * phase
    h_prev = np.ones_like(u)
    h_cur = u * math.sqrt(2.0)
    for n in range(1, mode.level):
        h_next = u * math.sqrt(2.0 / (n + 1)) * h_cur - math.sqrt(n / (n + 1.0)) * h_prev
        h_prev, h_cur = h_cur, h_next
    return h_cur * gauss * phase


def _quad_overlap(ma: DetectorMode, mb: DetectorMode, n=6000, span=40.0):
    pa, pb = ma.point, mb.point
    center = 0.5 * (pa.p + pb.p)
    half = 0.5 * abs(pa.p - pb.p) + span * max(pa.sigma, 1.0 / pa.sigma)
    p = np.linspace(center - half, center + half, n)
    return trapezoid(np.conj(_wavefunction(ma, p)) * _wavefunction(mb, p), p)


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
    with pytest.raises(ValueError, match="level 31 exceeds the stability bound 30"):
        DetectorMode(PhasePoint(1.0), 31)
    with pytest.raises(ValueError):
        DetectorMode(PhasePoint(1.0), -1)


def test_level_must_be_an_integer():
    # a level that operator.index refuses is refused, not truncated to another level's overlap
    b = DetectorMode(PhasePoint(1.0, x=0.3), 1)
    for level in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"level must be an integer, got {level!r}"):
            DetectorMode(PhasePoint(1.0), level)
    assert mode_overlap(DetectorMode(PhasePoint(1.0), np.int64(2)), b) == mode_overlap(
        DetectorMode(PhasePoint(1.0), 2), b)


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
    with pytest.raises(ValueError, match="widths differ"):
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
    assert np.allclose(_wavefunction(DetectorMode(pt, 0), p), expected)


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
    b_unit = PhasePoint(1.0, x=1.0)  # |label| = 1
    p1, _ = registration_probabilities([PhasePoint(1.0).label, b_unit.label])
    assert p1[0] == 1.0
    assert p1[1] == pytest.approx(math.exp(-1.0))


def test_prob_two_closed_form():
    b_unit = PhasePoint(1.0, x=1.0)
    _, p2 = registration_probabilities([PhasePoint(1.0).label, b_unit.label])
    assert p2[0] == 1.0
    assert p2[1] == pytest.approx(2.0 * math.exp(-1.0))


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
        p1, p2 = registration_probabilities([b.label])
        assert abs(p1_gram - p1[0]) <= 1e-12
        assert abs(p2_gram - p2[0]) <= 1e-12


def test_two_particle_curve_dominates_and_decreases():
    radii = np.linspace(0.0, 4.0, 60)
    labels = [PhasePoint(1.0, x=r).label for r in radii]
    p1, p2 = (p.tolist() for p in registration_probabilities(labels))
    assert all(b >= a for a, b in zip(p1, p2))
    assert all(p1[i + 1] < p1[i] for i in range(len(p1) - 1))
    assert all(p2[i + 1] < p2[i] for i in range(len(p2) - 1))


@pytest.mark.parametrize("g", [0.9484742371185593, 1.8969484742371185, 2.7538769384692348])
def test_registration_squares_the_label_per_entry(g):
    # labels of the golden grid 0:3.0:2000 at --sigma 2.0 where np.abs(b) ** 2 rounds apart
    # from abs(b) ** 2 by enough to move a printed probability
    b = complex(2.0 * (g / 2.0))
    r = abs(b) ** 2
    (p1,), (p2,) = registration_probabilities([b])
    assert (p1.hex(), p2.hex()) == (math.exp(-r).hex(), ((1.0 + r) * math.exp(-r)).hex())


def test_vacuum_registers_nothing():
    # common vacuum: detector transforms never mix creation with annihilation,
    # so the vacuum expectation of any detector number operator is exactly 0.
    # Represent a detector annihilator on an orthonormal span and check.
    from fermisect.fock import QuasiOperator, expectations

    rng = np.random.default_rng(6)
    for _ in range(5):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        coeffs /= np.linalg.norm(coeffs)
        # sum_j conj(coeffs[j]) a_j
        ann = QuasiOperator(alpha=np.conj(coeffs), beta=np.zeros(0))
        assert expectations([ann.adjoint, ann])[0] == 0
    # and far from the state, registration of the particle state dies off too
    assert registration_probabilities([PhasePoint(1.0, x=40.0).label])[0][0] <= 1e-300


# --- gram matrices -----------------------------------------------------------

def test_gram_hermitian_psd_unit_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        s = float(rng.uniform(0.4, 1.8))
        modes = [DetectorMode(PhasePoint(s, float(rng.normal()), float(rng.normal())),
                              int(rng.integers(0, 6))) for _ in range(n)]
        gram = gram_matrices([modes])[0]
        assert np.allclose(gram, gram.conj().T)
        assert np.allclose(np.diag(gram), 1.0)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


# --- joint correlation ---------------------------------------------------------

def test_origin_detector_decorrelates():
    origin = PhasePoint(1.0)
    for x in (-3.0, 0.5, 2.0, 5.0):
        for p in (-2.0, 0.0, 3.0):
            b = PhasePoint(1.0, x=x, p=p)
            assert joint_correlation_surface([origin.label], [b.label])[0, 0] == 0.0


def test_equal_points_give_occupation_variance():
    for x in (0.3, 1.2, 2.5):
        a = PhasePoint(1.0, x=x)
        c = joint_correlation_surface([a.label], [a.label])[0, 0]
        # n(1-n) for the detector-mode occupation n in the two-particle state
        n = registration_probabilities([a.label])[1][0]
        assert c == pytest.approx(n * (1.0 - n), abs=1e-12)
        assert -0.25 <= c <= 0.25


def test_wick_matches_fock_span_computation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = PhasePoint(1.0, float(rng.uniform(0, 3)), float(rng.uniform(-2, 2)))
        b = PhasePoint(1.0, float(rng.uniform(0, 3)), float(rng.uniform(-2, 2)))
        surface = joint_correlation_surface([a.label], [b.label])
        assert abs(surface[0, 0] - joint_correlation_exact(a, b)) <= 1e-10


def test_fock_span_handles_detector_on_state_mode():
    # rank-deficient span: detector a exactly on the origin ground mode
    origin = PhasePoint(1.0)
    b = PhasePoint(1.0, x=1.0)
    assert abs(joint_correlation_exact(origin, b)) <= 1e-12


def test_exact_surface_equals_the_pair_by_pair_twin_by_bits():
    rng = np.random.default_rng(26)
    points = [
        PhasePoint(1.0),  # on the state modes: rank 3, and rank 2 against itself
        PhasePoint(1.0, x=1.0),
        PhasePoint(1.0, x=1.0),  # coincident with the point before: rank 3
        PhasePoint(1.0, x=1e-7),  # nearly on the state modes
        PhasePoint(1.0, x=40.0, p=-3.0),  # far apart: overlaps underflow to zero
        PhasePoint(1.0, x=-7.0, p=25.0),
    ] + [PhasePoint(1.0, float(x), float(p)) for x, p in rng.normal(scale=2.0, size=(8, 2))]
    labels = [point.label for point in points]
    surface = joint_correlation_exact_surface(labels, labels[::-1])
    want = np.array([[reference.joint_correlation_by_span(a, b) for b in points[::-1]]
                     for a in points])
    assert surface.shape == (len(points), len(points))
    assert surface.view(np.int64).tolist() == want.view(np.int64).tolist()
    one = np.array([[joint_correlation_exact(a, b) for b in points[::-1]] for a in points])
    assert one.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_exact_surface_of_empty_sides_is_empty():
    labels = [PhasePoint(0.5, x=1.0).label, PhasePoint(0.5).label]
    assert joint_correlation_exact_surface([], labels).shape == (0, 2)
    assert joint_correlation_exact_surface(labels, []).shape == (2, 0)


def test_surface_snapshot():
    vals = {
        (0.5, 0.5): 0.025796823038266217,
        (1.0, 2.0): 0.08871968211182263,
        (2.5, 1.5): 0.036504797139020356,
    }
    for (a, b), expected in vals.items():
        got = joint_correlation_surface([PhasePoint(1.0, x=a).label],
                                        [PhasePoint(1.0, x=b).label])[0, 0]
        assert got == pytest.approx(expected, abs=1e-12)


def test_joint_correlation_width_mismatch():
    # the point-pair twin checks the widths; both surfaces take labels, which carry none
    with pytest.raises(ValueError, match="widths differ"):
        joint_correlation_exact(PhasePoint(1.0), PhasePoint(2.0, x=1.0))


def _assert_surface_by_overlaps(points_a, points_b):
    surface = joint_correlation_surface([a.label for a in points_a], [b.label for b in points_b])
    assert surface.shape == (len(points_a), len(points_b))
    want = [[reference.joint_correlation_by_overlaps(a, b).hex() for b in points_b]
            for a in points_a]
    assert [[c.hex() for c in row] for row in surface.tolist()] == want


_coordinate = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(sigma=st.floats(0.2, 3.0), data=st.data())
def test_surface_equals_eight_overlap_formula(sigma, data):
    # rows and columns on the real axis, the imaginary axis, off axis and at the origin
    def points():
        coords = data.draw(st.lists(st.tuples(_coordinate, _coordinate), max_size=5))
        return [PhasePoint(sigma, x=x, p=p) for x, p in coords]

    _assert_surface_by_overlaps(points(), points())


def test_surface_equals_eight_overlap_formula_on_a_cli_sized_grid():
    sigma = 0.7
    grid = np.linspace(0.0, 3.5, 60).tolist()
    real = [PhasePoint(sigma, x=g / sigma) for g in grid]
    imag = [PhasePoint(sigma, p=2.0 * sigma * g) for g in grid]
    _assert_surface_by_overlaps(real, real)
    _assert_surface_by_overlaps(real, imag)


# --- the overlap kernel against the one-pair scalar formula ---------------------

def _hexes(values):
    """``float.hex`` of the real and imaginary part of every entry, signed zeros included."""
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in np.asarray(values).tolist()]


def _block(modes_a, modes_b):
    """The ``<a, n_a | b, n_b>`` block of ``modes_a`` against ``modes_b``, from one Gram of both."""
    modes_a, modes_b = list(modes_a), list(modes_b)
    return gram_matrices([modes_a + modes_b])[0][:len(modes_a), len(modes_a):]


def _assert_block_by_pairs(modes_a, modes_b):
    block = _block(modes_a, modes_b)
    assert block.shape == (len(modes_a), len(modes_b))
    want = [[reference.mode_overlap(a, b) for b in modes_b] for a in modes_a]
    assert _hexes(block) == _hexes(want)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(sigma=st.floats(0.2, 3.0), data=st.data())
def test_overlap_matrix_equals_scalar_overlaps(sigma, data):
    # labels at the origin, on either axis and off axis; side b reuses side-a
    # points, and both orientations run, so equal points meet at equal and swapped levels
    fresh = st.builds(lambda x, p: PhasePoint(sigma, x=x, p=p), _coordinate, _coordinate)
    points_a = data.draw(st.lists(fresh, max_size=5))
    reused = st.one_of(fresh, st.sampled_from(points_a)) if points_a else fresh
    points_b = data.draw(st.lists(reused, max_size=5))
    level = st.integers(0, MAX_LEVEL)
    modes_a = [DetectorMode(point, data.draw(level)) for point in points_a]
    modes_b = [DetectorMode(point, data.draw(level)) for point in points_b]
    _assert_block_by_pairs(modes_a, modes_b)
    _assert_block_by_pairs(modes_b, modes_a)


def test_overlap_matrix_empty_sides():
    modes = [DetectorMode(PhasePoint(1.0, x=0.5), 2)]
    assert _block([], modes).shape == (0, 1)
    assert _block(modes, []).shape == (1, 0)
    assert _block([], []).shape == (0, 0)
    assert gram_matrices([[]])[0].shape == (0, 0)


def test_laguerre_factor_equals_scipy_by_bits():
    # every degree and order the kernel reaches, degrees 0 and 1 included, up to x = 1400,
    # beyond which the amplitude underflows and the factor is not evaluated
    rng = np.random.default_rng(41)
    degree, order = np.array([(n, k) for n in range(MAX_LEVEL + 1)
                              for k in range(MAX_LEVEL + 1 - n)]).T
    x = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1400.0],
                        rng.uniform(0.0, 5.0, 40), rng.uniform(0.0, 1400.0, 40)])
    n, k, x = (arr.ravel() for arr in np.broadcast_arrays(degree[:, None], order[:, None], x))
    got, want = detector._laguerre(n, k, x), eval_genlaguerre(n, k, x)
    assert got.dtype == want.dtype == np.float64
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _criterion_7_sets(seed):
    """The 50 mode sets that criterion 7 draws from ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        sigma = float(rng.uniform(0.3, 2.0))
        yield [
            DetectorMode(PhasePoint(sigma, float(rng.normal()), float(rng.normal())),
                         int(rng.integers(0, 6)))
            for _ in range(n)
        ]


@pytest.mark.parametrize("seed", [20240811, 1, 2, 3])
def test_gram_matrix_equals_pair_loop_on_criterion_7_sets(seed):
    for modes in _criterion_7_sets(seed):
        assert _hexes(gram_matrices([modes])[0]) == _hexes(reference.gram_by_pairs(modes))


@pytest.mark.parametrize("seed", [20240811, 1, 2, 3])
def test_gram_matrices_equal_the_pair_loop_per_set_on_criterion_7_sets(seed):
    sets = list(_criterion_7_sets(seed))
    grams = gram_matrices(sets)
    assert len(grams) == len(sets)
    for gram, modes in zip(grams, sets):
        assert _hexes(gram) == _hexes(reference.gram_by_pairs(modes))


def test_gram_matrices_make_one_kernel_call_over_every_upper_triangle(monkeypatch):
    sizes = []
    kernel = detector._overlap_entries

    def spy(label_a, level_a, label_b, level_b):
        sizes.append(label_a.size)
        return kernel(label_a, level_a, label_b, level_b)

    monkeypatch.setattr(detector, "_overlap_entries", spy)
    gram_matrices(_criterion_7_sets(20240811))
    assert sizes == [3910]


def test_gram_matrices_check_widths_per_set():
    assert gram_matrices([]) == []
    empty, single = gram_matrices([[], [DetectorMode(PhasePoint(0.5, x=1.0), 3)]])
    assert empty.shape == (0, 0) and single.tolist() == [[1]]
    # sets may differ in width; the modes of one set may not
    wide = [DetectorMode(PhasePoint(2.0, x=x), n) for x, n in ((0.0, 0), (0.5, 1))]
    narrow = [DetectorMode(PhasePoint(0.5, p=p), n) for p, n in ((0.3, 2), (-1.0, 0), (2.0, 1))]
    grams = gram_matrices([wide, narrow, wide])
    assert [_hexes(gram) for gram in grams] == [
        _hexes(reference.gram_by_pairs(modes)) for modes in (wide, narrow, wide)]
    with pytest.raises(ValueError, match="widths differ"):
        gram_matrices([wide, narrow[:1] + wide])


@pytest.mark.parametrize("count", [250, 500, 750, 1000, 1250, 1500, 1750, 2000])
def test_registration_curves_equal_scalar_reference(count):
    # the bench's detector grid sizes at the CLI's grid points; the CLI's labels equal these
    # points' labels bit for bit (tests/test_cli.py)
    for sigma in (0.5, 1.0, 2.0):
        for stop in (3.0, 4.0, 5.0):
            grid = np.linspace(0.0, stop, count).tolist()
            points = [PhasePoint(sigma, x=g / sigma) for g in grid]
            labels = [b.label for b in points]
            p1, p2 = (p.tolist() for p in registration_probabilities(labels))
            want = [tuple(v.hex() for v in reference.registration_by_points(b)) for b in points]
            assert [(a.hex(), b.hex()) for a, b in zip(p1, p2)] == want


def test_overlap_overflow_raises_like_the_scalar():
    # |gamma|^2 overflows between labels -1.3e154 and 1.3e154, though each label squares finitely
    left = DetectorMode(PhasePoint(1.0, x=-1.3e154), 0)
    right = DetectorMode(PhasePoint(1.0, x=1.3e154), 1)
    # gamma ** 30 overflows where |gamma|^2 = 1e22 does not
    low = DetectorMode(PhasePoint(1.0), 0)
    high = DetectorMode(PhasePoint(1.0, x=1e11), MAX_LEVEL)
    origin = DetectorMode(PhasePoint(1.0), 0)
    for a, b in ((left, right), (right, left), (low, high), (high, low)):
        with pytest.raises(OverflowError):
            reference.mode_overlap(a, b)
        with pytest.raises(OverflowError):
            _block([origin, a], [b, origin])
        with pytest.raises(OverflowError):
            gram_matrices([[origin, a, b]])


def test_far_apart_overlap_is_an_exact_zero():
    # exp(-|gamma|^2/2) underflows to 0 while L_30(10^12) overflows: the entry is 0, not NaN
    near = DetectorMode(PhasePoint(1.0), MAX_LEVEL)
    far = DetectorMode(PhasePoint(1.0, x=1e6), MAX_LEVEL)
    assert mode_overlap(near, far) == 0 and mode_overlap(far, near) == 0
    assert np.isfinite(np.linalg.eigvalsh(gram_matrices([[near, far]])[0])).all()


@pytest.mark.parametrize("far", [1e160, -1e160, 1e300, -1e300])
@pytest.mark.parametrize("axis", ["x", "p"])
def test_far_on_axis_overlap_with_itself_is_exactly_one(far, axis):
    # the label products of conj(a)*b overflow here, the cross product of the phase does not
    point = PhasePoint(1.0, **{axis: far})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ground = mode_overlap(DetectorMode(point, 0), DetectorMode(point, 0))
        gram = gram_matrices([[DetectorMode(point, 0), DetectorMode(point, 1)]])[0]
    assert ground == 1
    assert (gram == np.eye(2)).all()


@pytest.mark.parametrize("x,p", [(1e160, 2e160), (-1e160, 2e160), (1e300, -1e300),
                                 (-3e200, -1e155)])
def test_far_off_axis_overlap_with_itself_is_exactly_one(x, p):
    # both label products of the phase's cross product overflow, to inf - inf
    point = PhasePoint(1.0, x=x, p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ground = mode_overlap(DetectorMode(point, 0), DetectorMode(point, 0))
        gram = gram_matrices([[DetectorMode(point, 0), DetectorMode(point, 1)]])[0]
    assert ground == 1
    assert (gram == np.eye(2)).all()


@pytest.mark.parametrize("a,b", [((1e165, 1e165), (1e165 + 1e151, 1e165)),
                                 ((1e165, 1e165), (1e165, 1e165 + 1e151)),
                                 ((-3e160, 2e160), (-3e160 - 1e152, 2e160)),
                                 ((5e168, -4e168), (5e168, -4e168 + 2e153))])
def test_far_off_axis_overlap_of_distinct_labels_is_exactly_zero(a, b):
    # the amplitude underflows, and both forms of the phase's cross product overflow; a gap
    # past about 1.3e154 would overflow |gamma|^2, which raises instead
    a, b = (PhasePoint(1.0, x=x, p=p) for x, p in (a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ground = mode_overlap(DetectorMode(a, 0), DetectorMode(b, 0))
        gram = gram_matrices([[DetectorMode(a, 0), DetectorMode(b, 0), DetectorMode(b, 2)]])[0]
    assert ground == 0
    assert (gram == np.eye(3)).all()


_far_coordinate = st.one_of(_coordinate, st.floats(-1e3, 1e3), st.floats(-1e300, 1e300))
# both coordinates past 1e154, where the phase's label products overflow
_beyond = st.one_of(st.floats(-1e300, -1e154), st.floats(1e154, 1e300))
_on_axis = st.one_of(st.tuples(st.just(0.0), st.floats(-1e300, 1e300)),
                     st.tuples(st.floats(-1e300, 1e300), st.just(0.0)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(sigma=st.floats(0.2, 3.0), data=st.data())
def test_overlap_is_never_nan_and_keeps_the_scalar_bits(sigma, data):
    # coordinates reach 1e300: off axis the phase's label products may overflow, on an axis
    # only the reference's conj(a)*b does (to NaN, silenced here).
    # gamma ** (n - m) or |gamma|^2 may overflow, and then both forms raise
    coords = st.one_of(st.tuples(_far_coordinate, _far_coordinate), _on_axis,
                       st.tuples(_beyond, _beyond))
    mode = st.builds(lambda xp, n: DetectorMode(PhasePoint(sigma, x=xp[0], p=xp[1]), n),
                     coords, st.integers(0, MAX_LEVEL))
    a = data.draw(mode)
    # a second mode at the same point reaches the phase's largest label products
    b = data.draw(st.one_of(mode, st.builds(lambda n: DetectorMode(a.point, n),
                                            st.integers(0, MAX_LEVEL))))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference.mode_overlap(a, b)
    except OverflowError:
        with pytest.raises(OverflowError):
            mode_overlap(a, b)
        return
    got = mode_overlap(a, b)
    assert not cmath.isnan(got)
    if cmath.isfinite(want):
        assert _hexes([[got]]) == _hexes([[want]])


def test_overlap_width_mismatch_anywhere_on_either_side():
    good = [DetectorMode(PhasePoint(1.0, x=x), n) for x, n in ((0.0, 0), (0.5, 1), (1.0, 2))]
    odd = DetectorMode(PhasePoint(2.0, x=0.5), 0)
    for i in range(len(good) + 1):
        mixed = good[:i] + [odd] + good[i:]
        for a, b in ((mixed, good), (good, mixed), (mixed, []), ([], mixed)):
            with pytest.raises(ValueError, match="widths differ"):
                _block(a, b)
        with pytest.raises(ValueError, match="widths differ"):
            gram_matrices([mixed])
