"""Phase-space smeared detector modes and their registration statistics.

A detector of width ``sigma`` centered at phase-space point ``(x, p)`` is
modeled by an oscillator wavepacket with complex label
``alpha = sigma*x + i*p/(2*sigma)``; its excited levels are displaced
oscillator number states.  Modes at different points are not orthogonal, so
the operator algebra is governed by their Gram matrix: anticommutators of
annihilators at different points equal the wavefunction overlaps.

All representations share one vacuum (the transforms never mix creation with
annihilation), so a vacuum state registers nothing anywhere; the interesting
effects are registration probabilities of one- and two-particle states away
from their preparation point and the joint-registration correlation of two
detectors, both computed here from the overlap kernel in closed form and
cross-checked against an exact finite Fock-space computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre

from . import fock

__all__ = [
    "DetectorMode",
    "LevelTooHigh",
    "MAX_LEVEL",
    "PhasePoint",
    "WidthMismatch",
    "gram_matrix",
    "joint_correlation_exact",
    "joint_correlation_surface",
    "mode_overlap",
    "overlap_matrix",
    "registration_probabilities",
]

MAX_LEVEL = 30


class WidthMismatch(ValueError):
    """Overlaps of modes with different widths are not supported."""


class LevelTooHigh(ValueError):
    """Oscillator level beyond the recurrence stability bound."""


@dataclass(frozen=True)
class PhasePoint:
    """Detector center: width ``sigma > 0`` and phase-space coordinates."""

    sigma: float
    x: float = 0.0
    p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma", "x", "p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    @property
    def label(self) -> complex:
        return self.sigma * self.x + 0.5j * self.p / self.sigma


@dataclass(frozen=True)
class DetectorMode:
    """Oscillator level ``n`` at a phase-space point."""

    point: PhasePoint
    level: int = 0

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.level > MAX_LEVEL:
            raise LevelTooHigh(f"level {self.level} exceeds the stability bound {MAX_LEVEL}")


def _check_widths(points) -> None:
    """Raise `WidthMismatch` unless every point has the width of the first."""
    for point in points[1:]:
        if point.sigma != points[0].sigma:
            raise WidthMismatch(f"widths differ: {points[0].sigma} vs {point.sigma}")


_LOG_FACTORIAL = np.array([math.lgamma(n + 1) for n in range(MAX_LEVEL + 1)])


def _cmul(ar, ai, br, bi):
    """``(ar + i*ai) * (br + i*bi)`` from its real parts, rounded like a CPython or numpy scalar.

    numpy's complex array multiply may fuse multiply-adds and round apart from both.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _overlap_entries(label_a, level_a, label_b, level_b) -> np.ndarray:
    """``<a, n_a | b, n_b>`` over broadcast arrays of complex labels and integer levels.

    The ladder factor is ``<n|D(gamma)|m>`` with ``n >= m`` (a swapped pair is
    ``conj(<m|D(-gamma)|n>)``): ``sqrt(m!/n!) exp(-|gamma|^2/2) gamma^(n-m)
    L_m^(n-m)(|gamma|^2)``.  Every complex product goes through `_cmul`, the
    phase takes one cross product of the labels, and
    ``abs(gamma) ** 2``, ``math.exp`` and ``gamma ** (n - m)`` run per entry on
    Python floats and complexes, which keeps each entry's bits those of the
    one-pair scalar formula and raises its `OverflowError`.  Where ``math.exp``
    underflows to 0.0 the entry is an exact zero: the Laguerre factor, which
    may overflow there, is not evaluated.
    """
    ar, ai, br, bi = label_a.real, label_a.imag, label_b.real, label_b.imag
    # the label pairs with the oscillator ladder as D(-i*(b - a)), -1j being
    # complex(-0.0, -1.0): its real part generates the momentum-space phase,
    # its imaginary part the translation
    gr, gi = _cmul(-0.0, -1.0, br - ar, bi - ai)
    swap = level_a < level_b
    gr, gi, swap, lo, hi = np.broadcast_arrays(np.where(swap, -gr, gr), np.where(swap, -gi, gi),
                                               swap, np.minimum(level_a, level_b),
                                               np.maximum(level_a, level_b))
    shape, k = gr.shape, hi - lo
    gammas = list(map(complex, gr.ravel().tolist(), gi.ravel().tolist()))
    x = np.array([abs(g) ** 2 for g in gammas]).reshape(shape)
    exponent = 0.5 * (_LOG_FACTORIAL[lo] - _LOG_FACTORIAL[hi]) - 0.5 * x
    amp = np.array([math.exp(v) for v in exponent.ravel().tolist()]).reshape(shape)
    power = np.array([g ** n for g, n in zip(gammas, k.ravel().tolist())],
                     dtype=complex).reshape(shape)
    # amp is 0.0 only above x = 1400, where gamma ** (n - m) may be NaN and the Laguerre factor
    # may overflow.  Such an entry is a zero with the signs that the scalar formula gives
    # wherever it is finite: each factor enters by its sign alone, the Laguerre factor's
    # being (-1)^m past its largest root (below 200 up to MAX_LEVEL)
    live = amp != 0.0
    pr = np.where(live, power.real, np.copysign(1.0, power.real))
    pi = np.where(live, power.imag, np.copysign(1.0, power.imag))
    laguerre = np.where(lo % 2 == 1, -1.0, 1.0)
    laguerre[live] = eval_genlaguerre(lo[live], k[live], x[live])
    ur, ui = _cmul(*_cmul(amp, 0.0, pr, pi), laguerre, 0.0)
    ui = np.where(swap, -ui, ui)
    # exp((conj(a)*b - a*conj(b))/2) = exp(i*Im(conj(a)*b)), the phase of the ground overlap,
    # from one cross product; + 0.0 turns its -0.0 into the 0.0 of the scalar formula.  Off
    # axis beyond about 1e154 the products may give inf - inf: there, and only there, the equal
    # form ar*(bi - ai) - ai*(br - ar) multiplies by the label gaps instead.  Where that overflows
    # too and amp is 0.0, the phase only supplies signs, so it is 1 there
    with np.errstate(over="ignore", invalid="ignore"):
        cross = ar * bi - ai * br
        cross = np.where(np.isfinite(cross), cross, ar * (bi - ai) - ai * (br - ar))
    cross = np.where(live | np.isfinite(cross), cross, 0.0)
    arg = np.empty(shape, dtype=complex)
    arg.real, arg.imag = 0.0, cross + 0.0
    phase = np.exp(arg)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = _cmul(phase.real, phase.imag, ur, ui)
    return out


def _ladder(modes) -> tuple[np.ndarray, np.ndarray]:
    """Labels and levels of ``modes`` as arrays."""
    return (np.array([mode.point.label for mode in modes], dtype=complex),
            np.array([mode.level for mode in modes], dtype=np.int64))


def overlap_matrix(modes_a, modes_b) -> np.ndarray:
    """Gram block ``<a, n_a | b, n_b>`` of shape ``(len(modes_a), len(modes_b))``.

    The one implementation of the mode overlap.  It reduces to
    ``exp(-|a-b|^2/2 + (conj(a)*b - a*conj(b))/2)`` on the labels at levels
    (0, 0) and to ``delta_{n_a, n_b}`` at equal points; an entry is also the
    anticommutator of the mode-a annihilator with the mode-b creator.  Every
    mode on both sides must share one width, else `WidthMismatch`.
    """
    modes_a, modes_b = list(modes_a), list(modes_b)
    _check_widths([mode.point for mode in modes_a + modes_b])
    label_a, level_a = _ladder(modes_a)
    label_b, level_b = _ladder(modes_b)
    return _overlap_entries(label_a[:, None], level_a[:, None], label_b, level_b)


def mode_overlap(a: DetectorMode, b: DetectorMode) -> complex:
    """Gram entry ``<a, n_a | b, n_b>`` between two detector modes: the 1x1 `overlap_matrix`."""
    return complex(overlap_matrix([a], [b])[0, 0])


def gram_matrix(modes) -> np.ndarray:
    """Hermitian PSD matrix of pairwise mode overlaps, unit diagonal.

    The upper triangle comes from the `overlap_matrix` kernel, one entry per
    pair, and the lower triangle is its exact conjugate.  The kernel writes
    each complex product from its real parts, runs `np.exp` on arrays and
    keeps ``abs(gamma) ** 2``, `math.exp` and ``gamma ** (n - m)`` per entry
    on Python numbers, so every entry has the bits of the one-pair formula.
    """
    modes = list(modes)
    _check_widths([mode.point for mode in modes])
    labels, levels = _ladder(modes)
    rows, cols = np.triu_indices(len(modes), 1)
    upper = _overlap_entries(labels[rows], levels[rows], labels[cols], levels[cols])
    gram = np.eye(len(modes), dtype=complex)
    gram[rows, cols] = upper
    gram[cols, rows] = np.conj(upper)
    return gram


def registration_probabilities(labels) -> tuple[np.ndarray, np.ndarray]:
    """Registration probabilities of the origin one- and two-particle states at each label.

    ``labels`` is an array of complex labels ``b``, the `PhasePoint.label` of
    each detector; a label carries no width, since none enters the formulas.
    Returns ``(p1, p2)``: ``p1 = exp(-|b|^2)``, the squared ground-mode
    overlap with the state mode, and ``p2 = (1 + |b|^2) * exp(-|b|^2)``, which
    is larger because the detector mode has weight on both occupied levels.
    ``|b|^2`` is ``abs(b) ** 2`` per label on Python numbers (numpy's
    ``np.abs(b) ** 2`` rounds apart), and one that overflows raises
    `OverflowError`.
    """
    r = np.array([abs(b) ** 2 for b in np.asarray(labels, dtype=complex).tolist()], dtype=float)
    e = np.exp(-r)
    return e, (1.0 + r) * e


def joint_correlation_surface(labels_a, labels_b) -> np.ndarray:
    """Connected joint-registration correlation of detectors at every pair of labels.

    ``labels_a`` and ``labels_b`` are arrays of complex detector labels, the
    `PhasePoint.label` of each detector, and the result has shape
    ``(len(labels_a), len(labels_b))``.  No width enters: the state modes sit
    at the origin label, so the surface takes none.  The probed state
    has one particle in each of the origin levels 0 and 1.  Wick expansion
    over the nonorthogonal mode algebra leaves the product of the two cross
    contractions: the occupied-span part of <a|b> times its complement, which
    vanishes identically when either detector sits at the origin.  It returns
    the real part and drops ``Im C = <[n_b, n_a]>/(2i)``, nonzero off the real
    labels, where overlapping detector modes do not commute.

    Every overlap comes from the kernel behind `overlap_matrix`, at level 0:
    one block ``<d|g>`` between the detectors and the state modes, computed
    once per detector, whose exact conjugate transpose is ``<g|d>``, and one
    block of the pair overlaps ``<b|a>``.  An ``|gamma|^2``
    that overflows raises `OverflowError`.  The kernel and the surface arithmetic write
    each complex product from its real parts (numpy's complex array multiply
    may fuse multiply-adds), run `np.exp` on arrays, keep ``abs(gamma) ** 2``,
    `math.exp` and ``gamma ** (n - m)`` per entry on Python numbers, and sum
    from 0 in the order of the one-pair formula, so every entry has the bits
    of that formula on Python scalars.
    """
    labels_a = np.asarray(labels_a, dtype=complex)
    labels_b = np.asarray(labels_b, dtype=complex)
    detectors = np.concatenate([labels_a, labels_b])
    origin, levels = np.zeros(2, dtype=complex), np.arange(2)  # the state modes' labels, levels
    to_states = _overlap_entries(detectors[:, None], 0, origin, levels)  # <d|g>
    from_states = np.conj(to_states).T  # <g|d>
    pair = _overlap_entries(labels_b[:, None], 0, labels_a, 0).T  # <b|a>
    n = len(labels_a)
    a_g, b_g = to_states[:n], to_states[n:]
    g_a, g_b = from_states[:, :n], from_states[:, n:]

    def contract(left, right):
        """``sum(x * y for x, y in zip(left, right))`` from 0 over the two state modes."""
        total_r = total_i = 0.0
        for x, y in zip(left, right):
            xr, xi = _cmul(x.real, x.imag, y.real, y.imag)
            total_r, total_i = total_r + xr, total_i + xi
        return total_r, total_i

    # <f_a, P f_b> over the occupied span P = |g1><g1| + |g2><g2|, times <f_b, (1 - P) f_a>
    occupied_r, occupied_i = contract(a_g.T[:, :, None], g_b[:, None, :])
    spanned_r, spanned_i = contract(b_g.T[:, None, :], g_a[:, :, None])
    return occupied_r * (pair.real - spanned_r) - occupied_i * (pair.imag - spanned_i)


def _orthonormal_coefficients(modes) -> np.ndarray:
    """Coefficient vectors of ``modes`` on an orthonormal basis of their span.

    Eigen-decomposes the Gram matrix and keeps directions above a rank
    tolerance, so nearly coincident modes (e.g. a detector sitting on a state
    mode) reduce the span instead of breaking the construction.
    """
    gram = gram_matrix(modes)
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12
    # rows: modes; columns: orthonormal span directions.  The conjugate makes
    # sum_j conj(v_i[j]) v_l[j] reproduce gram[i, l] rather than its transpose.
    return np.conj(evecs[:, keep] * np.sqrt(evals[keep]))


def joint_correlation_exact(a: PhasePoint, b: PhasePoint) -> float:
    """Brute-force twin of a `joint_correlation_surface` entry on an explicit Fock space.

    Orthonormalizes the span of the two state modes and the two detector
    modes, represents every annihilator as a matrix there, and evaluates the
    four-point expectation minus the product of singles exactly.  All modes
    outside the span contract to zero, so the restriction is lossless.
    Points of different widths raise `WidthMismatch` from `gram_matrix`.
    """
    origin = PhasePoint(sigma=a.sigma)
    modes = [DetectorMode(origin, 0), DetectorMode(origin, 1),
             DetectorMode(a, 0), DetectorMode(b, 0)]
    coeffs = _orthonormal_coefficients(modes)
    space = fock.build_space(coeffs.shape[1], 0)

    def annihilator(row: int):
        return fock.QuasiOperator(np.conj(coeffs[row]), np.zeros(0)).matrix(space)

    create_g1 = annihilator(0).conj().T
    create_g2 = annihilator(1).conj().T
    state = create_g1 @ (create_g2 @ space.vacuum())
    state = state / np.linalg.norm(state)

    ann_a = annihilator(2)
    ann_b = annihilator(3)
    n_a = ann_a.conj().T @ ann_a
    n_b = ann_b.conj().T @ ann_b
    four = complex(state.conj() @ (n_b @ (n_a @ state)))
    singles = complex(state.conj() @ (n_b @ state)) * complex(state.conj() @ (n_a @ state))
    return float((four - singles).real)
