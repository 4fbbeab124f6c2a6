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
    "registration_prob_one",
    "registration_prob_two",
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


def _check_widths(a: PhasePoint, b: PhasePoint) -> None:
    if a.sigma != b.sigma:
        raise WidthMismatch(f"widths differ: {a.sigma} vs {b.sigma}")


def _displaced_number_overlap(n: int, m: int, gamma: complex) -> complex:
    """``<n| D(gamma) |m>`` for the oscillator displacement operator."""
    if n < m:
        return complex(np.conj(_displaced_number_overlap(m, n, -gamma)))
    x = abs(gamma) ** 2
    amp = math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) - 0.5 * x)
    return complex(amp * gamma ** (n - m) * eval_genlaguerre(m, n - m, x))


def mode_overlap(a: DetectorMode, b: DetectorMode) -> complex:
    """Gram entry ``<a, n_a | b, n_b>`` between two detector modes.

    Reduces to ``exp(-|a-b|^2/2 + (conj(a)*b - a*conj(b))/2)`` on the labels
    at levels (0, 0) and to ``delta_{n_a, n_b}`` at equal points.  This is
    also the anticommutator of the mode-a annihilator with the mode-b creator.
    """
    _check_widths(a.point, b.point)
    al, bl = a.point.label, b.point.label
    phase = np.exp(0.5 * (np.conj(al) * bl - al * np.conj(bl)))
    # the label pairs with the oscillator ladder as D(-i*label): its real part
    # generates the momentum-space phase, its imaginary part the translation
    return complex(phase * _displaced_number_overlap(a.level, b.level, -1j * (bl - al)))


def gram_matrix(modes) -> np.ndarray:
    """Hermitian PSD matrix of pairwise mode overlaps, unit diagonal."""
    modes = list(modes)
    n = len(modes)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        gram[i, i] = 1.0
        for j in range(i + 1, n):
            gram[i, j] = mode_overlap(modes[i], modes[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram


def registration_prob_one(b: PhasePoint) -> float:
    """Registration probability of the origin one-particle state at ``b``.

    ``exp(-|b|^2)``: the squared ground-mode overlap with the state mode.
    """
    return float(np.exp(-abs(b.label) ** 2))


def registration_prob_two(b: PhasePoint) -> float:
    """Registration probability of the origin two-particle state at ``b``.

    ``(1 + |b|^2) * exp(-|b|^2)``: the detector mode has weight on both
    occupied levels, so the two-particle state looks more extensive.
    """
    r = abs(b.label) ** 2
    return float((1.0 + r) * np.exp(-r))


def _state_modes(sigma: float) -> tuple[DetectorMode, DetectorMode]:
    origin = PhasePoint(sigma=sigma)
    return DetectorMode(origin, 0), DetectorMode(origin, 1)


def joint_correlation_surface(points_a, points_b) -> np.ndarray:
    """Connected joint-registration correlation of detectors at every pair of points.

    The result has shape ``(len(points_a), len(points_b))``.  The probed state
    has one particle in each of the origin levels 0 and 1.  Wick expansion
    over the nonorthogonal mode algebra leaves the product of the two cross
    contractions: the occupied-span part of <a|b> times its complement, which
    vanishes identically when either detector sits at the origin.  It returns
    the real part and drops ``Im C = <[n_b, n_a]>/(2i)``, nonzero off the real
    labels, where overlapping detector modes do not commute.

    All points must share one width, else `WidthMismatch`.  The overlaps of
    each detector with the two state modes are computed once per detector, so
    a pair costs one overlap, ``<b|a>``, instead of eight, with the sums and
    products of the one-pair formula in the same order.
    """
    points_a, points_b = list(points_a), list(points_b)
    points = points_a + points_b
    for point in points[1:]:
        _check_widths(points[0], point)
    surface = np.empty((len(points_a), len(points_b)))
    if not points:
        return surface
    states = _state_modes(points[0].sigma)
    modes_a = [DetectorMode(a, 0) for a in points_a]
    modes_b = [DetectorMode(b, 0) for b in points_b]
    a_g = [[mode_overlap(mode_a, g) for g in states] for mode_a in modes_a]
    g_a = [[mode_overlap(g, mode_a) for g in states] for mode_a in modes_a]
    g_b = [[mode_overlap(g, mode_b) for g in states] for mode_b in modes_b]
    b_g = [[mode_overlap(mode_b, g) for g in states] for mode_b in modes_b]
    for i, mode_a in enumerate(modes_a):
        for j, mode_b in enumerate(modes_b):
            # <f_a, P f_b> over the occupied span P = |g1><g1| + |g2><g2|
            occupied = sum(x * y for x, y in zip(a_g[i], g_b[j]))
            remainder = mode_overlap(mode_b, mode_a) - sum(x * y for x, y in zip(b_g[j], g_a[i]))
            surface[i, j] = (occupied * remainder).real
    return surface


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
    """
    _check_widths(a, b)
    g1, g2 = _state_modes(a.sigma)
    modes = [g1, g2, DetectorMode(a, 0), DetectorMode(b, 0)]
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
