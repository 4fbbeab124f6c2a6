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

from . import fock
from .field import _integer

__all__ = [
    "DetectorMode",
    "MAX_LEVEL",
    "PhasePoint",
    "gram_matrices",
    "joint_correlation_exact",
    "joint_correlation_exact_surface",
    "joint_correlation_surface",
    "mode_overlap",
    "registration_probabilities",
]

MAX_LEVEL = 30


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
        _integer(self.level, "level must be an integer")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.level > MAX_LEVEL:
            raise ValueError(f"level {self.level} exceeds the stability bound {MAX_LEVEL}")


def _check_widths(points) -> None:
    """Raise `ValueError` ("widths differ") unless every point has the width of the first."""
    for point in points[1:]:
        if point.sigma != points[0].sigma:
            raise ValueError(f"widths differ: {points[0].sigma} vs {point.sigma}")


_LOG_FACTORIAL = np.array([math.lgamma(n + 1) for n in range(MAX_LEVEL + 1)])


def _cmul(ar, ai, br, bi):
    """``(ar + i*ai) * (br + i*bi)`` from its real parts, rounded like a CPython or numpy scalar.

    numpy's complex array multiply may fuse multiply-adds and round apart from both.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _laguerre(n, alpha, x) -> np.ndarray:
    """Generalized Laguerre ``L_n^(alpha)(x)`` over 1-D arrays of integer ``n, alpha >= 0``.

    The integer-degree loop of ``scipy.special.eval_genlaguerre`` as masked
    updates, so every entry has its bits: degree 0 gives 1, degree 1 gives
    ``-x + alpha + 1``, and a higher degree runs ``n - 1`` steps of the
    ``d``/``p`` recurrence times ``binom(n + alpha, n)``.  That binomial is
    the product loop over the smaller of ``n`` and ``alpha``, ``num`` and
    ``den`` kept apart, which up to `MAX_LEVEL` never reaches the loop's
    rescaling bound of 1e50.
    """
    alpha = alpha.astype(float)
    d = -x / (alpha + 1)
    p = d + 1
    for kk in range(int(n.max(initial=0)) - 1):
        k = kk + 1.0
        step = n - 1 > kk
        d = np.where(step, -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d, d)
        p = np.where(step, d + p, p)
    top = n + alpha
    factors = np.where(n > top / 2, top - n, n)
    num, den = np.ones_like(x), np.ones_like(x)
    for i in range(1, int(factors.max(initial=0)) + 1):
        more = factors >= i
        num = np.where(more, num * (i + top - factors), num)
        den = np.where(more, den * i, den)
    return np.where(n == 0, 1.0, np.where(n == 1, -x + alpha + 1, num / den * p))


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
    laguerre[live] = _laguerre(lo[live], k[live], x[live])
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


def gram_matrices(mode_sets) -> list[np.ndarray]:
    """The Gram matrix of each set of modes in ``mode_sets``, in order; ``[]`` for no set.

    The one entry from modes into the overlap kernel.  Entry ``(i, j)`` of a
    set's Gram is ``<a, n_a | b, n_b>`` for its modes ``i`` and ``j``, so a
    block between two lists of modes is a block of the Gram of their
    concatenation.  An entry reduces to ``exp(-|a-b|^2/2 + (conj(a)*b -
    a*conj(b))/2)`` on the labels at levels (0, 0) and to ``delta_{n_a, n_b}``
    at equal points, and it is the anticommutator of the mode-a
    annihilator with the mode-b creator.

    The modes of one set must share one width, else `ValueError`; sets may
    differ in width.  The upper triangles of every set come from one call of
    the kernel, one entry per pair, and each lower triangle is its exact
    conjugate.  The kernel writes each complex product from its real parts,
    runs `np.exp` on arrays and keeps ``abs(gamma) ** 2``, `math.exp` and
    ``gamma ** (n - m)`` per entry on Python numbers, so every entry has the
    bits of the one-pair formula.
    """
    ladders = []
    for modes in mode_sets:
        modes = list(modes)
        _check_widths([mode.point for mode in modes])
        ladders.append((np.array([mode.point.label for mode in modes], dtype=complex),
                        np.array([mode.level for mode in modes], dtype=np.int64)))
    return _grams(ladders)


def mode_overlap(a: DetectorMode, b: DetectorMode) -> complex:
    """Gram entry ``<a, n_a | b, n_b>`` between two detector modes: entry (0, 1) of their Gram."""
    return complex(gram_matrices([[a, b]])[0][0, 1])


def _grams(ladders) -> list[np.ndarray]:
    """Gram matrices of the sets ``(labels, levels)`` in ``ladders``, from one kernel call."""
    if not ladders:
        return []
    upper_of = {n: np.triu_indices(n, 1) for n in {len(levels) for _, levels in ladders}}
    triangles = [upper_of[len(levels)] for _, levels in ladders]
    # labels and levels of the upper triangles' rows, then of their columns, over every set
    sides = [np.concatenate([ladder[part][triangle[side]]
                             for ladder, triangle in zip(ladders, triangles)])
             for side in (0, 1) for part in (0, 1)]
    ends = np.cumsum([len(rows) for rows, _ in triangles])
    grams = []
    for (_, levels), (rows, cols), upper in zip(ladders, triangles,
                                                np.split(_overlap_entries(*sides), ends[:-1])):
        gram = np.eye(len(levels), dtype=complex)
        gram[rows, cols] = upper
        gram[cols, rows] = np.conj(upper)
        grams.append(gram)
    return grams


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

    Every overlap comes from the kernel behind `gram_matrices`, at level 0:
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


def joint_correlation_exact_surface(labels_a, labels_b) -> np.ndarray:
    """Brute-force twin of `joint_correlation_surface` on explicit Fock spaces.

    ``labels_a`` and ``labels_b`` are arrays of complex detector labels, as
    the surface takes, and the result has shape ``(len(labels_a),
    len(labels_b))``.  The state modes sit at the origin label ``0j``, the
    `PhasePoint.label` of the origin at every width.  For each pair it
    orthonormalizes the span of the two state modes and the two detector
    modes, writes every annihilator as a quasi-operator over that span, and
    evaluates `fock.number_correlations`, the four-point expectation minus the
    product of singles, exactly.
    All modes outside the span contract to zero, so the restriction is lossless.

    One batched eigendecomposition of the pairs' Gram matrices gives the
    spans; directions above a rank tolerance are kept, so nearly coincident
    modes (a detector at the origin, or two coincident detectors) reduce the
    span instead of breaking the construction.  The pairs of each rank then
    share one Fock space, each operator a stack of one coefficient row per
    pair that `fock` applies without a matrix, and each pair's state is
    normalized by its own norm, so every value has the bits of its pair alone.
    """
    labels_a = np.asarray(labels_a, dtype=complex)
    labels_b = np.asarray(labels_b, dtype=complex)
    out = np.zeros((len(labels_a), len(labels_b)))
    if out.size == 0:
        return out
    labels = np.zeros(out.shape + (4,), dtype=complex)  # the state modes, levels 0 and 1, at 0j
    labels[..., 2] = labels_a[:, None]
    labels[..., 3] = labels_b
    levels = np.array([0, 1, 0, 0])
    grams = _grams([(row, levels) for row in labels.reshape(-1, 4)])
    evals, evecs = np.linalg.eigh(np.array(grams))
    keep = evals > 1e-12
    rank = keep.sum(axis=1)
    flat = out.reshape(-1)
    for r in sorted(set(rank.tolist())):
        pairs = np.flatnonzero(rank == r)
        directions = np.swapaxes(evecs[pairs], 1, 2)[keep[pairs]].reshape(len(pairs), r, 4)
        weights = np.sqrt(evals[pairs][keep[pairs]]).reshape(len(pairs), 1, r)
        # per pair, rows: modes; columns: orthonormal span directions.  The conjugate makes
        # sum_j conj(v_i[j]) v_l[j] reproduce gram[i, l] rather than its transpose.
        flat[pairs] = _span_correlations(np.conj(np.swapaxes(directions, 1, 2) * weights))
    return out


def _span_correlations(coeffs) -> list[float]:
    """Correlation of each pair from its span coefficients, shape ``(pairs, 4 modes, rank)``."""
    pairs, _, rank = coeffs.shape
    g1, g2, ann_a, ann_b = (fock.QuasiOperator(np.conj(coeffs[:, row]), np.zeros((pairs, 0)))
                            for row in range(4))
    state = g1.adjoint.act(g2.adjoint.act(np.tile(fock.build_space(rank, 0).vacuum(), (pairs, 1))))
    state = np.array([s / np.linalg.norm(s) for s in state])
    return [float(value.real) for value in fock.number_correlations(ann_b, ann_a, state)]


def joint_correlation_exact(a: PhasePoint, b: PhasePoint) -> float:
    """The 1x1 `joint_correlation_exact_surface` on the labels of two points of one width."""
    _check_widths([a, b])
    return float(joint_correlation_exact_surface([a.label], [b.label])[0, 0])
