"""End-to-end verification suite behind ``fermisect verify``.

Each check pits a closed-form production path against the independent oracle
that validates it (numerical quadrature for the Bogoliubov coefficients, the
exact Fock engine for vacuum expectations, Gram-based evaluation for detector
probabilities) or asserts a structural invariant at a fixed tolerance.

Three checks probe targets that the coefficients do not meet in the current
reference basis: the canonicity sum converges to 1 only for the zero mode,
the occupation saturates near 1 rather than 0.5 once the odd-index series
is included, and the left/right correlation matrix carries no diagonal
ridge.  All three would hold if the coefficients consisted of their
matched-momentum delta terms alone; the quadrature oracle proves the
odd-index series is really there.  The measured cause of the first is that
the reference basis is not orthonormal: its negative-branch mode of ``k``
overlaps the positive-branch mode of ``-k`` by ``p_k/E_k``.  They are still
run honestly and report measured numbers; see the README section on known
deviations.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import povm
from .bogoliubov import canonicity_residual, iter_coefficients, overlap_oracle, region_sign
from .detector import (
    DetectorMode,
    PhasePoint,
    gram_matrices,
    joint_correlation_exact_surface,
    joint_correlation_surface,
    registration_probabilities,
)
from .field import Branch, FieldConfig, Region
from .fock import QuasiOperator, build_space, number_correlations, random_canonical_transform
from .spectrum import correlation_matrix, cross_correlation_from_rows, occupation_spectrum

__all__ = ["CriterionResult", "run", "CRITERIA"]

#: Basis states in one stack of Fock states in criterion 5; bounds its peak memory.
_STACK_STATES = 2048


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    known_deviation: bool = False

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = " (known deviation, see README)" if (not self.passed and self.known_deviation) else ""
        return f"[{status}] criterion {self.number}: {self.name}{suffix} -- {self.detail}"


def criterion_oracle_agreement() -> CriterionResult:
    """Closed-form alpha/beta match quadrature overlaps to 1e-6, on both halves."""
    tol = 1e-6
    worst = 0.0
    ms, ks = np.arange(-8, 9), np.arange(-17, 18)
    signs = {region: region_sign(ks, region) for region in (Region.LEFT, Region.RIGHT)}
    for mu_l in (0.1, 1.0, 10.0):
        cfg = FieldConfig.from_mu_l(mu_l, time=0.0)
        left_alpha, left_beta = map(np.array, zip(*iter_coefficients(ms, ks, cfg)))
        for region, sign in signs.items():
            a_or, b_or = overlap_oracle(ms, ks, region, [(Branch.POSITIVE, Branch.POSITIVE),
                                                         (Branch.POSITIVE, Branch.NEGATIVE)], cfg)
            worst = max(worst, np.max(np.abs(a_or - left_alpha * sign)),
                        np.max(np.abs(b_or - left_beta * sign)))
    return CriterionResult(1, "quadrature-oracle agreement", worst <= tol,
                           f"max |closed form - oracle| = {worst:.3e} (tol {tol:.0e})")


def criterion_canonicity_convergence() -> CriterionResult:
    """Residual r_m(N) decreasing over N in {64,...,512} with r(512) <= r(64)/4."""
    cfg = FieldConfig(mass=1.0, half_length=1.0, time=0.0)
    grid = (64, 128, 256, 512)
    ms = np.arange(-4, 5)
    # one row of residuals r_m(N) over the grid per m
    residuals = np.array([canonicity_residual(ms, n, cfg) for n in grid]).T.tolist()
    ok = True
    worst_m, worst_r = 0, 0.0
    for m, r in zip(ms.tolist(), residuals):
        decreasing = all(r[i + 1] < r[i] for i in range(len(r) - 1))
        tail = r[-1] <= r[0] / 4.0
        if not (decreasing and tail):
            ok = False
        if r[-1] > worst_r:
            worst_m, worst_r = m, r[-1]
    return CriterionResult(2, "canonicity convergence", ok,
                           f"largest r(512) = {worst_r:.4f} at m = {worst_m}"
                           " (vanishes only for m = 0)",
                           known_deviation=True)


def criterion_saturation() -> CriterionResult:
    """Occupation within 0.5 +- 0.05 at q_k >= 50*mu for mu*L = 0.1; ordering in mu*L."""
    n_trunc = 4097
    k_min = max(1, math.ceil(50 * 0.1 / (2.0 * math.pi)))  # q_k >= 50*mu at mu*L = 0.1
    occ_small = occupation_spectrum(k_min + 15, 0.1, n_trunc)[k_min - 1:]
    window_ok = all(abs(v - 0.5) <= 0.05 for v in occ_small)

    curves = {mu_l: occupation_spectrum(4, mu_l, n_trunc) for mu_l in (0.1, 1.0, 10.0)}
    ordering_ok = all(
        curves[0.1][i] > curves[1.0][i] > curves[10.0][i] for i in range(4)
    )
    detail = (f"occupation at q_k >= 50*mu spans [{min(occ_small):.3f}, {max(occ_small):.3f}]"
              f" vs target 0.5 +- 0.05; mu*L ordering at k=1..4 {'holds' if ordering_ok else 'broken'}")
    return CriterionResult(3, "saturation window and mu*L ordering", window_ok and ordering_ok,
                           detail, known_deviation=True)


def criterion_near_diagonal() -> CriterionResult:
    """Median off-diagonal |D| <= 10% of median diagonal."""
    mat = correlation_matrix(16, 1.0, n_max=1025)
    diag = np.abs(np.diag(mat))
    off = np.abs(mat[~np.eye(16, dtype=bool)])
    ratio = statistics.median(off.tolist()) / statistics.median(diag.tolist())
    return CriterionResult(4, "near-diagonal left/right correlation", ratio <= 0.10,
                           f"median off/diag = {ratio:.4f} (tol 0.10)", known_deviation=True)


def criterion_wick_oracle() -> CriterionResult:
    """Contraction formula equals exact Fock four-point for 100 random transforms.

    The transforms of each mode count go to the Fock engine as stacks of at
    most `_STACK_STATES` basis states, one stacked operator per stack; each
    state's values have the bits of its transform alone.
    """
    tol = 1e-10
    draws = {}  # n_modes -> [(c, f)]
    for seed in range(100):
        n_modes = 2 + seed % 3
        ops = random_canonical_transform(n_modes, seed)
        draws.setdefault(n_modes, []).append((ops[0], ops[1 % len(ops)]))
    deviations = []
    for n_modes, pairs in draws.items():
        size = _STACK_STATES // build_space(n_modes, n_modes).dimension
        for start in range(0, len(pairs), size):
            deviations += _wick_deviations(*zip(*pairs[start:start + size]))
    worst = max(0.0, *deviations)
    return CriterionResult(5, "Wick contraction vs exact Fock expectation", worst <= tol,
                           f"max deviation over 100 seeds = {worst:.3e} (tol {tol:.0e})")


def _wick_deviations(cs, fs) -> list[float]:
    """``|number_correlations - wick|`` of each pair ``(c, f)``, the pairs stacked in one call."""
    c_op, f_op = (QuasiOperator(np.array([op.alpha for op in ops]),
                                np.array([op.beta for op in ops])) for ops in (cs, fs))
    return [abs(connected - cross_correlation_from_rows(c.alpha, c.beta, f.alpha, f.beta))
            for c, f, connected in zip(cs, fs, number_correlations(c_op, f_op))]


def criterion_detector_closed_forms() -> CriterionResult:
    """Registration probabilities: closed form vs Gram, ordering, monotonicity."""
    tol = 1e-12
    radii = np.linspace(0.0, 4.0, 50)
    sigma = 1.0
    origin = PhasePoint(sigma)
    points = [PhasePoint(sigma, x=r / sigma) for r in radii]  # label = r on the real axis
    labels = [b.label for b in points]
    p1s, p2s = (p.tolist() for p in registration_probabilities(labels))
    states = [DetectorMode(origin, m) for m in (0, 1)]
    grams = gram_matrices([states + [DetectorMode(b, 0)] for b in points])
    worst = 0.0
    for p1, p2, gram in zip(p1s, p2s, grams):
        ground, excited = gram[:2, 2].tolist()  # <g1|b>, <g2|b>
        g1 = abs(ground) ** 2
        g2 = g1 + abs(excited) ** 2
        worst = max(worst, abs(p1 - g1), abs(p2 - g2))
    ordered = all(p2 >= p1 for p1, p2 in zip(p1s, p2s))
    decreasing = all(p1s[i + 1] < p1s[i] for i in range(len(p1s) - 1)) and all(
        p2s[i + 1] < p2s[i] for i in range(len(p2s) - 1)
    )
    ok = worst <= tol and ordered and decreasing
    return CriterionResult(6, "detector registration closed forms", ok,
                           f"max |closed - Gram| = {worst:.3e} (tol {tol:.0e});"
                           f" two-particle >= one-particle: {ordered}; strictly decreasing: {decreasing}")


def criterion_gram_positivity(seed: int = 20240811) -> CriterionResult:
    """Random detector-mode Gram matrices are PSD with unit diagonal."""
    rng = default_rng(seed)
    mode_sets = []
    for _ in range(50):
        n = int(rng.integers(2, 21))
        sigma = float(rng.uniform(0.3, 2.0))
        mode_sets.append([
            DetectorMode(PhasePoint(sigma, float(rng.normal()), float(rng.normal())),
                         int(rng.integers(0, 6)))
            for _ in range(n)
        ])
    min_eig = np.inf
    max_diag_err = 0.0
    for gram in gram_matrices(mode_sets):
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
        max_diag_err = max(max_diag_err, float(np.max(np.abs(np.diag(gram) - 1.0))))
    ok = min_eig >= -1e-10 and max_diag_err == 0.0
    return CriterionResult(7, "Gram positivity", ok,
                           f"min eigenvalue = {min_eig:.3e} (tol -1e-10), unit diagonal exact")


def criterion_joint_correlation() -> CriterionResult:
    """Origin detector decorrelates exactly; surface matches the Fock twin."""
    tol = 1e-10
    origin = PhasePoint(1.0)
    axis = np.linspace(-5, 5, 9)
    sweep = [PhasePoint(1.0, x=x, p=p) for x in axis for p in axis]
    sweep = [point.label for point in sweep if abs(point.label) <= 5.0]
    worst_origin = float(np.max(np.abs(joint_correlation_surface([origin.label], sweep))))
    labels = [PhasePoint(1.0, x=a).label for a in np.linspace(0.0, 3.0, 5)]
    exact = joint_correlation_exact_surface(labels, labels)
    worst_surface = float(np.max(np.abs(joint_correlation_surface(labels, labels) - exact)))
    ok = worst_origin <= tol and worst_surface <= tol
    return CriterionResult(8, "joint-registration correlation", ok,
                           f"max |C(origin, b)| = {worst_origin:.3e};"
                           f" max |wick - fock| on [0,3]^2 = {worst_surface:.3e} (tol {tol:.0e})")


def criterion_povm_tables() -> CriterionResult:
    """Entangled conditionals are the identity table; product rule exact."""
    cond = povm.conditionals(povm.entangled_table(0.5))
    identity_ok = cond == ((1.0, 0.0), (0.0, 1.0))
    worst = 0.0
    for pa in (0.0, 0.25, 0.3, 0.5, 0.9, 1.0):
        for pb in (0.0, 0.1, 0.6, 0.75, 1.0):
            t = povm.product_table(pa, pb)
            ma, mb = t.marginal_a(), t.marginal_b()
            for i, row in enumerate((("p11", "p12"), ("p21", "p22"))):
                for j, key in enumerate(row):
                    worst = max(worst, abs(getattr(t, key) - ma[i] * mb[j]))
    ok = identity_ok and worst <= 1e-15
    return CriterionResult(9, "two-outcome POVM tables", ok,
                           f"entangled conditionals identity: {identity_ok};"
                           f" product-rule deviation = {worst:.1e} (tol 1e-15)")


CRITERIA = {
    1: criterion_oracle_agreement,
    2: criterion_canonicity_convergence,
    3: criterion_saturation,
    4: criterion_near_diagonal,
    5: criterion_wick_oracle,
    6: criterion_detector_closed_forms,
    7: criterion_gram_positivity,
    8: criterion_joint_correlation,
    9: criterion_povm_tables,
}


def run(numbers=None, seed: int | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default) in order, each once.

    ``seed`` redraws the randomized Gram-positivity sets; every other check
    is deterministic by construction.
    """
    selected = sorted(CRITERIA) if numbers is None else sorted(set(numbers))
    results = []
    for n in selected:
        if n == 7 and seed is not None:
            results.append(criterion_gram_positivity(seed))
        else:
            results.append(CRITERIA[n]())
    return results
