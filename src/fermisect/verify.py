"""End-to-end verification suite behind ``fermisect verify``.

Each check pits a closed-form production path against the independent oracle
that validates it (numerical quadrature for the Bogoliubov coefficients, the
exact Fock engine for vacuum expectations, Gram-based evaluation for detector
probabilities) or asserts a structural invariant at a fixed tolerance.

Three checks probe targets that the coefficient structure provably cannot
meet: the canonicity sum converges to 1 only for the zero mode, the
occupation saturates near 1 rather than 0.5 once the odd-index series is
included, and the left/right correlation matrix carries no diagonal ridge.
All three would hold if the coefficients consisted of their matched-momentum
delta terms alone; the quadrature oracle proves the odd-index series is
really there.  They are still run honestly and report measured numbers; see
the README section on known deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import povm
from .bogoliubov import canonicity_residual, coefficients, overlap_oracle, region_sign
from .detector import (
    DetectorMode,
    PhasePoint,
    gram_matrix,
    joint_correlation,
    joint_correlation_exact,
    mode_overlap,
    registration_prob_one,
    registration_prob_two,
)
from .field import Branch, FieldConfig, Region
from .fock import build_space, random_canonical_transform, vacuum_expectation
from .spectrum import correlation_matrix, cross_correlation_from_rows, occupation

__all__ = ["CriterionResult", "run", "CRITERIA"]


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
    ks = range(-17, 18)
    signs = {region: region_sign(ks, region) for region in (Region.LEFT, Region.RIGHT)}
    for mu_l in (0.1, 1.0, 10.0):
        cfg = FieldConfig.from_mu_l(mu_l, time=0.0)
        for m in range(-8, 9):
            left = coefficients(m, ks, cfg)
            for region, sign in signs.items():
                alpha, beta = left[0] * sign, left[1] * sign
                for k, a, b in zip(ks, alpha, beta):
                    a_or = overlap_oracle(m, k, region, (Branch.POSITIVE, Branch.POSITIVE), cfg)
                    b_or = overlap_oracle(m, k, region, (Branch.POSITIVE, Branch.NEGATIVE), cfg)
                    worst = max(worst, abs(a_or - a), abs(b_or - b))
    return CriterionResult(1, "quadrature-oracle agreement", worst <= tol,
                           f"max |closed form - oracle| = {worst:.3e} (tol {tol:.0e})")


def criterion_canonicity_convergence() -> CriterionResult:
    """Residual r_m(N) decreasing over N in {64,...,512} with r(512) <= r(64)/4."""
    cfg = FieldConfig(mass=1.0, half_length=1.0, time=0.0)
    grid = (64, 128, 256, 512)
    ok = True
    worst_m, worst_r = 0, 0.0
    for m in range(-4, 5):
        r = [canonicity_residual(m, n, cfg) for n in grid]
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
    cfg_small = FieldConfig.from_mu_l(0.1)
    k_min = max(1, math.ceil(50 * cfg_small.mass * cfg_small.half_length / (2.0 * math.pi)))
    occ_small = [occupation(k, cfg_small, n_trunc) for k in range(k_min, k_min + 16)]
    window_ok = all(abs(v - 0.5) <= 0.05 for v in occ_small)

    curves = {mu_l: [occupation(k, FieldConfig.from_mu_l(mu_l), n_trunc) for k in range(1, 5)]
              for mu_l in (0.1, 1.0, 10.0)}
    ordering_ok = all(
        curves[0.1][i] > curves[1.0][i] > curves[10.0][i] for i in range(4)
    )
    detail = (f"occupation at q_k >= 50*mu spans [{min(occ_small):.3f}, {max(occ_small):.3f}]"
              f" vs target 0.5 +- 0.05; mu*L ordering at k=1..4 {'holds' if ordering_ok else 'broken'}")
    return CriterionResult(3, "saturation window and mu*L ordering", window_ok and ordering_ok,
                           detail, known_deviation=True)


def criterion_near_diagonal() -> CriterionResult:
    """Median off-diagonal |D| <= 10% of median diagonal; diagonal real to 1e-8."""
    cfg = FieldConfig(mass=1.0, half_length=1.0, time=0.0)
    mat = correlation_matrix(16, cfg, n_max=1025)
    diag = np.abs(np.diag(mat))
    off = np.abs(mat[~np.eye(16, dtype=bool)])
    ratio = float(np.median(off) / np.median(diag))
    imag = float(np.max(np.abs(np.imag(np.diag(mat)))))
    ok = ratio <= 0.10 and imag <= 1e-8
    return CriterionResult(4, "near-diagonal left/right correlation", ok,
                           f"median off/diag = {ratio:.4f} (tol 0.10), max |Im diag| = {imag:.2e}",
                           known_deviation=True)


def criterion_wick_oracle() -> CriterionResult:
    """Contraction formula equals exact Fock four-point for 100 random transforms."""
    tol = 1e-10
    worst = 0.0
    for seed in range(100):
        n_modes = 2 + seed % 3
        ops = random_canonical_transform(n_modes, seed)
        c, f = ops[0], ops[1 % len(ops)]
        space = build_space(n_modes, n_modes)
        c_mat, f_mat = c.matrix(space), f.matrix(space)
        four = vacuum_expectation(space, [c_mat.conj().T, c_mat, f_mat.conj().T, f_mat])
        singles = (vacuum_expectation(space, [c_mat.conj().T, c_mat])
                   * vacuum_expectation(space, [f_mat.conj().T, f_mat]))
        wick = cross_correlation_from_rows(c.alpha, c.beta, f.alpha, f.beta)
        worst = max(worst, abs((four - singles) - wick))
    return CriterionResult(5, "Wick contraction vs exact Fock expectation", worst <= tol,
                           f"max deviation over 100 seeds = {worst:.3e} (tol {tol:.0e})")


def criterion_detector_closed_forms() -> CriterionResult:
    """Registration probabilities: closed form vs Gram, ordering, monotonicity."""
    tol = 1e-12
    radii = np.linspace(0.0, 4.0, 50)
    sigma = 1.0
    origin = PhasePoint(sigma)
    worst = 0.0
    p1s, p2s = [], []
    for r in radii:
        b = PhasePoint(sigma, x=r / sigma)  # label = r on the real axis
        p1 = registration_prob_one(b)
        p2 = registration_prob_two(b)
        g1 = abs(mode_overlap(DetectorMode(origin, 0), DetectorMode(b, 0))) ** 2
        g2 = sum(abs(mode_overlap(DetectorMode(origin, m), DetectorMode(b, 0))) ** 2 for m in (0, 1))
        worst = max(worst, abs(p1 - g1), abs(p2 - g2))
        p1s.append(p1)
        p2s.append(p2)
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
    rng = np.random.default_rng(seed)
    min_eig = np.inf
    max_diag_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        sigma = float(rng.uniform(0.3, 2.0))
        modes = [
            DetectorMode(PhasePoint(sigma, float(rng.normal()), float(rng.normal())),
                         int(rng.integers(0, 6)))
            for _ in range(n)
        ]
        gram = gram_matrix(modes)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
        max_diag_err = max(max_diag_err, float(np.max(np.abs(np.diag(gram) - 1.0))))
    ok = min_eig >= -1e-10 and max_diag_err == 0.0
    return CriterionResult(7, "Gram positivity", ok,
                           f"min eigenvalue = {min_eig:.3e} (tol -1e-10), unit diagonal exact")


def criterion_joint_correlation() -> CriterionResult:
    """Origin detector decorrelates exactly; surface matches the Fock twin."""
    tol = 1e-10
    origin = PhasePoint(1.0)
    worst_origin = max(
        abs(joint_correlation(origin, PhasePoint(1.0, x=x, p=p)))
        for x in np.linspace(-5, 5, 9)
        for p in np.linspace(-5, 5, 9)
        if abs(PhasePoint(1.0, x=x, p=p).label) <= 5.0
    )
    grid = np.linspace(0.0, 3.0, 5)
    worst_surface = max(
        abs(joint_correlation(PhasePoint(1.0, x=a), PhasePoint(1.0, x=b))
            - joint_correlation_exact(PhasePoint(1.0, x=a), PhasePoint(1.0, x=b)))
        for a in grid for b in grid
    )
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
    """Run the selected criteria (all by default) in order.

    ``seed`` redraws the randomized Gram-positivity sets; every other check
    is deterministic by construction.
    """
    selected = sorted(CRITERIA) if numbers is None else sorted(numbers)
    results = []
    for n in selected:
        if n == 7 and seed is not None:
            results.append(criterion_gram_positivity(seed))
        else:
            results.append(CRITERIA[n]())
    return results
