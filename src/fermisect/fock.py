"""Exact finite-dimensional fermionic Fock-space engine.

Ground truth for every vacuum expectation and Wick-contraction identity in
this package.  Creation/annihilation operators are explicit sparse matrices
built by the Jordan-Wigner construction over a fixed global mode ordering:
particle modes first, then antiparticle modes, each with a full sign string,
so all operators anticommute across species exactly.

Limited to 12 modes total (dimension 4096); the engine exists for
correctness, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import expm

__all__ = [
    "DimensionTooLarge",
    "FockSpace",
    "MAX_MODES",
    "QuasiOperator",
    "build_space",
    "random_canonical_transform",
    "vacuum_expectation",
]

MAX_MODES = 12


class DimensionTooLarge(ValueError):
    """More than `MAX_MODES` modes requested."""


@lru_cache(maxsize=8)
def _jordan_wigner(nmodes: int) -> tuple:
    """Creation operators for an `nmodes` chain, CSR sparse."""
    id2 = sparse.identity(2, format="csr")
    z = sparse.csr_matrix(np.diag([1.0, -1.0]))
    up = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    ops = []
    for i in range(nmodes):
        mat = sparse.identity(1, format="csr")
        for j in range(nmodes):
            if j < i:
                factor = id2
            elif j == i:
                factor = up
            else:
                factor = z
            mat = sparse.kron(mat, factor, format="csr")
        mat.eliminate_zeros()
        ops.append(mat)
    return tuple(ops)


@dataclass(frozen=True)
class FockSpace:
    """CAR algebra on ``n_particle + n_anti`` modes as explicit matrices."""

    n_particle: int
    n_anti: int
    create_particle: tuple
    create_anti: tuple

    @property
    def n_modes(self) -> int:
        return self.n_particle + self.n_anti

    @property
    def dimension(self) -> int:
        return 2 ** self.n_modes

    def vacuum(self) -> np.ndarray:
        vac = np.zeros(self.dimension, dtype=complex)
        vac[0] = 1.0
        return vac

    def annihilate_particle(self, j: int):
        return self.create_particle[j].conj().T.tocsr()

    def annihilate_anti(self, j: int):
        return self.create_anti[j].conj().T.tocsr()


def build_space(n_particle: int, n_anti: int = 0) -> FockSpace:
    """Build the operator set; raises `DimensionTooLarge` above 12 modes."""
    if n_particle < 0 or n_anti < 0:
        raise ValueError("mode counts must be nonnegative")
    total = n_particle + n_anti
    if total > MAX_MODES:
        raise DimensionTooLarge(f"{total} modes exceeds the {MAX_MODES}-mode cap")
    ops = _jordan_wigner(total)
    return FockSpace(
        n_particle=n_particle,
        n_anti=n_anti,
        create_particle=ops[:n_particle],
        create_anti=ops[n_particle:],
    )


@dataclass(frozen=True)
class QuasiOperator:
    """Annihilator ``c = sum_j alpha[j] a_j + conj(beta[j]) bdag_j``."""

    alpha: np.ndarray
    beta: np.ndarray

    def canonicity(self) -> float:
        return float(np.sum(np.abs(self.alpha) ** 2) + np.sum(np.abs(self.beta) ** 2))

    def matrix(self, space: FockSpace):
        if len(self.alpha) != space.n_particle or len(self.beta) != space.n_anti:
            raise ValueError("coefficient lengths do not match the space")
        out = sparse.csr_matrix((space.dimension, space.dimension), dtype=complex)
        for j, a in enumerate(self.alpha):
            if a != 0:
                out = out + a * space.annihilate_particle(j)
        for j, b in enumerate(self.beta):
            if b != 0:
                out = out + np.conj(b) * space.create_anti[j]
        return out

    def dagger_matrix(self, space: FockSpace):
        return self.matrix(space).conj().T.tocsr()


def vacuum_expectation(space: FockSpace, operators) -> complex:
    """``<0| op_1 op_2 ... op_n |0>`` for sparse operator matrices."""
    vec = space.vacuum()
    for op in reversed(list(operators)):
        vec = op @ vec
    return complex(space.vacuum().conj() @ vec)


def random_canonical_transform(n_modes: int, seed: int) -> list[QuasiOperator]:
    """Exactly canonical quasi-particle annihilators from a random generator.

    Exponentiates a random antihermitian quadratic generator on the
    single-particle space spanned by ``(a_1..a_n, bdag_1..bdag_n)``; the
    first n rows of the resulting unitary give quasi-operators satisfying
    the CAR identically (row orthonormality is exact up to rounding).
    """
    if n_modes > 6:
        raise DimensionTooLarge("random canonical transforms capped at parity 6+6 modes")
    rng = np.random.default_rng(seed)
    dim = 2 * n_modes
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gen = 0.5 * (raw - raw.conj().T)
    u = expm(gen)
    return [
        QuasiOperator(alpha=u[i, :n_modes].copy(), beta=np.conj(u[i, n_modes:]))
        for i in range(n_modes)
    ]
