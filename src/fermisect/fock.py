"""Exact finite-dimensional fermionic Fock-space engine.

Ground truth for every vacuum expectation and Wick-contraction identity in
this package.  Creation/annihilation operators are explicit sparse matrices
built by the Jordan-Wigner construction over a fixed global mode ordering:
particle modes first, then antiparticle modes, each with a full sign string,
so all operators anticommute across species exactly.

The operators of each mode count are built once and cached read-only.
Operators of distinct modes share no nonzero entry, so a quasi-operator
matrix is one sparse constructor over a cached pattern: each entry is a
single signed coefficient.

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
        ops.append(_read_only(mat))
    return tuple(ops)


@lru_cache(maxsize=8)
def _annihilators(nmodes: int) -> tuple:
    """Adjoints of `_jordan_wigner`, CSR sparse."""
    return tuple(_read_only(op.conj().T.tocsr()) for op in _jordan_wigner(nmodes))


@lru_cache(maxsize=8)
def _quasi_pattern(n_particle: int, n_anti: int) -> tuple:
    """Row, column, sign and mode of every entry of a quasi-operator matrix.

    The entries of the particle annihilators and antiparticle creators, in
    CSR order.  Distinct modes share no entry, so the sum coding mode ``j``
    as ``+-(j + 1)`` is exact.
    """
    n = n_particle + n_anti
    ops = _annihilators(n)[:n_particle] + _jordan_wigner(n)[n_particle:]
    code = sparse.csr_matrix((2**n, 2**n))
    for j, op in enumerate(ops):
        code = code + (j + 1) * op
    code = code.tocoo()
    mode = np.abs(code.data).astype(np.intp) - 1
    return tuple(_read_only(arr) for arr in (code.row, code.col, np.sign(code.data), mode))


def _read_only(obj):
    """Freeze a cached array, or the arrays of a cached CSR matrix, against in-place edits."""
    for arr in (obj.data, obj.indices, obj.indptr) if sparse.issparse(obj) else (obj,):
        arr.flags.writeable = False
    return obj


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
        return _annihilators(self.n_modes)[j]

    def annihilate_anti(self, j: int):
        return _annihilators(self.n_modes)[self.n_particle + j]


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

    def matrix(self, space: FockSpace):
        if len(self.alpha) != space.n_particle or len(self.beta) != space.n_anti:
            raise ValueError("coefficient lengths do not match the space")
        row, col, sign, mode = _quasi_pattern(space.n_particle, space.n_anti)
        coeff = np.concatenate([self.alpha, np.conj(self.beta)]).astype(complex)[mode]
        keep = coeff != 0
        # + 0.0 turns the -0.0 parts of the exact terms sign * coeff into 0.0,
        # as adding the terms up one by one does
        data = sign[keep] * coeff[keep] + 0.0
        return sparse.csr_matrix((data, (row[keep], col[keep])),
                                 shape=(space.dimension, space.dimension))


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
