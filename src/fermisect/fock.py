"""Exact finite-dimensional fermionic Fock-space engine.

Ground truth for every expectation, Wick identity and detector correlation
in this package.  Every operator is the sparse matrix of a quasi-operator
``c = sum_j alpha[j] a_j + conj(beta[j]) bdag_j`` (`QuasiOperator`) under
the Jordan-Wigner construction over a fixed global mode ordering: particle
modes first, then antiparticle modes, each with a full sign string, so all
operators anticommute across species exactly.  A unit row gives ``a_j`` or
``bdag_j``; their adjoints give ``adag_j`` and ``b_j``.

The construction is one pattern per mode count, computed by bit arithmetic
on the basis indices and cached read-only.  Ladder operators of distinct
modes share no nonzero entry, so a quasi-operator matrix is one sparse
constructor over that pattern: each entry is a single signed coefficient.

A `QuasiOperator` may hold a stack of B coefficient rows.  Its matrix is
then block diagonal on B copies of the space, block b being byte for byte
the matrix of row b alone, and `expectations` returns one value per block
of a stacked state, the vacuum by default.  Block-diagonal CSR keeps each
row's entries in the order of its block, so sparse products add the same
terms in the same order: a whole set of operators costs a few sparse calls,
with every value's bits those of one block at a time.

Limited to 12 modes total (dimension 4096); the engine exists for
correctness, not scale.
"""

from __future__ import annotations

import operator
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
    "expectations",
    "random_canonical_transform",
]

MAX_MODES = 12


class DimensionTooLarge(ValueError):
    """More than `MAX_MODES` modes requested."""


@lru_cache(maxsize=8)
def _quasi_pattern(n_particle: int, n_anti: int) -> tuple:
    """Row, column, sign and mode of every entry of a quasi-operator matrix.

    Mode ``j`` of ``n`` owns bit ``1 << (n - 1 - j)`` of a basis index, so
    mode 0 is the most significant.  A particle mode annihilates and an
    antiparticle mode creates: it flips its bit on every column where that
    is possible, with the Jordan-Wigner sign ``(-1)**`` (occupation of the
    modes after ``j``).  Distinct modes share no entry.  The entries are
    sorted by row, then column, once here, so that the sparse constructor
    finds them in CSR order on every call.
    """
    n = n_particle + n_anti
    index = np.arange(2**n)
    # int32, the index dtype that the sparse constructor keeps without a copy
    row, col = np.empty((2, n, 2**n // 2), dtype=np.int32)
    sign = np.empty((n, 2**n // 2))
    odd = np.zeros(2**n, dtype=bool)  # parity of the modes after j
    for j in reversed(range(n)):
        bit = 1 << (n - 1 - j)
        occupied = index & bit != 0
        col[j] = np.flatnonzero(occupied if j < n_particle else ~occupied)
        row[j] = col[j] ^ bit
        sign[j] = np.where(odd[col[j]], -1.0, 1.0)
        odd ^= occupied
    mode = np.repeat(np.arange(n), 2**n // 2)
    order = np.lexsort((col.reshape(-1), row.reshape(-1)))
    pattern = tuple(arr.reshape(-1)[order] for arr in (row, col, sign, mode))
    for arr in pattern:
        # cached: an in-place edit would corrupt every later matrix
        arr.flags.writeable = False
    return pattern


@dataclass(frozen=True)
class FockSpace:
    """Fock space of ``n_particle + n_anti`` modes; its operators are `QuasiOperator` matrices."""

    n_particle: int
    n_anti: int

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


def _mode_count(n) -> int:
    """``n`` as a Python int; `ValueError` unless it is a nonnegative integer."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"mode counts must be integers, got {n!r}") from None
    if n < 0:
        raise ValueError("mode counts must be nonnegative")
    return n


def build_space(n_particle: int, n_anti: int = 0) -> FockSpace:
    """The space of the given mode counts; raises `DimensionTooLarge` above 12 modes."""
    n_particle, n_anti = _mode_count(n_particle), _mode_count(n_anti)
    total = n_particle + n_anti
    if total > MAX_MODES:
        raise DimensionTooLarge(f"{total} modes exceeds the {MAX_MODES}-mode cap")
    return FockSpace(n_particle=n_particle, n_anti=n_anti)


@dataclass(frozen=True)
class QuasiOperator:
    """Annihilator ``c = sum_j alpha[j] a_j + conj(beta[j]) bdag_j``.

    ``alpha`` and ``beta`` are one row each, or stacks of B rows of shapes
    ``(B, n_particle)`` and ``(B, n_anti)``: B operators at once.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def matrix(self, space: FockSpace):
        """The CSR matrix on ``space``; for a stack of B rows, block diagonal on B copies of it.

        Block b is byte for byte the matrix of row b alone: its entries keep
        their order, offset by ``b * space.dimension``.
        """
        alpha, beta = np.atleast_2d(self.alpha, self.beta)
        if (alpha.shape[1:] != (space.n_particle,) or beta.shape[1:] != (space.n_anti,)
                or len(alpha) != len(beta)):
            raise ValueError("coefficient lengths do not match the space")
        row, col, sign, mode = _quasi_pattern(space.n_particle, space.n_anti)
        coeff = np.concatenate([alpha, np.conj(beta)], axis=1).astype(complex)[:, mode]
        keep = coeff != 0
        data = coeff[keep]
        data *= np.broadcast_to(sign, coeff.shape)[keep]
        # + 0.0 turns the -0.0 parts of the exact terms sign * coeff into 0.0,
        # as adding the terms up one by one does
        data += 0.0
        # int32 like the pattern, so that the sparse constructor keeps the indices
        offset = np.arange(len(alpha), dtype=np.int32)[:, None] * np.int32(space.dimension)
        rows, cols = (row + offset)[keep], (col + offset)[keep]
        size = len(alpha) * space.dimension
        # the pattern is in CSR order, so the entries are the CSR arrays as they stand
        indptr = np.searchsorted(rows, np.arange(size + 1, dtype=np.int32))
        return sparse.csr_matrix((data, cols, indptr), shape=(size, size))


def expectations(space: FockSpace, operators, state=None) -> list[complex]:
    """``<s| op_1 op_2 ... op_n |s>`` for each block ``s`` of a stacked ``state``.

    ``state`` holds B vectors of ``space`` end to end, B vacua by default, and
    the operators act on B copies of ``space``, as `QuasiOperator.matrix` of a
    stack does.  Returns B values ``complex(s.conj() @ block)``, for every B.
    """
    operators = list(operators)
    if state is None:
        blocks = operators[0].shape[0] // space.dimension if operators else 1
        state = np.tile(space.vacuum(), blocks)
    vec = state
    for op in reversed(operators):
        vec = op @ vec
    pairs = zip(state.reshape(-1, space.dimension), vec.reshape(-1, space.dimension))
    return [complex(s.conj() @ block) for s, block in pairs]


def random_canonical_transform(n_modes: int, seed: int) -> list[QuasiOperator]:
    """Exactly canonical quasi-particle annihilators from a random generator.

    Exponentiates a random antihermitian quadratic generator on the
    single-particle space spanned by ``(a_1..a_n, bdag_1..bdag_n)``; the
    first n rows of the resulting unitary give quasi-operators satisfying
    the CAR identically (row orthonormality is exact up to rounding).
    """
    n_modes = _mode_count(n_modes)
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
