"""Exact finite-dimensional fermionic Fock-space engine.

Ground truth for every expectation, Wick identity and detector correlation
in this package.  Every operator is a quasi-operator
``c = sum_j alpha[j] a_j + conj(beta[j]) bdag_j`` (`QuasiOperator`) or its
adjoint, acting on state vectors under the Jordan-Wigner construction over a
fixed global mode ordering: particle modes first, then antiparticle modes,
each with a full sign string, so all operators anticommute across species
exactly.  A unit row gives ``a_j`` or ``bdag_j``; their adjoints give
``adag_j`` and ``b_j``.  The rows fix the space: one mode per entry.

No matrix is built.  One table per mode count and direction (``c`` or its
adjoint), computed by bit arithmetic and cached read-only, holds each mode's
source index and sign at every basis index, and `QuasiOperator.act` adds one
gathered, signed and scaled term per mode into one output array.  Distinct
modes share no matrix entry, so on a basis state each output entry is one
signed coefficient.  A stack of B coefficient rows acts on a stack of B
states, row b on state b, elementwise along the stack, so each state keeps
the bits of its row applied alone; `expectations` returns one value per
state, B vacua by default, and `number_correlations` the connected
``<n_c n_f> - <n_c><n_f>`` from three of them.

Limited to 12 modes total (dimension 4096); the engine exists for
correctness, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.random import default_rng

from .field import _integer

__all__ = [
    "FockSpace",
    "MAX_MODES",
    "QuasiOperator",
    "build_space",
    "expectations",
    "number_correlations",
    "random_canonical_transform",
]

MAX_MODES = 12


@lru_cache(maxsize=16)
def _action_table(n_particle: int, n_anti: int, dagger: bool) -> tuple[np.ndarray, np.ndarray]:
    """Source index and sign of every mode's term at every basis index, each ``(n, 2**n)``.

    Mode ``j`` of ``n`` owns bit ``1 << (n - 1 - j)`` of a basis index, so
    mode 0 is the most significant.  A particle mode annihilates and an
    antiparticle mode creates, and under ``dagger`` the reverse: output
    index ``r`` reads index ``r ^ bit`` wherever the flip is possible, with
    the Jordan-Wigner sign ``(-1)**`` (occupation of the modes after ``j``),
    and has sign 0 elsewhere.
    """
    n = n_particle + n_anti
    index = np.arange(2**n)
    source = np.empty((n, 2**n), dtype=np.intp)
    sign = np.empty((n, 2**n))
    odd = np.zeros(2**n, dtype=bool)  # parity of the modes after j
    for j in reversed(range(n)):
        bit = 1 << (n - 1 - j)
        occupied = index & bit != 0
        source[j] = index ^ bit
        # an operator that creates mode j leaves it occupied in its output
        creates = (j >= n_particle) != dagger
        sign[j] = np.where(occupied != creates, 0.0, np.where(odd, -1.0, 1.0))
        odd ^= occupied
    for arr in (source, sign):
        # cached: an in-place edit would corrupt every later action
        arr.flags.writeable = False
    return source, sign


@dataclass(frozen=True)
class FockSpace:
    """Fock space of ``n_particle + n_anti`` modes, on which `QuasiOperator`s act."""

    n_particle: int
    n_anti: int

    @property
    def dimension(self) -> int:
        return 2 ** (self.n_particle + self.n_anti)

    def vacuum(self) -> np.ndarray:
        vac = np.zeros(self.dimension, dtype=complex)
        vac[0] = 1.0
        return vac


def _mode_count(n) -> int:
    """``n`` as a Python int; `ValueError` unless it is a nonnegative integer."""
    n = _integer(n, "mode counts must be integers")
    if n < 0:
        raise ValueError("mode counts must be nonnegative")
    return n


def build_space(n_particle: int, n_anti: int = 0) -> FockSpace:
    """The space of the given mode counts; raises `ValueError` above 12 modes."""
    n_particle, n_anti = _mode_count(n_particle), _mode_count(n_anti)
    total = n_particle + n_anti
    if total > MAX_MODES:
        raise ValueError(f"{total} modes exceeds the {MAX_MODES}-mode cap")
    return FockSpace(n_particle=n_particle, n_anti=n_anti)


@dataclass(frozen=True)
class QuasiOperator:
    """Annihilator ``c = sum_j alpha[j] a_j + conj(beta[j]) bdag_j``; with ``dagger``, its adjoint.

    ``alpha`` and ``beta`` are one row each, or stacks of B rows of shapes
    ``(B, n_particle)`` and ``(B, n_anti)``: B operators at once.
    """

    alpha: np.ndarray
    beta: np.ndarray
    dagger: bool = False

    @property
    def adjoint(self) -> QuasiOperator:
        """The adjoint: the same rows with `dagger` flipped."""
        return replace(self, dagger=not self.dagger)

    def act(self, states) -> np.ndarray:
        """The operator applied to each state of a ``(B, 2**n)`` stack, ``n`` the rows' mode count.

        A stack of B rows applies row b to state b, and a single row applies
        to every state.  Returns a new complex array of the stack's shape.
        """
        alpha, beta = np.atleast_2d(self.alpha, self.beta)
        if alpha.ndim != 2 or beta.ndim != 2 or len(alpha) != len(beta):
            raise ValueError("alpha and beta must be rows or stacks of rows of one length")
        n_modes = alpha.shape[1] + beta.shape[1]
        if n_modes > MAX_MODES:
            raise ValueError(f"{n_modes} modes exceeds the {MAX_MODES}-mode cap")
        states = np.asarray(states, dtype=complex)
        if states.ndim != 2 or states.shape[1] != 2**n_modes:
            raise ValueError(f"states must be a stack of vectors of the space of {n_modes} modes")
        if len(alpha) not in (1, len(states)):
            raise ValueError(f"{len(alpha)} coefficient rows for a stack of {len(states)} states")
        coeff = np.concatenate([alpha, np.conj(beta)], axis=1).astype(complex)
        if self.dagger:
            coeff = np.conj(coeff)
        source, sign = _action_table(alpha.shape[1], beta.shape[1], self.dagger)
        out = np.zeros(states.shape, dtype=complex)
        term = np.empty_like(out)
        for j in range(n_modes):
            np.take(states, source[j], axis=1, out=term)
            term *= sign[j]
            term *= coeff[:, j, None]
            out += term
        return out


def expectations(operators, state=None) -> list[complex]:
    """``<s| op_1 op_2 ... op_n |s>`` for each state ``s`` of a stack.

    ``state`` is one vector or a ``(B, 2**n)`` stack of the operators' space;
    by default, B vacua for the largest operator stack.  Returns B values
    ``complex(s.conj() @ (op_1 ... op_n s))``.
    """
    operators = list(operators)
    if state is None:
        # of the rows that act first; with no operator, <0|0> = 1 in the 0-mode space as in any
        rows = [np.atleast_2d(op.alpha, op.beta) for op in operators] or [[np.zeros((1, 0))] * 2]
        space = build_space(rows[-1][0].shape[-1], rows[-1][1].shape[-1])
        state = np.tile(space.vacuum(), (max(len(alpha) for alpha, _ in rows), 1))
    vec = state = np.atleast_2d(state)
    for op in reversed(operators):
        vec = op.act(vec)
    return [complex(s.conj() @ v) for s, v in zip(state, vec)]


def number_correlations(c: QuasiOperator, f: QuasiOperator, state=None) -> list[complex]:
    """``<n_c n_f> - <n_c><n_f>``, ``n_c = c^dagger c``, of each `expectations` state."""
    n_c, n_f = [c.adjoint, c], [f.adjoint, f]
    fours, singles_c, singles_f = (expectations(ops, state) for ops in (n_c + n_f, n_c, n_f))
    return [four - x * y for four, x, y in zip(fours, singles_c, singles_f)]


def random_canonical_transform(n_modes: int, seed: int) -> list[QuasiOperator]:
    """Exactly canonical quasi-particle annihilators from a random generator.

    Exponentiates a random antihermitian quadratic generator ``G`` on the
    single-particle space spanned by ``(a_1..a_n, bdag_1..bdag_n)``, as
    ``exp(G) = V exp(-i w) V^dagger`` from the eigendecomposition
    ``i G = V w V^dagger`` of the hermitian ``i G``.  The first n rows of
    the resulting unitary give quasi-operators satisfying the CAR
    identically (row orthonormality is exact up to rounding).
    """
    n_modes = _mode_count(n_modes)
    if n_modes > 6:
        raise ValueError("random canonical transforms capped at parity 6+6 modes")
    rng = default_rng(seed)
    dim = 2 * n_modes
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gen = 0.5 * (raw - raw.conj().T)
    w, v = np.linalg.eigh(1j * gen)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return [
        QuasiOperator(alpha=u[i, :n_modes].copy(), beta=np.conj(u[i, n_modes:]))
        for i in range(n_modes)
    ]
