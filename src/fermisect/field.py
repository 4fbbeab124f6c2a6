"""Mode kernel for a massive Fermi field on a bisected interval.

The detection interval has length ``2L`` and is split into two halves of
length ``L``.  Each carries its own plane-wave basis:

* full interval ``[0, 2L]``, region ``None``, momentum ladder ``p_k = pi*k/L``;
* each half a `Region`: left ``[0, L]``, right ``[L, 2L]``, ladder ``q_m = 2*pi*m/L``.

Every mode is normalized to unit L2 norm on its own interval (``1/sqrt(2L)``
on the full interval, ``1/sqrt(L)`` on a half), which is the normalization
under which the half-to-full expansion coefficients come out canonical in
their leading diagonal entry.  Positive/negative frequency content is carried
by two-component spinors; everything here is a pure function.  The kernel of
:mod:`fermisect.bogoliubov` forms the spinor overlaps between the ladders.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Branch",
    "FieldConfig",
    "Region",
    "Spinor",
    "energy",
    "mode_function",
    "section_momentum",
    "spinor",
    "subsection_momentum",
]


class Branch(enum.Enum):
    """Positive- or negative-frequency spinor branch."""

    POSITIVE = "+"
    NEGATIVE = "-"


class Region(enum.Enum):
    """One half of the interval, the support of a half-interval mode."""

    LEFT = "left"
    RIGHT = "right"

    def interval(self, cfg: "FieldConfig") -> tuple[float, float]:
        ell = cfg.half_length
        if self is Region.LEFT:
            return (0.0, ell)
        return (ell, 2.0 * ell)


@dataclass(frozen=True)
class FieldConfig:
    """Physical and numerical parameters of a field computation.

    Parameters
    ----------
    mass : float
        Field mass ``mu`` in inverse-length units (hbar = c = 1).  May be 0.
    half_length : float
        Half of the full interval; the halves each have length ``half_length``.
    time : float
        Evaluation time.  Enters only through phases of mode functions and
        expansion coefficients.

    The mode cutoff is not part of the configuration: every truncated sum
    takes it as its own ``n_max`` argument.
    """

    mass: float
    half_length: float
    time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mass", "half_length", "time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mass < 0:
            raise ValueError(f"mass must be >= 0, got {self.mass}")
        if self.half_length <= 0:
            raise ValueError(f"half_length must be > 0, got {self.half_length}")

    @classmethod
    def from_mu_l(cls, mu_l: float, **kwargs) -> "FieldConfig":
        """The configuration at ``L = 1``, where the mass is ``mu_l``."""
        return cls(mass=float(mu_l), half_length=1.0, **kwargs)


@dataclass(frozen=True)
class Spinor:
    """Two-component frequency-branch spinor, unit norm; components are floats or arrays."""

    upper: float
    lower: float

    def dot(self, other: "Spinor") -> float:
        return self.upper * other.upper + self.lower * other.lower


def _integer(n, refusal: str) -> int:
    """``n`` as `operator.index` gives it, else `ValueError` with ``f"{refusal}, got {n!r}"``."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{refusal}, got {n!r}") from None


def energy(p, mass):
    """Dispersion ``eps(p) = sqrt(mass**2 + p**2)``; even in p, >= mass."""
    return np.hypot(np.asarray(p, dtype=float), mass)


def section_momentum(k, cfg: FieldConfig):
    """Full-interval ladder ``p_k = pi*k/L``."""
    return np.pi * np.asarray(k, dtype=float) / cfg.half_length


def subsection_momentum(m, cfg: FieldConfig):
    """Half-interval ladder ``q_m = 2*pi*m/L``."""
    return 2.0 * np.pi * np.asarray(m, dtype=float) / cfg.half_length


def spinor(p, mass: float, branch: Branch) -> Spinor:
    """Frequency-branch spinor at momentum ``p``.

    ``p`` may be an array; the components are then arrays of its shape, and
    each element is the value the scalar ``p`` gives, bit for bit.

    Raises
    ------
    ValueError
        If any ``p = mass = 0``, where the normalization is singular; if ``2*eps*(eps+mass)``
        is subnormal, near ``p = 0`` below a mass of about 7e-155; or if it overflows, from a
        momentum or mass of about 1e154 on.
    """
    p = np.asarray(p, dtype=float)
    eps = energy(p, mass)
    eps_list = eps.ravel().tolist()
    # the squared norm grows with eps: the smallest eps may underflow it, the largest overflow it
    low = min(eps_list, default=math.inf)
    high = max(eps_list, default=0.0)
    if low == 0.0:
        raise ValueError("spinor undefined at p = mass = 0")
    if 2.0 * low * (low + mass) < np.finfo(float).tiny:
        raise ValueError(f"spinor normalization underflows float64 at mass {mass!r}")
    if not math.isfinite(2.0 * high * (high + mass)):
        raise ValueError(f"spinor normalization overflows float64 at mass {mass!r}"
                         " (momentum or mass beyond about 1e154)")
    norm = np.sqrt(2.0 * eps * (eps + mass))
    if branch is Branch.POSITIVE:
        return Spinor((eps + mass) / norm, p / norm)
    return Spinor(-p / norm, (eps + mass) / norm)


def mode_function(index, region: Region | None, x, cfg: FieldConfig):
    """Plane-wave mode ``exp(i*(p*x - eps*t))`` at ``t = cfg.time`` on the region, unit L2 norm.

    ``region=None`` gives the full-interval mode; half-interval modes vanish identically outside
    their half.  ``index`` and ``x`` may be arrays and broadcast against each other: ``ks[:, None]``
    with nodes ``x`` gives one row per index, each element the value the scalar index gives, bit
    for bit.
    """
    t = cfg.time
    x = np.asarray(x, dtype=float)
    if region is None:
        p = section_momentum(index, cfg)
        amp = 1.0 / math.sqrt(2.0 * cfg.half_length)
        return amp * np.exp(1j * (p * x - energy(p, cfg.mass) * t))
    p = subsection_momentum(index, cfg)
    amp = 1.0 / math.sqrt(cfg.half_length)
    lo, hi = region.interval(cfg)
    inside = (x >= lo) & (x <= hi)
    return np.where(inside, amp * np.exp(1j * (p * x - energy(p, cfg.mass) * t)), 0.0 + 0.0j)
