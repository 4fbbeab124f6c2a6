"""Mode kernel for a massive Fermi field on a bisected interval.

The detection interval has length ``2L`` and is split into two halves of
length ``L``.  Each carries its own plane-wave basis:

* full interval, coordinates ``[0, 2L]``, momentum ladder ``p_k = pi*k/L``;
* left half ``[0, L]`` and right half ``[L, 2L]``, ladder ``q_m = 2*pi*m/L``.

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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Branch",
    "DegenerateDispersion",
    "FieldConfig",
    "Region",
    "Spinor",
    "energy",
    "mode_function",
    "section_momentum",
    "spinor",
    "subsection_momentum",
]


class DegenerateDispersion(ValueError):
    """Spinor normalization ``1/sqrt(2*eps*(eps+mu))`` is singular at p = mu = 0."""


class Branch(enum.Enum):
    """Positive- or negative-frequency spinor branch."""

    POSITIVE = "+"
    NEGATIVE = "-"


class Region(enum.Enum):
    """Support of a mode function."""

    WHOLE = "whole"
    LEFT = "left"
    RIGHT = "right"

    def interval(self, cfg: "FieldConfig") -> tuple[float, float]:
        ell = cfg.half_length
        if self is Region.WHOLE:
            return (0.0, 2.0 * ell)
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
    def from_mu_l(cls, mu_l: float, half_length: float = 1.0, **kwargs) -> "FieldConfig":
        return cls(mass=mu_l / half_length, half_length=half_length, **kwargs)


@dataclass(frozen=True)
class Spinor:
    """Two-component frequency-branch spinor, unit norm; components are floats or arrays."""

    upper: float
    lower: float

    def dot(self, other: "Spinor") -> float:
        return self.upper * other.upper + self.lower * other.lower


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
    DegenerateDispersion
        If any ``p = mass = 0``, where the normalization is singular.
    """
    p = np.asarray(p, dtype=float)
    eps = energy(p, mass)
    if np.any(eps == 0.0):
        raise DegenerateDispersion("spinor undefined at p = mass = 0")
    norm = np.sqrt(2.0 * eps * (eps + mass))
    if branch is Branch.POSITIVE:
        return Spinor((eps + mass) / norm, p / norm)
    return Spinor(-p / norm, (eps + mass) / norm)


def mode_function(index, region: Region, x, cfg: FieldConfig):
    """Plane-wave mode ``exp(i*(p*x - eps*t))`` at ``t = cfg.time`` on the region, unit L2 norm.

    Half-interval modes vanish identically outside their half.  ``index`` and
    ``x`` may be arrays and broadcast against each other: ``ks[:, None]`` with
    nodes ``x`` gives one row per index, each element the value the scalar
    index gives, bit for bit.
    """
    t = cfg.time
    x = np.asarray(x, dtype=float)
    if region is Region.WHOLE:
        p = section_momentum(index, cfg)
        amp = 1.0 / math.sqrt(2.0 * cfg.half_length)
        return amp * np.exp(1j * (p * x - energy(p, cfg.mass) * t))
    p = subsection_momentum(index, cfg)
    amp = 1.0 / math.sqrt(cfg.half_length)
    lo, hi = region.interval(cfg)
    inside = (x >= lo) & (x <= hi)
    return np.where(inside, amp * np.exp(1j * (p * x - energy(p, cfg.mass) * t)), 0.0 + 0.0j)
