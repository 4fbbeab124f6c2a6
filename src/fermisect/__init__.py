"""Bisected 1-D massive Fermi field toolkit.

Subsection mode bases on a bisected interval, closed-form Bogoliubov
coefficients with an independent quadrature oracle, the resulting vacuum
noise spectra and cross-half correlations, an exact fermionic Fock-space
engine, phase-space smeared detector statistics, and a two-outcome POVM toy
model.  Each public name is imported from its module, e.g.
``from fermisect.spectrum import occupation_spectrum``.
"""

from . import bogoliubov, detector, field, fock, povm, spectrum  # noqa: F401  (loads every module)

__version__ = "0.1.0"
