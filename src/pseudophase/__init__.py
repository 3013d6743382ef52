"""Axiswise double-phase energies on tensor grids.

Discretizes the Dirichlet problem for the operator that sums, axis by
axis, a p-growth and a weighted q-growth flux of the partial derivatives,
provides the energy-descent solver and weak-form certificates, a
sampling-based convexity lab for modulus estimates, and a reduced-gradient
control loop on top of the solution operator.
"""

from __future__ import annotations

from . import control, convexity, energy, errors, grid, solver

_MODULES = (grid, energy, convexity, solver, control, errors)
__all__ = [name for module in _MODULES for name in module.__all__]
# Binds the function energy over the submodule of that name, as the public API promises.
globals().update((name, getattr(module, name)) for module in _MODULES for name in module.__all__)
del _MODULES

__version__ = "0.1.0"
