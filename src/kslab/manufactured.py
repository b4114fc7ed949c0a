"""The manufactured pair on the 2D unit torus, and the sources that make it
an exact solution, against which the mms scenario measures convergence:

    n = 2 + e^-t cos(2 pi x) cos(2 pi y)
    c = 1 + 0.5 e^-t cos(2 pi x)

A ManufacturedPair is bound to one grid: it takes cos(2 pi x), sin(2 pi x)
and cos(2 pi y) at the cell centres once, and every method returns an
array of the grid's shape.  n >= 1 for t >= 0, so nothing checks its sign.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .grid import Grid

_W = 2.0 * math.pi


class ManufacturedPair:
    """The pair and its sources at the cell centres of a 2D torus.

    source_n = dn/dt - lap n + chi * div(n grad c)
             = dn/dt - lap n + chi * (grad n . grad c + n lap c)
    source_c = dc/dt - lap c + n c
    """

    def __init__(self, grid: Grid, chi: float):
        if grid.dim != 2 or not grid.periodic:
            raise ValueError(f"the manufactured pair needs a 2D torus, got {grid.spec}")
        if chi < 0.0:
            raise ValueError("chi must be nonnegative")
        self.chi = chi
        x, y = grid.meshes()
        self._cx, self._sx, self._cy = np.cos(_W * x), np.sin(_W * x), np.cos(_W * y)

    def n(self, t: float) -> np.ndarray:
        return 2.0 + np.exp(-t) * self._cx * self._cy

    def c(self, t: float) -> np.ndarray:
        return 1.0 + 0.5 * np.exp(-t) * self._cx

    def source_n(self, t: float) -> np.ndarray:
        e = np.exp(-t)
        cx, sx, cy = self._cx, self._sx, self._cy
        lap_n = -2.0 * _W * _W * e * cx * cy
        lap_c = -0.5 * _W * _W * e * cx
        grad_n_dot_grad_c = (-_W * e * sx * cy) * (-0.5 * _W * e * sx)  # c has no y term
        return -e * cx * cy - lap_n + self.chi * (self.n(t) * lap_c + grad_n_dot_grad_c)

    def source_c(self, t: float) -> np.ndarray:
        e = np.exp(-t)
        lap_c = -0.5 * _W * _W * e * self._cx
        return -0.5 * e * self._cx - lap_c + self.n(t) * self.c(t)


def mms_sources(pair: ManufacturedPair) -> tuple[Callable, Callable]:
    """The pair's source hooks f(t) for solver.run; the harness fetches them
    through this module global, which perfbench's tracer wraps."""
    return pair.source_n, pair.source_c
