"""The manufactured pair against which the mms scenario measures
convergence, on a grid of any dimension, torus or Neumann box:

    n = 2 + e^-t prod_a cos(k_a x_a)
    c = 1 + 0.5 e^-t cos(k_0 x_0)

with k_a = 2 pi / L_a on the torus and pi / L_a on the box, so both meet the
boundary condition on any extent L.  n >= 1 and c >= 1/2 for t >= 0, so
nothing checks their sign.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable

import numpy as np

from .grid import Grid


class ManufacturedPair:
    """The pair and the sources that make it an exact solution,

    source_n = dn/dt - lap n + chi * (grad n . grad c + n lap c)
    source_c = dc/dt - lap c + n c,

    bound to the cell centres of one grid.  With e = e^-t they are exactly
    separable in time, source_n = e P1 + e^2 P2 and source_c = 2 + e Q1 +
    e^2 Q2, so the profiles are taken once and each call is a few ufunc
    passes.  With C = cos(k_0 x_0), S = sin(k_0 x_0), R = prod_{a>0}
    cos(k_a x_a), N = C R and K = sum_a k_a^2:

    P1 = (K - 1) N - chi k_0^2 C        P2 = chi k_0^2 R (S^2 - C^2) / 2
    Q1 = (k_0^2 + 1) C / 2 + N          Q2 = N C / 2

    Every method returns an array of the grid's shape.
    """

    def __init__(self, grid: Grid, chi: float):
        if chi < 0.0:
            raise ValueError("chi must be nonnegative")
        self.chi = chi
        k = [(2.0 if grid.periodic else 1.0) * math.pi / L for L in grid.spec.extent]
        x0, *others = grid.meshes()
        cos0, sin0 = np.cos(k[0] * x0), np.sin(k[0] * x0)
        rest = reduce(np.multiply, (np.cos(ka * x) for ka, x in zip(k[1:], others)),
                      np.ones(grid.shape))
        k0_sq, k_sq = k[0] * k[0], sum(ka * ka for ka in k)
        self._n1 = cos0 * rest
        self._c1 = 0.5 * cos0
        self._p1 = (k_sq - 1.0) * self._n1 - (chi * k0_sq) * cos0
        self._p2 = (0.5 * chi * k0_sq) * rest * (sin0 * sin0 - cos0 * cos0)
        self._q1 = (0.5 * (k0_sq + 1.0)) * cos0 + self._n1
        self._q2 = self._n1 * self._c1

    def n(self, t: float) -> np.ndarray:
        return 2.0 + math.exp(-t) * self._n1

    def c(self, t: float) -> np.ndarray:
        return 1.0 + math.exp(-t) * self._c1

    def source_n(self, t: float) -> np.ndarray:
        e = math.exp(-t)
        return e * self._p1 + (e * e) * self._p2

    def source_c(self, t: float) -> np.ndarray:
        e = math.exp(-t)
        return 2.0 + e * self._q1 + (e * e) * self._q2


def mms_sources(pair: ManufacturedPair) -> tuple[Callable, Callable]:
    """The pair's source hooks f(t) for solver.run; the harness fetches them
    through this module global, which perfbench's tracer wraps."""
    return pair.source_n, pair.source_c
