"""Manufactured solutions: closed-form pairs and the sources that make them
exact solutions, against which the mms scenario measures convergence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PositivityError


@dataclass(frozen=True)
class ManufacturedSolution:
    """A closed-form pair with the analytic derivatives the sources need.

    Every callable takes (t, *coords) with vectorized coordinates.
    """

    n: Callable
    c: Callable
    dn_dt: Callable
    dc_dt: Callable
    grad_n: tuple[Callable, ...]
    grad_c: tuple[Callable, ...]
    lap_n: Callable
    lap_c: Callable


def _cached_trig(w: float) -> list[Callable]:
    """cos(w x), sin(w x), cos(w y), sin(w y) as functions of (x, y), each
    evaluated once per mesh: a solve passes its grid's cached meshes."""
    last: list = [None, None, None]

    def trig(x, y):
        if x is not last[0] or y is not last[1]:
            last[:] = x, y, (np.cos(w * x), np.sin(w * x), np.cos(w * y),
                             np.sin(w * y))
        return last[2]

    return [lambda x, y, k=k: trig(x, y)[k] for k in range(4)]


def default_manufactured_pair() -> ManufacturedSolution:
    """2D torus pair: n = 2 + e^-t cos(2 pi x) cos(2 pi y),
    c = 1 + 0.5 e^-t cos(2 pi x)."""
    w = 2.0 * math.pi
    cx, sx, cy, sy = _cached_trig(w)
    return ManufacturedSolution(
        n=lambda t, x, y: 2.0 + np.exp(-t) * cx(x, y) * cy(x, y),
        c=lambda t, x, y: 1.0 + 0.5 * np.exp(-t) * cx(x, y),
        dn_dt=lambda t, x, y: -np.exp(-t) * cx(x, y) * cy(x, y),
        dc_dt=lambda t, x, y: -0.5 * np.exp(-t) * cx(x, y),
        grad_n=(lambda t, x, y: -w * np.exp(-t) * sx(x, y) * cy(x, y),
                lambda t, x, y: -w * np.exp(-t) * cx(x, y) * sy(x, y)),
        grad_c=(lambda t, x, y: -0.5 * w * np.exp(-t) * sx(x, y),
                lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float))),
        lap_n=lambda t, x, y: (-2.0 * w * w * np.exp(-t) * cx(x, y)
                               * cy(x, y)),
        lap_c=lambda t, x, y: -0.5 * w * w * np.exp(-t) * cx(x, y))


def mms_sources(solution: ManufacturedSolution, chi: float
                ) -> tuple[Callable, Callable]:
    """Source hooks that make the manufactured pair an exact solution.

    source_n = dn/dt - lap n + chi * div(n grad c)
             = dn/dt - lap n + chi * (grad n . grad c + n lap c)
    source_c = dc/dt - lap c + n c
    """
    if chi < 0.0:
        raise ValueError("chi must be nonnegative")

    def source_n(t, *coords):
        nst = np.asarray(solution.n(t, *coords), dtype=float)
        if np.min(nst) <= 0.0:
            raise PositivityError("manufactured n must stay positive")
        adv = nst * solution.lap_c(t, *coords)
        for gn, gc in zip(solution.grad_n, solution.grad_c):
            adv = adv + np.asarray(gn(t, *coords)) * np.asarray(gc(t, *coords))
        return (np.asarray(solution.dn_dt(t, *coords))
                - np.asarray(solution.lap_n(t, *coords)) + chi * adv)

    def source_c(t, *coords):
        nst = np.asarray(solution.n(t, *coords), dtype=float)
        if np.min(nst) <= 0.0:
            raise PositivityError("manufactured n must stay positive")
        return (np.asarray(solution.dc_dt(t, *coords))
                - np.asarray(solution.lap_c(t, *coords))
                + nst * np.asarray(solution.c(t, *coords)))

    return source_n, source_c
