"""Self-similar rescaling, its refinement ladder, and every ladder's error table.

The rescaling maps a state (n, c, t) to

    n_lambda(x) = lambda^2 * n(lambda * x mod extent)
    c_lambda(x) = c(lambda * x mod extent)
    t_lambda    = t / lambda^2

sampled on the same grid.  Integer lambda keeps lambda*x on the same torus,
so a solution rescales to another solution of the same system; Neumann
boxes break the symmetry at walls and are rejected.  Resampling takes a
cell for odd lambda, where lambda * (i + 1/2) - 1/2 is an integer, and the
average of two neighbouring cells for even lambda, where it is a midpoint;
with wrapped resampling the mass of n transforms as lambda^2 * integral n.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .diagnostics import read_table
from .errors import StoppedEarlyError
from .grid import Field, Grid, GridSpec, fill, lp_norm, make_grid
from .solver import RunResult, SolverConfig, State, StopRule, run


def _resample_wrapped(values: np.ndarray, lam: int, grid: Grid) -> np.ndarray:
    """Sample values at lambda * center positions with periodic wrap: along
    each axis, cell i samples index lam * (i + 1/2) - 1/2, which is cell j0
    for odd lam and the midpoint of cells j0 and j0 + 1 for even lam."""
    out = values
    for axis in range(grid.dim):
        n = grid.shape[axis]
        j0 = lam * np.arange(n) + (lam - 1) // 2
        lo = np.take(out, j0 % n, axis=axis)
        out = lo if lam % 2 else 0.5 * lo + 0.5 * np.take(out, (j0 + 1) % n, axis=axis)
    return out


def rescale_state(state: State, lam: int) -> State:
    """Apply the self-similar rescaling with integer factor lam >= 1."""
    if int(lam) != lam or lam < 1:
        raise ValueError(f"lambda must be a positive integer, got {lam}")
    lam = int(lam)
    grid = state.grid
    if not grid.periodic:
        raise ValueError("rescaling is defined on the periodic torus only")
    n_vals = (lam * lam) * _resample_wrapped(state.n.values, lam, grid)
    c_vals = _resample_wrapped(state.c.values, lam, grid)
    return State(Field(grid, n_vals), Field(grid, c_vals), state.t / (lam * lam))


_ERROR_KEYS = ("l2_n", "linf_n", "l2_c", "linf_c")

# a convergence ladder's <scenario>_errors.csv: one row per solve pair, in
# the order they ran; cells_or_dt holds the cells per axis or a forced dt
LADDER_HEADER = ("kind", "level", "cells_or_dt", *_ERROR_KEYS)


class ErrorRow(NamedTuple):
    """One level of a ladder: cells per axis (or a forced dt), L2 and Linf
    errors of n and c; an error a row does not have is None."""

    level: int
    cells: int | float
    l2_n: Optional[float]
    linf_n: Optional[float]
    l2_c: Optional[float]
    linf_c: Optional[float]


@dataclass
class ErrorTable:
    """The per-level errors of a refinement ladder and their observed orders."""

    rows: list[ErrorRow]

    def column(self, key: str) -> list[float]:
        """One error column; no rows, or an error missing or not finite, is
        a malformed table."""
        values = [getattr(r, key) for r in self.rows]
        if not values or not all(v is not None and math.isfinite(v) for v in values):
            raise ValueError(f"a ladder has no rows or lacks a finite {key} error")
        return values

    @property
    def orders(self) -> dict[str, list[float]]:
        """Per error column, the orders between successive levels."""
        return {key: _orders(self.column(key)) for key in _ERROR_KEYS}

    @property
    def min_order(self) -> float:
        pooled = [order for col in self.orders.values() for order in col]
        return min(pooled) if pooled else math.nan


def _finished(result: RunResult, what: str, **where) -> State:
    """The final state of a solve that has to reach its end time, else
    StoppedEarlyError naming what stopped and where in its ladder."""
    if result.stop_reason != "finished":
        raise StoppedEarlyError(what, result.stop_reason, where, result.state.t)
    return result.state


def _errors(a: State, b: State) -> tuple[float, float, float, float]:
    """(l2_n, linf_n, l2_c, linf_c) of a - b."""
    out = []
    for fa, fb in ((a.n, b.n), (a.c, b.c)):
        diff = Field(fa.grid, fa.values - fb.values)
        out += [lp_norm(diff, 2.0), lp_norm(diff, math.inf)]
    return tuple(out)


def _orders(errors: Sequence[float]) -> list[float]:
    """Observed orders log2(e_k / e_{k+1}) of an error ladder.

    An exact finer level (e_{k+1} = 0) gives inf; an error that grows from
    exactly 0 gives -inf, so a minimum-order monitor fails on it.
    """
    out = []
    for a, b in zip(errors, errors[1:]):
        if b == 0.0:
            out.append(math.inf)
        elif a == 0.0:
            out.append(-math.inf)
        else:
            out.append(math.log2(a / b))
    return out


def ladder_rows(base_cells: int, levels: int, finals: Callable) -> Iterator[ErrorRow]:
    """One row per level, base_cells * 2**level cells per axis, yielded as
    soon as finals(level, cells), the pair of states it compares, returns."""
    for level in range(levels):
        cells = base_cells * (2**level)
        yield ErrorRow(level, cells, *_errors(*finals(level, cells)))


def rescaled_finals(n0_fn: Callable, c0_fn: Callable, dim: int, lam: int, T: float,
                    config: SolverConfig, extent: float, level: int,
                    cells: int) -> tuple[State, State]:
    """solve(T/lam^2, rescale(u0)) and rescale(solve(T, u0)) at one level of
    the scaling ladder: cells per axis on a torus of the given extent."""
    grid = make_grid(GridSpec(dim, (cells,) * dim, (extent,) * dim, "periodic_torus"))
    state0 = State(fill(grid, n0_fn), fill(grid, c0_fn), 0.0)
    where = {"lam": lam, "level": level, "cells": cells}
    scaled_first = _finished(run(rescale_state(state0, lam), config,
                                 StopRule(t_end=T / lam**2)),
                             "rescale-then-solve", **where)
    solved = _finished(run(state0, config, StopRule(t_end=T)),
                       "solve-then-rescale", **where)
    return scaled_first, rescale_state(solved, lam)


def read_ladders(path) -> dict[str, ErrorTable]:
    """The ladder of each kind of row in a <scenario>_errors.csv, in the
    rows' order; a kind with no rows reads as an empty ErrorTable.  The
    errors are held to 17 digits, so they read back exactly."""
    ladders: dict[str, ErrorTable] = defaultdict(lambda: ErrorTable([]))
    for kind, level, cells, *errors in read_table(path, LADDER_HEADER)[1]:
        row = ErrorRow(int(level), int(cells) if cells.isdigit() else float(cells),
                       *(float(e) if e else None for e in errors))
        ladders[kind].rows.append(row)
    return ladders
