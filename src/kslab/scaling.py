"""Self-similar rescaling on the torus and the invariance refinement test.

The rescaling maps a state (n, c, t) to

    n_lambda(x) = lambda^2 * n(lambda * x mod extent)
    c_lambda(x) = c(lambda * x mod extent)
    t_lambda    = t / lambda^2

sampled on the same grid.  Integer lambda keeps lambda*x on the same torus,
so a solution rescales to another solution of the same system; Neumann
boxes break the symmetry at walls and are rejected.  Resampling is
nearest-cell whenever lambda * (i + 1/2) - 1/2 is an integer (all odd
lambda) and linear interpolation otherwise; with wrapped resampling the
mass of n transforms as lambda^2 * integral n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .diagnostics import read_table
from .errors import StoppedEarlyError
from .grid import Field, Grid, GridSpec, fill, lp_norm, make_grid
from .solver import RunResult, SolverConfig, State, StopRule, run


def _resample_wrapped(values: np.ndarray, lam: int, grid: Grid) -> np.ndarray:
    """Sample values at lambda * center positions with periodic wrap."""
    out = values
    for axis in range(grid.dim):
        n = grid.shape[axis]
        pos = lam * (np.arange(n) + 0.5) - 0.5  # in index units
        j0 = np.floor(pos).astype(int)
        frac = pos - j0
        lo = np.take(out, np.mod(j0, n), axis=axis)
        if np.all(frac == 0.0):
            out = lo
            continue
        hi = np.take(out, np.mod(j0 + 1, n), axis=axis)
        shape = [1] * out.ndim
        shape[axis] = n
        f = frac.reshape(shape)
        out = (1.0 - f) * lo + f * hi
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

# scaling_errors.csv: one row per lam and level, each ladder from its level
# 0; an order cell holds log2 of the previous level's error over this one's,
# as text to 6 significant digits
SCALING_HEADER = ("lam", "level", "cells", *_ERROR_KEYS,
                  *(f"order_{key}" for key in _ERROR_KEYS))


class ErrorRow(NamedTuple):
    """One level of a ladder: cells per axis, L2 and Linf errors of n and c."""

    level: int
    cells: int
    l2_n: float
    linf_n: float
    l2_c: float
    linf_c: float


@dataclass
class ErrorTable:
    """The per-level errors of a refinement ladder and their observed orders."""

    rows: list[ErrorRow]

    @property
    def orders(self) -> dict[str, list[float]]:
        """Per error column, the orders between successive levels."""
        return {key: _orders([getattr(r, key) for r in self.rows])
                for key in _ERROR_KEYS}

    @property
    def min_order(self) -> float:
        pooled = [order for col in self.orders.values() for order in col]
        return min(pooled) if pooled else math.nan


def _finished(result: RunResult, what: str, **where) -> State:
    """The final state of a solve that has to reach its end time; a solve
    that stopped early raises StoppedEarlyError with its stop, what and
    where in its ladder it is (level and cells, or a forced dt)."""
    if result.stop_reason != "finished":
        raise StoppedEarlyError(what, result.stop_reason, result.status,
                                where, result.state.t)
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


def scaling_rows(n0_fn: Callable, c0_fn: Callable, base_cells: int, dim: int,
                 lam: int, T: float, config: SolverConfig, refinements: int = 3,
                 extent: float = 1.0) -> Iterator[ErrorRow]:
    """The rows of scaling_invariance_test, each yielded as soon as its two
    solves have finished."""
    for level in range(refinements):
        cells = base_cells * (2**level)
        spec = GridSpec(dim=dim, cells=(cells,) * dim, extent=(extent,) * dim,
                        topology="periodic_torus")
        grid = make_grid(spec)
        n0 = fill(grid, n0_fn)
        c0 = fill(grid, c0_fn)
        state0 = State(n0, c0, 0.0)

        where = {"lam": lam, "level": level, "cells": cells}
        scaled_first = _finished(run(rescale_state(state0, lam), config,
                                     StopRule(t_end=T / lam**2)),
                                 "rescale-then-solve", **where)
        scaled_last = rescale_state(_finished(run(state0, config, StopRule(t_end=T)),
                                              "solve-then-rescale", **where), lam)
        yield ErrorRow(level, cells, *_errors(scaled_first, scaled_last))


def scaling_invariance_test(n0_fn: Callable, c0_fn: Callable, base_cells: int,
                            dim: int, lam: int, T: float, config: SolverConfig,
                            refinements: int = 3, extent: float = 1.0) -> ErrorTable:
    """Compare rescale-then-solve against solve-then-rescale under refinement.

    Initial data is given as vectorized position functions so every level
    samples it at its own resolution.  Per level the reported error is
    || solve(T/lam^2, rescale(u0)) - rescale(solve(T, u0)) || in L2 and
    Linf per component; observed orders are log2 of successive ratios.
    """
    return ErrorTable(list(scaling_rows(n0_fn, c0_fn, base_cells, dim, lam, T,
                                        config, refinements, extent)))


def read_scaling_csv(path) -> list[tuple[int, ErrorTable]]:
    """The (lam, table) ladders of a scaling_errors.csv; orders are
    recomputed from the errors, which the file holds to 17 digits."""
    ladders: list[tuple[int, ErrorTable]] = []
    for lam, level, cells, *errors in read_table(path, SCALING_HEADER)[1]:
        row = ErrorRow(int(level), int(cells), *map(float, errors[:len(_ERROR_KEYS)]))
        if row.level == 0:
            ladders.append((int(lam), ErrorTable([])))
        ladders[-1][1].rows.append(row)
    return ladders
