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
from typing import Callable, Sequence

import numpy as np

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


@dataclass
class ScalingErrorRow:
    level: int
    cells: int
    l2_n: float
    linf_n: float
    l2_c: float
    linf_c: float


@dataclass
class ScalingErrorTable:
    lam: int
    rows: list[ScalingErrorRow]
    orders_l2_n: list[float]
    orders_linf_n: list[float]
    orders_l2_c: list[float]
    orders_linf_c: list[float]

    @classmethod
    def from_rows(cls, lam: int, rows: list[ScalingErrorRow]) -> "ScalingErrorTable":
        """The table of rows, with observed orders between successive levels."""
        return cls(lam=lam, rows=rows, **{
            f"orders_{key}": _orders([getattr(r, key) for r in rows])
            for key in _ERROR_KEYS})

    @property
    def min_order(self) -> float:
        pooled = (self.orders_l2_n + self.orders_linf_n
                  + self.orders_l2_c + self.orders_linf_c)
        return min(pooled) if pooled else math.nan


def _solve_to(state: State, t_end: float, config: SolverConfig) -> State:
    result: RunResult = run(state, config, StopRule(t_end=t_end))
    if result.stop_reason != "finished":
        raise RuntimeError(f"solve aborted: {result.stop_reason}")
    return result.state


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


def scaling_invariance_test(n0_fn: Callable, c0_fn: Callable, base_cells: int,
                            dim: int, lam: int, T: float, config: SolverConfig,
                            refinements: int = 3,
                            extent: float = 1.0) -> ScalingErrorTable:
    """Compare rescale-then-solve against solve-then-rescale under refinement.

    Initial data is given as vectorized position functions so every level
    samples it at its own resolution.  Per level the reported error is
    || solve(T/lam^2, rescale(u0)) - rescale(solve(T, u0)) || in L2 and
    Linf per component; observed orders are log2 of successive ratios.
    """
    rows: list[ScalingErrorRow] = []
    for level in range(refinements):
        cells = base_cells * (2**level)
        spec = GridSpec(dim=dim, cells=(cells,) * dim, extent=(extent,) * dim,
                        topology="periodic_torus")
        grid = make_grid(spec)
        n0 = fill(grid, n0_fn)
        c0 = fill(grid, c0_fn)
        state0 = State(n0, c0, 0.0)

        scaled_first = _solve_to(rescale_state(state0, lam), T / lam**2, config)
        scaled_last = rescale_state(_solve_to(state0, T, config), lam)

        dn = Field(grid, scaled_first.n.values - scaled_last.n.values)
        dc = Field(grid, scaled_first.c.values - scaled_last.c.values)
        rows.append(ScalingErrorRow(
            level=level, cells=cells,
            l2_n=lp_norm(dn, 2.0), linf_n=lp_norm(dn, math.inf),
            l2_c=lp_norm(dc, 2.0), linf_c=lp_norm(dc, math.inf),
        ))
    return ScalingErrorTable.from_rows(lam, rows)


def write_scaling_csv(tables: Sequence[ScalingErrorTable], path) -> None:
    """lam, level, cells, per-component L2/Linf errors, observed order columns.

    Each table's rows follow one another; a table starts at its level 0.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lam,level,cells,l2_n,linf_n,l2_c,linf_c,"
                 "order_l2_n,order_linf_n,order_l2_c,order_linf_c\n")
        for table in tables:
            for i, row in enumerate(table.rows):
                errors = [f"{getattr(row, key):.17g}" for key in _ERROR_KEYS]
                orders = [""] * 4 if i == 0 else [
                    f"{getattr(table, f'orders_{key}')[i - 1]:.6g}"
                    for key in _ERROR_KEYS]
                fh.write(",".join([str(table.lam), str(row.level), str(row.cells),
                                   *errors, *orders]) + "\n")


def read_scaling_csv(path) -> list[ScalingErrorTable]:
    """The tables written by write_scaling_csv; orders are recomputed from
    the errors, which the file holds to 17 significant digits."""
    tables: list[tuple[int, list[ScalingErrorRow]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            lam, level, cells, l2_n, linf_n, l2_c, linf_c = line.split(",")[:7]
            row = ScalingErrorRow(int(level), int(cells), float(l2_n),
                                  float(linf_n), float(l2_c), float(linf_c))
            if row.level == 0:
                tables.append((int(lam), []))
            tables[-1][1].append(row)
    return [ScalingErrorTable.from_rows(lam, rows) for lam, rows in tables]
