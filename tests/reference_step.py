"""solver.step and operators._chemotactic_faces as they were before step
used the grid's scratch and one divergence pass for both equations, frozen
verbatim (with the conjugate-gradient solve step called) as the reference
that the buffered step must match bit for bit.  The face operators come
from the frozen copies in reference_evaluate.  Do not edit: it is the
definition of the expected state."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from kslab.errors import CorruptionError, PositivityError
from kslab.grid import Field, _readonly, _trusted
from kslab.solver import EXPLICIT_EULER, SolverConfig, State
from reference_evaluate import _div, _face_grads, _lower

_CG_TOL = 1e-10


def _chemotactic_faces(lo: np.ndarray, hi: np.ndarray, grad: np.ndarray,
                       chi: float, upwind: bool) -> np.ndarray:
    """chi * n_face * grad at the faces of one axis.  n_face is the average
    of the cells below (lo) and above (hi), or with upwind the cell upstream
    of the face velocity chi * grad (the average where it is exactly zero,
    which preserves symmetry)."""
    n_face = 0.5 * (lo + hi)
    if upwind:
        n_face = np.where(grad > 0.0, lo, np.where(grad < 0.0, hi, n_face))
    return chi * n_face * grad


def _cg_solve(apply_op: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
              tol: float = _CG_TOL, max_iter: Optional[int] = None) -> np.ndarray:
    """Plain conjugate gradients, matrix-free, deterministic."""
    b_norm = math.sqrt(float(np.sum(b * b)))
    if b_norm == 0.0:
        return np.zeros_like(b)
    x = b.copy()
    r = b - apply_op(x)
    p = r.copy()
    rs = float(np.sum(r * r))
    limit = max_iter if max_iter is not None else 20 * b.size
    for _ in range(limit):
        if math.sqrt(rs) <= tol * b_norm:
            return x
        ap = apply_op(p)
        alpha = rs / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    if math.sqrt(rs) <= tol * b_norm:
        return x
    raise CorruptionError("conjugate gradients failed to converge")


def step(state: State, dt: float, config: SolverConfig,
         source_n: Optional[Callable] = None,
         source_c: Optional[Callable] = None) -> State:
    """One first-order splitting step of size dt; the new state is
    validated here, once (finite, n >= 0)."""
    grid = state.grid
    nv = state.n.values
    cv = state.c.values
    c_face_gradient = _face_grads(cv, grid)

    # n: conservative flux form, diffusive minus chemotactic face flux
    flux = []
    for axis, gc in enumerate(c_face_gradient):
        lo = _lower(nv, grid, axis)
        flux.append((nv - lo) / grid.h[axis]
                    - _chemotactic_faces(lo, nv, gc, config.chi, config.upwind))
    n_new = nv + dt * _div(flux, grid)
    if source_n is not None:
        n_new = n_new + dt * source_n(state.t)

    # c: explicit or implicit diffusion, then exact exponential consumption
    rhs = cv
    if source_c is not None:
        rhs = rhs + dt * source_c(state.t)
    if config.scheme == EXPLICIT_EULER:
        c_half = rhs + dt * _div(c_face_gradient, grid)
    else:
        c_half = _cg_solve(lambda u: u - dt * _div(_face_grads(u, grid), grid), rhs)
    c_new = c_half * np.exp(-dt * nv)

    n_min, n_max = float(n_new.min()), float(n_new.max())
    if not (math.isfinite(n_min) and math.isfinite(n_max)
            and np.isfinite(c_new).all()):
        raise CorruptionError("step produced non-finite values")
    if n_min < -1e-12 * max(n_max, -n_min, 1.0):
        raise PositivityError("step drove the bacteria density negative")
    return _trusted(State, t=state.t + dt, n_max=n_max,
                    n=_trusted(Field, grid=grid, values=_readonly(n_new)),
                    c=_trusted(Field, grid=grid, values=_readonly(c_new)))
