"""solver.step and operators._chemotactic_faces as they were before step
used the grid's scratch and one divergence pass for both equations, frozen
verbatim as the reference that the buffered step must match bit for bit.
The imex branch was re-frozen when imex became implicit diffusion of both
equations by an exact spectral solve, copied here verbatim with the step.
The face operators come from the frozen copies in reference_evaluate.  Do
not edit: it is the definition of the expected state."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from kslab.errors import CorruptionError, PositivityError
from kslab.grid import Field, Grid, _readonly, _trusted
from kslab.solver import EXPLICIT_EULER, SolverConfig, State
from reference_evaluate import _div, _face_grads, _lower


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


@lru_cache(maxsize=None)
def _dct_plan(cells: int, trailing: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Makhoul's map of an N-point DCT-II onto an N-point real FFT: the cell
    order (even cells ascending, then odd cells descending), its inverse,
    and the twiddles exp(-i pi k / (2N)) of the rfft's N//2 + 1 modes,
    shaped to broadcast along an axis followed by `trailing` axes."""
    order = np.concatenate((np.arange(0, cells, 2), np.arange(1, cells, 2)[::-1]))
    twiddle = np.exp(-0.5j * np.pi * np.arange(cells // 2 + 1) / cells)
    return order, np.argsort(order), twiddle.reshape((-1,) + (1,) * trailing)


def _along(axis: int, *span) -> tuple:
    """The index of slice(*span) along a negative axis."""
    return (..., slice(*span)) + (slice(None),) * (-1 - axis)


def _dct(x: np.ndarray, axis: int, fft) -> np.ndarray:
    """X_k = sum_i x_i cos(pi k (2i + 1) / (2N)) along a negative axis: with
    Y = twiddle * rfft(x in Makhoul's order), X_k = Re Y_k up to k = N//2
    and X_{N-k} = -Im Y_k below it."""
    cells = x.shape[axis]
    order, _, twiddle = _dct_plan(cells, -1 - axis)
    half = cells // 2 + 1
    spec = fft.rfft(np.take(x, order, axis=axis), axis=axis)
    spec *= twiddle
    out = np.empty(x.shape)
    out[_along(axis, half)] = spec.real
    np.negative(spec.imag[_along(axis, cells - half, 0, -1)],
                out=out[_along(axis, half, None)])
    return out


def _idct(spec: np.ndarray, axis: int, fft) -> np.ndarray:
    """The inverse of _dct: V_k = conj(twiddle_k) (X_k - i X_{N-k}), X_N = 0,
    for k up to N//2, is the rfft of x in Makhoul's order, so an inverse
    real FFT and the cells put back in their order give x."""
    cells = spec.shape[axis]
    _, inverse, twiddle = _dct_plan(cells, -1 - axis)
    half = cells // 2 + 1
    z = np.empty(spec[_along(axis, half)].shape, dtype=complex)
    z.real = spec[_along(axis, half)]
    z.imag[_along(axis, 1)] = 0.0
    np.negative(spec[_along(axis, cells - 1, cells - half, -1)],
                out=z.imag[_along(axis, 1, None)])
    z *= twiddle.conj()
    return np.take(fft.irfft(z, n=cells, axis=axis), inverse, axis=axis)


def _implicit_diffusion(rhs: np.ndarray, dt: float, grid: Grid) -> np.ndarray:
    """(I - dt div grad)^{-1} rhs, exactly, for each field of the stack rhs
    (grid axes trailing), in a fresh array.  div grad is diagonal in the
    torus's Fourier modes (rfftn) and in the box's DCT-II modes (per axis,
    one real FFT each), with eigenvalues grid.laplacian_eigenvalues.  I - dt
    div grad is an M-matrix whose rows sum to 1, so its inverse is
    entrywise positive with rows summing to 1: the solve keeps each field's
    sum, its sign and its maximum, to rounding."""
    from numpy import fft  # loaded on the first implicit step, not at import

    lam = grid.laplacian_eigenvalues
    denom = 1.0 - dt * lam[0]
    for axis_lam in lam[1:]:
        denom = denom - dt * axis_lam
    axes = tuple(range(-grid.dim, 0))
    if grid.periodic:
        spec = fft.rfftn(rhs, axes=axes)
        spec /= denom
        return fft.irfftn(spec, s=grid.shape, axes=axes)
    for axis in axes:
        rhs = _dct(rhs, axis, fft)
    rhs = rhs / denom
    for axis in axes:
        rhs = _idct(rhs, axis, fft)
    return rhs


def step(state: State, dt: float, config: SolverConfig,
         source_n: Optional[Callable] = None,
         source_c: Optional[Callable] = None) -> State:
    """One first-order splitting step of size dt; the new state is
    validated here, once (finite, n >= 0)."""
    grid = state.grid
    nv = state.n.values
    cv = state.c.values
    c_face_gradient = _face_grads(cv, grid)

    explicit = config.scheme == EXPLICIT_EULER

    # n: conservative flux form, diffusive minus chemotactic face flux; under
    # imex the chemotactic flux alone, diffusion being implicit
    flux = []
    for axis, gc in enumerate(c_face_gradient):
        lo = _lower(nv, grid, axis)
        chem = _chemotactic_faces(lo, nv, gc, config.chi, config.upwind)
        diffusive = (nv - lo) / grid.h[axis] if explicit else 0.0
        flux.append(diffusive - chem)
    n_new = nv + dt * _div(flux, grid)
    if source_n is not None:
        n_new = n_new + dt * source_n(state.t)

    # c: explicit diffusion, or both equations' implicit diffusion in one
    # solve; then exact exponential consumption
    rhs = cv
    if source_c is not None:
        rhs = rhs + dt * source_c(state.t)
    if explicit:
        c_half = rhs + dt * _div(c_face_gradient, grid)
    else:
        n_new, c_half = _implicit_diffusion(np.stack((n_new, rhs)), dt, grid)
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
