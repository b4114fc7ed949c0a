"""Second-order discrete differential operators, boundary-aware.

All operators run on the conventions of the grid module: face-centered
differences (value difference / h), mirror ghosts on neumann_box walls
(normal face components are exactly zero there) and wraparound on the
torus.  They are built on one primitive, _lower, the ghost-aware lower
neighbour of each cell.  A kernel face array has N entries per axis, face
i being the lower face of cell i; its divergence is (F[i+1] - F[i]) / h
with F[N] read as F[0], the same face on the torus and on the box a wall
face, whose gradient and flux are exactly 0.  The public N + 1 convention
is the kernel form closed by _closed, so divergence(gradient(f)) ==
laplacian(f) bit-exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import StaggeringError
from .grid import Field, Grid, VectorField, _check_nonnegative


@lru_cache(maxsize=None)
def _cuts(axis: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Index tuples for [1:], [:-1], [:1] and [-1:] along one axis."""
    return tuple((slice(None),) * axis + (s,) for s in (
        slice(1, None), slice(None, -1), slice(None, 1), slice(-1, None)))


def _shift(values: np.ndarray, axis: int, up: bool, wrap: bool) -> np.ndarray:
    """Entry i + 1 (up) or i - 1 of each entry along axis.  The entry past
    the end is the other end (wrap, a roll) or the end entry itself (the
    mirror ghost)."""
    tail, head, first, last = _cuts(axis)
    dst, src, end, other = ((head, tail, last, first) if up
                            else (tail, head, first, last))
    out = np.empty_like(values)
    out[dst] = values[src]
    out[end] = values[other if wrap else end]
    return out


def _lower(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """The ghost-aware lower neighbour of each cell: cell 0 reads the last
    cell on the torus and itself on the box."""
    return _shift(values, axis, False, grid.periodic)


def _upper_face(faces: np.ndarray, axis: int) -> np.ndarray:
    """F[i + 1] for each kernel face i, face N read as face 0."""
    return _shift(faces, axis, True, True)


def _closed(faces: np.ndarray, axis: int) -> np.ndarray:
    """The public N + 1 face array of a kernel face array: face N is face 0."""
    return np.concatenate((faces, faces[_cuts(axis)[2]]), axis)


def _face_grads(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Kernel-form face gradient, one array per axis."""
    return [(values - _lower(values, grid, axis)) / grid.h[axis]
            for axis in range(grid.dim)]


def _div(faces, grid: Grid) -> np.ndarray:
    """Divergence of kernel-form faces, summed over axes in axis order."""
    out = None
    for axis, comp in enumerate(faces):
        d = (_upper_face(comp, axis) - comp) / grid.h[axis]
        out = d if out is None else out + d
    return out


def _face_density(lo: np.ndarray, hi: np.ndarray, grad: np.ndarray,
                  upwind: bool) -> np.ndarray:
    """n at faces from the cells below (lo) and above (hi): their average,
    or with upwind the cell upstream of the face velocity chi * grad (the
    average where it is exactly zero, which preserves symmetry)."""
    avg = 0.5 * (lo + hi)
    if not upwind:
        return avg
    return np.where(grad > 0.0, lo, np.where(grad < 0.0, hi, avg))


def _face_pair(values: np.ndarray, grid: Grid, axis: int):
    """(lower cell, upper cell) values at the N + 1 public faces of an axis;
    a box wall face reads its interior cell on both sides."""
    _tail, _head, first, last = _cuts(axis)
    lo = np.concatenate((_lower(values, grid, axis), values[last]), axis)
    hi = np.concatenate((values, values[first] if grid.periodic else values[last]),
                        axis)
    return lo, hi


def _face_gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Face-centered differences in the public N + 1 convention."""
    return [_closed(comp, axis) for axis, comp in enumerate(_face_grads(values, grid))]


def _face_divergence(comps: list[np.ndarray], grid: Grid) -> np.ndarray:
    """Per-cell (outflux - influx)/h of N + 1 face arrays, fixed axis order."""
    out = None
    for axis in range(grid.dim):
        d = np.diff(comps[axis], axis=axis) / grid.h[axis]
        out = d if out is None else out + d
    return out


def gradient(field: Field) -> VectorField:
    """Face-centered gradient; Neumann wall faces carry exact zeros."""
    return VectorField(field.grid, tuple(_face_gradient(field.values, field.grid)))


def divergence(v: VectorField) -> Field:
    if v.staggering != "face":
        raise StaggeringError("divergence needs a face-centered vector field")
    return Field(v.grid, _face_divergence(list(v.components), v.grid))


def laplacian(field: Field) -> Field:
    """(2*dim+1)-point Laplacian as divergence of the face gradient."""
    return Field(field.grid, _div(_face_grads(field.values, field.grid), field.grid))


def chemotactic_flux(n: Field, c: Field, chi: float, upwind: bool = False) -> VectorField:
    """Face flux chi * n_face * grad(c)_face, n_face as in _face_density;
    Neumann wall faces carry zero flux."""
    grid = n.grid
    if not grid.compatible(c.grid):
        raise ValueError("n and c live on different grids")
    _check_nonnegative(n.values, "chemotactic_flux: n")
    gc = _face_gradient(c.values, grid)
    comps = []
    for axis in range(grid.dim):
        lo, hi = _face_pair(n.values, grid, axis)
        comps.append(chi * _face_density(lo, hi, gc[axis], upwind) * gc[axis])
    return VectorField(grid, tuple(comps))


def _hessian_parts(values: np.ndarray, grid: Grid):
    """Diagonal second differences and the Frobenius-squared array.

    Diagonals use the 3-point stencil; off-diagonals use centered cross
    differences.  Ghosts as in _lower, axis by axis (a box corner is
    mirrored twice).
    """
    wrap = grid.periodic
    ups = [_shift(values, a, True, wrap) for a in range(grid.dim)]
    downs = [_lower(values, grid, a) for a in range(grid.dim)]
    diags = [(up - 2.0 * values + down) / (grid.h[a] ** 2)
             for a, (up, down) in enumerate(zip(ups, downs))]
    frob = None
    for d in diags:
        frob = d * d if frob is None else frob + d * d
    for a in range(grid.dim):
        for b in range(a + 1, grid.dim):
            cross = (_shift(ups[a], b, True, wrap) - _shift(ups[a], b, False, wrap)
                     - _shift(downs[a], b, True, wrap)
                     + _shift(downs[a], b, False, wrap)) / (4.0 * grid.h[a] * grid.h[b])
            frob = frob + 2.0 * cross * cross
    return diags, frob


def hessian_frobenius_sq(field: Field) -> Field:
    """Per-cell squared Frobenius norm of the discrete Hessian."""
    _, frob = _hessian_parts(field.values, field.grid)
    return Field(field.grid, frob)
