"""Second-order discrete differential operators, boundary-aware.

All operators run on the conventions of the grid module: face-centered
differences (value difference / h), mirror ghosts on neumann_box walls
and wraparound on the torus.  They are built on one primitive, _lower, the
ghost-aware lower neighbour of each cell.  A face array has N entries per
axis, face i being the lower face of cell i; on the box face 0 is the wall
face, whose gradient and flux are exactly 0.  The divergence of a face
array is (F[i+1] - F[i]) / h with F[N] read as F[0], so
divergence(gradient(f)) == laplacian(f) bit-exactly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
    """F[i + 1] for each face i, face N read as face 0."""
    return _shift(faces, axis, True, True)


def _face_grads(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Face gradient, one array per axis."""
    return [(values - _lower(values, grid, axis)) / grid.h[axis]
            for axis in range(grid.dim)]


def _div(faces, grid: Grid) -> np.ndarray:
    """Divergence of face arrays, summed over axes in axis order."""
    out = None
    for axis, comp in enumerate(faces):
        d = (_upper_face(comp, axis) - comp) / grid.h[axis]
        out = d if out is None else out + d
    return out


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


def gradient(field: Field) -> VectorField:
    """Face-centered gradient; box wall faces carry exact zeros."""
    return VectorField(field.grid, tuple(_face_grads(field.values, field.grid)))


def divergence(v: VectorField) -> Field:
    return Field(v.grid, _div(v.components, v.grid))


def laplacian(field: Field) -> Field:
    """(2*dim+1)-point Laplacian as divergence of the face gradient."""
    return Field(field.grid, _div(_face_grads(field.values, field.grid), field.grid))


def chemotactic_flux(n: Field, c: Field, chi: float, upwind: bool = False) -> VectorField:
    """Face flux chi * n_face * grad(c)_face, n_face as in _chemotactic_faces;
    box wall faces carry zero flux."""
    grid = n.grid
    if not grid.compatible(c.grid):
        raise ValueError("n and c live on different grids")
    _check_nonnegative(n.values, "chemotactic_flux: n")
    nv = n.values
    return VectorField(grid, tuple(
        _chemotactic_faces(_lower(nv, grid, axis), nv, gc, chi, upwind)
        for axis, gc in enumerate(_face_grads(c.values, grid))))


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
