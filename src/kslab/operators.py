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
from typing import Optional

import numpy as np

from .grid import Field, Grid, VectorField, _check_nonnegative


@lru_cache(maxsize=None)
def _cuts(axis: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Index tuples for [1:], [:-1], [:1] and [-1:] along one axis."""
    return tuple((slice(None),) * axis + (s,) for s in (
        slice(1, None), slice(None, -1), slice(None, 1), slice(-1, None)))


def _shift(values: np.ndarray, axis: int, up: bool, wrap: bool,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Entry i + 1 (up) or i - 1 of each entry along axis.  The entry past
    the end is the other end (wrap, a roll) or the end entry itself (the
    mirror ghost).  Written into out (not values itself) when given."""
    tail, head, first, last = _cuts(axis)
    dst, src, end, other = ((head, tail, last, first) if up
                            else (tail, head, first, last))
    if out is None:
        out = np.empty_like(values)
    out[dst] = values[src]
    out[end] = values[other if wrap else end]
    return out


def _lower(values: np.ndarray, grid: Grid, axis: int,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """The ghost-aware lower neighbour of each cell: cell 0 reads the last
    cell on the torus and itself on the box."""
    return _shift(values, axis, False, grid.periodic, out)


def _upper_face(faces: np.ndarray, axis: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """F[i + 1] for each face i, face N read as face 0."""
    return _shift(faces, axis, True, True, out)


def _face_grad(values: np.ndarray, grid: Grid, axis: int,
               out: Optional[np.ndarray] = None,
               tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """Face gradient (f[i] - f[i - 1]) / h along one axis, in out; tmp
    receives the lower neighbour.  Without them one fresh array serves both."""
    low = _lower(values, grid, axis, tmp)
    out = np.subtract(values, low, out=low if out is None else out)
    return np.divide(out, grid.h[axis], out=out)


def _face_grads(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Face gradient, one fresh array per axis."""
    return [_face_grad(values, grid, axis) for axis in range(grid.dim)]


def _div_term(comp: np.ndarray, grid: Grid, axis: int,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """One axis's term of the divergence, (F[i + 1] - F[i]) / h, in out
    (fresh when None).  The grid's axes are comp's trailing axes, so a
    stack of face arrays takes one pass."""
    out = _upper_face(comp, comp.ndim - grid.dim + axis, out)
    np.subtract(out, comp, out=out)
    return np.divide(out, grid.h[axis], out=out)


def _div(faces, grid: Grid) -> np.ndarray:
    """Divergence of face arrays, summed over axes in axis order."""
    out = None
    for axis, comp in enumerate(faces):
        d = _div_term(comp, grid, axis)
        out = d if out is None else np.add(out, d, out=out)
    return out


def _chemotactic_faces(lo: np.ndarray, hi: np.ndarray, grad: np.ndarray,
                       chi: float, upwind: bool) -> np.ndarray:
    """chi * n_face * grad at the faces of one axis, in a fresh array.
    n_face is the average of the cells below (lo) and above (hi), or with
    upwind the cell upstream of the face velocity chi * grad: lo where
    grad > 0, else hi.  Where grad is exactly zero the flux is a zero
    whatever n_face is, so taking hi there rather than the symmetric
    average changes no value, only the sign of that zero where hi is -0.0
    (or negative) and the average is not.  step's new n never sees that
    sign: a cell that is not -0.0 absorbs a zero divergence term, and a
    -0.0 cell's terms come out bit-identical under either choice.
    """
    if upwind:
        n_face = np.where(grad > 0.0, lo, hi)
    else:
        n_face = np.add(lo, hi)
        np.multiply(n_face, 0.5, out=n_face)
    np.multiply(n_face, chi, out=n_face)
    return np.multiply(n_face, grad, out=n_face)


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


def _hessian_parts(values: np.ndarray, grid: Grid, bufs=None,
                   trace: bool = False):
    """(trace or None, Frobenius-squared array) of the discrete Hessian.

    Diagonals use the 3-point stencil; off-diagonals use centered cross
    differences.  Ghosts as in _lower, axis by axis (a box corner is
    mirrored twice).  The Frobenius sum adds the diagonals' squares, then
    twice the crosses' squares, in axis order; the trace (only with
    trace=True) sums the diagonals.  bufs, five grid-shaped arrays, receive
    every intermediate, the Frobenius array in bufs[0]; without them the
    arrays are fresh.
    """
    wrap = grid.periodic
    frob, up, down, d, tmp = (None,) * 5 if bufs is None else bufs
    tr = None
    for a in range(grid.dim):
        up = _shift(values, a, True, wrap, up)
        down = _shift(values, a, False, wrap, down)
        d = np.multiply(values, 2.0, out=d)
        np.subtract(up, d, out=d)
        np.add(d, down, out=d)
        np.divide(d, grid.h[a] ** 2, out=d)
        if trace:
            tr = d.copy() if tr is None else np.add(tr, d, out=tr)
        if a == 0:
            frob = np.multiply(d, d, out=frob)
        else:
            tmp = np.multiply(d, d, out=tmp)
            np.add(frob, tmp, out=frob)
    for a in range(grid.dim - 1):
        up = _shift(values, a, True, wrap, up)
        down = _shift(values, a, False, wrap, down)
        for b in range(a + 1, grid.dim):
            cross = _shift(up, b, True, wrap, d)
            tmp = _shift(up, b, False, wrap, tmp)
            np.subtract(cross, tmp, out=cross)
            np.subtract(cross, _shift(down, b, True, wrap, tmp), out=cross)
            np.add(cross, _shift(down, b, False, wrap, tmp), out=cross)
            np.divide(cross, 4.0 * grid.h[a] * grid.h[b], out=cross)
            np.multiply(cross, 2.0, out=tmp)
            np.add(frob, np.multiply(tmp, cross, out=tmp), out=frob)
    return tr, frob
