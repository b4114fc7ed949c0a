"""diagnostics.evaluate as it was before it used a per-grid scratch,
frozen verbatim with the operator helpers it called, as the reference that
the buffered evaluate must match bit for bit.  Do not edit: it is the
definition of the expected record."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from kslab.diagnostics import DiagnosticsRecord
from kslab.grid import Grid, _check_nonnegative, lp_norm

_TINY_FLOOR = 1e-300


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


def _cell_sq(faces: Sequence[np.ndarray]) -> np.ndarray:
    """|v|^2 at cell centers from face arrays: each component is the
    average of a cell's two faces."""
    out = None
    for axis, comp in enumerate(faces):
        cell = 0.5 * (comp + _upper_face(comp, axis))
        out = cell * cell if out is None else out + cell * cell
    return out


def _face_quadrature(weight: np.ndarray, faces: Sequence[np.ndarray],
                     grid: Grid) -> float:
    """Sum over the faces of 0.5 * (lower + cell weight) * comp^2, times the
    cell volume; the box wall face (face 0, which carries 0) is left out."""
    total = 0.0
    for axis, comp in enumerate(faces):
        contrib = 0.5 * (_lower(weight, grid, axis) + weight) * comp * comp
        if not grid.periodic:
            contrib = contrib[_cuts(axis)[0]]
        total += float(np.sum(contrib))
    return total * grid.cell_volume


def evaluate(state, kappas: tuple[float, float, float], chi: float, s: float,
             floor: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every monitored functional on one state.

    kappas = (k1, k2, k3) weight the V/G pair; s selects the L^s norm
    tracked in n_ls_norm; floor is the diagnostics-only positivity clip.
    """
    k1, k2, k3 = (float(k) for k in kappas)
    grid = state.grid
    nv = state.n.values
    cv = state.c.values
    vol = grid.cell_volume

    n_sup = _check_nonnegative(nv, "n")
    c_sup = float(np.max(np.abs(cv))) if cv.size else 0.0

    floor_n = max(floor, 1e-12 * n_sup, _TINY_FLOOR)
    floor_c = max(floor, 1e-12 * c_sup, _TINY_FLOOR)
    n_reg = np.maximum(nv, floor_n)
    c_reg = np.maximum(cv, floor_c)
    c_pos = np.maximum(cv, 0.0)
    log_n = np.log(n_reg)
    log_c = np.log(c_reg)

    def integ(arr) -> float:
        return float(np.sum(arr)) * vol

    # each face gradient is built once
    gc_faces = _face_grads(cv, grid)
    glogn_faces = _face_grads(log_n, grid)
    gn_sq = _cell_sq(_face_grads(nv, grid))
    gc_sq = _cell_sq(gc_faces)
    gsqrtc_sq = _cell_sq(_face_grads(np.sqrt(c_pos), grid))
    glogn_sq = _cell_sq(glogn_faces)

    lap_c = _div(gc_faces, grid)

    mass = integ(nv)
    entropy = integ(nv * log_n)
    dirichlet_sqrt_c = 2.0 * integ(gsqrtc_sq)
    fisher = integ(gn_sq / n_reg)
    n_gradlog_sq = integ(nv * glogn_sq)
    n_gradc_sq = integ(nv * gc_sq)
    n_l2_sq = integ(nv * nv)
    cross_n2c = integ(nv * nv * cv)
    lap_c_l2_sq = integ(lap_c * lap_c)
    gradc_l4_4 = integ(gc_sq * gc_sq)
    cn3 = integ(cv * nv * nv * nv)
    c_gradn_sq = integ(cv * gn_sq)

    w_comps = [chi * gc_faces[a] - glogn_faces[a] for a in range(grid.dim)]
    kinetic = 0.5 * _face_quadrature(nv, w_comps, grid)

    V = (0.5 * n_gradlog_sq
         + (k1 / (2.0 * chi)) * cross_n2c
         + (k1 / chi**2) * n_l2_sq
         + (0.5 * k1 + k2) * n_gradc_sq
         + k2 * lap_c_l2_sq
         + k3 * gradc_l4_4)

    gradc_inf = math.sqrt(float(np.max(gc_sq)))
    n_ls_norm = lp_norm(state.n, s)
    c_mass = integ(cv)
    n_gradc_sq_over_c = integ(nv * gc_sq / c_reg)
    _, hess_logc = _hessian_parts(log_c, grid)
    c_hesslog_c_sq = integ(c_pos * hess_logc)

    return DiagnosticsRecord(
        t=float(state.t), mass=mass, n_sup=n_sup, c_sup=c_sup,
        entropy=entropy, dirichlet_sqrt_c=dirichlet_sqrt_c, fisher=fisher,
        n_gradlog_sq=n_gradlog_sq, n_gradc_sq=n_gradc_sq, n_l2_sq=n_l2_sq,
        cross_n2c=cross_n2c, lap_c_l2_sq=lap_c_l2_sq, gradc_l4_4=gradc_l4_4,
        cn3=cn3, c_gradn_sq=c_gradn_sq, kinetic_E=kinetic, V=V,
        gradc_inf=gradc_inf, n_ls_norm=n_ls_norm, c_mass=c_mass,
        n_gradc_sq_over_c=n_gradc_sq_over_c, c_hesslog_c_sq=c_hesslog_c_sq,
    )
