"""Brute-force reference implementations, independent of the package kernels.

Everything here is written with plain Python loops, index arithmetic and
math.fsum so that agreement with the numpy code paths is a genuine
cross-check rather than a tautology.  The discretization conventions are
the documented ones: mirror ghosts on boxes, wraparound on tori, face
gradients averaged to cells, kinetic energy by face quadrature.
"""

from __future__ import annotations

import math
from itertools import product


class OracleGrid:
    def __init__(self, cells, extent, periodic):
        self.cells = tuple(cells)
        self.extent = tuple(extent)
        self.dim = len(cells)
        self.h = [e / c for e, c in zip(extent, cells)]
        self.vol = 1.0
        for hh in self.h:
            self.vol *= hh
        self.periodic = periodic

    def indices(self):
        return product(*(range(c) for c in self.cells))

    def value(self, values, idx):
        v = values
        for i in idx:
            v = v[i]
        return v

    def ghost(self, values, idx):
        """Resolve an index that may step one cell outside the grid."""
        fixed = []
        for axis, i in enumerate(idx):
            n = self.cells[axis]
            if 0 <= i < n:
                fixed.append(i)
            elif self.periodic:
                fixed.append(i % n)
            else:
                fixed.append(0 if i < 0 else n - 1)  # mirror ghost
        return self.value(values, tuple(fixed))


def _shift(idx, axis, delta):
    out = list(idx)
    out[axis] += delta
    return tuple(out)


def face_gradient(values, g: OracleGrid, axis: int, face_idx):
    """Gradient component at a face; face j sits between cells j-1 and j."""
    j = face_idx[axis]
    n = g.cells[axis]
    if not g.periodic and (j == 0 or j == n):
        return 0.0
    left = list(face_idx)
    left[axis] = (j - 1) % n
    right = list(face_idx)
    right[axis] = j % n
    return (g.value(values, tuple(right)) - g.value(values, tuple(left))) / g.h[axis]


def cell_gradient(values, g: OracleGrid, idx):
    """Cell-centered gradient: average of the two adjacent face values."""
    out = []
    for axis in range(g.dim):
        lo = face_gradient(values, g, axis, idx)
        hi = face_gradient(values, g, axis, _shift(idx, axis, 1))
        out.append(0.5 * (lo + hi))
    return out


def laplacian_cell(values, g: OracleGrid, idx):
    """Divergence of the face gradient at one cell."""
    total = 0.0
    for axis in range(g.dim):
        lo = face_gradient(values, g, axis, idx)
        hi = face_gradient(values, g, axis, _shift(idx, axis, 1))
        total += (hi - lo) / g.h[axis]
    return total


def hessian_entries(values, g: OracleGrid, idx):
    """(diagonal list, frobenius squared) with mirror/wrap ghosts."""
    diags = []
    for axis in range(g.dim):
        plus = g.ghost(values, _shift(idx, axis, 1))
        minus = g.ghost(values, _shift(idx, axis, -1))
        ctr = g.value(values, idx)
        diags.append((plus - 2.0 * ctr + minus) / g.h[axis] ** 2)
    frob = math.fsum(d * d for d in diags)
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            pp = g.ghost(values, _shift(_shift(idx, a, 1), b, 1))
            pm = g.ghost(values, _shift(_shift(idx, a, 1), b, -1))
            mp = g.ghost(values, _shift(_shift(idx, a, -1), b, 1))
            mm = g.ghost(values, _shift(_shift(idx, a, -1), b, -1))
            cross = (pp - pm - mp + mm) / (4.0 * g.h[a] * g.h[b])
            frob += 2.0 * cross * cross
    return diags, frob


def integrate(values, g: OracleGrid):
    return math.fsum(g.value(values, idx) for idx in g.indices()) * g.vol


def lp_norm(values, g: OracleGrid, p):
    if math.isinf(p):
        return max(abs(g.value(values, idx)) for idx in g.indices())
    total = math.fsum(abs(g.value(values, idx)) ** p for idx in g.indices()) * g.vol
    return total ** (1.0 / p)


def face_quadrature_energy(n_values, w_axis_fn, g: OracleGrid):
    """1/2 sum over physical faces of n_face * w^2 * face weight.

    w_axis_fn(axis, face_idx) supplies the component value on a face.
    """
    total = 0.0
    for axis in range(g.dim):
        n_faces = g.cells[axis] + (0 if g.periodic else 1)
        other = [range(c) for c in g.cells]
        other[axis] = range(n_faces)
        for face_idx in product(*other):
            j = face_idx[axis]
            n = g.cells[axis]
            if g.periodic:
                left = list(face_idx)
                left[axis] = (j - 1) % n
                right = list(face_idx)
                right[axis] = j % n
                nf = 0.5 * (g.value(n_values, tuple(left))
                            + g.value(n_values, tuple(right)))
                weight = g.vol
            else:
                if j == 0:
                    ref = list(face_idx)
                    ref[axis] = 0
                    nf = g.value(n_values, tuple(ref))
                    weight = 0.5 * g.vol
                elif j == n:
                    ref = list(face_idx)
                    ref[axis] = n - 1
                    nf = g.value(n_values, tuple(ref))
                    weight = 0.5 * g.vol
                else:
                    left = list(face_idx)
                    left[axis] = j - 1
                    right = list(face_idx)
                    right[axis] = j
                    nf = 0.5 * (g.value(n_values, tuple(left))
                                + g.value(n_values, tuple(right)))
                    weight = g.vol
            w = w_axis_fn(axis, face_idx)
            total += nf * w * w * weight
    return 0.5 * total


def evaluate_record(n_values, c_values, g: OracleGrid, kappas, chi, s,
                    floor=0.0):
    """Every monitored functional, recomputed from scratch."""
    k1, k2, k3 = kappas
    tiny = 1e-300

    cells = list(g.indices())
    n_at = lambda idx: g.value(n_values, idx)
    c_at = lambda idx: g.value(c_values, idx)

    n_sup = max(abs(n_at(idx)) for idx in cells)
    c_sup = max(abs(c_at(idx)) for idx in cells)
    floor_n = max(floor, 1e-12 * n_sup, tiny)
    floor_c = max(floor, 1e-12 * c_sup, tiny)

    n_reg = {idx: max(n_at(idx), floor_n) for idx in cells}
    c_reg = {idx: max(c_at(idx), floor_c) for idx in cells}
    c_pos = {idx: max(c_at(idx), 0.0) for idx in cells}

    log_n = _build(g, lambda idx: math.log(n_reg[idx]))
    log_c = _build(g, lambda idx: math.log(c_reg[idx]))
    sqrt_c = _build(g, lambda idx: math.sqrt(c_pos[idx]))

    def grad_sq(values, idx):
        comps = cell_gradient(values, g, idx)
        return math.fsum(v * v for v in comps)

    gn_sq = {idx: grad_sq(n_values, idx) for idx in cells}
    gc_sq = {idx: grad_sq(c_values, idx) for idx in cells}
    gsqrtc_sq = {idx: grad_sq(sqrt_c, idx) for idx in cells}
    glogn_sq = {idx: grad_sq(log_n, idx) for idx in cells}

    lap_c = _build(g, lambda idx: laplacian_cell(c_values, g, idx))

    def integ(fn):
        return math.fsum(fn(idx) for idx in cells) * g.vol

    mass = integ(lambda idx: n_at(idx))
    entropy = integ(lambda idx: n_at(idx) * math.log(n_reg[idx]))
    dirichlet_sqrt_c = 2.0 * integ(lambda idx: gsqrtc_sq[idx])
    fisher = integ(lambda idx: gn_sq[idx] / n_reg[idx])
    n_gradlog_sq = integ(lambda idx: n_at(idx) * glogn_sq[idx])
    n_gradc_sq = integ(lambda idx: n_at(idx) * gc_sq[idx])
    n_l2_sq = integ(lambda idx: n_at(idx) ** 2)
    cross_n2c = integ(lambda idx: n_at(idx) ** 2 * c_at(idx))
    lap_c_l2_sq = integ(lambda idx: g.value(lap_c, idx) ** 2)
    gradc_l4_4 = integ(lambda idx: gc_sq[idx] ** 2)
    cn3 = integ(lambda idx: c_at(idx) * n_at(idx) ** 3)
    c_gradn_sq = integ(lambda idx: c_at(idx) * gn_sq[idx])

    def w_component(axis, face_idx):
        return (chi * face_gradient(c_values, g, axis, face_idx)
                - face_gradient(log_n, g, axis, face_idx))

    kinetic = face_quadrature_energy(n_values, w_component, g)

    V = (0.5 * n_gradlog_sq + (k1 / (2.0 * chi)) * cross_n2c
         + (k1 / chi**2) * n_l2_sq + (0.5 * k1 + k2) * n_gradc_sq
         + k2 * lap_c_l2_sq + k3 * gradc_l4_4)

    gradc_inf = math.sqrt(max(gc_sq[idx] for idx in cells))
    n_ls_norm = lp_norm(n_values, g, s)
    c_mass = integ(lambda idx: c_at(idx))
    n_gradc_sq_over_c = integ(lambda idx: n_at(idx) * gc_sq[idx] / c_reg[idx])
    c_hesslog_c_sq = integ(
        lambda idx: c_pos[idx] * hessian_entries(log_c, g, idx)[1])

    return {
        "mass": mass, "n_sup": n_sup, "c_sup": c_sup, "entropy": entropy,
        "dirichlet_sqrt_c": dirichlet_sqrt_c, "fisher": fisher,
        "n_gradlog_sq": n_gradlog_sq, "n_gradc_sq": n_gradc_sq,
        "n_l2_sq": n_l2_sq, "cross_n2c": cross_n2c,
        "lap_c_l2_sq": lap_c_l2_sq, "gradc_l4_4": gradc_l4_4, "cn3": cn3,
        "c_gradn_sq": c_gradn_sq, "kinetic_E": kinetic, "V": V,
        "gradc_inf": gradc_inf, "n_ls_norm": n_ls_norm, "c_mass": c_mass,
        "n_gradc_sq_over_c": n_gradc_sq_over_c,
        "c_hesslog_c_sq": c_hesslog_c_sq,
    }


def _build(g: OracleGrid, fn):
    """Nested-list field built from a per-index function."""
    def rec(axis, prefix):
        if axis == g.dim:
            return fn(tuple(prefix))
        return [rec(axis + 1, prefix + [i]) for i in range(g.cells[axis])]

    return rec(0, [])
