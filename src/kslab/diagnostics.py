"""Functional evaluation, inequality monitors and criterion accumulators.

Quadrature conventions (applied uniformly, mirrored by the brute-force
test oracle):

  - Gradient-based integrands are formed at cell centers by averaging the
    two adjacent face values per component, then squaring/summing.
  - The kinetic energy of the effective velocity w = chi*grad c - grad log n
    is the one face-centered quadrature: each face weighs one cell volume
    times the average of its two cells; the box wall face, where w is 0,
    is left out.
  - log/division diagnostics clip n (and c where divided) at a positivity
    floor, max(config floor, 1e-12 * sup); the floor never feeds back into
    the dynamics.  sqrt(c) clamps negative c at zero so signed verification
    fields remain evaluable.

V is the weighted nonnegative functional
    integral of [ n/2 |grad log n|^2 + k1/(2 chi) n^2 c + k1/chi^2 n^2
                  + (k1/2 + k2) n |grad c|^2 + k2 |lap c|^2 + k3 |grad c|^4 ]
and G is its companion dissipation rate
    k1/chi^2 |grad n|^2 + k1/(2 chi) c n^3 + k1/chi c|grad n|^2
    + k2/2 |grad c_t|^2 + k2/2 |grad lap c|^2 + (k1+k2)/4 n |lap c|^2
    + k3 |grad |grad c|^2|^2 + 4 k3 |hess c|^2 |grad c|^2
    + 1/16 n |hess log n|^2,
with c_t evaluated pointwise from the model as lap c - n c.

evaluate writes every grid-sized intermediate into the grid's scratch
(Grid.scratch, 17 grid arrays held on the Grid and reused by every later
call), taking the face terms one axis at a time, with the same floating-
point operations in the same order as fresh arrays would take.  It is not
reentrant: concurrent calls on one grid overwrite each other's scratch.
The public functions below it return fresh arrays.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import PositivityError
from .grid import Field, Grid, VectorField, _check_nonnegative, lp_norm
from .operators import (_cuts, _div_term, _face_grad, _face_grads,
                        _hessian_parts, _lower, _upper_face)

WINKLER_CONSTANT = (2.0 + math.sqrt(3.0)) ** 2  # 13.9282...

_SCRATCH = 17  # grid arrays evaluate keeps in its grid's scratch


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time-stamped row of every monitored functional."""

    t: float
    mass: float                 # integral n
    n_sup: float                # sup |n|
    c_sup: float                # sup |c|
    entropy: float              # integral n log n
    dirichlet_sqrt_c: float     # 2 integral |grad sqrt(c)|^2
    fisher: float               # integral |grad n|^2 / n
    n_gradlog_sq: float         # integral n |grad log n|^2
    n_gradc_sq: float           # integral n |grad c|^2
    n_l2_sq: float              # integral n^2
    cross_n2c: float            # integral n^2 c
    lap_c_l2_sq: float          # integral |lap c|^2
    gradc_l4_4: float           # integral |grad c|^4
    cn3: float                  # integral c n^3
    c_gradn_sq: float           # integral c |grad n|^2
    kinetic_E: float            # 1/2 integral n |w|^2, face quadrature
    V: float                    # weighted functional, see module docstring
    G: float                    # companion dissipation rate
    gradc_inf: float            # sup |grad c|
    n_ls_norm: float            # L^s norm of n for the configured s
    c_mass: float               # integral c
    n_gradc_sq_over_c: float    # integral n |grad c|^2 / c
    c_hesslog_c_sq: float       # integral c |hess log c|^2


CSV_FIELDS = [f.name for f in dataclasses.fields(DiagnosticsRecord)]


@dataclass(frozen=True)
class CriterionAccumulator:
    """Running space-time criterion integrals for one (s, r) pair.

    value_ns tracks integral_0^t ||n||_{L^s}^r dtau (running max of the
    norm when r is infinite); value_gc tracks integral_0^t ||grad c||_inf^2.
    """

    s: float
    r: float
    value_ns: float = 0.0
    value_gc: float = 0.0

    def __post_init__(self):
        if not self.s > 1.5:
            raise ValueError(f"s must exceed 3/2, got {self.s}")
        if self.r < 1.0:
            raise ValueError(f"r must be at least 1, got {self.r}")

    @property
    def admissible(self) -> bool:
        three_over_s = 0.0 if math.isinf(self.s) else 3.0 / self.s
        two_over_r = 0.0 if math.isinf(self.r) else 2.0 / self.r
        return three_over_s + two_over_r <= 2.0


def _clip_level(floor: float, sup: float) -> float:
    """The positivity floor of a diagnostic on a field of sup norm sup."""
    return max(floor, 1e-12 * sup, 1e-300)


def _add_cell_sq(acc, comp: np.ndarray, axis: int, first: bool,
                 tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """acc + cell^2 (cell^2 into acc when first), cell being the average of
    each cell's two faces of one component; tmp optionally holds cell."""
    cell = _upper_face(comp, axis, tmp)
    np.add(comp, cell, out=cell)
    np.multiply(cell, 0.5, out=cell)
    if first:
        return np.multiply(cell, cell, out=acc)
    return np.add(acc, np.multiply(cell, cell, out=cell), out=acc)


def _cell_sq(faces, out: Optional[np.ndarray] = None,
             tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """|v|^2 at cell centers from face arrays, taken one axis at a time (a
    generator of faces is consumed as it goes); out and tmp are optional
    buffers for the result and the cell average."""
    for axis, comp in enumerate(faces):
        out = _add_cell_sq(out, comp, axis, axis == 0, tmp)
    return out


def _face_term(weight: np.ndarray, comp: np.ndarray, grid: Grid, axis: int,
               tmp: Optional[np.ndarray] = None) -> float:
    """Sum over one axis's faces of 0.5 * (lower + cell weight) * comp^2;
    the box wall face (face 0, which carries 0) is left out."""
    contrib = _lower(weight, grid, axis, tmp)
    np.add(contrib, weight, out=contrib)
    np.multiply(contrib, 0.5, out=contrib)
    np.multiply(contrib, comp, out=contrib)
    np.multiply(contrib, comp, out=contrib)
    if not grid.periodic:
        contrib = contrib[_cuts(axis)[0]]
    return float(np.sum(contrib))


def _face_quadrature(weight: np.ndarray, faces: Sequence[np.ndarray],
                     grid: Grid) -> float:
    """Sum of _face_term over the axes, times the cell volume."""
    total = 0.0
    for axis, comp in enumerate(faces):
        total += _face_term(weight, comp, grid, axis)
    return total * grid.cell_volume


def effective_velocity(n: Field, c: Field, chi: float,
                       floor: Optional[float] = None) -> VectorField:
    """Face-centered w = chi * grad c - grad log n.

    log n is taken after clipping n at evaluate's level for it,
    max(floor, 1e-12 * sup n, 1e-300); with floor=None a nonpositive n is
    rejected instead of clipped.
    """
    grid = n.grid
    nv = n.values
    if floor is None:
        if float(np.min(nv)) <= 0.0:
            raise PositivityError("effective_velocity needs strictly positive n")
        n_reg = nv
    else:
        n_reg = np.maximum(nv, _clip_level(floor, float(np.max(np.abs(nv)))))
    gc = _face_grads(c.values, grid)
    glog = _face_grads(np.log(n_reg), grid)
    comps = tuple(chi * gc[a] - glog[a] for a in range(grid.dim))
    return VectorField(grid, comps)


def kinetic_energy(n: Field, w: VectorField) -> float:
    """1/2 integral n |w|^2 by face quadrature with face-averaged n."""
    return 0.5 * _face_quadrature(n.values, w.components, n.grid)


def pointwise_hessian_check(field: Field) -> float:
    """max over cells of (trace of hess)^2 - dim * |hess|^2; <= 0 always.

    The trace reuses the same diagonal second differences as the Frobenius
    norm, so the bound is the cellwise Cauchy-Schwarz inequality on the
    diagonal and holds without tolerance.
    """
    trace, frob = _hessian_parts(field.values, field.grid, trace=True)
    return float(np.max(trace * trace - field.grid.dim * frob))


def winkler_ratio(n: Field, floor: Optional[float] = None) -> Optional[float]:
    """integral |grad n|^4 / n^3 over integral n |hess log n|^2.

    For positive fields with zero normal derivative the ratio is bounded by
    (2 + sqrt(dim))^2 <= WINKLER_CONSTANT.  Returns None for constant
    fields (0/0).  A floor clips n at evaluate's level (_clip_level); with
    floor=None a nonpositive n is rejected instead.
    """
    nv = n.values
    if floor is None:
        if float(np.min(nv)) <= 0.0:
            raise PositivityError("winkler_ratio needs strictly positive n")
        n_reg = nv
    else:
        if float(np.min(nv)) < 0.0:
            raise PositivityError("winkler_ratio: n has negative cells")
        n_reg = np.maximum(nv, _clip_level(floor, float(np.max(nv))))
    grid = n.grid
    vol = grid.cell_volume
    gn_sq = _cell_sq(_face_grads(n_reg, grid))
    num = float(np.sum(gn_sq * gn_sq / (n_reg**3))) * vol
    _, hess_log = _hessian_parts(np.log(n_reg), grid)
    den = float(np.sum(n_reg * hess_log)) * vol
    if den == 0.0:
        return None
    return num / den


def evaluate(state, kappas: tuple[float, float, float], chi: float, s: float,
             floor: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every monitored functional on one state.

    kappas = (k1, k2, k3) weight the V/G pair; s selects the L^s norm
    tracked in n_ls_norm; floor is the diagnostics-only positivity clip.
    Every grid-sized intermediate lives in the grid's scratch (see the
    module docstring), so evaluate is not reentrant on one grid.
    """
    k1, k2, k3 = (float(k) for k in kappas)
    grid = state.grid
    nv = state.n.values
    cv = state.c.values
    vol = grid.cell_volume
    (n_reg, log_n, c_reg, log_c, c_pos, gn_sq, gc_sq, glogn_sq, lap_c, grad_sq,
     face_c, face_l, shift, prod, hess, up, down) = grid.scratch(_SCRATCH)
    hess_bufs = (hess, up, down, face_c, shift)

    n_sup = _check_nonnegative(nv, "n")
    c_sup = float(np.max(np.abs(cv, out=prod))) if cv.size else 0.0

    np.maximum(nv, _clip_level(floor, n_sup), out=n_reg)
    np.maximum(cv, _clip_level(floor, c_sup), out=c_reg)
    np.maximum(cv, 0.0, out=c_pos)
    np.log(n_reg, out=log_n)
    np.log(c_reg, out=log_c)

    def integ(arr) -> float:
        return float(np.sum(arr)) * vol

    def mul(first, *factors) -> np.ndarray:
        """The product of the factors, left to right, in prod."""
        out = np.multiply(first, factors[0], out=prod)
        for f in factors[1:]:
            np.multiply(out, f, out=out)
        return out

    def cell_sq(values, out=grad_sq) -> np.ndarray:
        """_cell_sq of values' face gradient, one axis at a time."""
        return _cell_sq((_face_grad(values, grid, axis, face_c, shift)
                         for axis in range(grid.dim)), out, shift)

    cell_sq(nv, gn_sq)
    # c's and log n's faces, axis by axis: gc_sq, glogn_sq, lap c, kinetic
    kinetic = 0.0
    for axis in range(grid.dim):
        first = axis == 0
        gc = _face_grad(cv, grid, axis, face_c, shift)
        glog = _face_grad(log_n, grid, axis, face_l, shift)
        _add_cell_sq(gc_sq, gc, axis, first, shift)
        _add_cell_sq(glogn_sq, glog, axis, first, shift)
        if first:
            _div_term(gc, grid, axis, lap_c)
        else:
            np.add(lap_c, _div_term(gc, grid, axis, shift), out=lap_c)
        w = np.subtract(np.multiply(gc, chi, out=gc), glog, out=gc)
        kinetic += _face_term(nv, w, grid, axis, shift)
    kinetic = 0.5 * (kinetic * vol)

    mass = integ(nv)
    entropy = integ(mul(nv, log_n))
    dirichlet_sqrt_c = 2.0 * integ(cell_sq(np.sqrt(c_pos, out=prod)))
    fisher = integ(np.divide(gn_sq, n_reg, out=prod))
    n_gradlog_sq = integ(mul(nv, glogn_sq))
    n_gradc_sq = integ(mul(nv, gc_sq))
    n_l2_sq = integ(mul(nv, nv))
    cross_n2c = integ(mul(nv, nv, cv))
    lap_c_l2_sq = integ(mul(lap_c, lap_c))
    gradc_l4_4 = integ(mul(gc_sq, gc_sq))
    cn3 = integ(mul(cv, nv, nv, nv))
    c_gradn_sq = integ(mul(cv, gn_sq))

    V = (0.5 * n_gradlog_sq
         + (k1 / (2.0 * chi)) * cross_n2c
         + (k1 / chi**2) * n_l2_sq
         + (0.5 * k1 + k2) * n_gradc_sq
         + k2 * lap_c_l2_sq
         + k3 * gradc_l4_4)

    gradn_l2_sq = integ(gn_sq)
    c_t = np.subtract(lap_c, mul(nv, cv), out=prod)
    grad_ct_sq = integ(cell_sq(c_t))
    grad_lapc_sq = integ(cell_sq(lap_c))
    grad_gcsq_sq = integ(cell_sq(gc_sq))
    hessc_gradc = integ(mul(_hessian_parts(cv, grid, hess_bufs)[1], gc_sq))
    n_lapc_sq = integ(mul(nv, lap_c, lap_c))
    n_hesslog_sq = integ(mul(nv, _hessian_parts(log_n, grid, hess_bufs)[1]))

    G = ((k1 / chi**2) * gradn_l2_sq
         + (k1 / (2.0 * chi)) * cn3
         + (k1 / chi) * c_gradn_sq
         + 0.5 * k2 * grad_ct_sq
         + 0.5 * k2 * grad_lapc_sq
         + 0.25 * (k1 + k2) * n_lapc_sq
         + k3 * grad_gcsq_sq
         + 4.0 * k3 * hessc_gradc
         + (1.0 / 16.0) * n_hesslog_sq)

    gradc_inf = math.sqrt(float(np.max(gc_sq)))
    n_ls_norm = lp_norm(state.n, s)
    c_mass = integ(cv)
    n_gradc_sq_over_c = integ(np.divide(mul(nv, gc_sq), c_reg, out=prod))
    c_hesslog_c_sq = integ(mul(c_pos, _hessian_parts(log_c, grid, hess_bufs)[1]))

    return DiagnosticsRecord(
        t=float(state.t), mass=mass, n_sup=n_sup, c_sup=c_sup,
        entropy=entropy, dirichlet_sqrt_c=dirichlet_sqrt_c, fisher=fisher,
        n_gradlog_sq=n_gradlog_sq, n_gradc_sq=n_gradc_sq, n_l2_sq=n_l2_sq,
        cross_n2c=cross_n2c, lap_c_l2_sq=lap_c_l2_sq, gradc_l4_4=gradc_l4_4,
        cn3=cn3, c_gradn_sq=c_gradn_sq, kinetic_E=kinetic, V=V, G=G,
        gradc_inf=gradc_inf, n_ls_norm=n_ls_norm, c_mass=c_mass,
        n_gradc_sq_over_c=n_gradc_sq_over_c, c_hesslog_c_sq=c_hesslog_c_sq,
    )


def update_accumulators(acc: CriterionAccumulator,
                        t0: float, n_ls0: float, gradc0: float,
                        t1: float, n_ls1: float, gradc1: float
                        ) -> CriterionAccumulator:
    """Trapezoidal update over [t0, t1] from each endpoint's L^s norm of n
    (for acc's s) and sup |grad c|."""
    if not t0 < t1:
        raise ValueError(f"records out of time order: {t0} !< {t1}")
    dt = t1 - t0
    if math.isinf(acc.r):
        value_ns = max(acc.value_ns, n_ls0, n_ls1)
    else:
        value_ns = acc.value_ns + 0.5 * dt * (n_ls0**acc.r + n_ls1**acc.r)
    value_gc = acc.value_gc + 0.5 * dt * (gradc0**2 + gradc1**2)
    return replace(acc, value_ns=value_ns, value_gc=value_gc)


def energy_inequality_residual(window: Sequence[DiagnosticsRecord],
                               C: float, chi: float) -> float:
    """Discrete residual of the entropy/Dirichlet energy inequality.

    residual = d/dt (entropy + dirichlet_sqrt_c)
               + fisher + chi/2 * (n_gradc_sq_over_c + c_hesslog_c_sq)
               - C * integral c,
    with the derivative taken between the window endpoints and the other
    terms trapezoid-averaged over the window.  Nonpositive residuals mean
    the inequality is numerically respected.
    """
    if len(window) < 2:
        raise ValueError("need at least two records")
    t = np.array([r.t for r in window])
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("records out of time order")
    span = float(t[-1] - t[0])
    F = [r.entropy + r.dirichlet_sqrt_c for r in window]
    dF = (F[-1] - F[0]) / span
    rhs_minus_diss = np.array([
        r.fisher + 0.5 * chi * (r.n_gradc_sq_over_c + r.c_hesslog_c_sq)
        - C * r.c_mass
        for r in window
    ])
    avg = float(np.trapezoid(rhs_minus_diss, t)) / span
    return dF + avg


# --- CSV interface ----------------------------------------------------------


class DiagnosticsWriter:
    """Streaming CSV writer: fixed column order, 17 significant digits."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(",".join(CSV_FIELDS) + "\n")

    def write(self, record: DiagnosticsRecord) -> None:
        row = ",".join(f"{getattr(record, name):.17g}" for name in CSV_FIELDS)
        self._fh.write(row + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def write_diagnostics_csv(records: Sequence[DiagnosticsRecord], path) -> None:
    with DiagnosticsWriter(path) as writer:
        for rec in records:
            writer.write(rec)


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_FIELDS:
            raise ValueError(f"{path}: unexpected diagnostics header")
        records = []
        for line in fh:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            records.append(DiagnosticsRecord(
                **{name: float(v) for name, v in zip(CSV_FIELDS, parts)}))
    return records
