"""Functional evaluation, inequality monitors and criterion integrals.

Quadrature conventions (applied uniformly, mirrored by the brute-force
test oracle):

  - Gradient-based integrands are formed at cell centers by averaging the
    two adjacent face values per component, then squaring/summing.
  - The kinetic energy of the effective velocity w = chi*grad c - grad log n
    is the one face-centered quadrature: each face weighs one cell volume
    times the average of its two cells; the box wall face, where w is 0,
    is left out.
  - log/division diagnostics clip n (and c where divided) at a positivity
    floor, max(1e-12 * sup, 1e-300); the floor never feeds back into the
    dynamics.  n is not checked again: a State is validated once, by its
    constructor or by solver.step.  sqrt(c) clamps negative c at zero so
    signed verification fields remain evaluable.

V is the weighted nonnegative functional
    integral of [ n/2 |grad log n|^2 + k1/(2 chi) n^2 c + k1/chi^2 n^2
                  + (k1/2 + k2) n |grad c|^2 + k2 |lap c|^2 + k3 |grad c|^4 ].

evaluate writes every grid-sized intermediate into the grid's scratch
(Grid.scratch: 8 grid arrays held on the Grid for the calling thread and
reused by that thread's every later call, solver.step's included), taking
the face terms one axis at a time, with the same floating-point operations
in the same order as fresh arrays would take.  It takes the integrals in
phases, so that a row takes a new role once its last reader is done: the
n side, the face loop, the integrals of lap c and |grad c|^2, then the
Hessian of log c and the integrals of c_reg and c_pos.  It is not
reentrant within one thread; on another thread (solver.run's sink thread)
it has a block of its own.  winkler_ratio and pointwise_hessian_check, the
acceptance criteria's pointwise checks, work on fresh arrays.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PositivityError
from .grid import Field, Grid, lp_norm
from .operators import (_cuts, _div_term, _face_grad, _face_grads,
                        _hessian_parts, _lower, _upper_face)

WINKLER_CONSTANT = (2.0 + math.sqrt(3.0)) ** 2  # 13.9282...

_SCRATCH = 8  # grid arrays evaluate keeps in its grid's scratch: the most
# it holds at once, in phase 4's Hessian


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
    gradc_inf: float            # sup |grad c|
    n_ls_norm: float            # L^s norm of n, s the first criterion pair's s
    c_mass: float               # integral c
    n_gradc_sq_over_c: float    # integral n |grad c|^2 / c
    c_hesslog_c_sq: float       # integral c |hess log c|^2


CSV_FIELDS = [f.name for f in dataclasses.fields(DiagnosticsRecord)]


def _clip_level(sup: float) -> float:
    """The positivity floor of a diagnostic on a field of sup norm sup."""
    return max(1e-12 * sup, 1e-300)


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


def pointwise_hessian_check(field: Field) -> float:
    """max over cells of (trace of hess)^2 - dim * |hess|^2; <= 0 always.

    The trace reuses the same diagonal second differences as the Frobenius
    norm, so the bound is the cellwise Cauchy-Schwarz inequality on the
    diagonal and holds without tolerance.
    """
    trace, frob = _hessian_parts(field.values, field.grid, trace=True)
    return float(np.max(trace * trace - field.grid.dim * frob))


def winkler_ratio(n: Field) -> Optional[float]:
    """integral |grad n|^4 / n^3 over integral n |hess log n|^2.

    For positive fields with zero normal derivative the ratio is bounded by
    (2 + sqrt(dim))^2 <= WINKLER_CONSTANT.  Returns None for constant
    fields (0/0).  A nonpositive n is rejected.
    """
    nv = n.values
    if float(np.min(nv)) <= 0.0:
        raise PositivityError("winkler_ratio needs strictly positive n")
    grid = n.grid
    vol = grid.cell_volume
    gn_sq = _cell_sq(_face_grads(nv, grid))
    num = float(np.sum(gn_sq * gn_sq / (nv**3))) * vol
    _, hess_log = _hessian_parts(np.log(nv), grid)
    den = float(np.sum(nv * hess_log)) * vol
    if den == 0.0:
        return None
    return num / den


def evaluate(state, kappas: tuple[float, float, float], chi: float,
             s: float) -> DiagnosticsRecord:
    """Evaluate every monitored functional on one state.

    kappas = (k1, k2, k3) weight V; s selects the L^s norm tracked in
    n_ls_norm.
    Every grid-sized intermediate lives in the calling thread's block of
    the grid's scratch (see the module docstring), so evaluate is not
    reentrant on one grid within one thread.
    """
    k1, k2, k3 = (float(k) for k in kappas)
    grid = state.grid
    nv = state.n.values
    cv = state.c.values
    vol = grid.cell_volume
    rows = grid.scratch(_SCRATCH)
    log_n, gc_sq, glogn_sq, lap_c, grad_sq, face, shift, prod = rows
    hess_bufs = tuple(rows[2:7])  # free once lap c and glogn_sq are read

    n_sup = float(np.max(np.abs(nv, out=prod)))
    c_sup = float(np.max(np.abs(cv, out=prod)))

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
        return _cell_sq((_face_grad(values, grid, axis, face, shift)
                         for axis in range(grid.dim)), out, shift)

    # 1. the n side: n_reg, then log n, in one row; |grad n|^2 in gc_sq's
    n_reg = np.maximum(nv, _clip_level(n_sup), out=log_n)
    gn_sq = cell_sq(nv, gc_sq)
    fisher = integ(np.divide(gn_sq, n_reg, out=prod))
    c_gradn_sq = integ(mul(cv, gn_sq))
    np.log(n_reg, out=log_n)
    entropy = integ(mul(nv, log_n))

    # 2. c's and log n's faces, axis by axis: gc_sq, glogn_sq, lap c, kinetic
    kinetic = 0.0
    for axis in range(grid.dim):
        first = axis == 0
        gc = _face_grad(cv, grid, axis, face, shift)
        glog = _face_grad(log_n, grid, axis, grad_sq, shift)
        _add_cell_sq(gc_sq, gc, axis, first, shift)
        _add_cell_sq(glogn_sq, glog, axis, first, shift)
        if first:
            _div_term(gc, grid, axis, lap_c)
        else:
            np.add(lap_c, _div_term(gc, grid, axis, shift), out=lap_c)
        w = np.subtract(np.multiply(gc, chi, out=gc), glog, out=gc)
        kinetic += _face_term(nv, w, grid, axis, shift)
    kinetic = 0.5 * (kinetic * vol)

    # 3. the integrals of lap c and glogn_sq, and those of gc_sq alone
    n_gradlog_sq = integ(mul(nv, glogn_sq))
    n_gradc_sq = integ(mul(nv, gc_sq))
    lap_c_l2_sq = integ(mul(lap_c, lap_c))
    gradc_l4_4 = integ(mul(gc_sq, gc_sq))
    gradc_inf = math.sqrt(float(np.max(gc_sq)))

    # 4. the Hessian of log c; c_reg takes log n's row, then log c in it, and
    #    c_pos takes gc_sq's
    c_reg = np.maximum(cv, _clip_level(c_sup), out=log_n)
    n_gradc_sq_over_c = integ(np.divide(mul(nv, gc_sq), c_reg, out=prod))
    log_c = np.log(c_reg, out=c_reg)
    c_pos = np.maximum(cv, 0.0, out=gc_sq)
    c_hesslog_c_sq = integ(mul(c_pos, _hessian_parts(log_c, grid, hess_bufs)[1]))
    dirichlet_sqrt_c = 2.0 * integ(cell_sq(np.sqrt(c_pos, out=prod)))

    mass = integ(nv)
    n_l2_sq = integ(mul(nv, nv))
    cross_n2c = integ(mul(nv, nv, cv))
    cn3 = integ(mul(cv, nv, nv, nv))
    c_mass = integ(cv)
    n_ls_norm = lp_norm(state.n, s)

    with np.errstate(all="ignore"):  # chi^2 past the float range: 0 or inf
        k1_chi_sq = float(k1 / np.float64(chi) ** 2)  # libm pow, as chi**2
    V = (0.5 * n_gradlog_sq
         + (k1 / (2.0 * chi)) * cross_n2c
         + k1_chi_sq * n_l2_sq
         + (0.5 * k1 + k2) * n_gradc_sq
         + k2 * lap_c_l2_sq
         + k3 * gradc_l4_4)

    return DiagnosticsRecord(
        t=float(state.t), mass=mass, n_sup=n_sup, c_sup=c_sup,
        entropy=entropy, dirichlet_sqrt_c=dirichlet_sqrt_c, fisher=fisher,
        n_gradlog_sq=n_gradlog_sq, n_gradc_sq=n_gradc_sq, n_l2_sq=n_l2_sq,
        cross_n2c=cross_n2c, lap_c_l2_sq=lap_c_l2_sq, gradc_l4_4=gradc_l4_4,
        cn3=cn3, c_gradn_sq=c_gradn_sq, kinetic_E=kinetic, V=V,
        gradc_inf=gradc_inf, n_ls_norm=n_ls_norm, c_mass=c_mass,
        n_gradc_sq_over_c=n_gradc_sq_over_c, c_hesslog_c_sq=c_hesslog_c_sq,
    )


def admissible(s: float, r: float) -> bool:
    """Whether (s, r) is a pair of the blow-up criterion: 3/s + 2/r <= 2
    (an infinite exponent contributes 0)."""
    return 3.0 / s + 2.0 / r <= 2.0


def criterion_integral(ts: Sequence[float], values: Sequence[float],
                       r: float) -> float:
    """The trapezoid rule for the integral of values^r over the times ts,
    or the running max of values (from 0) when r is infinite; a power past
    the float range makes it inf.  Raises ValueError at the first pair of
    times out of order."""
    def power(v: float) -> float:
        try:
            return v**r
        except OverflowError:
            return math.inf

    total = 0.0
    for t0, t1, v0, v1 in zip(ts, ts[1:], values, values[1:]):
        if not t0 < t1:
            raise ValueError(f"records out of time order: {t0} !< {t1}")
        if math.isinf(r):
            total = max(total, v0, v1)
        else:
            total = total + 0.5 * (t1 - t0) * (power(v0) + power(v1))
    return total


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
# Every CSV artifact is one header line, then one line per row: a float cell
# to 17 significant digits, an int or a text cell as it is, None as an empty
# cell.  read_table gives the cells back as text.


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class TableWriter:
    """Streaming CSV writer: the header, then one flushed line per row."""

    def __init__(self, path, header: Sequence[str]):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(",".join(header) + "\n")

    def write_row(self, cells) -> None:
        self._fh.write(",".join(map(_cell, cells)) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_table(path, header: Optional[Sequence[str]] = None
               ) -> tuple[list[str], list[list[str]]]:
    """The header and the rows, as text cells, of a table.

    A given header must equal the first line once joined by commas (a
    column name may hold a comma), and every row must have as many cells as
    the header has names; a trailing blank line is allowed.  Anything else
    raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty table")
    if header is None:
        header = lines[0].split(",")
    elif lines[0] != ",".join(header):
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    for number, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise ValueError(f"{path}, line {number}: {len(row)} cells "
                             f"for {len(header)} columns")
    return list(header), rows


_RECORD_CELLS = operator.attrgetter(*CSV_FIELDS)


class DiagnosticsWriter(TableWriter):
    """Streaming writer of diagnostics.csv, one row per record."""

    def __init__(self, path):
        super().__init__(path, CSV_FIELDS)

    def write(self, record: DiagnosticsRecord) -> None:
        self.write_row(_RECORD_CELLS(record))


def check_time_order(path, ts: Sequence[float]) -> None:
    """Raise ValueError naming path and the line of the first row of a
    table whose t (ts, one per row from line 2) is not after the t above."""
    for line, (t0, t1) in enumerate(zip(ts, ts[1:]), 3):
        if not t0 < t1:
            raise ValueError(f"{path}, line {line}: rows out of time order: {t0!r} !< {t1!r}")


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    """diagnostics.csv's records; a malformed table raises ValueError naming it."""
    _, rows = read_table(path, CSV_FIELDS)
    records = [DiagnosticsRecord(*map(float, row)) for row in rows]
    check_time_order(path, [rec.t for rec in records])
    return records
