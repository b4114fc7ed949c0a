"""Structured cell-centered grids, scalar/vector fields, and quadrature.

Conventions used throughout the package:

  - Cells are uniform per axis: spacing h_a = extent_a / cells_a, cell
    center at (index + 0.5) * h_a.
  - topology "neumann_box": homogeneous Neumann walls realized by mirror
    ghost cells (ghost value = adjacent interior value), so the discrete
    normal derivative at every wall face is exactly zero.
  - topology "periodic_torus": wraparound ghosts.
  - Face-centered vector components have the grid's shape: along axis a,
    face i sits at i * h_a, the lower face of cell i.  On the box face 0 is
    the wall face and carries exactly 0; on the torus it is also the upper
    face of the last cell.
  - integrate() is the midpoint rule: sum(values) * cell_volume.  Sums are
    numpy pairwise reductions over C-contiguous arrays, so results are
    bit-identical across runs and independent of BLAS thread counts.
  - Fields are immutable once constructed (values exposed read-only) and
    validated finite at construction; NaN/Inf raises CorruptionError
    instead of propagating silently; solver.step validates its new arrays
    itself, once, and wraps them with _trusted.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CorruptionError, PositivityError, SnapshotError

NEUMANN_BOX = "neumann_box"
PERIODIC_TORUS = "periodic_torus"
TOPOLOGIES = (NEUMANN_BOX, PERIODIC_TORUS)

SNAPSHOT_MAGIC = b"KSF1"
_TOPOLOGY_BYTE = {NEUMANN_BOX: 0, PERIODIC_TORUS: 1}
_BYTE_TOPOLOGY = {v: k for k, v in _TOPOLOGY_BYTE.items()}


@dataclass(frozen=True)
class GridSpec:
    """Static description of a structured grid."""

    dim: int
    cells: tuple[int, ...]
    extent: tuple[float, ...]
    topology: str = NEUMANN_BOX

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.cells) != self.dim or len(self.extent) != self.dim:
            raise ValueError(
                f"cells and extent must have length dim={self.dim}, "
                f"got {len(self.cells)} and {len(self.extent)}"
            )
        if any(c < 4 for c in self.cells):
            raise ValueError(f"every axis needs at least 4 cells, got {self.cells}")
        if not all(0.0 < e < math.inf for e in self.extent):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")


class Grid:
    """Grid handle with precomputed spacings, volume and center coordinates."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.h = np.array([e / c for e, c in zip(spec.extent, spec.cells)])
        self.cell_volume = float(np.prod(self.h))
        self.shape = spec.cells
        self.size = int(np.prod(spec.cells))
        # explicit diffusion's dt bound, 1 / (2 * sum 1/h_a^2)
        self.diffusion_dt = 1.0 / (2.0 * float(np.sum(1.0 / self.h**2)))
        self._meshes: tuple[np.ndarray, ...] | None = None
        # .block: this thread's scratch; .spectral: its implicit-solve
        # workspace (solver._spectral)
        self._scratch = threading.local()

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def periodic(self) -> bool:
        return self.spec.topology == PERIODIC_TORUS

    def centers(self, axis: int) -> np.ndarray:
        """1D cell-center coordinates along one axis."""
        n = self.spec.cells[axis]
        return (np.arange(n) + 0.5) * self.h[axis]

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Full center-coordinate arrays (ij indexing), cached."""
        if self._meshes is None:
            axes = [self.centers(a) for a in range(self.dim)]
            self._meshes = tuple(np.meshgrid(*axes, indexing="ij"))
        return self._meshes

    @cached_property
    def laplacian_eigenvalues(self) -> tuple[np.ndarray, ...]:
        """Per axis, the eigenvalues of the 3-point second difference, each
        shaped to broadcast along its axis of the spectrum, so that their sum
        over axes is the spectrum of div(grad .): -(4/h^2) sin^2(pi k/N) for
        the torus's Fourier modes (the last axis keeps rfftn's N//2 + 1) and
        -(4/h^2) sin^2(pi k/(2N)) for the box's DCT-II modes."""
        out = []
        for axis, (cells, h) in enumerate(zip(self.shape, self.h)):
            if self.periodic:
                k = np.arange(cells // 2 + 1 if axis == self.dim - 1 else cells)
                theta = np.pi * k / cells
            else:
                theta = np.pi * np.arange(cells) / (2 * cells)
            lam = -(4.0 / h**2) * np.sin(theta) ** 2
            out.append(lam.reshape((-1,) + (1,) * (self.dim - 1 - axis)))
        return tuple(out)

    def scratch(self, count: int) -> np.ndarray:
        """count float64 arrays of the grid's shape, the rows of one block
        (so adjacent rows form a stacked pair), allocated on a thread's
        first use and handed out again by that thread's every later call: a
        workspace whose contents belong to the thread's latest caller
        (solver.step, diagnostics.evaluate).  Each thread has its own
        block, so calls on two threads never share rows.  A larger count
        replaces the calling thread's block."""
        block = getattr(self._scratch, "block", None)
        if block is None or len(block) < count:
            block = self._scratch.block = np.empty((count, *self.shape))
        return block[:count]

    def compatible(self, other: "Grid") -> bool:
        return self is other or self.spec == other.spec

    def __repr__(self):
        return f"Grid({self.spec})"


def make_grid(spec: GridSpec) -> Grid:
    """Build a grid handle; GridSpec construction enforces the invariants."""
    return Grid(spec)


def _readonly(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.setflags(write=False)
    return view


def _negative(low: float, sup: float) -> bool:
    """The rule for n >= 0 up to rounding: a field of minimum low and sup
    norm sup is negative when low < -1e-12 * max(sup, 1)."""
    return low < -1e-12 * max(sup, 1.0)


def _check_nonnegative(values: np.ndarray, what: str) -> float:
    """sup |values|; values negative by _negative's rule are a PositivityError."""
    sup = float(np.max(np.abs(values)))
    if _negative(float(np.min(values)), sup):
        raise PositivityError(f"{what} has negative cells")
    return sup


def _trusted(cls, **attrs):
    """A frozen dataclass built without its checks, from checked values."""
    obj = object.__new__(cls)
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Field:
    """One double-precision scalar per cell, immutable and finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise CorruptionError("field contains non-finite values")
        if not v.flags.c_contiguous:
            v = np.ascontiguousarray(v)
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class VectorField:
    """Per-axis face components, each of the grid's shape (see the module
    docstring); on the box, each component's wall face must be 0."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise ValueError(
                f"need {self.grid.dim} components, got {len(self.components)}"
            )
        comps = []
        for axis, comp in enumerate(self.components):
            comp = np.asarray(comp, dtype=np.float64)
            if comp.shape != self.grid.shape:
                raise ValueError(
                    f"component {axis} shape {comp.shape} != {self.grid.shape}"
                )
            if not np.isfinite(comp).all():
                raise CorruptionError("vector component contains non-finite values")
            if not self.grid.periodic and np.any(np.take(comp, 0, axis=axis)):
                raise ValueError(f"component {axis} is nonzero on the box wall face 0")
            comps.append(_readonly(np.ascontiguousarray(comp)))
        object.__setattr__(self, "components", tuple(comps))


def fill(grid: Grid, f: Callable) -> Field:
    """Sample f at cell centers: values[i] = f(center of cell i).

    f receives one coordinate array per axis (vectorized); plain scalar
    functions are wrapped with np.vectorize as a fallback.
    """
    meshes = grid.meshes()
    try:
        out = np.asarray(f(*meshes), dtype=np.float64)
    except (TypeError, ValueError):
        out = np.vectorize(f, otypes=[np.float64])(*meshes)
    if out.shape != grid.shape:
        out = np.broadcast_to(out, grid.shape)
    return Field(grid, np.array(out, dtype=np.float64))


def integrate(field: Field) -> float:
    """Midpoint quadrature: sum(values) * cell_volume (pairwise summation)."""
    total = float(np.sum(field.values)) * field.grid.cell_volume
    if not math.isfinite(total):
        raise CorruptionError("integral is non-finite")
    return total


def lp_norm(field: Field, p: float) -> float:
    """(integral of |f|^p)^(1/p); p = inf gives max|values|."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if math.isinf(p):
        return float(np.max(np.abs(field.values)))
    powers = np.abs(field.values)
    powers **= p  # in place: numpy's scalar-power fast path, one temporary
    total = float(np.sum(powers)) * field.grid.cell_volume
    if not math.isfinite(total):
        raise CorruptionError("norm is non-finite")
    return total ** (1.0 / p)


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


# --- snapshot file format -------------------------------------------------
#
# Little-endian binary, in this order:
#   4 bytes   magic "KSF1"
#   u32       dim
#   u32 * dim cells per axis
#   f64 * dim extent per axis
#   f64       time
#   u8        topology (0 = neumann_box, 1 = periodic_torus)
#   f64 * N   values, row-major (C order)


def write_snapshot(field: Field, time: float, path) -> None:
    spec = field.grid.spec
    header = SNAPSHOT_MAGIC + struct.pack(
        f"<I{spec.dim}I{spec.dim}ddB", spec.dim, *spec.cells, *spec.extent,
        float(time), _TOPOLOGY_BYTE[spec.topology])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[Field, float]:
    """The field and the time a KSF1 file holds.  A file that is not a
    well-formed snapshot raises SnapshotError; non-finite values in a
    well-formed one raise CorruptionError, as for any Field."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: not a KSF1 snapshot")
    try:
        (dim,) = struct.unpack_from("<I", raw, 4)
        if dim not in (1, 2, 3):
            raise SnapshotError(f"{path}: dim {dim} is not 1, 2 or 3")
        layout = f"<{dim}I{dim}ddB"  # cells, extent, time, topology
        *sizes, time, topo_byte = struct.unpack_from(layout, raw, 8)
    except struct.error:
        raise SnapshotError(f"{path}: header cut short") from None
    if topo_byte not in _BYTE_TOPOLOGY:
        raise SnapshotError(f"{path}: unknown topology byte {topo_byte}")
    cells, extent = tuple(sizes[:dim]), tuple(sizes[dim:])
    try:
        spec = GridSpec(dim=dim, cells=cells, extent=extent,
                        topology=_BYTE_TOPOLOGY[topo_byte])
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
    off = 8 + struct.calcsize(layout)
    size = off + 8 * math.prod(cells)
    if len(raw) != size:
        raise SnapshotError(f"{path}: {len(raw)} bytes, but its {cells} grid "
                            f"needs {size}")
    values = np.frombuffer(raw, dtype="<f8", offset=off)
    return Field(make_grid(spec), values.astype(np.float64).reshape(cells)), time
