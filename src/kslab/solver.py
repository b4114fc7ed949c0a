"""Time integration of the coupled chemotaxis-consumption system.

The model is
    n_t = div(grad n - chi * n * grad c) + S_n
    c_t = lap c - n c + S_c
with homogeneous Neumann walls or a periodic torus.  The n update is in
conservative flux form (one telescoping divergence of the combined face
flux), so total mass of n is conserved to rounding.  The consumption term
is applied as an exact pointwise exponential c <- c * exp(-dt * n), which
keeps c nonnegative and its maximum non-increasing unconditionally when
n >= 0.  Diffusion of c is either explicit or, for scheme "imex", backward
Euler solved matrix-free by plain conjugate gradients to a 1e-10 relative
residual.  States are never mutated in place; every step builds fresh
arrays (double buffering).

step is one kernel on the operators module's faces (N per axis, face i the
lower face of cell i); c's face gradient and max n are computed once per
state and shared with the dt choice and the blow-up test.  A state is
validated once, by its constructor or, when stepped, by step itself.

Source hooks (used by manufactured-solution verification only) are
callables f(t) -> array of the grid's shape, added to the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import CorruptionError, PositivityError
from .grid import Field, Grid, _check_nonnegative, _readonly, _trusted
# chemotactic_flux: fused into step's kernel, bound here for perfbench's tracer
from .operators import (_chemotactic_faces, _div, _face_grads, _lower,  # noqa: F401
                        chemotactic_flux)

STATUS_OK = "ok"
STATUS_APPROACHING_BLOWUP = "approaching_blowup"
STATUS_CORRUPTED = "corrupted"

EXPLICIT_EULER = "explicit_euler"
IMEX = "imex"

_CG_TOL = 1e-10


@dataclass(frozen=True)
class State:
    """The pair (n, c) plus simulation time."""

    n: Field
    c: Field
    t: float

    def __post_init__(self):
        if not self.n.grid.compatible(self.c.grid):
            raise ValueError("n and c live on different grids")
        _check_nonnegative(self.n.values, "state: n")

    @property
    def grid(self) -> Grid:
        return self.n.grid

    @cached_property
    def c_face_gradient(self) -> tuple[np.ndarray, ...]:
        """c's face gradient per axis, built once per state."""
        return tuple(_face_grads(self.c.values, self.grid))

    @cached_property
    def n_max(self) -> float:
        """max n; step sets it from its own check of the new state."""
        return float(self.n.values.max())


@dataclass(frozen=True)
class SolverConfig:
    chi: float = 1.0
    scheme: str = EXPLICIT_EULER
    cfl_safety: float = 0.4
    dt_min: float = 1e-12
    dt_max: float = 0.1
    positivity_floor: float = 0.0  # diagnostics-only clip; never touches dynamics
    upwind: bool = True
    blowup_sup_threshold: float = 1e6
    dt_blowup_factor: float = 0.1

    def __post_init__(self):
        if not self.chi > 0.0:
            raise ValueError("chi must be positive")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.dt_min > self.dt_max:
            raise ValueError("dt_min must not exceed dt_max")
        if self.positivity_floor < 0.0:
            raise ValueError("positivity_floor must be nonnegative")
        if self.scheme not in (EXPLICIT_EULER, IMEX):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class StopRule:
    t_end: float
    max_steps: Optional[int] = None


@dataclass
class RunResult:
    state: State
    stop_reason: str  # finished | max_steps | blowup_threshold | corrupted | positivity
    steps: int
    dt_last: float = 0.0
    dt_smallest: float = math.inf
    dt_largest: float = 0.0
    dt_clamp_events: int = 0  # times the constraints asked for less than dt_min
    status: str = STATUS_OK


def _dt_unclamped(state: State, config: SolverConfig) -> float:
    """cfl_safety times the minimum of the active stability constraints."""
    grid = state.grid
    bounds = [grid.diffusion_dt]  # explicit diffusion of both equations
    for axis, gc in enumerate(state.c_face_gradient):
        speed = config.chi * float(np.abs(gc).max())
        if speed > 0.0:
            bounds.append(grid.h[axis] / speed)
    n_sup = state.n_max
    if n_sup > 0.0:
        bounds.append(1.0 / n_sup)  # consumption reaction scale
        bounds.append(config.dt_blowup_factor / n_sup)  # refine near blow-up
    return config.cfl_safety * min(bounds)


def choose_dt(state: State, config: SolverConfig) -> float:
    """Adaptive dt clamped to [dt_min, dt_max].

    If the stability constraints demand less than dt_min, dt_min is
    returned anyway; run() counts these clamp events as warnings.
    """
    dt = _dt_unclamped(state, config)
    return min(max(dt, config.dt_min), config.dt_max)


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

    # n: conservative flux form, diffusive minus chemotactic face flux
    flux = []
    for axis, gc in enumerate(state.c_face_gradient):
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
        c_half = rhs + dt * _div(state.c_face_gradient, grid)
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


def detect_divergence(state: State, config: SolverConfig) -> str:
    if not (np.isfinite(state.n.values).all() and np.isfinite(state.c.values).all()):
        return STATUS_CORRUPTED
    if state.n_max > config.blowup_sup_threshold:
        return STATUS_APPROACHING_BLOWUP
    return STATUS_OK


def run(state0: State, config: SolverConfig, stop: StopRule, *,
        on_sample: Optional[Callable[[State, int], None]] = None,
        sample_every: int = 1,
        on_snapshot: Optional[Callable[[State, int], None]] = None,
        snapshot_every: int = 0,
        source_n: Optional[Callable] = None,
        source_c: Optional[Callable] = None) -> RunResult:
    """choose_dt/step loop with cadenced sinks; errors become stop reasons."""
    state = state0
    result = RunResult(state=state, stop_reason="finished", steps=0)
    t_slack = 0.0 if math.isinf(stop.t_end) \
        else 1e-12 * max(1.0, abs(stop.t_end))
    last_sample = -1
    last_snapshot = -1

    def sample():
        nonlocal last_sample
        if on_sample is not None and result.steps != last_sample:
            on_sample(state, result.steps)
            last_sample = result.steps

    def snapshot():
        nonlocal last_snapshot
        if on_snapshot is not None and result.steps != last_snapshot:
            on_snapshot(state, result.steps)
            last_snapshot = result.steps

    status = detect_divergence(state, config)
    if status != STATUS_OK:
        result.status = status
        result.stop_reason = ("blowup_threshold"
                              if status == STATUS_APPROACHING_BLOWUP else status)
        sample()
        snapshot()
        return result

    sample()
    while stop.t_end - state.t > t_slack:
        if stop.max_steps is not None and result.steps >= stop.max_steps:
            result.stop_reason = "max_steps"
            break
        raw = _dt_unclamped(state, config)
        if raw < config.dt_min:
            result.dt_clamp_events += 1
        dt = min(max(raw, config.dt_min), config.dt_max, stop.t_end - state.t)
        try:
            state = step(state, dt, config, source_n=source_n, source_c=source_c)
        except CorruptionError:
            result.stop_reason = "corrupted"
            result.status = STATUS_CORRUPTED
            break
        except PositivityError:
            result.stop_reason = "positivity"
            break
        result.steps += 1
        result.dt_last = dt
        result.dt_smallest = min(result.dt_smallest, dt)
        result.dt_largest = max(result.dt_largest, dt)

        # step has checked finiteness; only the blow-up threshold is left
        if state.n_max > config.blowup_sup_threshold:
            result.status = STATUS_APPROACHING_BLOWUP
            result.stop_reason = "blowup_threshold"
            break

        if sample_every > 0 and result.steps % sample_every == 0:
            sample()
        if snapshot_every > 0 and result.steps % snapshot_every == 0:
            snapshot()

    result.state = state
    if math.isinf(result.dt_smallest):
        result.dt_smallest = 0.0
    sample()
    snapshot()
    return result
