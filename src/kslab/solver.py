"""Time integration of the coupled chemotaxis-consumption system.

The model is
    n_t = div(grad n - chi * n * grad c) + S_n
    c_t = lap c - n c + S_c
with homogeneous Neumann walls or a periodic torus.  The n update is in
conservative flux form (one telescoping divergence of the combined face
flux), so total mass of n is conserved to rounding.  The consumption term
is applied as an exact pointwise exponential c <- c * exp(-dt * n), which
keeps c nonnegative and its maximum non-increasing unconditionally when
n >= 0.  Diffusion of both equations is either explicit (dt bounded by
h^2/(2 dim)) or, for scheme "imex", backward Euler, solved exactly: the
discrete Laplacian is diagonal in the torus's Fourier modes (rfftn) and
in the Neumann box's DCT-II modes (Makhoul's DCT: one N-point real FFT
per axis), so a step takes one forward and one inverse transform of the pair
(n, c), stacked (against two separate solves, 29-46% faster at 16^2 and
64^2, at most 9% slower at 256^2 and 32^3), and diffusion sets no dt bound.
numpy.fft is imported on the first implicit step, so explicit runs never
load it.  The imex step keeps advection and consumption explicit;
(I - dt lap)^{-1} is entrywise positive and keeps the mean, so n >= 0
holds under the advection bound alone (cfl_safety <= 1/(2 dim) in the
worst case).  States are never mutated in place: a step's new n and c
(under imex, the two rows of the solve's one fresh result), its per-axis
face density n_face and c's face gradient are fresh arrays; every other
intermediate of the kernel (the lower neighbour, the face pair, the
divergence accumulator, exp(-dt n)) lives in the grid's scratch
(Grid.scratch), one block per thread, which diagnostics.evaluate
on the same thread shares, and the implicit solve's input pair, spectra
and denominator live in the grid's spectral workspace (_spectral), also
one per thread.  step is therefore not reentrant on one grid within one thread.

run steps on its caller's thread and, on a grid of at least 32^3 cells,
hands its sink calls (on_sample, on_snapshot) to one sink thread, in call
order, so sampling overlaps stepping where numpy releases the interpreter
lock; on smaller grids the sinks run on the caller's thread.  Either way
they see the same immutable n and c arrays, at the same times and in the
same order, as a serial loop would show them, so every artifact is the
same to the byte.

step is one kernel on the operators module's faces (N per axis, face i the
lower face of cell i): per axis, n's face flux and c's face gradient are
stacked as a pair and differenced in one divergence pass.  run builds
c's face gradient once per step for the dt choice and step and drops it
after the step, so no state it reads or hands to a sink holds one (a
standalone choose_dt or step caches it on the state); max n is computed
once per state and shared with the dt choice and the blow-up test.  A
state is validated once, by its constructor or, when stepped, by step.

Source hooks (used by manufactured-solution verification only) are
callables f(t) -> array of the grid's shape, added to the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CorruptionError, PositivityError
from .grid import Field, Grid, _check_nonnegative, _negative, _readonly, _trusted
# chemotactic_flux: fused into step's kernel, bound here for perfbench's tracer
from .operators import (_chemotactic_faces, _div_term, _face_grads,  # noqa: F401
                        _lower, chemotactic_flux)

EXPLICIT_EULER = "explicit_euler"
IMEX = "imex"

# run hands its sink calls to a sink thread only on grids of at least this
# many cells.  On smaller grids the hand-off costs more than the overlap
# gives back: numpy keeps the interpreter lock over short loops, and where
# it drops it the two threads trade the lock at every ufunc call.  Measured
# with an evaluate sink, a 16^3 box run sampled every 5 steps took 505 us a
# step on the thread and 305 us without it; 28^3 is the smallest box where
# the thread won.  Sinks below the size run on run's own thread.
_SINK_THREAD_CELLS = 32 ** 3


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
    upwind: bool = True
    blowup_sup_threshold: float = 1e6
    dt_blowup_factor: float = 0.1

    def __post_init__(self):
        if not self.chi > 0.0:
            raise ValueError("chi must be positive")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not 0.0 < self.dt_min <= self.dt_max:  # else time cannot advance
            raise ValueError("dt_min must be positive and not exceed dt_max")
        if not self.dt_blowup_factor > 0.0:
            raise ValueError("dt_blowup_factor must be positive")
        if self.scheme not in (EXPLICIT_EULER, IMEX):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class StopRule:
    t_end: float
    max_steps: Optional[int] = None

    def reached(self, t: float) -> bool:
        """t_end - t is at most the end-time slack 1e-12 * max(1, |t_end|),
        or 0 for t_end = inf, which no t reaches."""
        slack = 0.0 if math.isinf(self.t_end) else 1e-12 * max(1.0, abs(self.t_end))
        return not self.t_end - t > slack


@dataclass
class RunResult:
    state: State
    stop_reason: str  # finished | max_steps | blowup_threshold | corrupted | positivity
    steps: int
    dt_last: float = 0.0
    dt_smallest: float = math.inf
    dt_largest: float = 0.0
    dt_clamp_events: int = 0  # times the constraints asked for less than dt_min


def _dt_unclamped(state: State, config: SolverConfig,
                  c_face_gradient: Optional[Sequence[np.ndarray]] = None) -> float:
    """cfl_safety times the minimum of the active stability constraints;
    c_face_gradient defaults to the state's cached one."""
    grid = state.grid
    # explicit diffusion of both equations; under imex diffusion sets no bound
    bounds = [grid.diffusion_dt] if config.scheme == EXPLICIT_EULER else []
    for axis, gc in enumerate(c_face_gradient or state.c_face_gradient):
        speed = config.chi * max(float(gc.max()), -float(gc.min()))  # no |gc| array
        if speed > 0.0:
            bounds.append(grid.h[axis] / speed)
    n_sup = state.n_max
    if n_sup > 0.0:
        # the consumption reaction scale, refined near blow-up
        bounds.append(min(1.0, config.dt_blowup_factor) / n_sup)
    return config.cfl_safety * min(bounds, default=math.inf)


def choose_dt(state: State, config: SolverConfig) -> float:
    """Adaptive dt clamped to [dt_min, dt_max].

    If the stability constraints demand less than dt_min, dt_min is
    returned anyway; run() counts these clamp events as warnings.
    """
    dt = _dt_unclamped(state, config)
    return min(max(dt, config.dt_min), config.dt_max)


@lru_cache(maxsize=None)
def _dct_plan(cells: int, trailing: int) -> tuple[np.ndarray, ...]:
    """Makhoul's map of an N-point DCT-II onto an N-point real FFT: the cell
    order (even cells ascending, then odd cells descending), its inverse,
    and the twiddles exp(-i pi k / (2N)) of the rfft's N//2 + 1 modes and
    their conjugates, shaped to broadcast along an axis followed by
    `trailing` axes."""
    order = np.concatenate((np.arange(0, cells, 2), np.arange(1, cells, 2)[::-1]))
    twiddle = np.exp(-0.5j * np.pi * np.arange(cells // 2 + 1) / cells)
    twiddle = twiddle.reshape((-1,) + (1,) * trailing)
    return order, np.argsort(order), twiddle, twiddle.conj()


def _along(axis: int, *span) -> tuple:
    """The index of slice(*span) along a negative axis."""
    return (..., slice(*span)) + (slice(None),) * (-1 - axis)


def _dct(x: np.ndarray, axis: int, fft, rows: np.ndarray, spec: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """X_k = sum_i x_i cos(pi k (2i + 1) / (2N)) along a negative axis, into
    out (which may be x): with Y = twiddle * rfft(x in Makhoul's order),
    X_k = Re Y_k up to k = N//2 and X_{N-k} = -Im Y_k below it.  rows (x's
    shape) and spec (the rfft's) are workspace."""
    cells = x.shape[axis]
    order, _, twiddle, _ = _dct_plan(cells, -1 - axis)
    half = cells // 2 + 1
    # the indices are valid, so "clip" changes nothing; "raise" would buffer out
    np.take(x, order, axis=axis, out=rows, mode="clip")
    fft.rfft(rows, axis=axis, out=spec)
    spec *= twiddle
    out[_along(axis, half)] = spec.real
    np.negative(spec.imag[_along(axis, cells - half, 0, -1)],
                out=out[_along(axis, half, None)])
    return out


def _idct(x: np.ndarray, axis: int, fft, rows: np.ndarray, spec: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """The inverse of _dct, into out (which may be x): V_k = conj(twiddle_k)
    (X_k - i X_{N-k}), X_N = 0, for k up to N//2, is the rfft of x in
    Makhoul's order, so an inverse real FFT and the cells put back in their
    order give x.  rows and spec are workspace, as in _dct."""
    cells = x.shape[axis]
    _, inverse, _, conj_twiddle = _dct_plan(cells, -1 - axis)
    half = cells // 2 + 1
    spec.real = x[_along(axis, half)]
    spec.imag[_along(axis, 1)] = 0.0
    np.negative(x[_along(axis, cells - 1, cells - half, -1)],
                out=spec.imag[_along(axis, 1, None)])
    spec *= conj_twiddle
    fft.irfft(spec, n=cells, axis=axis, out=rows)
    return np.take(rows, inverse, axis=axis, out=out, mode="clip")


class _Spectral:
    """One grid's implicit-solve workspace on one thread (see _spectral):
    the real input pair, the box's reordered rows, room for the pair's
    complex spectrum along each axis (the torus needs the last axis only),
    and the last dt with its denominator 1 - dt * sum of the eigenvalues."""

    def __init__(self, grid: Grid):
        self.pair = np.empty((2, *grid.shape))
        self.rows = None if grid.periodic else np.empty_like(self.pair)
        shapes = [self.pair.shape[:axis] + (cells // 2 + 1,) + self.pair.shape[axis + 1:]
                  for axis, cells in enumerate(grid.shape, start=1)]
        room = np.empty(max(math.prod(shape) for shape in shapes), dtype=complex)
        self.spectra = tuple(room[:math.prod(shape)].reshape(shape) for shape in shapes)
        self.dt = math.nan
        self.denom = None


def _spectral(grid: Grid) -> _Spectral:
    """This thread's workspace for grid, made on the thread's first implicit
    step and kept beside its scratch block, so two threads never share one."""
    local = grid._scratch
    ws = getattr(local, "spectral", None)
    if ws is None:
        ws = local.spectral = _Spectral(grid)
    return ws


def _implicit_diffusion(rhs: np.ndarray, dt: float, grid: Grid) -> np.ndarray:
    """(I - dt div grad)^{-1} rhs, exactly, for both fields of the pair rhs
    (shape (2, *grid.shape)), in a fresh pair.  div grad is diagonal in the
    torus's Fourier modes (rfftn) and in the box's DCT-II modes (per axis,
    one real FFT each), with eigenvalues grid.laplacian_eigenvalues.  I - dt
    div grad is an M-matrix whose rows sum to 1, so its inverse is
    entrywise positive with rows summing to 1: the solve keeps each field's
    sum, its sign and its maximum, to rounding.  Every intermediate lives in
    this thread's workspace for the grid; rhs may be the workspace's own
    pair, which is read before it is written."""
    from numpy import fft  # loaded on the first implicit step, not at import

    ws = _spectral(grid)
    if dt != ws.dt:
        lam = grid.laplacian_eigenvalues
        denom = 1.0 - dt * lam[0]
        for axis_lam in lam[1:]:
            denom = denom - dt * axis_lam
        ws.dt, ws.denom = dt, denom
    axes = tuple(range(-grid.dim, 0))
    out = np.empty(rhs.shape)
    if grid.periodic:
        # rfftn's and irfftn's stages, called directly: irfftn's out= would
        # take its last stage only, and rfftn's argument handling costs as
        # much as a 16^2 pair's transforms
        spec = fft.rfft(rhs, axis=-1, out=ws.spectra[-1])
        for axis in axes[-2::-1]:
            fft.fft(spec, axis=axis, out=spec)
        spec /= ws.denom
        for axis in axes[:-1]:
            fft.ifft(spec, axis=axis, out=spec)
        return fft.irfft(spec, n=grid.shape[-1], axis=-1, out=out)
    x = rhs
    for axis in axes:
        x = _dct(x, axis, fft, ws.rows, ws.spectra[axis], ws.pair)
    x /= ws.denom
    for axis in axes:
        x = _idct(x, axis, fft, ws.rows, ws.spectra[axis], out if axis == -1 else x)
    return x


def step(state: State, dt: float, config: SolverConfig,
         source_n: Optional[Callable] = None,
         source_c: Optional[Callable] = None,
         c_face_gradient: Optional[Sequence[np.ndarray]] = None) -> State:
    """One first-order splitting step of size dt; the new state is
    validated here, once (finite, n >= 0).  c_face_gradient defaults to the
    state's cached one.  Not reentrant on one grid within one thread (see
    the module docstring)."""
    grid = state.grid
    nv = state.n.values
    cv = state.c.values
    explicit = config.scheme == EXPLICIT_EULER

    # Per axis, n's face flux goes to pair[0] (diffusive minus chemotactic,
    # or under imex zero minus chemotactic) and, when diffusion is
    # explicit, c's face gradient to pair[1]; one divergence pass over the
    # pair sums both into div in axis order.  tmp reuses lo's row once the
    # flux is built.
    ws = grid.scratch(6)
    width = 2 if explicit else 1
    lo, flux, grad_c = ws[0], ws[2], ws[3]
    tmp, pair, div = ws[:width], ws[2:2 + width], ws[4:4 + width]
    for axis, gc in enumerate(c_face_gradient or state.c_face_gradient):
        _lower(nv, grid, axis, lo)
        if explicit:
            np.subtract(nv, lo, out=flux)
            np.divide(flux, grid.h[axis], out=flux)
            np.copyto(grad_c, gc)
        else:
            flux.fill(0.0)
        np.subtract(flux, _chemotactic_faces(lo, nv, gc, config.chi, config.upwind),
                    out=flux)
        if axis == 0:
            _div_term(pair, grid, axis, div)
        else:
            np.add(div, _div_term(pair, grid, axis, tmp), out=div)
    np.multiply(div, dt, out=div)

    # n: conservative flux form (under imex, the explicit right-hand side,
    # written with c's straight into the implicit solve's input pair)
    solve_in = None if explicit else _spectral(grid).pair
    n_new = np.add(nv, div[0], out=None if explicit else solve_in[0])
    if source_n is not None:
        n_new += dt * source_n(state.t)

    # c: explicit diffusion, or both equations' implicit diffusion in one
    # solve; then exact exponential consumption
    rhs = cv
    if source_c is not None:
        rhs = rhs + dt * source_c(state.t)
    if explicit:
        c_new = np.add(rhs, div[1])
    else:
        np.copyto(solve_in[1], rhs)
        n_new, c_new = _implicit_diffusion(solve_in, dt, grid)
    c_new *= np.exp(np.multiply(nv, -dt, out=lo), out=lo)

    n_min, n_max = float(n_new.min()), float(n_new.max())
    if not (math.isfinite(n_min) and math.isfinite(n_max)
            and np.isfinite(c_new).all()):
        raise CorruptionError("step produced non-finite values")
    if _negative(n_min, max(n_max, -n_min)):
        raise PositivityError("step drove the bacteria density negative")
    return _trusted(State, t=state.t + dt, n_max=n_max,
                    n=_trusted(Field, grid=grid, values=_readonly(n_new)),
                    c=_trusted(Field, grid=grid, values=_readonly(c_new)))


def _call_each(sinks, state: State, steps: int) -> None:
    for sink in sinks:
        sink(state, steps)


def run(state0: State, config: SolverConfig, stop: StopRule, *,
        on_sample: Optional[Callable[[State, int], None]] = None,
        sample_every: int = 1,
        on_snapshot: Optional[Callable[[State, int], None]] = None,
        snapshot_every: int = 0,
        source_n: Optional[Callable] = None,
        source_c: Optional[Callable] = None) -> RunResult:
    """choose_dt/step loop with cadenced sinks; errors become stop reasons.
    On the start state and after each step, it stops at the first of: n_max
    above blowup_sup_threshold, stop.reached(t), stop.max_steps steps taken.

    On a grid of at least _SINK_THREAD_CELLS cells, a step's due sink calls
    go to one sink thread as one call, in the order the loop makes them,
    while this thread steps on; the next hand-off waits for that call to
    finish, so at most one is in flight.  The thread (a one-worker pool)
    starts at the first hand-off, so a smaller grid or a run without sinks
    starts none, and it is joined before run returns or raises.  The first
    exception a sink raises is raised here, at the next hand-off or on
    return, and no later sink call runs.
    """
    pool = None
    pending = None  # the Future of the sink call in flight
    try:
        state = state0
        result = RunResult(state=state, stop_reason="finished", steps=0)
        last_sample = -1
        last_snapshot = -1

        def hand_off(sample: bool, snapshot: bool) -> None:
            nonlocal last_sample, last_snapshot, pool, pending
            sinks = []
            if sample and on_sample is not None and result.steps != last_sample:
                sinks.append(on_sample)
                last_sample = result.steps
            if snapshot and on_snapshot is not None and result.steps != last_snapshot:
                sinks.append(on_snapshot)
                last_snapshot = result.steps
            if not sinks:
                return
            if state.grid.size < _SINK_THREAD_CELLS:
                _call_each(sinks, state, result.steps)
                return
            if pool is None:
                # imported here, so only runs that use the thread pay for it
                from concurrent.futures import ThreadPoolExecutor
                pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kslab-sinks")
            if pending is not None:
                pending.result()
            pending = pool.submit(_call_each, sinks, state, result.steps)

        def finish() -> RunResult:
            result.state = state
            if math.isinf(result.dt_smallest):  # no step was taken
                result.dt_smallest = 0.0
            hand_off(True, True)
            if pending is not None:
                pending.result()
            return result

        # a caller may still write into the arrays of a validated start state
        if not (np.isfinite(state.n.values).all() and np.isfinite(state.c.values).all()):
            result.stop_reason = "corrupted"
            return finish()

        hand_off(True, False)
        while True:
            if state.n_max > config.blowup_sup_threshold:
                result.stop_reason = "blowup_threshold"
                break
            if stop.reached(state.t):
                break
            if stop.max_steps is not None and result.steps >= stop.max_steps:
                result.stop_reason = "max_steps"
                break
            # c's face gradient lives for this step only, cached on no state
            grad_c = _face_grads(state.c.values, state.grid)
            raw = _dt_unclamped(state, config, grad_c)
            if raw < config.dt_min:
                result.dt_clamp_events += 1
            dt = min(max(raw, config.dt_min), config.dt_max, stop.t_end - state.t)
            try:
                state = step(state, dt, config, source_n=source_n, source_c=source_c,
                             c_face_gradient=grad_c)
            except CorruptionError:
                result.stop_reason = "corrupted"
                break
            except PositivityError:
                result.stop_reason = "positivity"
                break
            del grad_c
            result.steps += 1
            result.dt_last = dt
            result.dt_smallest = min(result.dt_smallest, dt)
            result.dt_largest = max(result.dt_largest, dt)
            due_sample = sample_every > 0 and result.steps % sample_every == 0
            due_snapshot = snapshot_every > 0 and result.steps % snapshot_every == 0
            if due_sample or due_snapshot:
                hand_off(due_sample, due_snapshot)

        return finish()
    finally:
        if pool is not None:
            pool.shutdown()  # waits for the call in flight, joins the thread
