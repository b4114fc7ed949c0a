"""The fused step kernel against the public operators, and the README
invariants it must keep, checked as properties over random smooth data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import (Field, GridSpec, SolverConfig, State, StopRule, VectorField,
                   chemotactic_flux, choose_dt, divergence, fill, gradient,
                   integrate, laplacian, make_grid, run, step)

TOPOLOGIES = ("neumann_box", "periodic_torus")
SPECS = {1: ((40,), (1.0,)), 2: ((12, 9), (1.0, 2.0)), 3: ((6, 5, 4), (1.0, 1.0, 1.5))}


def _sources(grid):
    """Source hooks f(t) -> array of grid's shape, from its cell centres."""
    xs = grid.meshes()
    return (lambda t: 0.3 * np.cos(2.0 * xs[0]) + t,
            lambda t: 0.2 * np.sin(3.0 * xs[-1]) * (1.0 + t))


def _public_step(state, dt, cfg, source_n, source_c):
    """One step written with the public face operators."""
    grid = state.grid
    grad_n = gradient(state.n).components
    chem = chemotactic_flux(state.n, state.c, cfg.chi, upwind=cfg.upwind).components
    flux = VectorField(grid, tuple(a - b for a, b in zip(grad_n, chem)))
    n_new = state.n.values + dt * divergence(flux).values
    c_new = state.c.values
    if source_n is not None:
        n_new = n_new + dt * source_n(state.t)
    if source_c is not None:
        c_new = c_new + dt * source_c(state.t)
    c_new = (c_new + dt * laplacian(state.c).values) * np.exp(-dt * state.n.values)
    return n_new, c_new


@pytest.mark.parametrize("sources", [False, True])
@pytest.mark.parametrize("upwind", [False, True])
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_is_bit_identical_to_public_operators(dim, topology, upwind, sources):
    cells, extent = SPECS[dim]
    grid = make_grid(GridSpec(dim, cells, extent, topology))
    rng = np.random.default_rng(100 * dim + 10 * upwind + sources)
    state = State(Field(grid, 1.0 + 0.5 * rng.random(grid.shape)),
                  Field(grid, 0.5 + rng.random(grid.shape)), 0.0)
    cfg = SolverConfig(chi=3.0, upwind=upwind, cfl_safety=1.0 / (1 + 2 * dim))
    source_n, source_c = _sources(grid) if sources else (None, None)
    for _ in range(3):
        dt = choose_dt(state, cfg)
        n_ref, c_ref = _public_step(state, dt, cfg, source_n, source_c)
        state = step(state, dt, cfg, source_n=source_n, source_c=source_c)
        assert np.array_equal(state.n.values, n_ref)
        assert np.array_equal(state.c.values, c_ref)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_choose_dt_unchanged_by_cached_c_gradient(topology):
    grid = make_grid(GridSpec(2, (12, 9), (1.0, 2.0), topology))
    rng = np.random.default_rng(7)
    n = Field(grid, 1.0 + rng.random(grid.shape))
    c = Field(grid, 0.5 + rng.random(grid.shape))
    cfg = SolverConfig(chi=40.0, dt_max=1.0)
    fresh = choose_dt(State(n, c, 0.0), cfg)

    cached = State(n, c, 0.0)
    assert len(cached.c_face_gradient) == 2  # built before choose_dt reads it
    assert choose_dt(cached, cfg) == fresh

    # the same number from the public gradient
    bounds = [1.0 / (2.0 * float(np.sum(1.0 / grid.h**2)))]
    for axis, comp in enumerate(gradient(c).components):
        bounds.append(grid.h[axis] / (cfg.chi * float(np.max(np.abs(comp)))))
    n_sup = float(np.max(n.values))
    bounds += [1.0 / n_sup, cfg.dt_blowup_factor / n_sup]
    assert fresh == cfg.cfl_safety * min(bounds)


# --- README invariants as properties -------------------------------------------


@st.composite
def _setups(draw, scheme="explicit_euler"):
    """Smooth positive (n, c) on a small grid and an upwind solver config
    within the worst-case CFL bound: cfl_safety <= 1/(1 + 2 dim), or under
    imex, whose diffusion sets no bound, cfl_safety = 1/(2 dim)."""
    dim = draw(st.integers(1, 3))
    topology = draw(st.sampled_from(TOPOLOGIES))
    cells = tuple(draw(st.integers(4, {1: 24, 2: 10, 3: 6}[dim])) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    grid = make_grid(GridSpec(dim, cells, extent, topology))

    def smooth(base):
        amp = draw(st.floats(0.0, 0.9)) * base
        waves = [(draw(st.integers(1, 3)) * 2.0 * math.pi / length,
                  draw(st.floats(0.0, 2.0 * math.pi))) for length in extent]

        def f(*xs):
            out = amp * np.ones_like(xs[0])
            for x, (k, phase) in zip(xs, waves):
                out = out * np.cos(k * x + phase)
            return base + out

        return fill(grid, f)

    state = State(smooth(draw(st.floats(0.5, 5.0))), smooth(draw(st.floats(0.1, 2.0))), 0.0)
    chi = draw(st.floats(0.1, 20.0))
    if scheme == "imex":
        return state, SolverConfig(chi=chi, scheme=scheme, cfl_safety=1.0 / (2 * dim))
    cfg = SolverConfig(chi=chi, upwind=True,
                       cfl_safety=draw(st.floats(0.05, 1.0 / (1 + 2 * dim))))
    return state, cfg


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_STEPS = 15


def _trajectory(state, cfg):
    states = []
    result = run(state, cfg, StopRule(t_end=math.inf, max_steps=_STEPS),
                 on_sample=lambda s, k: states.append(s), sample_every=1)
    assert result.stop_reason == "max_steps"
    return states


@_PROPERTY
@given(_setups())
def test_property_mass_conserved_to_rounding(setup):
    states = _trajectory(*setup)
    mass0 = integrate(states[0].n)
    for s in states[1:]:
        assert abs(integrate(s.n) - mass0) <= 1e-13 * mass0


@_PROPERTY
@given(_setups())
def test_property_n_nonnegative_after_each_step(setup):
    for s in _trajectory(*setup)[1:]:
        assert float(np.min(s.n.values)) >= 0.0


@_PROPERTY
@given(_setups())
def test_property_max_c_never_increases(setup):
    c_max = [float(np.max(s.c.values)) for s in _trajectory(*setup)]
    for prev, nxt in zip(c_max, c_max[1:]):
        assert nxt <= prev * (1.0 + 1e-14)


@_PROPERTY
@given(_setups())
def test_property_rerun_is_byte_identical(setup):
    first = _trajectory(*setup)
    second = _trajectory(*setup)
    assert [s.t for s in first] == [s.t for s in second]
    for a, b in zip(first, second):
        assert a.n.values.tobytes() == b.n.values.tobytes()
        assert a.c.values.tobytes() == b.c.values.tobytes()


@_PROPERTY
@given(_setups(scheme="imex"))
def test_property_imex_keeps_mass_positivity_and_max_c(setup):
    """Implicit diffusion of both equations under the advection bound alone:
    mass to rounding, n >= 0 and max c non-increasing after every step."""
    states = _trajectory(*setup)
    mass0 = integrate(states[0].n)
    for prev, s in zip(states, states[1:]):
        assert abs(integrate(s.n) - mass0) <= 1e-13 * mass0
        assert float(np.min(s.n.values)) >= 0.0
        assert float(np.max(s.c.values)) <= float(np.max(prev.c.values)) * (1.0 + 1e-14)
