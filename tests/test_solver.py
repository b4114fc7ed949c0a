import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kslab import (Field, GridSpec, SolverConfig, State, StopRule, choose_dt,
                   constant_field, fill, integrate, lp_norm, make_grid, run, step)
from kslab.errors import CorruptionError, PositivityError
from kslab.grid import _trusted
from kslab.solver import _dct, _dt_unclamped, _idct, _implicit_diffusion
from kslab.operators import _div, _face_grads


def _state(grid, n_val, c_val):
    return State(constant_field(grid, n_val), constant_field(grid, c_val), 0.0)


def _smooth_random_state(grid, rng, n_base=1.0, c_base=0.8, amp=0.4):
    w = 2 * np.pi
    kx = rng.integers(1, 4)
    ky = rng.integers(1, 4)
    ax, ay = rng.uniform(-1, 1, size=2)

    def profile(x, y):
        return ax * np.cos(w * kx * x) * np.cos(w * ky * y) + \
            ay * np.sin(w * ky * x) * np.sin(w * kx * y)

    n0 = fill(grid, lambda x, y: n_base + amp * profile(x, y) / 2.0)
    c0 = fill(grid, lambda x, y: c_base + amp * profile(y, x) / 2.0)
    return State(n0, c0, 0.0)


# --- choose_dt -----------------------------------------------------------------


def test_choose_dt_pure_diffusion_formula():
    g = make_grid(GridSpec(2, (10, 10), (1.0, 1.0), "periodic_torus"))
    cfg = SolverConfig(cfl_safety=0.25, dt_max=1.0)
    dt = choose_dt(_state(g, 0.0, 1.0), cfg)
    assert dt == pytest.approx(0.25 * 0.01 / 4.0, rel=1e-14)


def test_choose_dt_inactive_constraints():
    g = make_grid(GridSpec(2, (10, 10), (1.0, 1.0), "periodic_torus"))
    cfg = SolverConfig(cfl_safety=1.0, dt_max=1.0)
    st = _state(g, 0.0, 1.0)
    # advection and reaction off: dt equals the diffusion bound
    assert choose_dt(st, cfg) == pytest.approx(0.01 / 4.0, rel=1e-14)


def test_choose_dt_blowup_refinement():
    g = make_grid(GridSpec(2, (4, 4), (4.0, 4.0), "periodic_torus"))  # h = 1
    cfg = SolverConfig(cfl_safety=1.0, dt_max=1.0, dt_blowup_factor=0.1)
    st = _state(g, 1e4, 1.0)
    assert choose_dt(st, cfg) == pytest.approx(1e-5, rel=1e-14)


def test_choose_dt_clamps_to_dt_min():
    g = make_grid(GridSpec(2, (64, 64), (1.0, 1.0), "periodic_torus"))
    cfg = SolverConfig(cfl_safety=0.5, dt_min=1e-3, dt_max=1.0)
    st = _state(g, 1.0, 1.0)
    assert _dt_unclamped(st, cfg) < 1e-3
    assert choose_dt(st, cfg) == 1e-3


def test_choose_dt_respects_dt_max():
    g = make_grid(GridSpec(2, (4, 4), (1.0, 1.0), "periodic_torus"))
    cfg = SolverConfig(cfl_safety=1.0, dt_max=1e-5)
    assert choose_dt(_state(g, 0.0, 1.0), cfg) == 1e-5


# --- step ----------------------------------------------------------------------


def test_step_constant_state_exact_ode():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    cfg = SolverConfig(dt_max=1e-3)
    st = _state(g, 2.0, 1.5)
    dt = 1e-3
    steps = 200
    for _ in range(steps):
        st = step(st, dt, cfg)
    assert np.array_equal(st.n.values, np.full(g.shape, 2.0))
    expected = 1.5 * math.exp(-2.0 * dt * steps)
    np.testing.assert_allclose(st.c.values, expected, rtol=1e-11)


def test_step_heat_oracle():
    g = make_grid(GridSpec(1, (64,), (1.0,), "neumann_box"))
    st = State(constant_field(g, 0.0), fill(g, lambda x: np.cos(np.pi * x)), 0.0)
    cfg = SolverConfig(cfl_safety=0.8, dt_max=0.05)
    res = run(st, cfg, StopRule(t_end=0.1))
    exact = math.exp(-math.pi**2 * 0.1) * np.cos(np.pi * g.centers(0))
    err = np.max(np.abs(res.state.c.values - exact))
    assert err <= 2e-3  # O(h^2) + O(dt)


def test_step_mass_conservation_single_step():
    rng = np.random.default_rng(21)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"))
    st = _smooth_random_state(g, rng)
    cfg = SolverConfig(cfl_safety=0.2)
    mass0 = integrate(st.n)
    for _ in range(50):
        st = step(st, choose_dt(st, cfg), cfg)
    assert integrate(st.n) == pytest.approx(mass0, rel=1e-13)


def test_step_maximum_principle_and_positivity():
    rng = np.random.default_rng(22)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"))
    st = _smooth_random_state(g, rng)
    cfg = SolverConfig(cfl_safety=0.15, upwind=True)
    c_max = float(np.max(st.c.values))
    for _ in range(2000):
        st = step(st, choose_dt(st, cfg), cfg)
        new_max = float(np.max(st.c.values))
        assert new_max <= c_max + 1e-12 * c_max
        c_max = new_max
        assert float(np.min(st.c.values)) >= 0.0
        assert float(np.min(st.n.values)) >= 0.0


def test_step_imex_matches_explicit():
    rng = np.random.default_rng(23)
    g = make_grid(GridSpec(2, (12, 12), (1.0, 1.0), "periodic_torus"))
    st = _smooth_random_state(g, rng)
    dt = 1e-4
    cfg_ex = SolverConfig(scheme="explicit_euler")
    cfg_im = SolverConfig(scheme="imex")
    ex = step(st, dt, cfg_ex)
    im = step(st, dt, cfg_im)
    # forward vs backward Euler diffusion differ at O(dt^2 * |lap^2 u|)
    lap_scale = 4.0 * np.sum(1.0 / g.h**2)
    for u in ("c", "n"):
        bound = (dt * lap_scale) ** 2 * float(np.max(np.abs(getattr(st, u).values)))
        assert np.max(np.abs(getattr(ex, u).values - getattr(im, u).values)) <= bound


def test_step_imex_unconditional_dmp():
    rng = np.random.default_rng(24)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"))
    st = _smooth_random_state(g, rng)
    cfg = SolverConfig(scheme="imex")
    dt = 0.05  # far above the explicit diffusion bound
    c_max0 = float(np.max(st.c.values))
    out = step(st, dt, cfg)
    assert float(np.max(out.c.values)) <= c_max0 + 1e-10 * c_max0
    assert float(np.min(out.c.values)) >= -1e-12


SOLVE_SPECS = [((7,), (1.0,)), ((12, 9), (1.0, 2.0)), ((8, 6, 5), (1.0, 1.5, 0.7)),
               ((32, 32, 32), (1.0, 1.0, 1.0))]


@pytest.mark.parametrize("topology", ["periodic_torus", "neumann_box"])
@pytest.mark.parametrize("cells, extent", SOLVE_SPECS)
def test_implicit_diffusion_solves_backward_euler(cells, extent, topology):
    g = make_grid(GridSpec(len(cells), cells, extent, topology))
    rng = np.random.default_rng(25)
    b = rng.normal(size=(2, *g.shape))
    dt = 10.0 * g.diffusion_dt
    u = _implicit_diffusion(b, dt, g)
    assert u.shape == b.shape
    for ui, bi in zip(u, b):
        resid = ui - dt * _div(_face_grads(ui, g), g) - bi
        assert np.max(np.abs(resid)) <= 1e-13 * np.max(np.abs(bi))
        assert abs(np.sum(ui) - np.sum(bi)) <= 1e-14 * np.sum(np.abs(bi))


@pytest.mark.parametrize("cells", [4, 7, 8, 15, 16])
def test_dct_matches_cosine_matrix(cells):
    """_dct along each axis of a 3D stack against sum_i x_i cos(pi k (2i+1)/(2N)),
    and _idct inverts it."""
    rng = np.random.default_rng(cells)
    k = np.arange(cells)
    cosines = np.cos(np.pi * np.outer(k, 2 * k + 1) / (2 * cells))
    x = rng.normal(size=(2, cells, 3, 5)).swapaxes(1, -1).copy()  # (2, 5, 3, N)
    for axis in (-3, -2, -1):
        x = np.moveaxis(x, -1, axis).copy()  # N cells along axis
        half = list(x.shape)
        half[axis] = cells // 2 + 1
        rows, room = np.empty(x.shape), np.empty(half, dtype=complex)
        spec = _dct(x, axis, np.fft, rows, room, np.empty(x.shape))
        oracle = np.moveaxis(np.tensordot(cosines, np.moveaxis(x, axis, 0), axes=1),
                             0, axis)
        np.testing.assert_allclose(spec, oracle, rtol=0, atol=1e-13 * np.abs(x).max())
        np.testing.assert_allclose(_idct(spec, axis, np.fft, rows, room, spec), x,
                                   rtol=0, atol=1e-14 * np.abs(x).max())
        x = np.moveaxis(x, axis, -1)


@pytest.mark.parametrize("topology, k", [("neumann_box", 1), ("periodic_torus", 2)])
def test_step_imex_decays_a_single_mode_exactly(topology, k):
    """n = 1 + a cos(pi k x) and constant c: one imex step divides the mode by
    1 + dt (4/h^2) sin^2(pi k h / 2), at dt = 50x the explicit bound."""
    g = make_grid(GridSpec(1, (32,), (1.0,), topology))
    h = g.h[0]
    st = State(fill(g, lambda x: 1.0 + 0.5 * np.cos(np.pi * k * x)),
               constant_field(g, 0.7), 0.0)
    dt = 50.0 * g.diffusion_dt
    out = step(st, dt, SolverConfig(scheme="imex", chi=3.0))
    factor = 1.0 + dt * (4.0 / h**2) * math.sin(np.pi * k * h / 2.0) ** 2
    x = g.centers(0)
    np.testing.assert_allclose(out.n.values, 1.0 + 0.5 * np.cos(np.pi * k * x) / factor,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.c.values, 0.7 * np.exp(-dt * st.n.values),
                               rtol=1e-14, atol=0)


def test_imex_dt_ignores_the_diffusion_bound():
    g = make_grid(GridSpec(2, (10, 10), (1.0, 1.0), "periodic_torus"))
    cfg = SolverConfig(scheme="imex", cfl_safety=0.25, dt_max=1.0)
    assert _dt_unclamped(_state(g, 0.0, 1.0), cfg) == math.inf
    assert choose_dt(_state(g, 0.0, 1.0), cfg) == 1.0
    assert choose_dt(_state(g, 4.0, 1.0), cfg) == pytest.approx(0.25 * 0.1 / 4.0,
                                                                  rel=1e-14)


def test_explicit_runs_never_load_numpy_fft():
    code = ("import sys\n"
            "from kslab import GridSpec, SolverConfig, State, StopRule, constant_field,"
            " make_grid, run\n"
            "g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), 'neumann_box'))\n"
            "st = State(constant_field(g, 1.0), constant_field(g, 1.0), 0.0)\n"
            "run(st, SolverConfig(), StopRule(t_end=1e-3))\n"
            "assert 'numpy.fft' not in sys.modules\n"
            "run(st, SolverConfig(scheme='imex'), StopRule(t_end=1e-3))\n"
            "assert 'numpy.fft' in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_step_source_hook_applied():
    g = make_grid(GridSpec(1, (8,), (1.0,), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    dt = 1e-3

    def source_n(t):
        return np.ones(g.shape)

    out = step(st, dt, SolverConfig(), source_n=source_n)
    np.testing.assert_allclose(out.n.values, 1.0 + dt, rtol=1e-14)


# --- run --------------------------------------------------------------------


def test_run_zero_horizon_returns_initial():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    res = run(st, SolverConfig(), StopRule(t_end=0.0))
    assert res.steps == 0
    assert res.stop_reason == "finished"
    assert res.state is st


def test_run_constant_decay_oracle():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    res = run(st, SolverConfig(dt_max=1e-4), StopRule(t_end=1.0))
    assert res.stop_reason == "finished"
    err = np.max(np.abs(res.state.c.values - math.exp(-1.0)))
    assert err <= 1e-3


def test_run_stops_on_blowup_threshold_immediately():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1e4, 1.0)
    cfg = SolverConfig(blowup_sup_threshold=1e3)
    res = run(st, cfg, StopRule(t_end=1.0))
    assert res.steps == 0
    assert res.stop_reason == "blowup_threshold"


def test_run_max_steps():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    res = run(st, SolverConfig(dt_max=1e-4), StopRule(t_end=1.0, max_steps=7))
    assert res.steps == 7
    assert res.stop_reason == "max_steps"


def test_run_counts_dt_clamp_warnings():
    g = make_grid(GridSpec(2, (32, 32), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    cfg = SolverConfig(dt_min=1e-3, dt_max=1e-3)
    res = run(st, cfg, StopRule(t_end=5e-3))
    assert res.dt_clamp_events > 0


def test_run_sample_cadence_no_duplicates():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    times = []
    res = run(st, SolverConfig(dt_max=1e-3), StopRule(t_end=0.01),
              on_sample=lambda s, k: times.append(s.t), sample_every=5)
    assert res.steps == 10
    assert len(times) == len(set(times))
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.01, rel=1e-9)


def test_run_lands_exactly_on_t_end():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    res = run(st, SolverConfig(dt_max=3e-4), StopRule(t_end=0.01))
    assert res.state.t == pytest.approx(0.01, rel=1e-12)


# --- the start state's stop test ----------------------------------------------


def test_run_with_a_zero_t_end_finishes_at_the_start_state():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    res = run(st, SolverConfig(), StopRule(t_end=0.0))
    assert res.stop_reason == "finished"
    assert res.steps == 0
    assert res.state is st


def test_detect_approaching_blowup():
    """The start state's sup is tested against the threshold even when the
    horizon is zero, before any step could be taken."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 2e3, 1.0)
    cfg = SolverConfig(blowup_sup_threshold=1e3)
    res = run(st, cfg, StopRule(t_end=0.0))
    assert res.stop_reason == "blowup_threshold"
    assert res.steps == 0
    assert res.state is st


def test_run_stops_on_a_start_state_corrupted_through_its_own_array():
    """A Field is a read-only view of its caller's array, so the caller can
    still write a NaN into a validated start state."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    a = np.ones(g.shape)
    st = State(Field(g, a), constant_field(g, 1.0), 0.0)
    a[0, 0] = np.nan
    res = run(st, SolverConfig(), StopRule(t_end=0.0))
    assert res.stop_reason == "corrupted"
    assert res.steps == 0


def _spiked_box(spike):
    """A 1D box of 8 Neumann cells, n = spike in cell 3 and 0 elsewhere,
    c = 1; with dt forced to 1, 64 times the explicit diffusion bound."""
    g = make_grid(GridSpec(1, (8,), (1.0,), "neumann_box"))
    n = np.zeros(g.shape)
    n[3] = spike
    return State(Field(g, n), constant_field(g, 1.0), 0.0)


@pytest.mark.parametrize("spike, threshold, error, reason", [
    (10.0, 1e6, PositivityError, "positivity"),
    (1e307, math.inf, CorruptionError, "corrupted"),  # the update overflows
], ids=["positivity", "corrupted"])
def test_step_rejects_an_unstable_update(spike, threshold, error, reason):
    cfg = SolverConfig(dt_min=1.0, dt_max=1.0, blowup_sup_threshold=threshold)
    st = _spiked_box(spike)
    with np.errstate(over="ignore"):
        with pytest.raises(error):
            step(st, 1.0, cfg)
        res = run(st, cfg, StopRule(t_end=1.0))
    assert (res.stop_reason, res.steps) == (reason, 0)
    assert res.state is st


def _growing_run(dt, rate, threshold, stop, snapshot_every):
    """An 8-cell torus whose uniform n (no flux) grows by dt * rate a step
    from 1 under a source, with dt forced; every state is sampled."""
    g = make_grid(GridSpec(1, (8,), (1.0,), "periodic_torus"))
    cfg = SolverConfig(dt_min=dt, dt_max=dt, blowup_sup_threshold=threshold)
    samples, snapshots = [], []
    res = run(_state(g, 1.0, 1.0), cfg, stop,
              on_sample=lambda s, k: samples.append((k, s)), sample_every=1,
              on_snapshot=lambda s, k: snapshots.append((k, s)),
              snapshot_every=snapshot_every, source_n=lambda t: np.full(g.shape, rate))
    return res, samples, snapshots


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dt=st.floats(0.01, 0.2), rate=st.floats(0.0, 40.0),
       threshold=st.floats(0.5, 20.0),
       t_end=st.one_of(st.floats(0.0, 1.0), st.just(math.inf)),
       max_steps=st.one_of(st.none(), st.integers(1, 40)),
       snapshot_every=st.integers(0, 3))
# the last step lands on t_end (0.2 + 0.05) and takes n from 1.8 to 2.0
@example(dt=0.1, rate=4.0, threshold=1.9, t_end=0.25, max_steps=None, snapshot_every=2)
def test_property_run_stops_at_the_first_stop_in_order(dt, rate, threshold, t_end,
                                                       max_steps, snapshot_every):
    """The stop block tests each state, the start state included, for the
    threshold, then the horizon, then the step budget; a step is taken only
    from a state that none of them stops, and both sinks see the final
    state once."""
    assume(max_steps is not None or math.isfinite(t_end))
    stop = StopRule(t_end, max_steps)
    res, samples, snapshots = _growing_run(dt, rate, threshold, stop, snapshot_every)

    def stops(k, s):
        if s.n_max > threshold:
            return "blowup_threshold"
        if stop.reached(s.t):
            return "finished"
        if max_steps is not None and k >= max_steps:
            return "max_steps"
        return None

    assert [k for k, _ in samples] == list(range(res.steps + 1))
    assert all(stops(k, s) is None for k, s in samples[:-1])
    assert res.stop_reason == stops(res.steps, res.state)
    assert (res.stop_reason == "finished") == (
        stop.reached(res.state.t) and not res.state.n_max > threshold)
    for seen in (samples, snapshots):
        assert seen[-1] == (res.steps, res.state)
        assert sum(s is res.state for _, s in seen) == 1
    assert (res.dt_smallest == 0.0) == (res.steps == 0)
    if (dt, rate, threshold, t_end) == (0.1, 4.0, 1.9, 0.25):
        assert (res.stop_reason, res.steps, res.state.t) == ("blowup_threshold", 3, 0.25)


def _with_low_cell(sup, beyond):
    """n on an 8-cell torus with sup norm sup and one cell on the rule's
    bound for n >= 0, -1e-12 * max(sup, 1), or one ulp beyond it."""
    g = make_grid(GridSpec(1, (8,), (1.0,), "periodic_torus"))
    low = -1e-12 * max(sup, 1.0)
    if beyond:
        low = np.nextafter(low, -math.inf)
    nv = np.full(g.shape, sup)
    nv[2] = low
    return g, nv


@pytest.mark.parametrize("sup", [0.25, 1.0, 1e3])
def test_state_and_step_accept_n_on_the_bound(sup):
    g, nv = _with_low_cell(sup, beyond=False)
    st = State(Field(g, nv), constant_field(g, 1.0), 0.0)
    new = step(st, 0.0, SolverConfig())
    assert new.n.values.tobytes() == nv.tobytes()


@pytest.mark.parametrize("sup", [0.25, 1.0, 1e3])
def test_state_and_step_reject_n_beyond_the_bound(sup):
    g, nv = _with_low_cell(sup, beyond=True)
    with pytest.raises(PositivityError):
        State(Field(g, nv), constant_field(g, 1.0), 0.0)
    # a start state that skipped the constructor's check: dt = 0 returns
    # its own n, which step must reject
    bare = _trusted(State, n=Field(g, nv), c=constant_field(g, 1.0), t=0.0)
    with pytest.raises(PositivityError):
        step(bare, 0.0, SolverConfig())


# --- invariants over longer horizons -------------------------------------------


def test_mass_conservation_long_run():
    rng = np.random.default_rng(31)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"))
    st = _smooth_random_state(g, rng)
    cfg = SolverConfig(cfl_safety=0.2, upwind=True)
    mass0 = integrate(st.n)
    masses = []
    res = run(st, cfg, StopRule(t_end=0.2),
              on_sample=lambda s, k: masses.append(integrate(s.n)),
              sample_every=100)
    assert res.stop_reason == "finished"
    assert max(abs(m - mass0) for m in masses) / mass0 <= 1e-12


def test_temporal_first_order_self_convergence():
    rng = np.random.default_rng(32)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"))
    st = _smooth_random_state(g, rng)
    finals = []
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = SolverConfig(dt_min=dt, dt_max=dt, upwind=False)
        res = run(st, cfg, StopRule(t_end=0.04))
        finals.append(res.state)
    e01 = np.max(np.abs(finals[0].c.values - finals[1].c.values))
    e12 = np.max(np.abs(finals[1].c.values - finals[2].c.values))
    order = math.log2(e01 / e12)
    assert order >= 0.9


@pytest.mark.parametrize("chi", [0.0, -1.0, math.nan])
def test_solver_config_rejects_nonpositive_chi(chi):
    with pytest.raises(ValueError, match="chi"):
        SolverConfig(chi=chi)
