import math

import numpy as np
import pytest

from kslab import (Field, GridSpec, SolverConfig, State, StopRule, choose_dt,
                   constant_field, detect_divergence, fill, integrate,
                   lp_norm, make_grid, run, step)
from kslab.solver import _cg_solve, _dt_unclamped
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
    # forward vs backward Euler diffusion differ at O(dt^2 * |lap^2 c|)
    lap_scale = 4.0 * np.sum(1.0 / g.h**2)
    bound = (dt * lap_scale) ** 2 * float(np.max(np.abs(st.c.values)))
    assert np.max(np.abs(ex.c.values - im.c.values)) <= bound
    assert np.array_equal(ex.n.values, im.n.values)


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


def test_cg_solves_backward_euler():
    rng = np.random.default_rng(25)
    g = make_grid(GridSpec(2, (12, 12), (1.0, 1.0), "neumann_box"))
    b = rng.normal(size=g.shape)
    dt = 0.01

    def apply_op(u):
        return u - dt * _div(_face_grads(u, g), g)

    x = _cg_solve(apply_op, b)
    resid = np.sqrt(np.sum((apply_op(x) - b) ** 2))
    assert resid <= 1e-9 * np.sqrt(np.sum(b * b))


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
    assert res.status == "approaching_blowup"


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


# --- detect_divergence -------------------------------------------------------


def test_detect_ok():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    assert detect_divergence(_state(g, 1.0, 1.0), SolverConfig()) == "ok"


def test_detect_approaching_blowup():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 2e3, 1.0)
    cfg = SolverConfig(blowup_sup_threshold=1e3)
    assert detect_divergence(st, cfg) == "approaching_blowup"


def test_detect_corrupted():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    st = _state(g, 1.0, 1.0)
    bad = np.array(st.n.values)
    bad[3, 3] = np.nan
    # fields are validated at construction; simulate in-flight corruption
    object.__setattr__(st.n, "values", bad)
    assert detect_divergence(st, SolverConfig()) == "corrupted"


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
