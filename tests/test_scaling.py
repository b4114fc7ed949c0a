import math

import numpy as np
import pytest

from kslab import (Field, GridSpec, SolverConfig, State, constant_field, fill,
                   integrate, make_grid, rescale_state, scaling_invariance_test)
from kslab.scaling import _orders


def _torus(cells, dim=1):
    return make_grid(GridSpec(dim, (cells,) * dim, (1.0,) * dim,
                              "periodic_torus"))


def _state(grid, n_fn, c_fn, t=0.0):
    return State(fill(grid, n_fn), fill(grid, c_fn), t)


def test_rescale_identity():
    g = _torus(16, dim=2)
    w = 2 * np.pi
    st = _state(g, lambda x, y: 1 + 0.5 * np.cos(w * x),
                lambda x, y: 0.5 + 0.1 * np.sin(w * y), t=0.7)
    out = rescale_state(st, 1)
    assert np.array_equal(out.n.values, st.n.values)
    assert np.array_equal(out.c.values, st.c.values)
    assert out.t == st.t


def test_rescale_constant_amplitude():
    g = _torus(16, dim=2)
    st = State(constant_field(g, 3.0), constant_field(g, 2.0), 1.0)
    out = rescale_state(st, 2)
    np.testing.assert_allclose(out.n.values, 12.0, rtol=1e-14)
    np.testing.assert_allclose(out.c.values, 2.0, rtol=1e-14)
    assert out.t == pytest.approx(0.25)


def test_rescale_cosine_closed_form():
    g = _torus(64)
    w = 2 * np.pi
    st = _state(g, lambda x: 1 + 0.5 * np.cos(w * x), lambda x: np.ones_like(x))
    out = rescale_state(st, 2)
    x = g.centers(0)
    h = g.h[0]
    # linear interpolation at midpoints attenuates the doubled mode by cos(pi h)
    exact_interp = 4.0 * (1 + 0.5 * np.cos(2 * w * x) * math.cos(math.pi * h))
    np.testing.assert_allclose(out.n.values, exact_interp, rtol=1e-12)
    ideal = 4.0 * (1 + 0.5 * np.cos(2 * w * x))
    assert np.max(np.abs(out.n.values - ideal)) <= 4.0 * (math.pi * h) ** 2


def test_rescale_odd_lambda_is_exact_sampling():
    g = _torus(64)
    w = 2 * np.pi
    st = _state(g, lambda x: 1 + 0.25 * np.sin(w * x), lambda x: np.ones_like(x))
    out = rescale_state(st, 3)
    x = g.centers(0)
    exact = 9.0 * (1 + 0.25 * np.sin(3 * w * x))
    np.testing.assert_allclose(out.n.values, exact, rtol=1e-12)


def test_rescale_mass_transforms_by_lambda_squared():
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3):
        cells = {1: 64, 2: 16, 3: 8}[dim]
        g = _torus(cells, dim=dim)
        st = State(Field(g, 0.5 + rng.random(g.shape)),
                   constant_field(g, 1.0), 0.0)
        for lam in (2, 3):
            out = rescale_state(st, lam)
            assert integrate(out.n) == pytest.approx(
                lam**2 * integrate(st.n), rel=1e-13)


def test_rescale_rejects_box_topology():
    g = make_grid(GridSpec(1, (16,), (1.0,), "neumann_box"))
    st = State(constant_field(g, 1.0), constant_field(g, 1.0), 0.0)
    with pytest.raises(ValueError):
        rescale_state(st, 2)


def test_rescale_rejects_nonpositive_lambda():
    g = _torus(16)
    st = State(constant_field(g, 1.0), constant_field(g, 1.0), 0.0)
    with pytest.raises(ValueError):
        rescale_state(st, 0)


def test_invariance_lambda_one_exact():
    w = 2 * np.pi
    cfg = SolverConfig(cfl_safety=0.4, upwind=False)
    table = scaling_invariance_test(
        lambda x, y: 1 + 0.4 * np.cos(w * x) * np.cos(w * y),
        lambda x, y: 0.8 + 0.3 * np.cos(w * x),
        base_cells=16, dim=2, lam=1, T=0.02, config=cfg, refinements=1)
    row = table.rows[0]
    assert row.l2_n == 0.0 and row.linf_n == 0.0
    assert row.l2_c == 0.0 and row.linf_c == 0.0


def test_invariance_errors_decrease_under_refinement():
    w = 2 * np.pi
    cfg = SolverConfig(cfl_safety=0.4, upwind=False)
    table = scaling_invariance_test(
        lambda x, y: 1 + 0.4 * np.cos(w * x) * np.cos(w * y),
        lambda x, y: 0.8 + 0.3 * np.cos(w * x),
        base_cells=16, dim=2, lam=2, T=0.04, config=cfg, refinements=3)
    errs = [r.linf_n for r in table.rows]
    assert errs[0] > errs[1] > errs[2]
    assert table.min_order >= 1.5


def test_invariance_pure_heat_second_order():
    # chi has no effect when n = 0: pure heat evolution for c
    w = 2 * np.pi
    cfg = SolverConfig(cfl_safety=0.4, upwind=False)
    table = scaling_invariance_test(
        lambda x, y: np.zeros_like(x),
        lambda x, y: 0.8 + 0.3 * np.cos(w * x) + 0.1 * np.sin(w * y),
        base_cells=16, dim=2, lam=2, T=0.04, config=cfg, refinements=3)
    orders = table.orders_l2_c + table.orders_linf_c
    assert min(orders) >= 1.9


def test_orders_at_zero_error():
    assert _orders([4.0, 1.0, 0.25]) == [2.0, 2.0]
    assert _orders([1.0, 0.0]) == [math.inf]
    assert _orders([0.0, 0.0]) == [math.inf]
    # growth from an exact level must fail a minimum-order monitor
    assert _orders([0.0, 1.0]) == [-math.inf]
