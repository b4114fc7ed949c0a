import math
from functools import partial

import numpy as np
import pytest

from kslab import (Field, GridSpec, SolverConfig, State, constant_field, fill,
                   integrate, make_grid, rescale_state)
from kslab.scaling import ErrorTable, _orders, ladder_rows, rescaled_finals


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


def _resample_by_fraction(values, lam):
    """Sampling at lam * (i + 1/2) - 1/2 in index units on every axis, with
    the weight of the upper cell taken from each point's fractional part."""
    out = values
    for axis, n in enumerate(values.shape):
        pos = lam * (np.arange(n) + 0.5) - 0.5
        j0 = np.floor(pos).astype(int)
        frac = pos - j0
        lo = np.take(out, np.mod(j0, n), axis=axis)
        if np.all(frac == 0.0):
            out = lo
            continue
        hi = np.take(out, np.mod(j0 + 1, n), axis=axis)
        shape = [1] * out.ndim
        shape[axis] = n
        f = frac.reshape(shape)
        out = (1.0 - f) * lo + f * hi
    return out


@pytest.mark.parametrize("cells", [(12,), (13,), (8, 9), (5, 6, 7)],
                         ids=["even", "odd", "even-odd", "mixed-3d"])
@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_rescale_is_bit_identical_to_fractional_weights(lam, cells):
    """A cell for odd lam, the midpoint of two cells for even lam: the
    bits of general linear interpolation at lam times each center."""
    g = make_grid(GridSpec(len(cells), cells, (1.0,) * len(cells), "periodic_torus"))
    rng = np.random.default_rng(lam * 100 + sum(cells))
    st = State(Field(g, 0.5 + rng.random(g.shape)), Field(g, rng.normal(size=g.shape)),
               0.3)
    out = rescale_state(st, lam)
    assert out.n.values.tobytes() == (
        (lam * lam) * _resample_by_fraction(st.n.values, lam)).tobytes()
    assert out.c.values.tobytes() == _resample_by_fraction(st.c.values, lam).tobytes()


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


def _lambda_ladder(n0, c0, lam, T, levels):
    """The scaling ladder on the 16/32/... unit torus, as scaling_test runs it."""
    cfg = SolverConfig(cfl_safety=0.4, upwind=False)
    return ErrorTable(list(ladder_rows(16, levels, partial(
        rescaled_finals, n0, c0, 2, lam, T, cfg, 1.0))))


def test_invariance_lambda_one_exact():
    w = 2 * np.pi
    table = _lambda_ladder(lambda x, y: 1 + 0.4 * np.cos(w * x) * np.cos(w * y),
                           lambda x, y: 0.8 + 0.3 * np.cos(w * x), lam=1, T=0.02,
                           levels=1)
    row = table.rows[0]
    assert row.l2_n == 0.0 and row.linf_n == 0.0
    assert row.l2_c == 0.0 and row.linf_c == 0.0


def test_invariance_errors_decrease_under_refinement():
    w = 2 * np.pi
    table = _lambda_ladder(lambda x, y: 1 + 0.4 * np.cos(w * x) * np.cos(w * y),
                           lambda x, y: 0.8 + 0.3 * np.cos(w * x), lam=2, T=0.04,
                           levels=3)
    errs = [r.linf_n for r in table.rows]
    assert errs[0] > errs[1] > errs[2]
    assert table.min_order >= 1.5


def test_invariance_pure_heat_second_order():
    # chi has no effect when n = 0: pure heat evolution for c
    w = 2 * np.pi
    table = _lambda_ladder(
        lambda x, y: np.zeros_like(x),
        lambda x, y: 0.8 + 0.3 * np.cos(w * x) + 0.1 * np.sin(w * y),
        lam=2, T=0.04, levels=3)
    orders = table.orders["l2_c"] + table.orders["linf_c"]
    assert min(orders) >= 1.9


def test_orders_at_zero_error():
    assert _orders([4.0, 1.0, 0.25]) == [2.0, 2.0]
    assert _orders([1.0, 0.0]) == [math.inf]
    assert _orders([0.0, 0.0]) == [math.inf]
    # growth from an exact level must fail a minimum-order monitor
    assert _orders([0.0, 1.0]) == [-math.inf]
