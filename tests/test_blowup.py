import math

import numpy as np
import pytest

from kslab import (Field, GridSpec, alpha_lower_bound, check_lower_bound,
                   classify, constant_field, fit_rate, make_grid,
                   nondegeneracy_map)
from kslab.blowup import NO_BLOWUP, TYPE_I, TYPE_II


def _synthetic(t_star, gamma, amplitude, t0, t1, count=50):
    ts = np.linspace(t0, t1, count)
    return list(zip(ts, amplitude * (t_star - ts) ** (-gamma)))


# --- fit_rate -----------------------------------------------------------------


def test_fit_simple_inverse_law():
    fit = fit_rate(_synthetic(1.0, 1.0, 1.0, 0.5, 0.99))
    assert fit.status == "ok"
    assert fit.t_star == pytest.approx(1.0, abs=1e-3)
    assert fit.gamma == pytest.approx(1.0, rel=1e-2)


def test_fit_three_halves_law():
    fit = fit_rate(_synthetic(2.0, 1.5, 4.0, 1.2, 1.98))
    assert fit.status == "ok"
    assert fit.t_star == pytest.approx(2.0, rel=1e-2)
    assert fit.gamma == pytest.approx(1.5, rel=1e-2)
    assert fit.amplitude == pytest.approx(4.0, rel=1e-2)


def test_fit_exactness_on_noiseless_series():
    for gamma, t_star, amp in ((0.8, 1.2, 2.0), (1.0, 1.0, 1.0), (1.5, 2.0, 4.0)):
        fit = fit_rate(_synthetic(t_star, gamma, amp, t_star - 0.5, t_star - 0.01))
        assert fit.residual < 1e-10
        assert abs(fit.t_star - t_star) / t_star < 1e-6
        assert abs(fit.gamma - gamma) / gamma < 1e-6
        assert abs(fit.amplitude - amp) / amp < 1e-6


def test_fit_constant_series_is_no_blowup():
    ts = np.linspace(0, 1, 40)
    fit = fit_rate(list(zip(ts, np.full(40, 5.0))))
    assert fit.status == NO_BLOWUP


def test_fit_decreasing_series_is_no_blowup():
    ts = np.linspace(0, 1, 40)
    fit = fit_rate(list(zip(ts, 5.0 - ts)))
    assert fit.status == NO_BLOWUP


def test_fit_rejects_short_window():
    series = _synthetic(1.0, 1.0, 1.0, 0.5, 0.99, count=20)
    with pytest.raises(ValueError):
        fit_rate(series, window_fraction=0.25)  # 5 points < 8


def test_fit_rejects_unordered_times():
    series = [(0.0, 1.0), (0.5, 2.0), (0.4, 3.0)] + _synthetic(1, 1, 1, 0.6, 0.9, 40)
    with pytest.raises(ValueError):
        fit_rate(series)


# --- classify -------------------------------------------------------------------


def test_classify_examples():
    assert classify(1.0, tol=0.05) == TYPE_I
    assert classify(1.5, tol=0.05) == TYPE_II
    assert classify(0.8, tol=0.05) == TYPE_I


def test_classify_threshold_is_sharp():
    tol = 0.05
    boundary = 1.0 + tol
    assert classify(boundary, tol) == TYPE_I
    assert classify(np.nextafter(boundary, 2.0), tol) == TYPE_II


# --- alpha -----------------------------------------------------------------------


def test_alpha_reference_values():
    alpha, c_tilde, delta0, kappa3 = alpha_lower_bound(1.0, 1.0)
    root = 2.0 + math.sqrt(3.0)
    assert kappa3 == 0.25
    assert delta0 == pytest.approx(1.0 / (4.0 * root**2), rel=1e-14)
    assert c_tilde == pytest.approx(3.0 * (2.0 * root) ** (2.0 / 3.0), rel=1e-13)
    assert alpha == pytest.approx(1.0 / (4.0 * c_tilde), rel=1e-14)


def test_alpha_closed_form_routes_agree():
    # 3 * delta0^{-1/3} * c0^{4/3} must equal 3 * (2(2+sqrt 3))^{2/3} C3^{1/3} c0^{4/3}
    for c0, C3 in ((1.0, 1.0), (2.5, 0.7), (0.3, 12.0)):
        _, c_tilde, delta0, _ = alpha_lower_bound(c0, C3)
        other = 3.0 * (2.0 * (2.0 + math.sqrt(3.0))) ** (2.0 / 3.0) \
            * C3 ** (1.0 / 3.0) * c0 ** (4.0 / 3.0)
        assert c_tilde == pytest.approx(other, rel=1e-13)


def test_alpha_scaling_in_c0():
    for c0 in (0.5, 1.0, 3.7):
        a1 = alpha_lower_bound(c0, 1.0)[0]
        a2 = alpha_lower_bound(2.0 * c0, 1.0)[0]
        assert a2 / a1 == pytest.approx(2.0 ** (-4.0 / 3.0), rel=5e-15)


def test_alpha_scaling_in_C3():
    for C3 in (0.5, 1.0, 9.0):
        a1 = alpha_lower_bound(1.0, C3)[0]
        a2 = alpha_lower_bound(1.0, 2.0 * C3)[0]
        assert a2 / a1 == pytest.approx(2.0 ** (-1.0 / 3.0), rel=5e-15)


def test_alpha_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        alpha_lower_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        alpha_lower_bound(1.0, -2.0)


# --- lower bound check ------------------------------------------------------------


def test_check_lower_bound_identity_product():
    series = _synthetic(1.0, 1.0, 1.0, 0.5, 0.99)
    est, ok = check_lower_bound(series, 1.0, alpha=0.5)
    assert est == pytest.approx(1.0, rel=1e-12)
    assert ok


def test_check_lower_bound_half_amplitude():
    series = _synthetic(1.0, 1.0, 0.5, 0.5, 0.99)
    est, ok = check_lower_bound(series, 1.0, alpha=0.02)
    assert est == pytest.approx(0.5, rel=1e-12)
    assert ok


def test_check_lower_bound_bounded_series():
    # bounded n_sup with a forced t_star: the estimate decays to zero as the
    # samples approach t_star, so the bound ends up unsatisfied
    est_far, ok_far = check_lower_bound(
        [(t, 2.0) for t in np.linspace(0.0, 0.99, 50)], 1.0, alpha=0.5)
    est_near, ok_near = check_lower_bound(
        [(t, 2.0) for t in np.linspace(0.99, 0.9999, 50)], 1.0, alpha=0.5)
    assert est_near < est_far < 0.5
    assert est_near <= 0.05
    assert not ok_far and not ok_near


# --- nondegeneracy map --------------------------------------------------------------


def _grid2():
    return make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))


def test_nondegeneracy_constant_density():
    g = _grid2()
    snaps = [(t, constant_field(g, 3.0)) for t in (0.2, 0.5, 0.8)]
    nd = nondegeneracy_map(snaps, t_star=1.0, epsilon=0.01)
    np.testing.assert_allclose(nd.values.values, 3.0 * (1.0 - 0.2), rtol=1e-14)
    assert nd.flagged.all()


def test_nondegeneracy_point_singularity():
    g = _grid2()
    X, Y = g.meshes()
    bump = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.005)
    snaps = []
    for t in (0.7, 0.8, 0.9):
        snaps.append((t, Field(g, bump / (1.0 - t))))
    nd = nondegeneracy_map(snaps, t_star=1.0, epsilon=0.5)
    expected = bump >= 0.5
    np.testing.assert_array_equal(nd.flagged, expected)


def test_nondegeneracy_infinite_epsilon_empty():
    g = _grid2()
    snaps = [(0.5, constant_field(g, 1.0))]
    nd = nondegeneracy_map(snaps, t_star=1.0, epsilon=math.inf)
    assert nd.flagged_count == 0


def test_nondegeneracy_monotone_in_snapshots():
    rng = np.random.default_rng(3)
    g = _grid2()
    snaps = [(t, Field(g, rng.random(g.shape))) for t in (0.1, 0.4, 0.7)]
    nd_prefix = nondegeneracy_map(snaps[:2], t_star=1.0)
    nd_full = nondegeneracy_map(snaps, t_star=1.0)
    assert np.all(nd_full.values.values >= nd_prefix.values.values - 1e-15)


def test_nondegeneracy_rejects_bad_times():
    g = _grid2()
    with pytest.raises(ValueError):
        nondegeneracy_map([(1.5, constant_field(g, 1.0))], t_star=1.0)
    with pytest.raises(ValueError):
        nondegeneracy_map([], t_star=1.0)

