import math

import numpy as np
import pytest

from kslab import (Field, GridSpec, alpha_lower_bound, check_lower_bound,
                   classify, constant_field, fit_rate, make_grid,
                   nondegeneracy_map, rate_report)
from kslab.blowup import C3_RANGE, NO_BLOWUP, TYPE_I, TYPE_II


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


@pytest.mark.parametrize("fraction", [math.inf, math.nan, 5.0, 0.0, -1.0])
def test_fit_rejects_window_fraction_outside_unit_interval(fraction):
    series = _synthetic(1.0, 1.0, 1.0, 0.5, 0.99, count=40)
    with pytest.raises(ValueError, match="window fraction"):
        fit_rate(series, window_fraction=fraction)


def test_fit_rejects_unordered_times():
    series = [(0.0, 1.0), (0.5, 2.0), (0.4, 3.0)] + _synthetic(1, 1, 1, 0.6, 0.9, 40)
    with pytest.raises(ValueError):
        fit_rate(series)


@pytest.mark.parametrize("row, cell, value", [
    (59, 1, math.inf), (30, 1, math.nan), (0, 0, -math.inf)])
def test_fit_rejects_non_finite_samples(row, cell, value):
    series = [list(pair) for pair in _synthetic(1.0, 1.0, 1.0, 0.5, 0.99, count=60)]
    series[row][cell] = value
    with pytest.raises(ValueError, match=f"series row {row} is not finite"):
        fit_rate(series)


def test_fit_nan_exponent_is_no_blowup(monkeypatch):
    import kslab.blowup

    monkeypatch.setattr(kslab.blowup, "_loglog_fit", lambda *args: (math.nan, 0.0, 0.0))
    assert fit_rate(_synthetic(1.0, 1.0, 1.0, 0.5, 0.99)).status == NO_BLOWUP


# --- classify -------------------------------------------------------------------


def test_classify_examples():
    assert classify(1.0) == TYPE_I
    assert classify(1.5) == TYPE_II
    assert classify(0.8) == TYPE_I


def test_classify_threshold_is_sharp():
    boundary = 1.0 + 0.05
    assert classify(boundary) == TYPE_I
    assert classify(np.nextafter(boundary, 2.0)) == TYPE_II


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
    nd = nondegeneracy_map(snaps, t_star=1.0)
    np.testing.assert_allclose(nd.values, 3.0 * (1.0 - 0.2), rtol=1e-14)
    assert (nd.values >= 0.01).all()


def test_nondegeneracy_point_singularity():
    g = _grid2()
    X, Y = g.meshes()
    bump = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.005)
    snaps = []
    for t in (0.7, 0.8, 0.9):
        snaps.append((t, Field(g, bump / (1.0 - t))))
    nd = nondegeneracy_map(snaps, t_star=1.0)
    expected = bump >= 0.5
    np.testing.assert_array_equal(nd.values >= 0.5, expected)


@pytest.mark.parametrize("c0_sup", [0.0, 1e-300, 1e-240])
def test_rate_report_without_a_finite_alpha(c0_sup):
    """Below about 1e-233, c0_sup^(-4/3) is not a finite double (at 0, and
    from about 1e-243 down, C_tilde underflows to 0): alpha is null, the
    note says why, and no limsup satisfies the bound."""
    ts = np.linspace(0.5, 0.99, 60)
    series = list(zip(ts, 1.0 / (1.0 - ts)))
    fit = fit_rate(series)
    assert fit.status == "ok"
    report = rate_report(series, fit, c0_sup, 1.0, 0.25, note="first")
    assert report["alpha"] is None
    assert report["lower_bound_satisfied"] is False
    assert report["limsup_estimate"] == pytest.approx(1.0, rel=1e-3)
    assert report["note"].startswith(f"first; alpha is unbounded: c0_sup = {c0_sup!r}")
    assert report["constants"]["c0_sup"] == c0_sup
    with pytest.raises(ValueError):
        rate_report(series, fit, -1.0, 1.0, 0.25)


@pytest.mark.parametrize("c0_sup", [1e232, 1e300, 1.7e308])
def test_rate_report_where_C_tilde_overflows(c0_sup):
    """A measured c0_sup whose C_tilde overflows (c0_sup^(4/3) beyond the
    largest double from about 1e231) gives alpha null and a note, never a
    traceback, and no limsup satisfies the bound."""
    ts = np.linspace(0.5, 0.99, 60)
    series = list(zip(ts, 1.0 / (1.0 - ts)))
    report = rate_report(series, fit_rate(series), c0_sup, 1.0, 0.25)
    assert report["alpha"] is None
    assert report["lower_bound_satisfied"] is False
    assert report["note"].startswith(f"C_tilde overflows: c0_sup = {c0_sup!r}")
    assert report["constants"]["C_tilde"] == math.inf


@pytest.mark.parametrize("C3", [math.inf, 1e307, 4e306, 1.01e300, 0.99e-300,
                                5e-324, 0.0, -1.0, math.nan])
def test_lower_bound_constants_reject_C3_outside_its_range(C3):
    """delta0 = 1/(4 (2+sqrt 3)^2 C3) underflows to 0 from about C3 = 3.2e306
    (and 0.0 ** (-1/3) raises ZeroDivisionError); C3_RANGE keeps it and
    delta0^(-1/3) normal doubles."""
    ts = np.linspace(0.5, 0.99, 60)
    series = list(zip(ts, 1.0 / (1.0 - ts)))
    with pytest.raises(ValueError, match="C3 in C3_RANGE"):
        rate_report(series, fit_rate(series), 1.0, C3, 0.25)
    with pytest.raises(ValueError, match="C3 in C3_RANGE"):
        alpha_lower_bound(1.0, C3)


@pytest.mark.parametrize("C3", C3_RANGE)
def test_lower_bound_constants_at_the_ends_of_C3_RANGE(C3):
    alpha, c_tilde, delta0, kappa3 = alpha_lower_bound(1.0, C3)
    assert all(0.0 < v < math.inf for v in (alpha, c_tilde, delta0, kappa3))


def test_nondegeneracy_monotone_in_snapshots():
    rng = np.random.default_rng(3)
    g = _grid2()
    snaps = [(t, Field(g, rng.random(g.shape))) for t in (0.1, 0.4, 0.7)]
    nd_prefix = nondegeneracy_map(snaps[:2], t_star=1.0)
    nd_full = nondegeneracy_map(snaps, t_star=1.0)
    assert np.all(nd_full.values >= nd_prefix.values - 1e-15)


def test_nondegeneracy_rejects_bad_times():
    g = _grid2()
    with pytest.raises(ValueError):
        nondegeneracy_map([(1.5, constant_field(g, 1.0))], t_star=1.0)
    with pytest.raises(ValueError):
        nondegeneracy_map([], t_star=1.0)



def test_nondegeneracy_from_a_generator_matches_a_list_bit_for_bit():
    """The map folds an iterable one snapshot at a time: a generator, which
    can be read only once, gives the same bytes as a list of the same
    snapshots."""
    rng = np.random.default_rng(11)
    g = _grid2()
    snaps = [(t, Field(g, 1.0 + rng.random(g.shape))) for t in (0.1, 0.3, 0.6, 0.65, 0.9)]
    from_list = nondegeneracy_map(snaps, t_star=1.0)
    from_gen = nondegeneracy_map(((t, n) for t, n in snaps), t_star=1.0)
    assert from_gen.values.tobytes() == from_list.values.tobytes()
    # and the fold is the elementwise max of each scaled snapshot, as before
    expected = np.max([(1.0 - t) * n.values for t, n in snaps], axis=0)
    assert from_list.values.tobytes() == expected.tobytes()
