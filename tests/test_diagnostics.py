import math
import warnings

import numpy as np
import pytest

import oracle as orc
from kslab import (CriterionAccumulator, Field, GridSpec, PositivityError,
                   SolverConfig, State, StopRule, WINKLER_CONSTANT,
                   constant_field, effective_velocity,
                   energy_inequality_residual, evaluate, fill, kinetic_energy,
                   lp_norm, make_grid, pointwise_hessian_check, run,
                   update_accumulators, winkler_ratio)
from kslab.diagnostics import CSV_FIELDS, read_diagnostics_csv, write_diagnostics_csv

KAPPAS = (1.0, 1.0, 1.0)


def _torus(cells, dim=1, extent=1.0):
    return make_grid(GridSpec(dim, (cells,) * dim, (extent,) * dim,
                              "periodic_torus"))


# --- evaluate: trivial closed forms ------------------------------------------


def test_evaluate_unit_constants():
    g = _torus(8, dim=2)
    st = State(constant_field(g, 1.0), constant_field(g, 1.0), 0.0)
    rec = evaluate(st, KAPPAS, chi=1.0, s=2.0)
    assert rec.entropy == pytest.approx(0.0, abs=1e-14)
    assert rec.fisher == 0.0
    assert rec.n_gradlog_sq == 0.0
    assert rec.n_gradc_sq == 0.0
    assert rec.gradc_l4_4 == 0.0
    assert rec.kinetic_E == 0.0
    assert rec.V == pytest.approx(1.5, rel=1e-13)
    assert rec.G == pytest.approx(0.5, rel=1e-13)


def test_evaluate_exponential_density():
    g = _torus(8, dim=2)
    st = State(constant_field(g, math.e), constant_field(g, 0.0), 0.0)
    rec = evaluate(st, KAPPAS, chi=1.0, s=2.0)
    assert rec.entropy == pytest.approx(math.e, rel=1e-13)
    assert rec.V == pytest.approx(math.e**2, rel=1e-13)


def test_evaluate_rejects_negative_n():
    g = _torus(8)
    vals = np.full(g.shape, 1.0)
    vals[0] = -0.5
    st = State.__new__(State)
    object.__setattr__(st, "n", Field(g, np.abs(vals)))
    object.__setattr__(st, "c", constant_field(g, 1.0))
    object.__setattr__(st, "t", 0.0)
    object.__setattr__(st.n, "values", vals)
    with pytest.raises(PositivityError):
        evaluate(st, KAPPAS, chi=1.0, s=2.0)


# --- evaluate: high-resolution quadrature oracle -------------------------------


def _closed_form_record(chi, kappas, s, quad_points=20000):
    """Continuum functionals for n = 2 + cos(2 pi x), c = 1 + 0.5 cos(2 pi x)."""
    k1, k2, k3 = kappas
    w = 2 * math.pi
    x = (np.arange(quad_points) + 0.5) / quad_points

    n = 2 + np.cos(w * x)
    dn = -w * np.sin(w * x)
    d2n = -w * w * np.cos(w * x)
    c = 1 + 0.5 * np.cos(w * x)
    dc = -0.5 * w * np.sin(w * x)
    d2c = -0.5 * w * w * np.cos(w * x)
    d3c = 0.5 * w**3 * np.sin(w * x)

    def integ(values):
        return float(np.mean(values))

    loglap_n = (d2n * n - dn * dn) / (n * n)      # (log n)''
    loglap_c = (d2c * c - dc * dc) / (c * c)
    c_t = d2c - n * c
    dct = d3c - (dn * c + n * dc)

    out = {
        "mass": integ(n),
        "entropy": integ(n * np.log(n)),
        "dirichlet_sqrt_c": integ(dc * dc / (2 * c)),
        "fisher": integ(dn * dn / n),
        "n_gradlog_sq": integ(dn * dn / n),
        "n_gradc_sq": integ(n * dc * dc),
        "n_l2_sq": integ(n * n),
        "cross_n2c": integ(n * n * c),
        "lap_c_l2_sq": integ(d2c * d2c),
        "gradc_l4_4": integ(dc**4),
        "cn3": integ(c * n**3),
        "c_gradn_sq": integ(c * dn * dn),
        "kinetic_E": 0.5 * integ(n * (chi * dc - dn / n) ** 2),
        "gradc_inf": float(np.max(np.abs(dc))),
        "n_ls_norm": integ(n**s) ** (1.0 / s),
        "c_mass": integ(c),
        "n_gradc_sq_over_c": integ(n * dc * dc / c),
        "c_hesslog_c_sq": integ(c * loglap_c**2),
    }
    out["V"] = (0.5 * out["n_gradlog_sq"] + k1 / (2 * chi) * out["cross_n2c"]
                + k1 / chi**2 * out["n_l2_sq"]
                + (k1 / 2 + k2) * out["n_gradc_sq"]
                + k2 * out["lap_c_l2_sq"] + k3 * out["gradc_l4_4"])
    out["G"] = (k1 / chi**2 * integ(dn * dn) + k1 / (2 * chi) * out["cn3"]
                + k1 / chi * out["c_gradn_sq"] + 0.5 * k2 * integ(dct * dct)
                + 0.5 * k2 * integ(d3c * d3c)
                + 0.25 * (k1 + k2) * integ(n * d2c * d2c)
                + k3 * integ((2 * dc * d2c) ** 2)
                + 4 * k3 * integ(d2c * d2c * dc * dc)
                + (1.0 / 16.0) * integ(n * loglap_n**2))
    return out


def test_evaluate_matches_fine_quadrature_oracle():
    chi, s = 1.0, 2.0
    kappas = (10.0, 0.01, 1.0)
    g = _torus(256)
    w = 2 * np.pi
    st = State(fill(g, lambda x: 2 + np.cos(w * x)),
               fill(g, lambda x: 1 + 0.5 * np.cos(w * x)), 0.0)
    rec = evaluate(st, kappas, chi=chi, s=s)
    expected = _closed_form_record(chi, kappas, s)
    for name, ref in expected.items():
        mine = getattr(rec, name)
        assert mine == pytest.approx(ref, rel=1e-3), name


# --- evaluate: brute-force oracle equivalence -----------------------------------


def test_evaluate_matches_brute_force_oracle():
    rng = np.random.default_rng(77)
    cases = [
        (GridSpec(1, (32,), (1.0,), "periodic_torus")),
        (GridSpec(1, (24,), (2.0,), "neumann_box")),
        (GridSpec(2, (10, 12), (1.0, 1.5), "periodic_torus")),
        (GridSpec(2, (9, 7), (2.0, 1.0), "neumann_box")),
        (GridSpec(3, (6, 5, 4), (1.0, 1.0, 1.0), "periodic_torus")),
        (GridSpec(3, (4, 5, 6), (1.0, 2.0, 1.0), "neumann_box")),
    ]
    kappas = (10.0, 0.01, 1.0)
    for spec in cases:
        g = make_grid(spec)
        nv = 1.1 + rng.random(g.shape)
        cv = 0.3 + rng.random(g.shape)
        st = State(Field(g, nv), Field(g, cv), 0.0)
        rec = evaluate(st, kappas, chi=1.3, s=2.0)
        og = orc.OracleGrid(spec.cells, spec.extent,
                            spec.topology == "periodic_torus")
        ref = orc.evaluate_record(nv, cv, og, kappas, 1.3, 2.0)
        for name, val in ref.items():
            mine = getattr(rec, name)
            rel = abs(mine - val) / max(abs(mine), abs(val), 1e-30)
            assert rel <= 1e-12, (spec.topology, name, rel)


# --- accumulators ---------------------------------------------------------------


def _mini(t, ns, gc=0.0):
    g = _torus(8)
    st = State(constant_field(g, ns), constant_field(g, 0.0), t)
    rec = evaluate(st, KAPPAS, chi=1.0, s=2.0)
    return rec


def _update(acc, prev, nxt):
    """update_accumulators between two records' t, L^2 norm and sup |grad c|."""
    return update_accumulators(acc, prev.t, prev.n_ls_norm, prev.gradc_inf,
                               nxt.t, nxt.n_ls_norm, nxt.gradc_inf)


def test_accumulator_constant_integrand():
    acc = CriterionAccumulator(s=2.0, r=4.0)
    n_bar = 3.0
    prev = _mini(0.0, n_bar)
    nxt = _mini(2.5, n_bar)
    acc = _update(acc, prev, nxt)
    # unit volume: ||n||_{L^2} = n_bar, integrand n_bar^4
    assert acc.value_ns == pytest.approx(2.5 * n_bar**4, rel=1e-12)
    assert acc.value_gc == 0.0


def test_accumulator_three_point_trapezoid_oracle():
    acc = CriterionAccumulator(s=2.0, r=2.0)
    values = [(0.0, 1.0), (0.5, 2.0), (2.0, 5.0)]
    recs = [_mini(t, v) for t, v in values]
    for prev, nxt in zip(recs, recs[1:]):
        acc = _update(acc, prev, nxt)
    expected = 0.5 * 0.5 * (1.0 + 4.0) + 0.5 * 1.5 * (4.0 + 25.0)
    assert acc.value_ns == pytest.approx(expected, rel=1e-12)


def test_accumulator_running_sup_for_infinite_r():
    acc = CriterionAccumulator(s=2.0, r=math.inf)
    recs = [_mini(0.0, 1.0), _mini(1.0, 4.0), _mini(2.0, 2.0)]
    for prev, nxt in zip(recs, recs[1:]):
        acc = _update(acc, prev, nxt)
    assert acc.value_ns == pytest.approx(4.0, rel=1e-12)


def test_accumulator_rejects_bad_time_order():
    acc = CriterionAccumulator(s=2.0, r=2.0)
    with pytest.raises(ValueError):
        _update(acc, _mini(1.0, 1.0), _mini(0.5, 1.0))


def test_accumulator_admissibility():
    assert CriterionAccumulator(s=2.0, r=4.0).admissible          # 3/2 + 1/2 = 2
    assert CriterionAccumulator(s=math.inf, r=1.0).admissible     # 0 + 2 = 2
    assert not CriterionAccumulator(s=2.0, r=2.0).admissible      # 3/2 + 1 > 2
    assert CriterionAccumulator(s=1.6, r=math.inf).admissible     # 1.875 <= 2
    with pytest.raises(ValueError):
        CriterionAccumulator(s=1.5, r=4.0)
    with pytest.raises(ValueError):
        CriterionAccumulator(s=2.0, r=0.5)


def test_accumulator_monotone():
    rng = np.random.default_rng(12)
    acc = CriterionAccumulator(s=2.0, r=4.0)
    t = 0.0
    prev = _mini(t, 1.0)
    values_ns = [acc.value_ns]
    values_gc = [acc.value_gc]
    for _ in range(10):
        t += rng.uniform(0.1, 1.0)
        nxt = _mini(t, rng.uniform(0.5, 3.0))
        acc = _update(acc, prev, nxt)
        values_ns.append(acc.value_ns)
        values_gc.append(acc.value_gc)
        prev = nxt
    assert all(a <= b + 1e-15 for a, b in zip(values_ns, values_ns[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(values_gc, values_gc[1:]))


# --- energy inequality monitor ---------------------------------------------------


def test_energy_residual_equilibrium_state():
    g = _torus(16, dim=2)
    st0 = State(constant_field(g, 2.0), constant_field(g, 0.0), 0.0)
    st1 = State(constant_field(g, 2.0), constant_field(g, 0.0), 0.1)
    recs = [evaluate(s, KAPPAS, chi=1.0, s=2.0) for s in (st0, st1)]
    assert energy_inequality_residual(recs, C=1.0, chi=1.0) <= 0.0


def test_energy_residual_constant_decay_run():
    g = _torus(8, dim=2)
    st = State(constant_field(g, 1.0), constant_field(g, 1.0), 0.0)
    records = []
    run(st, SolverConfig(dt_max=1e-3), StopRule(t_end=0.5),
        on_sample=lambda s, k: records.append(evaluate(s, KAPPAS, 1.0, 2.0)),
        sample_every=50)
    for prev, nxt in zip(records, records[1:]):
        res = energy_inequality_residual([prev, nxt], C=1.0, chi=1.0)
        # closed form: residual = -C * mean of e^{-t} < 0 for C >= 1
        expected = -0.5 * (math.exp(-prev.t) + math.exp(-nxt.t))
        assert res <= 0.0
        assert res == pytest.approx(expected, rel=1e-2)


def test_energy_residual_smooth_run_large_C():
    rng = np.random.default_rng(41)
    g = _torus(16, dim=2)
    w = 2 * np.pi
    n0 = fill(g, lambda x, y: 1.0 + 0.5 * np.cos(w * x) * np.cos(w * y))
    c0 = fill(g, lambda x, y: 0.6 + 0.3 * np.cos(w * y))
    records = []
    run(State(n0, c0, 0.0), SolverConfig(cfl_safety=0.3), StopRule(t_end=0.2),
        on_sample=lambda s, k: records.append(evaluate(s, KAPPAS, 1.0, 2.0)),
        sample_every=50)
    assert len(records) >= 3
    for prev, nxt in zip(records, records[1:]):
        assert energy_inequality_residual([prev, nxt], C=1e3, chi=1.0) <= 0.0


def test_energy_residual_needs_two_records():
    with pytest.raises(ValueError):
        energy_inequality_residual([_mini(0.0, 1.0)], C=1.0, chi=1.0)


# --- functional inequality checks ---------------------------------------------


def test_winkler_ratio_constant_field_not_applicable():
    g = _torus(128)
    assert winkler_ratio(constant_field(g, 2.0)) is None


def test_winkler_ratio_1d_profile():
    g = _torus(256)
    n = fill(g, lambda x: 2 + np.cos(2 * np.pi * x))
    ratio = winkler_ratio(n)
    assert ratio is not None
    assert ratio <= WINKLER_CONSTANT * 1.05


def test_winkler_ratio_2d_profile():
    g = _torus(128, dim=2)
    n = fill(g, lambda x, y: 1 + 0.9 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    ratio = winkler_ratio(n)
    assert ratio is not None
    assert ratio <= WINKLER_CONSTANT * 1.05


def test_winkler_ratio_against_fine_quadrature():
    g = _torus(256)
    n = fill(g, lambda x: 2 + np.cos(2 * np.pi * x))
    w = 2 * math.pi
    x = (np.arange(20000) + 0.5) / 20000
    nq = 2 + np.cos(w * x)
    dnq = -w * np.sin(w * x)
    loglap = (-w * w * np.cos(w * x) * nq - dnq * dnq) / (nq * nq)
    num = float(np.mean(dnq**4 / nq**3))
    den = float(np.mean(nq * loglap**2))
    assert winkler_ratio(n) == pytest.approx(num / den, rel=1e-3)


def test_winkler_rejects_nonpositive():
    g = _torus(128)
    n = fill(g, lambda x: np.cos(2 * np.pi * x))  # touches -1
    with pytest.raises(PositivityError):
        winkler_ratio(n)


def test_winkler_ratio_clips_a_zero_cell_at_evaluates_level():
    # clipped at 1e-300 the cube of the zero cell underflows and the ratio is inf
    g = _torus(16)
    nv = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers(0))
    nv[5] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = winkler_ratio(Field(g, nv), floor=0.0)
    assert ratio is not None and math.isfinite(ratio)


def test_pointwise_hessian_check_constant():
    g = _torus(16, dim=2)
    assert pointwise_hessian_check(constant_field(g, 3.0)) == 0.0


def test_pointwise_hessian_check_random_3d():
    rng = np.random.default_rng(55)
    for topo in ("periodic_torus", "neumann_box"):
        g = make_grid(GridSpec(3, (6, 5, 4), (1.0, 1.0, 1.0), topo))
        for _ in range(20):
            f = Field(g, rng.normal(size=g.shape))
            assert pointwise_hessian_check(f) <= 0.0


def test_pointwise_hessian_check_saddle():
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "neumann_box"))
    f = fill(g, lambda x, y: x * x - y * y)
    assert pointwise_hessian_check(f) <= 0.0


# --- effective velocity -----------------------------------------------------------


def test_effective_velocity_constants():
    g = _torus(8, dim=2)
    n = constant_field(g, 2.0)
    c = constant_field(g, 1.0)
    w = effective_velocity(n, c, chi=1.0)
    assert all(np.all(comp == 0.0) for comp in w.components)
    assert kinetic_energy(n, w) == 0.0


def test_effective_velocity_exponential_profile():
    g = make_grid(GridSpec(1, (32,), (1.0,), "neumann_box"))
    n = fill(g, lambda x: np.exp(x))
    c = constant_field(g, 1.0)
    w = effective_velocity(n, c, chi=0.0)
    comp = w.components[0]
    np.testing.assert_allclose(comp[1:], -1.0, rtol=1e-12)
    assert comp[0] == 0.0  # the wall face


def test_effective_velocity_cancellation():
    g = make_grid(GridSpec(1, (32,), (1.0,), "neumann_box"))
    n = fill(g, lambda x: np.exp(x))
    c = fill(g, lambda x: x)
    w = effective_velocity(n, c, chi=1.0)
    comp = w.components[0]
    assert comp[0] == 0.0  # the wall face
    np.testing.assert_allclose(comp[1:], 0.0, atol=1e-12)
    assert kinetic_energy(n, w) <= 1e-24


def test_effective_velocity_rejects_nonpositive_n():
    g = _torus(8)
    with pytest.raises(PositivityError):
        effective_velocity(constant_field(g, 0.0), constant_field(g, 1.0), 1.0)


@pytest.mark.parametrize("topology", ["neumann_box", "periodic_torus"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_kinetic_E_is_kinetic_energy_of_effective_velocity(dim, topology):
    cells = {1: (40,), 2: (12, 9), 3: (6, 5, 4)}[dim]
    g = make_grid(GridSpec(dim, cells, (1.0, 2.0, 1.5)[:dim], topology))
    rng = np.random.default_rng(70 + dim)
    n = Field(g, 0.5 + rng.random(g.shape))
    c = Field(g, rng.random(g.shape))
    rec = evaluate(State(n, c, 0.0), KAPPAS, chi=2.5, s=2.0)
    assert rec.kinetic_E > 0.0
    assert rec.kinetic_E == kinetic_energy(n, effective_velocity(n, c, chi=2.5))
    # n = 1 with one zero cell, floor 0: both clip it at 1e-12 * sup n
    nz = np.ones(g.shape)
    nz.flat[3] = 0.0
    n = Field(g, nz)
    c = fill(g, lambda x, *_: 1.0 + 0.5 * np.cos(2.0 * math.pi * x))
    rec = evaluate(State(n, c, 0.0), KAPPAS, chi=2.5, s=2.0, floor=0.0)
    assert rec.kinetic_E == kinetic_energy(
        n, effective_velocity(n, c, chi=2.5, floor=0.0))


# --- V invariants -------------------------------------------------------------------


def test_V_nonnegative_on_random_states():
    rng = np.random.default_rng(66)
    g = _torus(12, dim=2)
    for _ in range(10):
        nv = rng.random(g.shape) + 0.01
        cv = rng.random(g.shape)
        st = State(Field(g, nv), Field(g, cv), 0.0)
        rec = evaluate(st, (10.0, 0.01, 1.0), chi=1.0, s=2.0)
        assert rec.V >= 0.0
        assert rec.mass > 0.0
        for name in CSV_FIELDS:
            assert math.isfinite(getattr(rec, name))


# --- CSV round trip -------------------------------------------------------------


def test_diagnostics_csv_roundtrip(tmp_path):
    g = _torus(8, dim=2)
    recs = []
    for t in (0.0, 0.5, 1.0):
        st = State(constant_field(g, 1.0 + t), constant_field(g, 1.0), t)
        recs.append(evaluate(st, KAPPAS, chi=1.0, s=2.0))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(recs, path)
    back = read_diagnostics_csv(path)
    assert len(back) == 3
    for a, b in zip(recs, back):
        for name in CSV_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


def test_V_structure_vanishes_only_without_contributions():
    g = _torus(12, dim=2)
    # n = 0 and constant c: every V term vanishes
    st0 = State(constant_field(g, 0.0), constant_field(g, 0.7), 0.0)
    assert evaluate(st0, (10.0, 0.01, 1.0), chi=1.0, s=2.0).V == 0.0
    # any positive n switches the n^2 term on
    st1 = State(constant_field(g, 0.3), constant_field(g, 0.7), 0.0)
    assert evaluate(st1, (10.0, 0.01, 1.0), chi=1.0, s=2.0).V > 0.0
    # n = 0 but nonconstant c keeps the gradient terms alive
    st2 = State(constant_field(g, 0.0),
                fill(g, lambda x, y: 0.5 + 0.2 * np.cos(2 * np.pi * x)), 0.0)
    assert evaluate(st2, (10.0, 0.01, 1.0), chi=1.0, s=2.0).V > 0.0
