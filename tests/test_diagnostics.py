import math

import numpy as np
import pytest

import oracle as orc
import reference_evaluate as ref
from kslab import (Field, GridSpec, PositivityError, SolverConfig, State, StopRule,
                   WINKLER_CONSTANT, constant_field, energy_inequality_residual,
                   evaluate, fill, lp_norm, make_grid, pointwise_hessian_check,
                   run, winkler_ratio)
from kslab.diagnostics import (CSV_FIELDS, DiagnosticsWriter, TableWriter,
                               admissible, criterion_integral,
                               read_diagnostics_csv, read_table)

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


def test_evaluate_V_weight_past_the_float_range():
    """k1 / chi^2 reads 0 once chi^2 overflows and inf once it underflows,
    instead of raising."""
    g = _torus(8, dim=2)
    st = State(constant_field(g, 1.0), constant_field(g, 1.0), 0.0)
    assert evaluate(st, KAPPAS, chi=1e300, s=2.0).V == 0.5 * (1.0 / 1e300)
    assert evaluate(st, KAPPAS, chi=1e-300, s=2.0).V == math.inf


def test_evaluate_exponential_density():
    g = _torus(8, dim=2)
    st = State(constant_field(g, math.e), constant_field(g, 0.0), 0.0)
    rec = evaluate(st, KAPPAS, chi=1.0, s=2.0)
    assert rec.entropy == pytest.approx(math.e, rel=1e-13)
    assert rec.V == pytest.approx(math.e**2, rel=1e-13)


# --- evaluate: high-resolution quadrature oracle -------------------------------


def _closed_form_record(chi, kappas, s, quad_points=20000):
    """Continuum functionals for n = 2 + cos(2 pi x), c = 1 + 0.5 cos(2 pi x)."""
    k1, k2, k3 = kappas
    w = 2 * math.pi
    x = (np.arange(quad_points) + 0.5) / quad_points

    n = 2 + np.cos(w * x)
    dn = -w * np.sin(w * x)
    c = 1 + 0.5 * np.cos(w * x)
    dc = -0.5 * w * np.sin(w * x)
    d2c = -0.5 * w * w * np.cos(w * x)

    def integ(values):
        return float(np.mean(values))

    loglap_c = (d2c * c - dc * dc) / (c * c)

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


# --- criterion integrals ---------------------------------------------------------


def _mini(t, ns, gc=0.0):
    g = _torus(8)
    st = State(constant_field(g, ns), constant_field(g, 0.0), t)
    rec = evaluate(st, KAPPAS, chi=1.0, s=2.0)
    return rec


def _fold(records, r):
    """criterion_integral over records' t of their L^2 norm to the r, and of
    their sup |grad c| squared."""
    ts = [rec.t for rec in records]
    return (criterion_integral(ts, [rec.n_ls_norm for rec in records], r),
            criterion_integral(ts, [rec.gradc_inf for rec in records], 2.0))


def test_accumulator_constant_integrand():
    n_bar = 3.0
    value_ns, value_gc = _fold([_mini(0.0, n_bar), _mini(2.5, n_bar)], 4.0)
    # unit volume: ||n||_{L^2} = n_bar, integrand n_bar^4
    assert value_ns == pytest.approx(2.5 * n_bar**4, rel=1e-12)
    assert value_gc == 0.0


def test_accumulator_three_point_trapezoid_oracle():
    values = [(0.0, 1.0), (0.5, 2.0), (2.0, 5.0)]
    value_ns, _ = _fold([_mini(t, v) for t, v in values], 2.0)
    expected = 0.5 * 0.5 * (1.0 + 4.0) + 0.5 * 1.5 * (4.0 + 25.0)
    assert value_ns == pytest.approx(expected, rel=1e-12)


def test_accumulator_running_sup_for_infinite_r():
    recs = [_mini(0.0, 1.0), _mini(1.0, 4.0), _mini(2.0, 2.0)]
    assert _fold(recs, math.inf)[0] == pytest.approx(4.0, rel=1e-12)


def test_accumulator_rejects_bad_time_order():
    with pytest.raises(ValueError, match="records out of time order: 1.0 !< 0.5"):
        _fold([_mini(1.0, 1.0), _mini(0.5, 1.0)], 2.0)


def test_accumulator_admissibility():
    # s > 3/2 and r >= 1 are config rules (harness._pairs)
    assert admissible(2.0, 4.0)            # 3/2 + 1/2 = 2
    assert admissible(math.inf, 1.0)       # 0 + 2 = 2
    assert not admissible(2.0, 2.0)        # 3/2 + 1 > 2
    assert admissible(1.6, math.inf)       # 1.875 <= 2


def test_accumulator_monotone():
    rng = np.random.default_rng(12)
    t = 0.0
    recs = [_mini(t, 1.0)]
    for _ in range(10):
        t += rng.uniform(0.1, 1.0)
        recs.append(_mini(t, rng.uniform(0.5, 3.0)))
    folds = [_fold(recs[:k], 4.0) for k in range(1, len(recs) + 1)]
    for column in zip(*folds):  # value_ns, then value_gc
        assert all(a <= b + 1e-15 for a, b in zip(column, column[1:]))


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


# --- effective velocity: evaluate's kinetic energy ----------------------------
# kinetic_E = 1/2 sum over faces of the face-averaged n times w^2, times the
# cell volume, with w = chi * grad c - grad log n on the faces


def _kinetic_E(n, c, chi):
    return evaluate(State(n, c, 0.0), KAPPAS, chi=chi, s=2.0).kinetic_E


def test_effective_velocity_constants():
    g = _torus(8, dim=2)
    assert _kinetic_E(constant_field(g, 2.0), constant_field(g, 1.0), chi=1.0) == 0.0


def test_effective_velocity_exponential_profile():
    # c = 1 and n = e^x: w = -1 on every face but the wall face
    g = make_grid(GridSpec(1, (32,), (1.0,), "neumann_box"))
    n = fill(g, lambda x: np.exp(x))
    nv = n.values
    exact = 0.5 * g.cell_volume * float(np.sum(0.5 * (nv[:-1] + nv[1:])))
    assert _kinetic_E(n, constant_field(g, 1.0), chi=1.0) == pytest.approx(
        exact, rel=1e-12)


def test_effective_velocity_cancellation():
    # chi grad c = grad log n for n = e^x, c = x, chi = 1: w = 0 to rounding
    g = make_grid(GridSpec(1, (32,), (1.0,), "neumann_box"))
    n = fill(g, lambda x: np.exp(x))
    assert _kinetic_E(n, fill(g, lambda x: x), chi=1.0) <= 1e-24


@pytest.mark.parametrize("topology", ["neumann_box", "periodic_torus"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_kinetic_E_is_kinetic_energy_of_effective_velocity(dim, topology):
    """evaluate's kinetic term equals the frozen reference's, the face
    quadrature of the effective velocity on fresh arrays."""
    cells = {1: (40,), 2: (12, 9), 3: (6, 5, 4)}[dim]
    g = make_grid(GridSpec(dim, cells, (1.0, 2.0, 1.5)[:dim], topology))
    rng = np.random.default_rng(70 + dim)
    n = Field(g, 0.5 + rng.random(g.shape))
    c = Field(g, rng.random(g.shape))
    kinetic = _kinetic_E(n, c, chi=2.5)
    assert kinetic > 0.0
    assert kinetic == ref.evaluate(State(n, c, 0.0), KAPPAS, 2.5, 2.0).kinetic_E
    # n = 1 with one zero cell: both clip it at 1e-12 * sup n
    nz = np.ones(g.shape)
    nz.flat[3] = 0.0
    n = Field(g, nz)
    c = fill(g, lambda x, *_: 1.0 + 0.5 * np.cos(2.0 * math.pi * x))
    assert _kinetic_E(n, c, chi=2.5) == ref.evaluate(
        State(n, c, 0.0), KAPPAS, 2.5, 2.0, floor=0.0).kinetic_E


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
    with DiagnosticsWriter(path) as writer:
        for rec in recs:
            writer.write(rec)
    back = read_diagnostics_csv(path)
    assert len(back) == 3
    for a, b in zip(recs, back):
        for name in CSV_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


def test_read_table_checks_header_and_row_width(tmp_path):
    path = tmp_path / "table.csv"
    header = ["t", "ns[s=2,r=4]"]  # a column name may hold a comma
    with TableWriter(path, header) as table:
        table.write_row([0.1, 2])
        table.write_row(["x", None])
    assert path.read_text() == "t,ns[s=2,r=4]\n0.10000000000000001,2\nx,\n"
    # the header is compared as text; the rows have one cell per name
    assert read_table(path, header) == (header, [["0.10000000000000001", "2"], ["x", ""]])
    with pytest.raises(ValueError, match="header"):
        read_table(path, ["t", "ns"])
    # a trailing blank line is accepted
    path.write_text("t,ns[s=2,r=4]\n0.5,1\n\n")
    assert read_table(path, header)[1] == [["0.5", "1"]]
    # a ragged row is not, wherever it is
    for text in ("t,ns[s=2,r=4]\n0.5\n0.6,1\n", "t,ns[s=2,r=4]\n0.5,1\n0.6,1,2\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="cells"):
            read_table(path, header)


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
