"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Each criterion is a separate test so the suite reports them
individually; the printed line restates the measured value and threshold.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracle as orc
from kslab import (Field, GridSpec, SolverConfig, State, StopRule,
                   WINKLER_CONSTANT, alpha_lower_bound, classify,
                   constant_field, energy_inequality_residual, evaluate, fill,
                   fit_rate, integrate, load_config, make_grid,
                   pointwise_hessian_check, run, run_scenario, winkler_ratio)


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    print(line)
    assert ok, line


def _cfg_file(tmp_path, scenario):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[run]\nscenario = {scenario}\n")
    return path


def _random_fourier(rng, dim, modes=3, base=None, amp=0.9):
    """Smooth periodic profile from a few random Fourier modes."""
    w = 2.0 * math.pi
    terms = []
    for _ in range(modes):
        k = [int(rng.integers(1, 4)) for _ in range(dim)]
        phase = rng.uniform(0, 2 * math.pi, size=dim)
        coef = rng.uniform(-1.0, 1.0)
        terms.append((k, phase, coef))
    total = sum(abs(c) for _, _, c in terms)

    def f(*coords):
        out = np.zeros_like(coords[0])
        for k, phase, coef in terms:
            prod = np.ones_like(coords[0])
            for axis, x in enumerate(coords):
                prod = prod * np.cos(w * k[axis] * x + phase[axis])
            out = out + coef * prod
        out = out / total * amp
        return out if base is None else base + out

    return f


# --- 1: exact decay oracle -------------------------------------------------------


def test_criterion_01_constant_decay(tmp_path):
    t0 = time.time()
    cfg = load_config(_cfg_file(tmp_path, "constant_decay"),
                      overrides=[f"run.out_dir={tmp_path/'out'}"])
    assert cfg.solver.dt_max == 1e-4 and cfg.t_end == 1.0
    code, summary = run_scenario(cfg)
    elapsed = time.time() - t0
    decay = summary["monitors"]["decay_error"]
    mass = summary["monitors"]["mass_drift"]
    nsup = summary["monitors"]["n_sup_drift"]
    ok = (code == 0 and decay["value"] <= 1e-3 and mass["value"] <= 1e-12
          and nsup["value"] <= 1e-12 and elapsed < 10.0)
    _report(1, ok, f"max|c - e^-1| = {decay['value']:.2e} <= 1e-3, "
                   f"mass drift {mass['value']:.2e} <= 1e-12, "
                   f"n drift {nsup['value']:.2e} <= 1e-12, "
                   f"runtime {elapsed:.1f}s < 10s")


# --- 2: heat oracle ----------------------------------------------------------------


def test_criterion_02_heat_mode(tmp_path):
    errors = {}
    for cells in (64, 128):
        cfg = load_config(_cfg_file(tmp_path, "heat_mode"),
                          overrides=[f"run.out_dir={tmp_path/f'heat{cells}'}",
                                     f"grid.cells={cells}"])
        code, summary = run_scenario(cfg)
        assert code == 0
        errors[cells] = summary["monitors"]["heat_linf_error"]["value"]
    ratio = errors[64] / errors[128]
    ok = 3.6 <= ratio <= 4.4
    _report(2, ok, f"Linf error ratio 64/128 = {ratio:.3f} in [3.6, 4.4] "
                   f"(errors {errors[64]:.2e}, {errors[128]:.2e})")


# --- 3: manufactured-solution convergence --------------------------------------------


def test_criterion_03_mms(tmp_path):
    t0 = time.time()
    cfg = load_config(_cfg_file(tmp_path, "mms"),
                      overrides=[f"run.out_dir={tmp_path/'mms'}"])
    code, summary = run_scenario(cfg)
    elapsed = time.time() - t0
    spatial = summary["monitors"]["spatial_order"]["value"]
    temporal = summary["monitors"]["temporal_order"]["value"]
    ok = code == 0 and spatial >= 1.9 and temporal >= 0.9 and elapsed < 120.0
    _report(3, ok, f"spatial order {spatial:.3f} >= 1.9 over cells 32/64/128, "
                   f"temporal order {temporal:.3f} >= 0.9, "
                   f"runtime {elapsed:.0f}s < 120s")


def test_criterion_13_mms_3d_neumann_box(tmp_path):
    # the paper's setting: a bounded 3D domain with Neumann walls
    t0 = time.time()
    cfg = load_config(Path(__file__).parent.parent / "configs" / "mms_box_3d.ini",
                      overrides=[f"run.out_dir={tmp_path/'mms3d'}"])
    assert (cfg.grid.cells, cfg.grid.extent, cfg.grid.topology, cfg.t_end) == (
        (8, 8, 8), (1.0, 1.0, 1.0), "neumann_box", 0.02)
    assert cfg.solver.upwind is False and cfg.solver.cfl_safety == 0.4
    code, summary = run_scenario(cfg)
    elapsed = time.time() - t0
    spatial = summary["monitors"]["spatial_order"]["value"]
    temporal = summary["monitors"]["temporal_order"]["value"]
    ok = code == 0 and spatial >= 1.9 and temporal >= 0.9 and elapsed < 60.0
    _report(13, ok, f"3D Neumann box: spatial order {spatial:.3f} >= 1.9 over "
                    f"cells 8/16/32 per axis, temporal order {temporal:.3f} >= 0.9, "
                    f"runtime {elapsed:.1f}s < 60s")


def test_mms_3d_neumann_box_temporal_order_under_imex(tmp_path):
    """Implicit diffusion keeps the temporal ladder first order.  Its spatial
    ladder is not gated: there dt no longer shrinks like h^2, so the O(dt)
    error, not the O(h^2) one, sets each level's error."""
    cfg = load_config(Path(__file__).parent.parent / "configs" / "mms_box_3d.ini",
                      overrides=[f"run.out_dir={tmp_path/'mms3d'}", "solver.scheme=imex"])
    _code, summary = run_scenario(cfg)
    assert summary["run"]["stop_reason"] == "finished"
    assert summary["monitors"]["temporal_order"]["value"] >= 0.9


# --- 4: conservation and maximum principle ---------------------------------------------


def test_criterion_04_conservation_max_principle():
    rng = np.random.default_rng(2024)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"))
    n0 = fill(g, _random_fourier(rng, 2, base=1.0, amp=0.5))
    c0 = fill(g, _random_fourier(rng, 2, base=0.8, amp=0.4))
    state = State(n0, c0, 0.0)
    cfg = SolverConfig(cfl_safety=0.15, upwind=True)
    mass0 = integrate(state.n)
    worst_drift = 0.0
    worst_dmp = -math.inf
    min_n = math.inf
    c_max_prev = float(np.max(state.c.values))
    tol_dmp = 1e-12 * c_max_prev

    stats = {"steps": 0}

    def per_step(s, k):
        nonlocal worst_drift, worst_dmp, min_n, c_max_prev
        if k == 0:
            return
        stats["steps"] = k
        worst_drift = max(worst_drift, abs(integrate(s.n) - mass0) / mass0)
        c_max = float(np.max(s.c.values))
        worst_dmp = max(worst_dmp, c_max - c_max_prev)
        c_max_prev = c_max
        min_n = min(min_n, float(np.min(s.n.values)))

    run(state, cfg, StopRule(t_end=math.inf, max_steps=10_000),
        on_sample=per_step, sample_every=1)
    ok = (stats["steps"] == 10_000 and worst_drift <= 1e-12
          and worst_dmp <= tol_dmp and min_n >= 0.0)
    _report(4, ok, f"10^4 steps: mass drift {worst_drift:.2e} <= 1e-12, "
                   f"max(c) increase {worst_dmp:.2e} <= {tol_dmp:.1e}, "
                   f"min(n) = {min_n:.3f} >= 0")


# --- 5: discrete pointwise inequality ---------------------------------------------------


def test_criterion_05_pointwise_inequality():
    rng = np.random.default_rng(5)
    worst = -math.inf
    count = 0
    for dim in (1, 2, 3):
        cells = {1: (32,), 2: (10, 12), 3: (6, 5, 4)}[dim]
        extent = tuple(1.0 + 0.5 * a for a in range(dim))
        for topo in ("periodic_torus", "neumann_box"):
            g = make_grid(GridSpec(dim, cells, extent, topo))
            for _ in range(50):
                f = Field(g, rng.normal(size=g.shape))
                worst = max(worst, pointwise_hessian_check(f))
                count += 1
    ok = worst <= 0.0
    _report(5, ok, f"(lap f)^2 - dim|hess f|^2 <= 0 cellwise on {count} random "
                   f"fields (worst slack {worst:.3e})")


# --- 6: functional inequality corpus ------------------------------------------------------


def test_criterion_06_winkler_corpus():
    rng = np.random.default_rng(6)
    bound = WINKLER_CONSTANT * 1.05
    worst = 0.0
    count = 0
    for _ in range(12):
        g = make_grid(GridSpec(1, (256,), (1.0,), "periodic_torus"))
        n = fill(g, _random_fourier(rng, 1, base=1.5, amp=0.9))
        ratio = winkler_ratio(n)
        worst = max(worst, ratio)
        count += 1
    for _ in range(8):
        g = make_grid(GridSpec(2, (128, 128), (1.0, 1.0), "periodic_torus"))
        n = fill(g, _random_fourier(rng, 2, base=1.5, amp=0.9))
        ratio = winkler_ratio(n)
        worst = max(worst, ratio)
        count += 1
    ok = count >= 20 and worst <= bound
    _report(6, ok, f"{count} fields: max ratio {worst:.4f} <= "
                   f"(2+sqrt(3))^2 * 1.05 = {bound:.4f}")


# --- 7: energy-inequality monitor ----------------------------------------------------------


def test_criterion_07_energy_monitor():
    rng = np.random.default_rng(7)
    g = make_grid(GridSpec(2, (24, 24), (1.0, 1.0), "periodic_torus"))
    n0 = fill(g, _random_fourier(rng, 2, base=1.0, amp=0.5))
    c0 = fill(g, _random_fourier(rng, 2, base=0.7, amp=0.35))
    records = []
    res = run(State(n0, c0, 0.0), SolverConfig(cfl_safety=0.3),
              StopRule(t_end=0.3),
              on_sample=lambda s, k: records.append(
                  evaluate(s, (10.0, 0.01, 1.0), 1.0, 2.0)),
              sample_every=100)
    assert res.stop_reason == "finished" and len(records) >= 5
    residuals = [energy_inequality_residual([a, b], C=1e3, chi=1.0)
                 for a, b in zip(records, records[1:])]
    worst = max(residuals)
    ok = worst <= 0.0
    _report(7, ok, f"smooth 2D run, C = 1e3: max residual over "
                   f"{len(residuals)} windows = {worst:.3e} <= 0")


# --- 8: scaling invariance --------------------------------------------------------------


def test_criterion_08_scaling_invariance(tmp_path):
    # the scaling_test scenario: n0 = 1 + 0.4 cos(2 pi x) cos(2 pi y),
    # c0 = 0.8 + 0.3 cos(2 pi x) on the unit torus, central fluxes
    cfg = load_config(_cfg_file(tmp_path, "scaling_test"),
                      overrides=[f"run.out_dir={tmp_path / 'scaling'}"])
    assert (cfg.grid.cells, cfg.grid.extent, cfg.t_end, cfg.lam, cfg.refinements) == (
        (16, 16), (1.0, 1.0), 0.04, 2, 3)
    assert cfg.solver == SolverConfig(cfl_safety=0.4, upwind=False)
    code, summary = run_scenario(cfg)
    order = summary["monitors"]["scaling_order"]["value"]
    lam1 = summary["monitors"]["lambda1_error"]["value"]
    ok = code == 0 and order >= 1.5 and lam1 == 0.0
    _report(8, ok, f"lambda=2 observed order {order:.3f} >= 1.5 "
                   f"over three refinements; lambda=1 error = {lam1} (exact 0)")


# --- 9: rate fitting ---------------------------------------------------------------------


def test_criterion_09_rate_fitting():
    details = []
    ok = True
    for gamma, t_star, amp in ((0.8, 1.3, 2.0), (1.0, 1.0, 1.0), (1.5, 2.0, 4.0)):
        ts = np.linspace(t_star - 0.6, t_star - 0.01, 60)
        series = list(zip(ts, amp * (t_star - ts) ** (-gamma)))
        fit = fit_rate(series)
        t_err = abs(fit.t_star - t_star) / t_star
        g_err = abs(fit.gamma - gamma) / gamma
        expected_class = "type_I" if gamma <= 1.0 else "type_II"
        got_class = classify(fit.gamma)
        ok = ok and fit.status == "ok" and t_err <= 1e-3 and g_err <= 1e-2 \
            and got_class == expected_class
        details.append(f"g={gamma}: dT*={t_err:.1e} dg={g_err:.1e} {got_class}")
    _report(9, ok, "; ".join(details) + " (T* within 0.1%, gamma within 1%)")


# --- 10: alpha constant plumbing ------------------------------------------------------------


def test_criterion_10_alpha_scaling_laws():
    worst = 0.0
    for c0 in (0.5, 1.0, 2.0, 7.3):
        a1 = alpha_lower_bound(c0, 1.0)[0]
        a2 = alpha_lower_bound(2.0 * c0, 1.0)[0]
        worst = max(worst, abs(a2 / a1 - 2.0 ** (-4.0 / 3.0)))
    for C3 in (0.25, 1.0, 5.0):
        a1 = alpha_lower_bound(1.0, C3)[0]
        a2 = alpha_lower_bound(1.0, 2.0 * C3)[0]
        worst = max(worst, abs(a2 / a1 - 2.0 ** (-1.0 / 3.0)))
    ok = worst <= 1e-14
    _report(10, ok, f"alpha ratios match 2^(-4/3) and 2^(-1/3) to {worst:.1e} "
                    f"<= 1e-14")


# --- 11: 2D equilibrium ----------------------------------------------------------------------


def test_criterion_11_equilibrium(tmp_path):
    cfg = load_config(_cfg_file(tmp_path, "equilibrium_2d"),
                      overrides=[f"run.out_dir={tmp_path/'eq'}"])
    code, summary = run_scenario(cfg)
    ndev = summary["monitors"]["n_deviation"]["value"]
    csup = summary["monitors"]["c_sup_final"]["value"]
    rate = summary["monitors"]["c_decay_rate"]["value"]
    ok = code == 0 and ndev <= 1e-6 and csup <= 1e-8 and rate > 0.0
    _report(11, ok, f"T=50: |n - mean| = {ndev:.2e} <= 1e-6, "
                    f"|c|_inf = {csup:.2e} <= 1e-8, "
                    f"fitted decay rate {rate:.3f} > 0")


# --- 12: diagnostics oracle equivalence -------------------------------------------------------


def test_criterion_12_oracle_equivalence():
    rng = np.random.default_rng(12)
    specs = [
        GridSpec(1, (32,), (1.0,), "periodic_torus"),
        GridSpec(1, (24,), (2.0,), "neumann_box"),
        GridSpec(2, (10, 12), (1.0, 1.5), "periodic_torus"),
        GridSpec(2, (9, 7), (2.0, 1.0), "neumann_box"),
        GridSpec(3, (6, 5, 4), (1.0, 1.0, 1.0), "periodic_torus"),
        GridSpec(3, (4, 5, 6), (1.0, 2.0, 1.0), "neumann_box"),
        GridSpec(2, (16, 16), (1.0, 1.0), "periodic_torus"),
        GridSpec(2, (8, 8), (0.5, 0.5), "neumann_box"),
        GridSpec(1, (64,), (3.0,), "periodic_torus"),
        GridSpec(3, (5, 4, 6), (1.0, 1.0, 2.0), "periodic_torus"),
    ]
    kappas = (10.0, 0.01, 1.0)
    worst = 0.0
    for spec in specs:
        g = make_grid(spec)
        nv = 1.1 + rng.random(g.shape)
        cv = 0.3 + rng.random(g.shape)
        rec = evaluate(State(Field(g, nv), Field(g, cv), 0.0), kappas,
                       chi=1.3, s=2.0)
        og = orc.OracleGrid(spec.cells, spec.extent,
                            spec.topology == "periodic_torus")
        ref = orc.evaluate_record(nv, cv, og, kappas, 1.3, 2.0)
        for name, val in ref.items():
            mine = getattr(rec, name)
            rel = abs(mine - val) / max(abs(mine), abs(val), 1e-30)
            worst = max(worst, rel)
    ok = worst <= 1e-12
    _report(12, ok, f"10 random states, every functional vs brute-force "
                    f"oracle: worst rel diff {worst:.2e} <= 1e-12")
