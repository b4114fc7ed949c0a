import json
import math
import re

import numpy as np
import pytest

from kslab import (ConfigError, GridSpec, ManufacturedPair, load_config, make_grid,
                   mms_sources, read_snapshot, regenerate_summary, run_scenario,
                   write_snapshot, constant_field)
from kslab.cli import main as cli_main
from kslab.harness import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- config loading -------------------------------------------------------------


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "[run]\nscenario = constant_decay\n"))
    assert cfg.solver.chi == 1.0
    assert cfg.kappas == (10.0, 0.01, 1.0)
    assert cfg.c_monitor == 100.0
    assert cfg.solver.dt_max == 1e-4  # scenario default
    assert "solver.chi" in cfg.defaulted
    assert "diagnostics.kappa1" in cfg.defaulted


def test_config_rejects_small_s(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n"
                            "[diagnostics]\ncriterion_pairs = 1/4\n")
    with pytest.raises(ConfigError, match="s must exceed 3/2"):
        load_config(path)


def test_config_admissible_pair(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n"
                            "[diagnostics]\ncriterion_pairs = 2/4\n")
    cfg = load_config(path)
    from kslab import CriterionAccumulator
    acc = CriterionAccumulator(s=cfg.criterion_pairs[0][0],
                               r=cfg.criterion_pairs[0][1])
    assert acc.admissible


def test_config_unknown_key(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_config_collects_all_violations(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\nt_end = -1\n"
                            "[solver]\nchi = abc\ncfl_safety = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "t_end" in msg and "chi" in msg and "cfl_safety" in msg


def test_config_missing_scenario(tmp_path):
    with pytest.raises(ConfigError, match="scenario"):
        load_config(_write(tmp_path, "[run]\nt_end = 1\n"))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_config_overrides(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n")
    cfg = load_config(path, overrides=["solver.chi=2.5", "run.seed=99"])
    assert cfg.solver.chi == 2.5
    assert cfg.seed == 99
    assert "solver.chi" not in cfg.defaulted


def test_config_scenario_grid_validation(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = heat_mode\n"
                            "[grid]\ndim = 2\ncells = 8 8\nextent = 1 1\n"
                            "topology = periodic_torus\n")
    with pytest.raises(ConfigError, match="heat_mode"):
        load_config(path)


def test_config_inf_values(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n"
                            "[diagnostics]\ncriterion_pairs = inf/1 1.6/inf\n")
    cfg = load_config(path)
    assert cfg.criterion_pairs[0][0] == math.inf
    assert cfg.criterion_pairs[1][1] == math.inf
    cfg = load_config(path, overrides=["run.t_end=inf", "run.max_steps=5"])
    assert cfg.t_end == math.inf and cfg.max_steps == 5


@pytest.mark.parametrize("override, key", [
    ("solver.chi=nan", "solver.chi"),
    ("run.t_end=nan", "run.t_end"),
    ("solver.dt_max=nan", "solver.dt_max"),
    ("blowup.epsilon=nan", "blowup.epsilon"),
    ("run.snapshot_every=-5", "run.snapshot_every"),
    ("run.max_steps=-1", "run.max_steps"),
    ("run.t_end=inf", "run.t_end"),  # no max_steps: the run would never end
    ("solver.blowup_sup_threshold=inf", "solver.blowup_sup_threshold"),
    ("grid.extent=1 inf", "grid.extent"),
    ("diagnostics.criterion_pairs=2/nan", "diagnostics.criterion_pairs"),
])
def test_config_rejects_nonfinite_and_out_of_range(tmp_path, override, key):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n")
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(path, overrides=[override])


# --- manufactured pair ----------------------------------------------------------


def _unit_grid(cells=(6, 5), topology="periodic_torus"):
    return make_grid(GridSpec(len(cells), cells, (1.0,) * len(cells), topology))


def test_mms_sources_frozen_reference_point():
    # closed forms at t = 0 in the centre (1/2, 1/2) of cell (2, 2), where
    # cos(2 pi x) = cos(2 pi y) = -1 and sin(2 pi x) = 0 to rounding
    src_n, src_c = mms_sources(ManufacturedPair(_unit_grid((5, 5)), chi=1.0))
    assert float(src_n(0.0)[2, 2]) == pytest.approx(14.0 * math.pi**2 - 1.0, rel=1e-15)
    assert float(src_c(0.0)[2, 2]) == pytest.approx(2.0 - 2.0 * math.pi**2, rel=1e-15)


def test_mms_sources_chi_zero_decouples():
    # chi = 0 drops the taxis term: source_n = dn/dt - lap n = (8 pi^2 - 1) e^-t cos cos
    grid = _unit_grid()
    src_n0, _ = mms_sources(ManufacturedPair(grid, chi=0.0))
    x, y = grid.meshes()
    expected = ((8.0 * math.pi**2 - 1.0) * math.exp(-0.1)
                * np.cos(2 * math.pi * x) * np.cos(2 * math.pi * y))
    np.testing.assert_allclose(src_n0(0.1), expected, rtol=1e-14)


def test_mms_sources_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    t, x, y, chi = sympy.symbols("t x y chi")
    n_sym = 2 + sympy.exp(-t) * sympy.cos(2 * sympy.pi * x) * sympy.cos(2 * sympy.pi * y)
    c_sym = 1 + sympy.Rational(1, 2) * sympy.exp(-t) * sympy.cos(2 * sympy.pi * x)
    lap = lambda f: sympy.diff(f, x, 2) + sympy.diff(f, y, 2)
    src_n_sym = (sympy.diff(n_sym, t) - lap(n_sym)
                 + chi * (sympy.diff(n_sym * sympy.diff(c_sym, x), x)
                          + sympy.diff(n_sym * sympy.diff(c_sym, y), y)))
    src_c_sym = sympy.diff(c_sym, t) - lap(c_sym) + n_sym * c_sym
    oracle = [sympy.lambdify((t, x, y, chi), f, "numpy")
              for f in (n_sym, c_sym, src_n_sym, src_c_sym)]

    grid = _unit_grid()
    xs, ys = grid.meshes()
    for chi_value in (0.0, 1.0, 3.7):  # chi = 0 decouples n from c
        pair = ManufacturedPair(grid, chi_value)
        for tt in (0.0, 0.3, 1.7):
            for got, f in zip((pair.n, pair.c, *mms_sources(pair)), oracle):
                want = np.broadcast_to(f(tt, xs, ys, chi_value), grid.shape)
                values = got(tt)
                assert values.shape == grid.shape
                np.testing.assert_allclose(values, want, rtol=1e-12,
                                           atol=1e-12 * float(np.max(np.abs(want))))


def test_manufactured_n_is_at_least_one():
    # n = 2 + e^-t cos cos >= 1 for t >= 0: the sources need no positivity check
    pair = ManufacturedPair(_unit_grid((8, 8)), chi=1.0)
    for t in (0.0, 1e-3, 0.5, 2.0, 40.0):
        assert float(pair.n(t).min()) >= 1.0


@pytest.mark.parametrize("cells, topology", [
    ((8,), "periodic_torus"), ((4, 4, 4), "periodic_torus"), ((8, 8), "neumann_box")],
    ids=["1d-torus", "3d-torus", "2d-box"])
def test_manufactured_pair_needs_a_2d_torus(cells, topology):
    with pytest.raises(ValueError, match="2D torus"):
        ManufacturedPair(_unit_grid(cells, topology), chi=1.0)


def test_manufactured_pair_rejects_negative_chi():
    with pytest.raises(ValueError, match="chi"):
        ManufacturedPair(_unit_grid(), chi=-1.0)


# --- run_scenario ---------------------------------------------------------------


def test_run_scenario_constant_decay(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(
        _write(tmp_path, "[run]\nscenario = constant_decay\n"),
        overrides=[f"run.out_dir={out}", "run.t_end=0.2",
                   "grid.cells=8 8", "run.sample_every=200"])
    code, summary = run_scenario(cfg)
    assert code == EXIT_OK
    assert summary["pass"]
    assert summary["monitors"]["decay_error"]["pass"]
    assert summary["monitors"]["mass_drift"]["pass"]
    assert (out / "diagnostics.csv").exists()
    assert (out / "criteria.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "config_echo.ini").exists()
    assert (out / "n_final.ksf").exists()
    prov = summary["provenance"]
    assert prov["diagnostics.kappa1"].startswith("config-default")


def test_run_scenario_divergence_exit(tmp_path):
    out = tmp_path / "diverge"
    cfg = load_config(
        _write(tmp_path, "[run]\nscenario = constant_decay\n"),
        overrides=[f"run.out_dir={out}",
                   "solver.blowup_sup_threshold=0.5"])
    code, summary = run_scenario(cfg)
    assert code == EXIT_DIVERGENCE
    assert summary["run"]["stop_reason"] == "blowup_threshold"
    # partial artifacts preserved
    assert (out / "diagnostics.csv").exists()


def test_run_scenario_custom_snapshots(tmp_path):
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    n_path = tmp_path / "n0.ksf"
    c_path = tmp_path / "c0.ksf"
    write_snapshot(constant_field(g, 1.0), 0.0, n_path)
    write_snapshot(constant_field(g, 1.0), 0.0, c_path)
    out = tmp_path / "custom_run"
    cfg = load_config(
        _write(tmp_path, "[run]\nscenario = custom\n"
                         f"n0_snapshot = {n_path}\nc0_snapshot = {c_path}\n"),
        overrides=[f"run.out_dir={out}", "run.t_end=0.05",
                   "grid.cells=8 8"])
    code, summary = run_scenario(cfg)
    assert code == EXIT_OK
    n_final, t = read_snapshot(out / "n_final.ksf")
    assert t == pytest.approx(0.05)
    np.testing.assert_allclose(n_final.values, 1.0, rtol=1e-12)


def test_c_floor_engaged_counts_at_evaluates_clip_level(tmp_path):
    # c = 0 with floor 0: evaluate clips c at 1e-300 in every sample
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    text = "[run]\nscenario = custom\n"
    for name, value in (("n0", 1.0), ("c0", 0.0)):
        write_snapshot(constant_field(g, value), 0.0, tmp_path / f"{name}.ksf")
        text += f"{name}_snapshot = {tmp_path / f'{name}.ksf'}\n"
    cfg = load_config(_write(tmp_path, text),
                      overrides=[f"run.out_dir={tmp_path / 'out'}", "run.t_end=0.02",
                                 "grid.cells=8 8", "run.sample_every=5"])
    _, summary = run_scenario(cfg)
    assert summary["metadata"]["samples"] >= 2
    assert (summary["metadata"]["c_floor_engaged_samples"]
            == summary["metadata"]["samples"])


# cheap overrides per scenario; _cheap_run also writes custom's two snapshots
_CHEAP = {
    "constant_decay": ["run.t_end=0.05", "grid.cells=8 8"],
    "heat_mode": ["run.t_end=0.01", "grid.cells=16"],
    "mms": ["run.t_end=0.005", "grid.cells=16 16", "scaling.refinements=2"],
    "equilibrium_2d": ["run.t_end=0.1", "grid.cells=8 8", "run.sample_every=20"],
    "stress_3d": ["run.t_end=0.02", "run.sample_every=1",
                  "blowup.window_fraction=1", "run.snapshot_every=10"],
    "scaling_test": ["run.t_end=0.01", "grid.cells=8 8", "scaling.refinements=2"],
    "custom": ["run.t_end=0.02", "grid.cells=8 8", "run.sample_every=5"],
}


def _cheap_run(tmp_path, scenario):
    out = tmp_path / scenario
    text = f"[run]\nscenario = {scenario}\n"
    if scenario == "custom":
        g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
        for name, value in (("n0", 1.5), ("c0", 0.5)):
            write_snapshot(constant_field(g, value), 0.0, tmp_path / f"{name}.ksf")
            text += f"{name}_snapshot = {tmp_path / f'{name}.ksf'}\n"
    cfg = load_config(_write(tmp_path, text, name=f"{scenario}.ini"),
                      overrides=[f"run.out_dir={out}"] + _CHEAP[scenario])
    code, _ = run_scenario(cfg)
    return out, code


def test_regenerate_summary_is_idempotent(tmp_path):
    for scenario in _CHEAP:
        out, code = _cheap_run(tmp_path, scenario)
        recorded = (out / "summary.json").read_bytes()
        # keep only what the report may not recompute: the step statistics
        old = json.loads(recorded)
        (out / "summary.json").write_text(json.dumps(
            {"run": old["run"], "metadata": old["metadata"]}))
        code2, _ = regenerate_summary(out)
        assert code2 == code, scenario
        assert (out / "summary.json").read_bytes() == recorded, scenario


@pytest.mark.parametrize("scenario, csv, edit, monitor", [
    # an error that grows from exactly 0 gives order -inf
    ("mms", "mms_errors.csv", ("temporal_diff,0,", 4, "0"), "temporal_order"),
    ("mms", "mms_errors.csv", ("spatial,1,", 3, "1"), "spatial_order"),
    ("scaling_test", "scaling_errors.csv", ("1,0,", 3, "1e-3"), "lambda1_error"),
    ("equilibrium_2d", "diagnostics.csv", ("0.", 3, "5"), "dmp_slack"),
])
def test_report_recomputes_from_edited_csv(tmp_path, scenario, csv, edit, monitor):
    out, code = _cheap_run(tmp_path, scenario)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monitors"][monitor]["pass"]
    prefix, column, value = edit
    lines = (out / csv).read_text().splitlines()
    idx = max(i for i, line in enumerate(lines) if line.startswith(prefix))
    parts = lines[idx].split(",")
    parts[column] = value
    lines[idx] = ",".join(parts)
    (out / csv).write_text("\n".join(lines) + "\n")
    assert cli_main(["report", "--run", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["monitors"][monitor]["pass"]
    assert not summary["pass"]


def test_cli_report_malformed_artifact_exit_code(tmp_path):
    out, _ = _cheap_run(tmp_path, "scaling_test")
    (out / "scaling_errors.csv").write_text("lam,level\nnot,a,table\n")
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO


def test_criteria_accumulators_reported(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(
        _write(tmp_path, "[run]\nscenario = constant_decay\n"
                         "[diagnostics]\ncriterion_pairs = 2/4 inf/1 1.6/inf\n"),
        overrides=[f"run.out_dir={out}", "run.t_end=0.1", "grid.cells=8 8",
                   "run.sample_every=100"])
    code, summary = run_scenario(cfg)
    crits = summary["criteria"]
    assert len(crits) == 3
    # constant n = 1 on the unit torus: integral of ||n||_{L^2}^4 dt = t_end
    assert crits[0]["value_ns"] == pytest.approx(0.1, rel=1e-9)
    assert crits[0]["admissible"] is True
    # s = inf, r = 1: integral of ||n||_inf dt = t_end
    assert crits[1]["value_ns"] == pytest.approx(0.1, rel=1e-9)
    # r = inf: running sup of ||n||_{L^1.6} = 1
    assert crits[2]["value_ns"] == pytest.approx(1.0, rel=1e-12)
    assert all(c["value_gc"] == 0.0 for c in crits)


# --- CLI ----------------------------------------------------------------------


def test_cli_run_and_report(tmp_path):
    cfg_path = _write(tmp_path, "[run]\nscenario = constant_decay\n")
    out = tmp_path / "cli_run"
    code = cli_main(["run", "--config", str(cfg_path),
                     "--out-dir", str(out),
                     "--override", "run.t_end=0.1",
                     "--override", "grid.cells=8 8"])
    assert code == EXIT_OK
    assert cli_main(["report", "--run", str(out)]) == EXIT_OK


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = _write(tmp_path, "[run]\nscenario = nonsense\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_cli_missing_config_file(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize("scenario", ["mms", "scaling_test"])
def test_cli_ladder_stopped_early_exit_code(tmp_path, capsys, scenario):
    # n starts above the threshold (rescaled by lam^2 in scaling_test), so
    # the ladder's first solve stops at once
    cfg_path = _write(tmp_path, f"[run]\nscenario = {scenario}\n")
    code = cli_main(["run", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out"),
                     "--override", "grid.cells=8 8",
                     "--override", "run.t_end=0.005",
                     "--override", "solver.blowup_sup_threshold=2"])
    assert code == EXIT_DIVERGENCE
    assert "blowup_threshold" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["mms", "scaling_test"])
def test_ladder_stopped_early_writes_summary_and_report_rebuilds_it(tmp_path, scenario):
    cfg_path = _write(tmp_path, f"[run]\nscenario = {scenario}\n")
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                     "--override", "grid.cells=8 8",
                     "--override", "run.t_end=0.005",
                     "--override", "solver.blowup_sup_threshold=2"])
    assert code == EXIT_DIVERGENCE
    recorded = (out / "summary.json").read_bytes()
    summary = json.loads(recorded)
    assert summary["run"]["stop_reason"] == "blowup_threshold"
    # the first solve of the ladder, the 8^2 level 0, is the one that stops
    where = {"mms": {"solve": "manufactured run"},
             "scaling_test": {"solve": "rescale-then-solve", "lam": 2}}[scenario]
    assert summary["run"]["stopped_in"] == {**where, "level": 0, "cells": 8}
    assert summary["run"]["t_stop"] == 0.0  # its initial sup n is already above 2
    assert summary["pass"] is False
    assert cli_main(["report", "--run", str(out)]) == EXIT_DIVERGENCE
    assert (out / "summary.json").read_bytes() == recorded


def test_cli_fit_on_synthetic_series(tmp_path):
    ts = np.linspace(0.5, 0.99, 60)
    series_path = tmp_path / "series.csv"
    with open(series_path, "w") as fh:
        fh.write("t,n_sup\n")
        for t in ts:
            fh.write(f"{t},{1.0 / (1.0 - t)}\n")
    out_path = tmp_path / "fit.json"
    code = cli_main(["fit", "--series", str(series_path),
                     "--out", str(out_path)])
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "ok"
    assert payload["t_star"] == pytest.approx(1.0, abs=1e-4)
    assert payload["gamma"] == pytest.approx(1.0, rel=1e-3)
    assert payload["classification"] == "type_I"
    assert payload["lower_bound_satisfied"] is True


@pytest.mark.parametrize("args", [
    ["--window-fraction", "0.1"],  # 6 of 60 points, fewer than 8
    ["--c0-sup", "0"],
    ["--c3", "0"],
])
def test_cli_fit_bad_input_exit_code(tmp_path, capsys, args):
    series_path = tmp_path / "series.csv"
    with open(series_path, "w") as fh:
        fh.write("t,n_sup\n")
        for t in np.linspace(0.5, 0.99, 60):
            fh.write(f"{t},{1.0 / (1.0 - t)}\n")
    assert cli_main(["fit", "--series", str(series_path)] + args) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_scenario_stress_3d_artifacts(tmp_path):
    out = tmp_path / "stress"
    cfg = load_config(_write(tmp_path, "[run]\nscenario = stress_3d\n"),
                      overrides=[f"run.out_dir={out}", "run.t_end=0.05"])
    code, summary = run_scenario(cfg)
    assert code in (EXIT_OK, EXIT_DIVERGENCE)
    assert (out / "blowup_report.json").exists()
    payload = json.loads((out / "blowup_report.json").read_text())
    assert "classification" in payload and "alpha" in payload
    assert "config" in payload
    assert summary["run"]["steps"] > 0


def test_run_scenario_scaling_test(tmp_path):
    out = tmp_path / "scal"
    cfg = load_config(_write(tmp_path, "[run]\nscenario = scaling_test\n"),
                      overrides=[f"run.out_dir={out}", "scaling.refinements=2",
                                 "run.t_end=0.02"])
    code, summary = run_scenario(cfg)
    assert (out / "scaling_errors.csv").exists()
    assert summary["monitors"]["lambda1_error"]["value"] == 0.0
    assert "scaling_order" in summary["monitors"]


def test_run_scenario_mms_small(tmp_path):
    out = tmp_path / "mms"
    cfg = load_config(_write(tmp_path, "[run]\nscenario = mms\n"),
                      overrides=[f"run.out_dir={out}", "grid.cells=16 16",
                                 "run.t_end=0.02"])
    code, summary = run_scenario(cfg)
    assert code == EXIT_OK, summary["monitors"]
    assert summary["monitors"]["spatial_order"]["value"] >= 1.9
    assert summary["monitors"]["temporal_order"]["value"] >= 0.9
    assert (out / "mms_errors.csv").exists()


def test_runs_are_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = load_config(_write(tmp_path, "[run]\nscenario = equilibrium_2d\n",
                                 name=f"{tag}.ini"),
                          overrides=[f"run.out_dir={out}", "run.t_end=0.2",
                                     "grid.cells=8 8", "run.sample_every=50"])
        code, _ = run_scenario(cfg)
        assert code == EXIT_OK or code == 1  # short horizon: monitors may fail
        outs.append(out)
    a = (outs[0] / "diagnostics.csv").read_text()
    b = (outs[1] / "diagnostics.csv").read_text()
    assert a == b
    na, _ = read_snapshot(outs[0] / "n_final.ksf")
    nb, _ = read_snapshot(outs[1] / "n_final.ksf")
    assert np.array_equal(na.values, nb.values)
