import csv
import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

import kslab.cli
import kslab.solver
from kslab import (ConfigError, GridSpec, ManufacturedPair, SolverConfig, load_config,
                   make_grid, mms_sources, read_snapshot, regenerate_summary,
                   run_scenario, write_snapshot, constant_field)
from kslab.cli import main as cli_main
from kslab.diagnostics import admissible, read_diagnostics_csv
from kslab.errors import CorruptionError, PositivityError
from kslab.harness import _SCHEMA, EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK


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
    assert admissible(*cfg.criterion_pairs[0])


def test_solver_schema_defaults_are_solver_config_defaults():
    """[solver]'s default texts in the schema parse to SolverConfig()."""
    parsed = {key: parse(default)
              for key, (default, parse, *_) in _SCHEMA["solver"].items()}
    assert set(parsed) == {f.name for f in dataclasses.fields(SolverConfig)}
    assert SolverConfig(**parsed) == SolverConfig()


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


# dt bounds under which time cannot advance (dt = 0, or negative), and a
# blow-up refinement that would clamp every step to dt_min
_NO_ADVANCE = {
    "dt-zero": ["solver.dt_min=0", "solver.dt_max=0"],
    "dt-negative": ["solver.dt_min=-5", "solver.dt_max=-1"],
    "blowup-factor-zero": ["solver.dt_blowup_factor=0"],
    "blowup-factor-negative": ["solver.dt_blowup_factor=-1"],
}


@pytest.mark.parametrize("case", list(_NO_ADVANCE))
def test_config_rejects_dt_bounds_that_cannot_advance(tmp_path, case):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n")
    key = "dt_blowup_factor" if case.startswith("blowup") else "dt_min"
    with pytest.raises(ConfigError, match=f"solver: {key} must be positive"):
        load_config(path, overrides=_NO_ADVANCE[case])


@pytest.mark.parametrize("case", list(_NO_ADVANCE))
def test_cli_dt_bounds_that_cannot_advance_exit_code(tmp_path, capsys, case):
    # --max-steps bounds the run should such a config ever be accepted
    argv = ["run", "--config", str(_write(tmp_path, "[run]\nscenario = constant_decay\n")),
            "--out-dir", str(tmp_path / "out"), "--max-steps", "20"]
    overrides = [arg for item in _NO_ADVANCE[case] for arg in ("--override", item)]
    assert cli_main(argv + overrides) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["mms", "scaling_test"])
def test_config_ladder_rejects_an_infinite_t_end(tmp_path, scenario):
    # max_steps would let a time-stepped run accept inf; a ladder's solves
    # run to t_end and would never end
    with pytest.raises(ConfigError, match=f"run.t_end: the {scenario} ladder needs a "
                                          "finite t_end, and every solve's end more "
                                          "than the end-time slack 1e-12 after t = 0, "
                                          "got inf"):
        load_config(_write(tmp_path, f"[run]\nscenario = {scenario}\n"),
                    overrides=["run.t_end=inf", "run.max_steps=5"])


@pytest.mark.parametrize("scenario, overrides, got", [
    ("mms", ["run.t_end=0"], "0.0"),
    ("scaling_test", ["run.t_end=0"], "0.0"),
    # within the end-time slack of t = 0: no solve takes a step either
    ("mms", ["run.t_end=1e-13", "scaling.refinements=2"], "1e-13"),
    # rescale-then-solve runs to t_end / lam^2 = 5e-13, within the slack
    ("scaling_test", ["run.t_end=2e-12"], "2e-12"),
], ids=["mms", "scaling_test", "mms-t_end-within-slack",
        "scaling_test-rescaled-t_end-within-slack"])
def test_cli_ladder_with_a_zero_t_end_exit_code(tmp_path, capsys, scenario, overrides,
                                                 got):
    # every solve would return its initial state: errors 0, orders inf, PASS
    argv = ["run", "--config", str(_write(tmp_path, f"[run]\nscenario = {scenario}\n")),
            "--out-dir", str(tmp_path / "out"), "--override", "grid.cells=8 8"]
    assert cli_main(argv + [arg for item in overrides
                            for arg in ("--override", item)]) == EXIT_CONFIG
    assert (f"run.t_end: the {scenario} ladder needs a finite t_end, and every "
            "solve's end more than the end-time slack 1e-12 after t = 0, "
            f"got {got}" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_config_missing_scenario(tmp_path):
    with pytest.raises(ConfigError, match="scenario"):
        load_config(_write(tmp_path, "[run]\nt_end = 1\n"))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_config_overrides(tmp_path):
    path = _write(tmp_path, "[run]\nscenario = constant_decay\n")
    cfg = load_config(path, overrides=["solver.chi=2.5", "run.sample_every=99"])
    assert cfg.solver.chi == 2.5
    assert cfg.sample_every == 99
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
    # the criterion's exponent rules: s > 3/2 (3/2 itself is out) and r >= 1
    ("diagnostics.criterion_pairs=2/4 1.5/4",
     "diagnostics.criterion_pairs: s must exceed 3/2"),
    ("diagnostics.criterion_pairs=2/0.5", "diagnostics.criterion_pairs: r must be at least 1"),
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


def _symbolic_pair(dim):
    """n, c, source_n and source_c of the pair in dim dimensions, derived by
    sympy with the wavenumbers as symbols: f(t, x_0.., k_0.., chi)."""
    sympy = pytest.importorskip("sympy")
    t, chi = sympy.symbols("t chi")
    xs, ks = sympy.symbols(f"x0:{dim}"), sympy.symbols(f"k0:{dim}")
    n_sym = 2 + sympy.exp(-t) * sympy.Mul(*(sympy.cos(k * x) for k, x in zip(ks, xs)))
    c_sym = 1 + sympy.Rational(1, 2) * sympy.exp(-t) * sympy.cos(ks[0] * xs[0])
    lap = lambda f: sum(sympy.diff(f, x, 2) for x in xs)
    src_n_sym = (sympy.diff(n_sym, t) - lap(n_sym)
                 + chi * sum(sympy.diff(n_sym * sympy.diff(c_sym, x), x) for x in xs))
    src_c_sym = sympy.diff(c_sym, t) - lap(c_sym) + n_sym * c_sym
    return [sympy.lambdify((t, *xs, *ks, chi), f, "numpy")
            for f in (n_sym, c_sym, src_n_sym, src_c_sym)]


_PAIR_GRIDS = [GridSpec(dim, cells, (1.0,) * dim, topology)
               for dim, cells in ((1, (7,)), (2, (6, 5)), (3, (5, 4, 6)))
               for topology in ("periodic_torus", "neumann_box")]


def test_mms_sources_against_symbolic_oracle():
    oracles = {dim: _symbolic_pair(dim) for dim in (1, 2, 3)}
    specs = _PAIR_GRIDS + [GridSpec(2, (6, 5), (1.5, 0.8), "periodic_torus"),
                           GridSpec(3, (5, 4, 6), (1.5, 0.75, 2.0), "neumann_box")]
    for spec in specs:
        grid = make_grid(spec)
        # k_a = 2 pi / L_a on the torus, pi / L_a on the box
        ks = [(2.0 if grid.periodic else 1.0) * math.pi / L for L in spec.extent]
        for chi_value in (0.0, 1.0, 3.7):  # chi = 0 decouples n from c
            pair = ManufacturedPair(grid, chi_value)
            for tt in (0.0, 0.3, 1.7):
                for got, f in zip((pair.n, pair.c, *mms_sources(pair)), oracles[spec.dim]):
                    want = np.broadcast_to(f(tt, *grid.meshes(), *ks, chi_value),
                                           grid.shape)
                    values = got(tt)
                    assert values.shape == grid.shape
                    np.testing.assert_allclose(values, want, rtol=1e-12,
                                               atol=1e-12 * float(np.max(np.abs(want))),
                                               err_msg=f"{spec}, chi {chi_value}, t {tt}")


def test_manufactured_n_is_at_least_one():
    # n = 2 + e^-t cos cos >= 1 for t >= 0: the sources need no positivity check
    pair = ManufacturedPair(_unit_grid((8, 8)), chi=1.0)
    for t in (0.0, 1e-3, 0.5, 2.0, 40.0):
        assert float(pair.n(t).min()) >= 1.0


@pytest.mark.parametrize("spec", _PAIR_GRIDS,
                         ids=lambda s: f"{s.dim}d-{s.topology.split('_')[1]}")
def test_manufactured_pair_builds_on_every_grid(spec):
    grid = make_grid(spec)
    pair = ManufacturedPair(grid, chi=1.0)
    for f in (pair.n, pair.c, *mms_sources(pair)):
        values = f(0.2)
        assert values.shape == grid.shape and np.isfinite(values).all()
    assert float(pair.n(0.0).min()) >= 1.0 and float(pair.c(0.0).min()) >= 0.5


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


def _fitted_run_from_constant_c0(tmp_path, c0):
    """kslab run of a fitted custom run on the 8x8 torus from n0 = 1 and a
    constant c0; returns its summary and its blow-up report."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    for name, value in (("n0", 1.0), ("c0", c0)):
        write_snapshot(constant_field(g, value), 0.0, tmp_path / f"{name}.ksf")
    out = tmp_path / "fitted"
    config = _write(tmp_path, "[run]\nscenario = custom\nt_end = 0.02\n"
                              f"n0_snapshot = {tmp_path / 'n0.ksf'}\n"
                              f"c0_snapshot = {tmp_path / 'c0.ksf'}\n"
                              f"out_dir = {out}\n[grid]\ncells = 8 8\n"
                              "[blowup]\nfit = true\n")
    assert cli_main(["run", "--config", str(config)]) == EXIT_OK
    return (json.loads((out / "summary.json").read_text()),
            json.loads((out / "blowup_report.json").read_text()))


def test_cli_fitted_run_whose_C_tilde_overflows_reports_no_alpha(tmp_path):
    """c0 = 1e300 everywhere: c0_sup^(4/3) overflows, so the run writes its
    summary and a report with alpha null, a note, and the bound unmet."""
    summary, report = _fitted_run_from_constant_c0(tmp_path, 1e300)
    assert summary["blowup"]["alpha"] is report["alpha"] is None
    assert report["lower_bound_satisfied"] is False
    assert "C_tilde overflows: c0_sup = 1e+300 and C3 = 1.0" in report["note"]


def test_cli_fitted_run_with_zero_c0_reports_an_unbounded_alpha(tmp_path, capsys):
    """c0 = 0 everywhere makes alpha ~ c0_sup^(-4/3) unbounded: the run writes
    its summary and a report with alpha null, a note, and the bound unmet."""
    summary, report = _fitted_run_from_constant_c0(tmp_path, 0.0)
    assert summary["blowup"]["alpha"] is report["alpha"] is None
    assert report["lower_bound_satisfied"] is False
    assert report["constants"]["c0_sup"] == 0.0
    assert "alpha is unbounded: c0_sup = 0.0 gives C_tilde = 0.0" in report["note"]


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
    ("scaling_test", "scaling_test_errors.csv", ("identity,0,", 3, "1e-3"),
     "lambda1_error"),
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
    (out / "scaling_test_errors.csv").write_text("kind,level\nnot,a,table\n")
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO


@pytest.mark.parametrize("scenario, edit", [
    # a ladder table that lost every row of one kind
    ("mms", lambda rows: [r for r in rows if not r.startswith("temporal_diff,")]),
    ("scaling_test", lambda rows: [r for r in rows if not r.startswith("identity,")]),
    # a level that is not an integer
    ("mms", lambda rows: [rows[0], rows[1].replace(",0,", ",0.5,", 1), *rows[2:]]),
    ("scaling_test", lambda rows: [rows[0], rows[1].replace(",0,", ",x,", 1),
                                   *rows[2:]]),
    # an error that is not a finite number, or missing where a monitor reads it
    ("mms", lambda rows: [*rows[:2], rows[2].rsplit(",", 1)[0] + ",nan", *rows[3:]]),
    ("scaling_test", lambda rows: [*rows[:-1], rows[-1].rsplit(",", 1)[0] + ","]),
], ids=["mms-no-temporal_diff", "scaling_test-no-identity", "mms-level",
        "scaling_test-level", "mms-nan-error", "scaling_test-empty-error"])
def test_cli_report_malformed_ladder_table_exit_code(tmp_path, capsys, scenario, edit):
    out, _ = _cheap_run(tmp_path, scenario)
    csv = out / f"{scenario}_errors.csv"
    rows = csv.read_text().splitlines()
    edited = edit(rows)
    assert edited != rows
    csv.write_text("\n".join(edited) + "\n")
    capsys.readouterr()
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("csv, cut", [
    # the last diagnostics row cut mid-row
    ("diagnostics.csv", lambda lines: lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]),
    # a criteria row that lost its last cell
    ("criteria.csv", lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]),
    # two criteria rows swapped: records out of time order
    pytest.param("criteria.csv", lambda lines: [*lines[:2], lines[3], lines[2], *lines[4:]],
                 id="criteria.csv-swapped-rows"),
    # the same in diagnostics.csv, which kslab fit reads as well
    pytest.param("diagnostics.csv", lambda lines: [*lines[:2], lines[3], lines[2],
                                                   *lines[4:]],
                 id="diagnostics.csv-swapped-rows"),
])
def test_cli_report_malformed_table_exit_code(tmp_path, capsys, csv, cut):
    out, _ = _cheap_run(tmp_path, "constant_decay")
    lines = (out / csv).read_text().splitlines()
    assert len(lines) >= 4
    (out / csv).write_text("\n".join(cut(lines)) + "\n")
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO
    assert f"i/o error: {out / csv}" in capsys.readouterr().err


def test_cli_heat_mode_diagnostics_out_of_time_order_exit_code(tmp_path, capsys):
    """heat_mode has no energy monitor: its reader alone sees the order,
    under kslab report and kslab fit alike."""
    out, _ = _cheap_run(tmp_path, "heat_mode")
    path = out / "diagnostics.csv"
    header, first, second, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, second, first, *rest]) + "\n")
    for argv in (["report", "--run", str(out)], ["fit", "--series", str(path)]):
        assert cli_main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: {path}, line 3: rows out of time order: 0.01 !< 0.0\n"


@pytest.mark.parametrize("old, new, named", [
    ("chi = 1.0", "chi = abc", "solver.chi"),
    ("[run]\n", "[run]\nseed = 1234\n", "run.seed"),  # an echo from before its removal
], ids=["bad-value", "removed-key"])
def test_cli_report_config_error_exit_code(tmp_path, capsys, old, new, named):
    """A config_echo.ini that no longer loads (edited, or written before a
    key was removed) is a config error; summary.json is left as it was."""
    out, _ = _cheap_run(tmp_path, "constant_decay")
    echo = out / "config_echo.ini"
    text = echo.read_text()
    assert old in text
    echo.write_text(text.replace(old, new))
    recorded = (out / "summary.json").read_bytes()
    assert cli_main(["report", "--run", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err, err
    assert (out / "summary.json").read_bytes() == recorded


@pytest.mark.parametrize("name", ["config_echo.ini", "summary.json"])
def test_cli_report_missing_artifact_exit_code(tmp_path, capsys, name):
    out, _ = _cheap_run(tmp_path, "constant_decay")
    (out / name).unlink()
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO
    assert "i/o error: " in capsys.readouterr().err


# a 2D snapshot's header: magic, dim, 2 cells from byte 8, 2 extents from
# byte 16, the time at byte 32, the topology byte at byte 40; the values from
# byte 41
_T_AT, _TOPO_AT, _VALUES_AT = 32, 40, 41


def _poke(at: int, data: bytes):
    return lambda raw: raw[:at] + data + raw[at + len(data):]


@pytest.mark.parametrize("damage, code", [
    (lambda raw: raw[:-8], EXIT_IO),                                # truncated body
    (lambda raw: raw + bytes(8), EXIT_IO),                          # trailing bytes
    (lambda raw: b"KSF0" + raw[4:], EXIT_IO),                       # bad magic
    (lambda raw: raw[:20], EXIT_IO),                                # 20-byte file
    (lambda raw: raw[:6], EXIT_IO),                                 # no dim
    (_poke(4, struct.pack("<I", 7)), EXIT_IO),                      # dim 7
    (_poke(_TOPO_AT, b"\x09"), EXIT_IO),                            # topology 9
    (_poke(8, struct.pack("<I", 2)), EXIT_IO),                      # 2 cells
    (_poke(16, struct.pack("<d", math.nan)), EXIT_IO),              # extent nan
    (_poke(_VALUES_AT, struct.pack("<d", math.nan)), EXIT_CONFIG),
    (_poke(_VALUES_AT, struct.pack("<d", -1.0)), EXIT_CONFIG),
    (_poke(_T_AT, struct.pack("<d", math.inf)), EXIT_CONFIG),
], ids=["truncated", "trailing", "magic", "20_bytes", "6_bytes", "dim_7",
        "topology_9", "cells_2", "extent_nan", "nan", "negative", "time_inf"])
def test_cli_custom_malformed_snapshot_exit_code(tmp_path, capsys, damage, code):
    """A malformed n0 file is an i/o error, well-formed but invalid initial
    data a config error; either is one line on stderr, never a traceback."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    paths = {name: tmp_path / f"{name}.ksf" for name in ("n0", "c0")}
    for path in paths.values():
        write_snapshot(constant_field(g, 1.0), 0.0, path)
    paths["n0"].write_bytes(damage(paths["n0"].read_bytes()))
    cfg = _write(tmp_path, "[run]\nscenario = custom\n"
                           f"n0_snapshot = {paths['n0']}\nc0_snapshot = {paths['c0']}\n")
    argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "--override", "run.t_end=0.02", "--override", "grid.cells=8 8"]
    assert cli_main(argv) == code
    err = capsys.readouterr().err.splitlines()
    prefix = "i/o error: " if code == EXIT_IO else "config error: "
    assert len(err) == 1 and err[0].startswith(prefix), err


@pytest.mark.parametrize("grid", [
    ["grid.dim=3", "grid.cells=8 8 8", "grid.extent=1 1 1"],
    ["grid.cells=8 16"],
    ["grid.cells=8 8", "grid.extent=1 2"],
    ["grid.cells=8 8", "grid.topology=neumann_box"],
    [],  # the default 16 x 16 torus
], ids=["dim", "cells", "extent", "topology", "default"])
def test_cli_custom_grid_must_describe_the_snapshots(tmp_path, capsys, grid):
    """Snapshots on a grid other than the config's are a config error; a
    malformed file stays an i/o error."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    paths = {name: tmp_path / f"{name}.ksf" for name in ("n0", "c0")}
    for path in paths.values():
        write_snapshot(constant_field(g, 1.0), 0.0, path)
    cfg = _write(tmp_path, "[run]\nscenario = custom\n"
                           f"n0_snapshot = {paths['n0']}\nc0_snapshot = {paths['c0']}\n")
    argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "--override", "run.t_end=0.02"]
    for item in grid:
        argv += ["--override", item]
    assert cli_main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "[grid]" in err[0]
    paths["c0"].write_bytes(paths["c0"].read_bytes()[:-8])
    assert cli_main(argv) == EXIT_IO


@pytest.mark.parametrize("t_n0, t_c0, named", [
    (5.0, 5.0, "run.t_end: 1.0 is not after the snapshots' t = 5.0"),
    (0.0, 7.5, "run.c0_snapshot holds t = 7.5, but run.n0_snapshot holds t = 0.0"),
    (1.0 - 1e-13, 1.0 - 1e-13,
     "run.t_end: 1.0 is not after the snapshots' t = 0.9999999999999"),
], ids=["both-past-t_end", "two-times", "both-within-slack-of-t_end"])
def test_cli_custom_snapshot_times_exit_code(tmp_path, capsys, t_n0, t_c0, named):
    """Snapshots at, past or within the end-time slack of t_end leave no
    step to take, and c0's time would be dropped: either is a config error
    naming the key."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    for name, t in (("n0", t_n0), ("c0", t_c0)):
        write_snapshot(constant_field(g, 1.0), t, tmp_path / f"{name}.ksf")
    cfg = _write(tmp_path, "[run]\nscenario = custom\n"
                           f"n0_snapshot = {tmp_path / 'n0.ksf'}\n"
                           f"c0_snapshot = {tmp_path / 'c0.ksf'}\n")
    argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "--override", "grid.cells=8 8"]
    assert cli_main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0], err
    assert not (tmp_path / "out").exists()


def test_cli_custom_start_that_dt_min_cannot_advance_exit_code(tmp_path, capsys):
    """From t = 1e6 a dt of 1e-12 is under half the spacing of t: the run
    would never leave t0, so every sample would share one t."""
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    for name in ("n0", "c0"):
        write_snapshot(constant_field(g, 1.0), 1e6, tmp_path / f"{name}.ksf")
    cfg = _write(tmp_path, "[run]\nscenario = custom\n"
                           f"n0_snapshot = {tmp_path / 'n0.ksf'}\n"
                           f"c0_snapshot = {tmp_path / 'c0.ksf'}\n")
    argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
    for item in ("grid.cells=8 8", "run.t_end=inf", "run.max_steps=5",
                 "solver.dt_max=1e-12"):
        argv += ["--override", item]
    assert cli_main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") \
        and "solver.dt_min" in err[0], err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("scenario", ["heat_mode", "equilibrium_2d"])
@pytest.mark.parametrize("chi", ["1e300", "1e-300"])
def test_cli_run_at_an_extreme_chi_ends_with_an_exit_code(tmp_path, capsys,
                                                          scenario, chi):
    """V's weight k1 / chi^2 past the float range is 0 or inf, not an
    OverflowError or ZeroDivisionError."""
    cfg_path = _write(tmp_path, f"[run]\nscenario = {scenario}\n")
    code = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                     "--override", f"solver.chi={chi}", "--max-steps", "30"])
    assert code in (EXIT_OK, 1, EXIT_DIVERGENCE)
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_run_with_a_huge_finite_exponent_reports_an_infinite_integral(
        tmp_path, capsys):
    """||n||_{L^s}^r past the float range makes the criterion integral inf,
    a monitor value, instead of an OverflowError."""
    cfg_path = _write(tmp_path, "[run]\nscenario = equilibrium_2d\n")
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                     "--override", "diagnostics.criterion_pairs=1.5000001/1e300",
                     "--max-steps", "30"])
    assert code in (EXIT_OK, 1)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["criteria"][0]["value_ns"] == math.inf


def test_criteria_csv_reads_right_with_a_generic_csv_reader(tmp_path):
    """No column name holds a comma, so every row has a cell per name."""
    cfg_path = _write(tmp_path, "[run]\nscenario = constant_decay\n"
                                "[diagnostics]\ncriterion_pairs = 2/4 1.6/inf\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                     "--max-steps", "5"]) == EXIT_OK
    with open(out / "criteria.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "gradc_inf", "ns[s=2;r=4]", "ns[s=1.6;r=inf]"]
    assert rows and all(len(row) == len(header) for row in rows)


_DECAY_INI = "[run]\nscenario = constant_decay\n"


@pytest.mark.parametrize("argv, call", [
    (["run", "--config", "cfg.ini"], "run_scenario"),
    (["report", "--run", "out"], "regenerate_summary"),
    (["fit", "--series", "series.csv"], "read_table"),
], ids=["run", "report", "fit"])
@pytest.mark.parametrize("error, code, line", [
    (ConfigError("boom"), EXIT_CONFIG, "config error: boom"),
    (ValueError("boom"), EXIT_IO, "i/o error: boom"),
    (LookupError("boom"), EXIT_IO, "i/o error: boom"),
    (OSError("boom"), EXIT_IO, "i/o error: boom"),
], ids=["ConfigError", "ValueError", "LookupError", "OSError"])
def test_cli_maps_an_error_in_any_command_to_one_exit_code(
        tmp_path, monkeypatch, capsys, argv, call, error, code, line):
    """Whichever command raises it, an error is one stderr line and the
    exit code of its kind."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.chdir(tmp_path)
    _write(tmp_path, _DECAY_INI)
    monkeypatch.setattr(kslab.cli, call, fail)
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


@pytest.mark.parametrize("text, overrides, named", [
    (_DECAY_INI + "[bogus]\nx = 1\n", [], "[bogus]"),
    (_DECAY_INI, ["chi"], "'chi'"),
    (_DECAY_INI, ["solver.bogus=1"], "solver.bogus"),
    (_DECAY_INI + "scenario = mms\n", [], "'scenario'"),  # a duplicate key
    ("[run]\nscenario = custom\nc0_snapshot = c0.ksf\n", [], "run.n0_snapshot"),
    (_DECAY_INI, ["solver.upwind=maybe"], "solver.upwind"),
    (_DECAY_INI, ["diagnostics.criterion_pairs=2"], "diagnostics.criterion_pairs"),
    (_DECAY_INI, ["diagnostics.criterion_pairs="], "diagnostics.criterion_pairs"),
    # keys no run reads, by file and by override
    (_DECAY_INI + "seed = 1234\n", [], "run.seed"),
    (_DECAY_INI, ["run.seed=1234"], "run.seed"),
    (_DECAY_INI + "[diagnostics]\nls_exponent = 2\n", [], "diagnostics.ls_exponent"),
    (_DECAY_INI, ["diagnostics.ls_exponent=2"], "diagnostics.ls_exponent"),
    (_DECAY_INI + "[solver]\npositivity_floor = 0\n", [], "solver.positivity_floor"),
    (_DECAY_INI, ["solver.positivity_floor=0"], "solver.positivity_floor"),
    # the lam = 1 ladder compares each solve with itself: errors 0, PASS
    ("[run]\nscenario = scaling_test\n", ["scaling.lam=1", "grid.cells=8 8"],
     "scaling.lam: must be at least 2, got '1'"),
    # one level gives no observed order: the ladder ran, then failed with nan
    ("[run]\nscenario = scaling_test\n", ["scaling.refinements=1", "grid.cells=8 8"],
     "scaling.refinements: must be at least 2, got '1'"),
    ("[run]\nscenario = mms\n",
     ["scaling.refinements=1", "grid.cells=8 8", "run.t_end=0.005"],
     "scaling.refinements: must be at least 2, got '1'"),
    # a time-stepped run that cannot take a step: 0 steps, PASS, exit 0
    (_DECAY_INI, ["run.t_end=0"],
     "run.t_end: the constant_decay run needs t_end more than the end-time slack "
     "1e-12 after t = 0, got 0.0"),
    # within the end-time slack of t = 0: still 0 steps
    (_DECAY_INI, ["run.t_end=1e-13"],
     "run.t_end: the constant_decay run needs t_end more than the end-time slack "
     "1e-12 after t = 0, got 1e-13"),
    (_DECAY_INI, ["run.max_steps=0"], "run.max_steps: must be at least 1, got '0'"),
], ids=["unknown-section", "malformed-override", "override-unknown-key",
        "parse-error", "custom-without-n0", "upwind-maybe", "pair-without-slash",
        "no-pairs", "seed-file", "seed-override", "ls_exponent-file",
        "ls_exponent-override", "positivity_floor-file", "positivity_floor-override",
        "lam-one", "scaling-refinements-one", "mms-refinements-one",
        "decay-t_end-zero", "decay-t_end-within-slack", "decay-max_steps-zero"])
def test_cli_run_config_error_exit_code(tmp_path, capsys, text, overrides, named):
    argv = ["run", "--config", str(_write(tmp_path, text)),
            "--out-dir", str(tmp_path / "out")]
    assert cli_main(argv + [arg for item in overrides
                            for arg in ("--override", item)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err, err
    assert not (tmp_path / "out").exists()


def test_cli_mms_rejects_unequal_cells(tmp_path, capsys):
    # the ladder refines one cell count on every axis; 8 16 used to run 8x8
    cfg_path = _write(tmp_path, "[run]\nscenario = mms\n")
    code = cli_main(["run", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out"),
                     "--override", "grid.cells=8 16"])
    assert code == EXIT_CONFIG
    assert "mms needs equal grid.cells on every axis" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, key", [("grid.cells=8 16", "cells"),
                                           ("grid.extent=1 2", "extent")])
def test_cli_scaling_test_rejects_unequal_cells_or_extent(tmp_path, capsys,
                                                          override, key):
    cfg_path = _write(tmp_path, "[run]\nscenario = scaling_test\n")
    code = cli_main(["run", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out"), "--override", override])
    assert code == EXIT_CONFIG
    assert f"scaling_test needs equal grid.{key} on every axis" in capsys.readouterr().err


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


@pytest.mark.parametrize("scenario, threshold, stopped_in", [
    # 8^2 starts at sup n 2.854 and finishes; 16^2 starts at 2.962
    ("mms", "2.9", {"solve": "manufactured run", "level": 1, "cells": 16}),
    # rescaled by lam^2 = 4: 8^2 starts at sup n 4.68, 16^2 at 5.31
    ("scaling_test", "5.0", {"solve": "rescale-then-solve", "lam": 2, "level": 1,
                             "cells": 16}),
], ids=["mms", "scaling_test"])
def test_ladder_stopped_early_keeps_the_rows_that_finished(tmp_path, scenario,
                                                            threshold, stopped_in):
    cfg_path = _write(tmp_path, f"[run]\nscenario = {scenario}\n")
    csv = f"{scenario}_errors.csv"
    tables = {}
    for tag, extra in (("full", []), ("stop", [f"solver.blowup_sup_threshold={threshold}"])):
        args = ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / tag),
                "--override", "grid.cells=8 8", "--override", "run.t_end=0.005"]
        code = cli_main(args + [arg for item in extra for arg in ("--override", item)])
        # the 8^2 ladders are pre-asymptotic: the full one may fail a monitor
        assert (code == EXIT_DIVERGENCE) == (tag == "stop")
        tables[tag] = (tmp_path / tag / csv).read_text().splitlines()
    out = tmp_path / "stop"
    recorded = (out / "summary.json").read_bytes()
    assert json.loads(recorded)["run"]["stopped_in"] == stopped_in
    # the header and the 8^2 level's row, as the ladder that finished wrote them
    assert tables["stop"] == tables["full"][:2]
    assert tables["stop"][1].split(",")[1:3] == ["0", "8"]
    assert cli_main(["report", "--run", str(out)]) == EXIT_DIVERGENCE
    assert (out / "summary.json").read_bytes() == recorded


# --- how a run ended: stop_reason -> pass, exit code ---------------------------

_DECAY = ["run.t_end=0.05", "grid.cells=8 8"]
_LADDER = ["run.t_end=0.005", "grid.cells=8 8", "scaling.refinements=2"]


@pytest.mark.parametrize("scenario, overrides, fault, reason, passed, code", [
    ("constant_decay", _DECAY, None, "finished", True, EXIT_OK),
    ("constant_decay", _DECAY + ["run.max_steps=3"], None, "max_steps", True, EXIT_OK),
    ("constant_decay", _DECAY + ["solver.blowup_sup_threshold=0.5"], None,
     "blowup_threshold", False, EXIT_DIVERGENCE),
    ("constant_decay", _DECAY, PositivityError, "positivity", False, EXIT_DIVERGENCE),
    ("constant_decay", _DECAY, CorruptionError, "corrupted", False, EXIT_DIVERGENCE),
    ("mms", _LADDER, PositivityError, "positivity", False, EXIT_DIVERGENCE),
    ("mms", _LADDER, CorruptionError, "corrupted", False, EXIT_DIVERGENCE),
], ids=["finished", "max_steps", "blowup_threshold", "positivity", "corrupted",
        "ladder-positivity", "ladder-corrupted"])
def test_each_stop_reason_gives_its_status_pass_and_exit_code(
        tmp_path, monkeypatch, scenario, overrides, fault, reason, passed, code):
    """Every stop a run can make, through run_scenario and then the
    report: a faulted stop comes from a step that raises on its third call."""
    if fault is not None:
        real_step, calls = kslab.solver.step, []

        def faulty_step(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise fault("injected")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(kslab.solver, "step", faulty_step)
    out = tmp_path / "run"
    cfg = load_config(_write(tmp_path, f"[run]\nscenario = {scenario}\n"),
                      overrides=[f"run.out_dir={out}"] + overrides)
    got, summary = run_scenario(cfg)
    assert (summary["run"]["stop_reason"], summary["pass"], got) == (reason, passed, code)
    assert list(summary["run"])[0] == "stop_reason"
    assert "status" not in summary["run"]
    recorded = (out / "summary.json").read_bytes()
    assert cli_main(["report", "--run", str(out)]) == code
    assert (out / "summary.json").read_bytes() == recorded


@pytest.mark.parametrize("scenario", ["constant_decay", "mms"])
@pytest.mark.parametrize("reason", ["exploded", None])
def test_cli_report_unknown_or_missing_stop_reason_exit_code(tmp_path, capsys,
                                                             scenario, reason):
    """A stop_reason the harness does not know is a malformed artifact: the
    report exits 4 and leaves summary.json as it found it."""
    out = tmp_path / "run"
    cfg = load_config(_write(tmp_path, f"[run]\nscenario = {scenario}\n"),
                      overrides=[f"run.out_dir={out}", "run.t_end=0.01"]
                      + (_LADDER[1:] if scenario == "mms" else []))
    run_scenario(cfg)
    summary = json.loads((out / "summary.json").read_text())
    if reason is None:
        del summary["run"]["stop_reason"]
    else:
        summary["run"]["stop_reason"] = reason
    (out / "summary.json").write_text(json.dumps(summary))
    recorded = (out / "summary.json").read_bytes()
    capsys.readouterr()
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert f"unknown run.stop_reason {reason!r}" in captured.err
    assert "overall=" not in captured.out
    assert (out / "summary.json").read_bytes() == recorded


@pytest.mark.parametrize("scenario", ["constant_decay", "mms"])
@pytest.mark.parametrize("shape, what", [
    ([], "not a JSON object"),
    ({"run": []}, "run is not a JSON object"),
    ({"run": {"stop_reason": "finished"}, "metadata": []},
     "metadata is not a JSON object"),
], ids=["list", "run-list", "metadata-list"])
def test_cli_report_summary_of_the_wrong_shape_exit_code(tmp_path, capsys, scenario,
                                                         shape, what):
    """A summary.json that is valid JSON but not an object, or whose run
    record or metadata is not one, is a malformed artifact: the report exits
    4 with one stderr line and leaves summary.json as it found it."""
    out = tmp_path / "run"
    cfg = load_config(_write(tmp_path, f"[run]\nscenario = {scenario}\n"),
                      overrides=[f"run.out_dir={out}", "run.t_end=0.01"]
                      + (_LADDER[1:] if scenario == "mms" else []))
    run_scenario(cfg)
    (out / "summary.json").write_text(json.dumps(shape))
    recorded = (out / "summary.json").read_bytes()
    capsys.readouterr()
    assert cli_main(["report", "--run", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == f"i/o error: summary.json: {what}\n"
    assert "overall=" not in captured.out
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


@pytest.mark.parametrize("flag, value", [
    ("--c3", "inf"),
    ("--c3", "1e307"),    # delta0 underflows to 0 from about 3.2e306
    ("--c3", "4e306"),
    ("--c3", "5e-324"),   # C3/4 underflows to 0
    ("--c0-sup", "1e300"),  # c0_sup^(4/3) overflows
    ("--c0-sup", "inf"),
])
def test_cli_fit_constant_out_of_range_exit_code(tmp_path, capsys, flag, value):
    series_path = tmp_path / "series.csv"
    series_path.write_text(_inverse_law(60))
    assert cli_main(["fit", "--series", str(series_path), flag, value]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}"), err


def test_cli_run_c3_out_of_range_exit_code(tmp_path, capsys):
    argv = ["run", "--config", str(_write(tmp_path, "[run]\nscenario = stress_3d\n")),
            "--out-dir", str(tmp_path / "out")]
    for item in _CHEAP["stress_3d"] + ["blowup.c3=1e308"]:
        argv += ["--override", item]
    assert cli_main(argv) == EXIT_CONFIG
    assert "blowup.c3: must be in [1e-300, 1e+300], got '1e308'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fraction", ["inf", "nan", "5", "0", "-1"])
def test_cli_fit_window_fraction_outside_unit_interval_exit_code(tmp_path, capsys,
                                                                 fraction):
    series_path = tmp_path / "series.csv"
    series_path.write_text(_inverse_law(60))
    assert cli_main(["fit", "--series", str(series_path),
                     "--window-fraction", fraction]) == EXIT_CONFIG
    assert "window fraction must lie in (0, 1]" in capsys.readouterr().err


def _inverse_law(rows):
    return "t,n_sup\n" + "".join(f"{t},{1.0 / (1.0 - t)}\n"
                                  for t in np.linspace(0.5, 0.99, rows))


def test_cli_fit_non_finite_sample_exit_code(tmp_path, capsys):
    series_path = tmp_path / "series.csv"
    head, _last = _inverse_law(60).rstrip("\n").rsplit(",", 1)
    series_path.write_text(head + ",inf\n")
    assert cli_main(["fit", "--series", str(series_path)]) == EXIT_CONFIG
    assert "config error: series row 59 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("cut, message", [
    (lambda text: text + "0.995\n", "line 62: 1 cells for 2 columns"),
    (lambda text: text.replace("t,n_sup", "time,n_sup", 1), "no 't' column"),
    (lambda text: text.replace("\n0.5,", "\nhalf,", 1), "could not convert"),
    # the first two rows swapped
    (lambda text: "\n".join([*(lines := text.splitlines())[:1], lines[2], lines[1],
                             *lines[3:]]) + "\n", "line 3: rows out of time order"),
], ids=["one-cell last row", "no t column", "unparsable cell", "rows out of time order"])
def test_cli_fit_malformed_series_exit_code(tmp_path, capsys, cut, message):
    series_path = tmp_path / "series.csv"
    series_path.write_text(cut(_inverse_law(60)))
    assert cli_main(["fit", "--series", str(series_path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and message in err


@pytest.mark.parametrize("series, out, named", [
    ("t,a,b\n0.5,1,2\n0.6,1,2\n", None, "need an n_sup column or a two-column file"),
    (None, "missing/report.json", "missing/report.json"),
], ids=["no-n_sup-column", "out-in-a-missing-dir"])
def test_cli_fit_io_error_exit_code(tmp_path, capsys, series, out, named):
    series_path = tmp_path / "series.csv"
    series_path.write_text(series or _inverse_law(60))
    argv = ["fit", "--series", str(series_path)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert cli_main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and named in err, err


def test_cli_fit_writes_strict_json(tmp_path, capsys):
    # a flat series declines the fit: its NaN fields must come out as null
    series_path = tmp_path / "series.csv"
    series_path.write_text("t,n_sup\n" + "".join(f"{t},1.0\n" for t in range(60)))
    assert cli_main(["fit", "--series", str(series_path)]) == EXIT_OK

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["status"] == payload["classification"] == "no_blowup"
    assert [payload[key] for key in ("t_star", "gamma", "amplitude", "fit_residual")] \
        == [None] * 4
    assert payload["alpha"] > 0.0


def test_cli_fit_reports_what_the_run_reports(tmp_path, capsys):
    """kslab fit on a run's diagnostics.csv, with the run's c0_sup, gives the
    run's blow-up report, declined fit included, with null for NaN."""
    out, _code = _cheap_run(tmp_path, "stress_3d")
    report = json.loads((out / "blowup_report.json").read_text())
    assert report["classification"] == "no_blowup" and "note" not in report
    argv = ["fit", "--series", str(out / "diagnostics.csv"), "--window-fraction", "1",
            "--c0-sup", repr(report["constants"]["c0_sup"])]
    assert cli_main(argv) == EXIT_OK
    fitted = json.loads(capsys.readouterr().out)
    assert fitted.pop("status") == "no_blowup"
    del report["tail_series"], report["config"]
    expected = {key: None if isinstance(v, float) and math.isnan(v) else v
                for key, v in report.items()}
    assert list(fitted.items()) == list(expected.items())


def test_blowup_report_tail_series_is_the_fit_window(tmp_path):
    """tail_series holds the (t, sup n) samples the fit reads; the cheap
    stress_3d run's window_fraction of 1 takes every sample."""
    out, _code = _cheap_run(tmp_path, "stress_3d")
    report = json.loads((out / "blowup_report.json").read_text())
    records = read_diagnostics_csv(out / "diagnostics.csv")
    assert len(records) > 4
    assert report["tail_series"] == [[rec.t, rec.n_sup] for rec in records]


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
    assert (out / "scaling_test_errors.csv").exists()
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


def test_run_scenario_mms_on_a_non_unit_torus(tmp_path):
    # the pair's wavenumbers follow the extent: 2 pi / 1.5 on each axis
    out = tmp_path / "mms"
    code = cli_main(["run", "--config", str(_write(tmp_path, "[run]\nscenario = mms\n")),
                     "--out-dir", str(out), "--override", "grid.extent=1.5 1.5",
                     "--override", "run.t_end=0.005",
                     "--override", "scaling.refinements=2"])
    summary = json.loads((out / "summary.json").read_text())
    assert code == EXIT_OK, summary["monitors"]
    assert summary["monitors"]["spatial_order"]["value"] >= 1.9
    assert summary["monitors"]["temporal_order"]["value"] >= 0.9


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
