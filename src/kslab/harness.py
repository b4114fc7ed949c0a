"""Run configuration, scenario registry, convergence drivers and artifacts.

``_SCHEMA`` holds every config key with its default and parser,
``SCENARIOS`` every scenario's presets, grid requirement, initial data or
runner and monitors, and ``_summarize`` builds every summary.json.  A
minimal config file only needs [run] scenario = <name>; unset inequality
constants are echoed with a "config-default" provenance label.

Artifacts written per run directory:
    config_echo.ini   effective configuration (defaults applied)
    diagnostics.csv   one row per sample, every monitored functional
    criteria.csv      t, sup|grad c| and the L^s norms per criterion pair
    snapshots/        KSF1 field snapshots (cadenced and final)
    blowup_report.json, nondegeneracy.ksf    when rate fitting is enabled
    mms_errors.csv / scaling_errors.csv      for the convergence scenarios
    summary.json      monitors, pass/fail flags, config echo, version stamp

A summary is a function of those artifacts (and, for a time-stepped run,
of the step statistics it records), so regenerate_summary() (the CLI
"report" command) recomputes it offline for every scenario.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, make_dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .blowup import (NO_BLOWUP, BlowupReport, RateFit, alpha_lower_bound,
                     check_lower_bound, classify, fit_rate, nondegeneracy_map)
from .diagnostics import (CriterionAccumulator, DiagnosticsRecord, DiagnosticsWriter,
                          _clip_level, energy_inequality_residual, evaluate,
                          read_diagnostics_csv, update_accumulators)
from .errors import ConfigError, StoppedEarlyError
from .grid import (Field, GridSpec, fill, lp_norm, make_grid, read_snapshot,
                   write_snapshot)
from .manufactured import ManufacturedPair, mms_sources
from .scaling import (_ERROR_KEYS, _errors, _finished, _orders,
                      read_scaling_csv, scaling_invariance_test,
                      write_scaling_csv)
from .solver import SolverConfig, State, StopRule, run

EXIT_OK = 0
EXIT_MONITOR_FAILURE = 1
EXIT_DIVERGENCE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

# provenance of a defaulted inequality constant, an existence-type number
_GUESS = "config-default (no canonical value; supply your own)"

# --- config schema ------------------------------------------------------------
# A parser maps the value text to its typed value or raises ValueError with
# a message that follows the dotted key name.  Non-finite values are errors,
# except inf as a Lebesgue exponent (criterion pairs, ls_exponent) and as
# run.t_end when run.max_steps bounds the run.


def _number(kind=float, ok: Optional[Callable] = None, need: str = "",
            inf: bool = False) -> Callable:
    """Parser of one int or float; nan, and inf unless allowed, are errors."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"not {noun}: {text!r}")
        if math.isinf(value) and not inf:
            raise ValueError(f"must be finite, got {text!r}")
        if ok is not None and not ok(value):
            raise ValueError(f"must be {need}, got {text!r}")
        return value
    return parse


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _words(parse: Callable) -> Callable:
    return lambda text: tuple(parse(tok) for tok in text.split())


def _optional(parse: Callable) -> Callable:
    return lambda text: parse(text) if text.strip() else None


_int, _real, _exponent = _number(int), _number(), _number(inf=True)
_nonnegative = _number(ok=lambda v: v >= 0, need="nonnegative")
_count = _number(int, lambda v: v >= 0, "nonnegative")
_at_least_1 = _number(int, lambda v: v >= 1, "at least 1")


def _pairs(text: str) -> list[tuple[float, float]]:
    """Criterion pairs s/r with s > 3/2 and r >= 1; either may be inf."""
    pairs = []
    for token in text.split():
        s, sep, r = token.partition("/")
        if not sep:
            raise ValueError(f"token {token!r} is not of the form s/r")
        s, r = _exponent(s), _exponent(r)
        if not s > 1.5:
            raise ValueError(f"s must exceed 3/2, got {token!r}")
        if not r >= 1.0:
            raise ValueError(f"r must be at least 1, got {token!r}")
        pairs.append((s, r))
    if not pairs:
        raise ValueError("need at least one pair")
    return pairs


# section -> key -> (default text, parser[, provenance when defaulted]);
# GridSpec, SolverConfig and RunConfig take the parsed sections as keyword
# arguments
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "scenario": ("", str.strip),
        "t_end": ("1.0", _number(ok=lambda v: v >= 0, need="nonnegative",
                                 inf=True)),
        "sample_every": ("100", _at_least_1),
        "snapshot_every": ("0", _count),
        "out_dir": ("out", str.strip),
        "seed": ("1234", _int),
        "max_steps": ("", _optional(_count)),
        "n0_snapshot": ("", str.strip),
        "c0_snapshot": ("", str.strip),
    },
    "grid": {
        "dim": ("2", _int),
        "cells": ("16 16", _words(_int)),
        "extent": ("1.0 1.0", _words(_real)),
        "topology": ("periodic_torus", str.strip),
    },
    "solver": {
        "chi": ("1.0", _real),
        "scheme": ("explicit_euler", str.strip),
        "cfl_safety": ("0.4", _real),
        "dt_min": ("1e-12", _real),
        "dt_max": ("0.1", _real),
        "positivity_floor": ("0.0", _real),
        "upwind": ("true", _bool),
        "blowup_sup_threshold": ("1e6", _real),
        "dt_blowup_factor": ("0.1", _real),
    },
    "diagnostics": {
        "kappa1": ("10.0", _nonnegative, _GUESS),
        "kappa2": ("0.01", _nonnegative, _GUESS),
        "kappa3": ("1.0", _nonnegative, _GUESS),
        "c_monitor": ("100.0", _real, _GUESS),
        "criterion_pairs": ("2/4 1.6/inf", _pairs),
        "ls_exponent": ("", _optional(_number(ok=lambda v: v > 1.5,
                                              need="greater than 3/2", inf=True))),
    },
    "blowup": {
        "c3": ("1.0", _number(ok=lambda v: v > 0, need="positive"), _GUESS),
        "epsilon": ("0.01", _real, _GUESS),
        "window_fraction": ("0.25", _number(ok=lambda v: 0 < v <= 1,
                                            need="in (0, 1]")),
        "fit": ("false", _bool),
        "residual_threshold": ("0.25", _real, _GUESS),
    },
    "scaling": {
        "lam": ("2", _at_least_1),
        "refinements": ("3", _at_least_1),
    },
}


# A validated configuration: one attribute per key of [run], [diagnostics],
# [blowup] and [scaling], plus the GridSpec and SolverConfig built from
# [grid] and [solver], the effective config text and the defaulted keys.
RunConfig = make_dataclass("RunConfig", [
    *((key, object) for sec in ("run", "diagnostics", "blowup", "scaling")
      for key in _SCHEMA[sec]),
    ("grid", GridSpec), ("solver", SolverConfig),
    ("echo", dict, field(default_factory=dict)),
    ("defaulted", list, field(default_factory=list)),
], namespace={"kappas": property(
    lambda self: (self.kappa1, self.kappa2, self.kappa3))})


def load_config(path, overrides: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse and validate a config file; every violation is reported at once."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    given = []  # (section, key, value) from the file, then from the overrides
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {sec}.{key}")
            given.append((sec, key, value))
    for item in overrides or ():
        dotted, sep, value = item.partition("=")
        sec, dot, key = dotted.strip().partition(".")
        if not sep or not dot:
            raise ConfigError(f"override {item!r} is not section.key=value")
        if key not in _SCHEMA.get(sec, {}):
            raise ConfigError(f"override targets unknown key {dotted!r}")
        given.append((sec, key, value.strip()))

    scenario = next((value.strip() for sec, key, value in reversed(given)
                     if (sec, key) == ("run", "scenario")), "")
    presets = SCENARIOS[scenario].presets if scenario in SCENARIOS else {}
    effective = {sec: {key: entry[0] for key, entry in keys.items()}
                 for sec, keys in _SCHEMA.items()}
    for sec, key, value in [(*k.split("."), v) for k, v in presets.items()] + given:
        effective[sec][key] = value
    explicit = {f"{sec}.{key}" for sec, key, _ in given}
    defaulted = sorted(f"{sec}.{key}" for sec in _SCHEMA for key in _SCHEMA[sec]
                       if f"{sec}.{key}" not in explicit)

    errors: list[str] = []
    values: dict[str, dict] = {}
    for sec, keys in _SCHEMA.items():
        values[sec] = {}
        for key, (default, parse, *_) in keys.items():
            try:
                values[sec][key] = parse(effective[sec][key])
            except ValueError as exc:
                errors.append(f"{sec}.{key}: {exc}")
                # carry on with the default so later checks still report
                values[sec][key] = parse(default)

    def construct(cls, section):
        try:
            return cls(**values[section])
        except ValueError as exc:
            errors.append(f"{section}: {exc}")
            return None

    grid_spec = construct(GridSpec, "grid")
    solver_cfg = construct(SolverConfig, "solver")
    run_sec, diag = values["run"], values["diagnostics"]
    if diag["ls_exponent"] is None:
        diag["ls_exponent"] = diag["criterion_pairs"][0][0]
    if math.isinf(run_sec["t_end"]) and run_sec["max_steps"] is None:
        errors.append("run.t_end: inf needs run.max_steps")

    name = run_sec["scenario"]
    scenario = SCENARIOS.get(name)
    if scenario is None:
        errors.append(f"run.scenario: unknown or missing scenario {name!r}; "
                      f"choose from {', '.join(SCENARIOS)}")
    else:
        if grid_spec is not None and scenario.grid is not None:
            dim, topology = scenario.grid
            if grid_spec.topology != topology or dim not in (None, grid_spec.dim):
                errors.append(f"{name} needs a {f'{dim}D ' if dim else ''}"
                              f"{topology} grid")
        for key in scenario.requires:
            if not run_sec[key]:
                errors.append(f"{name} scenario requires run.{key}")

    if errors:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(errors))
    return RunConfig(**run_sec, grid=grid_spec, solver=solver_cfg, **diag,
                     **values["blowup"], **values["scaling"],
                     echo=effective, defaulted=defaulted)


# --- time-stepped runs --------------------------------------------------------


def _run_fields(cfg: RunConfig, out: Path) -> dict:
    """Step the scenario's initial state, writing the field artifacts.

    Returns the step statistics, the one part of the summary that no
    artifact other than summary.json records.
    """
    state0 = SCENARIOS[cfg.scenario].initial(cfg)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    records: list[DiagnosticsRecord] = []
    fit_snaps: list[tuple[float, Field]] = []
    floor_engaged = 0

    writer = DiagnosticsWriter(out / "diagnostics.csv")
    crit_fh = open(out / "criteria.csv", "w", encoding="utf-8")
    crit_fh.write(",".join(["t", "gradc_inf"] + [
        f"ns[s={s:g},r={r:g}]" for s, r in cfg.criterion_pairs]) + "\n")

    def on_sample(state: State, step_idx: int) -> None:
        nonlocal floor_engaged
        rec = evaluate(state, cfg.kappas, cfg.solver.chi, s=cfg.ls_exponent,
                       floor=cfg.solver.positivity_floor)
        records.append(rec)
        writer.write(rec)
        row = [f"{rec.t:.17g}", f"{rec.gradc_inf:.17g}"]
        for s, _r in cfg.criterion_pairs:
            ns = rec.n_ls_norm if s == cfg.ls_exponent else lp_norm(state.n, s)
            row.append(f"{ns:.17g}")
        crit_fh.write(",".join(row) + "\n")
        if float(np.min(state.c.values)) < _clip_level(cfg.solver.positivity_floor,
                                                       rec.c_sup):
            floor_engaged += 1
        if cfg.fit:
            fit_snaps.append((state.t, state.n))

    def on_snapshot(state: State, step_idx: int) -> None:
        write_snapshot(state.n, state.t, snap_dir / f"n_{step_idx:08d}.ksf")
        write_snapshot(state.c, state.t, snap_dir / f"c_{step_idx:08d}.ksf")

    with writer, crit_fh:
        result = run(state0, cfg.solver,
                     StopRule(t_end=cfg.t_end, max_steps=cfg.max_steps),
                     on_sample=on_sample, sample_every=cfg.sample_every,
                     on_snapshot=on_snapshot if cfg.snapshot_every > 0 else None,
                     snapshot_every=cfg.snapshot_every)

    write_snapshot(result.state.n, result.state.t, out / "n_final.ksf")
    write_snapshot(result.state.c, result.state.t, out / "c_final.ksf")
    if cfg.fit and len(records) >= 2:
        _fit_blowup(cfg, records, fit_snaps, out)

    run_info = {"stop_reason": result.stop_reason, "status": result.status,
                "steps": result.steps, "t_final": result.state.t,
                "dt_last": result.dt_last, "dt_smallest": result.dt_smallest,
                "dt_largest": result.dt_largest,
                "dt_clamp_events": result.dt_clamp_events}
    return {"run": run_info, "c_floor_engaged_samples": floor_engaged}


def _fit_blowup(cfg: RunConfig, records: list[DiagnosticsRecord],
                fit_snaps: list[tuple[float, Field]], out: Path) -> None:
    series = [(r.t, r.n_sup) for r in records]
    note = None
    if int(round(cfg.window_fraction * len(series))) < 8:
        fit = RateFit(status=NO_BLOWUP)
        note = "insufficient samples for the fit window (need >= 8 points)"
    else:
        fit = fit_rate(series, window_fraction=cfg.window_fraction,
                       residual_threshold=cfg.residual_threshold)
    c0_sup = records[0].c_sup
    alpha, c_tilde, delta0, kappa3 = alpha_lower_bound(max(c0_sup, 1e-300), cfg.c3)
    classification, limsup_estimate, satisfied = NO_BLOWUP, 0.0, False
    if fit.status != NO_BLOWUP:
        classification = classify(fit.gamma)
        limsup_estimate, satisfied = check_lower_bound(
            series, fit.t_star, alpha, window_fraction=cfg.window_fraction)
        if fit_snaps:
            usable = [(t, f) for t, f in fit_snaps if t < fit.t_star]
            if usable:
                ndmap = nondegeneracy_map(usable, fit.t_star, cfg.epsilon)
                write_snapshot(ndmap.values, fit.t_star, out / "nondegeneracy.ksf")
    payload = BlowupReport(
        t_star=fit.t_star, gamma=fit.gamma, amplitude=fit.amplitude,
        fit_residual=fit.residual, classification=classification, alpha=alpha,
        limsup_estimate=limsup_estimate, lower_bound_satisfied=satisfied,
    ).as_dict()
    if note:
        payload["note"] = note
    payload["constants"] = {"C_tilde": c_tilde, "delta0": delta0,
                            "kappa3": kappa3, "C3": cfg.c3, "c0_sup": c0_sup}
    payload["tail_series"] = [[t, v] for t, v in series[-max(2, len(series) // 4):]]
    payload["config"] = cfg.echo
    with open(out / "blowup_report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _criteria(cfg: RunConfig, path: Path) -> list[dict]:
    """The criterion accumulators, integrated over the rows of criteria.csv."""
    n_pairs = len(cfg.criterion_pairs)
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        rows = [[float(v) for v in parts] for parts in
                (line.strip().split(",") for line in fh)
                if len(parts) >= 2 + n_pairs]
    out = []
    for idx, (s, r) in enumerate(cfg.criterion_pairs):
        acc = CriterionAccumulator(s=s, r=r)
        ends = [(row[0], row[2 + idx], row[1]) for row in rows]  # t, L^s, grad c
        for prev, nxt in zip(ends, ends[1:]):
            acc = update_accumulators(acc, *prev, *nxt)
        out.append({"s": s, "r": r, "admissible": acc.admissible,
                    "value_ns": acc.value_ns, "value_gc": acc.value_gc})
    return out


# --- monitors -----------------------------------------------------------------


def _monitor(value: float, threshold: float, kind: str = "max") -> dict:
    ok = value <= threshold if kind == "max" else value >= threshold
    return {"value": value, "threshold": threshold, "kind": kind, "pass": bool(ok)}


def _relative_drift(values: Sequence[float]) -> float:
    ref = values[0]
    scale = max(abs(ref), 1e-300)
    return max(abs(v - ref) for v in values) / scale


def _conservation(records: Sequence[DiagnosticsRecord], tol: float) -> dict:
    """Relative mass drift and growth of sup c, both within tol."""
    growth = [nxt.c_sup - prev.c_sup for prev, nxt in zip(records, records[1:])]
    return {"mass_drift": _monitor(_relative_drift([r.mass for r in records]), tol),
            "dmp_slack": _monitor(max([0.0] + growth),
                                  tol * max(records[0].c_sup, 1.0))}


def _constant_decay_monitors(cfg, records, out) -> dict:
    conservation = _conservation(records, 1e-12)
    return {
        "decay_error": _monitor(abs(records[-1].c_sup - math.exp(-records[-1].t)),
                                1e-3),
        "mass_drift": conservation["mass_drift"],
        "n_sup_drift": _monitor(_relative_drift([r.n_sup for r in records]), 1e-12),
        "dmp_slack": conservation["dmp_slack"],
    }


def _heat_mode_monitors(cfg, records, out) -> dict:
    c_field, t = read_snapshot(out / "c_final.ksf")
    exact = math.exp(-math.pi**2 * t) * np.cos(math.pi * c_field.grid.centers(0))
    h = max(e / c for e, c in zip(cfg.grid.extent, cfg.grid.cells))
    return {"heat_linf_error": _monitor(
        float(np.max(np.abs(c_field.values - exact))), 10.0 * h * h)}


def _equilibrium_monitors(cfg, records, out) -> dict:
    n_field, _t = read_snapshot(out / "n_final.ksf")
    mean0 = records[0].mass / float(np.prod(cfg.grid.extent))
    return {
        "n_deviation": _monitor(float(np.max(np.abs(n_field.values - mean0))), 1e-6),
        "c_sup_final": _monitor(records[-1].c_sup, 1e-8),
        "c_decay_rate": _monitor(_fitted_decay_rate(records), 0.01, kind="min"),
        **_conservation(records, 1e-12),
    }


def _fitted_decay_rate(records: Sequence[DiagnosticsRecord]) -> float:
    pts = [(r.t, r.c_sup) for r in records if r.t >= 1.0 and r.c_sup > 1e-13]
    if len(pts) < 2:
        pts = [(r.t, r.c_sup) for r in records if r.c_sup > 1e-13]
    if len(pts) < 2:
        return 0.0
    t = np.array([p[0] for p in pts])
    logc = np.log([p[1] for p in pts])
    slope = np.polyfit(t, logc, 1)[0]
    return float(-slope)


def _stress_3d_monitors(cfg, records, out) -> dict:
    return {"v_growth": _monitor(records[-1].V / max(records[0].V, 1e-300), 0.0,
                                 kind="min"),
            **_conservation(records, 1e-9)}


# --- convergence ladders ------------------------------------------------------

def _solve_mms(cfg: RunConfig, cells: int, t_end: float, level: int = 0,
               dt_force: Optional[float] = None) -> tuple[State, State]:
    """Solve the forced system; returns (numerical final, manufactured final).
    A forced dt names the solve in the ladder, else its level and cells."""
    grid = make_grid(replace(cfg.grid, cells=(cells, cells)))  # a 2D torus
    pair = ManufacturedPair(grid, cfg.solver.chi)
    src_n, src_c = mms_sources(pair)
    solver_cfg = cfg.solver
    if dt_force is not None:
        solver_cfg = replace(solver_cfg, dt_min=dt_force, dt_max=dt_force)

    def exact(t: float) -> State:
        return State(Field(grid, pair.n(t)), Field(grid, pair.c(t)), t)

    final = _finished(run(exact(0.0), solver_cfg, StopRule(t_end=t_end),
                          source_n=src_n, source_c=src_c), "manufactured run",
                      **({"level": level, "cells": cells} if dt_force is None
                         else {"dt": dt_force}))
    return final, exact(final.t)


def _mms_dts(cfg: RunConfig) -> list[float]:
    """Forced steps of the temporal self-convergence runs on the base grid."""
    h = cfg.grid.extent[0] / cfg.grid.cells[0]
    dt0 = 0.5 * h * h / 4.0
    return [dt0 / (2**k) for k in range(3)]


def _run_mms(cfg: RunConfig, out: Path) -> None:
    base = cfg.grid.cells[0]
    spatial = []
    for level in range(cfg.refinements):
        cells = base * (2**level)
        spatial.append((level, cells, *_errors(*_solve_mms(cfg, cells, cfg.t_end, level))))
    dts = _mms_dts(cfg)
    finals = [_solve_mms(cfg, base, min(cfg.t_end, 0.03), dt_force=dt)[0]
              for dt in dts]
    with open(out / "mms_errors.csv", "w", encoding="utf-8") as fh:
        fh.write("kind,level,cells_or_dt,l2_n,linf_n,l2_c,linf_c\n")
        for level, cells, *errs in spatial:
            fh.write(f"spatial,{level},{cells},"
                     + ",".join(f"{e:.17g}" for e in errs) + "\n")
        for k in range(2):
            _, e_n, _, e_c = _errors(finals[k], finals[k + 1])
            fh.write(f"temporal_diff,{k},{dts[k]:.17g},,{e_n:.17g},,{e_c:.17g}\n")


def _mms_monitors(cfg: RunConfig, out: Path) -> tuple[dict, dict, dict]:
    with open(out / "mms_errors.csv", "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split(",") for line in fh][1:]
    rows = [{"level": int(r[1]), "cells": int(r[2]),
             **dict(zip(_ERROR_KEYS, map(float, r[3:])))}
            for r in lines if r[0] == "spatial"]
    temporal = [r for r in lines if r[0] == "temporal_diff"]
    spatial_orders = {key: _orders([row[key] for row in rows]) for key in _ERROR_KEYS}
    temporal_orders = {"n": _orders([float(r[4]) for r in temporal])[0],
                       "c": _orders([float(r[6]) for r in temporal])[0]}
    min_spatial = min(min(v, default=math.nan) for v in spatial_orders.values())
    monitors = {
        "spatial_order": _monitor(min_spatial, 1.9, kind="min"),
        "temporal_order": _monitor(min(temporal_orders.values()), 0.9, kind="min"),
    }
    metadata = {"spatial_errors": rows, "spatial_orders": spatial_orders,
                "temporal_orders": temporal_orders, "temporal_dts": _mms_dts(cfg)}
    return {"levels": [row["cells"] for row in rows]}, monitors, metadata


def _run_scaling_test(cfg: RunConfig, out: Path) -> None:
    """The lam ladder, then the lam = 1 identity run that must be exact."""
    tables = [scaling_invariance_test(
        lambda x, y: 1.0 + 0.4 * np.cos(_W * x) * np.cos(_W * y),
        lambda x, y: 0.8 + 0.3 * np.cos(_W * x),
        base_cells=cfg.grid.cells[0], dim=2, lam=lam,
        T=cfg.t_end, config=cfg.solver, refinements=levels,
        extent=cfg.grid.extent[0])
        for lam, levels in ((cfg.lam, cfg.refinements), (1, 1))]
    write_scaling_csv(tables, out / "scaling_errors.csv")


def _scaling_monitors(cfg: RunConfig, out: Path) -> tuple[dict, dict, dict]:
    table, identity = read_scaling_csv(out / "scaling_errors.csv")
    lambda1_error = max(getattr(identity.rows[0], key) for key in _ERROR_KEYS)
    monitors = {
        "scaling_order": _monitor(table.min_order, 1.5, kind="min"),
        "lambda1_error": _monitor(lambda1_error, 0.0),
    }
    metadata = {
        "errors": [vars(r) for r in table.rows],
        "orders": {key: getattr(table, f"orders_{key}") for key in _ERROR_KEYS},
    }
    return ({"lam": table.lam, "levels": [r.cells for r in table.rows]},
            monitors, metadata)


# --- scenario registry --------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything the harness knows about one scenario.

    A time-stepped scenario has ``initial`` (cfg -> State), which the
    default runner steps, and ``monitors`` (cfg, samples, run dir ->
    monitors).  A convergence ladder has its own ``runner`` (cfg, run dir),
    which writes an error table, and ``monitors`` (cfg, run dir -> run
    info, monitors, metadata), which read that table back.
    """

    presets: dict[str, str]  # section.key -> value text over the defaults
    monitors: Callable
    initial: Optional[Callable] = None
    runner: Callable = _run_fields
    grid: Optional[tuple[Optional[int], str]] = None  # (dim or None, topology)
    requires: tuple[str, ...] = ()  # [run] keys that must be set
    # the entropy/Dirichlet inequality presumes positive c
    energy: bool = True


def _sampled(n0: Callable, c0: Callable) -> Callable:
    """Initial data at t = 0 from two position functions."""
    def initial(cfg: RunConfig) -> State:
        grid = make_grid(cfg.grid)
        return State(fill(grid, n0), fill(grid, c0), 0.0)
    return initial


def _stress_3d_initial(cfg: RunConfig) -> State:
    center = tuple(e / 2.0 for e in cfg.grid.extent)

    def bump(x, y, z):
        r2 = (x - center[0])**2 + (y - center[1])**2 + (z - center[2])**2
        return 1.0 + 9.0 * np.exp(-r2 / 0.02)

    return _sampled(bump, lambda x, y, z: 5.0 * np.ones_like(x))(cfg)


def _custom_initial(cfg: RunConfig) -> State:
    n0, t0 = read_snapshot(cfg.n0_snapshot)
    c0, _ = read_snapshot(cfg.c0_snapshot)
    if n0.grid.spec != c0.grid.spec:
        raise ConfigError("custom snapshots live on different grids")
    return State(n0, c0, t0)


_W = 2.0 * math.pi
_TORUS_2D = (2, "periodic_torus")

SCENARIOS: dict[str, Scenario] = {
    "constant_decay": Scenario(
        presets={"solver.dt_max": "1e-4"},
        grid=(None, "periodic_torus"),
        initial=_sampled(lambda *xs: np.ones_like(xs[0]),
                         lambda *xs: np.ones_like(xs[0])),
        monitors=_constant_decay_monitors),
    "heat_mode": Scenario(
        # signed verification data: no energy monitor
        presets={"run.t_end": "0.1", "run.sample_every": "200", "grid.dim": "1",
                 "grid.cells": "64", "grid.extent": "1.0",
                 "grid.topology": "neumann_box", "solver.cfl_safety": "0.8",
                 "solver.dt_max": "0.05"},
        grid=(1, "neumann_box"),
        initial=_sampled(lambda x: np.zeros_like(x),
                         lambda x: np.cos(math.pi * x)),
        monitors=_heat_mode_monitors, energy=False),
    "mms": Scenario(
        presets={"run.t_end": "0.05", "grid.cells": "32 32",
                 "solver.upwind": "false"},
        grid=_TORUS_2D, runner=_run_mms, monitors=_mms_monitors),
    "equilibrium_2d": Scenario(
        presets={"run.t_end": "50.0", "run.sample_every": "500",
                 "solver.cfl_safety": "0.9", "solver.dt_max": "0.05"},
        grid=_TORUS_2D,
        initial=_sampled(
            lambda x, y: 1.0 + 0.3 * np.cos(_W * x) * np.cos(_W * y),
            lambda x, y: 0.5 + 0.2 * np.cos(_W * x)),
        monitors=_equilibrium_monitors),
    "stress_3d": Scenario(
        presets={"run.t_end": "0.5", "run.sample_every": "20", "grid.dim": "3",
                 "grid.cells": "8 8 8", "grid.extent": "1.0 1.0 1.0",
                 "grid.topology": "neumann_box", "solver.chi": "10.0",
                 "solver.cfl_safety": "0.3",
                 "solver.blowup_sup_threshold": "200.0", "blowup.fit": "true"},
        initial=_stress_3d_initial, monitors=_stress_3d_monitors),
    "scaling_test": Scenario(
        presets={"run.t_end": "0.04", "solver.upwind": "false"},
        grid=_TORUS_2D, runner=_run_scaling_test, monitors=_scaling_monitors),
    "custom": Scenario(
        presets={}, requires=("n0_snapshot", "c0_snapshot"),
        initial=_custom_initial,
        monitors=lambda cfg, records, out: _conservation(records, 1e-9)),
}


# --- orchestration and summaries ----------------------------------------------


def run_scenario(cfg: RunConfig) -> tuple[int, dict]:
    """Execute a scenario, write artifacts, return (exit_code, summary)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_config_echo(cfg, out)
    try:
        stats = SCENARIOS[cfg.scenario].runner(cfg, out)
    except StoppedEarlyError as exc:  # a convergence ladder's solve stopped
        stats = {"run": {"stop_reason": exc.stop_reason, "status": exc.status,
                         "stopped_in": exc.stopped_in, "t_stop": exc.t_stop}}
    return _finish(cfg, out, stats)


def regenerate_summary(run_dir) -> tuple[int, dict]:
    """Rebuild summary.json from the artifacts in a run directory."""
    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config_echo.ini")
    with open(run_dir / "config_echo.ini", "r", encoding="utf-8") as fh:
        cfg.defaulted = sorted(
            line.split("# defaulted:", 1)[1].strip()
            for line in fh if line.startswith("# defaulted:"))
    with open(run_dir / "summary.json", "r", encoding="utf-8") as fh:
        old = json.load(fh)
    stats = {"run": old.get("run", {}), "c_floor_engaged_samples": old.get(
        "metadata", {}).get("c_floor_engaged_samples", 0)}
    return _finish(cfg, run_dir, stats)


def _write_config_echo(cfg: RunConfig, out: Path) -> None:
    parser = configparser.ConfigParser()
    parser.read_dict(cfg.echo)
    with open(out / "config_echo.ini", "w", encoding="utf-8") as fh:
        fh.write("# effective configuration (defaults applied)\n")
        for name in cfg.defaulted:
            fh.write(f"# defaulted: {name}\n")
        parser.write(fh)


def _finish(cfg: RunConfig, out: Path, stats: Optional[dict]) -> tuple[int, dict]:
    summary = _summarize(cfg, out, stats)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=float)
        fh.write("\n")
    if summary["run"].get("stop_reason") in ("corrupted", "blowup_threshold",
                                             "positivity"):
        return EXIT_DIVERGENCE, summary
    return (EXIT_OK if summary["pass"] else EXIT_MONITOR_FAILURE), summary


def _summarize(cfg: RunConfig, out: Path, stats: Optional[dict]) -> dict:
    """The summary of the run in out; stats are a time-stepped run's step
    statistics (see _run_fields), or a convergence ladder's stop."""
    scenario = SCENARIOS[cfg.scenario]
    criteria: list[dict] = []
    blowup = None
    if scenario.initial is None:
        run_info = (stats or {}).get("run", {})
        monitors, metadata = {}, {}
        if run_info.get("stop_reason", "finished") == "finished":
            info, monitors, metadata = scenario.monitors(cfg, out)
            run_info = {"stop_reason": "finished", "status": "ok", **info}
    else:
        records = read_diagnostics_csv(out / "diagnostics.csv")
        monitors = scenario.monitors(cfg, records, out) if records else {}
        residuals = [energy_inequality_residual([prev, nxt], cfg.c_monitor,
                                                cfg.solver.chi)
                     for prev, nxt in zip(records, records[1:])
                     if scenario.energy and nxt.t > prev.t]
        if residuals:
            monitors["energy_residual_max"] = _monitor(max(residuals), 0.0)
        criteria = _criteria(cfg, out / "criteria.csv")
        if cfg.fit and len(records) >= 2:
            with open(out / "blowup_report.json", "r", encoding="utf-8") as fh:
                blowup = json.load(fh)
        run_info = stats["run"]
        metadata = {"c_floor_engaged_samples": stats["c_floor_engaged_samples"],
                    "samples": len(records)}

    summary = {
        "package": "kslab",
        "version": __version__,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": cfg.echo,
        "defaulted": cfg.defaulted,
        "provenance": {f"{sec}.{key}": entry[2] for sec, keys in _SCHEMA.items()
                       for key, entry in keys.items()
                       if entry[2:] and f"{sec}.{key}" in cfg.defaulted},
        "run": run_info,
        "monitors": monitors,
        "criteria": criteria,
        "metadata": metadata,
    }
    if blowup is not None:
        summary["blowup"] = blowup
    summary["pass"] = (all(m["pass"] for m in monitors.values())
                       and run_info.get("status", "ok") == "ok"
                       and run_info.get("stop_reason") in ("finished", "max_steps"))
    return summary
