"""Run configuration, scenario registry, convergence drivers and artifacts.

``_SCHEMA`` holds every config key with its default and parser,
``SCENARIOS`` every scenario's presets, grid requirement, initial data (or
a ladder's error rows) and monitors, and ``_summarize`` builds every
summary.json.  A minimal config file only needs [run] scenario = <name>;
unset inequality constants are echoed with a "config-default" provenance label.

Artifacts written per run directory:
    config_echo.ini   effective configuration (defaults applied)
    diagnostics.csv   one row per sample, every monitored functional
    criteria.csv      t, sup|grad c| and the L^s norms per criterion pair
    snapshots/        KSF1 field snapshots (cadenced and final)
    blowup_report.json  when rate fitting is enabled
    nondegeneracy.ksf   when the fit succeeds: max over samples of (t* - t) n
    <scenario>_errors.csv  a convergence ladder's error table (mms, scaling_test)
    summary.json      monitors, pass/fail flags, config echo, version stamp

A summary is a function of those artifacts (and, for a time-stepped run,
of the step statistics it records), so regenerate_summary() (the CLI
"report" command) recomputes it offline for every scenario.
"""

from __future__ import annotations

import configparser
import inspect
import json
import math
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, make_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .blowup import (C3_RANGE, MIN_FIT_POINTS, NO_BLOWUP, RateFit, fit_rate,
                     nondegeneracy_map, rate_report, window_size)
from .diagnostics import (DiagnosticsRecord, DiagnosticsWriter, TableWriter,
                          _clip_level, admissible, check_time_order,
                          criterion_integral, energy_inequality_residual, evaluate,
                          read_diagnostics_csv, read_table)
from .errors import ConfigError, CorruptionError, PositivityError, StoppedEarlyError
from .grid import (Field, GridSpec, fill, lp_norm, make_grid, read_snapshot,
                   write_snapshot)
from .manufactured import ManufacturedPair, mms_sources
from .scaling import (_ERROR_KEYS, LADDER_HEADER, _errors, _finished, _orders,
                      ladder_rows, read_ladders, rescaled_finals)
from .solver import SolverConfig, State, StopRule, run

EXIT_OK = 0
EXIT_MONITOR_FAILURE = 1
EXIT_DIVERGENCE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

# How a run ended, by its stop_reason: the exit code of a run whose monitors
# pass.  A run passes if its monitors pass and this code is 0; otherwise a
# code of 0 becomes 1.
_STOPS = {
    "finished": EXIT_OK,
    "max_steps": EXIT_OK,
    "positivity": EXIT_DIVERGENCE,
    "blowup_threshold": EXIT_DIVERGENCE,
    "corrupted": EXIT_DIVERGENCE,
}

# provenance of a defaulted inequality constant, an existence-type number
_GUESS = "config-default (no canonical value; supply your own)"

# --- config schema ------------------------------------------------------------
# A parser maps the value text to its typed value or raises ValueError with
# a message that follows the dotted key name.  Non-finite values are errors,
# except inf as a criterion pair's Lebesgue exponent and as run.t_end when
# run.max_steps bounds a time-stepped run.  StopRule must not have reached
# run.t_end at t = 0, and a ladder, whose solves run to it, needs it finite.


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
_at_least_2 = _number(int, lambda v: v >= 2, "at least 2")


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
        "max_steps": ("", _optional(_at_least_1)),
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
    },
    "blowup": {
        "c3": ("1.0", _number(ok=lambda v: C3_RANGE[0] <= v <= C3_RANGE[1],
                              need=f"in {list(C3_RANGE)}"), _GUESS),
        "epsilon": ("0.01", _real, _GUESS),
        "window_fraction": ("0.25", _number(ok=lambda v: 0 < v <= 1,
                                            need="in (0, 1]")),
        "fit": ("false", _bool),
        "residual_threshold": ("0.25", _real, _GUESS),
    },
    "scaling": {
        "lam": ("2", _at_least_2),
        "refinements": ("3", _at_least_2),
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

    name = next((value.strip() for sec, key, value in reversed(given)
                 if (sec, key) == ("run", "scenario")), "")
    scenario = SCENARIOS.get(name)
    presets = scenario.presets if scenario else {}
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
    if math.isinf(run_sec["t_end"]) and run_sec["max_steps"] is None:
        errors.append("run.t_end: inf needs run.max_steps")

    if scenario is None:
        errors.append(f"run.scenario: unknown or missing scenario {name!r}; "
                      f"choose from {', '.join(SCENARIOS)}")
    else:
        if grid_spec is not None and scenario.grid is not None:
            dim, topology = scenario.grid
            if grid_spec.topology != topology or dim not in (None, grid_spec.dim):
                errors.append(f"{name} needs a {f'{dim}D ' if dim else ''}"
                              f"{topology} grid")
        t_end = run_sec["t_end"]
        shrink = values["scaling"]["lam"] ** 2 if name == "scaling_test" else 1
        if StopRule(t_end / shrink).reached(0.0) or scenario.ladder and math.isinf(t_end):
            need = ("ladder needs a finite t_end, and every solve's end"
                    if scenario.ladder else "run needs t_end")
            rescaled = f" (its rescaled solves end at t_end / {shrink})" if shrink > 1 else ""
            errors.append(f"run.t_end: the {name} {need} more than the end-time slack "
                          f"1e-12 after t = 0, got {t_end!r}{rescaled}")
        for key in scenario.requires:
            if not run_sec[key]:
                errors.append(f"{name} scenario requires run.{key}")
        for key in scenario.uniform:
            if grid_spec is not None and len(set(getattr(grid_spec, key))) > 1:
                errors.append(f"{name} needs equal grid.{key} on every axis")

    if errors:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(errors))
    return RunConfig(**run_sec, grid=grid_spec, solver=solver_cfg, **diag,
                     **values["blowup"], **values["scaling"],
                     echo=effective, defaulted=defaulted)


# --- time-stepped runs --------------------------------------------------------


def _run_fields(cfg: RunConfig, state0: State, out: Path) -> dict:
    """Step the scenario's initial state state0, writing the field artifacts.

    A fitted run appends each sample's n to an unlinked spill file in out,
    so its memory does not grow with the sample count; the fit reads it
    back only to build a nondegeneracy map.  Returns the step statistics,
    the one part of the summary that no artifact other than summary.json
    records.
    """
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)

    series: list[tuple[float, float]] = []  # (t, sup n); spill holds its n fields
    c0_sup = 0.0
    floor_engaged = 0

    def on_sample(state: State, step_idx: int) -> None:
        nonlocal c0_sup, floor_engaged
        rec = evaluate(state, cfg.kappas, cfg.solver.chi, s=cfg.criterion_pairs[0][0])
        if not series:
            c0_sup = rec.c_sup
        series.append((rec.t, rec.n_sup))
        writer.write(rec)
        criteria.write_row([rec.t, rec.gradc_inf, rec.n_ls_norm, *(
            lp_norm(state.n, s) for s, _r in cfg.criterion_pairs[1:])])
        if float(np.min(state.c.values)) < _clip_level(rec.c_sup):
            floor_engaged += 1
        if spill is not None:
            spill.write(state.n.values)

    def on_snapshot(state: State, step_idx: int) -> None:
        write_snapshot(state.n, state.t, snap_dir / f"n_{step_idx:08d}.ksf")
        write_snapshot(state.c, state.t, snap_dir / f"c_{step_idx:08d}.ksf")

    with (tempfile.TemporaryFile(dir=out) if cfg.fit else nullcontext()) as spill:
        with DiagnosticsWriter(out / "diagnostics.csv") as writer, \
                TableWriter(out / "criteria.csv", _criteria_header(cfg)) as criteria:
            result = run(state0, cfg.solver,
                         StopRule(t_end=cfg.t_end, max_steps=cfg.max_steps),
                         on_sample=on_sample, sample_every=cfg.sample_every,
                         on_snapshot=on_snapshot if cfg.snapshot_every > 0 else None,
                         snapshot_every=cfg.snapshot_every)

        write_snapshot(result.state.n, result.state.t, out / "n_final.ksf")
        write_snapshot(result.state.c, result.state.t, out / "c_final.ksf")
        if cfg.fit and len(series) >= 2:
            _fit_blowup(cfg, series, c0_sup,
                        _read_spill(spill, series, state0.n.grid), out)

    run_info = {"stop_reason": result.stop_reason, "steps": result.steps,
                "t_final": result.state.t, "dt_last": result.dt_last,
                "dt_smallest": result.dt_smallest, "dt_largest": result.dt_largest,
                "dt_clamp_events": result.dt_clamp_events}
    return {"run": run_info, "c_floor_engaged_samples": floor_engaged}


def _read_spill(spill, series: list[tuple[float, float]],
                grid) -> Iterator[tuple[float, Field]]:
    """(t, n) of each sample in series, n read lazily from the spill into
    one buffer, so each yielded field is valid only until the next read."""
    spill.seek(0)
    buf = np.empty(grid.shape)
    for t, _n_sup in series:
        if spill.readinto(buf) != buf.nbytes:
            raise OSError("the sample spill file is truncated")
        yield t, Field(grid, buf)


def _fit_blowup(cfg: RunConfig, series: list[tuple[float, float]], c0_sup: float,
                samples: Iterable[tuple[float, Field]], out: Path) -> None:
    """Write blowup_report.json; when the rate fit succeeds, also fold the
    sampled n fields into nondegeneracy.ksf (fit_rate's t_star lies beyond
    the last sample, so every sample is before it)."""
    note = None
    window = window_size(len(series), cfg.window_fraction)
    if window < MIN_FIT_POINTS:
        fit = RateFit(status=NO_BLOWUP)
        note = ("insufficient samples for the fit window "
                f"(need >= {MIN_FIT_POINTS} points)")
    else:
        fit = fit_rate(series, window_fraction=cfg.window_fraction,
                       residual_threshold=cfg.residual_threshold)
    payload = rate_report(series, fit, c0_sup, cfg.c3, cfg.window_fraction, note)
    if fit.status != NO_BLOWUP:
        write_snapshot(nondegeneracy_map(samples, fit.t_star), fit.t_star,
                       out / "nondegeneracy.ksf")
    payload["tail_series"] = [[t, v] for t, v in series[-window:]]
    payload["config"] = cfg.echo
    with open(out / "blowup_report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _criteria_header(cfg: RunConfig) -> list[str]:
    """criteria.csv's columns: t, sup |grad c| and n's L^s norm per pair."""
    return ["t", "gradc_inf"] + [f"ns[s={s:g};r={r:g}]" for s, r in cfg.criterion_pairs]


def _criteria(cfg: RunConfig, path: Path) -> list[dict]:
    """Per criterion pair, the time integrals over criteria.csv's rows of
    n's L^s norm to the power r and of sup |grad c|^2; rows out of time
    order raise ValueError naming the file and line."""
    rows = [[float(v) for v in row]
            for row in read_table(path, _criteria_header(cfg))[1]]
    ts = [row[0] for row in rows]
    check_time_order(path, ts)
    value_gc = criterion_integral(ts, [row[1] for row in rows], 2.0)
    return [{"s": s, "r": r, "admissible": admissible(s, r),
             "value_ns": criterion_integral(ts, [row[2 + idx] for row in rows], r),
             "value_gc": value_gc}
            for idx, (s, r) in enumerate(cfg.criterion_pairs)]


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
    grid = make_grid(replace(cfg.grid, cells=(cells,) * cfg.grid.dim))
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
    """Forced steps of the temporal self-convergence runs on the base grid:
    half its explicit diffusion bound, then halved twice."""
    dt0 = 0.5 * make_grid(cfg.grid).diffusion_dt
    return [dt0 / (2**k) for k in range(3)]


def _mms_rows(cfg: RunConfig) -> Iterator[list]:
    """The spatial ladder against the manufactured solution, then the
    differences of successive forced-dt runs on the base grid."""
    base = cfg.grid.cells[0]
    spatial = ladder_rows(base, cfg.refinements,
                          lambda level, cells: _solve_mms(cfg, cells, cfg.t_end, level))
    yield from (["spatial", *row] for row in spatial)
    dts = _mms_dts(cfg)
    finals = []
    for k, dt in enumerate(dts):
        finals.append(_solve_mms(cfg, base, min(cfg.t_end, 0.03), dt_force=dt)[0])
        if k:
            _, e_n, _, e_c = _errors(finals[k - 1], finals[k])
            yield ["temporal_diff", k - 1, dts[k - 1], None, e_n, None, e_c]


def _mms_monitors(cfg: RunConfig, ladders: dict) -> tuple[dict, dict, dict]:
    table, temporal = ladders["spatial"], ladders["temporal_diff"]
    temporal_orders = {"n": _orders(temporal.column("linf_n"))[0],
                       "c": _orders(temporal.column("linf_c"))[0]}
    monitors = {
        "spatial_order": _monitor(table.min_order, 1.9, kind="min"),
        "temporal_order": _monitor(min(temporal_orders.values()), 0.9, kind="min"),
    }
    metadata = {"spatial_errors": [r._asdict() for r in table.rows],
                "spatial_orders": table.orders, "temporal_orders": temporal_orders,
                "temporal_dts": _mms_dts(cfg)}
    return {"levels": [r.cells for r in table.rows]}, monitors, metadata


def _scaling_test_rows(cfg: RunConfig) -> Iterator[list]:
    """The lam ladder, then the lam = 1 identity run that must be exact."""
    for kind, lam, levels in (("scaling", cfg.lam, cfg.refinements), ("identity", 1, 1)):
        finals = partial(rescaled_finals,
                         lambda x, y: 1.0 + 0.4 * np.cos(_W * x) * np.cos(_W * y),
                         lambda x, y: 0.8 + 0.3 * np.cos(_W * x),
                         2, lam, cfg.t_end, cfg.solver, cfg.grid.extent[0])
        for row in ladder_rows(cfg.grid.cells[0], levels, finals):
            yield [kind, *row]


def _scaling_monitors(cfg: RunConfig, ladders: dict) -> tuple[dict, dict, dict]:
    table, identity = ladders["scaling"], ladders["identity"]
    monitors = {
        "scaling_order": _monitor(table.min_order, 1.5, kind="min"),
        "lambda1_error": _monitor(max(identity.column(k)[0] for k in _ERROR_KEYS), 0.0),
    }
    metadata = {"errors": [r._asdict() for r in table.rows], "orders": table.orders}
    return {"lam": cfg.lam, "levels": [r.cells for r in table.rows]}, monitors, metadata


def _run_ladder(cfg: RunConfig, out: Path) -> Optional[dict]:
    """Write the ladder's rows to <scenario>_errors.csv as their solves
    finish, so a ladder that stops early keeps the rows before the stop;
    returns the stop of the solve that stopped early, if one did."""
    with TableWriter(out / f"{cfg.scenario}_errors.csv", LADDER_HEADER) as table:
        try:
            for row in SCENARIOS[cfg.scenario].initial(cfg):
                table.write_row(row)
        except StoppedEarlyError as exc:
            return {"run": exc.run_info}


# --- scenario registry --------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything the harness knows about one scenario.

    A time-stepped scenario's ``initial`` (cfg -> State) is the state that
    _run_fields steps; its ``monitors`` take (cfg, samples, run dir).  A
    convergence ladder's ``initial`` is a generator function (cfg -> rows)
    of the table _run_ladder writes, and its ``monitors`` take (cfg, an
    ErrorTable per kind) and return (run info, monitors, metadata).
    """

    presets: dict[str, str]  # section.key -> value text over the defaults
    monitors: Callable
    initial: Callable
    grid: Optional[tuple[Optional[int], str]] = None  # (dim or None, topology)
    requires: tuple[str, ...] = ()  # [run] keys that must be set
    uniform: tuple[str, ...] = ()  # [grid] keys equal on every axis
    # the entropy/Dirichlet inequality presumes positive c
    energy: bool = True

    @property
    def ladder(self) -> bool:
        return inspect.isgeneratorfunction(self.initial)


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
    """The state the two snapshots hold.  A malformed file raises
    SnapshotError; well-formed files whose data cannot start a run (on a
    grid other than [grid]'s, non-finite, negative n, at two times or at a
    time from which StopRule has reached run.t_end) raise ConfigError."""
    try:
        n0, t0 = read_snapshot(cfg.n0_snapshot)
        c0, c0_t = read_snapshot(cfg.c0_snapshot)
        for name, snap in (("n0", n0), ("c0", c0)):
            if snap.grid.spec != cfg.grid:
                raise ConfigError(f"run.{name}_snapshot is on {snap.grid.spec}, "
                                  f"but [grid] describes {cfg.grid}")
        if not math.isfinite(t0):
            raise CorruptionError(f"snapshot time {t0}")
        if c0_t != t0:
            raise ConfigError(f"run.c0_snapshot holds t = {c0_t!r}, but "
                              f"run.n0_snapshot holds t = {t0!r}")
        if StopRule(cfg.t_end).reached(t0):
            raise ConfigError(f"run.t_end: {cfg.t_end!r} is not after the "
                              f"snapshots' t = {t0!r}")
        if t0 + cfg.solver.dt_min == t0:
            raise ConfigError(f"solver.dt_min: {cfg.solver.dt_min!r} cannot advance "
                              f"the snapshots' t = {t0!r}")
        return State(n0, c0, t0)
    except (CorruptionError, PositivityError) as exc:
        raise ConfigError(f"custom initial data: {exc}") from None


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
        initial=_mms_rows, monitors=_mms_monitors, uniform=("cells",)),
    "equilibrium_2d": Scenario(
        presets={"run.t_end": "50.0", "run.sample_every": "10",
                 "solver.scheme": "imex", "solver.cfl_safety": "0.9",
                 "solver.dt_max": "0.05"},
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
        grid=_TORUS_2D, initial=_scaling_test_rows, monitors=_scaling_monitors,
        uniform=("cells", "extent")),
    "custom": Scenario(
        presets={}, requires=("n0_snapshot", "c0_snapshot"),
        initial=_custom_initial,
        monitors=lambda cfg, records, out: _conservation(records, 1e-9)),
}


# --- orchestration and summaries ----------------------------------------------


def run_scenario(cfg: RunConfig) -> tuple[int, dict]:
    """Execute a scenario, write artifacts, return (exit_code, summary).
    Initial data that cannot start a run make no out_dir."""
    scenario = SCENARIOS[cfg.scenario]
    state0 = None if scenario.ladder else scenario.initial(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    parser = configparser.ConfigParser()
    parser.read_dict(cfg.echo)
    with open(out / "config_echo.ini", "w", encoding="utf-8") as fh:
        fh.write("# effective configuration (defaults applied)\n")
        for name in cfg.defaulted:
            fh.write(f"# defaulted: {name}\n")
        parser.write(fh)
    stats = _run_ladder(cfg, out) if scenario.ladder else _run_fields(cfg, state0, out)
    del state0  # the summary is built from the artifacts, without the start state
    return _finish(cfg, out, stats)


def regenerate_summary(run_dir) -> tuple[int, dict]:
    """Rebuild summary.json from the artifacts in a run directory."""
    run_dir = Path(run_dir)
    with open(run_dir / "config_echo.ini", "r", encoding="utf-8") as fh:
        defaulted = sorted(line.split("# defaulted:", 1)[1].strip()
                           for line in fh if line.startswith("# defaulted:"))
    cfg = load_config(run_dir / "config_echo.ini")
    cfg.defaulted = defaulted
    with open(run_dir / "summary.json", "r", encoding="utf-8") as fh:
        old = json.load(fh)
    if not isinstance(old, dict):
        raise ValueError("summary.json: not a JSON object")
    info, metadata = old.get("run", {}), old.get("metadata", {})
    for key, value in (("run", info), ("metadata", metadata)):
        if not isinstance(value, dict):
            raise ValueError(f"summary.json: {key} is not a JSON object")
    stats = {"run": info, "c_floor_engaged_samples": metadata.get(
        "c_floor_engaged_samples", 0)}
    return _finish(cfg, run_dir, stats)


def _finish(cfg: RunConfig, out: Path, stats: Optional[dict]) -> tuple[int, dict]:
    summary = _summarize(cfg, out, stats)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=float)
        fh.write("\n")
    code = _STOPS[summary["run"]["stop_reason"]]
    if code == EXIT_OK and not summary["pass"]:
        code = EXIT_MONITOR_FAILURE
    return code, summary


def _run_record(info: dict) -> dict:
    """info with its stop_reason first; a stop_reason that _STOPS does not
    hold (or none) is a malformed record: ValueError."""
    reason = info.get("stop_reason")
    if not isinstance(reason, str) or reason not in _STOPS:
        raise ValueError(f"summary.json: unknown run.stop_reason {reason!r}")
    return {"stop_reason": reason, **info}


def _summarize(cfg: RunConfig, out: Path, stats: Optional[dict]) -> dict:
    """The summary of the run in out; stats are a time-stepped run's step
    statistics (see _run_fields), or a convergence ladder's stop."""
    scenario = SCENARIOS[cfg.scenario]
    criteria: list[dict] = []
    blowup = None
    if scenario.ladder:
        run_info = {"stop_reason": "finished"} if stats is None else stats["run"]
        monitors, metadata = {}, {}
        if run_info.get("stop_reason") == "finished":
            info, monitors, metadata = scenario.monitors(
                cfg, read_ladders(out / f"{cfg.scenario}_errors.csv"))
            run_info = {"stop_reason": "finished", **info}
    else:
        records = read_diagnostics_csv(out / "diagnostics.csv")
        monitors = scenario.monitors(cfg, records, out) if records else {}
        if scenario.energy and len(records) >= 2:
            monitors["energy_residual_max"] = _monitor(max(
                energy_inequality_residual(pair, cfg.c_monitor, cfg.solver.chi)
                for pair in zip(records, records[1:])), 0.0)
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
        "config": cfg.echo,
        "defaulted": cfg.defaulted,
        "provenance": {f"{sec}.{key}": entry[2] for sec, keys in _SCHEMA.items()
                       for key, entry in keys.items()
                       if entry[2:] and f"{sec}.{key}" in cfg.defaulted},
        "run": _run_record(run_info),
        "monitors": monitors,
        "criteria": criteria,
        "metadata": metadata,
    }
    if blowup is not None:
        summary["blowup"] = blowup
    summary["pass"] = (all(m["pass"] for m in monitors.values())
                       and _STOPS[run_info["stop_reason"]] == EXIT_OK)
    return summary
