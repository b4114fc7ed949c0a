"""Command-line entry point.

    kslab run --config cfg.ini [--out-dir DIR] [--max-steps N]
              [--override section.key=value ...]
    kslab fit --series diagnostics.csv [--c0-sup X] [--c3 X] [--out report.json]
    kslab report --run DIR

Exit codes: 0 ok, 1 monitor failure, 2 divergence detected, 3 config error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .blowup import NO_BLOWUP, alpha_lower_bound, check_lower_bound, classify, fit_rate
from .errors import ConfigError
from .harness import (EXIT_CONFIG, EXIT_IO, EXIT_OK, load_config,
                      regenerate_summary, run_scenario)


def _print_monitors(summary: dict) -> None:
    for name, mon in summary.get("monitors", {}).items():
        verdict = "PASS" if mon["pass"] else "FAIL"
        op = "<=" if mon.get("kind", "max") == "max" else ">="
        print(f"[{verdict}] {name}: {mon['value']:.6g} {op} {mon['threshold']:.6g}")
    reason = summary.get("run", {}).get("stop_reason")
    print(f"stop_reason={reason} overall={'PASS' if summary.get('pass') else 'FAIL'}")


def _cmd_run(args) -> int:
    overrides = list(args.override or [])
    if args.out_dir:
        overrides.append(f"run.out_dir={args.out_dir}")
    if args.max_steps is not None:
        overrides.append(f"run.max_steps={args.max_steps}")
    try:
        code, summary = run_scenario(load_config(args.config, overrides=overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_monitors(summary)
    return code


def _read_series(path) -> list[tuple[float, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if "t" not in header:
            raise ValueError(f"{path}: no 't' column")
        t_idx = header.index("t")
        v_idx = header.index("n_sup") if "n_sup" in header else (1 - t_idx if len(header) == 2 else None)
        if v_idx is None:
            raise ValueError(f"{path}: need an n_sup column or a two-column file")
        series = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) <= max(t_idx, v_idx) or not parts[0]:
                continue
            series.append((float(parts[t_idx]), float(parts[v_idx])))
    return series


def _cmd_fit(args) -> int:
    try:
        series = _read_series(args.series)
        fit = fit_rate(series, window_fraction=args.window_fraction)
        alpha, c_tilde, delta0, kappa3 = alpha_lower_bound(args.c0_sup, args.c3)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = {
        "status": fit.status,
        "t_star": fit.t_star,
        "gamma": fit.gamma,
        "amplitude": fit.amplitude,
        "fit_residual": fit.residual,
        "alpha": alpha,
        "constants": {"C_tilde": c_tilde, "delta0": delta0, "kappa3": kappa3,
                      "C3": args.c3, "c0_sup": args.c0_sup},
    }
    if fit.status != NO_BLOWUP:
        limsup, ok = check_lower_bound(series, fit.t_star, alpha,
                                       window_fraction=args.window_fraction)
        payload["classification"] = classify(fit.gamma)
        payload["limsup_estimate"] = limsup
        payload["lower_bound_satisfied"] = ok
    else:
        payload["classification"] = NO_BLOWUP
    text = json.dumps(payload, indent=2,
                      default=lambda v: None if isinstance(v, float) and math.isnan(v) else float(v))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        code, summary = regenerate_summary(args.run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, LookupError) as exc:  # missing or malformed artifact
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_monitors(summary)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir")
    p_run.add_argument("--max-steps", type=int)
    p_run.add_argument("--override", action="append", metavar="section.key=value")
    p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a blow-up rate on a (t, n_sup) series")
    p_fit.add_argument("--series", required=True)
    p_fit.add_argument("--c0-sup", type=float, default=1.0)
    p_fit.add_argument("--c3", type=float, default=1.0)
    p_fit.add_argument("--window-fraction", type=float, default=0.25)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=_cmd_fit)

    p_rep = sub.add_parser("report", help="regenerate summary.json for a run dir")
    p_rep.add_argument("--run", required=True)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
