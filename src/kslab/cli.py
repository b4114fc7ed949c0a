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

from .blowup import C3_RANGE, alpha_lower_bound, fit_rate, rate_report
from .diagnostics import check_time_order, read_table
from .errors import ConfigError
from .harness import (EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK,
                      load_config, regenerate_summary, run_scenario)


def _print_monitors(code: int, summary: dict) -> int:
    """Print the monitors and the verdict; a divergence also goes to stderr."""
    for name, mon in summary.get("monitors", {}).items():
        verdict = "PASS" if mon["pass"] else "FAIL"
        op = "<=" if mon.get("kind", "max") == "max" else ">="
        print(f"[{verdict}] {name}: {mon['value']:.6g} {op} {mon['threshold']:.6g}")
    reason = summary.get("run", {}).get("stop_reason")
    print(f"stop_reason={reason} overall={'PASS' if summary.get('pass') else 'FAIL'}")
    if code == EXIT_DIVERGENCE:
        print(f"stopped early: {reason}", file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    overrides = list(args.override or [])
    if args.out_dir:
        overrides.append(f"run.out_dir={args.out_dir}")
    if args.max_steps is not None:
        overrides.append(f"run.max_steps={args.max_steps}")
    return _print_monitors(*run_scenario(load_config(args.config, overrides=overrides)))


def _read_series(path) -> list[tuple[float, float]]:
    header, rows = read_table(path)
    if "t" not in header:
        raise ValueError(f"{path}: no 't' column")
    t_idx = header.index("t")
    v_idx = header.index("n_sup") if "n_sup" in header else (1 - t_idx if len(header) == 2 else None)
    if v_idx is None:
        raise ValueError(f"{path}: need an n_sup column or a two-column file")
    series = [(float(row[t_idx]), float(row[v_idx])) for row in rows]
    check_time_order(path, [t for t, _ in series])
    return series


def _cmd_fit(args) -> int:
    series = _read_series(args.series)
    try:
        if not C3_RANGE[0] <= args.c3 <= C3_RANGE[1]:
            raise ValueError(f"--c3 must be in {list(C3_RANGE)}, got {args.c3!r}")
        # a stated sup of c0, unlike a run's measured one, must give a finite alpha
        if not (args.c0_sup > 0.0
                and math.isfinite(alpha_lower_bound(args.c0_sup, args.c3)[1])):
            raise ValueError("--c0-sup must be positive and keep C_tilde finite (up "
                             f"to about 1e231 at --c3 1), got {args.c0_sup!r}")
        fit = fit_rate(series, window_fraction=args.window_fraction)
        payload = {"status": fit.status, **rate_report(
            series, fit, args.c0_sup, args.c3, args.window_fraction)}
        # strict JSON: the NaN fields of a declined fit are null
        text = json.dumps({key: None if isinstance(v, float) and math.isnan(v) else v
                           for key, v in payload.items()}, indent=2, allow_nan=False)
    except ValueError as exc:  # a flag, or a series the fit cannot take
        raise ConfigError(str(exc)) from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    return _print_monitors(*regenerate_summary(args.run))


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
    """Run one command; an error it raises is one stderr line and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, LookupError) as exc:  # a missing or malformed file
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
