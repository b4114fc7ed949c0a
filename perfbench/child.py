"""Run one ``kslab`` command in this process, observed from outside.

    python3 perfbench/child.py --record FILE [--trace] [--setup-only] -- ARGS...

ARGS are handed to ``kslab.cli.main`` unchanged (``run --config ...`` or
``report --run ...``).  Nothing in ``src/`` is edited: layers are timed by
replacing the public functions in the module namespace where their callers
look them up, and the originals are put back when the command returns.

The record file (``.npz``) always holds ``first_run_ns``, the
``time.monotonic_ns()`` of the first call into ``solver.run``; the parent
reads it against its own spawn time to get set-up time.  With ``--trace``
it also holds every span (name id, start, end, parent index) and the layer
counters.  ``--setup-only`` ends the command at that first call, with exit
code 0, so the parent can sample set-up time without paying for a solve.
"""

from __future__ import annotations

import argparse
import collections
import functools
import os
import sys
import time

import numpy as np

import kslab.cli
import kslab.diagnostics
import kslab.harness
import kslab.solver

# (namespace, attribute, span name): the namespace is the module whose
# callers resolve the name, which for ``from .x import f`` is the importer.
LAYERS = (
    (kslab.cli, "load_config", "harness.load_config"),
    (kslab.harness, "load_config", "harness.load_config"),
    (kslab.cli, "run_scenario", "harness.run_scenario"),
    (kslab.cli, "regenerate_summary", "harness.regenerate_summary"),
    (kslab.harness, "fill", "grid.fill"),
    (kslab.harness, "run", "solver.run"),
    (kslab.solver, "step", "solver.step"),
    (kslab.solver, "chemotactic_flux", "operators.chemotactic_flux"),
    (kslab.harness, "evaluate", "diagnostics.evaluate"),
    (kslab.diagnostics.DiagnosticsWriter, "write", "diagnostics.csv_write"),
    (kslab.harness, "write_snapshot", "grid.write_snapshot"),
    (kslab.harness, "read_snapshot", "grid.read_snapshot"),
    (kslab.harness, "lp_norm", "grid.lp_norm"),
    (kslab.harness, "fit_rate", "blowup.fit_rate"),
    (kslab.harness, "nondegeneracy_map", "blowup.nondegeneracy_map"),
)
ROOT_SPAN = "cli.main"


class SetupDone(BaseException):
    """Raised at the first call into solver.run under --setup-only.

    A BaseException, so the CLI's own error handling cannot swallow it.
    """


class Tracer:
    """In-memory spans and counters; written out once, at the end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, start_ns, end_ns, parent]
        self._stack = [-1]
        self.counters: collections.Counter = collections.Counter()

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, result) may count."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [nid, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper


def install(tracer: Tracer, stamps: dict, setup_only: bool):
    """Replace the layer functions; returns a callable that restores them."""
    saved = []

    def put(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    real_run = kslab.harness.run

    def first_run_stamp(*args, **kwargs):
        stamps.setdefault("first_run_ns", time.monotonic_ns())
        if setup_only:
            raise SetupDone
        return real_run(*args, **kwargs)

    if not tracer.enabled:
        put(kslab.harness, "run", functools.wraps(real_run)(first_run_stamp))
        return lambda: _restore(saved)

    counters = tracer.counters

    def count_cells(args, _result):
        counters["solver.step.cells"] += args[0].n.values.size

    def count_bytes(args, _result):
        counters["grid.write_snapshot.bytes"] += os.path.getsize(args[2])

    after = {"solver.step": count_cells, "grid.write_snapshot": count_bytes}
    for owner, attr, name in LAYERS:
        fn = first_run_stamp if owner.__dict__[attr] is real_run else owner.__dict__[attr]
        put(owner, attr, tracer.span(name, fn, after.get(name)))

    real_sources = kslab.harness.mms_sources

    @functools.wraps(real_sources)
    def traced_sources(*args, **kwargs):
        source_n, source_c = real_sources(*args, **kwargs)
        return (tracer.span("harness.source_n", source_n),
                tracer.span("harness.source_c", source_c))

    put(kslab.harness, "mms_sources", traced_sources)
    return lambda: _restore(saved)


def _restore(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
    saved.clear()


def execute(argv, tracer: Tracer, setup_only: bool = False) -> tuple[int, dict]:
    """Run kslab.cli.main(argv) with the layers wrapped; returns (code, stamps)."""
    stamps: dict = {}
    restore = install(tracer, stamps, setup_only)
    main = tracer.span(ROOT_SPAN, kslab.cli.main) if tracer.enabled else kslab.cli.main
    try:
        code = main(argv)
    except SetupDone:
        code = 0
    finally:
        restore()
    return code, stamps


def write_record(path, tracer: Tracer, stamps: dict) -> None:
    spans = np.array(tracer.spans, dtype=np.int64).reshape(-1, 4)
    np.savez(path, names=np.array(tracer.names, dtype=str), spans=spans,
             counter_names=np.array(list(tracer.counters), dtype=str),
             counter_values=np.array(list(tracer.counters.values()), dtype=np.int64),
             first_run_ns=np.int64(stamps.get("first_run_ns", -1)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("kslab_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    kslab_args = args.kslab_args[1:] if args.kslab_args[:1] == ["--"] else args.kslab_args
    tracer = Tracer(args.trace)
    code, stamps = 1, {}
    try:
        code, stamps = execute(kslab_args, tracer, args.setup_only)
    finally:
        write_record(args.record, tracer, stamps)
    return code


if __name__ == "__main__":
    sys.exit(main())
