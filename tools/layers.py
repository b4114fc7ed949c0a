"""Per-layer sweep: median wall time and minor page faults per call of
choose_dt, step (explicit, and imex as step_imex), evaluate and the KSF1
write_snapshot/read_snapshot of n, on one smooth state per grid, at 16^2,
64^2, 256^2 and 32^3 (Neumann boxes), of step_imex_torus (the imex step
from the same data on a periodic torus, with that state's own dt, whose
solve is the rfftn path, not the box's DCTs), and of the manufactured pair's
source_n and source_c hooks at the same sizes (tori in 2D, the Neumann box
in 3D).  At 32^3 only, run_sampled is one solver.run of 1,024 steps from
that state with an evaluate sink every 5 steps, the step-and-sample loop
the step and evaluate rows take apart, and fit_memory is the tracemalloc
peak of one fitted run_scenario of the same run (custom scenario from that
state, a sample every 5 steps, fit on, post-processing included).  Under
"csv": csv_write is one DiagnosticsWriter.write of a record and csv_read
one read_diagnostics_csv of a 1,000-row diagnostics.csv.  Under
"evaluate_memory": the tracemalloc peak of the first evaluate on a fresh
32^3 and a fresh 64^3 box, its scratch included, in MB and in grid arrays.
Under "run_memory": one stress-like solver.run of 60 steps on a fresh 32^3
and a fresh 64^3 box, with a sink every 5 steps that calls evaluate and
lp_norm(n, 1.6) on the sink thread: its tracemalloc peak in MB and in grid
arrays, traced from after the start state is built, and, from the same
run untraced in a fresh child process, the minor faults per step and the
child's peak RSS (vmhwm_mb, imports included).

    python tools/layers.py --label NAME --out BENCH.json [--src DIR]
    python tools/layers.py --configs --label NAME --out BENCH.json [--src DIR]

With --configs it times the sample configs instead: each .ini in the
checkout's configs/ runs CONFIG_RUNS times through kslab.cli.main
in a fresh child process, timed from just before that call to its return,
so the interpreter's start-up and imports are left out; it records the
median and every wall time, the exit code, and summary.json's run.steps
(null for a convergence ladder, whose solves record no single count).

The results are stored under NAME in the "columns" of --out, and a sweep
replaces only its own keys there (the grids, or "configs"); columns already
in the file are kept, so running it once on each of two checkouts (--src
points at a checkout's src/) gives a side-by-side table.  Minor
faults are this process's getrusage(RUSAGE_SELF).ru_minflt around each
timed call, averaged.  Each layer is warmed up with 3 calls, then
timed for at least 0.5 s and 5 calls.  Files go to a temporary directory.
Set OMP/BLAS threads to 1 for comparable numbers; kslab itself runs numpy on
one thread, and run_sampled's sink on one more.  A source row
whose pair the checkout cannot build on that grid records the ValueError
under "unsupported".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

GRIDS = ((16, 16), (64, 64), (256, 256), (32, 32, 32))
MIN_SECONDS = 0.5
MIN_CALLS = 5
WARMUP = 3
CSV_ROWS = 1000
CONFIG_RUNS = 5
RUN_STEPS = 1024
RUN_SAMPLE_EVERY = 5
MEMORY_STEPS = 60
FIT_MEMORY_INI = """[run]
scenario = custom
t_end = inf
max_steps = {steps}
sample_every = {every}
n0_snapshot = {work}/n0.ksf
c0_snapshot = {work}/c0.ksf
out_dir = {work}/fit_memory
[grid]
dim = 3
cells = {cells}
extent = 1.0 1.0 1.0
topology = neumann_box
[solver]
chi = {chi}
cfl_safety = {cfl}
[blowup]
fit = true
"""


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _measure(call, setup=lambda: None) -> dict:
    """Median µs and minor faults per call of call(setup()); setup is
    neither timed nor counted."""
    for _ in range(WARMUP):
        call(setup())
    times, faults = [], 0
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        arg = setup()
        faults0 = _faults()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
        faults += _faults() - faults0
    return {"median_us": round(statistics.median(times) * 1e6, 1),
            "minor_faults_per_call": round(faults / len(times), 1),
            "calls": len(times)}


def smooth_state(cells, topology="neumann_box"):
    """A smooth (n, c) on a fresh unit grid: an n bump on 1, c = 5 + cos(pi x)."""
    import numpy as np

    from kslab import Field, GridSpec, State, make_grid

    dim = len(cells)
    grid = make_grid(GridSpec(dim, cells, (1.0,) * dim, topology))
    xs = grid.meshes()
    r2 = sum((x - 0.4 - 0.1 * a) ** 2 for a, x in enumerate(xs))
    return State(Field(grid, 1.0 + 8.0 * np.exp(-r2 / 0.02)),
                 Field(grid, 5.0 + np.cos(np.pi * xs[0])), 0.0)


def stress_run(state) -> None:
    """run_memory's run: MEMORY_STEPS steps, evaluate and lp_norm(n, 1.6)
    every RUN_SAMPLE_EVERY steps (on the sink thread from 32^3 cells)."""
    from kslab.diagnostics import evaluate
    from kslab.grid import lp_norm
    from kslab.solver import SolverConfig, StopRule, run

    config = SolverConfig(chi=10.0, cfl_safety=0.3)

    def on_sample(st, _k):
        evaluate(st, (1.0, 1.0, 1.0), config.chi, 2.0)
        lp_norm(st.n, 1.6)

    result = run(state, config, StopRule(t_end=math.inf, max_steps=MEMORY_STEPS),
                 on_sample=on_sample, sample_every=RUN_SAMPLE_EVERY)
    if result.steps != MEMORY_STEPS:
        raise RuntimeError(f"run_memory stopped after {result.steps} steps: "
                           f"{result.stop_reason}")


# run in a child process: argv is src, this file's directory, cells; prints
# one JSON line: the minor faults of stress_run on a fresh box, and the
# child's peak RSS, VmHWM (Linux; ru_maxrss would carry over the forking
# parent's peak)
MEMORY_CHILD = """
import json, resource, sys
sys.path[:0] = sys.argv[1:3]
import layers
state = layers.smooth_state(tuple(map(int, sys.argv[3:])))
faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
layers.stress_run(state)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
with open("/proc/self/status", encoding="utf-8") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"faults": faults, "vmhwm_kb": hwm_kb}))
"""


def sweep(work: Path, src: Path) -> dict:
    from kslab import GridSpec, State, make_grid, read_snapshot, write_snapshot
    from kslab.diagnostics import DiagnosticsWriter, evaluate, read_diagnostics_csv
    from kslab.harness import load_config, run_scenario
    from kslab.manufactured import ManufacturedPair, mms_sources
    from kslab.solver import IMEX, SolverConfig, StopRule, choose_dt, run, step

    config = SolverConfig(chi=10.0, cfl_safety=0.3)
    imex = SolverConfig(chi=10.0, cfl_safety=0.3, scheme=IMEX)

    def run_sampled(state):
        result = run(state, config, StopRule(t_end=math.inf, max_steps=RUN_STEPS),
                     on_sample=lambda st, _k: evaluate(st, (1.0, 1.0, 1.0),
                                                       config.chi, 2.0),
                     sample_every=RUN_SAMPLE_EVERY)
        if result.steps != RUN_STEPS:
            raise RuntimeError(f"run_sampled stopped after {result.steps} steps: "
                               f"{result.stop_reason}")

    def fit_memory(state) -> dict:
        write_snapshot(state.n, 0.0, work / "n0.ksf")
        write_snapshot(state.c, 0.0, work / "c0.ksf")
        ini = work / "fit_memory.ini"
        ini.write_text(FIT_MEMORY_INI.format(
            steps=RUN_STEPS, every=RUN_SAMPLE_EVERY, work=work, chi=config.chi,
            cfl=config.cfl_safety, cells=" ".join(map(str, state.grid.shape))))
        cfg = load_config(ini)
        tracemalloc.start()
        try:
            _code, summary = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if summary["run"]["steps"] != RUN_STEPS:
            raise RuntimeError(f"fit_memory stopped after {summary['run']['steps']} "
                               f"steps: {summary['run']['stop_reason']}")
        return {"tracemalloc_peak_mb": round(peak / 2**20, 2),
                "samples": summary["metadata"]["samples"],
                "classification": summary["blowup"]["classification"]}

    def evaluate_memory(cells) -> dict:
        state = smooth_state(cells)  # a fresh grid: no scratch yet
        tracemalloc.start()
        try:
            evaluate(state, (1.0, 1.0, 1.0), config.chi, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"tracemalloc_peak_mb": round(peak / 2**20, 2),
                "grid_arrays": round(peak / state.n.values.nbytes, 2)}

    def run_memory(cells) -> dict:
        state = smooth_state(cells)  # a fresh grid: no scratch yet
        tracemalloc.start()
        try:
            stress_run(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        proc = subprocess.run(
            [sys.executable, "-c", MEMORY_CHILD, str(src), str(Path(__file__).parent),
             *map(str, cells)], check=True, capture_output=True, text=True)
        child = json.loads(proc.stdout.splitlines()[-1])
        return {"tracemalloc_peak_mb": round(peak / 2**20, 2),
                "grid_arrays": round(peak / state.n.values.nbytes, 2),
                "minor_faults_per_step": round(child["faults"] / MEMORY_STEPS, 1),
                "vmhwm_mb": round(child["vmhwm_kb"] / 1024, 2)}

    out = {}
    for cells in GRIDS:
        dim = len(cells)
        state = smooth_state(cells)
        n, c = state.n, state.c
        dt = choose_dt(state, config)  # caches c's face gradient, as run() does
        torus = smooth_state(cells, "periodic_torus")
        dt_torus = choose_dt(torus, imex)  # c jumps at the wrap: a dt of its own
        row = out["x".join(map(str, cells))] = {
            # on a fresh state, so that c's face gradient is built each call
            "choose_dt": _measure(lambda st: choose_dt(st, config),
                                  lambda: State(n, c, 0.0)),
            "step": _measure(lambda _: step(state, dt, config)),
            "step_imex": _measure(lambda _: step(state, dt, imex)),
            "step_imex_torus": _measure(lambda _: step(torus, dt_torus, imex)),
            "evaluate": _measure(lambda _: evaluate(state, (1.0, 1.0, 1.0),
                                                    config.chi, 2.0)),
            "write_snapshot": _measure(lambda _: write_snapshot(n, 0.0, work / "n.ksf")),
            "read_snapshot": _measure(lambda _: read_snapshot(work / "n.ksf")),
        }
        if dim == 3:
            row["run_sampled"] = _measure(lambda _: run_sampled(state))
            row["fit_memory"] = fit_memory(state)
        topology = "neumann_box" if dim == 3 else "periodic_torus"
        try:
            sources = mms_sources(ManufacturedPair(
                make_grid(GridSpec(dim, cells, (1.0,) * dim, topology)), config.chi))
        except ValueError as exc:
            row["source_n"] = row["source_c"] = {"unsupported": str(exc)}
            continue
        for name, source in zip(("source_n", "source_c"), sources):
            row[name] = _measure(lambda _: source(0.01))

    record = evaluate(state, (1.0, 1.0, 1.0), config.chi, 2.0)
    csv = work / "diagnostics.csv"
    with DiagnosticsWriter(csv) as writer:
        out["csv"] = {"csv_write": _measure(lambda _: writer.write(record))}
    with DiagnosticsWriter(csv) as writer:
        for k in range(CSV_ROWS):  # t must increase, or the reader rejects the table
            writer.write(dataclasses.replace(record, t=record.t + k))
    out["csv"]["csv_read"] = _measure(lambda _: read_diagnostics_csv(csv))
    out["evaluate_memory"] = {"x".join(map(str, cells)): evaluate_memory(cells)
                              for cells in ((32, 32, 32), (64, 64, 64))}
    out["run_memory"] = {"x".join(map(str, cells)): run_memory(cells)
                         for cells in ((32, 32, 32), (64, 64, 64))}
    return out


# run in a child process: argv is src, config, out_dir; prints one JSON line
CONFIG_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from kslab.cli import main
t0 = time.perf_counter()
code = main(["run", "--config", sys.argv[2], "--out-dir", sys.argv[3]])
wall = time.perf_counter() - t0
with open(sys.argv[3] + "/summary.json", encoding="utf-8") as fh:
    steps = json.load(fh)["run"].get("steps")
print(json.dumps({"wall_s": wall, "exit": code, "steps": steps}))
"""


def config_sweep(src: Path, work: Path) -> dict:
    """Wall time, exit code and step count of every sample config."""
    out = {}
    for ini in sorted((src.parent / "configs").glob("*.ini")):
        runs = []
        for k in range(CONFIG_RUNS):
            proc = subprocess.run(
                [sys.executable, "-c", CONFIG_CHILD, str(src), str(ini),
                 str(work / f"{ini.stem}-{k}")],
                check=True, capture_output=True, text=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        walls = [run["wall_s"] for run in runs]
        out[ini.stem] = {"median_s": round(statistics.median(walls), 3),
                         "wall_s": [round(w, 3) for w in walls],
                         "exit": runs[0]["exit"], "steps": runs[0]["steps"]}
    return out


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--configs", action="store_true",
                        help="time the sample configs instead of the layers")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as work:
        if args.configs:
            results = {"configs": config_sweep(src, Path(work))}
        else:
            results = sweep(Path(work), src)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = _machine()
    doc.setdefault("columns", {}).setdefault(args.label, {}).update(results)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    if args.configs:
        for name, m in results["configs"].items():
            print(f"{name}: {m['median_s']} s, {m['steps']} steps, exit {m['exit']}")
        return 0
    for grid, layers in results.items():
        print(grid, " ".join(
            f"{name}={m['median_us']}us/{m['minor_faults_per_call']}f"
            if "median_us" in m else f"{name}={m['tracemalloc_peak_mb']}MB"
            if "tracemalloc_peak_mb" in m else f"{name}=unsupported"
            for name, m in layers.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
