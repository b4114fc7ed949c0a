"""kslab benchmark: time to a verified solution, plus an outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--max-steps N] [--override section.key=value ...]
                             [--record-reference]

Run from the root of a kslab checkout.  Each workload run is a ``kslab run``
child process (``perfbench/child.py`` calling ``kslab.cli.main`` on the
checkout's ``src/``), started one at a time with BLAS/OpenMP threads pinned
to 1.  Every run passes a correctness gate (exit code 0, ``summary.pass``,
expected artifacts present) and its artifacts are hashed.

``--trace 0`` spends ``--seconds`` on set-up probes and full runs, and
reports the end-to-end metrics as medians: ``wall_s`` (spawn to exit,
post-processing included), ``setup_s`` (spawn to the first call into
``solver.run``) and ``peak_rss_mb`` (the child's max RSS from ``wait4``).
``--trace 1`` makes one untraced and one traced run and reports the
per-layer metrics of the traced one.  Every metric line names its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (why each exists is in ``WORKLOADS``):
  eq2d_small      equilibrium_2d preset, 16^2 torus to T = 50 (56,889 steps)
  mms_ladder      mms scenario on a 16/32/64 ladder plus forced-dt runs
  stress3d_dense  stress_3d settings on a seeded 32^3 Neumann box, sampled
                  every 5 steps, fit on, followed by ``kslab report``

Artifact hashes are compared with ``perfbench/reference.json``; a mismatch
is flagged but is not a failure.  Runs of one workload in one invocation,
traced or not, must hash identically, or the result is not correct.
``--record-reference`` stores this invocation's hashes as the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
INVOCATION_LIMIT_S = 170.0   # children still running then are killed
SETUP_PROBES = 12

FIELD_ARTIFACTS = ("diagnostics.csv", "criteria.csv", "n_final.ksf",
                   "c_final.ksf", "summary.json")
MMS_ARTIFACTS = ("mms_errors.csv", "summary.json")

# stress3d_dense draws its initial n bump from the seed within these ranges
STRESS_CELLS = 32
STRESS_CENTER = (0.25, 0.75)     # each coordinate, in the middle half of the box
STRESS_AMPLITUDE = (6.0, 12.0)   # n0 = 1 + A exp(-|x - x0|^2 / w)
STRESS_WIDTH = (0.01, 0.03)      # w
STRESS_C0 = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    artifacts: tuple[str, ...]
    report: bool = False     # follow the run with `kslab report` on its directory
    seeded: bool = False     # initial data drawn from --seed


WORKLOADS = {w.name: w for w in (
    Workload(
        "eq2d_small",
        "16^2 torus to T=50: per-call interpreter overhead in the step loop; "
        "bypasses diagnostics, I/O and manufactured sources",
        "[run]\nscenario = equilibrium_2d\nout_dir = out\n",
        FIELD_ARTIFACTS),
    Workload(
        "mms_ladder",
        "manufactured-solution ladder 16/32/64: the only workload that "
        "evaluates manufactured sources; never calls evaluate or writes a CSV",
        "[run]\nscenario = mms\nout_dir = out\n[grid]\ncells = 16 16\n",
        MMS_ARTIFACTS),
    Workload(
        "stress3d_dense",
        "32^3 Neumann box sampled every 5 steps: array-bound step and "
        "evaluate, KSF1 writes and reads, blow-up fit and offline report",
        "[run]\nscenario = custom\nt_end = 0.05\nsample_every = 5\n"
        "snapshot_every = 50\nout_dir = out\nn0_snapshot = n0.ksf\n"
        "c0_snapshot = c0.ksf\n"
        f"[grid]\ndim = 3\ncells = {STRESS_CELLS} {STRESS_CELLS} {STRESS_CELLS}\n"
        "extent = 1.0 1.0 1.0\ntopology = neumann_box\n"
        "[solver]\nchi = 10.0\ncfl_safety = 0.3\nblowup_sup_threshold = 200.0\n"
        "[blowup]\nfit = true\n",
        FIELD_ARTIFACTS, report=True, seeded=True),
)}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit): layer metrics of the traced run, all from outside src/
PER_LAYER = (
    ("solver.step.calls", "count"), ("solver.step.self_s", "s"),
    ("solver.step.p50_us", "us"), ("solver.step.p99_us", "us"),
    ("solver.cell_updates_per_s", "1/s"), ("solver.run.self_s", "s"),
    ("operators.chemotactic_flux.calls", "count"),
    ("operators.chemotactic_flux.self_s", "s"),
    ("harness.source_n.self_s", "s"), ("harness.source_c.self_s", "s"),
    ("harness.source.calls", "count"),
    ("diagnostics.evaluate.calls", "count"), ("diagnostics.evaluate.self_s", "s"),
    ("diagnostics.evaluate.p50_us", "us"), ("diagnostics.csv_write.self_s", "s"),
    ("grid.write_snapshot.calls", "count"), ("grid.write_snapshot.self_s", "s"),
    ("grid.write_snapshot.bytes", "B"), ("grid.read_snapshot.self_s", "s"),
    ("grid.lp_norm.self_s", "s"), ("blowup.fit_rate.self_s", "s"),
    ("harness.regenerate_summary.self_s", "s"),
    ("harness.load_config.self_s", "s"), ("grid.fill.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here: the checkout has no kslab source."""


# --- inputs -------------------------------------------------------------------


def stress_inputs(seed: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """Seeded initial data for stress3d_dense: a Gaussian n bump, constant c."""
    rng = random.Random(seed)
    center = tuple(rng.uniform(*STRESS_CENTER) for _ in range(3))
    amplitude = rng.uniform(*STRESS_AMPLITUDE)
    width = rng.uniform(*STRESS_WIDTH)
    x = (np.arange(STRESS_CELLS) + 0.5) / STRESS_CELLS
    mesh = np.meshgrid(x, x, x, indexing="ij")
    r2 = sum((m - c0) ** 2 for m, c0 in zip(mesh, center))
    n0 = 1.0 + amplitude * np.exp(-r2 / width)
    c0 = np.full(n0.shape, STRESS_C0)
    params = {"center": center, "amplitude": amplitude, "width": width}
    return params, n0, c0


def write_ksf1(path: Path, values: np.ndarray) -> None:
    """KSF1 on the unit Neumann box at t = 0 (format in the kslab README)."""
    dim = values.ndim
    header = (b"KSF1" + struct.pack("<I", dim) + struct.pack(f"<{dim}I", *values.shape)
              + struct.pack(f"<{dim}d", *([1.0] * dim)) + struct.pack("<d", 0.0)
              + struct.pack("<B", 0))
    path.write_bytes(header + np.ascontiguousarray(values, dtype="<f8").tobytes())


def prepare(workload: Workload, rundir: Path, seed: int) -> None:
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    (rundir / "bench.ini").write_text(workload.config, encoding="utf-8")
    if workload.seeded:
        _params, n0, c0 = stress_inputs(seed)
        write_ksf1(rundir / "n0.ksf", n0)
        write_ksf1(rundir / "c0.ksf", c0)


# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    setup_s: float | None
    record: Path


class Launcher:
    """Starts children one at a time, threads pinned, before a common deadline."""

    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def spawn(self, rundir: Path, tag: str, kslab_args: list[str], trace: bool,
              setup_only: bool = False) -> Child:
        """Start one child, wait for it with wait4, and time it from outside."""
        record = rundir / f"{tag}.npz"
        argv = [sys.executable, str(BENCH / "child.py"), "--record", str(record)]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        argv += ["--", *kslab_args]
        with open(rundir / f"{tag}.log", "wb") as log:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(argv, cwd=rundir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup_s = None
        if record.exists():
            with np.load(record) as data:
                first = int(data["first_run_ns"])
            if first > 0:
                setup_s = (first - t0) / 1e9
        return Child(proc.returncode, (t1 - t0) / 1e9, usage.ru_maxrss / 1024.0,
                     setup_s, record)


@dataclass
class Run:
    children: list[Child]
    failures: list[str]
    hashes: dict[str, str]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)

    @property
    def setup_s(self) -> float | None:
        return self.children[0].setup_s


def run_workload(launcher: Launcher, workload: Workload, rundir: Path, seed: int,
                 trace: bool, extra: list[str]) -> Run:
    """One gated run: `kslab run`, then `kslab report` where the workload has it."""
    prepare(workload, rundir, seed)
    children = [launcher.spawn(rundir, "run", ["run", "--config", "bench.ini", *extra],
                               trace)]
    if workload.report and children[0].code == 0:
        children.append(launcher.spawn(rundir, "report", ["report", "--run", "out"], trace))
    failures = [f"{c.record.stem} exited {c.code}" for c in children if c.code != 0]
    out = rundir / "out"
    missing = [a for a in workload.artifacts if not (out / a).is_file()]
    if missing:
        failures.append("missing " + ", ".join(missing))
    if "summary.json" not in missing:
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        except ValueError:
            summary = {}
        if summary.get("pass") is not True:
            failures.append("summary.pass is not true")
    hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
              for a in workload.artifacts if a not in missing}
    return Run(children, failures, hashes)


def probe_setup(launcher: Launcher, workload: Workload, rundir: Path, seed: int,
                extra: list[str]) -> Child:
    """A run cut at its first call into solver.run: set-up time only."""
    prepare(workload, rundir, seed)
    return launcher.spawn(rundir, "probe", ["run", "--config", "bench.ini", *extra],
                          trace=False, setup_only=True)


# --- layer statistics ------------------------------------------------------------


def layer_stats(records: list[Path]) -> tuple[dict, dict]:
    """Per span name: calls, total and self ns, durations; plus the counters."""
    stats: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for path in records:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            spans = data["spans"]
            for name, value in zip(data["counter_names"], data["counter_values"]):
                counters[str(name)] = counters.get(str(name), 0) + int(value)
        if spans.size == 0:
            continue
        dur = spans[:, 2] - spans[:, 1]
        child_ns = np.zeros(len(spans), dtype=np.int64)
        parents = spans[:, 3]
        nested = parents >= 0
        np.add.at(child_ns, parents[nested], dur[nested])
        self_ns = dur - child_ns
        for nid, name in enumerate(names):
            mask = spans[:, 0] == nid
            entry = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                            "durations": []})
            entry["calls"] += int(mask.sum())
            entry["total_ns"] += int(dur[mask].sum())
            entry["self_ns"] += int(self_ns[mask].sum())
            entry["durations"].append(dur[mask])
    for entry in stats.values():
        entry["durations"] = np.concatenate(entry["durations"])
    return stats, counters


def per_layer_metrics(stats: dict, counters: dict, overhead: float) -> dict:
    def get(name):
        return stats.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                "durations": np.zeros(0)})

    def self_s(name):
        return get(name)["self_ns"] / 1e9

    def pct_us(name, q):
        d = get(name)["durations"]
        return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

    step = get("solver.step")
    values = {
        "solver.step.calls": step["calls"],
        "solver.step.self_s": self_s("solver.step"),
        "solver.step.p50_us": pct_us("solver.step", 50),
        "solver.step.p99_us": pct_us("solver.step", 99),
        "solver.cell_updates_per_s": (counters.get("solver.step.cells", 0)
                                      / (step["total_ns"] / 1e9)
                                      if step["total_ns"] else 0.0),
        "solver.run.self_s": self_s("solver.run"),
        "operators.chemotactic_flux.calls": get("operators.chemotactic_flux")["calls"],
        "operators.chemotactic_flux.self_s": self_s("operators.chemotactic_flux"),
        "harness.source_n.self_s": self_s("harness.source_n"),
        "harness.source_c.self_s": self_s("harness.source_c"),
        "harness.source.calls": (get("harness.source_n")["calls"]
                                 + get("harness.source_c")["calls"]),
        "diagnostics.evaluate.calls": get("diagnostics.evaluate")["calls"],
        "diagnostics.evaluate.self_s": self_s("diagnostics.evaluate"),
        "diagnostics.evaluate.p50_us": pct_us("diagnostics.evaluate", 50),
        "diagnostics.csv_write.self_s": self_s("diagnostics.csv_write"),
        "grid.write_snapshot.calls": get("grid.write_snapshot")["calls"],
        "grid.write_snapshot.self_s": self_s("grid.write_snapshot"),
        "grid.write_snapshot.bytes": counters.get("grid.write_snapshot.bytes", 0),
        "grid.read_snapshot.self_s": self_s("grid.read_snapshot"),
        "grid.lp_norm.self_s": self_s("grid.lp_norm"),
        "blowup.fit_rate.self_s": self_s("blowup.fit_rate"),
        "harness.regenerate_summary.self_s": self_s("harness.regenerate_summary"),
        "harness.load_config.self_s": self_s("harness.load_config"),
        "grid.fill.self_s": self_s("grid.fill"),
        "trace.overhead_ratio": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# --- reporting ------------------------------------------------------------------


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu": platform.processor() or "unknown",
           "python": platform.python_version(), "numpy": np.__version__,
           "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1, one child at a time",
           "hashseed": 0}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches.append(f"L{level}{suffix}={size}")
    env["caches"] = " ".join(caches) or "unknown"
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def reference_key(workload: Workload, seed: int) -> str:
    return str(seed) if workload.seeded else "any"


def fingerprint_line(workload: Workload, seed: int, hashes: dict) -> str:
    key = reference_key(workload, seed)
    expected = load_reference().get(workload.name, {}).get(key)
    if expected is None:
        return f"fingerprint: no reference for {workload.name} seed key {key}"
    differ = sorted(a for a in set(expected) | set(hashes)
                    if expected.get(a) != hashes.get(a))
    if not differ:
        return f"fingerprint: match ({len(hashes)} artifacts)"
    return ("fingerprint: MISMATCH in " + ", ".join(differ)
            + " (flagged, not a failure)")


def record_reference(workload: Workload, seed: int, hashes: dict) -> None:
    reference = load_reference()
    reference.setdefault(workload.name, {})[reference_key(workload, seed)] = hashes
    ordered = {name: dict(sorted(entries.items(),
                                 key=lambda kv: (len(kv[0]), kv[0])))
               for name, entries in sorted(reference.items())}
    REFERENCE.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")


def describe(tag: str, run: Run) -> str:
    setup = f"{run.setup_s:.4f}" if run.setup_s is not None else "n/a"
    verdict = "ok" if not run.failures else "FAILED: " + "; ".join(run.failures)
    return (f"{tag}: wall_s={run.wall_s:.4f} setup_s={setup} "
            f"peak_rss_mb={run.rss_mb:.2f} {verdict}")


# --- the two modes ----------------------------------------------------------------


def measure(launcher: Launcher, workload: Workload, args, extra: list[str],
            root: Path) -> tuple[dict, list[Run], int]:
    """--trace 0: full runs until --seconds is spent, set-up probes spread among them.

    The machine's speed drifts over seconds, so the probes are spread over
    the whole measurement rather than taken in one burst.
    """
    start = time.monotonic()
    deadline = start + args.seconds
    setups: list[float] = []
    probes: list[Child] = []

    def probe_until(count: int) -> None:
        while len(probes) < count:
            probe = probe_setup(launcher, workload, root / f"probe{len(probes)}",
                                args.seed, extra)
            probes.append(probe)
            if probe.code == 0 and probe.setup_s is not None:
                setups.append(probe.setup_s)
                print(f"probe {len(probes) - 1}: setup_s={probe.setup_s:.4f}")
            else:
                print(f"probe {len(probes) - 1}: FAILED (exit {probe.code})")

    runs: list[Run] = []
    while True:
        share = (time.monotonic() - start) / args.seconds
        probe_until(min(SETUP_PROBES, max(1, math.ceil(SETUP_PROBES * share))))
        run = run_workload(launcher, workload, root / f"rep{len(runs)}", args.seed,
                           False, extra)
        runs.append(run)
        print(describe(f"run {len(runs) - 1}", run))
        if run.setup_s is not None:
            setups.append(run.setup_s)
        probes_left = (SETUP_PROBES - len(probes)) * statistics.median(p.wall_s for p in probes)
        if time.monotonic() + statistics.median(r.wall_s for r in runs) + probes_left > deadline:
            break
    probe_until(SETUP_PROBES)
    probe_failures = sum(1 for p in probes if p.code != 0 or p.setup_s is None)
    ok = [r for r in runs if not r.failures] or runs
    series = {"wall_s": [r.wall_s for r in ok], "setup_s": setups or [math.nan],
              "peak_rss_mb": [r.rss_mb for r in ok]}
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    metrics = {}
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles(series[name])
        print(f"{name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(series[name]):>4}  {unit}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics, runs, probe_failures


def trace(launcher: Launcher, workload: Workload, args, extra: list[str],
          root: Path) -> tuple[dict, list[Run]]:
    """--trace 1: one untraced and one traced run; layer metrics of the traced one."""
    plain = run_workload(launcher, workload, root / "plain", args.seed, False, extra)
    print(describe("untraced run", plain))
    traced = run_workload(launcher, workload, root / "traced", args.seed, True, extra)
    print(describe("traced run", traced))
    overhead = traced.wall_s / plain.wall_s - 1.0
    stats, counters = layer_stats([c.record for c in traced.children])
    metrics = per_layer_metrics(stats, counters, overhead)
    print(f"{'layer span':<30}{'calls':>9}{'self_s':>11}{'share':>8}")
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self_ns"]):
        share = entry["self_ns"] / 1e9 / traced.wall_s
        print(f"{name:<30}{entry['calls']:>9}{entry['self_ns'] / 1e9:>11.4f}{share:>8.1%}")
    print(f"(share = self time over the traced wall_s of {traced.wall_s:.4f} s; "
          "the rest is interpreter start and imports)")
    for name, unit in PER_LAYER:
        print(f"{name:<36}{metrics[name]['value']:>16.6g}  {unit}")
    return metrics, [plain, traced]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-steps", type=int,
                        help="step budget for each kslab run (smoke runs)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="section.key=value",
                        help="extra kslab override for each run (failure injection)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this invocation's artifact hashes as the reference")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    launcher = Launcher(INVOCATION_LIMIT_S)
    if not (ROOT / "src" / "kslab" / "__init__.py").is_file():
        raise BenchError(f"no kslab source under {ROOT / 'src'}; "
                         "run from the root of a kslab checkout")
    workload = WORKLOADS[args.workload]
    extra = [f"--override={o}" for o in args.override]
    if args.max_steps is not None:
        extra.append(f"--max-steps={args.max_steps}")

    env = environment()
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"why: {workload.why}")
    if workload.seeded:
        params, _n0, _c0 = stress_inputs(args.seed)
        print(f"seed {args.seed}: n0 bump center=({', '.join(f'{c:.4f}' for c in params['center'])}) "
              f"amplitude={params['amplitude']:.4f} width={params['width']:.5f}, "
              f"c0={STRESS_C0}; written as KSF1 and run as scenario=custom")
    else:
        print(f"seed {args.seed}: recorded; no effect on {workload.name}, whose "
              "closed-form data are the oracle its monitors check")

    root = WORK / f"{workload.name}.{os.getpid()}"
    probe_failures = 0
    try:
        if args.trace:
            metrics, runs = trace(launcher, workload, args, extra, root)
        else:
            metrics, runs, probe_failures = measure(launcher, workload, args, extra, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it

    failed_runs = sum(1 for r in runs if r.failures)
    attempted = len(runs) + (SETUP_PROBES if not args.trace else 0)
    failed = failed_runs + probe_failures
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f} "
          f"(full runs {failed_runs}/{len(runs)}, set-up probes "
          f"{probe_failures}/{attempted - len(runs)})")
    distinct = {json.dumps(r.hashes, sort_keys=True) for r in runs}
    reruns_agree = len(distinct) == 1
    print("reruns: " + ("identical artifacts across "
                         f"{len(runs)} run(s){' (traced included)' if args.trace else ''}"
                         if reruns_agree else "artifacts DIFFER between runs of one workload"))
    print(fingerprint_line(workload, args.seed, runs[0].hashes))
    if args.record_reference and reruns_agree and failed == 0:
        record_reference(workload, args.seed, runs[0].hashes)
        print(f"reference recorded in {REFERENCE.relative_to(ROOT)}")
    result = {"correct": failed == 0 and reruns_agree, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
