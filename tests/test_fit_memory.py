"""A fitted run's memory does not grow with its sample count.

Each sampled n goes to an unlinked spill file, and the nondegeneracy map is
folded from it one field at a time, only when the rate fit succeeds.  These
tests pin the map's bytes on a run whose fit succeeds, the memory of a
fitted run at two run lengths and of the fold, and the exit code of a
spill that cannot be created or written.
"""

import gc
import json
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest

import kslab.harness
from kslab import Field, GridSpec, load_config, make_grid, run_scenario, write_snapshot
from kslab import solver
from kslab.blowup import nondegeneracy_map
from kslab.cli import main as cli_main
from kslab.harness import EXIT_DIVERGENCE, EXIT_IO, EXIT_OK

FOCUS_CELLS = 12
_TEMPORARY_FILE = tempfile.TemporaryFile


@pytest.fixture(params=["sink_thread", "caller_thread"])
def sink_thread(request, monkeypatch):
    """Sample the test's small grids on run's sink thread, or as they are."""
    if request.param == "sink_thread":
        monkeypatch.setattr(solver, "_SINK_THREAD_CELLS", 0)
    return request.param == "sink_thread"


def _focusing_config(tmp_path):
    """n0 = 1 and a narrow c0 bump on a 12^3 box, chi = 30, sampled every
    step: sup n crosses 20 after 43 steps (exit 2), and the rate fit returns
    "ok" (type_II), so a nondegeneracy map is written.  That verdict is one of
    the rate fit's false positives (sup n only focuses, then relaxes, at
    16^3 and 24^3); when the fit learns to decline it, swap in an input
    whose fit still succeeds."""
    grid = make_grid(GridSpec(3, (FOCUS_CELLS,) * 3, (1.0,) * 3, "neumann_box"))
    r2 = sum((x - 0.5) ** 2 for x in grid.meshes())
    write_snapshot(Field(grid, np.ones(grid.shape)), 0.0, tmp_path / "n0.ksf")
    write_snapshot(Field(grid, 1.0 + 9.0 * np.exp(-r2 / 0.01)), 0.0, tmp_path / "c0.ksf")
    path = tmp_path / "focus.ini"
    path.write_text(
        "[run]\nscenario = custom\nsample_every = 1\n"
        f"n0_snapshot = {tmp_path / 'n0.ksf'}\nc0_snapshot = {tmp_path / 'c0.ksf'}\n"
        f"out_dir = {tmp_path / 'run'}\n"
        f"[grid]\ndim = 3\ncells = {FOCUS_CELLS} {FOCUS_CELLS} {FOCUS_CELLS}\n"
        "extent = 1.0 1.0 1.0\ntopology = neumann_box\n"
        "[solver]\nchi = 30.0\nblowup_sup_threshold = 20.0\n"
        "[blowup]\nfit = true\n")
    return load_config(path)


def test_focusing_run_writes_the_map_of_its_sampled_fields(tmp_path, monkeypatch):
    """nondegeneracy.ksf equals, byte for byte, the map of the run's sampled
    n fields kept in memory here; the spill leaves no file behind."""
    real_run = kslab.harness.run
    kept = []

    def keeping_run(state0, config, stop, *, on_sample, **kwargs):
        def sample(state, k):
            kept.append((state.t, state.n))
            on_sample(state, k)
        return real_run(state0, config, stop, on_sample=sample, **kwargs)

    monkeypatch.setattr(kslab.harness, "run", keeping_run)
    cfg = _focusing_config(tmp_path)
    code, summary = run_scenario(cfg)
    assert code == EXIT_DIVERGENCE
    assert summary["run"]["stop_reason"] == "blowup_threshold"
    assert summary["blowup"]["classification"] != "no_blowup"
    assert len(kept) == summary["metadata"]["samples"] == summary["run"]["steps"] + 1

    out = tmp_path / "run"
    report = json.loads((out / "blowup_report.json").read_text())
    expected = nondegeneracy_map(kept, report["t_star"])
    write_snapshot(expected, report["t_star"], tmp_path / "expected.ksf")
    assert (out / "nondegeneracy.ksf").read_bytes() == (tmp_path / "expected.ksf").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [
        "blowup_report.json", "c_final.ksf", "config_echo.ini", "criteria.csv",
        "diagnostics.csv", "n_final.ksf", "nondegeneracy.ksf", "snapshots",
        "summary.json"]


def _traced_peak(call) -> int:
    """Peak traced memory of call().  A full collection clears the
    interpreter's free lists, which the call then refills with traced
    allocations, so every call starts right after one and runs without."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_fitted_run_memory_does_not_grow_with_its_samples(tmp_path):
    """The stress_3d preset at 8^3, fitted and sampled every step, for N and
    2N steps: the traced peaks differ by less than two grid arrays, where
    keeping every sampled n would add N of them."""
    path = tmp_path / "stress.ini"
    path.write_text("[run]\nscenario = stress_3d\nsample_every = 1\n"
                    "[blowup]\nfit = true\n")

    def fitted_run(steps):
        cfg = load_config(path, overrides=[f"run.max_steps={steps}",
                                           f"run.out_dir={tmp_path / str(steps)}"])
        assert cfg.fit and cfg.grid.cells == (8, 8, 8)
        return lambda: run_scenario(cfg)

    grid_bytes = 8 ** 3 * 8
    fitted_run(4)()  # first-run allocations (grid scratch, imports) out of the way
    steps = 16
    short, long = (_traced_peak(fitted_run(k)) for k in (steps, 2 * steps))
    assert abs(long - short) < 2 * grid_bytes, (short, long)


def test_fit_holds_the_map_and_two_grid_arrays(tmp_path, monkeypatch):
    """The focusing run's fit, its map folded from the spill included,
    allocates less than four grid arrays at its peak: the map, the field
    read back and its scaled copy, not one array per sample."""
    real_fit = kslab.harness._fit_blowup
    peaks = []

    def measured_fit(*args):
        peaks.append(_traced_peak(lambda: real_fit(*args)))

    monkeypatch.setattr(kslab.harness, "_fit_blowup", measured_fit)
    run_scenario(_focusing_config(tmp_path))
    assert (tmp_path / "run" / "nondegeneracy.ksf").exists()
    grid_bytes = FOCUS_CELLS ** 3 * 8
    assert len(peaks) == 1
    assert peaks[0] < 4 * grid_bytes, peaks


class _FailingSpill:
    """A spill file whose fail_at-th write raises OSError; it records the
    threads that write to it."""

    def __init__(self, fail_at, **kwargs):
        self.file = _TEMPORARY_FILE(**kwargs)
        self.fail_at = fail_at
        self.writes = 0
        self.writers = set()

    def write(self, data):
        self.writes += 1
        self.writers.add(threading.get_ident())
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


class _CutSpill(_FailingSpill):
    """A spill file that loses its last byte before it is read back."""

    def seek(self, offset):
        self.file.truncate(self.file.seek(0, 2) - 1)
        return self.file.seek(offset)


@pytest.mark.parametrize("fail_at", [0, 1, 5])
def test_spill_failure_exits_4_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                   sink_thread, fail_at):
    """A spill that cannot be created (fail_at = 0), or whose fail_at-th
    write fails, ends the run with exit 4 and "i/o error"; the spill is
    closed and the sink thread is joined."""
    spills = []

    def temporary_file(**kwargs):
        if fail_at == 0:
            raise OSError(24, "Too many open files")
        spills.append(_FailingSpill(fail_at, **kwargs))
        return spills[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    path = tmp_path / "stress.ini"
    path.write_text("[run]\nscenario = stress_3d\nsample_every = 1\n")
    threads = set(threading.enumerate())
    code = cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                     "--max-steps", "12"])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith("i/o error:") and "Traceback" not in err
    assert set(threading.enumerate()) == threads
    assert len(spills) == (fail_at > 0)
    for spill in spills:
        assert spill.writes == fail_at and spill.file.closed
        assert (threading.get_ident() in spill.writers) != sink_thread


def test_unfitted_run_creates_no_spill(tmp_path, monkeypatch):
    def temporary_file(**kwargs):
        raise AssertionError("an unfitted run made a spill file")

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    path = tmp_path / "stress.ini"
    path.write_text("[run]\nscenario = stress_3d\nsample_every = 1\n"
                    "[blowup]\nfit = false\n")
    code = cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                     "--max-steps", "12"])
    assert code == EXIT_OK
    assert not (tmp_path / "out" / "blowup_report.json").exists()


def test_truncated_spill_exits_4(tmp_path, monkeypatch, capsys):
    """A spill that reads back short ends the fitted run with exit 4."""
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kwargs: _CutSpill(None, **kwargs))
    _focusing_config(tmp_path)
    assert cli_main(["run", "--config", str(tmp_path / "focus.ini")]) == EXIT_IO
    assert capsys.readouterr().err == "i/o error: the sample spill file is truncated\n"
    assert not (tmp_path / "run" / "nondegeneracy.ksf").exists()
