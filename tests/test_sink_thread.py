"""solver.run's sink thread: the sinks see what a serial loop would show
them, in the same order, on the sink thread and on run's own thread; a
failing sink stops the run with its own exception; only grids of at least
solver._SINK_THREAD_CELLS cells, and only runs with sinks, start a thread;
the grid's scratch is one block per thread; no state run reads keeps
c's face gradient."""

import concurrent.futures  # noqa: F401  (imported before the traced run)
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference_evaluate as ref
import reference_step
from kslab import (Field, GridSpec, SolverConfig, State, StopRule, make_grid,
                   run, write_snapshot)
from kslab import solver
from kslab.diagnostics import CSV_FIELDS, evaluate
from kslab.grid import lp_norm
from kslab.solver import choose_dt, step

KAPPAS = (1.0, 1.0, 1.0)
CHI = 10.0


def _bits(record) -> list[bytes]:
    return [np.float64(getattr(record, name)).tobytes() for name in CSV_FIELDS]


def _state_bits(state) -> tuple:
    return (state.n.values.tobytes(), state.c.values.tobytes(),
            np.float64(state.t).tobytes(), np.float64(state.n_max).tobytes())


def _box_state(cells=16):
    grid = make_grid(GridSpec(3, (cells,) * 3, (1.0, 1.0, 1.0), "neumann_box"))
    xs = grid.meshes()
    r2 = sum((x - 0.4 - 0.1 * a) ** 2 for a, x in enumerate(xs))
    return State(Field(grid, 1.0 + 8.0 * np.exp(-r2 / 0.02)),
                 Field(grid, 5.0 + np.cos(np.pi * xs[0])), 0.0)


@pytest.fixture(params=["sink_thread", "caller_thread"])
def sink_thread(request, monkeypatch):
    """Run the test's small grids on the sink thread, or as they are."""
    if request.param == "sink_thread":
        monkeypatch.setattr(solver, "_SINK_THREAD_CELLS", 0)
    return request.param == "sink_thread"


def _sinks(records, snap_dir):
    def on_sample(state, k):
        records.append((k, _bits(evaluate(state, KAPPAS, CHI, 2.0))))

    def on_snapshot(state, k):
        write_snapshot(state.n, state.t, snap_dir / f"n_{k:08d}.ksf")
        write_snapshot(state.c, state.t, snap_dir / f"c_{k:08d}.ksf")

    return on_sample, on_snapshot


def test_sampled_run_matches_a_serial_loop_bit_for_bit(tmp_path, sink_thread):
    """Records and KSF1 files of run equal those of choose_dt/step/evaluate
    called one after the other in this thread.  Step 20 is off the sampling
    cadence, so the closing sample is included."""
    steps, sample_every, snapshot_every = 20, 3, 4
    cfg = SolverConfig(chi=CHI, cfl_safety=0.3)
    (tmp_path / "run").mkdir()
    (tmp_path / "serial").mkdir()

    got = []
    on_sample, on_snapshot = _sinks(got, tmp_path / "run")
    result = run(_box_state(), cfg, StopRule(t_end=math.inf, max_steps=steps),
                 on_sample=on_sample, sample_every=sample_every,
                 on_snapshot=on_snapshot, snapshot_every=snapshot_every)
    assert result.steps == steps

    expected = []
    on_sample, on_snapshot = _sinks(expected, tmp_path / "serial")
    state = _box_state()
    on_sample(state, 0)
    for k in range(1, steps + 1):
        state = step(state, choose_dt(state, cfg), cfg)
        if k % sample_every == 0:
            on_sample(state, k)
        if k % snapshot_every == 0:
            on_snapshot(state, k)
    on_sample(state, steps)

    assert [k for k, _ in got] == [0, 3, 6, 9, 12, 15, 18, 20]
    assert got == expected
    assert _state_bits(result.state) == _state_bits(state)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert len(names) == 2 * (steps // snapshot_every)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
    for name in names:
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())


@pytest.mark.parametrize("fail_at", [1, 4])
def test_failing_sink_raises_its_own_exception_and_stops_the_sinks(fail_at, sink_thread):
    calls = []

    def on_sample(state, k):
        calls.append(k)
        if len(calls) == fail_at:
            raise OSError(f"sink failed at step {k}")

    threads = set(threading.enumerate())
    with pytest.raises(OSError, match="sink failed at step") as info:
        run(_box_state(cells=8), SolverConfig(chi=CHI, cfl_safety=0.3),
            StopRule(t_end=math.inf, max_steps=60),
            on_sample=on_sample, sample_every=2)
    assert str(info.value) == f"sink failed at step {2 * (fail_at - 1)}"
    assert calls == list(range(0, 2 * fail_at, 2))
    assert set(threading.enumerate()) == threads


def test_sink_thread_is_joined_after_a_run(tmp_path, sink_thread):
    threads = set(threading.enumerate())
    records = []
    on_sample, on_snapshot = _sinks(records, tmp_path)
    run(_box_state(cells=8), SolverConfig(chi=CHI), StopRule(t_end=math.inf, max_steps=5),
        on_sample=on_sample, on_snapshot=on_snapshot, snapshot_every=2)
    assert len(records) == 6
    assert set(threading.enumerate()) == threads


def test_run_without_sinks_starts_no_thread(monkeypatch, sink_thread):
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    result = run(_box_state(cells=8), SolverConfig(chi=CHI),
                 StopRule(t_end=math.inf, max_steps=4))
    assert result.steps == 4
    assert started == []


@pytest.mark.parametrize("cells, on_sink_thread", [(16, False), (32, True)])
def test_sinks_leave_the_callers_thread_only_on_large_grids(cells, on_sink_thread):
    """A 16^3 box samples on run's own thread; a 32^3 box, at the size
    limit, on one other thread for every call."""
    threads = []

    def record(state, k):
        threads.append(threading.get_ident())

    run(_box_state(cells=cells), SolverConfig(chi=CHI, cfl_safety=0.3),
        StopRule(t_end=math.inf, max_steps=2), on_sample=record,
        on_snapshot=record, snapshot_every=1)
    assert len(threads) == 5
    if on_sink_thread:
        assert len(set(threads)) == 1 and threads[0] != threading.get_ident()
    else:
        assert set(threads) == {threading.get_ident()}


def test_scratch_is_one_block_per_thread():
    grid = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "neumann_box"))
    mine = grid.scratch(3)
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(grid.scratch(3)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert not np.shares_memory(mine, theirs[0])
    assert np.shares_memory(grid.scratch(2), mine)


def test_evaluate_and_step_on_two_threads_match_the_references():
    """evaluate on a second thread, while this one steps on the same grid,
    with a short switch interval so the two interleave often."""
    cfg = SolverConfig(chi=CHI, cfl_safety=0.3)
    start = _box_state(cells=12)
    probes = [start]
    for _ in range(3):
        probes.append(step(probes[-1], choose_dt(probes[-1], cfg), cfg))
    wanted = [_bits(ref.evaluate(s, KAPPAS, CHI, 2.0)) for s in probes]
    rounds = 15
    results = []

    def evaluator():
        for _ in range(rounds):
            results.append([_bits(evaluate(s, KAPPAS, CHI, 2.0)) for s in probes])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=evaluator)
        worker.start()
        state, steps = start, 0
        while worker.is_alive() or steps < 10:
            dt = choose_dt(state, cfg)
            expected = reference_step.step(state, dt, cfg)
            state = step(state, dt, cfg)
            assert _state_bits(state) == _state_bits(expected)
            steps += 1
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert results == [wanted] * rounds


def test_run_drops_c_face_gradient_after_each_step():
    """On a fresh 32^3 box, stepped on the caller's thread and sampled on the
    sink thread, run leaves c's face gradient (3 grid arrays) on neither the
    start state nor a sampled state.  Held when run returns: step's 6
    scratch rows and the final n and c, 8 grid arrays, and 11 when the
    start state keeps its gradient.  The traced peak (about 25.5 grid
    arrays, 28.5-30.4 with the gradient kept) is not gated."""
    state = _box_state(cells=32)
    cfg = SolverConfig(chi=CHI, cfl_safety=0.3)
    cached = []

    def on_sample(st, _k):
        evaluate(st, KAPPAS, CHI, 2.0)
        lp_norm(st.n, 1.6)
        cached.append("c_face_gradient" in vars(st))

    tracemalloc.start()
    try:
        result = run(state, cfg, StopRule(t_end=math.inf, max_steps=40),
                     on_sample=on_sample, sample_every=5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.steps == 40
    assert cached == [False] * 9
    assert "c_face_gradient" not in vars(state)
    assert held < 9.5 * state.n.values.nbytes
