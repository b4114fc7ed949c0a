"""The names perfbench's tracer wraps stay where its callers look them up.

perfbench/child.py times layers by replacing functions in the namespace of
the module that calls them (``owner.__dict__[name]``), so each must stay a
module global there, and solver.run must reach step through that global.
The names are read from child.py's own LAYERS table.
"""

import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

import kslab.harness
import kslab.solver
from kslab import GridSpec, SolverConfig, State, StopRule, constant_field, make_grid


def _perfbench_child() -> types.ModuleType:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# namespace -> the names the tracer replaces there: LAYERS, and mms_sources,
# which child.py wraps on its own
TRACED: dict = {kslab.harness: ["mms_sources"]}
for _owner, _name, _span in _perfbench_child().LAYERS:
    TRACED.setdefault(_owner, []).append(_name)


def _namespace_id(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


@pytest.mark.parametrize("module", list(TRACED), ids=_namespace_id)
def test_traced_names_are_module_globals(module):
    for name in TRACED[module]:
        assert callable(module.__dict__.get(name)), f"{_namespace_id(module)}.{name}"


def test_run_calls_step_once_per_step_through_the_module_global(monkeypatch):
    real_step = kslab.solver.step
    cells = []

    def counting_step(state, *args, **kwargs):
        cells.append(state.n.values.size)  # what the tracer's cell counter reads
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(kslab.solver, "step", counting_step)
    grid = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    state = State(constant_field(grid, 1.0), constant_field(grid, 1.0), 0.0)
    result = kslab.solver.run(state, SolverConfig(dt_max=1e-3),
                              StopRule(t_end=1.0, max_steps=7))
    assert result.steps == 7
    assert cells == [64] * 7
    assert np.all(result.state.n.values == 1.0)


def test_solve_mms_fetches_its_sources_through_the_module_global(monkeypatch, tmp_path):
    real_sources, real_step = kslab.harness.mms_sources, kslab.solver.step
    calls = {"mms_sources": 0, "source_n": 0, "source_c": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def traced_sources(pair):
        calls["mms_sources"] += 1
        source_n, source_c = real_sources(pair)
        return counted("source_n", source_n), counted("source_c", source_c)

    monkeypatch.setattr(kslab.harness, "mms_sources", traced_sources)
    monkeypatch.setattr(kslab.solver, "step", counted("step", real_step))
    path = tmp_path / "mms.ini"
    path.write_text("[run]\nscenario = mms\n")
    cfg = kslab.harness.load_config(path, overrides=["grid.cells=8 8"])
    final, exact = kslab.harness._solve_mms(cfg, 8, 0.002)
    assert final.t == exact.t == pytest.approx(0.002)
    assert calls["mms_sources"] == 1
    assert calls["step"] > 0
    assert calls["source_n"] == calls["source_c"] == calls["step"]


def test_mms_scenario_makes_every_solve_through_the_module_global(monkeypatch, tmp_path):
    # perfbench's setup probe ends an mms run at its first call into
    # kslab.harness.run, so no step may come before that call, and every
    # step of the ladder must be inside one
    real_run, real_step = kslab.harness.run, kslab.solver.step
    steps, solves = [], []

    def counting_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    def probed_run(state, config, stop, **kwargs):
        before = len(steps)
        result = real_run(state, config, stop, **kwargs)
        solves.append((before, state.grid.shape, sorted(kwargs), len(steps) - before))
        return result

    monkeypatch.setattr(kslab.solver, "step", counting_step)
    monkeypatch.setattr(kslab.harness, "run", probed_run)
    path = tmp_path / "mms.ini"
    path.write_text("[run]\nscenario = mms\n")
    cfg = kslab.harness.load_config(path, overrides=[
        f"run.out_dir={tmp_path / 'out'}", "grid.cells=8 8", "run.t_end=0.002",
        "scaling.refinements=2"])
    kslab.harness.run_scenario(cfg)
    # two spatial levels, then three forced-dt runs on the base grid
    assert [shape for _, shape, _, _ in solves] == [(8, 8), (16, 16), (8, 8), (8, 8), (8, 8)]
    assert solves[0][0] == 0
    assert all(kwargs == ["source_c", "source_n"] for _, _, kwargs, _ in solves)
    assert sum(n for *_, n in solves) == len(steps) > 0
