"""evaluate and step on their grid's shared scratch, and the implicit solve
in its spectral workspace: bit-identical to the frozen references, no
grid-sized allocation after the first call beyond their results, results
independent of the scratch and the workspace."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_evaluate as ref
import reference_step
from kslab import Field, GridSpec, SolverConfig, State, make_grid
from kslab.diagnostics import _SCRATCH, CSV_FIELDS, evaluate
from kslab.errors import CorruptionError, PositivityError
from kslab.grid import TOPOLOGIES
from kslab.operators import chemotactic_flux
from kslab.solver import (EXPLICIT_EULER, IMEX, _implicit_diffusion, _spectral,
                          choose_dt, step)


def _bits(record) -> list[bytes]:
    return [np.float64(getattr(record, name)).tobytes() for name in CSV_FIELDS]


@st.composite
def _grids(draw):
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.integers(4, {1: 24, 2: 10, 3: 6}[dim])) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    return make_grid(GridSpec(dim, cells, extent, draw(st.sampled_from(TOPOLOGIES))))


@st.composite
def _calls(draw):
    """A few grids and a sequence of evaluate calls that alternates among
    them, each on fresh random data: n >= 0 with zero cells or not, c with
    negative cells or not."""
    grids = draw(st.lists(_grids(), min_size=1, max_size=3))
    calls = []
    for _ in range(draw(st.integers(2, 5))):
        grid = grids[draw(st.integers(0, len(grids) - 1))]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        nv = rng.random(grid.shape) * draw(st.floats(0.1, 10.0))
        if draw(st.booleans()):
            nv.flat[rng.integers(nv.size, size=2)] = 0.0
        cv = rng.random(grid.shape) - draw(st.sampled_from([0.0, 0.3]))
        calls.append((State(Field(grid, nv), Field(grid, cv), draw(st.floats(0.0, 5.0))),
                      tuple(draw(st.floats(0.01, 5.0)) for _ in range(3)),
                      draw(st.floats(0.1, 20.0)),
                      draw(st.sampled_from([2.0, 3.5, math.inf]))))
    return calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_calls())
def test_property_evaluate_is_bit_identical_to_frozen_reference(calls):
    for state, kappas, chi, s in calls:
        expected = _bits(ref.evaluate(state, kappas, chi, s))
        assert _bits(evaluate(state, kappas, chi, s)) == expected


def _random_state(grid, seed) -> State:
    rng = np.random.default_rng(seed)
    return State(Field(grid, 1.0 + rng.random(grid.shape)),
                 Field(grid, 2.0 + rng.random(grid.shape)), 0.0)


def _unit_grid(cells, topology):
    return make_grid(GridSpec(len(cells), cells, (1.0,) * len(cells), topology))


def _box_state(cells=16, seed=3):
    return _random_state(_unit_grid((cells,) * 3, "neumann_box"), seed)


def _evaluate_peak(state) -> int:
    tracemalloc.start()
    try:
        evaluate(state, (1.0, 1.0, 1.0), 5.0, 2.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_evaluate_peaks_under_eleven_grid_arrays():
    """The scratch's 8 rows and lp_norm's one temporary."""
    state = _box_state()
    assert _evaluate_peak(state) < 10 * state.n.values.nbytes


def test_second_evaluate_allocates_under_three_grid_arrays():
    """Only lp_norm's one temporary is fresh."""
    state = _box_state()
    evaluate(state, (1.0, 1.0, 1.0), 5.0, 2.0)
    assert _evaluate_peak(state) < 2 * state.n.values.nbytes


def test_record_holds_no_reference_into_the_scratch():
    state = _box_state()
    record = evaluate(state, (1.0, 1.0, 1.0), 5.0, 2.0)
    assert all(type(getattr(record, name)) is float for name in CSV_FIELDS)
    before = _bits(record)
    other = _box_state(seed=4)
    assert _bits(evaluate(other, (2.0, 0.5, 1.0), 3.0, 3.0)) != before
    assert _bits(record) == before


def _state_bits(state) -> tuple:
    return (state.n.values.tobytes(), state.c.values.tobytes(),
            np.float64(state.t).tobytes(), np.float64(state.n_max).tobytes())


@st.composite
def _trajectories(draw):
    """One or two grids, each with a start state and a solver setting, and
    the order in which their steps alternate.  n >= 0, with or without a
    slab of exact-zero cells (+0.0, or +0.0 and -0.0 mixed); c positive,
    constant along one axis (an exact-zero face gradient there) or not;
    sources on or off."""
    runs = []
    for _ in range(draw(st.integers(1, 2))):
        grid = draw(_grids())
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        nv = 0.5 + rng.random(grid.shape) * draw(st.floats(0.1, 5.0))
        zeros = draw(st.sampled_from([None, "+0", "mixed"]))
        if zeros is not None:
            axis = draw(st.integers(0, grid.dim - 1))
            slab = np.moveaxis(nv, axis, 0)[:draw(st.integers(1, grid.shape[axis] - 1))]
            slab[...] = 0.0
            if zeros == "mixed":
                slab[rng.random(slab.shape) < 0.5] = -0.0
        cv = 0.5 + rng.random(grid.shape)
        if draw(st.booleans()):
            flat = draw(st.integers(0, grid.dim - 1))
            cv = np.broadcast_to(np.take(cv, [0], axis=flat), grid.shape).copy()
        cfg = SolverConfig(chi=draw(st.floats(0.1, 10.0)),
                           upwind=draw(st.booleans()),
                           scheme=draw(st.sampled_from([EXPLICIT_EULER] * 3 + [IMEX])),
                           cfl_safety=1.0 / (1 + 2 * grid.dim))
        sources = (None, None)
        if draw(st.booleans()):
            xs = grid.meshes()
            sources = (lambda t, x=xs[0]: 0.3 * np.cos(2.0 * x) + t,
                       lambda t, x=xs[-1]: 0.2 * np.sin(3.0 * x) * (1.0 + t))
        runs.append([State(Field(grid, nv), Field(grid, cv), 0.0), cfg, sources])
    order = draw(st.lists(st.integers(0, len(runs) - 1), min_size=4, max_size=12))
    return runs, order


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_trajectories())
def test_property_step_is_bit_identical_to_frozen_reference(trajectories):
    runs, order = trajectories
    for k in order:
        state, cfg, (source_n, source_c) = runs[k]
        dt = choose_dt(state, cfg)
        try:
            expected = reference_step.step(state, dt, cfg, source_n, source_c)
        except (CorruptionError, PositivityError) as exc:
            try:
                step(state, dt, cfg, source_n=source_n, source_c=source_c)
            except type(exc):
                continue
            raise AssertionError(f"the reference raised {exc!r}, step did not")
        new = step(state, dt, cfg, source_n=source_n, source_c=source_c)
        assert _state_bits(new) == _state_bits(expected)
        runs[k][0] = new


def test_negative_zero_flips_only_the_sign_of_a_zero_chemotactic_flux():
    """Where c's face gradient is zero the upwind rule takes the cell above
    the face, and the frozen reference the average: a cell of -0.0 above a
    +0.0 cell makes that face's flux -0.0 instead of +0.0.  The flux is a
    zero either way, and step's new n keeps every bit."""
    grid = make_grid(GridSpec(1, (8,), (1.0,), "periodic_torus"))
    nv = np.array([0.0, -0.0, 1.0, 2.0, 0.0, -0.0, -0.0, 0.0])
    state = State(Field(grid, nv), Field(grid, np.ones(8)), 0.0)
    flux = chemotactic_flux(state.n, state.c, 2.0, upwind=True).components[0]
    old = reference_step._chemotactic_faces(np.roll(nv, 1), nv, np.zeros(8), 2.0, True)
    assert np.array_equal(flux, old) and not flux.any()
    flipped = np.signbit(flux) != np.signbit(old)
    assert flipped.tolist() == [False, True, False, False, False, True, False, False]
    cfg = SolverConfig(chi=2.0)
    assert (_state_bits(step(state, 1e-3, cfg))
            == _state_bits(reference_step.step(state, 1e-3, cfg)))


def _workspace_arrays(grid) -> list:
    ws = _spectral(grid)
    return [a for a in (ws.pair, ws.rows, *ws.spectra) if a is not None]


def test_stepped_state_shares_no_memory_with_the_scratch():
    """Neither on step's own scratch nor on the larger one evaluate leaves
    behind, which step then borrows, nor, under imex, on the implicit
    solve's spectral workspace (box and torus)."""
    for topology in TOPOLOGIES:
        state = _random_state(_unit_grid((8, 8, 8), topology), 3)
        for scheme in (EXPLICIT_EULER, IMEX):
            cfg = SolverConfig(chi=5.0, cfl_safety=1.0 / 7, scheme=scheme)
            for rows, sink in ((6, lambda: None), (_SCRATCH, lambda: evaluate(
                    state, (1.0, 1.0, 1.0), 5.0, 2.0))):
                sink()
                new = step(state, choose_dt(state, cfg), cfg)
                block = state.grid.scratch(rows)
                held = [block] + (_workspace_arrays(state.grid) if scheme == IMEX else [])
                for arr in (new.n.values, new.c.values, *new.c_face_gradient):
                    assert not any(np.shares_memory(arr, buf) for buf in held)


def test_imex_state_keeps_its_bits_through_later_steps():
    """A state one imex step returned is not overwritten by the next three
    steps on the same grid, which reuse the workspace."""
    for topology in TOPOLOGIES:
        state = _random_state(_unit_grid((8, 8, 8), topology), 3)
        cfg = SolverConfig(chi=5.0, cfl_safety=1.0 / 7, scheme=IMEX)
        kept = step(state, choose_dt(state, cfg), cfg)
        before = _state_bits(kept)
        later = kept
        for _ in range(3):
            later = step(later, choose_dt(later, cfg), cfg)
        assert _state_bits(later) != before
        assert _state_bits(kept) == before


@pytest.mark.parametrize("cells, topology", [((256, 256), "periodic_torus"),
                                             ((32, 32, 32), "neumann_box")])
def test_second_imex_step_allocates_under_three_and_a_half_grid_arrays(cells, topology):
    """Only the new (n, c) pair and, freed before it, each axis's n_face are
    fresh; the solve's input pair, spectra and denominator are the
    workspace's, reused (with a fresh spectrum per call, about 10)."""
    state = _random_state(_unit_grid(cells, topology), 6)
    cfg = SolverConfig(chi=5.0, cfl_safety=1.0 / 7, scheme=IMEX)
    dt = choose_dt(state, cfg)
    step(state, dt, cfg)
    tracemalloc.start()
    try:
        step(state, dt, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * state.n.values.nbytes


def test_imex_steps_on_two_threads_match_the_serial_ones():
    """Each thread solves in its own workspace, so two threads stepping one
    grid at once give, bit for bit, the states a serial loop gives."""
    for topology in TOPOLOGIES:
        grid = _unit_grid((12, 12, 12), topology)
        starts = [_random_state(grid, seed) for seed in (7, 8)]
        cfg = SolverConfig(chi=5.0, cfl_safety=1.0 / 7, scheme=IMEX)

        def trajectory(state):
            bits = []
            for _ in range(20):
                state = step(state, choose_dt(state, cfg), cfg)
                bits.append(_state_bits(state))
            return bits

        serial = [trajectory(start) for start in starts]
        threaded = [None, None]

        def work(k):
            threaded[k] = trajectory(starts[k])

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial


@st.composite
def _solves(draw):
    """A grid (dims 1-3, odd and even cells, both topologies), a few random
    pairs and a dt sequence with repeats and changes, so the workspace's
    cached denominator is both reused and rebuilt."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.integers(4, {1: 33, 2: 12, 3: 7}[dim])) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    grid = make_grid(GridSpec(dim, cells, extent, draw(st.sampled_from(TOPOLOGIES))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dts = draw(st.lists(st.sampled_from([1e-4, 3e-3, 0.5]), min_size=3, max_size=6))
    return grid, [(rng.random((2, *grid.shape)) * 4.0 - 1.0, dt) for dt in dts]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_solves())
def test_property_implicit_diffusion_is_bit_identical_to_frozen_reference(solves):
    grid, calls = solves
    for rhs, dt in calls:
        kept = rhs.copy()
        expected = reference_step._implicit_diffusion(rhs, dt, grid)
        assert np.array_equal(_implicit_diffusion(rhs, dt, grid), expected)
        assert np.array_equal(rhs, kept)  # the input is only read
        pair = _spectral(grid).pair  # the workspace's own pair, as step passes it
        np.copyto(pair, rhs)
        assert np.array_equal(_implicit_diffusion(pair, dt, grid), expected)


def test_second_step_allocates_under_three_grid_arrays():
    """Only the new n, the new c and one axis's n_face are fresh."""
    state = _box_state(cells=32)
    for cfg in (SolverConfig(chi=5.0, cfl_safety=1.0 / 7),
                SolverConfig(chi=5.0, cfl_safety=1.0 / 7, upwind=False)):
        dt = choose_dt(state, cfg)
        step(state, dt, cfg)
        tracemalloc.start()
        try:
            step(state, dt, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * state.n.values.nbytes


def test_second_choose_dt_allocates_under_one_grid_array():
    """The first call builds c's face gradient, which the state keeps; the
    next takes each axis's max |grad c| from its max and min, with no
    |grad c| array."""
    grid = make_grid(GridSpec(2, (256, 256), (1.0, 1.0), "periodic_torus"))
    rng = np.random.default_rng(5)
    state = State(Field(grid, 1.0 + rng.random(grid.shape)),
                  Field(grid, 2.0 + rng.random(grid.shape)), 0.0)
    cfg = SolverConfig(chi=5.0)
    dt = choose_dt(state, cfg)
    tracemalloc.start()
    try:
        assert choose_dt(state, cfg) == dt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state.n.values.nbytes
