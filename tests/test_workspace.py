"""evaluate on its per-grid scratch: bit-identical to the frozen reference,
no grid-sized allocation after the first call, records independent of the
scratch."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_evaluate as ref
from kslab import Field, GridSpec, State, make_grid
from kslab.diagnostics import CSV_FIELDS, evaluate
from kslab.grid import TOPOLOGIES


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
    negative cells or not, the floor on or off."""
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
                      draw(st.sampled_from([2.0, 3.5, math.inf])),
                      draw(st.sampled_from([0.0, 1e-6, 0.05]))))
    return calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_calls())
def test_property_evaluate_is_bit_identical_to_frozen_reference(calls):
    for state, kappas, chi, s, floor in calls:
        expected = _bits(ref.evaluate(state, kappas, chi, s, floor))
        assert _bits(evaluate(state, kappas, chi, s, floor)) == expected


def _box_state(cells=16, seed=3):
    grid = make_grid(GridSpec(3, (cells,) * 3, (1.0, 1.0, 1.0), "neumann_box"))
    rng = np.random.default_rng(seed)
    return State(Field(grid, 1.0 + rng.random(grid.shape)),
                 Field(grid, 2.0 + rng.random(grid.shape)), 0.0)


def test_second_evaluate_allocates_under_four_grid_arrays():
    state = _box_state()
    evaluate(state, (1.0, 1.0, 1.0), 5.0, 2.0)
    tracemalloc.start()
    try:
        evaluate(state, (1.0, 1.0, 1.0), 5.0, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * state.n.values.nbytes


def test_record_holds_no_reference_into_the_scratch():
    state = _box_state()
    record = evaluate(state, (1.0, 1.0, 1.0), 5.0, 2.0)
    assert all(type(getattr(record, name)) is float for name in CSV_FIELDS)
    before = _bits(record)
    other = _box_state(seed=4)
    assert _bits(evaluate(other, (2.0, 0.5, 1.0), 3.0, 3.0, 0.1)) != before
    assert _bits(record) == before
