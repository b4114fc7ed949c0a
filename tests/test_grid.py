import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import (CorruptionError, Field, GridSpec, constant_field, fill,
                   integrate, lp_norm, make_grid, read_snapshot,
                   write_snapshot)


def test_make_grid_1d_spacing():
    g = make_grid(GridSpec(1, (10,), (1.0,)))
    assert g.h[0] == pytest.approx(0.1)
    assert g.cell_volume == pytest.approx(0.1)


def test_make_grid_2d_cell_volume():
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0)))
    assert g.cell_volume == pytest.approx(1.0 / 256.0)


def test_make_grid_rejects_small_axis():
    with pytest.raises(ValueError):
        GridSpec(3, (3, 8, 8), (1.0, 1.0, 1.0))


def test_make_grid_rejects_nonpositive_extent():
    with pytest.raises(ValueError):
        GridSpec(1, (8,), (0.0,))
    with pytest.raises(ValueError):
        GridSpec(1, (8,), (-2.0,))


def test_fill_constant():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    f = fill(g, lambda x, y: np.ones_like(x))
    assert np.all(f.values == 1.0)


def test_fill_cell_centers_linear():
    g = make_grid(GridSpec(1, (4,), (1.0,)))
    f = fill(g, lambda x: x)
    np.testing.assert_allclose(f.values, [0.125, 0.375, 0.625, 0.875], rtol=0, atol=0)


def test_fill_cosine_at_centers():
    g = make_grid(GridSpec(1, (4,), (1.0,)))
    f = fill(g, lambda x: np.cos(np.pi * x))
    expected = [math.cos(math.pi * x) for x in (0.125, 0.375, 0.625, 0.875)]
    np.testing.assert_allclose(f.values, expected, rtol=1e-15)


def test_fill_scalar_function_fallback():
    g = make_grid(GridSpec(1, (4,), (1.0,)))
    f = fill(g, lambda x: math.cos(math.pi * float(x)))
    expected = [math.cos(math.pi * x) for x in (0.125, 0.375, 0.625, 0.875)]
    np.testing.assert_allclose(f.values, expected, rtol=1e-15)


def test_fill_propagates_nonfinite():
    g = make_grid(GridSpec(1, (4,), (1.0,)))
    with pytest.raises(CorruptionError):
        fill(g, lambda x: np.where(x > 0.5, np.inf, 1.0))


def test_field_rejects_nan():
    g = make_grid(GridSpec(1, (4,), (1.0,)))
    values = np.ones(4)
    values[2] = np.nan
    with pytest.raises(CorruptionError):
        Field(g, values)


def test_field_values_read_only():
    g = make_grid(GridSpec(1, (4,), (1.0,)))
    f = constant_field(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_integrate_constant_unit_square():
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0)))
    assert integrate(constant_field(g, 2.0)) == pytest.approx(2.0, rel=1e-14)


def test_integrate_zero():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    assert integrate(constant_field(g, 0.0)) == 0.0


def test_integrate_cosine_symmetry():
    g = make_grid(GridSpec(1, (64,), (1.0,), "periodic_torus"))
    f = fill(g, lambda x: np.cos(2 * np.pi * x))
    assert abs(integrate(f)) <= 1e-12


def test_integrate_linearity():
    rng = np.random.default_rng(3)
    g = make_grid(GridSpec(2, (12, 9), (1.0, 2.0)))
    fv = rng.normal(size=g.shape)
    gv = rng.normal(size=g.shape)
    a, b = 1.7, -2.3
    lhs = integrate(Field(g, a * fv + b * gv))
    rhs = a * integrate(Field(g, fv)) + b * integrate(Field(g, gv))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_integrate_deterministic():
    rng = np.random.default_rng(5)
    g = make_grid(GridSpec(3, (6, 5, 4), (1.0, 1.0, 1.0)))
    f = Field(g, rng.normal(size=g.shape))
    assert integrate(f) == integrate(f)


def test_lp_norm_constant():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    f = constant_field(g, 3.0)
    assert lp_norm(f, 2.0) == pytest.approx(3.0, rel=1e-14)
    assert lp_norm(f, math.inf) == 3.0


def test_lp_norm_linear_profile():
    g = make_grid(GridSpec(1, (256,), (1.0,)))
    f = fill(g, lambda x: x)
    assert lp_norm(f, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)


def test_lp_norm_rejects_p_below_one():
    g = make_grid(GridSpec(1, (8,), (1.0,)))
    with pytest.raises(ValueError):
        lp_norm(constant_field(g, 1.0), 0.5)


def test_lp_norm_monotone_in_p_unit_volume():
    rng = np.random.default_rng(11)
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0)))
    f = Field(g, rng.random(g.shape) + 0.1)
    norms = [lp_norm(f, p) for p in (1.0, 2.0, 3.0, 6.0, math.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(4, 12), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3), st.sampled_from([1.0, 1.6, 2.0, 3.5, math.inf]))
def test_property_lp_norm_is_bit_identical_to_its_per_p_formulas(dim, cells, seed,
                                                                 scale, p):
    """lp_norm's one |v|^p expression gives the bits of the sum of |v| at
    p = 1 and of |v|*|v| at p = 2."""
    g = make_grid(GridSpec(dim, (cells,) * dim, (1.0, 0.5, 2.0)[:dim]))
    v = np.random.default_rng(seed).normal(size=g.shape) * scale
    absv = np.abs(v)
    if math.isinf(p):
        want = float(np.max(absv))
    else:
        if p == 1.0:
            raw = float(np.sum(absv))
        elif p == 2.0:
            raw = float(np.sum(absv * absv))
        else:
            raw = float(np.sum(absv**p))
        want = (raw * g.cell_volume) ** (1.0 / p)
    assert np.float64(lp_norm(Field(g, v), p)).tobytes() == np.float64(want).tobytes()


def test_snapshot_roundtrip():
    rng = np.random.default_rng(17)
    g = make_grid(GridSpec(2, (8, 6), (1.0, 2.0), "periodic_torus"))
    f = Field(g, rng.normal(size=g.shape))
    path = "/tmp/kslab_test_snapshot.ksf"
    write_snapshot(f, 0.75, path)
    back, t = read_snapshot(path)
    assert t == 0.75
    assert back.grid.spec == g.spec
    assert np.array_equal(back.values, f.values)


def test_snapshot_byte_layout():
    g = make_grid(GridSpec(1, (4,), (2.0,), "neumann_box"))
    f = Field(g, np.array([1.0, 2.0, 3.0, 4.0]))
    path = "/tmp/kslab_test_layout.ksf"
    write_snapshot(f, 1.5, path)
    raw = open(path, "rb").read()
    assert raw[:4] == b"KSF1"
    dim, = struct.unpack_from("<I", raw, 4)
    assert dim == 1
    cells, = struct.unpack_from("<I", raw, 8)
    assert cells == 4
    extent, = struct.unpack_from("<d", raw, 12)
    assert extent == 2.0
    time, = struct.unpack_from("<d", raw, 20)
    assert time == 1.5
    topo, = struct.unpack_from("<B", raw, 28)
    assert topo == 0
    values = struct.unpack_from("<4d", raw, 29)
    assert values == (1.0, 2.0, 3.0, 4.0)
    assert len(raw) == 29 + 32
