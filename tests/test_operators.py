import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import (Field, GridSpec, PositivityError, VectorField,
                   chemotactic_flux, constant_field, divergence, fill, gradient,
                   integrate, laplacian, make_grid)
from kslab.operators import _hessian_parts


def _random_field(grid, rng):
    return Field(grid, rng.normal(size=grid.shape))


# --- laplacian -------------------------------------------------------------


def test_laplacian_constant_is_zero():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    lap = laplacian(constant_field(g, 4.2))
    assert np.all(lap.values == 0.0)


def test_laplacian_neumann_eigenfunction():
    g = make_grid(GridSpec(1, (128,), (1.0,), "neumann_box"))
    f = fill(g, lambda x: np.cos(np.pi * x))
    lap = laplacian(f)
    exact = -np.pi**2 * np.cos(np.pi * g.centers(0))
    assert np.max(np.abs(lap.values - exact)) <= 5e-3


def test_laplacian_periodic_five_cell_oracle():
    g = make_grid(GridSpec(1, (5,), (1.0,), "periodic_torus"))
    f = fill(g, lambda x: x * x)
    lap = laplacian(f)
    v = f.values
    h = g.h[0]
    expected = []
    for i in range(5):
        hi = (v[(i + 1) % 5] - v[i]) / h
        lo = (v[i] - v[(i - 1) % 5]) / h
        expected.append((hi - lo) / h)
    assert np.array_equal(lap.values, np.array(expected))


def test_divergence_of_gradient_is_laplacian_bitexact():
    rng = np.random.default_rng(2)
    for topo in ("neumann_box", "periodic_torus"):
        for spec in (GridSpec(1, (16,), (1.0,), topo),
                     GridSpec(2, (12, 9), (1.0, 2.0), topo),
                     GridSpec(3, (6, 5, 4), (1.0, 1.0, 1.5), topo)):
            g = make_grid(spec)
            f = _random_field(g, rng)
            assert np.array_equal(divergence(gradient(f)).values,
                                  laplacian(f).values)


def test_integrate_laplacian_vanishes():
    rng = np.random.default_rng(4)
    for topo in ("neumann_box", "periodic_torus"):
        g = make_grid(GridSpec(2, (16, 12), (1.0, 1.0), topo))
        f = _random_field(g, rng)
        assert abs(integrate(laplacian(f))) <= 1e-11


def test_laplacian_linearity():
    rng = np.random.default_rng(6)
    g = make_grid(GridSpec(2, (10, 10), (1.0, 1.0), "periodic_torus"))
    fv, gv = rng.normal(size=g.shape), rng.normal(size=g.shape)
    lhs = laplacian(Field(g, 2.0 * fv - 3.0 * gv)).values
    rhs = 2.0 * laplacian(Field(g, fv)).values - 3.0 * laplacian(Field(g, gv)).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# --- gradient ---------------------------------------------------------------


def test_gradient_constant_is_zero():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    grad = gradient(constant_field(g, 7.0))
    assert all(np.all(comp == 0.0) for comp in grad.components)


def test_gradient_linear_interior_faces():
    g = make_grid(GridSpec(1, (8,), (1.0,), "neumann_box"))
    grad = gradient(fill(g, lambda x: x))
    comp = grad.components[0]
    assert comp.shape == (8,)
    assert comp[0] == 0.0  # the wall face
    np.testing.assert_allclose(comp[1:], 1.0, rtol=1e-13)


def test_gradient_torus_sine():
    g = make_grid(GridSpec(2, (64, 64), (1.0, 1.0), "periodic_torus"))
    grad = gradient(fill(g, lambda x, y: np.sin(2 * np.pi * x)))
    # component 0 at face j sits at x = j * h
    xf = np.arange(64) * g.h[0]
    exact = 2 * np.pi * np.cos(2 * np.pi * xf)
    measured = grad.components[0][:, 0]
    assert np.max(np.abs(measured - exact)) <= 2 * np.pi**3 * g.h[0] ** 2


# --- divergence ---------------------------------------------------------------


def test_divergence_zero_vector():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    v = VectorField(g, (np.zeros((8, 8)), np.zeros((8, 8))))
    assert np.all(divergence(v).values == 0.0)


def test_divergence_integral_vanishes_on_torus():
    rng = np.random.default_rng(9)
    g = make_grid(GridSpec(2, (12, 12), (1.0, 1.0), "periodic_torus"))
    v = VectorField(g, tuple(rng.normal(size=(12, 12)) for _ in range(2)))
    assert abs(integrate(divergence(v))) <= 1e-12


@pytest.mark.parametrize("topology", ["neumann_box", "periodic_torus"])
def test_vector_field_rejects_wrong_shape(topology):
    g = make_grid(GridSpec(2, (8, 6), (1.0, 1.0), topology))
    # the last has N + 1 faces along each component's own axis
    for shapes in (((8, 6),), ((8, 6), (8, 7)), ((9, 6), (8, 7))):
        with pytest.raises(ValueError, match="component"):
            VectorField(g, tuple(np.zeros(s) for s in shapes))


def test_vector_field_rejects_nonzero_box_wall_face():
    box = make_grid(GridSpec(2, (8, 6), (1.0, 1.0), "neumann_box"))
    grad = gradient(fill(box, lambda x, y: x * y)).components
    VectorField(box, grad)  # a gradient's wall faces are 0
    for axis, wall_face in ((0, (0, 3)), (1, (3, 0))):
        comps = [comp.copy() for comp in grad]
        comps[axis][wall_face] = 1e-300
        with pytest.raises(ValueError, match="wall face"):
            VectorField(box, tuple(comps))
    torus = make_grid(GridSpec(2, (8, 6), (1.0, 1.0), "periodic_torus"))
    VectorField(torus, (np.ones((8, 6)), np.ones((8, 6))))  # the torus has no wall


@st.composite
def _face_fields(draw):
    """A random valid face field on a small grid, dims 1-3, both topologies."""
    dim = draw(st.integers(1, 3))
    topology = draw(st.sampled_from(["neumann_box", "periodic_torus"]))
    cells = tuple(draw(st.integers(4, {1: 24, 2: 10, 3: 6}[dim])) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    g = make_grid(GridSpec(dim, cells, extent, topology))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for axis in range(dim):
        comp = rng.normal(size=g.shape)
        if topology == "neumann_box":
            np.moveaxis(comp, axis, 0)[0] = 0.0
        comps.append(comp)
    return VectorField(g, tuple(comps))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_face_fields())
def test_divergence_integral_vanishes(v):
    scale = sum(float(np.sum(np.abs(c))) / v.grid.h[a]
                for a, c in enumerate(v.components)) * v.grid.cell_volume
    assert abs(integrate(divergence(v))) <= 1e-13 * scale


# --- chemotactic flux ---------------------------------------------------------


def test_flux_zero_for_constant_c():
    rng = np.random.default_rng(10)
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0), "periodic_torus"))
    n = Field(g, rng.random(g.shape) + 0.5)
    flux = chemotactic_flux(n, constant_field(g, 2.0), chi=1.5)
    assert all(np.all(comp == 0.0) for comp in flux.components)


def test_flux_linear_c_constant_n():
    g = make_grid(GridSpec(1, (8,), (1.0,), "neumann_box"))
    n = constant_field(g, 2.5)
    c = fill(g, lambda x: x)
    for upwind in (False, True):
        flux = chemotactic_flux(n, c, chi=3.0, upwind=upwind)
        comp = flux.components[0]
        np.testing.assert_allclose(comp[1:], 3.0 * 2.5, rtol=1e-13)
        assert comp[0] == 0.0  # the wall face


def test_flux_four_cell_torus_oracle():
    g = make_grid(GridSpec(1, (4,), (1.0,), "periodic_torus"))
    n = Field(g, np.array([1.0, 2.0, 3.0, 4.0]))
    c = Field(g, np.array([0.0, 1.0, 0.0, 1.0]))
    h = g.h[0]
    flux = chemotactic_flux(n, c, chi=1.0, upwind=False)
    nv, cv = n.values, c.values
    expected = []
    for j in range(4):  # face j between cells j-1 and j
        gc = (cv[j] - cv[(j - 1) % 4]) / h
        nf = 0.5 * (nv[j] + nv[(j - 1) % 4])
        expected.append(nf * gc)
    assert flux.components[0].shape == (4,)
    np.testing.assert_allclose(flux.components[0], expected, rtol=1e-14)


def test_flux_upwind_selects_upstream_cell():
    g = make_grid(GridSpec(1, (4,), (1.0,), "periodic_torus"))
    n = Field(g, np.array([1.0, 2.0, 3.0, 4.0]))
    c = Field(g, np.array([0.0, 1.0, 0.0, 1.0]))
    h = g.h[0]
    flux = chemotactic_flux(n, c, chi=1.0, upwind=True)
    nv, cv = n.values, c.values
    expected = []
    for j in range(4):
        gc = (cv[j] - cv[(j - 1) % 4]) / h
        if gc > 0:
            nf = nv[(j - 1) % 4]
        elif gc < 0:
            nf = nv[j]
        else:
            nf = 0.5 * (nv[j] + nv[(j - 1) % 4])
        expected.append(nf * gc)
    np.testing.assert_allclose(flux.components[0], expected, rtol=1e-14)


def test_flux_rejects_negative_n():
    g = make_grid(GridSpec(1, (4,), (1.0,), "periodic_torus"))
    n = Field(g, np.array([1.0, -0.5, 1.0, 1.0]))
    c = constant_field(g, 1.0)
    with pytest.raises(PositivityError):
        chemotactic_flux(n, c, chi=1.0)


# --- hessian -------------------------------------------------------------------


def test_hessian_constant_zero():
    g = make_grid(GridSpec(2, (8, 8), (1.0, 1.0)))
    _, hess = _hessian_parts(constant_field(g, -3.0).values, g)
    assert np.all(hess == 0.0)


def test_hessian_quadratic_interior():
    g = make_grid(GridSpec(2, (16, 16), (1.0, 1.0), "neumann_box"))
    f = fill(g, lambda x, y: x * x + y * y)
    _, hess = _hessian_parts(f.values, g)
    interior = hess[2:-2, 2:-2]
    np.testing.assert_allclose(interior, 8.0, rtol=1e-10)


def test_hessian_sine_product_torus():
    g = make_grid(GridSpec(2, (128, 128), (1.0, 1.0), "periodic_torus"))
    f = fill(g, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    _, hess = _hessian_parts(f.values, g)
    X, Y = g.meshes()
    a = 2 * np.pi
    sx, sy = np.sin(a * X), np.sin(a * Y)
    cx, cy = np.cos(a * X), np.cos(a * Y)
    exact = a**4 * (2 * sx**2 * sy**2 + 2 * cx**2 * cy**2)
    scale = float(np.max(exact))
    assert np.max(np.abs(hess - exact)) <= 0.01 * scale
