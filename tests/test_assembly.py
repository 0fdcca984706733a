import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assembled_A, assembled_B, interior_dofs, random_poly
from wgsteklov.assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    NegInvLog,
    PowerEps,
    assemble,
    gamma_of_h,
    interpolate,
)
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, build_structured_mesh
from wgsteklov.polyquad import map_to_triangle, triangle_quadrature


@pytest.mark.parametrize(
    "domain,n,k,n_dofs,n_boundary",
    [
        (UNIT_SQUARE, 2, 1, 56, 16),
        (UNIT_SQUARE, 2, 2, 96, 24),
        (L_SHAPE, 2, 1, 44, 16),
    ],
)
def test_dof_counts(domain, n, k, n_dofs, n_boundary):
    mesh = build_structured_mesh(domain, n)
    dof_map = DofMap(mesh, k)
    assert dof_map.n_dofs == n_dofs
    assert len(dof_map.boundary_dofs) == n_boundary
    interior = interior_dofs(dof_map)
    assert len(interior) == n_dofs - n_boundary
    assert not set(dof_map.boundary_dofs) & set(interior)


@settings(max_examples=40, deadline=None)
@given(domain=st.sampled_from([UNIT_SQUARE, L_SHAPE]), half_n=st.integers(1, 6),
       k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_dof_map_properties(domain, half_n, k, seed):
    mesh = build_structured_mesh(domain, 2 * half_n)
    dof_map = DofMap(mesh, k)
    assert dof_map.n_cell_dofs == mesh.n_cells * dof_map.dim_cell
    assert dof_map.n_dofs == dof_map.n_cell_dofs + mesh.n_edges * dof_map.dim_edge
    # boundary DOFs: strictly increasing, inside the edge range, k + 1 per
    # boundary edge, and disjoint from the interior DOFs that complete them
    g = dof_map.boundary_dofs
    assert np.all(np.diff(g) > 0)
    assert dof_map.n_cell_dofs <= g.min() and g.max() < dof_map.n_dofs
    assert len(g) == mesh.boundary_edge.sum() * dof_map.dim_edge
    interior = interior_dofs(dof_map)
    assert np.array_equal(np.union1d(g, interior), np.arange(dof_map.n_dofs))
    assert len(np.intersect1d(g, interior)) == 0
    # split gives views whose rows concatenate back to the vector
    values = np.random.default_rng(seed).standard_normal(dof_map.n_dofs)
    cells, edges = dof_map.split(values)
    assert cells.shape == (mesh.n_cells, dof_map.dim_cell)
    assert edges.shape == (mesh.n_edges, dof_map.dim_edge)
    assert np.array_equal(np.concatenate([cells.ravel(), edges.ravel()]), values)
    assert np.shares_memory(cells, values) and np.shares_memory(edges, values)


def test_dof_map_rejects_k_zero():
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    with pytest.raises(ValueError):
        DofMap(mesh, 0)


def test_assembled_pair_structure():
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    pair = assemble(DofMap(mesh, 1), GammaStabilizer(1.0))
    A = assembled_A(pair)
    assert (A != A.T).nnz == 0  # exactly symmetric
    assert np.linalg.eigvalsh(A.toarray()).min() > 0  # positive definite
    B = assembled_B(pair).toarray()
    assert np.linalg.matrix_rank(B) == 16
    assert np.linalg.eigvalsh(B).min() > -1e-14
    # boundary form supported only on the boundary block
    dof_map = pair.dof_map
    mask = np.zeros(dof_map.n_dofs, dtype=bool)
    mask[dof_map.boundary_dofs] = True
    assert np.abs(B[~mask]).max() == 0.0
    assert np.abs(B[:, ~mask]).max() == 0.0
    # interior-supported functions are invisible to the boundary form
    v = np.zeros(dof_map.n_dofs)
    interior = interior_dofs(dof_map)
    v[interior] = np.arange(len(interior)) + 1.0
    assert np.linalg.norm(assembled_B(pair) @ v) == 0.0


@pytest.mark.parametrize("alpha", [0.01, 0.1, 1.0])
def test_alpha_assembly_positive_definite(alpha):
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    pair = assemble(DofMap(mesh, 1), AlphaStabilizer(alpha))
    assert np.linalg.eigvalsh(assembled_A(pair).toarray()).min() > 0


@pytest.mark.parametrize("domain,total", [(UNIT_SQUARE, 1.0), (L_SHAPE, 0.75)])
def test_constant_interpolant_energy(domain, total):
    # gradient and stabilizer vanish on the all-ones interpolant; only the
    # interior mass term survives and it integrates the domain area
    mesh = build_structured_mesh(domain, 2)
    dof_map = DofMap(mesh, 1)
    pair = assemble(dof_map, GammaStabilizer(PowerEps(0.1)))
    q = interpolate(dof_map, lambda p: np.ones(len(p)))
    assert q @ (assembled_A(pair) @ q) == pytest.approx(total, rel=1e-12)


def test_gamma_of_h_values():
    assert gamma_of_h(PowerEps(0.1), 1 / 16) == pytest.approx(
        math.exp(-0.1 * math.log(16)), rel=1e-14
    )
    assert gamma_of_h(PowerEps(0.1), 1 / 16) == pytest.approx(0.757858, abs=1e-6)
    assert gamma_of_h(NegInvLog(), 1 / math.e) == pytest.approx(1.0, rel=1e-14)
    assert gamma_of_h(0.35, 0.9) == 0.35  # fixed value passes through
    # strict decrease under refinement
    hs = [1 / 4, 1 / 8, 1 / 16, 1 / 64]
    for spec in (PowerEps(0.2), NegInvLog()):
        values = [gamma_of_h(spec, h) for h in hs]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)


def test_gamma_of_h_validation():
    with pytest.raises(ValueError):
        gamma_of_h(PowerEps(0.1), 1.5)
    with pytest.raises(ValueError):
        gamma_of_h(NegInvLog(), 1.0)
    with pytest.raises(ValueError):
        PowerEps(0.0)
    with pytest.raises(ValueError):
        PowerEps(1.0)
    with pytest.raises(ValueError):
        gamma_of_h(2.0, 0.5)
    for gamma in (0.0, 1.5):
        with pytest.raises(ValueError):
            GammaStabilizer(gamma)
    for alpha in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            AlphaStabilizer(alpha)
    with pytest.raises(TypeError):
        gamma_of_h("pow", 0.5)


def test_assembly_linear_in_gamma():
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    dof_map = DofMap(mesh, 1)
    A2, A5, A8 = (assembled_A(assemble(dof_map, GammaStabilizer(g))) for g in (0.2, 0.5, 0.8))
    diff = (A8 - A2 - 2.0 * (A5 - A2)).toarray()
    assert np.abs(diff).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_global_commutativity_energy(k, rng):
    # consistent interpolants of degree-k polynomials have zero stabilizer
    # energy, and the weak-gradient energy equals the H1 energy
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    dof_map = DofMap(mesh, k)
    pair = assemble(dof_map, GammaStabilizer(PowerEps(0.1)))
    poly = random_poly(rng, k)
    q = interpolate(dof_map, poly)
    exact = 0.0
    rule = triangle_quadrature(2 * k + 2)
    for ci in range(mesh.n_cells):
        pts, w = map_to_triangle(rule, mesh.vertices[mesh.cells[ci]])
        g = poly.grad(pts)
        exact += float(w @ (g[:, 0] ** 2 + g[:, 1] ** 2 + poly(pts) ** 2))
    assert q @ (assembled_A(pair) @ q) == pytest.approx(exact, rel=1e-10)


def test_assembly_deterministic():
    mesh = build_structured_mesh(L_SHAPE, 4)
    dof_map = DofMap(mesh, 2)
    p1 = assemble(dof_map, GammaStabilizer(PowerEps(0.1)))
    p2 = assemble(dof_map, GammaStabilizer(PowerEps(0.1)))
    A1, A2 = assembled_A(p1), assembled_A(p2)
    assert np.array_equal(A1.data, A2.data)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(p1.boundary_mass, p2.boundary_mass)
