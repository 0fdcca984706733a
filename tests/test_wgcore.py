import itertools

import numpy as np
import pytest

from helpers import (
    assembled_A,
    assembled_B,
    jittered_mesh,
    local_interpolant,
    local_matrix_parts,
    map_to_edge,
    project_cell,
    project_edge,
    project_vector,
    quadrature_boundary_form,
    random_poly,
    random_triangle,
    renumbered_mesh,
)
from wgsteklov.assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    PowerEps,
    assemble,
    gamma_of_h,
    interpolate,
)
from wgsteklov.mesh import DOMAINS, build_structured_mesh
from wgsteklov.polyquad import (
    CellBasis,
    dim_pk,
    edge_quadrature,
    map_to_triangle,
    triangle_quadrature,
)
from wgsteklov.wgcore import (
    CellClasses,
    LocalCell,
    check_alpha,
    epsilon_h_diagnostic,
    local_factor,
    weak_gradient_map,
)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_local_layout():
    assert LocalCell(REF, 1).n_loc == 3 + 6
    cell = LocalCell(REF, 2)
    assert cell.n_loc == 6 + 9
    assert cell.edge_slice(0) == slice(6, 9)
    assert cell.edge_slice(2) == slice(12, 15)
    # the weak gradient lives in P_{k-1}, so k = 0 has no space for it
    with pytest.raises(ValueError, match="k must be >= 1"):
        LocalCell(REF, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_points_match_the_per_segment_map(k, rng):
    # one call maps the canonical parameters onto all three edges, for every
    # orientation of the edges; the arclength weights are those of the
    # per-segment map
    rule = edge_quadrature(2 * k + 3)
    for flips in itertools.product((False, True), repeat=3):
        cell = LocalCell(random_triangle(rng), k, flips)
        points = cell.edge_points(rule.points)
        assert points.shape == (3, len(rule.points), 2)
        for l in range(3):
            want, weights = map_to_edge(rule, *cell.edge_canonical(l))
            assert np.array_equal(points[l], want)
            assert np.allclose(rule.weights * cell.edge_lengths[l], weights, rtol=1e-15, atol=0)


def test_dof_map_builds_one_cell_basis_per_class(monkeypatch):
    # each class's cell holds one basis; the P_{k-1} basis is its leading part
    builds = []
    init = CellBasis.__init__

    def counting_init(self, vertices, k):
        builds.append(k)
        init(self, vertices, k)

    monkeypatch.setattr(CellBasis, "__init__", counting_init)
    for domain in DOMAINS:
        for k in (1, 3):
            builds.clear()
            dof_map = DofMap(build_structured_mesh(domain, 4), k)
            assert builds == [k] * dof_map.classes.n_classes


@pytest.mark.parametrize("domain", DOMAINS)
def test_cell_classes_match_translation_invariant_keys(domain, rng):
    # two cells share a class exactly when their rounded relative vertex
    # coordinates and edge orientations agree; the first member represents
    structured = build_structured_mesh(domain, 4)
    renumbered = renumbered_mesh(structured, rng)
    for mesh in (structured, renumbered, jittered_mesh(structured, rng)):
        classes = CellClasses(mesh, 2)
        keys = []
        for ci in range(mesh.n_cells):
            verts = mesh.vertices[mesh.cells[ci]]
            rel = np.round(verts - verts[0], 12)
            keys.append((rel.tobytes(), tuple(mesh.cell_edge_signs[ci])))
        same_key = np.array([[a == b for b in keys] for a in keys])
        same_class = classes.class_of[:, None] == classes.class_of[None, :]
        assert np.array_equal(same_key, same_class)
        first = [keys.index(key) for key in keys]
        assert np.array_equal(classes.representatives[classes.class_of], first)
        assert np.array_equal(classes.representatives, np.unique(first))
    assert CellClasses(structured, 2).n_classes == 2
    assert CellClasses(renumbered, 2).n_classes > 2
    assert CellClasses(mesh, 2).n_classes == mesh.n_cells


# ---------------------------------------------------------------------------
# projections


def test_project_cell_constant_and_polynomial(rng):
    cell = LocalCell(random_triangle(rng), 2)
    c = project_cell(cell, lambda p: np.full(len(p), 3.25))
    pts, _ = map_to_triangle(triangle_quadrature(4), cell.vertices)
    assert np.allclose(cell.basis.eval(pts) @ c, 3.25, atol=1e-12)
    poly = random_poly(rng, 2)
    c = project_cell(cell, poly)
    assert np.allclose(cell.basis.eval(pts) @ c, poly(pts), atol=1e-12)


def test_project_cell_orthogonality_analytic(rng):
    # residual of the projection of e^x is orthogonal to the polynomial
    # space; verified with a finer rule than the projection used
    cell = LocalCell(REF, 1)
    f = lambda p: np.exp(p[:, 0])
    c = project_cell(cell, f, quad_degree=18)
    pts, w = map_to_triangle(triangle_quadrature(26), cell.vertices)
    residual = f(pts) - cell.basis.eval(pts) @ c
    defect = (cell.basis.eval(pts) * w[:, None]).T @ residual
    assert np.all(np.abs(defect) < 1e-12)


def test_project_edge_exact_and_orthogonal(rng):
    lo, hi = np.array([0.2, -0.4]), np.array([1.0, 0.1])
    c = project_edge(1, lo, hi, lambda p: np.full(len(p), 2.5))
    rule = edge_quadrature(6)
    pts, _ = map_to_edge(rule, lo, hi)
    from wgsteklov.polyquad import EdgeBasis

    assert np.allclose(EdgeBasis(1).eval(rule.points) @ c, 2.5, atol=1e-13)
    # linear in arclength reproduced exactly for k >= 1
    f = lambda p: 0.7 * p[:, 0] - 0.3 * p[:, 1] + 1.0
    c = project_edge(1, lo, hi, f)
    assert np.allclose(EdgeBasis(1).eval(rule.points) @ c, f(pts), atol=1e-13)
    # sin on the edge, k = 2: residual orthogonal to P_2(e)
    f = lambda p: np.sin(p[:, 0] + p[:, 1])
    c = project_edge(2, lo, hi, f, quad_degree=18)
    rule = edge_quadrature(26)
    pts, _ = map_to_edge(rule, lo, hi)
    eb = EdgeBasis(2).eval(rule.points)
    defect = (eb * rule.weights[:, None]).T @ (f(pts) - eb @ c)
    assert np.all(np.abs(defect) < 1e-12)


def test_project_vector_exact_and_orthogonal(rng):
    cell = LocalCell(random_triangle(rng), 2)
    c = project_vector(cell, lambda p: np.tile([1.5, -2.0], (len(p), 1)))
    pts, w = map_to_triangle(triangle_quadrature(8), cell.vertices)
    grad_basis = CellBasis(cell.vertices, cell.k - 1)
    m = grad_basis.dim
    phi = grad_basis.eval(pts)
    vals = np.stack([phi @ c[:m], phi @ c[m:]], axis=1)
    assert np.allclose(vals, np.tile([1.5, -2.0], (len(pts), 1)), atol=1e-12)
    # gradients of P_k polynomials live in the vector space and are reproduced
    poly = random_poly(rng, 2)
    c = project_vector(cell, poly.grad)
    got = np.stack([phi @ c[:m], phi @ c[m:]], axis=1)
    assert np.allclose(got, poly.grad(pts), atol=1e-12)
    # analytic field: componentwise orthogonality of the residual
    F = lambda p: np.stack([np.exp(p[:, 0]), np.zeros(len(p))], axis=1)
    c = project_vector(cell, F, quad_degree=20)
    pts, w = map_to_triangle(triangle_quadrature(28), cell.vertices)
    phi = grad_basis.eval(pts)
    resid = F(pts) - np.stack([phi @ c[:m], phi @ c[m:]], axis=1)
    defect = np.einsum("qi,q,qd->id", phi, w, resid)
    assert np.all(np.abs(defect) < 1e-12)


# ---------------------------------------------------------------------------
# weak gradient


def test_weak_gradient_shape():
    cell = LocalCell(REF, 1)
    G = weak_gradient_map(cell)
    assert G.shape == (2, 9)


def test_weak_gradient_defining_identity(rng):
    # per component, with psi_i the P_{k-1} basis: rows [:m] are
    # (grad_w v, (psi_i, 0))_T = -(dx psi_i, v0)_T + <psi_i n_x, vb>_dT and
    # rows [m:] the y analogue, checked by independent high-order quadrature
    # for random local data
    for k in (1, 2, 3):
        cell = LocalCell(random_triangle(rng), k, flips=(True, False, True))
        G = weak_gradient_map(cell)
        grad_basis = CellBasis(cell.vertices, k - 1)
        m = grad_basis.dim
        v = rng.standard_normal(cell.n_loc)
        lhs = G @ v
        pts, w = map_to_triangle(triangle_quadrature(2 * k + 9), cell.vertices)
        grad = grad_basis.grad(pts)
        v0 = cell.basis.eval(pts) @ v[: cell.n_interior]
        erule = edge_quadrature(2 * k + 9)
        eb = cell.edge_basis.eval(erule.points)
        for comp, rows in ((0, slice(None, m)), (1, slice(m, None))):
            rhs = -(grad[:, :, comp] * w[:, None]).T @ v0
            for l in range(3):
                lo, hi = cell.edge_canonical(l)
                epts, ew = map_to_edge(erule, lo, hi)
                vb = eb @ v[cell.edge_slice(l)]
                psi_n = grad_basis.eval(epts) * cell.normals[l, comp]
                rhs += (psi_n * ew[:, None]).T @ vb
            assert np.allclose(lhs[rows], rhs, atol=1e-12)


def test_weak_gradient_of_constants_vanishes(rng):
    cell = LocalCell(random_triangle(rng), 2)
    v = local_interpolant(cell, lambda p: np.full(len(p), 4.0))
    assert np.allclose(weak_gradient_map(cell) @ v, 0.0, atol=1e-12)


def test_weak_gradient_of_linear_interpolant():
    cell = LocalCell(REF, 1)
    v = local_interpolant(cell, lambda p: p[:, 0])
    got = weak_gradient_map(cell) @ v
    want = project_vector(cell, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_commutativity_random_polynomials(k, rng):
    # weak gradient of the interpolant equals the projected gradient for
    # polynomials well beyond the space degree
    for _ in range(12):
        cell = LocalCell(
            random_triangle(rng), k, flips=tuple(rng.integers(0, 2, 3).astype(bool))
        )
        poly = random_poly(rng, k + 3)
        dofs = local_interpolant(cell, poly)
        lhs = weak_gradient_map(cell) @ dofs
        rhs = project_vector(cell, poly.grad)
        assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# stabilizers


def scaled_factor(cell, kind, coefficient):
    """The local factor with its stabilizer rows scaled by the square root of
    the coefficient, as `assembly.assemble` scales them, and the number of
    rows before the stabilizer rows."""
    F = local_factor(cell, kind)
    n_core = 2 * dim_pk(cell.k - 1) + cell.n_interior
    F[n_core:] *= np.sqrt(coefficient)
    return F, n_core


def stabilizer(cell, kind, coefficient):
    F, n_core = scaled_factor(cell, kind, coefficient)
    return F[n_core:].T @ F[n_core:]


def local_matrix(cell, kind, coefficient):
    F = scaled_factor(cell, kind, coefficient)[0]
    return F.T @ F


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stabilizers_vanish_on_consistent_data(k, rng):
    cell = LocalCell(random_triangle(rng), k)
    poly = random_poly(rng, k)
    dofs = local_interpolant(cell, poly)
    for S in (stabilizer(cell, "gamma", 0.5), stabilizer(cell, "alpha", 2.0)):
        assert abs(dofs @ S @ dofs) < 1e-12


def test_stabilizer_closed_forms(rng):
    cell = LocalCell(random_triangle(rng), 2)
    # v0 = 1, vb = 0: the mismatch is the constant one on each edge
    dofs = np.zeros(cell.n_loc)
    dofs[: cell.n_interior] = project_cell(cell, lambda p: np.ones(len(p)))
    gamma = 0.37
    energy = dofs @ stabilizer(cell, "gamma", gamma) @ dofs
    assert energy == pytest.approx(gamma / cell.diameter * cell.edge_lengths.sum(), rel=1e-12)
    alpha = 1.8
    energy = dofs @ stabilizer(cell, "alpha", alpha) @ dofs
    assert energy == pytest.approx(alpha * cell.area / cell.diameter**2, rel=1e-12)


def test_stabilizer_scaling_and_kernel(rng):
    cell = LocalCell(random_triangle(rng), 2)
    S1 = stabilizer(cell, "gamma", 0.25)
    S2 = stabilizer(cell, "gamma", 0.5)
    assert np.allclose(S2, 2.0 * S1, atol=1e-14)
    A1 = stabilizer(cell, "alpha", 0.7)
    A2 = stabilizer(cell, "alpha", 1.4)
    assert np.allclose(A2, 2.0 * A1, atol=1e-14)
    for S in (S1, A1):
        evals = np.linalg.eigvalsh(S)
        assert evals.min() > -1e-12  # positive semidefinite
        rank = int((evals > 1e-10 * evals.max()).sum())
        assert rank == 3 * (cell.k + 1)  # kernel = consistent-trace subspace


def test_stabilizer_rejects_bad_coefficients():
    # the coefficients that scale the stabilizer rows of the local factor
    for gamma in (0.0, 1.5):
        with pytest.raises(ValueError):
            GammaStabilizer(gamma)
    for alpha in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            check_alpha(alpha)
        with pytest.raises(ValueError):
            AlphaStabilizer(alpha)


# ---------------------------------------------------------------------------
# local forms


@pytest.mark.parametrize("kind", ["gamma", "alpha"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_factor_matches_the_summed_parts(k, kind, rng):
    # F^T F is the weak-gradient energy plus the interior mass plus the
    # stabilizer, each formed on its own
    cell = LocalCell(random_triangle(rng), k)
    core, stab = local_matrix_parts(cell, kind)
    K = local_matrix(cell, kind, 0.3)
    want = core + 0.3 * stab
    assert np.abs(K - want).max() <= 1e-14 * np.abs(want).max()


def test_local_aw_constant_energy(rng):
    cell = LocalCell(random_triangle(rng), 2)
    A = local_matrix(cell, "gamma", 0.5)
    c = 1.7
    dofs = local_interpolant(cell, lambda p: np.full(len(p), c))
    assert dofs @ A @ dofs == pytest.approx(c * c * cell.area, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_aw_consistent_polynomial_energy(k, rng):
    # on consistent data the stabilizer drops out and the weak gradient is
    # the true gradient, so the energy is the H1 energy of the polynomial
    cell = LocalCell(random_triangle(rng), k)
    poly = random_poly(rng, k)
    dofs = local_interpolant(cell, poly)
    A = local_matrix(cell, "gamma", 0.8)
    pts, w = map_to_triangle(triangle_quadrature(2 * k + 4), cell.vertices)
    g = poly.grad(pts)
    exact = float(w @ (g[:, 0] ** 2 + g[:, 1] ** 2 + poly(pts) ** 2))
    assert dofs @ A @ dofs == pytest.approx(exact, rel=1e-11)


def test_local_aw_symmetric_positive_definite(rng):
    for k in (1, 2, 3):
        cell = LocalCell(random_triangle(rng), k)
        for A in (local_matrix(cell, "gamma", 0.3), local_matrix(cell, "alpha", 0.05)):
            assert np.abs(A - A.T).max() < 1e-14
            assert np.linalg.eigvalsh(A).min() > 0
    # the pair's local matrices F^T F are symmetric bit for bit
    for stabilizer_spec in (GammaStabilizer(0.3), AlphaStabilizer(0.05)):
        pair = assemble(DofMap(build_structured_mesh("lshape", 4), 3), stabilizer_spec)
        assert np.array_equal(pair.local, pair.local.transpose(0, 2, 1))


def test_boundary_form_matches_quadrature_edge_mass():
    # orthonormal edge basis: the L2(e) mass is |e| times the identity, which
    # B holds exactly; quadrature reproduces it up to roundoff
    for k in (1, 2, 6):
        dof_map = DofMap(build_structured_mesh("lshape", 4), k)
        B = assembled_B(assemble(dof_map, GammaStabilizer(0.5)))
        deviation = abs(B - quadrature_boundary_form(dof_map)).max(axis=1).toarray().ravel()
        assert np.all(deviation <= 1e-14 * B.diagonal())


# ---------------------------------------------------------------------------
# projection-defect diagnostic


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("domain", DOMAINS)
def test_epsilon_vanishes_on_polynomial_data(domain, k):
    mesh = build_structured_mesh(domain, 2)
    u = lambda p: p[:, 0]
    grad = lambda p: np.tile([1.0, 0.0], (len(p), 1))
    assert abs(epsilon_h_diagnostic(u, grad, DofMap(mesh, k), 0.5)) < 1e-12


def test_epsilon_matches_energy_difference():
    # cross-check the residual-form evaluation against the defining energy
    # difference, computed with the assembled operator
    mesh = build_structured_mesh("square", 4)
    k = 1
    dof_map = DofMap(mesh, k)
    gamma = gamma_of_h(PowerEps(0.1), mesh.h_max)
    u = lambda p: np.exp(p[:, 0])
    grad = lambda p: np.stack([np.exp(p[:, 0]), np.zeros(len(p))], axis=1)
    eps = epsilon_h_diagnostic(u, grad, dof_map, gamma)
    assert eps > 0

    pair = assemble(dof_map, GammaStabilizer(gamma))
    q = interpolate(dof_map, u)
    a_w = float(q @ (assembled_A(pair) @ q))
    a_exact = 0.0
    rule = triangle_quadrature(2 * k + 12)
    for ci in range(mesh.n_cells):
        pts, w = map_to_triangle(rule, mesh.vertices[mesh.cells[ci]])
        g = grad(pts)
        a_exact += float(w @ (g[:, 0] ** 2 + g[:, 1] ** 2 + u(pts) ** 2))
    assert eps == pytest.approx(a_exact - a_w, rel=1e-8)


def test_epsilon_linear_in_gamma():
    mesh = build_structured_mesh("square", 2)
    dof_map = DofMap(mesh, 1)
    u = lambda p: np.exp(p[:, 0])
    grad = lambda p: np.stack([np.exp(p[:, 0]), np.zeros(len(p))], axis=1)
    e1 = epsilon_h_diagnostic(u, grad, dof_map, 0.3)
    e2 = epsilon_h_diagnostic(u, grad, dof_map, 0.6)
    e3 = epsilon_h_diagnostic(u, grad, dof_map, 0.9)
    # doubling gamma subtracts exactly one more unit of stabilizer energy
    assert e2 - e1 == pytest.approx(e3 - e2, rel=1e-9)
