import numpy as np
import pytest
import scipy.sparse.linalg as spla

from wgsteklov import source
from wgsteklov.assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    PowerEps,
    assemble,
    interpolate,
)
from wgsteklov.eigen import NumericalError
from wgsteklov.harness import main, run_source_study
from helpers import (
    Poly2,
    assembled_A,
    map_to_edge,
    project_cell,
    project_edge,
    random_poly,
    renumbered_mesh,
)
from wgsteklov.mesh import DOMAIN_AREA, DOMAINS, L_SHAPE, UNIT_SQUARE, build_structured_mesh
from wgsteklov.polyquad import (
    EdgeBasis,
    edge_quadrature,
    map_to_triangle,
    triangle_quadrature,
)
from wgsteklov.source import (
    ManufacturedSolution,
    boundary_load,
    discrete_v_norm,
    exponential_solution,
    interpolant,
    projection_errors,
    solve_source,
    v_norm_error,
    x_norm_error,
)
from wgsteklov.wgcore import LocalCell

GAMMA = GammaStabilizer(PowerEps(0.1))


def test_exponential_solution_family():
    sol = exponential_solution()
    pts = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
    assert np.allclose(sol.u(pts), np.exp(pts[:, 0]))
    assert np.allclose(sol.grad(pts)[:, 0], np.exp(pts[:, 0]))
    assert np.allclose(sol.grad(pts)[:, 1], 0.0)
    assert np.allclose(sol.flux(pts, np.array([0.0, -1.0])), 0.0)
    sol2 = exponential_solution(0.6, 0.8)
    g = sol2.grad(pts)
    assert np.allclose(g[:, 0] * 0.8 - g[:, 1] * 0.6, 0.0)  # grad parallel to (a, b)
    for a, b in ((1.0, 1.0), (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)):
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 = 1"):
            exponential_solution(a, b)


def test_zero_flux_gives_zero_solution():
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    u = solve_source(DofMap(mesh, 1), GAMMA, lambda pts, normal: np.zeros(len(pts)))
    assert np.linalg.norm(u) == 0.0


def test_galerkin_orthogonality(rng):
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 1)
    sol = exponential_solution()
    u = solve_source(dof_map, GAMMA, sol.flux)
    pair = assemble(dof_map, GAMMA)
    F = boundary_load(dof_map, sol.flux)
    r = assembled_A(pair) @ u - F
    for _ in range(20):
        v = rng.standard_normal(len(u))
        v /= np.linalg.norm(v)
        assert abs(v @ r) <= 1e-9


@pytest.mark.parametrize("stabilizer", [GAMMA, AlphaStabilizer(0.01)], ids=["gamma", "alpha"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("domain", DOMAINS)
def test_condensed_solve_matches_full_solve(domain, n, k, stabilizer):
    # the cell elimination is exact, so the solution is that of the full
    # system up to roundoff
    mesh = build_structured_mesh(domain, n)
    dof_map = DofMap(mesh, k)
    sol = exponential_solution()
    u = solve_source(dof_map, stabilizer, sol.flux)
    A = assembled_A(assemble(dof_map, stabilizer)).tocsc()
    want = spla.spsolve(A, boundary_load(dof_map, sol.flux))
    assert np.linalg.norm(u - want) <= 1e-10 * np.linalg.norm(want)


def test_source_backward_error_gate_runs():
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    with pytest.raises(NumericalError, match="source solve residual"):
        solve_source(DofMap(mesh, 1), GAMMA, exponential_solution().flux, rtol=0.0)


def test_source_backward_error_gate_rejects_nan_load():
    # a NaN load has no positive norm; the gate runs all the same
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    nan_flux = lambda pts, normal: np.full(len(pts), np.nan)
    with pytest.raises(NumericalError, match="source solve residual nan"):
        solve_source(DofMap(mesh, 1), GAMMA, nan_flux)


def test_cli_source_singular_cell_block_exits_2(monkeypatch, capsys):
    def singular_assemble(*args):
        pair = assemble(*args)
        d = pair.dof_map.dim_cell
        pair.local[pair.dof_map.classes.class_of[0], :d, :d] = 0.0
        return pair

    monkeypatch.setattr(source, "assemble", singular_assemble)
    argv = ["source", "--domain", "square", "--k", "1", "--gamma", "pow:0.1", "--levels", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "stage 'solve'" in err and "singular cell block" in err


def test_solver_is_purely_algebraic(rng):
    # data from a polynomial that does not satisfy the interior equation:
    # the solver still returns the exact algebraic solution
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 1)
    flux = lambda pts, normal: pts[:, 0] * normal[0] + 2.0 * normal[1]
    u = solve_source(dof_map, GAMMA, flux)
    pair = assemble(dof_map, GAMMA)
    F = boundary_load(dof_map, flux)
    assert np.linalg.norm(assembled_A(pair) @ u - F) <= 1e-11 * np.linalg.norm(F)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("domain", DOMAINS)
def test_v_norm_error_of_interpolant_is_zero(domain, k):
    mesh = build_structured_mesh(domain, 4)
    dof_map = DofMap(mesh, k)
    sol = exponential_solution()
    q = interpolate(dof_map, sol.u)
    assert v_norm_error(q, interpolant(sol, dof_map), dof_map) <= 1e-12


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("domain", DOMAINS)
def test_v_norm_of_constant_interpolant(domain, k):
    # interpolating u = 1 gives zero gradient and zero trace mismatch, so the
    # V-norm reduces to the L2 norm, i.e. the square root of the domain area
    mesh = build_structured_mesh(domain, 4)
    dof_map = DofMap(mesh, k)
    one = ManufacturedSolution(
        lambda p: np.ones(len(p)), lambda p: np.zeros((len(p), 2)), label="one"
    )
    root_area = np.sqrt(DOMAIN_AREA[domain])
    q = interpolant(one, dof_map)
    assert v_norm_error(np.zeros_like(q), q, dof_map) == pytest.approx(root_area, rel=1e-12)
    assert discrete_v_norm(dof_map, q) == pytest.approx(root_area, rel=1e-12)


def _exact_integral(poly_a, poly_b, domain):
    """Integral of the product of two Poly2 over the domain, monomial by monomial.

    The L-shape is the unit square minus the box [1/2, 1]^2.
    """
    boxes = [(0.0, 1.0, 0.0, 1.0, 1.0)]
    if domain == L_SHAPE:
        boxes.append((0.5, 1.0, 0.5, 1.0, -1.0))
    total = 0.0
    for (a1, b1), ca in zip(poly_a.exponents, poly_a.coefficients):
        for (a2, b2), cb in zip(poly_b.exponents, poly_b.coefficients):
            i, j = a1 + a2, b1 + b2
            for x0, x1, y0, y1, sign in boxes:
                ix = (x1 ** (i + 1) - x0 ** (i + 1)) / (i + 1)
                iy = (y1 ** (j + 1) - y0 ** (j + 1)) / (j + 1)
                total += sign * ca * cb * ix * iy
    return total


def _partials(poly):
    """The x- and y-derivatives of a Poly2, as Poly2."""
    a, b = poly.exponents[:, 0], poly.exponents[:, 1]
    dx = Poly2(np.stack([np.maximum(a - 1, 0), b], axis=1), poly.coefficients * a)
    dy = Poly2(np.stack([a, np.maximum(b - 1, 0)], axis=1), poly.coefficients * b)
    return dx, dy


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("domain", DOMAINS)
def test_norms_of_polynomial_interpolant_closed_form(domain, k, rng):
    # for p of degree <= k the interpolant is exact: its V-norm is the H1
    # norm of p, integrated in closed form, and the projection defects vanish
    mesh = build_structured_mesh(domain, 4)
    dof_map = DofMap(mesh, k)
    poly = random_poly(rng, k)
    exact = sum(_exact_integral(f, f, domain) for f in (poly, *_partials(poly)))
    q = interpolate(dof_map, poly)
    assert discrete_v_norm(dof_map, q) == pytest.approx(np.sqrt(exact), rel=1e-12)
    sol = ManufacturedSolution(poly, poly.grad, label="poly")
    pv, px = projection_errors(sol, interpolant(sol, dof_map), dof_map)
    assert pv <= 1e-12 and px <= 1e-12


def _per_cell_v_norm(mesh, k, coeffs):
    """Reference for discrete_v_norm: one LocalCell and quadrature map per cell."""
    c0s, cbs = DofMap(mesh, k).split(coeffs)
    rule = triangle_quadrature(2 * k + 3)
    erule = edge_quadrature(2 * k + 3)
    eb = EdgeBasis(k).eval(erule.points)
    total = 0.0
    for ci in range(mesh.n_cells):
        cell = LocalCell.from_mesh(mesh, ci, k)
        pts, w = map_to_triangle(rule, cell.vertices)
        g = cell.basis.grad(pts)
        total += c0s[ci] @ c0s[ci] + w @ ((g[:, :, 0] @ c0s[ci]) ** 2 + (g[:, :, 1] @ c0s[ci]) ** 2)
        for l in range(3):
            epts, ew = map_to_edge(erule, *cell.edge_canonical(l))
            mismatch = cell.basis.eval(epts) @ c0s[ci] - eb @ cbs[mesh.cell_edges[ci, l]]
            total += ew @ mismatch**2 / cell.diameter
    return np.sqrt(total)


@pytest.mark.parametrize("domain", DOMAINS)
def test_class_tabulated_quadrature_matches_per_cell_loops(domain, rng):
    # the class tables evaluate every cell with its representative's basis;
    # per-cell loops are the reference, equal up to roundoff
    k = 2
    mesh = renumbered_mesh(build_structured_mesh(domain, 4), rng)
    dof_map = DofMap(mesh, k)
    f = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    q = interpolate(dof_map, f)
    c0, cb = dof_map.split(q)
    for ci in range(mesh.n_cells):
        want = project_cell(LocalCell.from_mesh(mesh, ci, k), f, quad_degree=2 * k + 6)
        assert np.allclose(c0[ci], want, rtol=0, atol=1e-13)
    for ei in range(mesh.n_edges):
        want = project_edge(k, *mesh.vertices[mesh.edges[ei]], f, quad_degree=2 * k + 6)
        assert np.allclose(cb[ei], want, rtol=0, atol=1e-13)
    v = rng.standard_normal(len(q))
    assert discrete_v_norm(dof_map, v) == pytest.approx(_per_cell_v_norm(mesh, k, v), rel=1e-12)


def test_x_norm_error_pythagoras():
    # with the boundary block replaced by the exact boundary projection, the
    # X error equals the projection defect, which bounds no more than the
    # total boundary norm
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    k = 1
    dof_map = DofMap(mesh, k)
    sol = exponential_solution()
    q = interpolate(dof_map, sol.u)
    got = x_norm_error(q, sol, dof_map)
    rule = edge_quadrature(2 * k + 12)
    eb = EdgeBasis(k).eval(rule.points)
    total = 0.0
    for ei in np.where(mesh.boundary_edge)[0]:
        lo, hi = mesh.vertices[mesh.edges[ei]]
        pts, w = map_to_edge(rule, lo, hi)
        proj = eb @ ((eb * rule.weights[:, None]).T @ sol.u(pts))
        total += float(w @ (sol.u(pts) - proj) ** 2)
    assert got == pytest.approx(np.sqrt(total), rel=1e-10)
    zero = np.zeros_like(q)
    assert got <= x_norm_error(zero, sol, dof_map)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("domain", DOMAINS)
def test_projection_errors_positive_and_decreasing(domain, k):
    sol = exponential_solution()
    dof_map8, dof_map16 = (DofMap(build_structured_mesh(domain, n), k) for n in (8, 16))
    v8, x8 = projection_errors(sol, interpolant(sol, dof_map8), dof_map8)
    v16, x16 = projection_errors(sol, interpolant(sol, dof_map16), dof_map16)
    assert 0 < v16 < v8
    assert 0 < x16 < x8


def test_source_study_orders_small():
    report = run_source_study(UNIT_SQUARE, 1, GAMMA, (8, 16, 32))
    assert report.v_fitted >= 0.85
    assert report.x_fitted >= 1.25
    assert all(o is not None for o in report.v_orders[1:])
    csv = report.render("csv")
    assert csv.splitlines()[0].startswith("n,h,v_error")
    assert len(csv.splitlines()) == 4
