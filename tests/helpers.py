"""Shared test utilities: random geometry, and oracles that the package's
solve paths do not need: the local matrix as a sum of its parts, the
assembled A, a dense QZ eigensolve, the Rayleigh quotient, the per-segment
edge map, the per-cell L2 projections and the assembled boundary numerator
of the delta estimate."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from wgsteklov.glb import LagrangeProbeSpace, probe_defects
from wgsteklov.mesh import L_SHAPE, Mesh
from wgsteklov.polyquad import (
    CellBasis,
    EdgeBasis,
    edge_quadrature,
    map_to_triangle,
    monomial_exponents,
    triangle_quadrature,
)
from wgsteklov.wgcore import POLY_MARGIN, evaluate, weak_gradient_map


def random_triangle(rng, min_area=0.05, scale=1.0):
    """A non-degenerate CCW triangle with vertices in [-scale, scale]^2."""
    while True:
        v = rng.uniform(-scale, scale, (3, 2))
        area = 0.5 * (
            (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
            - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        )
        if area < 0:
            v = v[[0, 2, 1]]
            area = -area
        if area > min_area * scale**2:
            return v


class Poly2:
    """Bivariate polynomial with explicit coefficients and exact gradient."""

    def __init__(self, exponents, coefficients):
        self.exponents = np.asarray(exponents)
        self.coefficients = np.asarray(coefficients, dtype=float)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        return (pts[:, 0:1] ** a * pts[:, 1:2] ** b) @ self.coefficients

    def grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        a, b = self.exponents[:, 0], self.exponents[:, 1]
        xa1 = np.where(a > 0, pts[:, 0:1] ** np.maximum(a - 1, 0), 0.0)
        yb1 = np.where(b > 0, pts[:, 1:2] ** np.maximum(b - 1, 0), 0.0)
        gx = (a * xa1 * pts[:, 1:2] ** b) @ self.coefficients
        gy = (pts[:, 0:1] ** a * b * yb1) @ self.coefficients
        return np.stack([gx, gy], axis=1)


def random_poly(rng, degree):
    exps = monomial_exponents(degree)
    return Poly2(exps, rng.uniform(-1.0, 1.0, len(exps)))


def interior_dofs(dof_map):
    """The DOFs off the boundary edges, ascending: the complement of `boundary_dofs`."""
    interior = np.ones(dof_map.n_dofs, dtype=bool)
    interior[dof_map.boundary_dofs] = False
    return np.flatnonzero(interior)


def local_matrix_parts(cell, kind):
    """Reference for the local matrix F^T F of `wgcore.local_factor`, formed
    from its parts: (G^T G + the interior identity, the stabilizer with
    unit coefficient), the stabilizer the sum over the edges of the
    mismatch blocks D^T W D, with D the rows v0 - vb at the points of the
    degree 2k + 3 edge rule and W their arclength weights times the edge
    weight, h_T^{-1} for "gamma" and |T| / (3 h_T^2 |e|) for "alpha"."""
    G = weak_gradient_map(cell)
    core = G.T @ G
    core[: cell.n_interior, : cell.n_interior] += np.eye(cell.n_interior)
    rule = edge_quadrature(2 * cell.k + POLY_MARGIN)
    eb = cell.edge_basis.eval(rule.points)
    traces = evaluate(cell.basis.eval, cell.edge_points(rule.points))
    if kind == "gamma":
        edge_weight = np.full(3, 1.0 / cell.diameter)
    else:
        edge_weight = cell.area / (3.0 * cell.diameter**2 * cell.edge_lengths)
    stab = np.zeros_like(core)
    for l in range(3):
        D = np.zeros((len(rule.points), cell.n_loc))
        D[:, : cell.n_interior] = traces[l]
        D[:, cell.edge_slice(l)] = -eb
        stab += edge_weight[l] * (D * (rule.weights * cell.edge_lengths[l])[:, None]).T @ D
    return core, stab


def scatter_local(local, gdofs, n_dofs):
    """A stack of local matrices (N, m, m) placed at rows and columns gdofs
    (N, m) of an n_dofs x n_dofs COO matrix; converting it sums the overlaps."""
    m = gdofs.shape[1]
    rows = np.repeat(gdofs, m, axis=1).ravel()
    cols = np.tile(gdofs, (1, m)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n_dofs, n_dofs))


def assembled_A(pair):
    """The assembled sparse principal form (CSR) of a `WgOperatorPair`: the
    local matrix of each cell's class scattered onto the cell's global DOFs."""
    dof_map = pair.dof_map
    local = pair.local[dof_map.classes.class_of]
    return scatter_local(local, dof_map.local_dofs, dof_map.n_dofs).tocsr()


def assembled_B(pair):
    """The boundary form of a `WgOperatorPair` as an n_dofs x n_dofs sparse
    matrix (CSR): its ``boundary_mass`` on the diagonal at the boundary DOFs."""
    g, n = pair.dof_map.boundary_dofs, pair.dof_map.n_dofs
    return sp.csr_matrix((pair.boundary_mass, (g, g)), shape=(n, n))


def dense_eigenvalues(pair, B=None):
    """All finite eigenvalues of (A, B) by a dense QZ solve, ascending; B
    defaults to the pair's boundary form (`assembled_B`).

    Brute-force reference path, independent of the condensation route; only
    sensible for small meshes.
    """
    A = assembled_A(pair).toarray()
    B = (assembled_B(pair) if B is None else B).toarray()
    alpha, beta = sla.eig(A, B, right=False, homogeneous_eigvals=True)
    scale = np.abs(alpha) + np.abs(beta)
    finite = np.abs(beta) > 1e-10 * scale
    values = np.real(alpha[finite] / beta[finite])
    return np.sort(values)


def rayleigh_quotient(pair, u):
    """Form quotient a_w(u, u) / b_w(u, u) of a discrete function."""
    den = float(u @ (assembled_B(pair) @ u))
    if den <= 0.0:
        raise ValueError("function has no boundary content (b_w(u, u) <= 0)")
    return float(u @ pair.apply(u)) / den


def map_to_edge(rule, p_lo, p_hi):
    """Physical points and arclength weights of an edge rule on a segment."""
    p_lo = np.asarray(p_lo, dtype=float)
    p_hi = np.asarray(p_hi, dtype=float)
    pts = p_lo[None, :] + rule.points[:, None] * (p_hi - p_lo)[None, :]
    return pts, rule.weights * float(np.hypot(*(p_hi - p_lo)))


def project_cell(cell, f, quad_degree=None):
    """Coefficients of the L2(T) projection of f onto P_k(T).

    `f` maps an (n, 2) point array to n values.  The default quadrature is
    exact for polynomial f of degree <= k + POLY_MARGIN; pass an elevated
    `quad_degree` for analytic integrands.
    """
    deg = quad_degree if quad_degree is not None else 2 * cell.k + POLY_MARGIN
    pts, w = map_to_triangle(triangle_quadrature(deg), cell.vertices)
    phi = cell.basis.eval(pts)
    return (phi * w[:, None]).T @ np.asarray(f(pts), dtype=float)


def project_edge(k, p_lo, p_hi, f, quad_degree=None):
    """Coefficients of the L2(e) projection of f onto P_k(e).

    The edge runs from `p_lo` (t=0) to `p_hi` (t=1) in its canonical
    parameterization; `f` maps an (n, 2) point array to n values.
    """
    deg = quad_degree if quad_degree is not None else 2 * k + POLY_MARGIN
    rule = edge_quadrature(deg)
    pts, _ = map_to_edge(rule, p_lo, p_hi)
    phi = EdgeBasis(k).eval(rule.points)
    return (phi * rule.weights[:, None]).T @ np.asarray(f(pts), dtype=float)


def project_vector(cell, f, quad_degree=None):
    """Coefficients of the componentwise L2 projection onto [P_{k-1}(T)]^2.

    `f` maps an (n, 2) point array to an (n, 2) array of vector values.
    The P_{k-1} basis is built here on its own, apart from the one the
    package reads off the leading members of ``cell.basis``.
    """
    deg = quad_degree if quad_degree is not None else 2 * cell.k + POLY_MARGIN
    pts, w = map_to_triangle(triangle_quadrature(deg), cell.vertices)
    values = np.asarray(f(pts), dtype=float)
    phi = CellBasis(cell.vertices, cell.k - 1).eval(pts)
    cx = (phi * w[:, None]).T @ values[:, 0]
    cy = (phi * w[:, None]).T @ values[:, 1]
    return np.concatenate([cx, cy])


def quadrature_boundary_form(dof_map):
    """Reference for the boundary form B of a `WgOperatorPair`: the L2(e) mass matrix of the edge
    basis on each boundary edge, by quadrature, placed on the edge's boundary
    DOFs.  Returns a sparse matrix (CSR)."""
    mesh, k = dof_map.mesh, dof_map.k
    rule = edge_quadrature(2 * k + POLY_MARGIN)
    eb = EdgeBasis(k).eval(rule.points)
    mass = mesh.length[mesh.boundary_edge][:, None, None] * (eb * rule.weights[:, None]).T @ eb
    blocks = dof_map.boundary_dofs.reshape(-1, dof_map.dim_edge)
    return scatter_local(mass, blocks, dof_map.n_dofs).tocsr()


def global_elimination(A, dof_map):
    """Reference for the cell elimination of `eigen.condense`, on the
    assembled A: slice off the cell block A_cc, invert its d x d diagonal blocks, and form
    W = A_cc^{-1} A_ce and E = A_ee - A_ce^T W by sparse products.
    Returns (W, E)."""
    A = A.tocsc()
    nc, d = dof_map.n_cell_dofs, dof_map.dim_cell
    coo = A[:nc, :nc].tocoo()
    assert np.all(coo.row // d == coo.col // d), "cell block is not block diagonal"
    blocks = np.zeros((nc // d, d, d))
    blocks[coo.row // d, coo.row % d, coo.col % d] = coo.data
    inv = np.linalg.inv(blocks)
    A_ce = A[:nc, nc:].tocsc()
    inv_cc = sp.bsr_matrix((inv, np.arange(nc // d), np.arange(nc // d + 1)), shape=(nc, nc))
    W = (inv_cc.tocsc() @ A_ce).tocsc()
    return W, (A[nc:, nc:] - A_ce.T @ W).tocsc()


def local_interpolant(cell, f, quad_degree=None):
    """Local DOF vector of the interpolant (Q0 f, Qb f per edge) on one cell."""
    dofs = np.zeros(cell.n_loc)
    dofs[: cell.n_interior] = project_cell(cell, f, quad_degree=quad_degree)
    for l in range(3):
        lo, hi = cell.edge_canonical(l)
        dofs[cell.edge_slice(l)] = project_edge(cell.k, lo, hi, f, quad_degree=quad_degree)
    return dofs


def renumbered_mesh(mesh, rng):
    """The same cells with the vertices numbered at random, so translated cells
    differ in their canonical edge orientations."""
    perm = rng.permutation(mesh.n_vertices)
    return Mesh(mesh.vertices[np.argsort(perm)], perm[mesh.cells])


def jittered_mesh(mesh, rng):
    """The same connectivity with every vertex shifted at random by up to 8 %
    of the shortest edge, so no two cells are congruent."""
    shift = 0.08 * mesh.length.min()
    return Mesh(mesh.vertices + rng.uniform(-shift, shift, mesh.vertices.shape), mesh.cells)


def boundary_numerator(dof_map, probe_degree):
    """Dense reference for the boundary projection defect of `glb.probe_defects`
    on the whole P_{probe_degree} probe space: per boundary edge, the mass of
    the residual of each probe trace's L2 projection onto P_k, assembled."""
    mesh, k, p = dof_map.mesh, dof_map.k, probe_degree
    space = LagrangeProbeSpace(mesh, p)
    erule = edge_quadrature(2 * p + 2)
    eb = EdgeBasis(k).eval(erule.points)
    tnodes = np.concatenate([[0.0, 1.0], np.arange(1, p) / p])
    tv = np.vander(tnodes, p + 1, increasing=True)
    trace = np.vander(erule.points, p + 1, increasing=True) @ np.linalg.inv(tv)
    resid = trace - eb @ (eb * erule.weights[:, None]).T @ trace
    block = (resid * erule.weights[:, None]).T @ resid
    edges = np.where(mesh.boundary_edge)[0]
    gd = np.hstack([mesh.edges[edges], space.edge_node_dofs(edges)])
    num = np.zeros((space.n_dofs, space.n_dofs))
    np.add.at(num, (gd[:, :, None], gd[:, None, :]), mesh.length[edges, None, None] * block)
    return 0.5 * (num + num.T)


def pinv_delta(dof_map, probe_degree):
    """Dense reference for `glb.estimate_delta`: lambda_max(num^{1/2}
    pinv(den) num^{1/2}) on the whole probe space, with num the
    `boundary_numerator` and den the denominator of `glb.probe_defects`,
    whose eigenvalues below 1e-10 of the largest are cut off."""
    den = probe_defects(dof_map, probe_degree).den.toarray()
    w, V = np.linalg.eigh(boundary_numerator(dof_map, probe_degree))
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    pinv = np.linalg.pinv(den, rtol=1e-10, hermitian=True)
    return float(np.linalg.eigvalsh(root @ pinv @ root)[-1])


def loop_edges(cells):
    """Reference for `Mesh._build_edges`: one pass over (cell, local edge),
    numbering the edges by first occurrence.  Returns (edges, cell_edges,
    cell_edge_signs, edge_cells, boundary_edge)."""
    cells = np.asarray(cells, dtype=np.int64)
    index = {}
    cell_edges = np.empty_like(cells)
    signs = np.empty_like(cells)
    incident = []
    for ci, tri in enumerate(cells):
        for l in range(3):
            p, q = int(tri[l]), int(tri[(l + 1) % 3])
            key = (min(p, q), max(p, q))
            if key not in index:
                index[key] = len(index)
                incident.append([])
            cell_edges[ci, l] = index[key]
            signs[ci, l] = 1 if p < q else -1
            incident[index[key]].append(ci)
    edges = np.array(list(index), dtype=np.int64).reshape(-1, 2)
    edge_cells = np.array([(c + [-1])[:2] for c in incident], dtype=np.int64).reshape(-1, 2)
    return edges, cell_edges, signs, edge_cells, edge_cells[:, 1] < 0


def loop_structured_mesh(domain, n):
    """Reference for `mesh.build_structured_mesh`: one pass over the grid
    points and one over the squares, numbering the kept points through a
    dict.  Returns (vertices, cells)."""
    removed_vertex = lambda i, j: domain == L_SHAPE and i > n // 2 and j > n // 2
    removed_square = lambda i, j: domain == L_SHAPE and i >= n // 2 and j >= n // 2
    index = {}
    vertices = []
    for j in range(n + 1):
        for i in range(n + 1):
            if not removed_vertex(i, j):
                index[(i, j)] = len(vertices)
                vertices.append((i / n, j / n))
    cells = []
    for j in range(n):
        for i in range(n):
            if not removed_square(i, j):
                a, b = index[(i, j)], index[(i + 1, j)]
                c, d = index[(i + 1, j + 1)], index[(i, j + 1)]
                cells += [(a, b, c), (a, c, d)]
    return np.array(vertices, dtype=float), np.array(cells, dtype=np.int64)
