"""Shared test utilities: random geometry and polynomial oracles."""

import numpy as np
import scipy.sparse as sp

from wgsteklov.assembly import scatter_local
from wgsteklov.mesh import L_SHAPE, Mesh
from wgsteklov.polyquad import EdgeBasis, edge_quadrature, monomial_exponents
from wgsteklov.wgcore import POLY_MARGIN, project_cell, project_edge


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


def quadrature_boundary_form(dof_map):
    """Reference for `WgOperatorPair.B`: the L2(e) mass matrix of the edge
    basis on each boundary edge, by quadrature, placed on the edge's boundary
    DOFs.  Returns a sparse matrix (CSR)."""
    mesh, k = dof_map.mesh, dof_map.k
    rule = edge_quadrature(2 * k + POLY_MARGIN)
    eb = EdgeBasis(k).eval(rule.points)
    mass = mesh.length[mesh.boundary_edge][:, None, None] * (eb * rule.weights[:, None]).T @ eb
    blocks = dof_map.boundary_dofs.reshape(-1, dof_map.dim_edge)
    return scatter_local(mass, blocks, dof_map.n_dofs).tocsr()


def global_elimination(A, dof_map):
    """Reference for `eigen.eliminate_cells` on the assembled A: slice off the
    cell block A_cc, invert its d x d diagonal blocks, and form
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


def pinv_delta(forms):
    """Dense reference for `glb.estimate_delta` from its :class:`glb.ProbeDefects`:
    lambda_max(num^{1/2} pinv(den) num^{1/2}) on the whole probe space, with
    eigenvalues of den below 1e-10 of the largest cut off."""
    den = forms.den.toarray()
    num = np.zeros_like(den)
    num[np.ix_(forms.boundary, forms.boundary)] = forms.num
    w, V = np.linalg.eigh(num)
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
