"""Local weak Galerkin machinery on a single cell.

A discrete unknown on a cell is the block vector (v0, vb1, vb2, vb3): the
interior polynomial of degree <= k followed by one polynomial of degree <= k
per edge, each expressed in the orthonormal bases of :mod:`polyquad`.  This
module provides the discrete weak gradient and the local factor F of the
principal form, whose local matrix is F^T F.
Whole-mesh quadrature goes through :class:`CellQuadrature`, which tabulates
the cell basis once per congruence class, and :class:`EdgeQuadrature`.
"""

import math

import numpy as np

from .mesh import group_rows
from .polyquad import (
    CellBasis,
    EdgeBasis,
    dim_pk,
    edge_quadrature,
    map_to_triangle,
    triangle_quadrature,
)

# Quadrature exactness margins over the 2k needed for mass matrices: POLY for
# piecewise-polynomial integrands, ANALYTIC for smooth non-polynomial ones.
POLY_MARGIN = 3
ANALYTIC_MARGIN = 6


class LocalCell:
    """Geometry and bases of one triangle, ready for local WG operators.

    Local edge l runs counter-clockwise from vertex l to vertex (l + 1) % 3.
    ``flips[l]`` is True when the canonical edge parameterization (used for
    the shared edge DOFs) runs opposite to that traversal; the canonical
    start/end points are exposed via :meth:`edge_canonical`.  ``basis`` is
    orthonormalized from graded monomials by Cholesky, so its leading
    dim P_{k-1} members psi_i are the orthonormal P_{k-1}(T) basis: the weak
    gradient is expanded in (psi_i, 0) for every i, then (0, psi_i).
    """

    def __init__(self, vertices, k, flips=(False, False, False)):
        self.vertices = np.asarray(vertices, dtype=float)
        self.k = check_degree(k)
        self.flips = tuple(bool(f) for f in flips)
        self.basis = CellBasis(self.vertices, self.k)
        self.edge_basis = EdgeBasis(self.k)
        self.area = self.basis.area
        self.diameter = self.basis.diameter
        tangents = self.vertices[[1, 2, 0]] - self.vertices
        self.edge_lengths = np.linalg.norm(tangents, axis=1)
        normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
        self.normals = normals / self.edge_lengths[:, None]
        self.n_interior = self.basis.dim
        self.n_edge = self.k + 1
        self.n_loc = self.n_interior + 3 * self.n_edge

    @classmethod
    def from_mesh(cls, mesh, ci, k):
        flips = tuple(mesh.cell_edge_signs[ci] < 0)
        return cls(mesh.vertices[mesh.cells[ci]], k, flips)

    def edge_slice(self, l):
        start = self.n_interior + l * self.n_edge
        return slice(start, start + self.n_edge)

    def edge_canonical(self, l):
        """Canonical (t=0, t=1) endpoints of local edge l."""
        p = self.vertices[l]
        q = self.vertices[(l + 1) % 3]
        return (q, p) if self.flips[l] else (p, q)

    def edge_points(self, t):
        """Points at canonical parameters t on the three edges, (3, len(t), 2);
        a weight w on [0, 1] becomes w * edge_lengths[l] on edge l."""
        lo, hi = np.moveaxis([self.edge_canonical(l) for l in range(3)], 1, 0)
        return lo[:, None] + np.asarray(t)[:, None] * (hi - lo)[:, None]


def weak_gradient_map(cell):
    """Matrix mapping local DOFs to weak-gradient coefficients.

    Row i, column j holds (grad_w of local basis DOF j, w_i)_T, where the
    w_i are (psi_i, 0) for each of the leading dim P_{k-1} members psi_i of
    ``cell.basis``, then (0, psi_i); the weak gradient of a local DOF
    vector v is G @ v.
    """
    k = cell.k
    m = dim_pk(k - 1)
    deg = 2 * k + POLY_MARGIN
    pts, w = map_to_triangle(triangle_quadrature(deg), cell.vertices)
    phi = cell.basis.eval(pts)
    grad = cell.basis.grad(pts)[:, :m]
    div = np.concatenate([grad[..., 0], grad[..., 1]], axis=1)
    G = np.zeros((div.shape[1], cell.n_loc))
    G[:, : cell.n_interior] = -(div * w[:, None]).T @ phi

    rule = edge_quadrature(deg)
    eb = cell.edge_basis.eval(rule.points)
    psi = evaluate(cell.basis.eval, cell.edge_points(rule.points))[..., :m]
    for l in range(3):
        wn = np.concatenate([psi[l] * n for n in cell.normals[l]], axis=1)
        ew = rule.weights * cell.edge_lengths[l]
        G[:, cell.edge_slice(l)] += (wn * ew[:, None]).T @ eb
    return G


def local_factor(cell, kind):
    """The rows F of the local matrix F^T F of the principal form with unit
    stabilizer coefficient: the weak-gradient rows G, the interior identity
    rows, then the stabilizer rows, the mismatches v0 - vb at the points of
    the degree 2k + 3 edge rule, each scaled by the square root of its
    arclength weight times the edge weight, h_T^{-1} for ``kind`` "gamma"
    and |T| / (3 h_T^2 |e|) for "alpha"."""
    rule = edge_quadrature(2 * cell.k + POLY_MARGIN)
    edge_weight = {
        "gamma": np.full(3, 1.0 / cell.diameter),
        "alpha": cell.area / (3.0 * cell.diameter**2 * cell.edge_lengths),
    }[kind]
    D = np.zeros((3, len(rule.points), cell.n_loc))
    D[..., : cell.n_interior] = evaluate(cell.basis.eval, cell.edge_points(rule.points))
    eb = cell.edge_basis.eval(rule.points)
    for l in range(3):
        D[l, :, cell.edge_slice(l)] = -eb
    D *= np.sqrt(np.outer(cell.edge_lengths * edge_weight, rule.weights))[..., None]
    mass = np.eye(cell.n_interior, cell.n_loc)
    return np.concatenate([weak_gradient_map(cell), mass, D.reshape(-1, cell.n_loc)])


def check_degree(k):
    """The polynomial degree k as an int; raises ValueError unless k >= 1,
    since the weak gradient lives in P_{k-1}."""
    k = int(k)
    if k < 1:
        raise ValueError(f"polynomial degree k must be >= 1, got {k}")
    return k


def check_alpha(alpha):
    """Reject a stabilizer coefficient alpha that is not finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


class CellClasses:
    """The cells of a mesh grouped into translation-invariant congruence classes.

    Two cells share a class when their vertex coordinates relative to the
    first vertex agree after rounding to 12 decimals and their edges have
    the same canonical orientations; their bases and local operators then
    agree up to roundoff.  Classes are numbered by first appearance, and the
    first cell of each class is its representative.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = int(k)
        verts = mesh.vertices[mesh.cells]
        rel = np.round(verts - verts[:, :1], 12).reshape(mesh.n_cells, 6)
        # compare the bit patterns of the rounded coordinates
        key = np.concatenate([rel.view(np.int64), mesh.cell_edge_signs], axis=1)
        first, inverse = group_rows(key)
        order = np.argsort(first)
        self.class_of = np.argsort(order)[inverse]
        self.representatives = first[order]
        self.members = np.split(
            np.argsort(self.class_of, kind="stable"),
            np.cumsum(np.bincount(self.class_of))[:-1],
        )
        self.cells = [LocalCell.from_mesh(mesh, ci, k) for ci in self.representatives]

    @property
    def n_classes(self):
        return len(self.representatives)


def evaluate(f, points):
    """f on a stacked (..., 2) point array, with values shaped like the stack."""
    values = np.asarray(f(points.reshape(-1, 2)), dtype=float)
    return values.reshape(points.shape[:-1] + values.shape[1:])


class CellQuadrature:
    """A triangle rule of degree 2k + ANALYTIC_MARGIN on every cell, for smooth
    and polynomial integrands alike, with the cell basis tabulated per class.

    Per cell only the physical ``points`` (C, q, 2), ``weights`` (C, q) and
    ``edge_weights`` (arclength weights over the diameter, (C, 3, qe)) are
    stored.  Basis values, gradients and edge traces are tabulated at each
    representative's points, so evaluating cell polynomials with coefficient
    rows ``c0`` (C, dim) takes one matrix product per class.  A narrower
    ``c0`` uses the leading basis members, which span P_j for dim = dim P_j.
    """

    def __init__(self, classes):
        self.classes = classes
        mesh = classes.mesh
        degree = 2 * classes.k + ANALYTIC_MARGIN
        rule = triangle_quadrature(degree)
        erule = edge_quadrature(degree)
        self.points = rule.points @ mesh.vertices[mesh.cells]
        self.weights = rule.weights * mesh.area[:, None]
        scaled = mesh.length[mesh.cell_edges] / mesh.diameter[:, None]
        self.edge_weights = scaled[:, :, None] * erule.weights
        self.edge_basis = EdgeBasis(classes.k).eval(erule.points)
        self._values, self._grads, self._traces = [], [], []
        for cell, pts in zip(classes.cells, self.points[classes.representatives]):
            self._values.append(cell.basis.eval(pts).T)
            self._grads.append(cell.basis.grad(pts).transpose(1, 0, 2).reshape(cell.n_interior, -1))
            self._traces.append(cell.basis.eval(cell.edge_points(erule.points).reshape(-1, 2)).T)

    def _per_class(self, tables, c0, shape):
        out = np.empty((len(c0),) + shape)
        for members, table in zip(self.classes.members, tables):
            out[members] = (c0[members] @ table[: c0.shape[1]]).reshape((-1,) + shape)
        return out

    def values(self, c0):
        """Cell polynomial values at the quadrature points, (C, q)."""
        return self._per_class(self._values, c0, self.weights.shape[1:])

    def gradients(self, c0):
        """Cell polynomial gradients at the quadrature points, (C, q, 2)."""
        return self._per_class(self._grads, c0, self.points.shape[1:])

    def project(self, values):
        """Cellwise L2 projection coefficients of point values (C, q).

        The basis is orthonormal, so the leading dim P_j columns are the
        coefficients of the projection onto P_j.
        """
        phis = [phi.T for phi in self._values]
        return self._per_class(phis, values * self.weights, (self._values[0].shape[0],))

    def mismatch_energy(self, c0, cb):
        """sum_T h_T^{-1} ||v0 - vb||_{dT}^2 for cell rows c0 and per-edge rows cb (E, k + 1)."""
        traces = self._per_class(self._traces, c0, self.edge_weights.shape[1:])
        jump = traces - cb[self.classes.mesh.cell_edges] @ self.edge_basis.T
        return float(np.sum(self.edge_weights * jump**2))


class EdgeQuadrature:
    """An edge rule of degree 2k + ANALYTIC_MARGIN, for smooth
    non-polynomial integrands, on the given edges of the mesh of an
    `assembly.DofMap`, in canonical direction.

    Stores physical ``points`` (n, q, 2) and arclength ``weights`` (n, q)
    per edge, and the edge ``basis`` once, on the canonical parameter.
    """

    def __init__(self, dof_map, edges):
        mesh, k = dof_map.mesh, dof_map.k
        rule = edge_quadrature(2 * k + ANALYTIC_MARGIN)
        self.edges = edges
        lo, hi = np.moveaxis(mesh.vertices[mesh.edges[self.edges]], 1, 0)
        self.points = lo[:, None] + rule.points[:, None] * (hi - lo)[:, None]
        self.weights = rule.weights * mesh.length[self.edges, None]
        self.basis = EdgeBasis(k).eval(rule.points)
        self._projector = self.basis * rule.weights[:, None]

    def project(self, values):
        """Edgewise L2 projection coefficients of point values (n, q)."""
        return values @ self._projector


class LocalKernels:
    """The local factors of every cell of a mesh, one per congruence class:
    ``factors[c]`` is the `local_factor` of the representative of class c,
    whose rows from ``n_core`` on, the stabilizer rows, are scaled by the
    square root of gamma(h) or alpha at assembly time."""

    def __init__(self, classes, kind):
        self.factors = np.array([local_factor(cell, kind) for cell in classes.cells])
        self.n_core = 2 * dim_pk(classes.k - 1) + dim_pk(classes.k)


def epsilon_h_diagnostic(u, grad_u, dof_map, gamma_value):
    """Projection-defect energy of u minus the stabilizer energy of its interpolant.

    Returns sum_T ||(I - Q_vec) grad u||_T^2 + ||(I - Q_0) u||_T^2
    - s_gamma(Q_h u, Q_h u) on the space of an `assembly.DofMap`, evaluated
    residual-first so small values are not lost to cancellation.  `u` maps
    (n, 2) points to values, `grad_u` to (n, 2) gradients.
    """
    k = dof_map.k
    cells = dof_map.cell_quadrature
    edges = EdgeQuadrature(dof_map, np.arange(dof_map.mesh.n_edges))
    uq = evaluate(u, cells.points)
    gq = evaluate(grad_u, cells.points)
    c0 = cells.project(uq)
    defect = float(np.sum(cells.weights * (uq - cells.values(c0)) ** 2))
    for comp in range(2):
        cg = cells.project(gq[..., comp])[:, : dim_pk(k - 1)]
        defect += float(np.sum(cells.weights * (gq[..., comp] - cells.values(cg)) ** 2))
    stab = cells.mismatch_energy(c0, edges.project(evaluate(u, edges.points)))
    return defect - gamma_value * stab
