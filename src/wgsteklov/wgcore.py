"""Local weak Galerkin machinery on a single cell.

A discrete unknown on a cell is the block vector (v0, vb1, vb2, vb3): the
interior polynomial of degree <= k followed by one polynomial of degree <= k
per edge, each expressed in the orthonormal bases of :mod:`polyquad`.  This
module provides the L2 projections, the discrete weak gradient, the two
trace-penalty stabilizers, and the local contributions to the global forms.
Whole-mesh quadrature goes through :class:`CellQuadrature`, which tabulates
the cell basis once per congruence class, and :class:`EdgeQuadrature`.
"""

import numpy as np

from .polyquad import (
    CellBasis,
    EdgeBasis,
    VectorBasis,
    dim_pk,
    edge_quadrature,
    map_to_edge,
    map_to_triangle,
    triangle_quadrature,
)

# Quadrature exactness margins over the 2k needed for mass matrices: POLY for
# piecewise-polynomial integrands, ANALYTIC for smooth non-polynomial ones.
POLY_MARGIN = 3
ANALYTIC_MARGIN = 6


def n_local(k):
    """Length of the local DOF block: dim P_k(T) + 3 (k + 1)."""
    return dim_pk(k) + 3 * (k + 1)


class LocalCell:
    """Geometry and bases of one triangle, ready for local WG operators.

    Local edge l runs counter-clockwise from vertex l to vertex (l + 1) % 3.
    ``flips[l]`` is True when the canonical edge parameterization (used for
    the shared edge DOFs) runs opposite to that traversal; the canonical
    start/end points are exposed via :meth:`edge_canonical`.
    """

    def __init__(self, vertices, k, flips=(False, False, False)):
        self.vertices = np.asarray(vertices, dtype=float)
        self.k = int(k)
        if self.k < 1:
            raise ValueError(f"polynomial degree k must be >= 1, got {k}")
        self.flips = tuple(bool(f) for f in flips)
        self.basis = CellBasis(self.vertices, self.k)
        self._vector_basis = None
        self.edge_basis = EdgeBasis(self.k)
        self.area = self.basis.area
        self.diameter = self.basis.diameter
        tangents = self.vertices[[1, 2, 0]] - self.vertices
        self.edge_lengths = np.linalg.norm(tangents, axis=1)
        self.perimeter = float(self.edge_lengths.sum())
        normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
        self.normals = normals / self.edge_lengths[:, None]
        self.n_interior = self.basis.dim
        self.n_edge = self.k + 1
        self.n_loc = self.n_interior + 3 * self.n_edge

    @property
    def vector_basis(self):
        if self._vector_basis is None:
            self._vector_basis = VectorBasis(self.vertices, self.k)
        return self._vector_basis

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
    """
    deg = quad_degree if quad_degree is not None else 2 * cell.k + POLY_MARGIN
    pts, w = map_to_triangle(triangle_quadrature(deg), cell.vertices)
    values = np.asarray(f(pts), dtype=float)
    phi = cell.vector_basis.scalar.eval(pts)
    cx = (phi * w[:, None]).T @ values[:, 0]
    cy = (phi * w[:, None]).T @ values[:, 1]
    return np.concatenate([cx, cy])


def weak_gradient_map(cell):
    """Matrix mapping local DOFs to weak-gradient coefficients.

    Row i, column j holds (grad_w of local basis DOF j, w_i)_T for the i-th
    orthonormal vector basis member w_i, i.e. the weak gradient of a local
    DOF vector v is G @ v in vector-basis coefficients.
    """
    k = cell.k
    deg = 2 * k + POLY_MARGIN
    pts, w = map_to_triangle(triangle_quadrature(deg), cell.vertices)
    phi = cell.basis.eval(pts)
    div = cell.vector_basis.divergence(pts)
    G = np.zeros((cell.vector_basis.dim, cell.n_loc))
    G[:, : cell.n_interior] = -(div * w[:, None]).T @ phi

    rule = edge_quadrature(deg)
    eb = cell.edge_basis.eval(rule.points)
    for l in range(3):
        lo, hi = cell.edge_canonical(l)
        epts, ew = map_to_edge(rule, lo, hi)
        wn = cell.vector_basis.normal_trace(epts, cell.normals[l])
        G[:, cell.edge_slice(l)] += (wn * ew[:, None]).T @ eb
    return G


def _edge_mismatch_blocks(cell):
    """Per-edge matrices of the quadratic form <v0 - vb, w0 - wb>_{L2(e)}."""
    rule = edge_quadrature(2 * cell.k + POLY_MARGIN)
    eb = cell.edge_basis.eval(rule.points)
    blocks = []
    for l in range(3):
        lo, hi = cell.edge_canonical(l)
        epts, ew = map_to_edge(rule, lo, hi)
        D = np.zeros((len(rule.points), cell.n_loc))
        D[:, : cell.n_interior] = cell.basis.eval(epts)
        D[:, cell.edge_slice(l)] = -eb
        blocks.append((D * ew[:, None]).T @ D)
    return blocks


def local_stabilizer_gamma(cell, gamma_value):
    """Trace-penalty stabilizer gamma * h_T^{-1} sum_e <v0 - vb, w0 - wb>_e."""
    if not 0.0 < gamma_value <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma_value}")
    blocks = _edge_mismatch_blocks(cell)
    return gamma_value / cell.diameter * sum(blocks)


def local_stabilizer_alpha(cell, alpha):
    """Volume-weighted stabilizer (alpha/3) h_T^{-2} |T| sum_e |e|^{-1} <...>_e."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    blocks = _edge_mismatch_blocks(cell)
    scale = alpha / 3.0 * cell.area / cell.diameter**2
    return scale * sum(b / el for b, el in zip(blocks, cell.edge_lengths))


def local_aw(cell, stabilizer):
    """Local matrix of the principal form: weak-gradient energy + interior mass + stabilizer."""
    G = weak_gradient_map(cell)
    A = G.T @ G
    A[: cell.n_interior, : cell.n_interior] += np.eye(cell.n_interior)
    A += stabilizer
    return 0.5 * (A + A.T)


def local_bw(mesh, edge_index, k):
    """L2(e) mass matrix of the edge basis on a boundary edge.

    An index array gives the stacked matrices of those edges.
    """
    edge_index = np.asarray(edge_index)
    if not np.all(mesh.boundary_edge[edge_index]):
        raise ValueError(f"edge {edge_index} is interior; the boundary form has no support there")
    rule = edge_quadrature(2 * k + POLY_MARGIN)
    eb = EdgeBasis(k).eval(rule.points)
    return mesh.length[edge_index][..., None, None] * (eb * rule.weights[:, None]).T @ eb


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
        _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        self.class_of = np.argsort(order)[inverse.ravel()]
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
    """A triangle rule on every cell, with the cell basis tabulated per class.

    Per cell only the physical ``points`` (C, q, 2), ``weights`` (C, q) and
    ``edge_weights`` (arclength weights over the diameter, (C, 3, qe)) are
    stored.  Basis values, gradients and edge traces are tabulated at each
    representative's points, so evaluating cell polynomials with coefficient
    rows ``c0`` (C, dim) takes one matrix product per class.  A narrower
    ``c0`` uses the leading basis members, which span P_j for dim = dim P_j.
    """

    def __init__(self, classes, degree):
        self.classes = classes
        mesh = classes.mesh
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
            edge_pts = [map_to_edge(erule, *cell.edge_canonical(l))[0] for l in range(3)]
            self._traces.append(cell.basis.eval(np.concatenate(edge_pts)).T)

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
    """An edge rule on the given mesh edges, in canonical direction.

    Stores physical ``points`` (n, q, 2) and arclength ``weights`` (n, q)
    per edge, and the edge ``basis`` once, on the canonical parameter.
    """

    def __init__(self, mesh, k, degree, edges):
        rule = edge_quadrature(degree)
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
    """Local operator matrices for every cell of a mesh, one set per congruence class.

    ``core`` is the stabilizer-free part G^T G + interior mass;
    ``stab_gamma`` and ``stab_alpha`` are the unit-coefficient stabilizers,
    to be scaled by gamma(h) or alpha at assembly time.  Kernels are
    computed on the representative of each :class:`CellClasses` class.
    """

    def __init__(self, classes):
        self._kernels = [self._compute(cell) for cell in classes.cells]

    def _compute(self, cell):
        sg = local_stabilizer_gamma(cell, 1.0)
        sa = local_stabilizer_alpha(cell, 1.0)
        return local_aw(cell, 0.0), 0.5 * (sg + sg.T), 0.5 * (sa + sa.T)

    def per_class(self, coefficient, kind):
        """(n_classes, n_loc, n_loc) array of local matrices with the
        coefficient applied, one per class."""
        which = {"gamma": 1, "alpha": 2}[kind]
        return np.array([core + coefficient * stabs[which - 1] for core, *stabs in self._kernels])

    def stabilizer_per_class(self, kind):
        """(n_classes, n_loc, n_loc) array of unit-coefficient stabilizers."""
        which = {"gamma": 1, "alpha": 2}[kind]
        return np.array([kern[which] for kern in self._kernels])


def epsilon_h_diagnostic(u, grad_u, dof_map, gamma_value):
    """Projection-defect energy of u minus the stabilizer energy of its interpolant.

    Returns sum_T ||(I - Q_vec) grad u||_T^2 + ||(I - Q_0) u||_T^2
    - s_gamma(Q_h u, Q_h u) on the space of an `assembly.DofMap`, evaluated
    residual-first so small values are not lost to cancellation.  `u` maps
    (n, 2) points to values, `grad_u` to (n, 2) gradients.
    """
    mesh, k = dof_map.mesh, dof_map.k
    deg = 2 * k + ANALYTIC_MARGIN
    cells = CellQuadrature(dof_map.classes, deg)
    edges = EdgeQuadrature(mesh, k, deg, np.arange(mesh.n_edges))
    uq = evaluate(u, cells.points)
    gq = evaluate(grad_u, cells.points)
    c0 = cells.project(uq)
    defect = float(np.sum(cells.weights * (uq - cells.values(c0)) ** 2))
    for comp in range(2):
        cg = cells.project(gq[..., comp])[:, : dim_pk(k - 1)]
        defect += float(np.sum(cells.weights * (gq[..., comp] - cells.values(cg)) ** 2))
    stab = cells.mismatch_energy(c0, edges.project(evaluate(u, edges.points)))
    return defect - gamma_value * stab
