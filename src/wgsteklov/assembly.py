"""Global DOF management and assembly of the operator pair (A, B).

DOFs are numbered cell blocks first (dim P_k per cell, ascending cell index)
followed by edge blocks (k + 1 per edge, ascending edge index).  The boundary
set consists of all DOFs of boundary edges; the boundary form B is supported
there only.  A is kept as its local matrices, one per congruence class, and
scattered into a sparse matrix only when read.  Assembly order is
deterministic, so repeated runs produce bit-identical matrices.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .polyquad import dim_pk
from .wgcore import ANALYTIC_MARGIN, CellClasses, CellQuadrature, EdgeQuadrature, LocalKernels
from .wgcore import evaluate, local_bw


@dataclass(frozen=True)
class PowerEps:
    """Stabilizer weight gamma(h) = h^eps.

    The lower-bound theory wants 0 < eps < 1/4; any eps in (0, 1) is accepted
    so experimental sweeps stay expressible.
    """

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class NegInvLog:
    """Stabilizer weight gamma(h) = -1 / log(h); requires h < 1."""


@dataclass(frozen=True)
class GammaStabilizer:
    """Trace-penalty stabilizer with mesh-dependent weight gamma(h).

    `spec` is a PowerEps, a NegInvLog, or a fixed float in (0, 1].
    """

    spec: object

    def __post_init__(self):
        if isinstance(self.spec, (int, float)):
            _fixed_gamma(self.spec)

    def coefficient(self, h):
        return gamma_of_h(self.spec, h)


@dataclass(frozen=True)
class AlphaStabilizer:
    """Volume-weighted stabilizer with a fixed global coefficient alpha > 0."""

    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)

    def coefficient(self, h):
        return self.alpha


def check_alpha(alpha):
    """Reject a stabilizer coefficient alpha that is not finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")


def _fixed_gamma(value):
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"fixed gamma must lie in (0, 1], got {value}")
    return value


def gamma_of_h(spec, h):
    """Evaluate a gamma(h) specification at mesh size h.

    Fixed float specs are validated to lie in (0, 1] and returned unchanged.
    Both mesh-dependent choices decrease toward zero under refinement; the
    -1/log(h) choice only stays <= 1 once h <= 1/e.
    """
    if isinstance(spec, (int, float)):
        return _fixed_gamma(spec)
    if not 0.0 < h < 1.0:
        raise ValueError(f"gamma(h) requires h in (0, 1), got {h}")
    if isinstance(spec, PowerEps):
        return float(h**spec.eps)
    if isinstance(spec, NegInvLog):
        return float(-1.0 / np.log(h))
    raise TypeError(f"unknown gamma specification {spec!r}")


class DofMap:
    """The WG space of degree k on a mesh, built once per level and shared by
    every consumer: its global numbering and its per-cell tables.

    Attributes
    ----------
    k : polynomial degree (>= 1)
    dim_cell, dim_edge : block sizes dim P_k and k + 1
    n_dofs : total DOF count C * dim_cell + E * dim_edge
    boundary_dofs : sorted int array of all DOFs on boundary edges
    local_dofs : (C, n_loc) global DOFs of each cell's block: cell DOFs, then its 3 edges
    classes : the cells' congruence classes (`wgcore.CellClasses`)
    """

    def __init__(self, mesh, k):
        if k < 1:
            raise ValueError(f"polynomial degree k must be >= 1, got {k}")
        self.mesh = mesh
        self.k = int(k)
        self.dim_cell = dim_pk(self.k)
        self.dim_edge = self.k + 1
        self.n_cell_dofs = mesh.n_cells * self.dim_cell
        self.n_dofs = self.n_cell_dofs + mesh.n_edges * self.dim_edge
        cell_dofs, edge_dofs = self.split(np.arange(self.n_dofs))
        self.boundary_dofs = edge_dofs[mesh.boundary_edge].ravel()
        cell_edge_dofs = edge_dofs[mesh.cell_edges].reshape(mesh.n_cells, -1)
        self.local_dofs = np.concatenate([cell_dofs, cell_edge_dofs], axis=1)
        self.classes = CellClasses(mesh, self.k)

    def split(self, coeffs):
        """Views of a global vector as cell rows (C, dim_cell) and edge rows (E, dim_edge)."""
        return (
            coeffs[: self.n_cell_dofs].reshape(-1, self.dim_cell),
            coeffs[self.n_cell_dofs :].reshape(-1, self.dim_edge),
        )


class WgOperatorPair:
    """The symmetric forms A (principal) and B (boundary) of the WG scheme.

    A is held cell by cell: ``local[c]`` is the local matrix of every cell of
    congruence class c of ``dof_map.classes``, on the global DOFs
    ``dof_map.local_dofs`` of each such cell.  The assembled sparse A is
    formed on first read only; the solvers use the local matrices.
    ``boundary_mass`` holds the L2 mass matrix of each boundary edge, on
    consecutive (k + 1)-blocks of ``dof_map.boundary_dofs``, and B is
    assembled from it.

    A is symmetric positive definite for any positive stabilizer coefficient;
    B is positive semidefinite with support exactly on the boundary DOF block.
    """

    def __init__(self, local, boundary_mass, dof_map):
        self.local = local
        self.boundary_mass = boundary_mass
        self.dof_map = dof_map
        blocks = dof_map.boundary_dofs.reshape(-1, dof_map.dim_edge)
        self.B = scatter_local(boundary_mass, blocks, dof_map.n_dofs).tocsr()

    @cached_property
    def A(self):
        """The assembled sparse principal form (CSR)."""
        dof_map = self.dof_map
        local = self.local[dof_map.classes.class_of]
        return scatter_local(local, dof_map.local_dofs, dof_map.n_dofs).tocsr()

    def apply(self, V):
        """A V for a vector or the columns of a matrix, cell by cell: each
        class's local matrix acts on its cells' local DOFs, and the local
        products are summed into the global DOFs."""
        local_dofs = self.dof_map.local_dofs
        X = V.reshape(len(V), -1)
        Y = np.empty(local_dofs.shape + X.shape[1:])
        for K, members in zip(self.local, self.dof_map.classes.members):
            Y[members] = K @ X[local_dofs[members]]
        dofs = local_dofs.ravel()
        columns = [np.bincount(dofs, Y[..., j].ravel(), len(V)) for j in range(X.shape[1])]
        return np.column_stack(columns).reshape(V.shape)


def assemble(dof_map, stabilizer):
    """The operator pair of a `DofMap` for a stabilizer spec."""
    mesh = dof_map.mesh
    kernels = LocalKernels(dof_map.classes)
    kind = "alpha" if isinstance(stabilizer, AlphaStabilizer) else "gamma"
    local = kernels.per_class(stabilizer.coefficient(mesh.h_max), kind)
    boundary_mass = local_bw(mesh, np.flatnonzero(mesh.boundary_edge), dof_map.k)
    return WgOperatorPair(local, boundary_mass, dof_map)


def assemble_stabilizer(dof_map, kind="gamma"):
    """Assembled unit-coefficient stabilizer matrix (for linearity checks)."""
    local = LocalKernels(dof_map.classes).stabilizer_per_class(kind)[dof_map.classes.class_of]
    return scatter_local(local, dof_map.local_dofs, dof_map.n_dofs).tocsr()


def scatter_local(local, gdofs, n_dofs):
    """A stack of local matrices (N, m, m) placed at rows and columns gdofs
    (N, m) of an n_dofs x n_dofs COO matrix; converting it sums the overlaps."""
    m = gdofs.shape[1]
    rows = np.repeat(gdofs, m, axis=1).ravel()
    cols = np.tile(gdofs, (1, m)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n_dofs, n_dofs))


def interpolate(dof_map, f, quad_degree=None):
    """Global interpolant coefficients: cellwise and edgewise L2 projections of f.

    The default quadrature is elevated (analytic-integrand margin) since the
    usual argument is a smooth non-polynomial function.
    """
    mesh, k = dof_map.mesh, dof_map.k
    deg = quad_degree if quad_degree is not None else 2 * k + ANALYTIC_MARGIN
    cells = CellQuadrature(dof_map.classes, deg)
    edges = EdgeQuadrature(mesh, k, deg, np.arange(mesh.n_edges))
    # cell blocks first, then edge blocks: the DofMap layout
    c0 = cells.project(evaluate(f, cells.points))
    cb = edges.project(evaluate(f, edges.points))
    return np.concatenate([c0.ravel(), cb.ravel()])


def energy(matrix, u, v=None):
    """Bilinear form value u^T M v (v defaults to u)."""
    v = u if v is None else v
    return float(u @ (matrix @ v))


def dump_matrix_market(path, matrix):
    """Write a sparse matrix in MatrixMarket coordinate format."""
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(matrix))
