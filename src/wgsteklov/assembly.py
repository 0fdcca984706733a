"""Global DOF management and assembly of the operator pair (A, B).

DOFs are numbered cell blocks first (dim P_k per cell, ascending cell index)
followed by edge blocks (k + 1 per edge, ascending edge index).  The boundary
set consists of all DOFs of boundary edges; the boundary form B is diagonal
and supported there only, and is kept as that diagonal.  A is kept as its
local factors, one per congruence class, and is never assembled into a
global matrix: the solvers apply it cell by cell.  Assembly order is deterministic, so repeated runs
produce bit-identical matrices.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polyquad import dim_pk
from .wgcore import CellClasses, CellQuadrature, EdgeQuadrature, LocalKernels
from .wgcore import check_alpha, check_degree, evaluate


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
    edge_dofs : (E, dim_edge) global DOFs of each edge
    local_dofs : (C, n_loc) global DOFs of each cell's block: cell DOFs, then its 3 edges
    classes : the cells' congruence classes (`wgcore.CellClasses`)
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = check_degree(k)
        self.dim_cell = dim_pk(self.k)
        self.dim_edge = self.k + 1
        self.n_cell_dofs = mesh.n_cells * self.dim_cell
        self.n_dofs = self.n_cell_dofs + mesh.n_edges * self.dim_edge
        cell_dofs, self.edge_dofs = self.split(np.arange(self.n_dofs))
        self.boundary_dofs = self.edge_dofs[mesh.boundary_edge].ravel()
        cell_edge_dofs = self.edge_dofs[mesh.cell_edges].reshape(mesh.n_cells, -1)
        self.local_dofs = np.concatenate([cell_dofs, cell_edge_dofs], axis=1)
        self.classes = CellClasses(mesh, self.k)

    @cached_property
    def cell_quadrature(self):
        """The level's one `CellQuadrature`, built on first use and shared
        by every consumer of the level."""
        return CellQuadrature(self.classes)

    def split(self, coeffs):
        """Views of a global vector as cell rows (C, dim_cell) and edge rows (E, dim_edge)."""
        return (
            coeffs[: self.n_cell_dofs].reshape(-1, self.dim_cell),
            coeffs[self.n_cell_dofs :].reshape(-1, self.dim_edge),
        )


class WgOperatorPair:
    """The symmetric forms A (principal) and B (boundary) of the WG scheme.

    A is held cell by cell: ``factor[c]`` is the `wgcore.local_factor` F_c,
    stabilizer rows scaled by sqrt(coefficient), and ``local[c]`` = F_c^T F_c
    the local matrix of every cell of congruence class c of
    ``dof_map.classes``, on the global DOFs ``dof_map.local_dofs`` of each
    such cell; no global A is formed.

    B is diagonal: the edge basis is orthonormal on the unit parameter, so
    on a boundary edge e the L2 mass of the traces is exactly |e| times the
    identity, and B holds |e| on every DOF of e and nothing else.
    ``boundary_mass`` holds that diagonal on the boundary DOFs, in the order
    of ``dof_map.boundary_dofs``; no n_dofs x n_dofs B is formed.

    A is symmetric positive definite for any positive stabilizer coefficient;
    B is positive semidefinite with support exactly on the boundary DOFs.
    """

    def __init__(self, factor, dof_map):
        self.factor = factor
        # numpy forms F^T F as one triangle (BLAS syrk) and mirrors it
        self.local = factor.transpose(0, 2, 1) @ factor
        self.dof_map = dof_map
        mesh = dof_map.mesh
        self.boundary_mass = np.repeat(mesh.length[mesh.boundary_edge], dof_map.dim_edge)

    def apply(self, V):
        """A V for a vector or the columns of a matrix, cell by cell: each
        class's local matrix acts on the local DOFs of its cells, a bounded
        run of cells at a time (`cell_runs`), and the local products are
        summed into the global DOFs."""
        local_dofs = self.dof_map.local_dofs
        X = V.reshape(len(V), -1)
        AX = np.zeros(X.shape)
        for c, cells in cell_runs(self.dof_map.classes):
            dofs = local_dofs[cells]
            Y = (self.local[c] @ X[dofs]).reshape(dofs.size, -1)
            for j in range(X.shape[1]):
                np.add.at(AX[:, j], dofs.ravel(), Y[:, j])
        return AX.reshape(V.shape)

    def energy(self, V):
        """a(v, v) = sum_T |F_c v_T|^2 for each column v of V: a sum of
        squares, taken a run of cells at a time (`cell_runs`)."""
        total = np.zeros(V.shape[1])
        for c, cells in cell_runs(self.dof_map.classes):
            FV = self.factor[c] @ V[self.dof_map.local_dofs[cells]]
            total += np.einsum("ijk,ijk->k", FV, FV)
        return total


# cells per run of `cell_runs`: the blocks gathered for a run then stay a
# small fraction of the full DOF vectors they are gathered from
_CELL_RUN = 256


def cell_runs(classes):
    """(class, cells) for runs of at most _CELL_RUN cells of one congruence
    class, class by class, covering every cell once."""
    for c, members in enumerate(classes.members):
        for start in range(0, len(members), _CELL_RUN):
            yield c, members[start : start + _CELL_RUN]


def assemble(dof_map, stabilizer):
    """The operator pair of a `DofMap` for a stabilizer spec."""
    kind = "alpha" if isinstance(stabilizer, AlphaStabilizer) else "gamma"
    kernels = LocalKernels(dof_map.classes, kind)
    factor = kernels.factors
    factor[:, kernels.n_core :] *= np.sqrt(stabilizer.coefficient(dof_map.mesh.h_max))
    return WgOperatorPair(factor, dof_map)


def interpolate(dof_map, f):
    """Global interpolant coefficients: cellwise and edgewise L2 projections of f.

    The quadrature is elevated (analytic-integrand margin) since the usual
    argument is a smooth non-polynomial function.
    """
    cells = dof_map.cell_quadrature
    edges = EdgeQuadrature(dof_map, np.arange(dof_map.mesh.n_edges))
    # cell blocks first, then edge blocks: the DofMap layout
    c0 = cells.project(evaluate(f, cells.points))
    cb = edges.project(evaluate(f, edges.points))
    return np.concatenate([c0.ravel(), cb.ravel()])
