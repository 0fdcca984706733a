"""Guaranteed-lower-bound pathway: certificate arithmetic and defect-ratio probing.

The certificate needs two constants: `proj_bound` (delta) bounding the
boundary projection defect by the gradient projection defect, and
`stab_bound` (Lambda) bounding the stabilizer energy of interpolants by the
same defect.  Proof-grade values come from external analysis and enter as
configuration; :func:`estimate_delta` provides a numerical lower estimate of
`proj_bound` by maximizing the defect ratio over a continuous piecewise
polynomial probe space, for exploratory certification only.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import AlphaStabilizer, DofMap, assemble, check_alpha
from .eigen import DEFAULT_RTOL, NumericalError, _stage, solve_pair
from .mesh import build_structured_mesh
from .polyquad import (
    EdgeBasis,
    dim_pk,
    edge_quadrature,
    map_to_triangle,
    monomial_exponents,
    scaled_monomial_grads,
    scaled_monomials,
    triangle_quadrature,
)


@dataclass(frozen=True)
class GlbConfig:
    """Certificate inputs: stabilizer weight and the two analysis constants.

    `index` is the 1-based eigenvalue the certificate targets.
    """

    alpha: float
    stab_bound: float
    proj_bound: float = None
    index: int = 1

    def __post_init__(self):
        check_alpha(self.alpha)
        for name in ("stab_bound", "proj_bound"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.index < 1:
            raise ValueError(f"index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of the lower-bound criterion; case 0 means not certified."""

    certified: bool
    case: int

    def __bool__(self):
        return self.certified


def glb_criterion(config, lambda_exact, lambda_h):
    """Check the lower-bound certificate for one eigenvalue.

    Certifies lambda_h <= lambda when either
    (1) proj_bound * lambda_exact + alpha * stab_bound <= 1 (if the exact
        value is supplied), or
    (2) proj_bound * lambda_h + alpha * stab_bound <= 1.
    This is a certificate check on given constants, not a computation of the
    exact eigenvalue.
    """
    if config.proj_bound is None:
        raise ValueError("criterion requires a concrete proj_bound")
    if lambda_h <= 0.0:
        raise ValueError(f"lambda_h must be positive, got {lambda_h}")
    if lambda_exact is not None and lambda_exact < 0.0:
        raise ValueError(f"lambda_exact must be nonnegative, got {lambda_exact}")
    budget = config.alpha * config.stab_bound
    if lambda_exact is not None and config.proj_bound * lambda_exact + budget <= 1.0:
        return Certificate(True, 1)
    if config.proj_bound * lambda_h + budget <= 1.0:
        return Certificate(True, 2)
    return Certificate(False, 0)


class LagrangeProbeSpace:
    """Continuous piecewise P_p space on a triangulation, nodal basis.

    Nodes sit at vertices, at p - 1 points along each edge (ordered by the
    canonical edge parameter), and at interior barycentric lattice points,
    so shared nodes coincide between neighboring cells and traces match.
    """

    def __init__(self, mesh, degree):
        if degree < 1:
            raise ValueError(f"probe degree must be >= 1, got {degree}")
        self.mesh = mesh
        self.p = int(degree)
        self.n_edge_nodes = self.p - 1
        self.n_cell_nodes = dim_pk(self.p) - 3 - 3 * self.n_edge_nodes
        self.n_dofs = (
            mesh.n_vertices + mesh.n_edges * self.n_edge_nodes + mesh.n_cells * self.n_cell_nodes
        )

    def edge_node_dofs(self, ei):
        """Edge-node DOFs of edge ei, or one row per edge for an index array."""
        start = self.mesh.n_vertices + np.asarray(ei)[..., None] * self.n_edge_nodes
        return start + np.arange(self.n_edge_nodes)

    def cell_dofs(self):
        """Local-to-global table, one row per cell in :meth:`cell_nodes` order."""
        mesh = self.mesh
        start = mesh.n_vertices + mesh.n_edges * self.n_edge_nodes
        return np.hstack([
            mesh.cells,
            self.edge_node_dofs(mesh.cell_edges).reshape(mesh.n_cells, -1),
            start + np.arange(mesh.n_cells * self.n_cell_nodes).reshape(mesh.n_cells, -1),
        ])

    def cell_nodes(self, cell):
        """Physical node positions of a :class:`LocalCell`: vertices, edge
        nodes in canonical order, then the interior lattice."""
        points = list(cell.vertices)
        for l in range(3):
            lo, hi = cell.edge_canonical(l)
            for i in range(1, self.p):
                points.append(lo + (i / self.p) * (hi - lo))
        verts = cell.vertices
        for a in range(1, self.p):
            for b in range(1, self.p - a):
                c = self.p - a - b
                points.append((a * verts[0] + b * verts[1] + c * verts[2]) / self.p)
        return np.array(points)


def _check_probe_degree(k, probe_degree):
    if probe_degree <= k:
        raise ValueError(
            f"probe_degree must exceed k (got {probe_degree} <= {k}); "
            "the whole probe space would sit in the null space"
        )


@dataclass(frozen=True)
class ProbeDefects:
    """The two defect forms of the P_p probe space and their common null space.

    `num` is the boundary projection defect on the boundary-edge probe DOFs
    `boundary` (dense, nb x nb), `den` the gradient projection defect on the
    whole probe space (sparse), and `Z` the sparse prolongation of the
    continuous P_k Lagrange basis into the probe space, whose range is the
    null space of `den` and lies in the null space of `num`.
    """

    num: np.ndarray
    boundary: np.ndarray
    den: sp.csc_matrix
    Z: sp.csc_matrix


def probe_defects(dof_map, probe_degree):
    """Assemble the :class:`ProbeDefects` of a P_{probe_degree} probe space on a DofMap's mesh."""
    mesh, k, classes = dof_map.mesh, dof_map.k, dof_map.classes
    _check_probe_degree(k, probe_degree)
    space = LagrangeProbeSpace(mesh, probe_degree)
    null_space = LagrangeProbeSpace(mesh, k)
    p = space.p
    deg = 2 * p + 2

    # numerator: boundary projection defect, on the boundary-edge probe DOFs
    erule = edge_quadrature(deg)
    eb = EdgeBasis(k).eval(erule.points)
    tnodes = np.concatenate([[0.0, 1.0], np.arange(1, p) / p])
    tv = np.vander(tnodes, p + 1, increasing=True)
    trace = np.vander(erule.points, p + 1, increasing=True) @ np.linalg.inv(tv)
    proj = eb @ (eb * erule.weights[:, None]).T @ trace
    resid = trace - proj
    block = (resid * erule.weights[:, None]).T @ resid
    edges = np.where(mesh.boundary_edge)[0]
    gd = np.hstack([mesh.edges[edges], space.edge_node_dofs(edges)])
    bnd, lb = np.unique(gd, return_inverse=True)
    lb = lb.reshape(gd.shape)
    num = np.zeros((len(bnd), len(bnd)))
    np.add.at(num, (lb[:, :, None], lb[:, None, :]), mesh.length[edges, None, None] * block)

    # per class: the local gradient-defect matrix and the P_k nodal basis
    # at the probe nodes
    rule = triangle_quadrature(deg)
    exps = monomial_exponents(p)
    exps_k = monomial_exponents(k)
    local, prolong = [], []
    for cell in classes.cells:
        centroid, scale = cell.basis.centroid, cell.diameter
        nodes = space.cell_nodes(cell)
        vinv = np.linalg.inv(scaled_monomials(nodes, centroid, scale, exps))
        pts, w = map_to_triangle(rule, cell.vertices)
        gx, gy = (g @ vinv for g in scaled_monomial_grads(pts, centroid, scale, exps))
        phiv = cell.vector_basis.scalar.eval(pts)
        wproj = phiv @ (phiv * w[:, None]).T
        rx = gx - wproj @ gx
        ry = gy - wproj @ gy
        local.append((rx * w[:, None]).T @ rx + (ry * w[:, None]).T @ ry)
        vk = scaled_monomials(null_space.cell_nodes(cell), centroid, scale, exps_k)
        prolong.append(scaled_monomials(nodes, centroid, scale, exps_k) @ np.linalg.inv(vk))

    dofs, dofs_k = space.cell_dofs(), null_space.cell_dofs()
    rows, cols = (a.ravel() for a in np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :]))
    den = sp.csc_matrix((np.array(local)[classes.class_of].ravel(), (rows, cols)),
                        shape=(space.n_dofs, space.n_dofs))
    # a node shared by several cells takes its value from the first of them
    rows, cols = (a.ravel() for a in np.broadcast_arrays(dofs[:, :, None], dofs_k[:, None, :]))
    _, first = np.unique(rows * null_space.n_dofs + cols, return_index=True)
    Z = sp.csc_matrix((np.array(prolong)[classes.class_of].ravel()[first],
                       (rows[first], cols[first])), shape=(space.n_dofs, null_space.n_dofs))
    return ProbeDefects(0.5 * (num + num.T), bnd, (0.5 * (den + den.T)).tocsc(), Z)


def estimate_delta(dof_map, probe_degree):
    """Numerical lower estimate of the boundary-defect constant.

    Maximizes || (I - Q_b) f ||^2 over the boundary against
    || (I - Q_vec) grad f ||^2 over the domain, for f in a continuous
    piecewise P_{probe_degree} probe space.  Both defects vanish on the
    continuous P_k space range(Z), which is exactly the null space of the
    denominator `den`, so with num = R R^T the maximum is
    lambda_max(R^T den^+ R).  One sparse LU of the nonsingular bordered
    matrix K = [[den, Z], [Z^T, 0]] gives den^+ R as the first block of
    K^{-1} [R; 0].  The true constant can only be larger, so this is a lower
    estimate.  Raises NumericalError if the factorization fails or the
    normwise backward error of the solve exceeds `DEFAULT_RTOL`.
    """
    forms = probe_defects(dof_map, probe_degree)
    w, V = sla.eigh(forms.num)
    R = V[:, w > 0.0] * np.sqrt(w[w > 0.0])
    if R.shape[1] == 0:
        raise ValueError("probe space lies entirely in the defect null space")
    K = sp.bmat([[forms.den, forms.Z], [forms.Z.T, None]], format="csc")
    rhs = np.zeros((K.shape[0], R.shape[1]))
    rhs[forms.boundary] = R
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"bordered factorization failed: {exc}") from exc
    x = lu.solve(rhs)
    k_norm = float(abs(K).sum(axis=1).max())
    error = np.linalg.norm(K @ x - rhs, axis=0) / (
        k_norm * np.linalg.norm(x, axis=0) + np.linalg.norm(rhs, axis=0)
    )
    if not error.max() <= DEFAULT_RTOL:
        raise NumericalError(f"bordered solve backward error {error.max():.2e} "
                             f"exceeds tolerance {DEFAULT_RTOL:.1e}")
    H = R.T @ x[forms.boundary]
    return float(sla.eigh(0.5 * (H + H.T), eigvals_only=True)[-1])


def run_glb_study(domain, levels, k, config, refs=None, probe_degree=None):
    """Run the lower-bound certificate study over a refinement sequence.

    Per level: assemble with the volume-weighted stabilizer, solve the first
    `config.index` eigenpairs, resolve proj_bound (configured value, or
    estimated when absent), and evaluate the certificate against the
    discrete eigenvalue (case 2) or the reference (case 1) when available.
    """
    if refs is not None and config.index > len(refs):
        raise ValueError(f"index {config.index} exceeds the {len(refs)} reference values")
    probe_degree = k + 2 if probe_degree is None else probe_degree
    _check_probe_degree(k, probe_degree)
    rows = []
    for n in levels:
        dof_map = DofMap(build_structured_mesh(domain, n), k)
        pair = assemble(dof_map, AlphaStabilizer(config.alpha))
        result = _stage("solve", solve_pair, pair, config.index)
        lam_h = float(result.values[config.index - 1])
        if config.proj_bound is not None:
            delta = config.proj_bound
            delta_source = "configured"
        else:
            delta = _stage("estimate_delta", estimate_delta, dof_map, probe_degree)
            delta_source = "estimated"
        level_config = GlbConfig(config.alpha, config.stab_bound, delta, config.index)
        ref = None if refs is None else float(refs[config.index - 1])
        cert = glb_criterion(level_config, ref, lam_h)
        rows.append(
            {
                "n": int(n),
                "h": dof_map.mesh.h_max,
                "alpha": config.alpha,
                "stab_bound": config.stab_bound,
                "proj_bound": delta,
                "proj_bound_source": delta_source,
                "index": config.index,
                "lambda_h": lam_h,
                "reference": ref,
                "certified": cert.certified,
                "case": cert.case,
                "below_reference": None if ref is None else bool(lam_h <= ref + 1e-9),
            }
        )
    return rows
