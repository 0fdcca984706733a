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
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import AlphaStabilizer, DofMap, assemble
from .eigen import DEFAULT_RTOL, NumericalError, _stage, check_eigenpair_count, lanczos, solve_pair
from .mesh import boundary_dof_count, build_structured_mesh, check_grid, check_levels
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
from .wgcore import check_alpha, check_degree

# Reference eigenvalues are themselves numerical, so the below-reference check
# carries a slack.
LOWER_BOUND_SLACK = 1e-9


def check_refs(refs):
    """Reference eigenvalues as a tuple of floats; raises ValueError unless all are finite."""
    refs = tuple(float(r) for r in refs)
    if not all(map(math.isfinite, refs)):
        raise ValueError(f"reference values must be finite, got {refs}")
    return refs


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
        points.extend(cell.edge_points(np.arange(1, self.p) / self.p).reshape(-1, 2))
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

    `R` is the exact sparse factor num = R R^T of the boundary projection
    defect num: p - k columns per boundary edge, in the order of the
    boundary edges, each supported on its edge's probe DOFs.  `den` is the
    gradient projection defect on the whole probe space (sparse), and `Z`
    the sparse prolongation of the continuous P_k Lagrange basis into the
    probe space, whose range is the null space of `den` and lies in that
    of R^T.
    """

    R: sp.csc_matrix
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

    # numerator factor: with psi_0..psi_p the orthonormal Legendre basis on
    # the edge parameter, the first k + 1 of which span P_k, the residual of
    # the trace's L2 projection onto P_k is sum_{j>k} psi_j r_j^T with
    # r_j = (psi_j, trace), so each boundary edge e adds the columns
    # sqrt(|e|) r_j, at its probe DOFs, to R
    erule = edge_quadrature(deg)
    tnodes = np.concatenate([[0.0, 1.0], np.arange(1, p) / p])
    tv = np.vander(tnodes, p + 1, increasing=True)
    trace = np.vander(erule.points, p + 1, increasing=True) @ np.linalg.inv(tv)
    high = EdgeBasis(p).eval(erule.points)[:, k + 1 :]
    r = (high * erule.weights[:, None]).T @ trace
    edges = np.where(mesh.boundary_edge)[0]
    gd = np.hstack([mesh.edges[edges], space.edge_node_dofs(edges)])
    cols = np.arange(len(edges) * (p - k)).reshape(len(edges), 1, p - k)
    rows, cols = (a.ravel() for a in np.broadcast_arrays(gd[:, :, None], cols))
    values = np.sqrt(mesh.length[edges])[:, None, None] * r.T
    R = sp.csc_matrix((values.ravel(), (rows, cols)), shape=(space.n_dofs, len(edges) * (p - k)))

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
        phiv = cell.basis.eval(pts)[:, : dim_pk(k - 1)]
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
    return ProbeDefects(R, (0.5 * (den + den.T)).tocsc(), Z)


def estimate_delta(dof_map, probe_degree):
    """Numerical lower estimate of the boundary-defect constant.

    Maximizes || (I - Q_b) f ||^2 over the boundary against
    || (I - Q_vec) grad f ||^2 over the domain, for f in a continuous
    piecewise P_{probe_degree} probe space.  Both defects vanish on the
    continuous P_k space range(Z), which is exactly the null space of the
    denominator `den`, so with the per-edge factor num = R R^T of
    `probe_defects` the maximum is lambda_max(H), H = R^T den^+ R.  One sparse LU of the nonsingular
    bordered matrix K = [[den, Z], [Z^T, 0]] gives den^+ R y as the first
    block of K^{-1} [R y; 0], so each application of H is one unrefined
    solve of one vector, and Lanczos (`eigen.lanczos`) finds the largest
    eigenvector y of H without forming it.  One more solve with the Ritz
    vector y gives the value as the Rayleigh quotient y^T H y / y^T y,
    which never exceeds lambda_max(H); the true constant can only be
    larger still, so this is a lower estimate.  Raises NumericalError if
    the factorization fails, Lanczos does not converge, or the normwise
    backward error of the last solve exceeds `DEFAULT_RTOL`.
    """
    forms = probe_defects(dof_map, probe_degree)
    R = forms.R
    K = sp.bmat([[forms.den, forms.Z], [forms.Z.T, None]], format="csc")
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"bordered factorization failed: {exc}") from exc

    def solve(y):
        """[R y; 0] and K^{-1} [R y; 0], unrefined."""
        rhs = np.zeros(K.shape[0])
        rhs[: R.shape[0]] = R @ y
        return rhs, lu.solve(rhs)

    def apply_h(y):
        return R.T @ solve(y)[1][: R.shape[0]]

    y = lanczos(apply_h, R.shape[1], 1)[1][:, 0]
    rhs, x = solve(y)
    k_norm = float(abs(K).sum(axis=1).max())
    error = np.linalg.norm(K @ x - rhs) / (k_norm * np.linalg.norm(x) + np.linalg.norm(rhs))
    if not error <= DEFAULT_RTOL:
        raise NumericalError(f"bordered solve backward error {error:.2e} "
                             f"exceeds tolerance {DEFAULT_RTOL:.1e}")
    return float(y @ (R.T @ x[: R.shape[0]]) / (y @ y))


def run_glb_study(domain, levels, k, config, refs=None, probe_degree=None):
    """Run the lower-bound certificate study over a refinement sequence.

    Per level: assemble with the volume-weighted stabilizer, solve the first
    `config.index` eigenpairs, resolve proj_bound (configured value, or
    estimated when absent), and evaluate the certificate against the
    discrete eigenvalue (case 2) or the reference (case 1) when available.
    """
    k = check_degree(k)
    levels = [check_grid(domain, n) for n in check_levels(levels)]
    check_eigenpair_count(config.index, boundary_dof_count(domain, levels[0], k))
    if refs is not None:
        refs = check_refs(refs)
        if config.index > len(refs):
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
                "below_reference": None if ref is None else bool(lam_h <= ref + LOWER_BOUND_SLACK),
            }
        )
    return rows
