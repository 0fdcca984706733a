"""Guaranteed-lower-bound pathway: certificate arithmetic and defect-ratio probing.

The certificate needs two constants: `proj_bound` (delta) bounding the
boundary projection defect by the gradient projection defect, and
`stab_bound` (Lambda) bounding the stabilizer energy of interpolants by the
same defect.  Proof-grade values come from external analysis and enter as
configuration; :func:`estimate_delta` provides a numerical lower estimate of
`proj_bound` by maximizing the defect ratio over a continuous piecewise
polynomial probe space, for exploratory certification only.  In a
hierarchical basis the probe space has the DOF layout of the WG space, so
the estimate is the smallest eigenvalue of a second pencil through the eigen
path's `condense` and `solve_condensed`.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legder, legval

from .assembly import AlphaStabilizer, DofMap, WgOperatorPair, assemble
from .eigen import _stage, check_eigenpair_count, condense, solve_condensed, solve_pair
from .mesh import boundary_dof_count, build_structured_mesh, check_grid, check_levels
from .polyquad import EdgeBasis, dim_pk, edge_quadrature, map_to_triangle, triangle_quadrature
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


def _check_probe_degree(k, probe_degree):
    if probe_degree <= k:
        raise ValueError(
            f"probe_degree must exceed k (got {probe_degree} <= {k}); "
            "the whole probe space would sit in the null space"
        )


def edge_kernels(k, p):
    """Legendre coefficients, one column each, of the kernels q_i of the
    p - k edge functions lambda_a lambda_b q_i(lambda_b - lambda_a) of the
    probe space W.

    With t the canonical edge parameter, lambda_a = 1 - t and lambda_b = t
    on the edge.  The kernels L_{j-2}, j = k + 1 .. p, give functions of
    degree j; one fixed change of basis makes the residual of the i-th
    function's L2 projection onto P_k the orthonormal Legendre polynomial
    of degree k + 1 + i, so the boundary numerator on each edge e is |e| I.
    """
    rule = edge_quadrature(2 * p)
    t, w = rule.points, rule.weights
    E = np.eye(p - 1)[:, k - 1 :]
    trace = (t * (1.0 - t))[:, None] * legval(2.0 * t - 1.0, E).T
    high = EdgeBasis(p).eval(t)[:, k + 1 :]
    return E @ np.linalg.inv((high * w[:, None]).T @ trace)


def probe_basis(k, p, flips, lam):
    """The hierarchical basis of W on one cell at points of barycentric
    coordinates ``lam`` (n, 3): the bubbles, then the edge functions of
    local edges 0, 1 and 2 (`edge_kernels`), each edge oriented from its
    canonical start a to its end b as ``flips`` says (`wgcore.LocalCell`).

    The bubbles are lambda_0 lambda_1 lambda_2 lambda_0^s lambda_1^t with
    3 + s + t = j for j = max(3, k + 1) .. p, each scaled to peak at 1.
    Returns the values (n, n_loc) and their derivatives in lambda_0,
    lambda_1 and lambda_2 (n, n_loc, 3).
    """
    values, partials = [], []
    for j in range(max(3, k + 1), p + 1):
        for s in range(j - 2):
            e = np.array([s + 1, j - 2 - s, 1])
            scale = j**j / np.prod(e.astype(float) ** e)
            values.append(scale * np.prod(lam**e, axis=1))
            # d/d lambda_i lowers the power of lambda_i by one
            lower = np.prod(lam[:, None, :] ** (e - np.eye(3, dtype=int)), axis=2)
            partials.append(scale * e * lower)
    kernels = edge_kernels(k, p)
    dkernels = legder(kernels)
    for l in range(3):
        a, b = ((l + 1) % 3, l) if flips[l] else (l, (l + 1) % 3)
        la, lb = lam[:, a, None], lam[:, b, None]
        q = legval(lam[:, b] - lam[:, a], kernels).T
        dq = legval(lam[:, b] - lam[:, a], dkernels).T
        values.extend((la * lb * q).T)
        d = np.zeros((len(lam), p - k, 3))
        d[..., a] = lb * q - la * lb * dq
        d[..., b] = la * q + la * lb * dq
        partials.extend(d.transpose(1, 0, 2))
    return np.array(values).T, np.array(partials).transpose(1, 0, 2)


def probe_factor(cell, k, p):
    """The local factor of the denominator on W: the rows sqrt(w) (I -
    Q_{k-1}) grad of the basis of `probe_basis`, x then y, at the points of
    a triangle rule of degree 2p - 2, with Q_{k-1} the L2 projection onto
    the leading dim P_{k-1} members of ``cell.basis``."""
    rule = triangle_quadrature(2 * p - 2)
    pts, w = map_to_triangle(rule, cell.vertices)
    # the gradients of lambda_1 and lambda_2 are the rows of the inverse
    # of the cell's affine map, and those of the three sum to zero
    inv = np.linalg.inv((cell.vertices[1:] - cell.vertices[0]).T)
    grads = probe_basis(k, p, cell.flips, rule.points)[1] @ np.vstack([-inv.sum(axis=0), inv])
    phi = cell.basis.eval(pts)[:, : dim_pk(k - 1)]
    defect = grads - np.einsum("pq,qjc->pjc", phi @ (phi * w[:, None]).T, grads)
    root_w = np.sqrt(w)[:, None]
    return np.concatenate([root_w * defect[..., 0], root_w * defect[..., 1]])


def probe_pair(dof_map, probe_degree):
    """The defect pencil on the probe space W of a DofMap's mesh, as a
    `WgOperatorPair`: the denominator, by the `probe_factor` of each cell
    class of ``dof_map.classes``, and the numerator as ``boundary_mass``.

    W is the hierarchical complement of the continuous P_k space V_k in
    the continuous P_p space, p = probe_degree (B. Szabo and I. Babuska,
    Finite Element Analysis, 1991): the edge functions of degree k + 1 ..
    p of every edge and the bubbles of every cell.  Its DofMap has the WG
    layout, with the bubbles as cell DOFs and p - k DOFs per edge.
    """
    k = dof_map.k
    _check_probe_degree(k, probe_degree)
    factor = np.array([probe_factor(cell, k, probe_degree) for cell in dof_map.classes.cells])
    n_edge = probe_degree - k
    probe_map = DofMap(dof_map.mesh, k, factor.shape[2] - 3 * n_edge, n_edge, dof_map.classes)
    return WgOperatorPair(factor, probe_map)


def estimate_delta(dof_map, probe_degree):
    """Numerical lower estimate of the boundary-defect constant.

    Maximizes || (I - Q_b) f ||^2 over the boundary against
    || (I - Q_vec) grad f ||^2 over the domain, for f in the continuous
    piecewise P_{probe_degree} probe space V_p.  Both forms vanish on the
    continuous P_k space V_k, so the maximum over V_p is that over the
    complement W of `probe_pair`, where the denominator is positive
    definite and the numerator is the diagonal ``boundary_mass``: it is
    1 / lambda_1 of the pencil (denominator, numerator), which
    `eigen.condense` and `eigen.solve_condensed` compute as they do for
    the WG pencil, with the same Lanczos and backward-error gate.
    lambda_1 is a Rayleigh quotient, never below the smallest eigenvalue,
    so this is a lower estimate.  Raises NumericalError if a factorization
    fails, Lanczos does not converge, or the backward error exceeds
    `eigen.DEFAULT_RTOL`, the bound of every eigenpair solve.
    """
    pencil = condense(probe_pair(dof_map, probe_degree))
    return 1.0 / float(solve_condensed(pencil, 1).values[0])


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
