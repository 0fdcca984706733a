"""Boundary-flux source problem and error measurement in the scheme's norms.

The companion problem to the eigenproblem keeps the same principal form but
replaces the eigenvalue coupling by a prescribed normal flux on the domain
boundary; solving it across a refinement sequence gives an independent
convergence check of the assembled operators.  Its solve shares the eigen
path's condensed pencil (`eigen.condense`): the cell elimination and the
Schur tree.
"""

import numpy as np

from .assembly import assemble, interpolate
from .eigen import NumericalError, condense
from .mesh import group_rows
from .wgcore import EdgeQuadrature, evaluate

# bound on the normwise backward error of `solve_source`
DEFAULT_RTOL = 1e-10


class ManufacturedSolution:
    """A smooth solution of the homogeneous interior equation -lap(u) + u = 0.

    `u` maps an (n, 2) point array to n values and `grad` to an (n, 2)
    array; that the interior equation holds is the caller's responsibility
    and is documented per instance via `label`.
    """

    def __init__(self, u, grad, label=""):
        self.u = u
        self.grad = grad
        self.label = label

    def flux(self, points, normal):
        """Normal flux grad(u) . n at points on an edge with outward normal n."""
        g = np.asarray(self.grad(points), dtype=float)
        return g[:, 0] * normal[0] + g[:, 1] * normal[1]


def exponential_solution(a=1.0, b=0.0):
    """The family u = exp(a x + b y) with a^2 + b^2 = 1, which satisfies
    -lap(u) + u = 0 exactly."""
    if not abs(a * a + b * b - 1.0) <= 1e-12:
        raise ValueError(f"direction must satisfy a^2 + b^2 = 1, got ({a}, {b})")

    def u(p):
        return np.exp(a * p[:, 0] + b * p[:, 1])

    def grad(p):
        e = np.exp(a * p[:, 0] + b * p[:, 1])
        return np.stack([a * e, b * e], axis=1)

    return ManufacturedSolution(u, grad, label=f"exp({a}*x + {b}*y)")


def boundary_load(dof_map, flux):
    """Load vector F_j = <f, phi_j> over the boundary, zero elsewhere.

    `flux` is called as flux(points, normal), with `normal` the outward unit
    normal shared by all the boundary edges the points lie on.
    """
    mesh = dof_map.mesh
    bnd = EdgeQuadrature(dof_map, np.flatnonzero(mesh.boundary_edge))
    normals = mesh.boundary_normal(bnd.edges)
    first, side = group_rows(normals)
    normals = normals[first]
    values = np.empty(bnd.weights.shape)
    for i, normal in enumerate(normals):
        on_side = side == i
        values[on_side] = evaluate(lambda p: flux(p, normal), bnd.points[on_side])
    F = np.zeros(dof_map.n_dofs)
    dof_map.split(F)[1][bnd.edges] = (values * bnd.weights) @ bnd.basis
    return F


def solve_source(dof_map, stabilizer, flux):
    """Solve the boundary-flux problem: find u_h with a_w(u_h, v) = <f, v_b>.

    The load is supported on the boundary DOFs, so one solve with the
    factor of the boundary Schur complement S gives the boundary values of
    u_h, which the Schur tree extends to the interior edges and the cells
    (`eigen.condense`).  Raises NumericalError when the elimination
    fails or the normwise backward error ||A u - F|| / (||A|| ||u|| + ||F||)
    on the full operator exceeds `DEFAULT_RTOL`; the gate is skipped only
    for a load that is exactly zero.
    """
    pair = assemble(dof_map, stabilizer)
    F = boundary_load(dof_map, flux)
    g = dof_map.boundary_dofs
    assert not np.delete(F, g).any(), "the boundary load must vanish off the boundary DOFs"
    pencil = condense(pair)
    u = pencil.expand(pencil.boundary_solve(F[g]))
    f_norm = np.linalg.norm(F)
    if f_norm != 0.0:
        R = pair.apply(u)
        R -= F
        residual = np.linalg.norm(R) / (pencil.a_norm * np.linalg.norm(u) + f_norm)
        if not residual <= DEFAULT_RTOL:
            raise NumericalError(f"source solve residual {residual:.2e} exceeds {DEFAULT_RTOL:.1e}")
    return u


def discrete_v_norm(dof_map, coeffs):
    """Broken H1-type norm of a discrete WG function.

    ||v||_V^2 = sum_T ( ||grad v0||_T^2 + ||v0||_T^2 + h_T^{-1} ||v0 - vb||_{dT}^2 ).
    The integrands are polynomial, so the level's cell quadrature is exact.
    """
    c0, cb = dof_map.split(coeffs)
    cells = dof_map.cell_quadrature
    # interior L2 part: basis is orthonormal
    total = float(np.sum(c0**2))
    total += float(np.sum(cells.weights * np.sum(cells.gradients(c0) ** 2, axis=-1)))
    total += cells.mismatch_energy(c0, cb)
    return float(np.sqrt(total))


def interpolant(exact, dof_map):
    """Q_h u, which `v_norm_error` and `projection_errors` both measure against."""
    return interpolate(dof_map, exact.u)


def v_norm_error(u_h, q, dof_map):
    """Discrete part of the V-norm error: ||Q_h u - u_h||_V, with q = Q_h u."""
    return discrete_v_norm(dof_map, q - u_h)


def x_norm_error(u_h, exact, dof_map):
    """Boundary L2 error ||u - u_{h,b}|| over the domain boundary."""
    cb = dof_map.split(u_h)[1]
    bnd = EdgeQuadrature(dof_map, np.flatnonzero(dof_map.mesh.boundary_edge))
    diff = evaluate(exact.u, bnd.points) - cb[bnd.edges] @ bnd.basis.T
    return float(np.sqrt(np.sum(bnd.weights * diff**2)))


def projection_errors(exact, q, dof_map):
    """Projection remainder (V-part, X-part) of the exact solution, given q = Q_h u.

    V-part: sum_T ||grad(u - Q0 u)||^2 + ||u - Q0 u||^2
            + h_T^{-1} ||Q0 u - Qb u||_{dT}^2, square-rooted.
    X-part: || (I - Qb) u || over the boundary.
    Reported separately from the discrete error so studies can tell which
    contribution dominates.
    """
    c0, cb = dof_map.split(q)
    cells = dof_map.cell_quadrature
    ru = evaluate(exact.u, cells.points) - cells.values(c0)
    rg = evaluate(exact.grad, cells.points) - cells.gradients(c0)
    v_total = float(np.sum(cells.weights * (ru**2 + np.sum(rg**2, axis=-1))))
    v_total += cells.mismatch_energy(c0, cb)
    return float(np.sqrt(v_total)), x_norm_error(q, exact, dof_map)
