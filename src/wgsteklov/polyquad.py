"""Polynomial bases on triangles and edges, and quadrature rules of controlled exactness.

Every rule comes from numpy's Gauss-Legendre rule: edge rules map it to
[0, 1], and triangle rules are conical (Duffy-type) products of two such
rules, with the collapse's area factor folded into the weights, so any
requested exactness degree is available with strictly positive weights.
Cell bases are monomials centered at the cell centroid and scaled by the
cell diameter, then orthonormalized in L2 of the physical cell; edge bases
are Legendre polynomials orthonormal with respect to the unit parameter
interval.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legval
from scipy.linalg import solve_triangular


def dim_pk(k):
    """Dimension of the polynomial space of total degree <= k in two variables."""
    return (k + 1) * (k + 2) // 2


def monomial_exponents(k):
    """Graded exponent pairs (a, b) for x^a y^b, a+b <= k, constant first."""
    exps = [(d - j, j) for d in range(k + 1) for j in range(d + 1)]
    return np.array(exps, dtype=np.int64)


class QuadratureRule:
    """A fixed quadrature rule: points and weights.

    Triangle rules store points in barycentric coordinates, shape (n, 3),
    with weights summing to one; the integral over a physical triangle T is
    |T| * sum(w * f(points @ vertices)).  Edge rules store points on [0, 1]
    with weights summing to one, so integrals over an edge pick up a factor
    of the edge length.  Both arrays are read-only, since rules are cached
    and shared.
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def edge_quadrature(degree):
    """Gauss-Legendre rule on [0, 1] exact for polynomial degree <= `degree`."""
    if degree < 0:
        raise ValueError(f"quadrature degree must be nonnegative, got {degree}")
    x, w = leggauss((degree + 2) // 2)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0)


@lru_cache(maxsize=None)
def triangle_quadrature(degree):
    """Quadrature rule on the triangle exact for total degree <= `degree`.

    The collapse (xi, eta) -> (xi (1 - eta), eta) maps the unit square onto
    the triangle with area factor 1 - eta and turns x^a y^b into
    xi^a (1 - eta)^(a+1) eta^b, of degree <= `degree` in xi and
    <= `degree` + 1 in eta.  The rule is the product of the Gauss-Legendre
    rules on [0, 1] for these degrees, (degree + 2) // 2 points in xi and
    (degree + 3) // 2 in eta, with the area factor folded into the eta
    weights, so all weights are positive.
    """
    xi, eta = edge_quadrature(degree), edge_quadrature(degree + 1)
    x = np.outer(xi.points, 1.0 - eta.points).ravel()
    y = np.tile(eta.points, len(xi.points))
    w = np.outer(xi.weights, eta.weights * (1.0 - eta.points)).ravel()
    return QuadratureRule(np.column_stack([1.0 - x - y, x, y]), 2.0 * w)


def map_to_triangle(rule, vertices):
    """Physical points and weights of a barycentric rule on a triangle.

    Returns (points, weights) with points of shape (n, 2) and weights that
    include the triangle area, so sum(weights * f(points)) integrates f.
    """
    vertices = np.asarray(vertices, dtype=float)
    pts = rule.points @ vertices
    area = triangle_area(vertices)
    return pts, rule.weights * area


def scaled_monomials(points, center, scale, exponents):
    """Monomials t^(a, b) in t = (points - center) / scale, shape (n_points, n_exponents)."""
    t = (np.asarray(points, dtype=float) - center) / scale
    return t[:, 0:1] ** exponents[:, 0] * t[:, 1:2] ** exponents[:, 1]


def scaled_monomial_grads(points, center, scale, exponents):
    """Physical x- and y-derivatives of :func:`scaled_monomials`, each (n_points, n_exponents)."""
    t = (np.asarray(points, dtype=float) - center) / scale
    a, b = exponents.T
    xa1 = np.where(a > 0, t[:, 0:1] ** np.maximum(a - 1, 0), 0.0)
    yb1 = np.where(b > 0, t[:, 1:2] ** np.maximum(b - 1, 0), 0.0)
    return a * xa1 * t[:, 1:2] ** b / scale, t[:, 0:1] ** a * b * yb1 / scale


def triangle_area(vertices):
    """Signed-positive area of a CCW triangle."""
    (x0, y0), (x1, y1), (x2, y2) = np.asarray(vertices, dtype=float)
    return 0.5 * abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))


class CellBasis:
    """L2-orthonormal polynomial basis of degree <= k on a physical triangle.

    Monomials in the centroid-centered, diameter-scaled coordinates are
    orthonormalized against the cell mass matrix by a Cholesky factorization,
    so the mass matrix of the resulting basis is the identity and its
    conditioning does not degrade under mesh refinement.
    """

    def __init__(self, vertices, k):
        self.vertices = np.asarray(vertices, dtype=float)
        self.k = int(k)
        self.exponents = monomial_exponents(self.k)
        self.dim = len(self.exponents)
        self.centroid = self.vertices.mean(axis=0)
        sides = self.vertices[[1, 2, 0]] - self.vertices
        self.diameter = float(np.linalg.norm(sides, axis=1).max())
        self.area = triangle_area(self.vertices)
        if self.area <= 0.0:
            raise ValueError("degenerate cell: nonpositive area")
        rule = triangle_quadrature(2 * self.k)
        pts, w = map_to_triangle(rule, self.vertices)
        raw = scaled_monomials(pts, self.centroid, self.diameter, self.exponents)
        inv_t = np.eye(self.dim)
        # two orthonormalization passes keep the basis orthonormal to
        # machine precision even on badly shaped cells at high degree
        for _ in range(2):
            phi = raw @ inv_t
            mass = (phi * w[:, None]).T @ phi
            try:
                chol = np.linalg.cholesky(mass)
            except np.linalg.LinAlgError as exc:
                raise ValueError("singular local mass matrix (degenerate cell)") from exc
            inv_t = inv_t @ solve_triangular(chol, np.eye(self.dim), lower=True).T
        self._inv_t = inv_t

    def eval(self, points):
        """Basis values at physical points, shape (n_points, dim)."""
        return scaled_monomials(points, self.centroid, self.diameter, self.exponents) @ self._inv_t

    def grad(self, points):
        """Basis gradients at physical points, shape (n_points, dim, 2)."""
        gx, gy = scaled_monomial_grads(points, self.centroid, self.diameter, self.exponents)
        return np.stack([gx @ self._inv_t, gy @ self._inv_t], axis=-1)


class EdgeBasis:
    """Orthonormal Legendre basis for P_k on the canonical edge parameter.

    Orthonormal with respect to dt on [0, 1]; the L2(e) mass matrix of the
    basis is therefore |e| times the identity.
    """

    def __init__(self, k):
        self.k = int(k)
        self.dim = self.k + 1
        self._coef = np.diag(np.sqrt(2.0 * np.arange(self.dim) + 1.0))

    def eval(self, t):
        """Basis values at parameters t in [0, 1], shape (n_points, k + 1)."""
        t = np.asarray(t, dtype=float)
        return legval(2.0 * t - 1.0, self._coef).T
