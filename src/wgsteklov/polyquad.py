"""Polynomial bases on triangles and edges, and quadrature rules of controlled exactness.

Triangle rules are conical (Duffy-type) products of Gauss-Legendre and
Gauss-Jacobi rules, so any requested exactness degree is available with
strictly positive weights; the Gauss-Jacobi rule is computed here from its
three-term recurrence (Golub-Welsch), so the package needs no
scipy.special.  Cell bases are monomials centered at the cell centroid and
scaled by the cell diameter, then orthonormalized in L2 of the physical
cell; edge bases are Legendre polynomials orthonormal with respect to the
unit parameter interval.
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
    of the edge length.
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)


def gauss_jacobi_1_0(m):
    """The m-point Gauss rule on [-1, 1] for the weight 1 - x (Gauss-Jacobi
    with alpha = 1, beta = 0): nodes ascending, and weights.

    The nodes are the eigenvalues of the Jacobi matrix of the weight's
    orthonormal polynomials p_n (Golub-Welsch), refined by one Newton step
    on p_m; each weight is mu_0 / sum_{n<m} p_n(x)^2, with p_0 = 1 and
    mu_0 = 2 the integral of the weight.
    """
    n = np.arange(m + 1, dtype=float)
    a = -1.0 / ((2.0 * n + 1.0) * (2.0 * n + 3.0))
    b = np.sqrt(n * (n + 1.0)) / (2.0 * n + 1.0)
    x = np.linalg.eigvalsh(np.diag(a[:m]) + np.diag(b[1:m], 1) + np.diag(b[1:m], -1))
    p, dp, _ = _jacobi_1_0_recurrence(x, a, b, m)
    x = x - p / dp
    return x, 2.0 / _jacobi_1_0_recurrence(x, a, b, m)[2]


def _jacobi_1_0_recurrence(x, a, b, m):
    """p_m(x), p_m'(x) and sum_{n<m} p_n(x)^2 by the three-term recurrence
    b_{n+1} p_{n+1} = (x - a_n) p_n - b_n p_{n-1}, differentiated for p'."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    for j in range(m):
        total += p * p
        p_next = ((x - a[j]) * p - b[j] * p_prev) / b[j + 1]
        dp_next = (p + (x - a[j]) * dp - b[j] * dp_prev) / b[j + 1]
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
    return p, dp, total


@lru_cache(maxsize=None)
def triangle_quadrature(degree):
    """Quadrature rule on the triangle exact for total degree <= `degree`.

    Built as a conical product of an m-point Gauss-Legendre rule and an
    m-point Gauss-Jacobi rule with weight (1 - x), m = (degree + 2) // 2.
    All weights are positive and any nonnegative degree is supported.
    Rules are cached; treat the returned arrays as read-only.
    """
    if degree < 0:
        raise ValueError(f"quadrature degree must be nonnegative, got {degree}")
    m = max(1, (degree + 2) // 2)
    xg, wg = leggauss(m)
    xi = (xg + 1.0) / 2.0
    wxi = wg / 2.0
    xj, wj = gauss_jacobi_1_0(m)
    eta = (xj + 1.0) / 2.0
    weta = wj / 4.0
    x = np.outer(xi, 1.0 - eta).ravel()
    y = np.tile(eta, m)
    w = np.outer(wxi, weta).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    rule = QuadratureRule(bary, 2.0 * w)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def edge_quadrature(degree):
    """Gauss-Legendre rule on [0, 1] exact for polynomial degree <= `degree`.

    Rules are cached; treat the returned arrays as read-only.
    """
    if degree < 0:
        raise ValueError(f"quadrature degree must be nonnegative, got {degree}")
    m = max(1, (degree + 2) // 2)
    x, w = leggauss(m)
    rule = QuadratureRule((x + 1.0) / 2.0, w / 2.0)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


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
