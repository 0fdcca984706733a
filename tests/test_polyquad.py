import math

import numpy as np
import pytest

from helpers import random_triangle
from wgsteklov.polyquad import (
    CellBasis,
    EdgeBasis,
    dim_pk,
    edge_quadrature,
    map_to_triangle,
    monomial_exponents,
    triangle_quadrature,
)

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_monomial_integral(a, b):
    # exact value of the integral of x^a y^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 11, 13, 14, 16, 20])
def test_triangle_rule_exactness(degree):
    rule = triangle_quadrature(degree)
    # Gauss-Legendre in xi for the degree, in eta for one more (the area factor 1 - eta)
    assert len(rule.weights) == ((degree + 2) // 2) * ((degree + 3) // 2)
    assert np.all(rule.weights > 0)
    assert float(rule.weights.sum()) == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(rule.points >= -1e-14)
    pts, w = map_to_triangle(rule, REF_TRIANGLE)
    for a, b in monomial_exponents(degree):
        exact = reference_monomial_integral(a, b)
        got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-15), (a, b)


def test_triangle_rule_spot_values():
    pts, w = map_to_triangle(triangle_quadrature(4), REF_TRIANGLE)
    assert float(w.sum()) == pytest.approx(0.5, rel=1e-14)
    assert float(w @ (pts[:, 0] * pts[:, 1])) == pytest.approx(1 / 24, rel=1e-14)
    assert float(w @ pts[:, 0] ** 2) == pytest.approx(1 / 12, rel=1e-14)


def test_rules_reject_negative_degree():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        edge_quadrature(-2)


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 9, 15])
def test_edge_rule_exactness(degree):
    rule = edge_quadrature(degree)
    assert np.all(rule.weights > 0)
    assert float(rule.weights.sum()) == pytest.approx(1.0, rel=1e-14)
    for p in range(degree + 1):
        assert float(rule.weights @ rule.points**p) == pytest.approx(
            1 / (p + 1), rel=1e-13
        ), p


def test_edge_rule_gauss_property():
    # an m-point rule is exact through degree 2m - 1
    for degree in (1, 3, 5, 7):
        rule = edge_quadrature(degree)
        m = len(rule.weights)
        assert degree <= 2 * m - 1
        p = 2 * m - 1
        assert float(rule.weights @ rule.points**p) == pytest.approx(1 / (p + 1), rel=1e-12)


def test_edge_rule_integral_spots():
    rule = edge_quadrature(3)
    assert float(rule.weights @ np.ones_like(rule.points)) == pytest.approx(1.0)
    assert float(rule.weights @ rule.points**2) == pytest.approx(1 / 3, rel=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_cell_basis_orthonormal(k, rng):
    # random shapes can be thin slivers; evaluation roundoff grows with the
    # raw monomial conditioning there, hence the slightly relaxed tolerance
    verts = random_triangle(rng)
    basis = CellBasis(verts, k)
    assert basis.dim == dim_pk(k)
    rule = triangle_quadrature(2 * k + 2)
    pts, w = map_to_triangle(rule, verts)
    phi = basis.eval(pts)
    mass = (phi * w[:, None]).T @ phi
    assert np.allclose(mass, np.eye(basis.dim), atol=1e-11)


def test_cell_basis_conditioning_under_scaling():
    # the centroid-centered, diameter-scaled construction keeps the mass
    # matrix well conditioned on tiny cells: orthonormality still holds at
    # k = 5 on a cell 64 times smaller
    base = np.array([[0.1, 0.2], [0.9, 0.3], [0.4, 0.8]])
    for scale in (1.0, 1 / 64.0):
        verts = base * scale
        basis = CellBasis(verts, 5)
        pts, w = map_to_triangle(triangle_quadrature(12), verts)
        phi = basis.eval(pts)
        mass = (phi * w[:, None]).T @ phi
        assert np.allclose(mass, np.eye(basis.dim), atol=1e-10)


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_cell_basis_gradient_matches_finite_differences(k, rng):
    verts = random_triangle(rng)
    basis = CellBasis(verts, k)
    centroid = verts.mean(axis=0)
    pts = centroid + 0.05 * (verts - centroid)  # interior points
    g = basis.grad(pts)
    h = 1e-6
    for comp, e in enumerate(np.eye(2)):
        fd = (basis.eval(pts + h * e) - basis.eval(pts - h * e)) / (2 * h)
        scale = np.abs(g[:, :, comp]).max() + 1.0
        assert np.allclose(g[:, :, comp], fd, atol=1e-6 * scale)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_basis_nesting(k, rng):
    # span(P_k) is contained in span(P_{k+1}): projecting each degree-k basis
    # member onto the degree-(k+1) basis reproduces it pointwise; and the
    # Cholesky orthonormalization of graded monomials makes the leading
    # dim P_k members of the degree-(k+1) basis the degree-k basis itself,
    # which the weak gradient and the probe defects read as P_{k-1}
    verts = random_triangle(rng)
    coarse = CellBasis(verts, k)
    fine = CellBasis(verts, k + 1)
    rule = triangle_quadrature(2 * k + 4)
    pts, w = map_to_triangle(rule, verts)
    pc = coarse.eval(pts)
    pf = fine.eval(pts)
    coef = (pf * w[:, None]).T @ pc
    assert np.allclose(pf @ coef, pc, atol=1e-12)
    assert np.allclose(pf[:, : coarse.dim], pc, rtol=0, atol=1e-12)


def test_edge_basis_orthonormal():
    for k in (0, 1, 2, 5):
        basis = EdgeBasis(k)
        rule = edge_quadrature(2 * k + 2)
        phi = basis.eval(rule.points)
        mass = (phi * rule.weights[:, None]).T @ phi
        assert np.allclose(mass, np.eye(k + 1), atol=1e-13)


def test_degenerate_cell_rejected():
    with pytest.raises(ValueError):
        CellBasis(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1)
