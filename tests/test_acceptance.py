"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Reference data are frozen convergence-table values for the structured
diagonal triangulation; error comparisons carry a 10% mesh-pattern
allowance and lower-bound checks a 1e-9 slack for the numerically obtained
reference eigenvalues.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from helpers import local_interpolant, random_poly, random_triangle
from wgsteklov.assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    NegInvLog,
    PowerEps,
    assemble,
)
from wgsteklov.eigen import condense, dense_eigenvalues, solve_condensed
from wgsteklov.glb import GlbConfig, glb_criterion, run_glb_study
from wgsteklov.harness import (
    SQUARE_REFERENCE_EIGENVALUES,
    StudyConfig,
    run_eigen_study,
    run_source_study,
)
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, build_structured_mesh
from wgsteklov.source import exponential_solution
from wgsteklov.wgcore import LocalCell, epsilon_h_diagnostic, project_vector, weak_gradient_map
from wgsteklov.assembly import gamma_of_h

LEVELS = (8, 16, 32, 64)

# frozen eigenvalue-error table for the square, k = 1, gamma = h^0.1
K1_ERRORS = [
    [8.0705e-4, 2.1839e-4, 5.8965e-5, 1.5905e-5],
    [1.6157e-2, 2.9073e-3, 6.4444e-4, 1.5391e-4],
    [1.4404e-2, 2.7983e-3, 6.3785e-4, 1.5357e-4],
    [7.3939e-2, 1.0259e-2, 2.1026e-3, 4.8367e-4],
]
K1_ORDER_RANGES = [(1.89, 1.89), (2.07, 2.47), (2.05, 2.36), (2.12, 2.85)]

# frozen n = 64 first-eigenvalue error for the square, k = 2 (order of
# magnitude only; it sits near solver tolerance)
K2_LAMBDA1_ERR_64 = 4.8654e-12

# frozen L-shape eigenvalues, k = 5, for the two power-law weights
LSHAPE_K5_POW01 = [
    [0.1829642327, 0.1829642362, 0.1829642369, 0.1829642374],
    [0.8931819640, 0.8934620312, 0.8935729025, 0.8936168669],
    [1.688598908, 1.688600231, 1.688600439, 1.688600472],
    [3.217859767, 3.217859784, 3.217859787, 3.217859788],
]
LSHAPE_K5_POW02 = [
    [0.1829642326, 0.1829642362, 0.1829642369, 0.1829642374],
    [0.8931807937, 0.8934614445, 0.8935726320, 0.8936167483],
    [1.688598898, 1.688600229, 1.688600438, 1.688600471],
    [2.779233802, 3.217859784, 3.217859787, 3.217859788],
]


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def timed_eigen_study(**kwargs):
    config = StudyConfig(**kwargs)
    start = time.monotonic()
    result = run_eigen_study(config)
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def square_k1():
    return timed_eigen_study(
        domain=UNIT_SQUARE,
        k=1,
        stabilizer=GammaStabilizer(PowerEps(0.1)),
        levels=LEVELS,
        n_eigs=4,
        refs=SQUARE_REFERENCE_EIGENVALUES,
    )


@pytest.fixture(scope="session")
def square_k2():
    return timed_eigen_study(
        domain=UNIT_SQUARE,
        k=2,
        stabilizer=GammaStabilizer(PowerEps(0.1)),
        levels=LEVELS,
        n_eigs=4,
        refs=SQUARE_REFERENCE_EIGENVALUES,
    )


@pytest.fixture(scope="session")
def lshape_studies():
    configs = {
        "k5_pow01": dict(k=5, stabilizer=GammaStabilizer(PowerEps(0.1))),
        "k5_pow02": dict(k=5, stabilizer=GammaStabilizer(PowerEps(0.2))),
        "k1_neglog": dict(k=1, stabilizer=GammaStabilizer(NegInvLog())),
    }
    out = {}
    total = 0.0
    for name, cfg in configs.items():
        result, elapsed = timed_eigen_study(
            domain=L_SHAPE, levels=LEVELS, n_eigs=4, refs=None, **cfg
        )
        out[name] = result
        total += elapsed
    return out, total


def test_criterion_01_square_k1_table(square_k1):
    study, elapsed = square_k1
    ok = elapsed <= 30.0
    detail = [f"runtime {elapsed:.1f}s"]
    for j in range(4):
        for i in range(4):
            err = study.errors[j][i]
            ref = K1_ERRORS[j][i]
            ok &= err > 0
            ok &= abs(err - ref) / ref <= 0.10
        lo, hi = K1_ORDER_RANGES[j]
        for order in study.orders[j][1:]:
            ok &= lo - 0.1 <= order <= hi + 0.1
    detail.append("max rel dev %.2e" % max(
        abs(study.errors[j][i] - K1_ERRORS[j][i]) / K1_ERRORS[j][i]
        for j in range(4) for i in range(4)
    ))
    report(1, "square k=1 error table reproduced", ok, ", ".join(detail))


def test_criterion_02_square_k2_orders(square_k2):
    study, elapsed = square_k2
    ok = elapsed <= 180.0
    # transitions among levels up to n = 32 for every eigenvalue
    for j in range(4):
        for order in study.orders[j][1:3]:
            ok &= 3.9 - 0.15 <= order <= 4.1 + 0.15
    # the final transition is still fourth order for the well-resolved pairs
    for j in (1, 2, 3):
        ok &= 3.9 - 0.15 <= study.orders[j][3] <= 4.1 + 0.15
    # first eigenvalue at n = 64: order of magnitude only
    err64 = study.errors[0][3]
    ok &= K2_LAMBDA1_ERR_64 / 10 <= err64 <= K2_LAMBDA1_ERR_64 * 10
    report(2, "square k=2 fourth-order convergence", ok,
           f"runtime {elapsed:.1f}s, lambda_1 err(n=64) {err64:.2e}")


def test_criterion_03_lower_bound_property(square_k1, square_k2):
    ok = True
    worst = np.inf
    for study, _ in (square_k1, square_k2):
        for j in range(4):
            for err in study.errors[j]:
                ok &= err >= -1e-9
                worst = min(worst, err)
    report(3, "discrete eigenvalues below references", ok, f"min error {worst:.2e}")


def test_criterion_04_lshape_trends_and_digits(lshape_studies):
    studies, elapsed = lshape_studies
    ok = elapsed <= 600.0
    for study in studies.values():
        for j in range(4):
            ok &= study.trend_nondecreasing(j)
    worst = 0.0
    for name, table in (("k5_pow01", LSHAPE_K5_POW01), ("k5_pow02", LSHAPE_K5_POW02)):
        study = studies[name]
        for j in range(4):
            for i in (1, 2, 3):  # n >= 16
                rel = abs(study.eigenvalues[i][j] - table[j][i]) / table[j][i]
                worst = max(worst, rel)
                ok &= rel <= 1e-6
    report(4, "L-shape trends and k=5 digits", ok,
           f"runtime {elapsed:.1f}s, worst rel dev {worst:.2e}")


def test_criterion_05_commutativity():
    # shape-regular random cells: slivers amplify coefficient roundoff past
    # the scheme's mesh-regularity assumptions
    rng = np.random.default_rng(812)
    start = time.monotonic()
    ok = True
    worst = 0.0
    for k in (1, 2, 3, 4):
        for _ in range(50):
            cell = LocalCell(
                random_triangle(rng, min_area=0.2), k,
                flips=tuple(rng.integers(0, 2, 3).astype(bool)),
            )
            poly = random_poly(rng, k + 3)
            lhs = weak_gradient_map(cell) @ local_interpolant(cell, poly)
            rhs = project_vector(cell, poly.grad)
            dev = float(np.abs(lhs - rhs).max())
            worst = max(worst, dev)
            ok &= dev <= 1e-12
    elapsed = time.monotonic() - start
    ok &= elapsed <= 5.0
    report(5, "weak gradient commutes with interpolation", ok,
           f"runtime {elapsed:.1f}s, worst dev {worst:.1e}")


def test_criterion_06_condensation_oracle():
    start = time.monotonic()
    ok = True
    worst = 0.0
    for n in (2, 4):
        pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, n), 1),
                        GammaStabilizer(PowerEps(0.1)))
        pencil = condense(pair)
        condensed = solve_condensed(pencil, pencil.size, rtol=1e-8).values
        reference = dense_eigenvalues(pair)
        ok &= len(reference) == pencil.size
        rel = float(np.max(np.abs(condensed - reference) / np.abs(reference)))
        worst = max(worst, rel)
        ok &= rel <= 1e-9
    elapsed = time.monotonic() - start
    ok &= elapsed <= 5.0
    report(6, "condensed spectrum matches dense brute force", ok,
           f"worst rel dev {worst:.1e}")


def test_criterion_07_operator_properties():
    start = time.monotonic()
    gamma = GammaStabilizer(PowerEps(0.1))
    ok = True
    for n, k in ((2, 1), (4, 1), (2, 2)):
        pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, n), k), gamma)
        A = pair.A.toarray()
        ok &= np.linalg.eigvalsh(A).min() > 0
        B = pair.B.toarray()
        ok &= np.linalg.matrix_rank(B) == len(pair.dof_map.boundary_dofs)
        ok &= np.linalg.eigvalsh(B).min() > -1e-12
        ok &= (pair.A != pair.A.T).nnz == 0
    for n in (8, 16):
        pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, n), 1), gamma)
        np.linalg.cholesky(pair.A.toarray())  # raises if not positive definite
        ok &= (pair.A != pair.A.T).nnz == 0
        pencil = condense(pair)
        asym = np.abs(pencil.S - pencil.S.T).max() / np.abs(pencil.S).max()
        ok &= asym <= 1e-12
    elapsed = time.monotonic() - start
    ok &= elapsed <= 10.0
    report(7, "operator pair SPD/PSD structure", ok, f"runtime {elapsed:.1f}s")


def test_criterion_08_source_problem_orders():
    start = time.monotonic()
    ok = True
    details = []
    for k in (1, 2):
        study = run_source_study(
            UNIT_SQUARE, k, GammaStabilizer(PowerEps(0.1)), LEVELS,
            exponential_solution(),
        )
        v_bound = k - 0.1 - 0.15
        x_bound = k + 0.5 - 0.1 - 0.15
        ok &= study.v_fitted >= v_bound
        ok &= study.x_fitted >= x_bound
        details.append(f"k={k}: V {study.v_fitted:.3f}>={v_bound:.2f}"
                       f" X {study.x_fitted:.3f}>={x_bound:.2f}")
    elapsed = time.monotonic() - start
    ok &= elapsed <= 60.0
    report(8, "source-problem convergence orders", ok,
           f"runtime {elapsed:.1f}s, " + "; ".join(details))


def test_criterion_09_projection_defect_diagnostic():
    solution = exponential_solution()
    scaled = []
    ok = True
    for n in LEVELS:
        mesh = build_structured_mesh(UNIT_SQUARE, n)
        gamma = gamma_of_h(PowerEps(0.1), mesh.h_max)
        eps = epsilon_h_diagnostic(solution.u, solution.grad, DofMap(mesh, 1), gamma)
        ok &= eps > 0
        scaled.append(eps / mesh.h_max**2)
    ratio = max(scaled) / min(scaled)
    ok &= ratio <= 2.0
    report(9, "projection-defect diagnostic positive, scales like h^2", ok,
           f"scaled values {['%.4f' % s for s in scaled]}, spread {ratio:.3f}")


def test_criterion_10_glb_pathway():
    ok = True
    # alpha-stabilized operators stay positive definite
    for alpha in (0.01, 0.1, 1.0):
        pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 2), 1), AlphaStabilizer(alpha))
        ok &= np.linalg.eigvalsh(pair.A.toarray()).min() > 0
    # certificate arithmetic against hand-computed cases
    cert = glb_criterion(GlbConfig(alpha=0.1, stab_bound=2.0, proj_bound=0.5), None, 1.0)
    ok &= cert.certified and cert.case == 2
    ok &= not glb_criterion(
        GlbConfig(alpha=1.0, stab_bound=1.0, proj_bound=1.0), None, 1.0
    ).certified
    ok &= glb_criterion(
        GlbConfig(alpha=9.0, stab_bound=0.0, proj_bound=0.0), None, 3.0
    ).certified
    # a certified case-2 configuration keeps the discrete value below the
    # reference
    rows = run_glb_study(
        UNIT_SQUARE, (16,), 1,
        GlbConfig(alpha=0.01, stab_bound=2.0, proj_bound=0.5, index=1),
        refs=None,
    )
    ok &= rows[0]["certified"] and rows[0]["case"] == 2
    ok &= rows[0]["lambda_h"] <= SQUARE_REFERENCE_EIGENVALUES[0] + 1e-9
    report(10, "guaranteed-lower-bound pathway", ok,
           f"lambda_h {rows[0]['lambda_h']:.6f} <= {SQUARE_REFERENCE_EIGENVALUES[0]:.6f}")
