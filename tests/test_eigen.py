import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from wgsteklov import eigen
from wgsteklov.assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    PowerEps,
    WgOperatorPair,
    assemble,
    interpolate,
)
from wgsteklov.eigen import (
    CondensedPencil,
    NumericalError,
    condense,
    dense_eigenvalues,
    eliminate_cells,
    rayleigh_quotient,
    solve_condensed,
    solve_pair,
)
from wgsteklov.harness import main
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, build_structured_mesh
from wgsteklov.source import exponential_solution, solve_source
from helpers import global_elimination, interior_dofs

GAMMA = GammaStabilizer(PowerEps(0.1))


def synthetic_pair():
    # hand-checkable 3x3 pencil: one cell whose local matrix is all of A, with
    # cell DOF {0}, interior edge DOF {1} and boundary DOF {2}
    K = np.array([[[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]])
    dof_map = SimpleNamespace(
        n_dofs=3, n_cell_dofs=1, dim_cell=1, dim_edge=1, boundary_dofs=np.array([2]),
        local_dofs=np.array([[0, 1, 2]]),
        classes=SimpleNamespace(class_of=np.array([0]), members=[np.array([0])]),
    )
    return WgOperatorPair(K, np.ones((1, 1, 1)), dof_map)


def test_synthetic_schur_complement():
    # eliminating the cell leaves the edge operator [[3/2, 1], [1, 2]], whose
    # boundary Schur complement is 2 - 1 * (2/3) * 1 = 4/3
    pencil = condense(synthetic_pair())
    assert pencil.S.shape == (1, 1)
    assert pencil.S[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    result = solve_condensed(pencil, 1)
    assert result.values[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert result.residuals[0] < 1e-14
    # back-substitution: u_1 = -(2/3) u_2 on the edge, u_0 = -(1/2) u_1 = (1/3) u_2
    u = result.vectors[:, 0]
    assert u[1] == pytest.approx(-2.0 / 3.0 * u[2], rel=1e-14)
    assert u[0] == pytest.approx(1.0 / 3.0 * u[2], rel=1e-14)


def test_singular_cell_block_raises():
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 2), 1), GAMMA)
    d = pair.dof_map.dim_cell
    pair.local[pair.dof_map.classes.class_of[0], :d, :d] = 0.0
    with pytest.raises(NumericalError, match="singular cell block"):
        condense(pair)


LOCAL_CASES = [(UNIT_SQUARE, k, n) for k in (1, 2, 3) for n in (2, 8)] + [(L_SHAPE, 5, 8)]
STABILIZERS = pytest.mark.parametrize(
    "stabilizer", [GAMMA, AlphaStabilizer(0.01)], ids=["gamma", "alpha"]
)


@STABILIZERS
@pytest.mark.parametrize("domain,k,n", LOCAL_CASES)
def test_local_elimination_matches_global_elimination(domain, k, n, stabilizer):
    # the edge operator summed from the local Schur complements, and the
    # cell parts of the expansion, against the elimination on the assembled A
    pair = assemble(DofMap(build_structured_mesh(domain, n), k), stabilizer)
    cells = eliminate_cells(pair)
    W, E = global_elimination(pair.A, pair.dof_map)
    assert abs(cells.E - E).max() <= 1e-15 * abs(E).max()
    u_e = np.random.default_rng(0).standard_normal((E.shape[0], 2))
    want = -(W @ u_e)
    u = cells.expand(u_e)
    assert np.array_equal(u[pair.dof_map.n_cell_dofs :], u_e)
    assert np.abs(u[: pair.dof_map.n_cell_dofs] - want).max() <= 1e-14 * np.abs(want).max()
    single = cells.expand(u_e[:, 0])[: pair.dof_map.n_cell_dofs]
    assert np.abs(single - want[:, 0]).max() <= 1e-14 * np.abs(want).max()


@STABILIZERS
@pytest.mark.parametrize("domain,k,n", LOCAL_CASES)
def test_local_apply_and_norm_match_assembled_A(domain, k, n, stabilizer):
    pair = assemble(DofMap(build_structured_mesh(domain, n), k), stabilizer)
    V = np.random.default_rng(1).standard_normal((pair.dof_map.n_dofs, 3))
    want = pair.A @ V
    assert np.abs(pair.apply(V) - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(pair.apply(V[:, 1]) - want[:, 1]).max() <= 1e-14 * np.abs(want).max()
    a_norm = abs(pair.A).sum(axis=1).max()
    assert abs(eliminate_cells(pair).a_norm - a_norm) <= 4 * np.spacing(a_norm)


def test_boundary_mass_is_the_boundary_block_of_B():
    # each boundary DOF lies on one boundary edge, so the boundary block of B
    # is block diagonal with exactly the edge mass matrices that M is factored from
    pair = assemble(DofMap(build_structured_mesh(L_SHAPE, 4), 2), GAMMA)
    g = pair.dof_map.boundary_dofs
    d = pair.dof_map.dim_edge
    M = pair.B[g][:, g].toarray()
    for i, block in enumerate(pair.boundary_mass):
        assert np.array_equal(M[i * d : (i + 1) * d, i * d : (i + 1) * d], block)
        M[i * d : (i + 1) * d, i * d : (i + 1) * d] = 0.0
    assert not M.any()
    pair.boundary_mass[3] = 0.0
    with pytest.raises(NumericalError, match="boundary mass block is not positive definite"):
        condense(pair)


def test_solve_paths_never_assemble_A(monkeypatch, tmp_path):
    # the eigen and source solves, the Rayleigh quotient and a converge study
    # work from the local matrices; the assembled A is formed only where it is read
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 2)
    pair = assemble(dof_map, GAMMA)
    assert "A" not in vars(pair)
    assert pair.A is pair.A

    def unavailable(self):
        raise AssertionError("the assembled A was read")

    monkeypatch.setattr(WgOperatorPair, "A", property(unavailable))
    pair = assemble(dof_map, GAMMA)
    rayleigh_quotient(pair, solve_pair(pair, 4).vectors[:, 0])
    solve_source(dof_map, GAMMA, exponential_solution().flux)
    out = tmp_path / "study.csv"
    assert main(["converge", "--domain", "square", "--k", "2", "--gamma", "pow:0.1",
                 "--levels", "2,4", "--out", str(out)]) == 0


def test_eigen_backward_error_gate_rejects_nan_vectors(monkeypatch):
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 2), 1), GAMMA))
    values, vectors = pencil.eigenpairs(2)
    monkeypatch.setattr(pencil, "eigenpairs", lambda m: (values, np.full_like(vectors, np.nan)))
    with pytest.raises(NumericalError, match="eigenpair residual nan"):
        solve_condensed(pencil, 2)


def test_condensed_size_and_symmetry():
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 2), 1), GAMMA))
    assert pencil.S.shape == (16, 16)
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 4), 1), GAMMA))
    asym = np.abs(pencil.S - pencil.S.T).max() / np.abs(pencil.S).max()
    assert asym <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("domain,k", [(UNIT_SQUARE, 1), (UNIT_SQUARE, 2), (UNIT_SQUARE, 3), (L_SHAPE, 1)])
def test_condensation_matches_dense_bruteforce(domain, k, n):
    # the condensed spectrum must equal the finite eigenvalues of the full
    # pencil, obtained by an independent dense QZ solve
    pair = assemble(DofMap(build_structured_mesh(domain, n), k), GAMMA)
    pencil = condense(pair)
    full = solve_condensed(pencil, pencil.size, rtol=1e-8).values
    reference = dense_eigenvalues(pair)
    assert len(reference) == len(pair.dof_map.boundary_dofs)
    assert np.allclose(full, reference, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("domain,k", [(UNIT_SQUARE, 1), (UNIT_SQUARE, 2), (L_SHAPE, 1)])
def test_lanczos_matches_dense_spectrum(domain, k, n):
    # m below the boundary size runs Lanczos on the inverse boundary Schur
    # operator; the full spectrum comes from the dense S of the same pencil
    pencil = condense(assemble(DofMap(build_structured_mesh(domain, n), k), GAMMA))
    dense = solve_condensed(pencil, pencil.size).values
    for m in (1, 4, pencil.size - 1):
        result = solve_condensed(pencil, m)
        assert np.allclose(result.values, dense[:m], rtol=1e-12, atol=0.0)
        assert np.all(result.normalized)


class _LoggingLU:
    """Stand-in for a SuperLU object that logs each solve: "s" for a single
    vector, "S" for a block."""

    def __init__(self, lu, log):
        self._lu = lu
        self._log = log

    def solve(self, rhs):
        self._log.append("s" if np.ndim(rhs) == 1 else "S")
        return self._lu.solve(rhs)


def test_one_solve_per_lanczos_application_and_one_refined_block_solve(monkeypatch):
    # log "A" per Lanczos application and "R" per refined solve: Lanczos
    # applies the unrefined operator with one single-vector solve, and one
    # refined block solve serves Rayleigh-Ritz and the expansion together
    log = []
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 2), GAMMA))
    pencil.cells.lu = _LoggingLU(pencil.cells.lu, log)
    matvec, refined = CondensedPencil._lanczos_matvec, eigen._refined_solve
    monkeypatch.setattr(
        CondensedPencil, "_lanczos_matvec", lambda self, y: log.append("A") or matvec(self, y)
    )
    monkeypatch.setattr(eigen, "_refined_solve", lambda *args: log.append("R") or refined(*args))
    solve_condensed(pencil, 4)
    assert re.fullmatch(r"(As){5,}RSS", "".join(log)), "".join(log)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE])
def test_rayleigh_ritz_step_sets_the_values(monkeypatch, domain, k, n):
    # a Lanczos operator off by a relative 1e-8 leaves its invariant
    # subspaces as they are; the refined Rayleigh-Ritz step must still give
    # the eigenvalues of the full-spectrum path to 1e-12
    pencil = condense(assemble(DofMap(build_structured_mesh(domain, n), k), GAMMA))
    dense = solve_condensed(pencil, pencil.size).values[:4]
    matvec = CondensedPencil._lanczos_matvec
    monkeypatch.setattr(
        CondensedPencil, "_lanczos_matvec", lambda self, y: (1 + 1e-8) * matvec(self, y)
    )
    assert np.allclose(solve_condensed(pencil, 4).values, dense, rtol=1e-12, atol=0.0)


def test_backward_errors_match_per_pair_formula():
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 2), GAMMA)
    result = solve_pair(pair, 4)
    a_norm = abs(pair.A).sum(axis=1).max()
    b_norm = abs(pair.B).sum(axis=1).max()
    for lam, u, res in zip(result.values, result.vectors.T, result.residuals):
        r = np.linalg.norm(pair.A @ u - lam * (pair.B @ u))
        assert res == pytest.approx(r / ((a_norm + lam * b_norm) * np.linalg.norm(u)), rel=1e-12)
    with pytest.raises(NumericalError, match=r"eigenpair residual .* exceeds tolerance 1\.0e-30"):
        solve_pair(pair, 4, rtol=1e-30)


def test_near_degenerate_pair_comes_out_as_two_values():
    # the square's second and third eigenvalues nearly coincide: at k=3,
    # n=16 they lie 3.5e-11 apart, and Lanczos must return both of them
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 3), GAMMA))
    values = solve_condensed(pencil, 4).values
    assert np.allclose(values, solve_condensed(pencil, pencil.size).values[:4], rtol=1e-12, atol=0.0)
    assert 1e-11 < values[2] - values[1] < 1e-10


def test_repeated_solves_are_bit_identical():
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 2), GAMMA)
    first, second = solve_pair(pair, 4), solve_pair(pair, 4)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def test_lanczos_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(spla, "eigsh", partial(spla.eigsh, maxiter=1, ncv=5))
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 1), GAMMA)
    with pytest.raises(NumericalError, match="Lanczos solve failed.*No convergence"):
        solve_pair(pair, 4)


def test_solver_invariants():
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 1), GAMMA)
    result = solve_pair(pair, 6)
    values = result.values
    assert np.all(np.diff(values) >= 0)
    assert np.all(values > 0)
    assert np.all(result.residuals <= 1e-9)
    assert np.all(np.abs(result.b_norms - 1.0) <= 1e-10)
    assert np.all(result.normalized)


def test_reference_eigenvalue_level_16():
    # frozen regression value for the first eigenvalue on the 16x16 square,
    # matching the reference minus its tabulated error to 1e-6
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 1), GAMMA)
    result = solve_pair(pair, 1)
    expected = 0.2400790854320629 - 2.1839e-4
    assert abs(result.values[0] - expected) <= 1e-6


def test_monotone_under_refinement():
    values = []
    for n in (4, 8, 16):
        pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, n), 1), GAMMA)
        values.append(solve_pair(pair, 4).values)
    for j in range(4):
        seq = [v[j] for v in values]
        assert seq[0] <= seq[1] <= seq[2]


def test_rayleigh_quotient():
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 1)
    pair = assemble(dof_map, GAMMA)
    # all-ones interpolant: energy is the area, boundary norm the perimeter
    q = interpolate(dof_map, lambda p: np.ones(len(p)))
    assert rayleigh_quotient(pair, q) == pytest.approx(0.25, rel=1e-10)
    assert rayleigh_quotient(pair, 2.0 * q) == pytest.approx(0.25, rel=1e-10)
    result = solve_pair(pair, 2)
    for j in range(2):
        assert rayleigh_quotient(pair, result.vectors[:, j]) == pytest.approx(
            result.values[j], rel=1e-10
        )
    v = np.zeros(pair.dof_map.n_dofs)
    v[interior_dofs(pair.dof_map)[0]] = 1.0
    with pytest.raises(ValueError):
        rayleigh_quotient(pair, v)


def test_solve_condensed_m_validation():
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 2), 1), GAMMA)
    pencil = condense(pair)
    with pytest.raises(ValueError):
        solve_condensed(pencil, 0)
    with pytest.raises(ValueError):
        solve_condensed(pencil, pencil.size + 1)
