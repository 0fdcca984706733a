import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from wgsteklov import eigen, harness
from wgsteklov.assembly import (
    AlphaStabilizer,
    DofMap,
    GammaStabilizer,
    PowerEps,
    WgOperatorPair,
    assemble,
    interpolate,
)
from wgsteklov.eigen import CondensedPencil, NumericalError, condense, solve_condensed, solve_pair
from wgsteklov.harness import SQUARE_REFERENCE_EIGENVALUES, main
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, Mesh, build_structured_mesh
from wgsteklov.source import exponential_solution, solve_source
from helpers import assembled_A, assembled_B, dense_eigenvalues, global_elimination, interior_dofs
from helpers import jittered_mesh, quadrature_boundary_form, rayleigh_quotient, renumbered_mesh

GAMMA = GammaStabilizer(PowerEps(0.1))


def synthetic_pair():
    # hand-checkable 3x3 pencil: one cell whose local matrix K is all of A,
    # held as its factor R (K = R^T R), with cell DOF {0} and two edges of
    # unit length, one cell each and so both on the boundary, with DOFs {1}
    # and {2}
    K = np.array([[[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]])
    dof_map = SimpleNamespace(
        n_dofs=3, dim_cell=1, dim_edge=1, boundary_dofs=np.array([1, 2]),
        edge_dofs=np.array([[1], [2]]), local_dofs=np.array([[0, 1, 2]]),
        classes=SimpleNamespace(class_of=np.array([0]), members=[np.array([0])]),
        mesh=SimpleNamespace(
            length=np.ones(2), boundary_edge=np.array([True, True]), n_edges=2,
            cell_edges=np.array([[0, 1]]),
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), cells=np.array([[0, 1, 2]]),
            edge_cells=np.array([[0, -1], [0, -1]]),
        ),
    )
    return WgOperatorPair(np.linalg.cholesky(K[0]).T[None], dof_map)


def test_synthetic_schur_complement():
    # eliminating the cell leaves the boundary Schur complement
    # S = [[3/2, 1], [1, 2]], with D = I, whose smaller eigenvalue is
    # (7 - sqrt 17) / 4
    pencil = condense(synthetic_pair())
    assert pencil.S.shape == (2, 2)
    assert np.allclose(pencil.S, [[1.5, 1.0], [1.0, 2.0]], rtol=1e-15, atol=0.0)
    lam = (7.0 - np.sqrt(17.0)) / 4.0
    result = solve_condensed(pencil, 1)
    assert result.values[0] == pytest.approx(lam, rel=1e-14)
    assert result.residuals[0] < 1e-14
    # back-substitution: u_0 = -(1/2) u_1 in the cell, and on the boundary
    # (3/2 - lam) u_1 + u_2 = 0
    u = result.vectors[:, 0]
    assert u[0] == pytest.approx(-0.5 * u[1], rel=1e-14)
    assert u[2] == pytest.approx((lam - 1.5) * u[1], rel=1e-14)


def singular_edge_pair():
    # the synthetic pair with a zero edge block: eliminating the cell leaves
    # S = [[-1/2, 0], [0, 0]], which is exactly singular
    pair = synthetic_pair()
    pair.local[0, 1:, 1:] = 0.0
    return pair


def test_singular_edge_operator_raises():
    with pytest.raises(NumericalError, match="edge factorization failed"):
        condense(singular_edge_pair())


def test_cli_singular_edge_operator_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(harness, "assemble", lambda *args: singular_edge_pair())
    argv = ["solve", "--domain", "square", "--n", "2", "--k", "1", "--gamma", "pow:0.1", "--eigs", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "stage 'condense'" in err and "edge factorization failed" in err


def asymmetric_pair():
    # square n=4, k=1 with one entry of one class's local matrix off its
    # mirror by 1e-6.  The eliminations read only one side of the blocks
    # they eliminate, so only an entry that stays in the kept block up to
    # the root, as this one does, reaches S asymmetric
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 4), 1), GAMMA)
    d = pair.dof_map.dim_cell
    pair.local[0, d, d + 1] += 1e-6
    return pair


def test_condensed_matrix_asymmetry_raises(monkeypatch, capsys):
    with pytest.raises(NumericalError, match=r"condensed matrix asymmetry \S+ exceeds 1e-12"):
        condense(asymmetric_pair())
    monkeypatch.setattr(harness, "assemble", lambda *args: asymmetric_pair())
    argv = ["solve", "--domain", "square", "--n", "4", "--k", "1", "--gamma", "pow:0.1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "stage 'condense'" in err and "condensed matrix asymmetry" in err


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


def check_against_global_elimination(pair):
    """The boundary Schur complement from the tree and the extension inward
    against a dense Schur complement of the edge operator E of the global
    elimination; returns the pencil and the oracle's (W, E)."""
    pencil = condense(pair)
    W, E = global_elimination(assembled_A(pair), pair.dof_map)
    E = E.toarray()
    g = pair.dof_map.boundary_dofs - pair.dof_map.n_cell_dofs
    i = np.setdiff1d(np.arange(len(E)), g)
    want_S = E[np.ix_(g, g)] - E[np.ix_(g, i)] @ np.linalg.solve(E[np.ix_(i, i)], E[np.ix_(i, g)])
    assert np.abs(pencil.S - want_S).max() <= 1e-13 * np.abs(want_S).max()
    u_g = np.random.default_rng(2).standard_normal((len(g), 2))
    u_e = pencil.expand(u_g)[pair.dof_map.n_cell_dofs :]
    assert np.array_equal(u_e[g], u_g)
    assert np.abs((E @ u_e)[i]).max() <= 1e-13 * np.abs(E).max() * np.abs(u_e).max()
    return pencil, W, E


@STABILIZERS
@pytest.mark.parametrize("domain,k,n", LOCAL_CASES)
def test_local_elimination_matches_global_elimination(domain, k, n, stabilizer):
    # the Schur tree, and the cell parts of the expansion of random
    # boundary values, against the elimination on the assembled A
    pair = assemble(DofMap(build_structured_mesh(domain, n), k), stabilizer)
    pencil, W, E = check_against_global_elimination(pair)
    n_c = pair.dof_map.n_cell_dofs
    u_g = np.random.default_rng(0).standard_normal((pencil.size, 2))
    u = pencil.expand(u_g)
    want = -(W @ u[n_c:])
    assert np.array_equal(u[pair.dof_map.boundary_dofs], u_g)
    assert np.abs(u[:n_c] - want).max() <= 1e-14 * np.abs(want).max()
    single = pencil.expand(u_g[:, 0])
    want = -(W @ single[n_c:])
    assert np.abs(single[:n_c] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("domain,k,remesh", [
    (UNIT_SQUARE, 2, jittered_mesh), (L_SHAPE, 2, jittered_mesh), (L_SHAPE, 3, renumbered_mesh),
])
def test_schur_tree_on_meshes_with_other_classes(domain, k, remesh, rng):
    # with no two cells congruent every tree node is a class of its own, and
    # with the vertices renumbered the translates of a cell differ in their
    # edge orientations; the tree stays exact on both
    mesh = remesh(build_structured_mesh(domain, 8), rng)
    check_against_global_elimination(assemble(DofMap(mesh, k), GAMMA))


@STABILIZERS
@pytest.mark.parametrize("domain,k,n", LOCAL_CASES)
def test_local_apply_and_norm_match_assembled_A(domain, k, n, stabilizer):
    pair = assemble(DofMap(build_structured_mesh(domain, n), k), stabilizer)
    V = np.random.default_rng(1).standard_normal((pair.dof_map.n_dofs, 3))
    A = assembled_A(pair)
    want = A @ V
    assert np.abs(pair.apply(V) - want).max() <= 1e-14 * np.abs(want).max()
    assert np.abs(pair.apply(V[:, 1]) - want[:, 1]).max() <= 1e-14 * np.abs(want).max()
    a_norm = abs(A).sum(axis=1).max()
    assert abs(condense(pair).a_norm - a_norm) <= 4 * np.spacing(a_norm)


def test_edge_operator_does_not_couple_the_halves_of_the_top_cut():
    # the first cut of the square runs along x = 1/2: the two halves share
    # only the edges on it, so the root eliminates exactly their DOFs and
    # keeps the boundary DOFs
    k = 2
    mesh = build_structured_mesh(UNIT_SQUARE, 8)
    dof_map = DofMap(mesh, k)
    root = condense(assemble(dof_map, GAMMA)).steps[-1]
    x = mesh.vertices[mesh.edges, 0]
    on_cut = np.flatnonzero((x == 0.5).all(axis=1))
    assert len(on_cut) == 8
    assert root.sep.shape == (1, 8 * (k + 1))
    assert np.array_equal(np.sort(root.sep[0]), dof_map.edge_dofs[on_cut].ravel())
    assert np.array_equal(np.sort(root.kept[0]), dof_map.boundary_dofs)


def test_one_elimination_per_class_and_every_edge_eliminated_once(rng):
    # square k=2 n=16: the 512 cells form two classes of 256, one leaf step
    # each, and every node of a tree level is a translate of the others, so
    # each level that merges (the 256 grid squares, then their 128 pairs,
    # and so on up to the root) takes one dense elimination for all its
    # nodes.  On that mesh, the L-shape and a jittered mesh the DOFs
    # eliminated by the steps and the boundary DOFs cover every DOF once,
    # and each step keeps only boundary DOFs and DOFs that a later step
    # eliminates, so the expansion, top-down, sets every DOF it reads
    square = build_structured_mesh(UNIT_SQUARE, 16)
    steps = condense(assemble(DofMap(square, 2), GAMMA)).steps
    assert [len(step.sep) for step in steps] == [256, 256] + [2 ** j for j in range(8, -1, -1)]
    lshape = build_structured_mesh(L_SHAPE, 8)
    for mesh in (square, lshape, jittered_mesh(lshape, rng)):
        dof_map = DofMap(mesh, 2)
        steps = condense(assemble(dof_map, GAMMA)).steps
        covered = np.concatenate([step.sep.ravel() for step in steps] + [dof_map.boundary_dofs])
        assert np.array_equal(np.sort(covered), np.arange(dof_map.n_dofs))
        known = np.zeros(dof_map.n_dofs, dtype=bool)
        known[dof_map.boundary_dofs] = True
        for step in reversed(steps):
            assert known[step.kept].all()
            known[step.sep] = True


@pytest.mark.parametrize("n,n_steps", [(16, 39), (64, 95)])
def test_lshape_tree_class_count(n, n_steps):
    # L-shape k=2: the notch breaks the translation symmetry of the square,
    # so a level of the tree takes several node classes, one elimination
    # each, above one leaf step for each of the 2 cell classes; the count
    # changes if the node keys merge or split a class
    dof_map = DofMap(build_structured_mesh(L_SHAPE, n), 2)
    assert len(condense(assemble(dof_map, GAMMA)).steps) == n_steps


@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE])
def test_jittered_mesh_lanczos_matches_full_spectrum(domain, rng):
    # on a mesh with no congruent cells and no grid lines the cuts are not
    # separators of a grid, but the ordering stays valid
    mesh = jittered_mesh(build_structured_mesh(domain, 8), rng)
    pencil = condense(assemble(DofMap(mesh, 2), GAMMA))
    dense = solve_condensed(pencil, pencil.size).values[:4]
    assert np.allclose(solve_condensed(pencil, 4).values, dense, rtol=1e-12, atol=0.0)


def test_boundary_mass_is_the_boundary_block_of_B():
    # the boundary DOFs run edge by edge, k + 1 per boundary edge, and the
    # edge basis is orthonormal, so the boundary block of B is exactly |e| on
    # each DOF of edge e; B has no other entry
    dof_map = DofMap(build_structured_mesh(L_SHAPE, 4), 2)
    pair = assemble(dof_map, GAMMA)
    mesh, g = dof_map.mesh, dof_map.boundary_dofs
    edge = (g - dof_map.n_cell_dofs) // dof_map.dim_edge
    assert np.array_equal(pair.boundary_mass, mesh.length[edge])
    B = assembled_B(pair)
    assert np.array_equal(B[g][:, g].toarray(), np.diag(mesh.length[edge]))
    assert B.nnz == len(g)


def test_solve_paths_never_assemble_A(monkeypatch, tmp_path):
    # the eigen and source solves, the Rayleigh quotient and a converge study
    # work from the local matrices; the package has no assembled A, and an
    # A read by any of them would fail
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 2)
    assert not hasattr(assemble(dof_map, GAMMA), "A")

    def unavailable(self):
        raise AssertionError("the assembled A was read")

    monkeypatch.setattr(WgOperatorPair, "A", property(unavailable), raising=False)
    pair = assemble(dof_map, GAMMA)
    rayleigh_quotient(pair, solve_pair(pair, 4).vectors[:, 0])
    solve_source(dof_map, GAMMA, exponential_solution().flux)
    out = tmp_path / "study.csv"
    assert main(["converge", "--domain", "square", "--k", "2", "--gamma", "pow:0.1",
                 "--levels", "2,4", "--out", str(out)]) == 0


def test_eigen_backward_error_gate_rejects_nan_vectors(monkeypatch):
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 2), 1), GAMMA))
    vectors = pencil.eigenvectors(2)
    monkeypatch.setattr(pencil, "eigenvectors", lambda m: np.full_like(vectors, np.nan))
    with pytest.raises(NumericalError, match="eigenpair residual nan"):
        solve_condensed(pencil, 2)


def _square_arrays(obj, n):
    """The float arrays of shape (n, n) among an object's attributes and
    the items of its tuple attributes."""
    values = []
    for v in vars(obj).values():
        values.extend(v if isinstance(v, tuple) else [v])
    return [v for v in values if isinstance(v, np.ndarray) and v.dtype == float and v.shape == (n, n)]


def test_pencil_factors_S_in_place(monkeypatch):
    # the pencil holds one boundary-sized array, the Cholesky factor, and S
    # read back from it is bit for bit the symmetrized S that condense
    # handed over
    handed = []
    init = CondensedPencil.__init__

    def recording(self, pair, steps, S, a_norm):
        handed.append(S.copy())
        init(self, pair, steps, S, a_norm)

    monkeypatch.setattr(CondensedPencil, "__init__", recording)
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 32), 2), GAMMA))
    assert len(_square_arrays(pencil, pencil.size)) == 1
    assert np.array_equal(handed[0], handed[0].T)
    assert np.array_equal(pencil.S, handed[0])


def test_eigen_gate_forms_no_other_full_size_block():
    # the solve's backward-error gate forms A V and no other block of the
    # eigenvectors' size: B V only on the boundary rows, A V a bounded run
    # of cells at a time, and the expansion writes into one output array;
    # its traced peak is 2.6 times the eigenvectors here, and 5.4 with a
    # dense B V beside A V gathered for all cells at once
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 32), 2), GAMMA))
    tracemalloc.start()
    try:
        result = solve_condensed(pencil, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * result.vectors.nbytes


def test_lshape_schur_tree_eliminates_a_separator_at_every_step():
    # every merge of the tree eliminates the edges its two halves share;
    # a step with no such edge would merge cells that no cut parted
    pencil = condense(assemble(DofMap(build_structured_mesh(L_SHAPE, 64), 2), GAMMA))
    assert all(step.sep.shape[1] > 0 for step in pencil.steps)


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


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("domain,k", [(UNIT_SQUARE, 1), (UNIT_SQUARE, 2), (L_SHAPE, 1)])
def test_spectrum_matches_quadrature_boundary_form(domain, k, n):
    # the exact diagonal B and the edge mass by quadrature differ by roundoff
    # only, so the condensed spectrum is that of (A, B by quadrature)
    pair = assemble(DofMap(build_structured_mesh(domain, n), k), GAMMA)
    pencil = condense(pair)
    full = solve_condensed(pencil, pencil.size).values
    quadrature = dense_eigenvalues(pair, quadrature_boundary_form(pair.dof_map))
    assert np.allclose(full, quadrature, rtol=1e-12, atol=0.0)


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
        assert np.all(np.abs(result.b_norms - 1.0) <= 1e-10)


def test_one_solve_per_lanczos_application_and_one_block_solve(monkeypatch):
    # log "A" per Lanczos application, "s" per boundary solve of one vector
    # and "S" per block solve: each application is one solve with the
    # factor of S, the Ritz vectors need no further solve, and a
    # full-spectrum request forms T by one block solve; no sparse LU is
    # taken on the eigen or source path
    def no_splu(*args, **kwargs):
        raise AssertionError("splu was called")

    monkeypatch.setattr(spla, "splu", no_splu)
    log = []
    pencil = condense(assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 2), GAMMA))
    matvec, solve = CondensedPencil._lanczos_matvec, CondensedPencil.boundary_solve
    monkeypatch.setattr(
        CondensedPencil, "_lanczos_matvec", lambda self, y: log.append("A") or matvec(self, y)
    )
    monkeypatch.setattr(
        CondensedPencil, "boundary_solve",
        lambda self, f: log.append("s" if np.ndim(f) == 1 else "S") or solve(self, f),
    )
    solve_condensed(pencil, 4)
    assert re.fullmatch(r"(As){5,}", "".join(log)), "".join(log)
    log.clear()
    solve_condensed(pencil, pencil.size)
    assert log == ["S"]
    solve_source(DofMap(build_structured_mesh(L_SHAPE, 4), 2), GAMMA, exponential_solution().flux)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE])
def test_rayleigh_ritz_step_sets_the_values(monkeypatch, domain, k, n):
    # a Lanczos operator off by a relative 1e-8 leaves its eigenvectors,
    # and so the Ritz vectors, as they are; the values, Rayleigh quotients
    # of those vectors, must still be those of the full-spectrum path to
    # 1e-12
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
    A = assembled_A(pair)
    a_norm = abs(A).sum(axis=1).max()
    B = assembled_B(pair)
    b_norm = abs(B).sum(axis=1).max()
    for lam, u, res in zip(result.values, result.vectors.T, result.residuals):
        r = np.linalg.norm(A @ u - lam * (B @ u))
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
    # square k=1 n=8 takes 27 Lanczos steps for 4 pairs; a cap of 10 cuts it
    monkeypatch.setattr(eigen, "_LANCZOS_MAX_STEPS", 10)
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 1), GAMMA)
    with pytest.raises(NumericalError, match="Lanczos solve failed.*No convergence"):
        solve_pair(pair, 4)


def _symmetric(rng, values):
    """A random symmetric matrix with the given eigenvalues."""
    Q = np.linalg.qr(rng.standard_normal((len(values), len(values))))[0]
    return (Q * values) @ Q.T


@pytest.mark.parametrize("spectrum,counts", [("separated", (1, 4)), ("clustered", (1,))])
def test_lanczos_matches_dense_eigh(rng, spectrum, counts):
    # the top 4 eigenvalues of the clustered matrix agree to 1e-13
    # relative, as do the corner modes of the delta estimate's H at n=16,
    # whose largest eigenvalue alone is wanted; one Krylov space of a
    # single start vector holds fewer than 4 copies of such a cluster, so
    # m = 4 is asked only of the separated spectrum
    size = 60
    values = np.linspace(1.0, 2.0, size) ** 3
    if spectrum == "clustered":
        values[-4:] = 9.0 * (1.0 + np.arange(4) * 3e-14)
    A = _symmetric(rng, values)
    dense = np.linalg.eigh(A)[0]
    for m in (*counts, size - 2, size - 1):
        got, vectors = eigen.lanczos(lambda y: A @ y, size, m)
        assert np.allclose(got, dense[-m:], rtol=1e-12, atol=0.0)
        assert np.allclose(vectors.T @ vectors, np.eye(m), rtol=0.0, atol=1e-12)
        again = eigen.lanczos(lambda y: A @ y, size, m)
        assert np.array_equal(got, again[0]) and np.array_equal(vectors, again[1])


def test_lanczos_breakdown_raises():
    # the Krylov space of a rank-1 operator is invariant after two steps,
    # and its second Ritz value, zero, has not converged to a relative
    # residual: the run must fail and not divide by a vanishing beta
    u = np.random.default_rng(3).standard_normal(20)
    with pytest.raises(NumericalError, match="Lanczos solve failed: breakdown"):
        eigen.lanczos(lambda y: u * (u @ y), 20, 2)


def test_solver_invariants():
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 8), 1), GAMMA)
    result = solve_pair(pair, 6)
    values = result.values
    assert np.all(np.diff(values) >= 0)
    assert np.all(values > 0)
    assert np.all(result.residuals <= 1e-9)
    assert np.all(np.abs(result.b_norms - 1.0) <= 1e-10)


@pytest.mark.parametrize("domain,n,m", [(UNIT_SQUARE, 16, 4), (L_SHAPE, 8, None)])
def test_eigenvectors_are_b_orthonormal(domain, n, m):
    # the Ritz vectors of Lanczos, and the eigenvectors of the dense T, are
    # orthonormal, so their boundary parts D^{-1/2} y are orthonormal in D
    pair = assemble(DofMap(build_structured_mesh(domain, n), 2), GAMMA)
    pencil = condense(pair)
    m = m or pencil.size
    g = pair.dof_map.boundary_dofs
    V_g = solve_condensed(pencil, m).vectors[g]
    gram = V_g.T @ (pair.boundary_mass[:, None] * V_g)
    assert np.abs(gram - np.eye(m)).max() <= 1e-12


def test_reference_eigenvalue_level_16():
    # frozen regression value for the first eigenvalue on the 16x16 square,
    # matching the reference minus its tabulated error to 1e-6
    pair = assemble(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 1), GAMMA)
    result = solve_pair(pair, 1)
    expected = 0.2400790854320629 - 2.1839e-4
    assert abs(result.values[0] - expected) <= 1e-6


def lowest_values(mesh, k):
    return solve_pair(assemble(DofMap(mesh, k), GAMMA), 4).values


@pytest.mark.parametrize(
    "relabel", [lambda cells: cells[::-1], lambda cells: cells[:, [1, 2, 0]]], ids=["reversed", "rotated"]
)
def test_eigenvalues_invariant_under_relabelling(relabel):
    # reversing the cell list or rotating the vertices of each cell leaves
    # the discrete problem as it is, but changes the class representatives,
    # the DOF numbering and the elimination order.  Each value is a sum of
    # squares, so it moves only by rounding; 1 / mu of the condensed pencil
    # carries the rounding of the elimination and moves by 7.3e-11 here
    mesh = build_structured_mesh(L_SHAPE, 32)
    values = lowest_values(mesh, 5)
    relabelled = lowest_values(Mesh(mesh.vertices, relabel(mesh.cells)), 5)
    assert np.abs(relabelled / values - 1.0).max() <= 1e-12


def test_square_k2_n128_lies_below_or_at_the_references():
    # the WG values are lower bounds: lambda_1 lies 5.2e-12 below its
    # reference, and lambda_2 to lambda_4 have converged to theirs to the
    # precision of the references
    values = lowest_values(build_structured_mesh(UNIT_SQUARE, 128), 2)
    reference = np.array(SQUARE_REFERENCE_EIGENVALUES)
    assert values[0] < reference[0]
    assert np.all(np.abs(values[1:] - reference[1:]) <= 1e-12)


def test_lshape_k5_lambda1_rises_from_n64_to_n128():
    # the step of lambda_1 from n=64 to n=128 is 1.4e-11, below the rounding
    # that the elimination leaves in 1 / mu of the condensed pencil
    coarse, fine = (lowest_values(build_structured_mesh(L_SHAPE, n), 5)[0] for n in (64, 128))
    assert fine >= coarse


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
