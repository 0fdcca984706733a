"""Generalized eigensolver for the WG pencil via boundary condensation.

The boundary form B is supported only on boundary-edge DOFs, so the finite
eigenpairs of (A, B) live on the boundary block.  Cells couple only to their
own edges, so the cell DOFs are eliminated exactly, cell by cell: with K the
local matrix of a cell split into its cell (c) and edge (e) DOFs, the local
map W = K_cc^{-1} K_ce and the local Schur complement K_ee - K_ce^T W are
formed once per congruence class, the edge operator E is the sum of the
local Schur complements over the cells, and it is factored once.  With S the
Schur complement of E onto the boundary edge DOFs g and M the boundary
block of B, the finite eigenvalues of (A, B) are those of (S, M), and
S^{-1} = (E^{-1})_gg: applying S^{-1} is one solve with E on a right-hand
side supported on g.  With M = L L^T, one Cholesky block per boundary edge,
the m smallest eigenvalues are the reciprocals of the m largest eigenvalues
of the symmetric operator T = L^T S^{-1} L.  Lanczos (ARPACK) only finds
their invariant subspace, so each of its applications of T is one unrefined
solve with E; a full-spectrum request, which ARPACK cannot serve, takes the
whole boundary space.  One refined block solve Z = E^{-1} [L Y; 0] on the
orthonormal basis Y then sets both the values, by a Rayleigh-Ritz step on
Y^T L^T Z_g, whose error is quadratic in that of the subspace, and the
expanded eigenvectors: with (mu, Q) the eigenpairs of that m x m matrix,
lambda = 1 / mu, the edge part is u_e = lambda Z Q, and the cell part of
each cell is -W applied to its edge values.  Neither the assembled A nor a
dense S is formed unless it is read.  The cell elimination and the
factorization of E (`eliminate_cells`) also serve the boundary-flux source
problem (`source.solve_source`), whose load vanishes on the cell DOFs.
"""

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import scatter_local


class NumericalError(RuntimeError):
    """A factorization or solve failed, or a result missed its tolerance."""


def _stage(name, fn, *args, **kwargs):
    """Call fn; a NumericalError it raises is re-raised naming the stage."""
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        raise NumericalError(f"stage '{name}' failed: {exc}") from exc


DEFAULT_RTOL = 1e-9

# relative residual asked of the Lanczos Ritz pairs of the unrefined
# operator: Lanczos only locates the invariant subspace, and the error of
# that subspace enters the Rayleigh-Ritz values squared
_LANCZOS_TOL = 1e-10


class CondensedPencil:
    """Boundary reduction (S, M) of an operator pair, held matrix-free.

    Holds the cell elimination with the factorization of the edge operator E
    (`cells`) and the block Cholesky factor of M; S^{-1} is applied through
    the factorization, and the dense S is formed only when it is read.
    """

    def __init__(self, cells, L):
        self.pair = cells.pair
        self.cells = cells
        self._g = self.pair.dof_map.boundary_dofs - self.pair.dof_map.n_cell_dofs
        self._L = _block_diagonal(L)

    @property
    def size(self):
        return len(self._g)

    def _lift(self, rhs_boundary):
        """[rhs; 0] on the edge DOFs for right-hand side(s) given on the boundary DOFs."""
        rhs = np.zeros((self.cells.E.shape[0],) + rhs_boundary.shape[1:])
        rhs[self._g] = rhs_boundary
        return rhs

    def _edge_solve(self, rhs_boundary):
        """E^{-1} [rhs; 0], refined, for right-hand side(s) given on the boundary DOFs."""
        return self.cells.solve(self._lift(rhs_boundary))

    @cached_property
    def S(self):
        """Dense boundary Schur complement inv((E^{-1})_gg), formed on first read."""
        try:
            S = np.linalg.inv(self._edge_solve(np.eye(self.size))[self._g])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("boundary block of the inverse edge operator is singular") from exc
        asym = np.abs(S - S.T).max()
        scale = np.abs(S).max()
        if asym > 1e-12 * scale:
            raise NumericalError(f"condensed matrix asymmetry {asym / scale:.2e} exceeds 1e-12")
        return 0.5 * (S + S.T)

    def _lanczos_matvec(self, y):
        """T y = L^T S^{-1} L y by one unrefined solve with E."""
        return self._L.T @ self.cells.lu.solve(self._lift(self._L @ y.ravel()))[self._g]

    def _lanczos_basis(self, m):
        """Orthonormal basis of the invariant subspace of T for its m largest
        eigenvalues, found by Lanczos (ARPACK)."""
        T = spla.LinearOperator((self.size, self.size), matvec=self._lanczos_matvec, dtype=float)
        # a fixed start vector keeps repeated solves bit-identical; a random
        # one has components along every eigenvector, where a symmetric one
        # would miss the antisymmetric modes
        v0 = np.random.default_rng(0).standard_normal(self.size)
        try:
            _, Y = spla.eigsh(T, k=m, which="LA", tol=_LANCZOS_TOL, v0=v0)
        except spla.ArpackError as exc:
            raise NumericalError(f"Lanczos solve failed: {exc}") from exc
        return Y

    def eigenpairs(self, m):
        """The m smallest eigenvalues of (A, B), ascending, with full DOF
        eigenvectors of unit boundary norm as columns.

        A Rayleigh-Ritz step on an orthonormal basis Y (Lanczos's, or the
        identity for the whole spectrum) takes one refined block solve
        Z = E^{-1} [L Y; 0]: the eigenpairs (mu, Q) of Y^T L^T Z_g give the
        values 1 / mu, and the same Z gives the edge part lambda Z Q of each
        eigenvector; `cells` expands it to the cell DOFs.
        """
        Y = np.eye(self.size) if m == self.size else self._lanczos_basis(m)
        Z = self._edge_solve(self._L @ Y)
        H = Y.T @ (self._L.T @ Z[self._g])
        mu, Q = sla.eigh(0.5 * (H + H.T))
        values = 1.0 / mu[::-1]
        u_e = (Z @ Q[:, ::-1]) * values
        return values, self.cells.expand(u_e)


def _block_diagonal(blocks):
    """Sparse block-diagonal matrix of (n, d, d) dense blocks."""
    n, d, _ = blocks.shape
    return sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(n * d, n * d))


class CellElimination:
    """The cell DOFs of an operator pair eliminated exactly, with the edge
    operator E factored (`lu`).

    ``W`` holds the local elimination map K_cc^{-1} K_ce of each congruence
    class, and ``edge_dofs`` (C, 3 (k + 1)) the DOFs of each cell's edges,
    counted from the first edge DOF.  `a_norm` is ||A||_inf of the assembled
    A, for the backward-error gates.
    """

    def __init__(self, pair, edge_dofs, W, E, lu, a_norm):
        self.pair = pair
        self._edge_dofs = edge_dofs
        self._W = W
        self.E = E
        self.lu = lu
        self.a_norm = a_norm

    def solve(self, rhs):
        """E^{-1} rhs, refined, for right-hand side(s) on the edge DOFs."""
        return _refined_solve(self.lu, self.E, rhs)

    def expand(self, u_e):
        """Full DOF vector(s) [u_c; u_e] that solve A u = [0; E u_e]: the cell
        part of each cell is -W applied to the values on its edges."""
        X = u_e.reshape(len(u_e), -1)
        u_c = np.empty((len(self._edge_dofs), self._W.shape[1], X.shape[1]))
        for W, members in zip(self._W, self.pair.dof_map.classes.members):
            u_c[members] = -(W @ X[self._edge_dofs[members]])
        return np.concatenate([u_c.reshape(-1, *u_e.shape[1:]), u_e])


def eliminate_cells(pair):
    """Eliminate the cell DOFs of an operator pair class by class and factor
    the edge operator.

    Per class, with the Cholesky factor K_cc = L L^T of the local matrix K
    and Y = L^{-1} K_ce, the map W = L^{-T} Y = K_cc^{-1} K_ce and the local
    Schur complement K_ee - Y^T Y = K_ee - K_ce^T W are formed; the Schur
    complements summed over the cells' edge DOFs give E.  Returns a
    `CellElimination`.
    """
    dof_map = pair.dof_map
    class_of = dof_map.classes.class_of
    d = dof_map.dim_cell
    K = pair.local
    K_cc, K_ce, K_ee = K[:, :d, :d], K[:, :d, d:], K[:, d:, d:]
    try:
        L = np.linalg.cholesky(K_cc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("cell-block elimination failed: singular cell block") from exc
    Y = np.linalg.solve(L, K_ce)
    W = np.linalg.solve(L.transpose(0, 2, 1), Y)
    S = K_ee - Y.transpose(0, 2, 1) @ Y
    edge_dofs = dof_map.local_dofs[:, d:] - dof_map.n_cell_dofs
    n_edge = dof_map.n_dofs - dof_map.n_cell_dofs
    E = scatter_local(S[class_of], edge_dofs, n_edge).tocsc()
    # ||A||_inf of the assembled A, before the factorization so that it adds
    # nothing to the peak: the cell rows of A are local, and an edge row is
    # that of the edge block, summed from the K_ee, plus the edge-to-cell rows
    # of the cells on the edge, which no other cell shares; summing |local
    # entries| instead would bound the norm from above and loosen the gates
    A_ee = scatter_local(K_ee[class_of], edge_dofs, n_edge).tocsr()
    edge_rows = abs(A_ee).sum(axis=1).A1
    del A_ee
    absK = np.abs(K)
    edge_rows += np.bincount(
        edge_dofs.ravel(), absK[:, d:, :d].sum(axis=2)[class_of].ravel(), n_edge
    )
    a_norm = float(max(absK[:, :d].sum(axis=2).max(), edge_rows.max()))
    try:
        lu = spla.splu(E, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"edge factorization failed: {exc}") from exc
    return CellElimination(pair, edge_dofs, W, E, lu, a_norm)


def condense(pair):
    """Reduce an operator pair onto its boundary DOFs: `eliminate_cells`, then
    factor the boundary mass block M edge by edge.  No dense matrix is formed."""
    cells = eliminate_cells(pair)
    try:
        L = np.linalg.cholesky(pair.boundary_mass)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("boundary mass block is not positive definite") from exc
    return CondensedPencil(cells, L)


def _refined_solve(lu, A, rhs):
    # one refinement step keeps the factorization error out of the
    # Rayleigh-Ritz values, the eigenvectors, the condensed matrix and the
    # source solution
    x = lu.solve(rhs)
    x += lu.solve(rhs - A @ x)
    return x


class EigenResult:
    """Eigenpairs of the WG pencil, ascending, boundary-form normalized.

    `residuals` holds the normwise backward error of each pair,
    ||A u - lambda B u|| / ((||A|| + lambda ||B||) ||u||); the raw ratio
    ||A u - lambda B u|| / ||A u|| has a double-precision floor that grows
    with the operator scaling and would reject correct solves on fine
    high-degree meshes.
    """

    def __init__(self, values, vectors, residuals, b_norms):
        self.values = values
        self.vectors = vectors
        self.residuals = residuals
        self.b_norms = b_norms

    @property
    def normalized(self):
        return np.abs(self.b_norms - 1.0) <= 1e-10


def solve_condensed(pencil, m, rtol=DEFAULT_RTOL):
    """Solve for the m smallest eigenpairs of the condensed pencil.

    Lanczos on the inverse operator finds the subspace for m below the
    boundary size, the whole boundary space serves the full spectrum, and
    one refined Rayleigh-Ritz step sets the values and the eigenvectors
    (`CondensedPencil.eigenpairs`).  Eigenvectors come back b_w-normalized
    as full DOF vectors.  Raises NumericalError if Lanczos fails to converge or any
    backward-error residual (see EigenResult) exceeds `rtol`.
    """
    if not 1 <= m <= pencil.size:
        raise ValueError(f"m must lie in [1, {pencil.size}], got {m}")
    values, vectors = pencil.eigenpairs(m)
    pair = pencil.pair
    b_norm = float(abs(pair.B).sum(axis=1).max())
    BV = pair.B @ vectors
    r = np.linalg.norm(pair.apply(vectors) - BV * values, axis=0)
    scale = pencil.cells.a_norm + np.abs(values) * b_norm
    residuals = r / (scale * np.linalg.norm(vectors, axis=0))
    b_norms = np.einsum("ij,ij->j", vectors, BV)
    if not np.all(residuals <= rtol):
        raise NumericalError(
            f"eigenpair residual {residuals.max():.2e} exceeds tolerance {rtol:.1e}"
        )
    return EigenResult(values, vectors, residuals, b_norms)


def solve_pair(pair, m, rtol=DEFAULT_RTOL):
    """Condense and solve in one step."""
    return solve_condensed(condense(pair), m, rtol=rtol)


def rayleigh_quotient(pair, u):
    """Form quotient a_w(u, u) / b_w(u, u) of a discrete function."""
    den = float(u @ (pair.B @ u))
    if den <= 0.0:
        raise ValueError("function has no boundary content (b_w(u, u) <= 0)")
    return float(u @ pair.apply(u)) / den


def dense_eigenvalues(pair):
    """All finite eigenvalues of (A, B) by a dense QZ solve, ascending.

    Brute-force reference path, independent of the condensation route; only
    sensible for small meshes.
    """
    A = pair.A.toarray()
    B = pair.B.toarray()
    alpha, beta = sla.eig(A, B, right=False, homogeneous_eigvals=True)
    scale = np.abs(alpha) + np.abs(beta)
    finite = np.abs(beta) > 1e-10 * scale
    values = np.real(alpha[finite] / beta[finite])
    return np.sort(values)
