"""Generalized eigensolver for the WG pencil via boundary condensation.

The boundary form B is supported only on boundary-edge DOFs, so the finite
eigenpairs of (A, B) live on the boundary block.  Cells couple only to their
own edges, so the block-diagonal cell block A_cc is eliminated exactly: with
W = A_cc^{-1} A_ce, the edge operator is E = A_ee - A_ce^T W, and it is
factored once.  With S the Schur complement of E onto the boundary edge DOFs
g and M the boundary block of B, the finite eigenvalues of (A, B) are those
of (S, M), and S^{-1} = (E^{-1})_gg: applying S^{-1} is one solve with E on a
right-hand side supported on g.  With M = L L^T, one Cholesky block per
boundary edge, the m smallest eigenvalues are the reciprocals of the m
largest eigenvalues of the symmetric operator T = L^T S^{-1} L.  Lanczos
(ARPACK) only finds their invariant subspace, so each of its applications of
T is one unrefined solve with E; a full-spectrum request, which ARPACK cannot
serve, takes the whole boundary space.  One refined block solve
Z = E^{-1} [L Y; 0] on the orthonormal basis Y then sets both the values, by
a Rayleigh-Ritz step on Y^T L^T Z_g, whose error is quadratic in that of the
subspace, and the expanded eigenvectors: with (mu, Q) the eigenpairs of that
m x m matrix, lambda = 1 / mu, the edge part is u_e = lambda Z Q, and the
cell part -W u_e.  No dense S is formed unless it is read.  The cell
elimination and the factorization of E (`eliminate_cells`) also serve the
boundary-flux source problem (`source.solve_source`), whose load vanishes on
the cell DOFs.
"""

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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

    Holds the cell-elimination map W, one sparse factorization of the edge
    operator E and the block Cholesky factor of M; S^{-1} is applied through
    the factorization, and the dense S is formed only when it is read.
    """

    def __init__(self, pair, W, E, lu, L):
        self.pair = pair
        self._W = W
        self._E = E
        self._lu = lu
        self._g = pair.dof_map.boundary_dofs - pair.dof_map.n_cell_dofs
        self._L = _block_diagonal(L)

    @property
    def size(self):
        return len(self._g)

    def _lift(self, rhs_boundary):
        """[rhs; 0] on the edge DOFs for right-hand side(s) given on the boundary DOFs."""
        rhs = np.zeros((self._E.shape[0],) + rhs_boundary.shape[1:])
        rhs[self._g] = rhs_boundary
        return rhs

    def _edge_solve(self, rhs_boundary):
        """E^{-1} [rhs; 0], refined, for right-hand side(s) given on the boundary DOFs."""
        return _refined_solve(self._lu, self._E, self._lift(rhs_boundary))

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
        return self._L.T @ self._lu.solve(self._lift(self._L @ y.ravel()))[self._g]

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
        eigenvector; its cell part is -W u_e.
        """
        Y = np.eye(self.size) if m == self.size else self._lanczos_basis(m)
        Z = self._edge_solve(self._L @ Y)
        H = Y.T @ (self._L.T @ Z[self._g])
        mu, Q = sla.eigh(0.5 * (H + H.T))
        values = 1.0 / mu[::-1]
        u_e = (Z @ Q[:, ::-1]) * values
        return values, np.vstack([-(self._W @ u_e), u_e])


def _block_diagonal(blocks):
    """Sparse block-diagonal matrix of (n, d, d) dense blocks."""
    n, d, _ = blocks.shape
    return sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(n * d, n * d))


def _diagonal_blocks(matrix, d):
    """Dense (n / d, d, d) diagonal blocks of a sparse matrix whose entries
    all lie in them; a block without stored entries is zero, not missing."""
    coo = matrix.tocoo()
    if np.any(coo.row // d != coo.col // d):
        raise NumericalError(f"matrix is not block diagonal with {d} x {d} blocks")
    blocks = np.zeros((matrix.shape[0] // d, d, d))
    blocks[coo.row // d, coo.row % d, coo.col % d] = coo.data
    return blocks


def eliminate_cells(A, dof_map):
    """Eliminate the block-diagonal cell block of A exactly: invert the d x d
    cell blocks, form W = A_cc^{-1} A_ce and E = A_ee - A_ce^T W, and factor E.
    Returns (W, E, lu); u = [-W u_e; u_e] solves A u = [0; f] if E u_e = f."""
    A = A.tocsc()
    nc = dof_map.n_cell_dofs
    try:
        inv_blocks = np.linalg.inv(_diagonal_blocks(A[:nc, :nc], dof_map.dim_cell))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("cell-block elimination failed: singular cell block") from exc
    A_ce = A[:nc, nc:].tocsc()
    W = (_block_diagonal(inv_blocks).tocsc() @ A_ce).tocsc()
    E = (A[nc:, nc:] - A_ce.T @ W).tocsc()
    try:
        lu = spla.splu(E, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise NumericalError(f"edge factorization failed: {exc}") from exc
    return W, E, lu


def condense(pair):
    """Reduce an operator pair onto its boundary DOFs: `eliminate_cells`, then
    factor the boundary mass block M edge by edge.  No dense matrix is formed."""
    dof_map = pair.dof_map
    W, E, lu = eliminate_cells(pair.A, dof_map)
    g = dof_map.boundary_dofs
    M = pair.B[g][:, g].tocsr()
    try:
        L = np.linalg.cholesky(_diagonal_blocks(M, dof_map.dim_edge))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("boundary mass block is not positive definite") from exc
    return CondensedPencil(pair, W, E, lu, L)


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
    A, B = pencil.pair.A, pencil.pair.B
    a_norm = float(abs(A).sum(axis=1).max())
    b_norm = float(abs(B).sum(axis=1).max())
    BV = B @ vectors
    r = np.linalg.norm(A @ vectors - BV * values, axis=0)
    residuals = r / ((a_norm + np.abs(values) * b_norm) * np.linalg.norm(vectors, axis=0))
    b_norms = np.einsum("ij,ij->j", vectors, BV)
    if np.any(residuals > rtol):
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
    return float(u @ (pair.A @ u)) / den


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
