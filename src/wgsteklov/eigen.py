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
largest eigenvalues of the symmetric operator T = L^T S^{-1} L, which Lanczos
(ARPACK) finds without forming S.  Only a full-spectrum request, which ARPACK
cannot serve, forms the dense S from the same factorization.  A boundary
eigenvector x expands with one more solve, u_e = lambda E^{-1} [M x; 0], and
the cell components follow as -W u_e.  The cell elimination and the
factorization of E (`eliminate_cells`) also serve the boundary-flux source
problem (`source.solve_source`), whose load vanishes on the cell DOFs.
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

# relative accuracy asked of the Lanczos Ritz values 1 / lambda
_LANCZOS_TOL = 1e-13


class CondensedPencil:
    """Boundary reduction (S, M) of an operator pair, held matrix-free.

    Holds the cell-elimination map W, one sparse factorization of the edge
    operator E and the block Cholesky factor of M; S^{-1} is applied through
    the factorization, and the dense S is formed only when it is read.
    """

    def __init__(self, pair, W, E, lu, M, L):
        self.pair = pair
        self.M = M
        self._W = W
        self._E = E
        self._lu = lu
        self._g = pair.dof_map.boundary_dofs - pair.dof_map.n_cell_dofs
        self._L = _block_diagonal(L)
        self._L_inv = _block_diagonal(np.linalg.inv(L))

    @property
    def size(self):
        return len(self._g)

    def _edge_solve(self, rhs_boundary):
        """E^{-1} [rhs; 0] for right-hand side(s) given on the boundary DOFs."""
        rhs = np.zeros((self._E.shape[0],) + rhs_boundary.shape[1:])
        rhs[self._g] = rhs_boundary
        return _refined_solve(self._lu, self._E, rhs)

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

    def eigenpairs(self, m):
        """The m smallest eigenvalues of (S, M), ascending, with M-orthonormal
        boundary eigenvectors as columns."""
        if m == self.size:
            St = self._L_inv @ (self._L_inv @ self.S).T
            values, Y = sla.eigh(0.5 * (St + St.T))
        else:
            T = spla.LinearOperator(
                (self.size, self.size),
                matvec=lambda y: self._L.T @ self._edge_solve(self._L @ y.ravel())[self._g],
                dtype=float,
            )
            # a fixed start vector keeps repeated solves bit-identical; a
            # random one has components along every eigenvector, where a
            # symmetric one would miss the antisymmetric modes
            v0 = np.random.default_rng(0).standard_normal(self.size)
            try:
                mu, Y = spla.eigsh(T, k=m, which="LA", tol=_LANCZOS_TOL, v0=v0)
            except spla.ArpackError as exc:
                raise NumericalError(f"Lanczos solve failed: {exc}") from exc
            values, Y = 1.0 / mu[::-1], Y[:, ::-1]
        return values, self._L_inv.T @ Y

    def expand(self, values, X):
        """Full DOF vectors of boundary eigenpairs (values, X): the edge part
        solves E u_e = [lambda M x; 0], the cell part is -W u_e."""
        u_e = self._edge_solve((self.M @ X) * values)
        return np.vstack([-(self._W @ u_e), u_e])


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
    return CondensedPencil(pair, W, E, lu, M, L)


def _refined_solve(lu, A, rhs):
    # one refinement step keeps the factorization error out of the Lanczos
    # operator, the condensed matrix and the eigen and source residuals
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

    Lanczos on the inverse operator serves m below the boundary size, a
    dense solve of the M-Cholesky transformed S the full spectrum.
    Eigenvectors come back b_w-normalized and are expanded to full DOF
    vectors.  Raises NumericalError if Lanczos fails to converge or any
    backward-error residual (see EigenResult) exceeds `rtol`.
    """
    if not 1 <= m <= pencil.size:
        raise ValueError(f"m must lie in [1, {pencil.size}], got {m}")
    values, X = pencil.eigenpairs(m)
    vectors = pencil.expand(values, X)
    A, B = pencil.pair.A, pencil.pair.B
    a_norm = float(abs(A).sum(axis=1).max())
    b_norm = float(abs(B).sum(axis=1).max())
    residuals = np.empty(m)
    b_norms = np.empty(m)
    for j in range(m):
        u = vectors[:, j]
        r = np.linalg.norm(A @ u - values[j] * (B @ u))
        residuals[j] = r / ((a_norm + abs(values[j]) * b_norm) * np.linalg.norm(u))
        b_norms[j] = u @ (B @ u)
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
