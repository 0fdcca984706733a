"""Generalized eigensolver for the WG pencil via boundary condensation.

The boundary form B is supported only on boundary-edge DOFs, so the pencil
(A, B) reduces exactly to a dense problem on the boundary block.  Cells
couple only to their own edges, so the block-diagonal cell block A_cc is
eliminated first: with W = A_cc^{-1} A_ce, the edge operator is
E = A_ee - A_ce^T W.  With S = E_GG - E_GI E_II^{-1} E_IG and M the boundary
block of B, the finite eigenvalues of (A, B) are exactly the eigenvalues of
(S, M).  Interior edge components are recovered by back-substitution
through the retained factorization of E_II, and cell components as -W u_e.
"""

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

# boundary columns per dense right-hand-side block when forming S
_CHUNK = 256


class CondensedPencil:
    """Dense boundary-block reduction (S, M) of an operator pair.

    Holds the cell-elimination map W and the factorization of the interior
    edge block, so eigenvectors can be expanded back to full DOF vectors.
    """

    def __init__(self, S, M, pair, W, interior):
        self.S = S
        self.M = M
        self.pair = pair
        self.boundary_dofs = pair.dof_map.boundary_dofs
        self._W = W
        self._interior = interior

    @property
    def size(self):
        return self.S.shape[0]

    def expand(self, x_boundary):
        """Full-length DOF vector(s) from boundary coefficients."""
        lu, E_ii, E_ig, iidx = self._interior
        nc = self._W.shape[0]
        u = np.zeros((self.pair.A.shape[0],) + x_boundary.shape[1:])
        u[self.boundary_dofs] = x_boundary
        u[nc + iidx] = -_refined_solve(lu, E_ii, E_ig @ x_boundary)
        u[:nc] = -(self._W @ u[nc:])
        return u


def condense(pair):
    """Reduce an operator pair onto its boundary DOFs.

    The d x d cell blocks are inverted exactly, the edge operator
    E = A_ee - A_ce^T A_cc^{-1} A_ce is formed, and its Schur complement
    onto the boundary edge DOFs is built from one sparse factorization of
    the interior edge block, with one refinement step per solve.
    """
    A = pair.A.tocsc()
    dof_map = pair.dof_map
    nc = dof_map.n_cell_dofs
    d = dof_map.dim_cell
    n_cells = nc // d
    # scatter into dense blocks: a block without stored entries is zero, not missing
    cc = A[:nc, :nc].tocoo()
    blocks = np.zeros((n_cells, d, d))
    blocks[cc.row // d, cc.row % d, cc.col % d] = cc.data
    try:
        inv_blocks = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("cell-block elimination failed: singular cell block") from exc
    A_cc_inv = sp.bsr_matrix(
        (inv_blocks, np.arange(n_cells), np.arange(n_cells + 1)), shape=(nc, nc)
    ).tocsc()
    A_ce = A[:nc, nc:].tocsc()
    W = (A_cc_inv @ A_ce).tocsc()
    E = (A[nc:, nc:] - A_ce.T @ W).tocsc()
    S, interior = _boundary_schur(E, dof_map.boundary_dofs - nc)

    asym = np.abs(S - S.T).max()
    scale = np.abs(S).max()
    if asym > 1e-12 * scale:
        raise NumericalError(f"condensed matrix asymmetry {asym / scale:.2e} exceeds 1e-12")
    g = dof_map.boundary_dofs
    M = pair.B[g][:, g].toarray()
    return CondensedPencil(0.5 * (S + S.T), M, pair, W, interior)


def _refined_solve(lu, A, rhs):
    # one refinement step keeps the factorization error out of the
    # condensed matrix and the eigenpair residuals
    x = lu.solve(rhs)
    x += lu.solve(rhs - A @ x)
    return x


def _boundary_schur(A, g):
    iidx = np.setdiff1d(np.arange(A.shape[0]), g)
    A_ii = A[iidx][:, iidx].tocsc()
    A_ig = A[iidx][:, g].tocsc()
    A_gg = A[g][:, g].toarray()
    try:
        lu = spla.splu(A_ii)
    except RuntimeError as exc:
        raise NumericalError(f"interior factorization failed: {exc}") from exc

    S = A_gg
    for c0 in range(0, len(g), _CHUNK):
        cols = slice(c0, min(c0 + _CHUNK, len(g)))
        X = _refined_solve(lu, A_ii, A_ig[:, cols].toarray())
        S[:, cols] -= A_ig.T @ X
    return S, (lu, A_ii, A_ig, iidx)


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

    The M-Cholesky congruence transforms (S, M) to a standard symmetric
    problem; eigenvectors come back b_w-normalized and are expanded to full
    DOF vectors.  Raises NumericalError if any backward-error residual (see
    EigenResult) exceeds `rtol`.
    """
    if not 1 <= m <= pencil.size:
        raise ValueError(f"m must lie in [1, {pencil.size}], got {m}")
    try:
        L = sla.cholesky(pencil.M, lower=True)
    except sla.LinAlgError as exc:
        raise NumericalError("boundary mass block is not positive definite") from exc
    St = sla.solve_triangular(L, pencil.S, lower=True)
    St = sla.solve_triangular(L, St.T, lower=True).T
    St = 0.5 * (St + St.T)
    values, Y = sla.eigh(St, subset_by_index=[0, m - 1])
    X = sla.solve_triangular(L.T, Y, lower=False)

    vectors = pencil.expand(X)
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
