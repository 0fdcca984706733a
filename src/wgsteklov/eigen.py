"""Generalized eigensolver for the WG pencil via boundary condensation.

The boundary form B is supported only on boundary-edge DOFs, so the finite
eigenpairs of (A, B) live on the boundary block.  Every other DOF is
eliminated exactly, by the Schur steps of a multifrontal tree (J. W. H.
Liu, SIAM Review 34, 1992), that of `mesh.nested_dissection`.  Its leaves
are the cells: cells couple only to their own edges, so with K the local
matrix of a cell split into its cell (c) and edge (e) DOFs, the local map
W = K_cc^{-1} K_ce and the local Schur complement K_ee - K_ce^T W are
formed once per congruence class.  The edge operator E, the sum of the
local Schur complements over the cells, is never assembled.  Each node
above the leaves adds the matrices of its two children and eliminates, by
a dense Cholesky factor, the edges where their cells part.  On a
structured mesh the nodes of one size are mostly translates of each
other, and one elimination serves each congruence class of nodes.  An
edge of one cell is a boundary edge, so the root keeps exactly the
boundary DOFs g and gives the dense Schur complement S of E onto g,
which is factored by Cholesky in its own array.  With D the boundary
block of B, which is diagonal (|e| on each DOF of boundary edge e, the
`boundary_mass` of the pair), the finite eigenvalues of (A, B) are those
of (S, D).  The m smallest eigenvalues are the
reciprocals of the m largest eigenvalues theta of the symmetric operator
T = D^{1/2} S^{-1} D^{1/2}, and T y = theta y gives S u_g = (1 / theta) D u_g
for u_g = D^{-1/2} y.  Lanczos (`lanczos`, with full reorthogonalization
and a convergence test after every step) finds the Ritz vectors y, each
application of T one solve with the factor of S; a full-spectrum request
forms T by one block solve and takes all its eigenvectors.  So the
boundary part of each eigenvector is u_g = D^{-1/2} y, with no further
solve.  The tree extends it inward, top-down, each step setting the DOFs
it eliminated to -X applied to those it kept, down to the cells, where X
is W (`CondensedPencil.expand`).  Each eigenvalue is read off its
eigenvector u as a(u, u) / b(u, u), with a(u, u) the sum of squares
sum_T |F_c u_T|^2 of the local factors (`WgOperatorPair.energy`):
nothing in it cancels, so it does not carry the rounding of the local
matrices and of the elimination, as 1 / theta does, and the error of u
enters it squared.  No solve path assembles A.  `condense` builds all of
this once, as one `CondensedPencil`, which also serves the boundary-flux
source problem (`source.solve_source`), whose load is supported on g as
well.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .mesh import group_rows, nested_dissection


class NumericalError(RuntimeError):
    """A factorization or solve failed, or a result missed its tolerance."""


def _stage(name, fn, *args, **kwargs):
    """Call fn; a NumericalError it raises is re-raised naming the stage."""
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        raise NumericalError(f"stage '{name}' failed: {exc}") from exc


# bound on the normwise backward error of every eigenpair `solve_condensed` returns
DEFAULT_RTOL = 1e-9

# relative residual asked of every Lanczos Ritz pair, here and in
# `glb.estimate_delta`: the values are Rayleigh quotients of the Ritz
# vectors, so the error of a vector enters its value squared; `lanczos`
# tests after every step, so its residuals end just below this bound and
# not at a restart's overshoot
_LANCZOS_TOL = 1e-12

# Lanczos steps after which a run that has not converged fails
_LANCZOS_MAX_STEPS = 500


def lanczos(matvec, size, m):
    """The m largest eigenpairs of the symmetric operator y -> matvec(y) on
    R^size: the values ascending and their Ritz vectors as columns.

    Step j applies the operator to the newest basis vector v_j and takes
    out the components of the result along the whole basis by two
    Gram-Schmidt passes, which keeps the basis orthonormal to rounding;
    the coefficient along v_j is alpha_j, and the norm of what is left,
    beta_j, scales the next basis vector.  A Ritz pair (theta_i, s_i) of
    the (j+1) x (j+1) tridiagonal of the alphas and betas has residual
    norm beta_j |s_{j,i}|, and the run stops at the first step at which
    each of the m largest has beta_j |s_{j,i}| <= tol |theta_i|, tol being
    `_LANCZOS_TOL`.  A basis that spans R^size leaves no residual, beta = 0.
    Raises NumericalError if beta falls to rounding level, the Krylov space
    invariant, while a wanted pair has not converged, or if
    `_LANCZOS_MAX_STEPS` steps do not converge.

    One start vector spans one direction of each eigenspace, so a cluster
    of eigenvalues narrower than the tolerance can come out with fewer
    copies than it has, the next eigenvalues taking the places of the
    missing ones.  A full-spectrum request, which takes no Lanczos, is the
    check on such a run.
    """
    # a fixed start vector keeps repeated solves bit-identical; a random
    # one has components along every eigenvector, where a symmetric one
    # would miss the antisymmetric modes
    v = np.random.default_rng(0).standard_normal(size)
    steps = min(size, _LANCZOS_MAX_STEPS)
    # the basis, one vector per row; only the rows written take memory
    basis = np.empty((steps, size))
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = np.empty(steps), np.empty(steps)
    for j in range(steps):
        V = basis[: j + 1]
        w = matvec(basis[j])
        h = V @ w
        w = w - h @ V
        h2 = V @ w
        w -= h2 @ V
        alpha[j] = h[j] + h2[j]
        beta[j] = np.linalg.norm(w) if j + 1 < size else 0.0
        theta, S = _top_eigenpairs(alpha[: j + 1], beta[:j], min(m, j + 1))
        unconverged = m - np.count_nonzero(beta[j] * np.abs(S[-1]) <= _LANCZOS_TOL * np.abs(theta))
        if unconverged == 0:
            return theta, V.T @ S
        if beta[j] <= size * np.finfo(float).eps * np.abs(theta).max():
            raise NumericalError(
                f"Lanczos solve failed: breakdown after {j + 1} steps "
                f"with {unconverged} of {m} wanted pairs unconverged"
            )
        if j + 1 == steps:
            break
        basis[j + 1] = w / beta[j]
    raise NumericalError(f"Lanczos solve failed: No convergence in {steps} steps")


def _top_eigenpairs(diagonal, offdiagonal, m):
    """The m largest eigenvalues, ascending, and their eigenvectors as
    columns, of the symmetric tridiagonal matrix with the given diagonal
    and off-diagonal, by LAPACK's `stemr` (MRRR), which computes only the
    pairs asked for and keeps their vectors orthogonal."""
    n = len(diagonal)
    # stemr reads n entries of the off-diagonal and overwrites them
    e = np.zeros(n)
    e[: n - 1] = offdiagonal
    # range 2 asks for the pairs numbered n - m + 1 to n, counting from 1
    count, values, vectors, info = lapack.dstemr(diagonal, e, 2, 0.0, 0.0, n - m + 1, n)
    if info != 0 or count != m:
        raise NumericalError(f"Lanczos solve failed: tridiagonal eigensolve returned info {info}")
    return values[:m], vectors[:, :m]


@dataclass(frozen=True)
class SchurStep:
    """One dense elimination of the Schur tree, shared by the tree nodes of
    one congruence class.

    Row i of ``kept`` and of ``sep`` holds the global DOFs that node i of
    the class keeps and eliminates; with M the node's matrix on [kept; sep],
    ``X`` = M_ss^{-1} M_sk gives the eliminated values as -X u_kept.  At a
    leaf the nodes are the cells of a cell class, ``sep`` their cell DOFs,
    ``kept`` their edge DOFs and ``X`` the class's W = K_cc^{-1} K_ce.
    """

    X: np.ndarray
    kept: np.ndarray
    sep: np.ndarray


class CondensedPencil:
    """The boundary reduction (S, D) of an operator pair: every DOF off the
    boundary eliminated exactly by the Schur tree (`condense`).

    ``steps`` lists the `SchurStep`s of the tree bottom-up, the cell
    classes first.  The symmetric boundary Schur complement S, in the order
    of ``dof_map.boundary_dofs``, is handed over by `condense` and factored
    by Cholesky in place: S.T is S in Fortran order, so the factor fills one
    triangle of S's array and the other still holds S, which with the kept
    diagonal rebuilds ``S`` on read.  D, the boundary block of B, is the
    pair's ``boundary_mass``, and only its square root is kept.  `a_norm`
    is ||A||_inf of the assembled A, for the backward-error gates.
    """

    def __init__(self, pair, steps, S, a_norm):
        self.pair = pair
        self.steps = steps
        self.a_norm = a_norm
        self._diagonal = S.diagonal().copy()
        try:
            self._factor = sla.cho_factor(S.T, lower=True, overwrite_a=True, check_finite=False)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"edge factorization failed: {exc}") from exc
        self._root_d = np.sqrt(pair.boundary_mass)

    @property
    def S(self):
        """The boundary Schur complement S, rebuilt from the triangle of the
        factor's array that the factorization left as it was."""
        S = np.triu(self._factor, 1)
        S += S.T
        np.fill_diagonal(S, self._diagonal)
        return S

    @property
    def size(self):
        return len(self._diagonal)

    def boundary_solve(self, f_g):
        """S^{-1} f_g for right-hand side(s) given on the boundary DOFs."""
        return sla.cho_solve((self._factor, True), f_g, check_finite=False)

    def expand(self, u_g):
        """Full DOF vector(s) u with boundary values u_g that solve A u = 0
        off the boundary DOFs: top-down through the tree, down to the cells,
        each step sets the DOFs it eliminated to -X applied to those it
        kept."""
        dof_map = self.pair.dof_map
        u = np.zeros((dof_map.n_dofs,) + u_g.shape[1:])
        u[dof_map.boundary_dofs] = u_g
        U = u.reshape(len(u), -1)
        for step in reversed(self.steps):
            U[step.sep] = -(step.X @ U[step.kept])
        return u

    def _lanczos_matvec(self, y):
        """T y = D^{1/2} S^{-1} D^{1/2} y by one solve with the factor of S."""
        return self._root_d * self.boundary_solve(self._root_d * y)

    def eigenvectors(self, m):
        """Full DOF eigenvectors of (A, B) for its m smallest eigenvalues,
        ascending, as columns, orthonormal in b.

        The eigenvectors y of T for its m largest eigenvalues, orthonormal,
        are Lanczos's Ritz vectors, or for the whole spectrum those of T
        formed by one block solve; the boundary part of each eigenvector is
        D^{-1/2} y, which `expand` extends to the interior edges and the
        cells.
        """
        root_d = self._root_d[:, None]
        if m == self.size:
            Y = sla.eigh(root_d * self.boundary_solve(np.diag(self._root_d)))[1]
        else:
            Y = lanczos(self._lanczos_matvec, self.size, m)[1]
        return self.expand(Y[:, ::-1] / root_d)


def condense(pair):
    """Eliminate every DOF of an operator pair off the boundary by the Schur
    tree, and hand the boundary Schur complement to a `CondensedPencil`.

    The leaves are the cell classes: with the Cholesky factor K_cc = L L^T
    of a class's local matrix K and Y = L^{-1} K_ce, the class's leaf step
    takes X = W = L^{-T} Y = K_cc^{-1} K_ce, and its local Schur complement
    K_ee - Y^T Y = K_ee - K_ce^T W is the matrix that `_schur_tree` merges
    upward on the cells' nested-dissection codes.  The root, the dense
    boundary Schur complement S, is checked for symmetry to 1e-12 and
    symmetrized.
    """
    dof_map = pair.dof_map
    mesh, classes = dof_map.mesh, dof_map.classes
    d, m = dof_map.dim_cell, dof_map.dim_edge
    K = pair.local
    K_cc, K_ce, K_ee = K[:, :d, :d], K[:, :d, d:], K[:, d:, d:]
    try:
        L = np.linalg.cholesky(K_cc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("cell-block elimination failed: singular cell block") from exc
    Y = np.linalg.solve(L, K_ce)
    W = np.linalg.solve(L.transpose(0, 2, 1), Y)
    local_dofs = dof_map.local_dofs
    leaves = [SchurStep(W[c], local_dofs[cells, d:], local_dofs[cells, :d])
              for c, cells in enumerate(classes.members)]
    a_norm = _a_norm(K, classes.class_of, mesh.cell_edges, mesh.n_edges, d, m)
    local_S = K_ee - Y.transpose(0, 2, 1) @ Y
    codes = nested_dissection(mesh)
    steps, S = _schur_tree(local_S, classes.class_of, mesh.cell_edges, codes, dof_map.edge_dofs)
    work = S - S.T
    asym = np.abs(work, out=work).max()
    scale = max(S.max(), -S.min())
    if asym > 1e-12 * scale:
        raise NumericalError(f"condensed matrix asymmetry {asym / scale:.2e} exceeds 1e-12")
    S = np.add(S, S.T, out=work)
    S *= 0.5
    return CondensedPencil(pair, leaves + steps, S, a_norm)


def _a_norm(K, class_of, cell_edges, n_edges, d, m):
    """||A||_inf of the assembled A, from the local matrices K of the classes.

    The cell rows of A are local.  Two cells share at most one edge, so an
    edge row of A is the sum, over the cells on the edge, of their local
    rows off the edge's own block, plus the row of the summed edge blocks;
    summing |local entries| over every block instead would bound the norm
    from above and loosen the gates.
    """
    absK = np.abs(K)
    n_local = cell_edges.shape[1]
    rows = absK[:, d:].reshape(len(K), n_local, m, -1)
    blocks = np.empty((len(K), n_local, m, m))
    off = np.empty((len(K), n_local, m))
    for l in range(n_local):
        cols = slice(d + l * m, d + (l + 1) * m)
        blocks[:, l] = K[:, cols, cols]
        off[:, l] = rows[:, l, :, : cols.start].sum(axis=2) + rows[:, l, :, cols.stop :].sum(axis=2)
    # sums over the cells of each edge, in cell order, one column at a time
    flat = cell_edges.ravel()

    def scatter(values):
        return np.column_stack([np.bincount(flat, v, n_edges) for v in values.reshape(len(flat), -1).T])

    edge_rows = scatter(off[class_of])
    same = scatter(blocks[class_of]).reshape(n_edges, m, m)
    edge_rows += np.abs(same).sum(axis=2)
    return float(max(absK[:, :d].sum(axis=2).max(initial=0.0), edge_rows.max()))


# rows per block of the update of the kept block in `_eliminate`
_BLOCK = 128


def _eliminate(M, n_keep):
    """The Schur complement of M onto its first n_keep rows and columns, and
    X = M_ss^{-1} M_sk for the rest (s), by a Cholesky factor of M_ss.

    Y^T Y, with Y = L^{-1} M_sk, is subtracted from M's kept block in place,
    a block of rows at a time, so no second matrix of that size is formed:
    each block row is updated up to the diagonal and mirrored above it.
    The complement is returned as a view of that block."""
    try:
        L = np.linalg.cholesky(M[n_keep:, n_keep:])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"edge factorization failed: {exc}") from exc
    Y = sla.solve_triangular(L, M[n_keep:, :n_keep], lower=True, check_finite=False)
    X = sla.solve_triangular(L, Y, lower=True, trans="T", check_finite=False)
    for i in range(0, n_keep, _BLOCK):
        rows = slice(i, min(i + _BLOCK, n_keep))
        M[rows, : rows.stop] -= Y[:, rows].T @ Y[:, : rows.stop]
        M[: rows.start, rows] = M[rows, : rows.start].T
    return M[:n_keep, :n_keep], X


def _dofs(places, m):
    """The m positions in a front of each of its (..., w) edge places, as
    (..., w m)."""
    return (places[..., None] * m + np.arange(m)).reshape(*places.shape[:-1], -1)


def _schur_tree(local_S, class_of, cell_edges, codes, edge_dofs):
    """Condense the edge operator, the sum of the local Schur complements
    ``local_S`` of the cell classes, onto the boundary edges, bottom-up
    through the tree of the cell ``codes`` (`mesh.nested_dissection`).

    A node keeps the edges of its cells that no cell outside it shares, in
    an order fixed by its class, and its class holds its matrix on them.  A
    node with two children adds their matrices and eliminates the edges
    both of them keep.  Its class is keyed by the classes of its children
    and by which positions of theirs are shared, and how they pair up;
    equal keys give equal matrices, so one elimination serves the class.
    A node with one child is that child.  Every edge of two cells is
    eliminated where its cells meet, so the root keeps the edges of one
    cell, the boundary edges, and orders them ascending, the order of the
    boundary DOFs.  The steps name their DOFs by ``edge_dofs`` (E, k + 1),
    the global DOFs of each edge.  Returns (steps, S): the `SchurStep`s
    bottom-up, and the dense S.
    """
    m = edge_dofs.shape[1]
    order = np.argsort(codes)
    codes, node_class, kept = codes[order], class_of[order], cell_edges[order]
    mats = list(local_S)
    width = [cell_edges.shape[1]] * len(mats)
    steps = []
    for _ in range(int(codes.max()).bit_length()):
        # the nodes are sorted by code, so siblings are adjacent
        parent = codes >> 1
        new = np.r_[True, parent[1:] != parent[:-1]]
        pid = np.cumsum(new) - 1
        child = np.full((int(new.sum()), 2), -1)
        child[pid, codes & 1] = np.arange(len(codes))
        # an edge kept by both children of a parent is shared; the stable
        # sort puts the entry of child 0 first
        w = kept.shape[1]
        flat = kept.ravel()
        at = np.flatnonzero(flat >= 0)
        at = at[np.argsort(flat[at], kind="stable")]
        twice = np.flatnonzero(flat[at[1:]] == flat[at[:-1]])
        a, b = at[twice], at[twice + 1]
        siblings = pid[a // w] == pid[b // w]
        match = np.full(kept.shape, -1)
        np.put(match, a[siblings], b[siblings] % w)
        has = child >= 0
        key = np.column_stack([
            np.where(has, node_class[child], -1),
            np.where(has[:, :1], match[child[:, 0]], -1),
        ])
        reps, inverse = group_rows(key)
        members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
        new_kept = np.full((len(child), 2 * w), -1)
        mats_up, width_up = [], []
        # each class's matrix is dropped once the last front that reads it
        # is built, so fronts do not pile up on their children's matrices
        readers = np.bincount(node_class[child[reps][has[reps]]], minlength=len(mats))
        for rep, nodes in zip(reps, members):
            c0, c1 = child[rep]
            if c0 < 0 or c1 < 0:
                mats_up.append(_read(mats, readers, node_class[max(c0, c1)]))
                width_up.append(width[node_class[max(c0, c1)]])
                new_kept[nodes, :w] = kept[child[nodes].max(axis=1)]
                continue
            w0, w1 = width[node_class[c0]], width[node_class[c1]]
            pos1 = match[c0, :w0]
            s0 = np.flatnonzero(pos1 >= 0)
            u0 = np.flatnonzero(pos1 < 0)
            free1 = np.ones(w1, dtype=bool)
            free1[pos1[s0]] = False
            u1 = np.flatnonzero(free1)
            n_keep = len(u0) + len(u1)
            # each child's positions in [kept of child 0, kept of child 1, shared]
            place0 = np.empty(w0, dtype=np.int64)
            place0[u0] = np.arange(len(u0))
            place0[s0] = n_keep + np.arange(len(s0))
            place1 = np.empty(w1, dtype=np.int64)
            place1[u1] = len(u0) + np.arange(len(u1))
            place1[pos1[s0]] = place0[s0]
            d0, d1 = _dofs(place0, m), _dofs(place1, m)
            # the children's matrices go before the elimination, and the
            # front right after it: only the root, the lone node of its
            # level, keeps its complement as a view of the front, until S is
            # copied out of it in boundary order
            mat0 = _read(mats, readers, node_class[c0])
            mat1 = _read(mats, readers, node_class[c1])
            M = _front(mat0, mat1, d0, d1, n_keep * m)
            del mat0, mat1
            mat, X = _eliminate(M, n_keep * m)
            del M
            if len(child) > 1:
                mat = mat.copy()
            k0, k1 = kept[child[nodes, 0]], kept[child[nodes, 1]]
            keep = np.concatenate([k0[:, u0], k1[:, u1]], axis=1)
            sep = edge_dofs[k0[:, s0]].reshape(len(nodes), -1)
            steps.append(SchurStep(X, edge_dofs[keep].reshape(len(nodes), -1), sep))
            mats_up.append(mat)
            del mat
            width_up.append(n_keep)
            new_kept[nodes, :n_keep] = keep
        codes, node_class, mats, width = parent[new], inverse, mats_up, width_up
        kept = new_kept[:, : max(width)]
    d = _dofs(np.argsort(kept[0, : width[node_class[0]]]), m)
    return steps, mats.pop(node_class[0])[np.ix_(d, d)]


def _read(mats, readers, c):
    """mats[c], which leaves the list when its count of readers runs out."""
    readers[c] -= 1
    mat = mats[c]
    if readers[c] == 0:
        mats[c] = None
    return mat


def _front(mat0, mat1, d0, d1, n_keep):
    """The matrix of a tree node: its children's matrices added at their
    DOFs d0 and d1, which overlap only on the shared block after the first
    n_keep."""
    M = np.zeros((max(d0.max(), d1.max()) + 1,) * 2)
    M[np.ix_(d0, d0)] = mat0
    shared = M[n_keep:, n_keep:].copy()
    M[np.ix_(d1, d1)] = mat1
    M[n_keep:, n_keep:] += shared
    return M


class EigenResult:
    """Eigenpairs of the WG pencil, ascending, boundary-form normalized.

    Each value is a(u, u) / b(u, u) for its vector u, with a(u, u) a sum of
    squares, and `b_norms` holds the b(u, u).  `residuals` holds the
    normwise backward error of each pair, ||A u - lambda B u|| / ((||A|| +
    lambda ||B||) ||u||); the raw ratio ||A u - lambda B u|| / ||A u|| has a
    double-precision floor that grows with the operator scaling and would
    reject correct solves on fine high-degree meshes.
    """

    def __init__(self, values, vectors, residuals, b_norms):
        self.values = values
        self.vectors = vectors
        self.residuals = residuals
        self.b_norms = b_norms


def check_eigenpair_count(m, size):
    """Raises ValueError unless 1 <= m <= size, the number of boundary DOFs
    and so of finite eigenvalues."""
    if not 1 <= m <= size:
        raise ValueError(f"m must lie in [1, {size}], the number of boundary DOFs, got {m}")


def solve_condensed(pencil, m):
    """Solve for the m smallest eigenpairs of the condensed pencil.

    The eigenvectors u, b-orthonormal full DOF vectors, come from the Ritz
    vectors of Lanczos on the inverse operator for m below the boundary
    size, and from a dense eigensolve of that operator for the full
    spectrum (`CondensedPencil.eigenvectors`).  Each value is
    `pair.energy(u)` / b(u, u), and the pairs are ordered by value.
    Raises NumericalError if Lanczos fails to converge or any backward-error
    residual (see EigenResult), with these values, exceeds `DEFAULT_RTOL`.
    """
    check_eigenpair_count(m, pencil.size)
    vectors = pencil.eigenvectors(m)
    pair = pencil.pair
    # B is diagonal and supported on the boundary DOFs g, so B V lives on
    # the rows g and ||B||_inf is the largest |B_ii| there
    g = pair.dof_map.boundary_dofs
    d = pair.boundary_mass
    b_norms = d @ vectors[g] ** 2
    values = pair.energy(vectors) / b_norms
    order = np.argsort(values, kind="stable")  # a cluster narrower than rounding may swap
    values, vectors, b_norms = values[order], vectors[:, order], b_norms[order]
    R = pair.apply(vectors)
    R[g] -= d[:, None] * vectors[g] * values
    scale = pencil.a_norm + np.abs(values) * float(np.abs(d).max())
    residuals = _column_norms(R) / (scale * _column_norms(vectors))
    if not np.all(residuals <= DEFAULT_RTOL):
        raise NumericalError(
            f"eigenpair residual {residuals.max():.2e} exceeds tolerance {DEFAULT_RTOL:.1e}"
        )
    return EigenResult(values, vectors, residuals, b_norms)


def _column_norms(V):
    """The 2-norm of each column of V, without a temporary of V's size."""
    return np.sqrt(np.einsum("ij,ij->j", V, V))


def solve_pair(pair, m):
    """Condense and solve in one step."""
    return solve_condensed(condense(pair), m)
