"""Structured triangulations of the unit square and the L-shaped domain.

Both domains are meshed by an n x n grid of squares of side 1/n, each square
split into two triangles along its lower-left to upper-right diagonal.  The
L-shaped domain is the unit square with the closed upper-right quadrant
[1/2, 1] x [1/2, 1] removed, so n must be even for the re-entrant corner to
be a grid point.
"""

import json

import numpy as np

UNIT_SQUARE = "square"
L_SHAPE = "lshape"

DOMAINS = (UNIT_SQUARE, L_SHAPE)
DOMAIN_AREA = {UNIT_SQUARE: 1.0, L_SHAPE: 0.75}


class Mesh:
    """Conforming triangle mesh with edge adjacency and per-entity geometry.

    Attributes
    ----------
    vertices : (V, 2) float array
        Vertex coordinates.
    cells : (C, 3) int array
        Vertex triples, counter-clockwise.
    edges : (E, 2) int array
        Vertex pairs in canonical (ascending-index) orientation; the edge
        parameter t in [0, 1] runs from the lower to the higher vertex index.
    cell_edges : (C, 3) int array
        Edge index of local edge l, which runs CCW from local vertex l to
        local vertex (l + 1) % 3.
    cell_edge_signs : (C, 3) int array
        +1 when the canonical edge direction agrees with the CCW traversal,
        -1 when it is reversed.
    edge_cells : (E, 2) int array
        Incident cell indices, second entry -1 for boundary edges.
    boundary_edge : (E,) bool array
    area, diameter : (C,) float arrays
        Cell area and cell diameter (longest side).
    length : (E,) float array
    normals : (C, 3, 2) float array
        Unit outward normal per (cell, local edge).
    domain, n
        Structured-grid provenance; used for point location and reporting.
    """

    def __init__(self, vertices, cells, domain=None, n=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.domain = domain
        self.n = n
        self._build_edges()
        self._build_geometry()

    def _build_edges(self):
        # local edge l runs from local vertex l to (l + 1) % 3; the edges are
        # numbered in order of first occurrence over (cell, local edge)
        tail, head = self.cells, np.roll(self.cells, -1, axis=1)
        keys = np.stack([np.minimum(tail, head), np.maximum(tail, head)], axis=-1).reshape(-1, 2)
        first, inverse = group_rows(keys)
        order = np.argsort(first)
        self.edges = keys[first[order]]
        self.cell_edges = np.argsort(order)[inverse.reshape(self.cells.shape)]
        self.cell_edge_signs = np.where(tail < head, 1, -1).astype(np.int64)
        # the incident cells of each edge in cell order: the first, and the
        # last when the edge is shared
        flat = self.cell_edges.ravel()
        counts = np.bincount(flat, minlength=len(self.edges))
        if np.any(counts > 2):
            raise ValueError(f"edge {np.argmax(counts > 2)} has more than two incident cells")
        by_edge = np.argsort(flat, kind="stable") // 3
        start = np.cumsum(counts) - counts
        last = np.where(counts == 2, by_edge[start + counts - 1], -1)
        self.edge_cells = np.stack([by_edge[start], last], axis=1)
        self.boundary_edge = last < 0

    def _build_geometry(self):
        v = self.vertices[self.cells]
        e0 = v[:, 1] - v[:, 0]
        e1 = v[:, 2] - v[:, 1]
        e2 = v[:, 0] - v[:, 2]
        cross = e0[:, 0] * (-e2[:, 1]) - e0[:, 1] * (-e2[:, 0])
        if np.any(cross <= 0):
            raise ValueError("cells must be counter-clockwise with positive area")
        self.area = 0.5 * cross
        side_len = np.stack(
            [np.linalg.norm(e0, axis=1), np.linalg.norm(e1, axis=1), np.linalg.norm(e2, axis=1)],
            axis=1,
        )
        self.diameter = side_len.max(axis=1)
        dv = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.length = np.linalg.norm(dv, axis=1)
        tangents = np.stack([e0, e1, e2], axis=1)
        normals = np.stack([tangents[:, :, 1], -tangents[:, :, 0]], axis=2)
        self.normals = normals / np.linalg.norm(normals, axis=2, keepdims=True)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def h_max(self):
        return float(self.diameter.max())

    def boundary_normal(self, ei):
        """Outward normal of a boundary edge, or the stacked normals of an index array."""
        ei = np.asarray(ei)
        if not np.all(self.boundary_edge[ei]):
            raise ValueError(f"edge {ei} is not a boundary edge")
        ci = self.edge_cells[ei, 0]
        l = np.argmax(self.cell_edges[ci] == ei[..., None], axis=-1)
        return self.normals[ci, l]


def group_rows(key):
    """The groups of equal rows of a 2-D array, in ascending lexicographic
    row order: (first, inverse), the index of each group's first row and
    the group of each row, as `np.unique(key, axis=0, return_index=True,
    return_inverse=True)` gives them, but by one stable lexsort in place of
    a sort of the rows as structured records."""
    order = np.lexsort(key.T[::-1])
    # a group starts where a sorted row differs from the one before it;
    # column by column, as np.any over the short rows is slower
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in key.T:
        sorted_column = column[order]
        new[1:] |= sorted_column[1:] != sorted_column[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def check_grid(domain, n):
    """The grid size n as an int; raises ValueError unless the domain is
    supported and n is >= 1, and even for the L-shaped domain."""
    n = int(n)
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if domain == L_SHAPE and n % 2 != 0:
        raise ValueError(f"L-shaped domain requires even n, got {n}")
    return n


def check_levels(levels):
    """Mesh levels as a tuple of ints; raises ValueError unless there is at
    least one and they strictly increase."""
    levels = tuple(int(n) for n in levels)
    if not levels:
        raise ValueError("at least one level is required")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels}")
    return levels


def build_structured_mesh(domain, n):
    """Build the structured triangulation of a supported domain.

    Parameters
    ----------
    domain : str
        Either "square" (the unit square) or "lshape".
    n : int
        Number of grid cells per unit side; must be >= 1, and even for the
        L-shaped domain.
    """
    n = check_grid(domain, n)

    # grid points and squares in row-major order (j, then i); the L-shape
    # drops the squares with i, j >= n / 2 and the points strictly inside them
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    keep = ~((domain == L_SHAPE) & (i > n // 2) & (j > n // 2))
    index = np.cumsum(keep) - 1
    vertices = np.stack([i[keep] / n, j[keep] / n], axis=1)

    j, i = np.divmod(np.arange(n * n), n)
    square = ~((domain == L_SHAPE) & (i >= n // 2) & (j >= n // 2))
    i, j = i[square], j[square]
    a = index[j * (n + 1) + i]
    b = index[j * (n + 1) + i + 1]
    c = index[(j + 1) * (n + 1) + i + 1]
    d = index[(j + 1) * (n + 1) + i]
    # two triangles per square, (a, b, c) then (a, c, d)
    cells = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)

    return Mesh(vertices, cells, domain=domain, n=n)


def nested_dissection(mesh):
    """Each cell's code in the nested-dissection tree of a conforming mesh.

    The cells are halved level by level at the median of each group's
    lowest vertex coordinate, along x on even levels and y on odd ones.  The
    cells whose key ties the median go to whichever half leaves the two
    closer in size, the upper one when both choices are equally close, so a
    group whose keys are not all equal is always cut.  No cell of a
    structured mesh straddles a grid line, so there every cut lies on one.
    The cuts go on for at least ceil(log2(C)) levels, and until the cells
    sharing a group share their lowest vertex, as the two triangles of a
    grid square do; those get extra low bits, their rank within the group in
    cell order.  The codes are distinct, and the tree node j levels above
    the leaves holds the cells whose codes agree once their j lowest bits
    are dropped.  Reads `vertices` and `cells`.
    """
    low = mesh.vertices[mesh.cells].min(axis=1)
    code = np.zeros(len(mesh.cells), dtype=np.int64)
    # the groups of the codes so far, numbered 0, 1, ... in code order
    group = np.zeros(len(mesh.cells), dtype=np.int64)
    levels = (len(mesh.cells) - 1).bit_length()
    level = 0
    while level < levels or _mixed(group, low):
        key = low[:, level % 2]
        counts = np.bincount(group)
        order = np.lexsort((key, group))
        median = key[order[np.cumsum(counts) - (counts + 1) // 2]][group]
        below = np.bincount(group, key < median)
        at_most = np.bincount(group, key <= median)
        ties_down = np.abs(2 * at_most - counts) < np.abs(2 * below - counts)
        upper = np.where(ties_down[group], key > median, key >= median)
        code = 2 * code + upper
        halves = 2 * group + upper
        group = np.cumsum(np.bincount(halves) > 0)[halves] - 1
        level += 1
    counts = np.bincount(group)
    order = np.argsort(group, kind="stable")
    rank = np.empty_like(group)
    rank[order] = np.arange(len(group)) - (np.cumsum(counts) - counts)[group[order]]
    return (code << int(counts.max() - 1).bit_length()) | rank


def _mixed(group, low):
    """Whether some group holds cells of different lowest vertices."""
    one = np.empty((int(group.max()) + 1, low.shape[1]))
    one[group] = low  # the value of some cell of each group
    return bool(np.any(one[group] != low))


def boundary_dof_count(domain, n, k):
    """The number of boundary DOFs of the degree-k space on the structured
    mesh of a domain, without building it: both domains have 4n boundary
    edges of k + 1 DOFs each.  Raises ValueError as `check_grid` does."""
    return 4 * check_grid(domain, n) * (k + 1)


def mesh_stats(mesh):
    """Summary counts and geometry totals for a mesh."""
    return {
        "h_max": mesh.h_max,
        "n_cells": mesh.n_cells,
        "n_edges": mesh.n_edges,
        "n_vertices": mesh.n_vertices,
        "n_boundary_edges": int(mesh.boundary_edge.sum()),
        "total_area": float(mesh.area.sum()),
    }


def locate_cell(mesh, x, y):
    """Cell index containing a point of a structured mesh, or -1 if outside.

    `x` and `y` may be arrays of the same shape, giving an index array;
    scalars give an int.  Points on internal cell interfaces are assigned
    deterministically; the lower triangle of a grid square owns its diagonal.
    """
    if mesh.domain not in DOMAINS or mesh.n is None:
        raise ValueError("point location requires a structured mesh")
    n = mesh.n
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    inside = (0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)
    if mesh.domain == L_SHAPE:
        inside &= ~((x > 0.5) & (y > 0.5))
    x = np.where(inside, x, 0.0)
    y = np.where(inside, y, 0.0)
    i = np.minimum((x * n).astype(np.int64), n - 1)
    j = np.minimum((y * n).astype(np.int64), n - 1)
    if mesh.domain == L_SHAPE:
        # points on the notch boundary belong to the adjacent interior square;
        # rows above the notch hold n // 2 squares each
        notch = (i >= n // 2) & (j >= n // 2)
        i = np.where(notch & (x <= 0.5), n // 2 - 1, i)
        j = np.where(notch & (x > 0.5), n // 2 - 1, j)
        upper = np.maximum(j - n // 2, 0)
        base = 2 * (n * (j - upper) + (n // 2) * upper + i)
    else:
        base = 2 * (j * n + i)
    fx = x * n - i
    fy = y * n - j
    cell = np.where(inside, np.where(fy <= fx, base, base + 1), -1)
    return int(cell) if cell.ndim == 0 else cell


def mesh_to_json(mesh):
    """JSON dump of the mesh (schema documented in the README)."""
    payload = {
        "domain": mesh.domain,
        "n": mesh.n,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
        "edges": mesh.edges.tolist(),
        "boundary_edge": mesh.boundary_edge.astype(int).tolist(),
    }
    return json.dumps(payload, indent=2)
