import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import jittered_mesh, loop_edges, loop_structured_mesh, renumbered_mesh
from wgsteklov.mesh import (
    boundary_dof_count,
    DOMAIN_AREA,
    L_SHAPE,
    UNIT_SQUARE,
    Mesh,
    build_structured_mesh,
    check_levels,
    group_rows,
    locate_cell,
    mesh_stats,
    mesh_to_json,
    nested_dissection,
)


@pytest.mark.parametrize(
    "domain,n,nv,ne,nc,nb",
    [
        (UNIT_SQUARE, 2, 9, 16, 8, 8),
        (L_SHAPE, 2, 8, 13, 6, 8),
        (UNIT_SQUARE, 1, 4, 5, 2, 4),
    ],
)
def test_entity_counts(domain, n, nv, ne, nc, nb):
    mesh = build_structured_mesh(domain, n)
    assert mesh.n_vertices == nv
    assert mesh.n_edges == ne
    assert mesh.n_cells == nc
    assert int(mesh.boundary_edge.sum()) == nb
    # simply connected: V - E + C = 1
    assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1


def test_smallest_square_mesh_boundary():
    mesh = build_structured_mesh(UNIT_SQUARE, 1)
    assert mesh.n_cells == 2
    # every edge is boundary except the shared diagonal
    assert int((~mesh.boundary_edge).sum()) == 1
    interior = int(np.where(~mesh.boundary_edge)[0][0])
    assert set(mesh.edges[interior]) == {0, 3}  # (0,0) and (1,1)


@pytest.mark.parametrize("domain,n", [(UNIT_SQUARE, 2), (UNIT_SQUARE, 5), (L_SHAPE, 2), (L_SHAPE, 6)])
def test_geometry_invariants(domain, n):
    mesh = build_structured_mesh(domain, n)
    assert np.all(mesh.area > 0)
    assert abs(mesh.area.sum() - DOMAIN_AREA[domain]) < 1e-12
    # incidence: interior edges touch two cells, boundary edges one
    counts = (mesh.edge_cells >= 0).sum(axis=1)
    assert np.all(counts[mesh.boundary_edge] == 1)
    assert np.all(counts[~mesh.boundary_edge] == 2)
    # closed cell boundary: sum of length-weighted outward normals vanishes
    for ci in range(mesh.n_cells):
        total = np.zeros(2)
        for l in range(3):
            ei = mesh.cell_edges[ci, l]
            total += mesh.length[ei] * mesh.normals[ci, l]
        assert np.linalg.norm(total) < 1e-13
    # normals are unit and outward
    verts = mesh.vertices[mesh.cells]
    centroids = verts.mean(axis=1)
    for ci in range(mesh.n_cells):
        for l in range(3):
            nrm = mesh.normals[ci, l]
            assert abs(np.linalg.norm(nrm) - 1.0) < 1e-14
            midpoint = 0.5 * (verts[ci, l] + verts[ci, (l + 1) % 3])
            assert nrm @ (centroids[ci] - midpoint) < 0


def test_stats_and_refinement():
    mesh2 = build_structured_mesh(UNIT_SQUARE, 2)
    stats = mesh_stats(mesh2)
    assert stats["h_max"] == pytest.approx(np.sqrt(2) / 2, rel=1e-14)
    assert stats["total_area"] == pytest.approx(1.0, abs=1e-14)
    assert mesh_stats(build_structured_mesh(L_SHAPE, 2))["total_area"] == pytest.approx(0.75)
    assert mesh_stats(build_structured_mesh(UNIT_SQUARE, 8))["n_cells"] == 128
    # refinement n -> 2n exactly halves the max diameter
    for n in (2, 4, 8):
        h1 = build_structured_mesh(UNIT_SQUARE, n).h_max
        h2 = build_structured_mesh(UNIT_SQUARE, 2 * n).h_max
        assert h2 == pytest.approx(h1 / 2, rel=1e-15)


def test_outward_normal_reference_cell():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    s = 1 / np.sqrt(2)
    assert mesh.normals[0] == pytest.approx(np.array([[0.0, -1.0], [s, s], [-1.0, 0.0]]))


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_structured_mesh(UNIT_SQUARE, 0)
    with pytest.raises(ValueError):
        build_structured_mesh(L_SHAPE, 3)
    with pytest.raises(ValueError):
        build_structured_mesh("hexagon", 2)


def test_check_levels_wants_a_strictly_increasing_nonempty_sequence():
    assert check_levels(["8", 16, 32.0]) == (8, 16, 32)
    assert check_levels((4,)) == (4,)
    with pytest.raises(ValueError, match="at least one level"):
        check_levels(())
    for levels in ((2, 2), (4, 2), (2, 8, 4)):
        with pytest.raises(ValueError, match="levels must be strictly increasing"):
            check_levels(levels)


def test_lshape_boundary_edges_on_perimeter():
    mesh = build_structured_mesh(L_SHAPE, 4)
    segments = [
        lambda p: p[1] == 0.0,                      # bottom
        lambda p: p[0] == 1.0 and p[1] <= 0.5,      # right
        lambda p: p[1] == 0.5 and p[0] >= 0.5,      # notch, horizontal
        lambda p: p[0] == 0.5 and p[1] >= 0.5,      # notch, vertical
        lambda p: p[1] == 1.0 and p[0] <= 0.5,      # top
        lambda p: p[0] == 0.0,                      # left
    ]
    for ei in np.where(mesh.boundary_edge)[0]:
        a, b = mesh.vertices[mesh.edges[ei]]
        assert any(seg(a) and seg(b) for seg in segments), (a, b)


@pytest.mark.parametrize("domain,n", [(UNIT_SQUARE, 4), (L_SHAPE, 4)])
def test_locate_cell_contains_point(domain, n, rng):
    mesh = build_structured_mesh(domain, n)
    hits = 0
    for _ in range(200):
        x, y = rng.uniform(0, 1, 2)
        ci = locate_cell(mesh, x, y)
        if ci < 0:
            assert domain == L_SHAPE and x > 0.5 and y > 0.5
            continue
        hits += 1
        v = mesh.vertices[mesh.cells[ci]]
        T = np.column_stack([v[1] - v[0], v[2] - v[0]])
        lam = np.linalg.solve(T, np.array([x, y]) - v[0])
        assert lam[0] >= -1e-12 and lam[1] >= -1e-12 and lam.sum() <= 1 + 1e-12
    assert hits > 100


def test_locate_cell_notch_boundary():
    mesh = build_structured_mesh(L_SHAPE, 4)
    assert locate_cell(mesh, 0.75, 0.75) == -1
    for x, y in [(0.5, 0.75), (0.75, 0.5), (0.5, 0.5), (1.0, 0.5), (0.5, 1.0)]:
        assert locate_cell(mesh, x, y) >= 0, (x, y)


@st.composite
def meshes_and_points(draw):
    """A structured mesh and points inside, outside and on grid lines of it,
    always including the lattice of half grid steps around the domain."""
    domain = draw(st.sampled_from([UNIT_SQUARE, L_SHAPE]))
    n = 2 * draw(st.integers(1, 4))
    coord = st.one_of(
        st.floats(-0.5, 1.5, allow_nan=False),
        st.integers(-2, 2 * n + 2).map(lambda i: i / (2 * n)),
    )
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    lattice = np.arange(-1, 2 * n + 2) / (2 * n)
    grid = np.stack(np.meshgrid(lattice, lattice), axis=-1).reshape(-1, 2)
    return build_structured_mesh(domain, n), np.vstack([np.array(points), grid])


@settings(max_examples=60, deadline=None)
@given(meshes_and_points())
def test_locate_cell_array_properties(case):
    mesh, points = case
    x, y = points.T
    cells = locate_cell(mesh, x, y)
    assert cells.shape == x.shape and cells.dtype.kind == "i"
    assert cells.tolist() == [locate_cell(mesh, a, b) for a, b in points]
    assert all(type(locate_cell(mesh, a, b)) is int for a, b in points)
    outside = (x < 0) | (x > 1) | (y < 0) | (y > 1)
    if mesh.domain == L_SHAPE:
        outside |= (x > 0.5) & (y > 0.5)
    assert np.all((cells < 0) == outside)
    for ci, p in zip(cells[~outside], points[~outside]):
        v = mesh.vertices[mesh.cells[ci]]
        lam = np.linalg.solve(np.column_stack([v[1] - v[0], v[2] - v[0]]), p - v[0])
        assert lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12, (ci, p)


def test_json_dump_schema():
    mesh = build_structured_mesh(L_SHAPE, 2)
    payload = json.loads(mesh_to_json(mesh))
    assert payload["domain"] == L_SHAPE and payload["n"] == 2
    assert len(payload["vertices"]) == mesh.n_vertices
    assert len(payload["cells"]) == mesh.n_cells
    assert len(payload["edges"]) == len(payload["boundary_edge"]) == mesh.n_edges


@pytest.mark.parametrize(
    "domain,n", [(UNIT_SQUARE, n) for n in (1, 2, 4, 8, 16, 64)] + [(L_SHAPE, n) for n in (2, 4, 8, 16, 64)]
)
def test_structured_mesh_matches_loop_oracle(domain, n):
    mesh = build_structured_mesh(domain, n)
    for got, want in zip((mesh.vertices, mesh.cells), loop_structured_mesh(domain, n)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "domain,n", [(UNIT_SQUARE, n) for n in (1, 2, 4, 8, 16)] + [(L_SHAPE, n) for n in (2, 4, 8, 16)]
)
def test_edge_tables_match_loop_oracle(domain, n, rng):
    mesh = build_structured_mesh(domain, n)
    names = ("edges", "cell_edges", "cell_edge_signs", "edge_cells", "boundary_edge")
    for m in (mesh, renumbered_mesh(mesh, rng)):
        for name, want in zip(names, loop_edges(m.cells)):
            got = getattr(m, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize(
    "domain,n", [(UNIT_SQUARE, n) for n in (1, 2, 3, 8, 64)] + [(L_SHAPE, n) for n in (2, 8, 64)]
)
def test_nested_dissection_is_a_permutation_of_the_edges(domain, n, rng):
    # the cell codes are distinct, so every cell is a leaf of its own, and
    # numbering each edge at the tree node where its two cells part (a
    # boundary edge at its cell's leaf) after both halves of that node
    # numbers every edge once
    mesh = build_structured_mesh(domain, n)
    for m in (mesh, renumbered_mesh(mesh, rng), jittered_mesh(mesh, rng)):
        codes = nested_dissection(m)
        assert codes.dtype == np.int64 and codes.min() >= 0
        assert len(np.unique(codes)) == m.n_cells
        first, second = m.edge_cells.T
        a = codes[first]
        levels_up = np.frexp(a ^ np.where(second < 0, a, codes[second]))[1]
        order = np.lexsort((levels_up, a | ((1 << levels_up) - 1)))
        assert np.array_equal(np.sort(order), np.arange(m.n_edges))
    # on the grid, the two triangles of a square differ in the lowest bit only
    codes = nested_dissection(mesh)
    assert np.all(codes[0::2] >> 1 == codes[1::2] >> 1)


@pytest.mark.parametrize(
    "domain,n", [(UNIT_SQUARE, n) for n in (2, 6, 64)] + [(L_SHAPE, n) for n in (4, 10, 64)]
)
def test_nested_dissection_parts_cells_by_cuts(domain, n):
    # every tree node whose cells do not all share their lowest vertex is
    # parted by a cut: along x or y, the lowest vertices of one half all lie
    # below those of the other.  Only cells that share it, the two
    # triangles of a grid square, are told apart by their rank
    mesh = build_structured_mesh(domain, n)
    codes = nested_dissection(mesh)
    low = mesh.vertices[mesh.cells].min(axis=1)
    for j in range(int(codes.max()).bit_length()):
        _, node = np.unique(codes >> (j + 1), return_inverse=True)
        half = (codes >> j) & 1
        lo = np.full((node.max() + 1, 2, 2), np.inf)
        hi = np.full((node.max() + 1, 2, 2), -np.inf)
        np.minimum.at(lo, (node, half), low)
        np.maximum.at(hi, (node, half), low)
        cut = np.any(hi[:, 0] < lo[:, 1], axis=1)
        one_child = np.any(np.isinf(lo), axis=(1, 2))
        one_vertex = np.all(lo.min(axis=1) == hi.max(axis=1), axis=1)
        assert np.all(cut | one_child | one_vertex), j


@pytest.mark.parametrize(
    "domain,n", [(UNIT_SQUARE, n) for n in (1, 3, 8)] + [(L_SHAPE, n) for n in (2, 8)]
)
def test_boundary_dof_count_matches_the_mesh(domain, n):
    boundary_edges = int(build_structured_mesh(domain, n).boundary_edge.sum())
    for k in (1, 2, 5):
        assert boundary_dof_count(domain, n, k) == boundary_edges * (k + 1)
    with pytest.raises(ValueError, match="even n"):
        boundary_dof_count(L_SHAPE, 3, 1)


def test_edge_with_three_cells_rejected():
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 2.0)]
    with pytest.raises(ValueError, match="more than two incident cells"):
        Mesh(vertices, [(0, 1, 2), (1, 3, 2), (1, 4, 2)])


TABLES = array_shapes(min_dims=2, max_dims=2, max_side=30)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    # integer rows from a few values, so with many duplicates
    arrays(np.int64, TABLES, elements=st.integers(-2, 2)),
    # float rows with both signed zeros, which compare equal
    arrays(float, TABLES, elements=st.sampled_from([0.0, -0.0, 0.5, -1.0])),
))
@example(np.array([[3, 1, 2]]))
@example(np.array([[2], [0], [2], [1], [0]]))
@example(np.array([[0.0, -0.0], [-0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]))
@example(np.array([[-0.0], [1.0], [0.0], [-0.0]]))
def test_group_rows_matches_unique_rows(key):
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    got_first, got_inverse = group_rows(key)
    assert np.array_equal(got_first, first)
    assert got_inverse.shape == (len(key),) and got_inverse.dtype == np.int64
    assert np.array_equal(got_inverse, inverse.ravel())
