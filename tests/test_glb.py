import numpy as np
import pytest

import wgsteklov.glb as glb
from helpers import (
    LagrangeProbeSpace,
    assembled_A,
    boundary_numerator,
    lagrange_defects,
    pinv_delta,
    renumbered_mesh,
)
from wgsteklov import eigen
from wgsteklov.assembly import DofMap, WgOperatorPair
from wgsteklov.eigen import CondensedPencil, NumericalError
from wgsteklov.glb import (
    GlbConfig,
    edge_kernels,
    estimate_delta,
    glb_criterion,
    probe_basis,
    probe_factor,
    probe_pair,
    run_glb_study,
)
from wgsteklov.harness import SQUARE_REFERENCE_EIGENVALUES
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, build_structured_mesh
from wgsteklov.polyquad import EdgeBasis, edge_quadrature, triangle_quadrature
from wgsteklov.wgcore import LocalCell


def test_criterion_hand_cases():
    cert = glb_criterion(GlbConfig(alpha=0.1, stab_bound=2.0, proj_bound=0.5), None, 1.0)
    assert cert.certified and cert.case == 2
    cert = glb_criterion(GlbConfig(alpha=1.0, stab_bound=1.0, proj_bound=1.0), None, 1.0)
    assert not cert.certified and cert.case == 0
    # degenerate certificate: both constants zero always certifies
    cert = glb_criterion(GlbConfig(alpha=5.0, stab_bound=0.0, proj_bound=0.0), None, 7.0)
    assert cert.certified
    # the exact-eigenvalue route is reported as case 1 when it fires
    cert = glb_criterion(GlbConfig(alpha=0.1, stab_bound=2.0, proj_bound=0.5), 1.2, 50.0)
    assert cert.certified and cert.case == 1


def test_criterion_validation():
    config = GlbConfig(alpha=0.1, stab_bound=1.0, proj_bound=0.5)
    with pytest.raises(ValueError):
        glb_criterion(config, None, 0.0)
    with pytest.raises(ValueError):
        glb_criterion(config, -1.0, 1.0)
    with pytest.raises(ValueError):
        glb_criterion(GlbConfig(alpha=0.1, stab_bound=1.0), None, 1.0)  # no proj_bound
    with pytest.raises(ValueError):
        GlbConfig(alpha=0.0, stab_bound=1.0)
    with pytest.raises(ValueError):
        GlbConfig(alpha=1.0, stab_bound=-1.0)
    with pytest.raises(ValueError):
        GlbConfig(alpha=1.0, stab_bound=1.0, proj_bound=-0.5)
    with pytest.raises(ValueError):
        GlbConfig(alpha=1.0, stab_bound=1.0, index=0)
    # the analysis constants must be finite numbers
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="stab_bound must be finite and nonnegative"):
            GlbConfig(alpha=1.0, stab_bound=value, proj_bound=0.5)
        with pytest.raises(ValueError, match="proj_bound must be finite and nonnegative"):
            GlbConfig(alpha=1.0, stab_bound=1.0, proj_bound=value)


def test_criterion_monotone_predicate(rng):
    # growing any input never turns a failed certificate into a success
    for _ in range(200):
        delta, lam_cap, alpha, lam_h = rng.uniform(0.01, 2.0, 4)
        base = glb_criterion(
            GlbConfig(alpha=alpha, stab_bound=lam_cap, proj_bound=delta), None, lam_h
        )
        if base.certified:
            continue
        bump = 1.0 + rng.uniform(0.1, 2.0)
        grown = [
            GlbConfig(alpha=alpha, stab_bound=lam_cap, proj_bound=delta * bump),
            GlbConfig(alpha=alpha, stab_bound=lam_cap * bump, proj_bound=delta),
            GlbConfig(alpha=alpha * bump, stab_bound=lam_cap, proj_bound=delta),
        ]
        for config in grown:
            assert not glb_criterion(config, None, lam_h).certified
        assert not glb_criterion(grown[0], None, lam_h * bump).certified


def test_estimate_delta_rejects_low_probe_degree():
    mesh = build_structured_mesh(UNIT_SQUARE, 2)
    with pytest.raises(ValueError):
        estimate_delta(DofMap(mesh, 1), 1)


def test_estimate_delta_positive_and_monotone_in_probe():
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 1)
    d3 = estimate_delta(dof_map, 3)
    d4 = estimate_delta(dof_map, 4)
    assert d3 > 0
    assert d4 >= d3  # larger probe space, larger maximum ratio


@pytest.mark.parametrize("probe_degree", [3, 4])
def test_estimate_delta_independent_of_vertex_numbering(probe_degree, rng):
    # renumbering splits the congruence classes by edge orientation and
    # permutes the probe DOFs; the estimate must not change
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    want = estimate_delta(DofMap(mesh, 1), probe_degree)
    got = estimate_delta(DofMap(renumbered_mesh(mesh, rng), 1), probe_degree)
    assert got == pytest.approx(want, rel=1e-10)


def test_estimate_delta_refinement_scaling():
    # the defect ratio shrinks linearly in h: the boundary defect is a trace
    # quantity, one factor of h weaker than the volume defect it is divided by;
    # n=32 has 9 409 probe DOFs, out of reach of a dense eigensolve
    for k, probe_degree, levels in ((1, 3, (4, 8, 16, 32)), (2, 4, (4, 8))):
        deltas = [estimate_delta(DofMap(build_structured_mesh(UNIT_SQUARE, n), k), probe_degree)
                  for n in levels]
        for coarse, fine in zip(deltas, deltas[1:]):
            assert 0.4 <= fine / coarse <= 0.6


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("extra", [1, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE])
def test_estimate_delta_matches_pseudo_inverse(domain, k, extra, n):
    mesh = build_structured_mesh(domain, n)
    dof_map = DofMap(mesh, k)
    den, Z = lagrange_defects(dof_map, k + extra)
    num = boundary_numerator(dof_map, k + extra)
    # range(Z), the continuous P_k space, is the null space of den and lies
    # in the null space of num
    assert np.abs(den @ Z).max() <= 1e-14 * np.abs(den).max() * np.abs(Z).max()
    assert np.abs(num @ Z).max() <= 1e-14 * np.abs(num).max() * np.abs(Z).max()
    assert np.linalg.matrix_rank(Z) == Z.shape[1]
    assert np.linalg.matrix_rank(den, hermitian=True) == Z.shape[0] - Z.shape[1]
    delta = estimate_delta(dof_map, k + extra)
    assert delta == pytest.approx(pinv_delta(dof_map, k + extra), rel=1e-12)


def _probe_in_lagrange_basis(dof_map, pair, p):
    """The values P of the probe basis at the nodes of the Lagrange probe
    space, (Lagrange DOFs, probe DOFs), and the largest mismatch between
    the values that two cells give a shared node."""
    mesh, classes = dof_map.mesh, dof_map.classes
    space = LagrangeProbeSpace(mesh, p)
    P = np.full((space.n_dofs, pair.dof_map.n_dofs), np.nan)
    mismatch = 0.0
    for ci, (rows, cols) in enumerate(zip(space.cell_dofs(), pair.dof_map.local_dofs)):
        cell = classes.cells[classes.class_of[ci]]
        nodes = space.cell_nodes(cell) - cell.vertices[0]
        lam = np.linalg.solve((cell.vertices[1:] - cell.vertices[0]).T, nodes.T).T
        values = probe_basis(dof_map.k, p, cell.flips, np.column_stack([1 - lam.sum(1), lam]))[0]
        old = P[np.ix_(rows, cols)]
        mismatch = max(mismatch, np.nanmax(np.abs(old - values), initial=0.0))
        P[np.ix_(rows, cols)] = values
    return np.nan_to_num(P), mismatch


@pytest.mark.parametrize("extra", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE])
def test_numerator_factor_is_exact(domain, k, extra):
    # the probe basis is continuous across edges; in it, the Lagrange
    # oracle's numerator is exactly the pencil's diagonal boundary_mass, and
    # its denominator is the pencil's assembled local matrices; the probe
    # space has p - k DOFs on each boundary edge, in boundary-edge order
    mesh = build_structured_mesh(domain, 4)
    dof_map = DofMap(mesh, k)
    p = k + extra
    pair = probe_pair(dof_map, p)
    P, mismatch = _probe_in_lagrange_basis(dof_map, pair, p)
    assert mismatch <= 1e-13
    num = P.T @ boundary_numerator(dof_map, p) @ P
    B = np.zeros_like(num)
    g = pair.dof_map.boundary_dofs
    B[g, g] = pair.boundary_mass
    assert np.abs(num - B).max() <= 1e-13 * np.abs(B).max()
    den = P.T @ lagrange_defects(dof_map, p)[0] @ P
    A = assembled_A(pair).toarray()
    assert np.abs(den - A).max() <= 1e-13 * np.abs(A).max()
    edges = np.flatnonzero(mesh.boundary_edge)
    assert np.array_equal(g, pair.dof_map.edge_dofs[edges].ravel())
    assert np.array_equal(pair.boundary_mass, np.repeat(mesh.length[edges], p - k))


@pytest.mark.parametrize("k,p", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 7)])
def test_edge_numerator_gram_is_the_identity(k, p):
    # the residuals of the edge functions' L2 projections onto P_k are
    # orthonormal on the unit parameter, so the numerator is |e| I
    rule = edge_quadrature(2 * p)
    t, w = rule.points, rule.weights
    lam = np.column_stack([1 - t, t, np.zeros_like(t)])
    trace = probe_basis(k, p, (False,) * 3, lam)[0][:, -3 * (p - k) :][:, : p - k]
    low = EdgeBasis(k).eval(t)
    resid = trace - low @ (low * w[:, None]).T @ trace
    gram = (resid * w[:, None]).T @ resid
    assert np.abs(gram - np.eye(p - k)).max() <= 1e-14
    assert edge_kernels(k, p).shape == (p - 1, p - k)


_TRIANGLE = np.array([[0.1, 0.2], [0.9, 0.35], [0.3, 0.8]])


@pytest.mark.parametrize("k,p", [(1, 2), (1, 3), (2, 4), (1, 4), (3, 5)])
def test_probe_basis_vanishes_where_it_should(k, p):
    # edge functions vanish at both end points of their edge and on the two
    # other edges; bubbles vanish on all three edges
    t = np.linspace(0.0, 1.0, 7)
    n_edge = p - k
    for flips in ((False, False, False), (True, False, True)):
        n_bubbles = probe_basis(k, p, flips, np.full((1, 3), 1 / 3))[0].shape[1] - 3 * n_edge
        for l in range(3):
            lam = np.zeros((len(t), 3))
            lam[:, l], lam[:, (l + 1) % 3] = 1 - t, t
            values = probe_basis(k, p, flips, lam)[0]
            own = n_bubbles + l * n_edge + np.arange(n_edge)
            assert np.abs(values[[0, -1]]).max() <= 1e-15
            others = np.setdiff1d(np.arange(values.shape[1]), own)
            assert np.abs(values[:, others]).max() <= 1e-15
            assert np.abs(values[1:-1, own]).max(axis=0).min() > 0.01


@pytest.mark.parametrize("k,p", [(1, 3), (2, 4), (1, 4), (3, 5)])
def test_odd_edge_functions_change_sign_with_orientation(k, p):
    # the residual of edge function i is the Legendre polynomial of degree
    # k + 1 + i, and the function has that degree's parity in the edge
    # parameter: reversing the edge flips the odd ones and keeps the even
    lam = np.random.default_rng(3).dirichlet(np.ones(3), 20)
    plain = probe_basis(k, p, (False, False, False), lam)[0]
    flipped = probe_basis(k, p, (False, True, False), lam)[0]
    n_bubbles = plain.shape[1] - 3 * (p - k)
    edge1 = n_bubbles + (p - k) + np.arange(p - k)
    parity = (-1.0) ** (k + 1 + np.arange(p - k))
    assert np.allclose(flipped[:, edge1], parity * plain[:, edge1], rtol=0, atol=1e-14)
    assert (parity < 0).any() and (parity > 0).any()
    rest = np.setdiff1d(np.arange(plain.shape[1]), edge1)
    assert np.array_equal(flipped[:, rest], plain[:, rest])


@pytest.mark.parametrize("k,p,n_bubbles", [(1, 2, 0), (1, 3, 1), (2, 4, 3), (3, 5, 5)])
def test_probe_factor_bubble_block_is_positive_definite(k, p, n_bubbles):
    # no bubble of degree above k has a gradient in P_{k-1}, so the bubble
    # block of the local denominator, the leaf of the probe pencil, is
    # positive definite, and at p = k + 1 = 2 there is no bubble
    F = probe_factor(LocalCell(_TRIANGLE, k, (False, True, False)), k, p)
    assert F.shape == (2 * len(triangle_quadrature(2 * p - 2).weights), n_bubbles + 3 * (p - k))
    block = (F.T @ F)[:n_bubbles, :n_bubbles]
    if n_bubbles:
        assert np.linalg.eigvalsh(block)[0] > 1e-3 * np.abs(block).max()


def test_delta_lanczos_stops_at_its_first_converged_step(monkeypatch):
    # square k=1, probe degree 3, n=16: a convergence test after every
    # Lanczos step stops after at most 30 applications of the operator,
    # where ARPACK's test at each restart of 19 steps took 71
    count = []
    lanczos = eigen.lanczos

    def counting(f, size, *args):
        return lanczos(lambda y: count.append(1) or f(y), size, *args)

    monkeypatch.setattr(eigen, "lanczos", counting)
    estimate_delta(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 1), 3)
    assert len(count) <= 30


def test_estimate_delta_keeps_the_columns_of_the_nonzero_numerator(monkeypatch):
    # square k=1, probe degree 3: the probe pencil has p - k = 2 DOFs on each
    # of the 4n boundary edges, 8n in all, the rank of the boundary
    # numerator: the 12n boundary probe DOFs less the 4n of the continuous
    # P_1 traces
    sizes = []
    lanczos = eigen.lanczos
    monkeypatch.setattr(
        eigen, "lanczos", lambda f, size, *args: sizes.append(size) or lanczos(f, size, *args)
    )
    estimate_delta(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 1), 3)
    assert sizes == [8 * 16]


def _estimated_study():
    config = GlbConfig(alpha=0.05, stab_bound=1.0, proj_bound=None, index=1)
    return run_glb_study(UNIT_SQUARE, (4,), 1, config)


def test_estimate_delta_numerical_failures(monkeypatch):
    # a probe leaf that is not positive definite: a bubble with no gradient
    factor = glb.probe_factor

    def flat_bubble(*args):
        F = factor(*args)
        F[:, 0] = 0.0
        return F

    monkeypatch.setattr(glb, "probe_factor", flat_bubble)
    with pytest.raises(NumericalError, match="stage 'estimate_delta' failed: cell-block elimination"):
        _estimated_study()
    # a pencil whose A misses the backward-error gate
    monkeypatch.undo()
    pairs = glb.probe_pair

    def off_pair(*args):
        pair = pairs(*args)
        pair.apply = lambda V: (1 + 1e-6) * WgOperatorPair.apply(pair, V)
        return pair

    monkeypatch.setattr(glb, "probe_pair", off_pair)
    with pytest.raises(NumericalError, match="stage 'estimate_delta' failed: eigenpair residual"):
        _estimated_study()


@pytest.mark.parametrize("domain,k,extra,n", [
    *((domain, k, extra, n) for domain in (UNIT_SQUARE, L_SHAPE) for k in (1, 2)
      for extra in (1, 2) for n in (2, 4)),
    (UNIT_SQUARE, 1, 2, 1),
])
def test_estimate_delta_is_a_lower_estimate(domain, k, extra, n):
    # a Ritz value of H never exceeds its largest eigenvalue
    dof_map = DofMap(build_structured_mesh(domain, n), k)
    assert estimate_delta(dof_map, k + extra) <= pinv_delta(dof_map, k + extra) * (1.0 + 1e-12)


def test_estimate_delta_solves_one_vector_at_a_time(monkeypatch):
    # every solve with the factor of the probe pencil's S takes a single
    # right-hand side, so no dense block with one column per rank of the
    # numerator is formed
    dof_map = DofMap(build_structured_mesh(UNIT_SQUARE, 8), 1)
    want = estimate_delta(dof_map, 3)
    shapes = []
    solve = CondensedPencil.boundary_solve
    monkeypatch.setattr(
        CondensedPencil, "boundary_solve", lambda self, f: shapes.append(f.shape) or solve(self, f)
    )
    assert estimate_delta(dof_map, 3) == want
    assert len(shapes) > 1
    assert set(shapes) == {(8 * 8,)}


def test_run_glb_study_certified_below_reference():
    config = GlbConfig(alpha=0.01, stab_bound=2.0, proj_bound=0.5, index=1)
    rows = run_glb_study(
        UNIT_SQUARE, (8, 16), 1, config, refs=SQUARE_REFERENCE_EIGENVALUES
    )
    for row in rows:
        assert row["certified"] and row["case"] == 1
        assert row["lambda_h"] <= SQUARE_REFERENCE_EIGENVALUES[0] + 1e-9
        assert row["below_reference"]
    # without references the discrete-eigenvalue route must fire
    rows = run_glb_study(UNIT_SQUARE, (8,), 1, config, refs=None)
    assert rows[0]["certified"] and rows[0]["case"] == 2


def test_run_glb_study_estimated_constant():
    config = GlbConfig(alpha=0.05, stab_bound=1.0, proj_bound=None, index=1)
    rows = run_glb_study(UNIT_SQUARE, (4,), 1, config)
    assert rows[0]["proj_bound_source"] == "estimated"
    assert rows[0]["proj_bound"] > 0
    assert rows[0]["certified"]


def test_run_glb_study_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        GlbConfig(alpha=-0.5, stab_bound=1.0, proj_bound=0.5)
