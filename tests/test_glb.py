import numpy as np
import pytest

import wgsteklov.glb as glb
from helpers import boundary_numerator, pinv_delta, renumbered_mesh
from wgsteklov.assembly import DofMap
from wgsteklov.eigen import NumericalError
from wgsteklov.glb import (
    GlbConfig,
    LagrangeProbeSpace,
    estimate_delta,
    glb_criterion,
    probe_defects,
    run_glb_study,
)
from wgsteklov.harness import SQUARE_REFERENCE_EIGENVALUES
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, build_structured_mesh


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
    forms = probe_defects(dof_map, k + extra)
    # range(Z), the continuous P_k space, is the null space of den and lies
    # in the null space of num = R R^T
    Z = forms.Z.toarray()
    assert np.abs(forms.den @ Z).max() <= 1e-14 * abs(forms.den).max() * np.abs(Z).max()
    assert np.abs(forms.R.T @ Z).max() <= 1e-14 * abs(forms.R).max() * np.abs(Z).max()
    assert np.linalg.matrix_rank(Z) == Z.shape[1]
    assert np.linalg.matrix_rank(forms.den.toarray(), hermitian=True) == Z.shape[0] - Z.shape[1]
    delta = estimate_delta(dof_map, k + extra)
    assert delta == pytest.approx(pinv_delta(dof_map, k + extra), rel=1e-12)


@pytest.mark.parametrize("extra", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", [UNIT_SQUARE, L_SHAPE])
def test_numerator_factor_is_exact(domain, k, extra):
    # R R^T is the assembled boundary numerator, and R has p - k columns per
    # boundary edge, in boundary-edge order, each on the probe DOFs of its
    # edge; the continuous P_k space range(Z) lies in the null space of R^T
    mesh = build_structured_mesh(domain, 4)
    dof_map = DofMap(mesh, k)
    p = k + extra
    forms = probe_defects(dof_map, p)
    R, Z = forms.R, forms.Z
    num = boundary_numerator(dof_map, p)
    assert np.abs((R @ R.T).toarray() - num).max() <= 1e-14 * np.abs(num).max()
    assert abs(R.T @ Z).max() <= 1e-14 * (abs(R).T @ abs(Z)).max()
    edges = np.flatnonzero(mesh.boundary_edge)
    assert R.shape[1] == (p - k) * len(edges)
    gd = np.hstack([mesh.edges[edges], LagrangeProbeSpace(mesh, p).edge_node_dofs(edges)])
    coo = R.tocoo()
    assert np.all((gd[coo.col // (p - k)] == coo.row[:, None]).any(axis=1))


def test_delta_lanczos_stops_at_its_first_converged_step(monkeypatch):
    # square k=1, probe degree 3, n=16: a convergence test after every
    # Lanczos step takes 23 applications of H, where ARPACK's test at each
    # restart of 19 steps took 71
    count = []
    lanczos = glb.lanczos

    def counting(f, size, *args):
        return lanczos(lambda y: count.append(1) or f(y), size, *args)

    monkeypatch.setattr(glb, "lanczos", counting)
    estimate_delta(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 1), 3)
    assert len(count) <= 30


def test_estimate_delta_keeps_the_columns_of_the_nonzero_numerator(monkeypatch):
    # square k=1, probe degree 3: R has p - k = 2 columns on each of the 4n
    # boundary edges, 8n in all, the rank of the boundary numerator: the 12n
    # boundary probe DOFs less the 4n of the continuous P_1 traces
    sizes = []
    lanczos = glb.lanczos
    monkeypatch.setattr(
        glb, "lanczos", lambda f, size, *args: sizes.append(size) or lanczos(f, size, *args)
    )
    estimate_delta(DofMap(build_structured_mesh(UNIT_SQUARE, 16), 1), 3)
    assert sizes == [8 * 16]


class _FailingLU:
    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs) * (1.0 + 1e-6)


def test_estimate_delta_numerical_failures(monkeypatch):
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    dof_map = DofMap(mesh, 1)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(glb, "splu", singular)
    with pytest.raises(NumericalError, match="bordered factorization failed"):
        estimate_delta(dof_map, 3)
    # a solve that misses the backward-error gate
    monkeypatch.undo()
    splu = glb.splu
    monkeypatch.setattr(glb, "splu", lambda *args, **kwargs: _FailingLU(splu(*args, **kwargs)))
    with pytest.raises(NumericalError, match="backward error"):
        estimate_delta(dof_map, 3)


@pytest.mark.parametrize("domain,k,extra,n", [
    *((domain, k, extra, n) for domain in (UNIT_SQUARE, L_SHAPE) for k in (1, 2)
      for extra in (1, 2) for n in (2, 4)),
    (UNIT_SQUARE, 1, 2, 1),
])
def test_estimate_delta_is_a_lower_estimate(domain, k, extra, n):
    # a Ritz value of H never exceeds its largest eigenvalue
    dof_map = DofMap(build_structured_mesh(domain, n), k)
    assert estimate_delta(dof_map, k + extra) <= pinv_delta(dof_map, k + extra) * (1.0 + 1e-12)


class _LoggingLU:
    def __init__(self, lu):
        self.lu = lu
        self.shapes = []

    def solve(self, rhs):
        self.shapes.append(rhs.shape)
        return self.lu.solve(rhs)


def test_estimate_delta_solves_one_vector_at_a_time(monkeypatch):
    # every solve with the bordered factor takes a single right-hand side,
    # so no dense block with one column per rank of num is formed
    dof_map = DofMap(build_structured_mesh(UNIT_SQUARE, 8), 1)
    want = estimate_delta(dof_map, 3)
    splu, lus = glb.splu, []

    def logging_splu(*args, **kwargs):
        lus.append(_LoggingLU(splu(*args, **kwargs)))
        return lus[-1]

    monkeypatch.setattr(glb, "splu", logging_splu)
    assert estimate_delta(dof_map, 3) == want
    [lu] = lus
    size = lu.lu.shape[0]
    assert len(lu.shapes) > 1
    assert set(lu.shapes) == {(size,)}


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
