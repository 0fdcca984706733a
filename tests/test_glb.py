import pytest

from helpers import renumbered_mesh
from wgsteklov.glb import Certificate, GlbConfig, estimate_delta, glb_criterion, run_glb_study
from wgsteklov.harness import SQUARE_REFERENCE_EIGENVALUES
from wgsteklov.mesh import UNIT_SQUARE, build_structured_mesh


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
    assert bool(Certificate(True, 2)) and not bool(Certificate(False, 0))


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
        estimate_delta(mesh, 1, 1)


def test_estimate_delta_positive_and_monotone_in_probe():
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    d3 = estimate_delta(mesh, 1, 3)
    d4 = estimate_delta(mesh, 1, 4)
    assert d3 > 0
    assert d4 >= d3  # larger probe space, larger maximum ratio


@pytest.mark.parametrize("probe_degree", [3, 4])
def test_estimate_delta_independent_of_vertex_numbering(probe_degree, rng):
    # renumbering splits the congruence classes by edge orientation and
    # permutes the probe DOFs; the estimate must not change
    mesh = build_structured_mesh(UNIT_SQUARE, 4)
    want = estimate_delta(mesh, 1, probe_degree)
    got = estimate_delta(renumbered_mesh(mesh, rng), 1, probe_degree)
    assert got == pytest.approx(want, rel=1e-10)


def test_estimate_delta_refinement_scaling():
    # the defect ratio shrinks linearly in h: the boundary defect is a trace
    # quantity, one factor of h weaker than the volume defect it is divided by
    d4 = estimate_delta(build_structured_mesh(UNIT_SQUARE, 4), 1, 3)
    d8 = estimate_delta(build_structured_mesh(UNIT_SQUARE, 8), 1, 3)
    assert 0.4 < d8 / d4 < 0.6


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
