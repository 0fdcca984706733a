import json
import os
import subprocess
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import wgsteklov
import wgsteklov.harness as harness
from wgsteklov.assembly import AlphaStabilizer, DofMap, GammaStabilizer, NegInvLog, PowerEps
from wgsteklov.eigen import NumericalError
from wgsteklov.glb import GlbConfig, run_glb_study
from wgsteklov.harness import (
    SQUARE_REFERENCE_EIGENVALUES,
    StudyConfig,
    export_eigenfunction_field,
    fitted_order,
    load_config_file,
    main,
    observed_order,
    parse_levels,
    parse_refs,
    parse_stabilizer,
    run_eigen_study,
    run_source_study,
)
from wgsteklov.mesh import L_SHAPE, UNIT_SQUARE, build_structured_mesh, locate_cell
from wgsteklov.polyquad import dim_pk
from wgsteklov import wgcore
from wgsteklov.wgcore import LocalCell
from wgsteklov.assembly import assemble
from wgsteklov.eigen import solve_pair

GAMMA = GammaStabilizer(PowerEps(0.1))


def small_config(**overrides):
    base = dict(
        domain=UNIT_SQUARE,
        k=1,
        stabilizer=GAMMA,
        levels=(2, 4),
        n_eigs=2,
        refs=SQUARE_REFERENCE_EIGENVALUES,
    )
    base.update(overrides)
    return StudyConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(levels=(4, 2))
    with pytest.raises(ValueError):
        small_config(levels=(4, 4))
    with pytest.raises(ValueError):
        small_config(n_eigs=0)
    with pytest.raises(ValueError):
        small_config(domain="disk")
    with pytest.raises(ValueError):
        small_config(fmt="xml")
    with pytest.raises(ValueError):
        small_config(stabilizer=GammaStabilizer(PowerEps(1.5)))


def test_order_computation_matches_hand_value():
    # hand check on tabulated first-eigenvalue errors at consecutive levels
    assert observed_order(8.0705e-4, 2.1839e-4) == pytest.approx(1.8858, abs=1e-3)
    hs = [1.0, 0.5, 0.25]
    errs = [4.0, 1.0, 0.25]
    assert fitted_order(hs, errs) == pytest.approx(2.0, rel=1e-12)
    # the slope is fitted over the positive errors; with fewer than two it is None
    assert fitted_order([1.0, 0.5, 0.25], [-1.0, 0.5, 0.125]) == pytest.approx(2.0, rel=1e-12)
    assert fitted_order([1.0], [0.5]) is None
    assert fitted_order([1.0, 0.5], [0.5, 0.0]) is None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_single_level_source_json_is_valid(tmp_path):
    # one level has no fitted order: it is written as null, not as NaN,
    # which RFC 8259 JSON does not allow
    out = tmp_path / "source.json"
    assert main(["source", "--domain", "square", "--k", "1", "--gamma", "pow:0.1",
                 "--levels", "4", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["v_fitted_order"] is None and payload["x_fitted_order"] is None
    assert payload["v_order"] == [None] and payload["v_error"][0] > 0.0


def test_eigen_study_report_contents():
    report = run_eigen_study(small_config())
    assert report.ns == [2, 4]
    assert len(report.eigenvalues) == 2 and len(report.eigenvalues[0]) == 2
    # coarse discrete values stay below the references
    for j in range(2):
        assert all(report.lower_bound[j])
    assert report.orders[0][0] is None
    assert report.orders[0][1] is not None
    assert report.trend_nondecreasing(0)


def test_report_determinism_and_formats():
    r1 = run_eigen_study(small_config())
    r2 = run_eigen_study(small_config())
    for fmt in ("csv", "json", "markdown"):
        assert r1.render(fmt) == r2.render(fmt)
    payload = json.loads(r1.render("json"))
    assert payload["levels"] == [2, 4]
    assert payload["references"][0] == SQUARE_REFERENCE_EIGENVALUES[0]
    md = r1.render("markdown")
    assert md.startswith("| quantity |")
    csv = r1.render("csv")
    header = csv.splitlines()[0].split(",")
    assert "lambda_1" in header and "order_1" in header and "trend_2" in header


def test_single_level_study_has_no_orders():
    report = run_eigen_study(small_config(levels=(2,)))
    assert report.orders[0] == [None]
    csv = report.render("csv")
    assert len(csv.splitlines()) == 2
    assert "order_1" not in csv.splitlines()[0]


def test_trend_flags_on_lshape():
    config = StudyConfig(
        domain=L_SHAPE,
        k=1,
        stabilizer=GammaStabilizer(NegInvLog()),
        levels=(2, 4, 8),
        n_eigs=2,
        refs=None,
    )
    report = run_eigen_study(config)
    assert report.errors is None
    for j in range(2):
        assert report.trend_nondecreasing(j)


def test_field_export_first_mode_sign_definite(tmp_path):
    mesh = build_structured_mesh(UNIT_SQUARE, 8)
    dof_map = DofMap(mesh, 1)
    pair = assemble(dof_map, GAMMA)
    result = solve_pair(pair, 2)
    text = export_eigenfunction_field(result, dof_map, 1, 17)
    again = export_eigenfunction_field(result, dof_map, 1, 17)
    assert text == again  # bit-identical re-export
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    values = np.array([float(r[2]) for r in rows])
    assert len(values) == 17 * 17
    assert values.max() > 0 and values.min() > 0  # no sign change, positive
    with pytest.raises(ValueError):
        export_eigenfunction_field(result, dof_map, 3, 9)


def test_field_export_omits_points_outside_lshape():
    mesh = build_structured_mesh(L_SHAPE, 4)
    dof_map = DofMap(mesh, 1)
    pair = assemble(dof_map, GAMMA)
    result = solve_pair(pair, 1)
    text = export_eigenfunction_field(result, dof_map, 1, 9)
    pts = {(r.split(",")[0], r.split(",")[1]) for r in text.strip().splitlines()[1:]}
    # 9x9 grid minus the 4x4 points with both coordinates beyond the notch corner
    assert len(pts) == 81 - 16
    for x_txt, y_txt in pts:
        x, y = float(x_txt), float(y_txt)
        assert not (x > 0.5 and y > 0.5)


@pytest.mark.parametrize("domain,n,k,grid", [(UNIT_SQUARE, 4, 2, 13), (L_SHAPE, 4, 1, 11)])
def test_field_export_matches_direct_cell_evaluation(domain, n, k, grid):
    mesh = build_structured_mesh(domain, n)
    dof_map = DofMap(mesh, k)
    result = solve_pair(assemble(dof_map, GAMMA), 1)
    rows = np.array([line.split(",") for line in
                     export_eigenfunction_field(result, dof_map, 1, grid).splitlines()[1:]],
                    dtype=float)
    u = result.vectors[:, 0]
    dim = dim_pk(k)
    want = []
    for x, y, _ in rows:
        ci = locate_cell(mesh, x, y)
        phi = LocalCell.from_mesh(mesh, ci, k).basis.eval(np.array([[x, y]]))[0]
        want.append(phi @ u[ci * dim : (ci + 1) * dim])
    want = np.array(want)
    want *= np.sign(want[np.argmax(np.abs(want))])
    assert np.max(np.abs(rows[:, 2] - want)) <= 1e-12 * np.max(np.abs(want))


def _field_values(text):
    return np.array([float(line.split(",")[2]) for line in text.splitlines()[1:]])


@pytest.mark.parametrize("eig", [2, 3])
def test_field_export_sign_survives_tied_extremes(eig):
    # the antisymmetric modes 2 and 3 of the square have a largest positive
    # and a largest negative sample of equal magnitude up to rounding, so a
    # perturbation far above rounding but far below the 1e-9 tie band must
    # leave every exported sample, and so its sign, unchanged
    mesh = build_structured_mesh(UNIT_SQUARE, 8)
    dof_map = DofMap(mesh, 2)
    vectors = solve_pair(assemble(dof_map, GAMMA), 3).vectors
    u = vectors[:, eig - 1]

    def export(column):
        field = np.array(vectors)
        field[:, eig - 1] = column
        return _field_values(export_eigenfunction_field(
            SimpleNamespace(vectors=field), dof_map, eig, 17))

    base = export(u)
    assert abs(base.max() + base.min()) <= 1e-12 * base.max()
    rng = np.random.default_rng(eig)
    for _ in range(3):
        # a componentwise relative perturbation of size 1e-10, both ways
        d = 1e-10 * u * rng.uniform(-1.0, 1.0, len(u))
        for perturbed in (u + d, u - d):
            assert np.max(np.abs(export(perturbed) - base)) <= 1e-8 * base.max()


def test_parse_helpers():
    assert isinstance(parse_stabilizer("pow:0.2", None).spec, PowerEps)
    assert isinstance(parse_stabilizer("neglog", None).spec, NegInvLog)
    assert parse_stabilizer("fixed:0.5", None).spec == 0.5
    assert parse_stabilizer(None, "0.1").alpha == 0.1
    with pytest.raises(ValueError):
        parse_stabilizer(None, None)
    with pytest.raises(ValueError):
        parse_stabilizer("pow:0.1", "0.1")
    with pytest.raises(ValueError):
        parse_stabilizer("cubic", None)
    assert parse_refs("none") is None
    assert parse_refs("builtin:square") == SQUARE_REFERENCE_EIGENVALUES
    assert parse_refs("1.0,2.5") == (1.0, 2.5)


def test_cli_converge_roundtrip(tmp_path, capsys):
    out = tmp_path / "study.csv"
    argv = [
        "converge",
        "--domain", "square",
        "--k", "1",
        "--gamma", "pow:0.1",
        "--levels", "2,4",
        "--eigs", "2",
        "--refs", "builtin:square",
        "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first  # byte-identical reruns
    header = first.decode().splitlines()[0]
    assert header.startswith("n,h,lambda_1")
    # the Lanczos start vector is fixed, so JSON reruns are byte-identical too
    argv[argv.index("--levels") + 1] = "4,8"
    argv[argv.index("--eigs") + 1] = "4"
    argv += ["--format", "json"]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_cli_source_and_glb_json_reruns_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    for argv in (
        ["source", "--domain", "square", "--k", "2", "--gamma", "pow:0.1", "--levels", "2,4"],
        ["glb", "--domain", "square", "--k", "1", "--alpha", "0.01", "--stab-bound", "2.0",
         "--proj-bound", "estimate", "--refs", "builtin:square", "--levels", "2,4"],
    ):
        argv += ["--format", "json", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        json.loads(first, parse_constant=_reject_constant)
        assert main(argv) == 0
        assert out.read_bytes() == first


def test_python_m_wgsteklov_runs_the_cli():
    src = os.path.dirname(os.path.dirname(wgsteklov.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "wgsteklov", "mesh", "--domain", "square",
                           "--n", "2"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "total_area = 1.0" in proc.stdout


def test_cli_solve_prints_ascending_eigenvalues(capsys):
    assert main(["solve", "--domain", "square", "--n", "4", "--k", "1",
                 "--gamma", "pow:0.1", "--eigs", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(v) for v in lines]
    assert len(values) == 3
    assert values == sorted(values)
    assert all(v > 0 for v in values)


def test_cli_mesh_stats(capsys):
    assert main(["mesh", "--domain", "lshape", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "total_area = 0.75" in out


def test_cli_source_and_glb(tmp_path, capsys):
    assert main(["source", "--domain", "square", "--k", "1", "--gamma", "pow:0.1",
                 "--levels", "2,4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,h,v_error")
    assert len(out.strip().splitlines()) == 3
    out_path = tmp_path / "glb.csv"
    assert main(["glb", "--domain", "square", "--k", "1", "--levels", "4",
                 "--alpha", "0.05", "--stab-bound", "1.0", "--proj-bound", "0.5",
                 "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "certified" in text.splitlines()[0]
    assert ",True," in text.splitlines()[1]


def test_cli_solve_lshape(capsys):
    assert main(["solve", "--domain", "lshape", "--n", "4", "--k", "1",
                 "--gamma", "neglog", "--eigs", "4"]) == 0
    values = [float(v) for v in capsys.readouterr().out.strip().splitlines()]
    assert values == sorted(values) and all(v > 0 for v in values)


def test_cli_usage_errors(capsys, monkeypatch, tmp_path):
    assert main(["converge", "--domain", "square", "--nope", "1"]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    # validation error: missing required option
    assert main(["converge", "--domain", "square", "--k", "1", "--gamma", "pow:0.1"]) == 1
    # validation error: odd L-shape level
    assert main(["mesh", "--domain", "lshape", "--n", "3"]) == 1

    # source and glb write csv or json only; any other format, from the flag
    # or from a config file, is rejected before a mesh is built
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_structured_mesh", no_mesh)
    monkeypatch.setattr(harness.glb_mod, "build_structured_mesh", no_mesh)
    source = ["source", "--domain", "square", "--k", "1", "--gamma", "pow:0.1", "--levels", "2,4"]
    glb = ["glb", "--domain", "square", "--k", "1", "--alpha", "0.01", "--stab-bound", "2.0",
           "--proj-bound", "0.5", "--levels", "2,4"]
    config = tmp_path / "format.conf"
    for fmt in ("markdown", "xml"):
        config.write_text(f"format = {fmt}\n")
        for argv in (source, glb):
            assert main(argv + ["--format", fmt]) == 1
            assert main(argv + ["--config", str(config)]) == 1
            assert "format" in capsys.readouterr().err
    config.write_text("format = xml\n")
    assert main(["converge", "--domain", "square", "--k", "1", "--gamma", "pow:0.1",
                 "--levels", "2", "--config", str(config)]) == 1
    # a certificate index beyond the reference values
    capsys.readouterr()
    assert main(glb[:-2] + ["--levels", "2", "--index", "5", "--refs", "builtin:square"]) == 1
    assert "wg-steklov: index 5" in capsys.readouterr().err
    # a stabilizer weight out of range: alpha must be finite and positive,
    # a fixed gamma must lie in (0, 1]
    solve = ["solve", "--domain", "square", "--n", "2", "--k", "1"]
    for value in ("nan", "inf", "-inf", "0"):
        for argv in (solve + [f"--alpha={value}"], glb[:5] + [f"--alpha={value}"] + glb[7:]):
            capsys.readouterr()
            assert main(argv) == 1
            assert "alpha must be finite and positive" in capsys.readouterr().err
    for value in ("5", "0", "-0.5", "nan", "inf"):
        capsys.readouterr()
        assert main(source[:6] + [f"fixed:{value}"] + source[7:]) == 1
        assert main(solve + ["--gamma", f"fixed:{value}"]) == 1
        assert "fixed gamma must lie in (0, 1]" in capsys.readouterr().err
    # the analysis constants must be finite and nonnegative
    for flag, values in (("--stab-bound", ("nan", "inf", "-inf", "-1")),
                         ("--proj-bound", ("nan", "inf", "-inf", "-0.5"))):
        for value in values:
            capsys.readouterr()
            assert main(glb + [f"{flag}={value}", "--format", "json"]) == 1
            assert "must be finite and nonnegative" in capsys.readouterr().err
    # an estimated proj_bound needs a probe degree above k
    for value in ("1", "0"):
        capsys.readouterr()
        assert main(glb[:-4] + ["--probe-degree", value, "--levels", "4,8"]) == 1
        assert "probe_degree must exceed k" in capsys.readouterr().err
    # a given probe degree is checked also when proj_bound is configured
    assert main(glb[:-2] + ["--probe-degree", "1", "--levels", "2", "--format", "json"]) == 1
    assert "probe_degree must exceed k" in capsys.readouterr().err


def _no_mesh(*args):
    raise AssertionError("a mesh was built")


def test_parse_levels_checks_the_increase():
    assert parse_levels("8,16,32") == (8, 16, 32)
    for text in ("2,2", "4,2", "2,8,4"):
        with pytest.raises(ValueError, match="levels must be strictly increasing"):
            parse_levels(text)


@pytest.mark.parametrize("levels", ["2,2", "4,2"])
@pytest.mark.parametrize("command", ["converge", "source", "glb"])
def test_cli_rejects_levels_that_do_not_increase(command, levels, monkeypatch, capsys):
    # all three studies exit 1 on repeated or decreasing levels, before any
    # mesh is built
    monkeypatch.setattr(harness, "build_structured_mesh", _no_mesh)
    monkeypatch.setattr(harness.glb_mod, "build_structured_mesh", _no_mesh)
    options = {
        "converge": ["--gamma", "pow:0.1"],
        "source": ["--gamma", "pow:0.1"],
        "glb": ["--alpha", "0.01", "--stab-bound", "2.0", "--proj-bound", "0.5"],
    }[command]
    assert main([command, "--domain", "square", "--k", "1", *options, "--levels", levels]) == 1
    assert "levels must be strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_cli_field_rejects_grid_below_two(grid, monkeypatch, tmp_path, capsys):
    # a grid of fewer than 2 points per side samples nothing or one corner:
    # rejected before any solve, and no file is written
    monkeypatch.setattr(harness, "build_structured_mesh", _no_mesh)
    out = tmp_path / "f.csv"
    argv = ["field", "--domain", "square", "--n", "2", "--k", "1", "--gamma", "pow:0.1",
            "--eig", "1", "--grid", grid, "--out", str(out)]
    assert main(argv) == 1
    assert "--grid must be at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("direction,message", [
    ("nan,0", "direction must satisfy a^2 + b^2 = 1"),
    ("0,nan", "direction must satisfy a^2 + b^2 = 1"),
    ("1", "--direction must be two numbers a,b"),
])
def test_cli_source_rejects_bad_direction(direction, message, monkeypatch, tmp_path, capsys):
    # a NaN direction would give NaN errors, which JSON cannot hold: it
    # exits 1 before any mesh is built, and no report is written
    monkeypatch.setattr(harness, "build_structured_mesh", _no_mesh)
    out = tmp_path / "s.json"
    argv = ["source", "--domain", "square", "--k", "1", "--gamma", "pow:0.1", "--levels", "2,4",
            "--direction", direction, "--format", "json", "--out", str(out)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_each_study_builds_one_cell_classes_per_level(monkeypatch):
    # the classes are built with a level's DofMap and shared by all of its
    # consumers; the field export reuses those of the solve
    builds = []
    init = wgcore.CellClasses.__init__

    def counting_init(self, mesh, k):
        builds.append(mesh.n_cells)
        init(self, mesh, k)

    monkeypatch.setattr(wgcore.CellClasses, "__init__", counting_init)
    levels = (2, 4)
    run_eigen_study(small_config(levels=levels))
    assert builds == [8, 32]
    builds.clear()
    run_source_study(UNIT_SQUARE, 1, GAMMA, levels)
    assert builds == [8, 32]
    builds.clear()
    run_glb_study(UNIT_SQUARE, levels, 1, GlbConfig(alpha=0.01, stab_bound=2.0))
    assert builds == [8, 32]
    dof_map, result = harness._solve_level(UNIT_SQUARE, 4, 1, GAMMA, 1)
    builds.clear()
    export_eigenfunction_field(result, dof_map, 1, 9)
    assert builds == []


def test_cli_numerical_failures_exit_2(monkeypatch, tmp_path, capsys):
    def boom(*args):
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(harness._COMMANDS, "solve", boom)
    assert main(["solve", "--domain", "square", "--n", "2", "--k", "1",
                 "--gamma", "pow:0.1"]) == 2
    monkeypatch.undo()

    # the failure reaches stderr with the name of the stage that raised it
    monkeypatch.setattr(harness, "condense", boom)
    monkeypatch.setattr(harness.glb_mod, "solve_pair", boom)
    stab = ["--domain", "square", "--n", "2", "--k", "1", "--gamma", "pow:0.1"]
    for argv, stage in (
        (["solve"] + stab, "condense"),
        (["field"] + stab + ["--eig", "1", "--grid", "3", "--out", str(tmp_path / "f.csv")], "condense"),
        (["glb", "--domain", "square", "--k", "1", "--alpha", "0.01", "--stab-bound", "2.0",
          "--proj-bound", "0.5", "--levels", "2"], "solve"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert f"stage '{stage}'" in capsys.readouterr().err
    monkeypatch.undo()

    # a singular bordered matrix in the delta estimate fails stage estimate_delta
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(harness.glb_mod, "splu", singular)
    capsys.readouterr()
    assert main(["glb", "--domain", "square", "--k", "1", "--alpha", "0.01", "--stab-bound",
                 "2.0", "--proj-bound", "estimate", "--levels", "2"]) == 2
    err = capsys.readouterr().err
    assert "stage 'estimate_delta'" in err and "exactly singular" in err
    monkeypatch.undo()

    # a Lanczos run that stops short of convergence is a numerical failure
    monkeypatch.setattr(spla, "eigsh", partial(spla.eigsh, maxiter=1, ncv=5))
    capsys.readouterr()
    assert main(["solve", "--domain", "square", "--n", "8", "--k", "1", "--gamma", "pow:0.1"]) == 2
    err = capsys.readouterr().err
    assert "stage 'solve'" in err and "No convergence" in err


def test_cli_config_file(tmp_path, capsys):
    config = tmp_path / "study.conf"
    config.write_text(
        "# eigenvalue run\n"
        "domain = square\n"
        "n = 4\n"
        "k = 1\n"
        "gamma = pow:0.1\n"
        "eigs = 2\n"
    )
    assert main(["solve", "--config", str(config)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    # flags take precedence over the config file
    assert main(["solve", "--config", str(config), "--eigs", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1
    bad = tmp_path / "bad.conf"
    bad.write_text("domain square\n")
    with pytest.raises(ValueError):
        load_config_file(bad)
    assert main(["solve", "--config", str(bad)]) == 1
    # a key the subcommand has no option for is rejected, not dropped:
    # converge takes --eigs, not --eig
    for key in ("eig", "command", "config"):
        bad.write_text(f"{key} = 2\n")
        capsys.readouterr()
        assert main(["converge", "--domain", "square", "--k", "1", "--gamma", "pow:0.1",
                     "--levels", "2", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(key) in err


floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       eps=floats, fixed=floats, junk=st.text(max_size=12))
def test_parse_stabilizer_properties(alpha, eps, fixed, junk):
    stab = parse_stabilizer(None, repr(alpha))
    assert isinstance(stab, AlphaStabilizer) and stab.alpha == alpha
    for gamma, alpha_text in ((None, None), ("neglog", repr(alpha)), (junk, repr(alpha))):
        with pytest.raises(ValueError):
            parse_stabilizer(gamma, alpha_text)
    if 0.0 < eps < 1.0:
        assert parse_stabilizer(f"pow:{eps!r}", None).spec == PowerEps(eps)
    else:
        with pytest.raises(ValueError):
            parse_stabilizer(f"pow:{eps!r}", None)
    if 0.0 < fixed <= 1.0:
        assert parse_stabilizer(f"fixed:{fixed!r}", None).spec == fixed
    else:
        with pytest.raises(ValueError):
            parse_stabilizer(f"fixed:{fixed!r}", None)
    assert isinstance(parse_stabilizer("neglog", None).spec, NegInvLog)
    if junk != "neglog" and not junk.startswith(("pow:", "fixed:")):
        with pytest.raises(ValueError):
            parse_stabilizer(junk, None)


config_keys = st.from_regex(r"[a-z][a-z0-9_-]{0,8}", fullmatch=True)
config_values = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#"), max_size=12
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map(lambda kv: ("pair", kv)),
    st.sampled_from(["", "   ", "# comment", "  # key = value"]).map(lambda t: ("text", t)),
)


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(config_lines, max_size=12), comment=st.booleans())
def test_load_config_file_properties(tmp_path_factory, entries, comment):
    path = tmp_path_factory.mktemp("conf") / "study.conf"
    text, want = [], {}
    for kind, item in entries:
        if kind == "text":
            text.append(item)
            continue
        key, value = item
        text.append(f" {key} = {value}" + (" # trailing" if comment else ""))
        want[key.replace("-", "_")] = value.strip()
    path.write_text("\n".join(text) + "\n")
    assert load_config_file(path) == want
    path.write_text("\n".join(text + ["no equals sign"]) + "\n")
    with pytest.raises(ValueError, match=f":{len(text) + 1}:"):
        load_config_file(path)
