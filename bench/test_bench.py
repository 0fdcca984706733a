"""Tests of the benchmark's checks and of its traced run, on tiny levels.

    PYTHONPATH=src python -m pytest bench -q
"""

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

LEVELS = (8, 16, 32, 64)
TINY = {"eigen-square": (2, 4), "source-square": (2, 4), "glb-square": (4, 8)}


def h(n):
    return math.sqrt(2.0) / n


def eigen_report(order=4.0, scale=1e-2):
    lams = [[ref - scale * h(n) ** order for ref in checks.SQUARE_REFERENCES] for n in LEVELS]
    return {"levels": list(LEVELS), "eigenvalues": lams}


def source_report(v_order=2.0, x_order=3.0):
    return {
        "levels": list(LEVELS),
        "v_error": [h(n) ** v_order for n in LEVELS],
        "x_error": [h(n) ** x_order for n in LEVELS],
        "projection_x": [checks.boundary_projection_defect(n, 2) for n in LEVELS],
    }


def glb_rows():
    return [
        {
            "n": n,
            "alpha": 0.01,
            "stab_bound": 2.0,
            "proj_bound": 0.13 / n,
            "proj_bound_source": "estimated",
            "lambda_h": 0.24 - 1.0 / n,
            "certified": True,
        }
        for n in (8, 16, 32)
    ]


def test_checks_accept_consistent_reports():
    assert checks.check_eigen(eigen_report(), LEVELS, 2) == []
    assert checks.check_source(source_report(), LEVELS, 2) == []
    assert checks.check_glb(glb_rows(), (8, 16, 32), 1) == []


def test_eigen_check_rejects_eigenvalue_above_reference():
    report = eigen_report()
    report["eigenvalues"][3][1] = checks.SQUARE_REFERENCES[1] + 1e-8
    assert any("exceeds reference" in f for f in checks.check_eigen(report, LEVELS, 2))


def test_eigen_check_rejects_halved_order():
    failures = checks.check_eigen(eigen_report(order=2.0), LEVELS, 2)
    assert any("order 2.000" in f for f in failures)


def test_eigen_check_rejects_decrease_and_wrong_levels():
    report = eigen_report()
    report["eigenvalues"][2][0] = report["eigenvalues"][1][0] - 1e-6
    assert any("decreases" in f for f in checks.check_eigen(report, LEVELS, 2))
    assert checks.check_eigen(eigen_report(), (8, 16, 32, 128), 2)


@pytest.mark.parametrize("key,message", [("v_error", "V-order"), ("x_error", "X-order")])
def test_source_check_rejects_halved_order(key, message):
    report = source_report()
    report[key] = [h(n) ** 1.0 for n in LEVELS]
    assert any(message in f for f in checks.check_source(report, LEVELS, 2))


def test_source_check_rejects_wrong_projection():
    report = source_report()
    report["projection_x"][2] *= 1.001
    assert any("projection_x" in f for f in checks.check_source(report, LEVELS, 2))


def test_boundary_projection_defect_closed_form():
    # one edge per side, k = 0: ||exp - mean||^2 on [0, 1], twice
    e = math.e
    expected = math.sqrt(2.0 * ((e * e - 1.0) / 2.0 - (e - 1.0) ** 2))
    assert checks.boundary_projection_defect(1, 0) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("certified", False, "not certified"),
        ("lambda_h", 0.25, "is not in"),
        ("stab_bound", 200.0, "criterion does not hold"),
        ("proj_bound", 0.013, "ratio"),
    ],
)
def test_glb_check_rejects_corrupted_row(field, value, message):
    rows = glb_rows()
    rows[1][field] = value
    assert any(message in f for f in checks.check_glb(rows, (8, 16, 32), 1))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_fires_every_expected_span(tmp_path, name):
    workload = dataclasses.replace(run.WORKLOADS[name], levels=TINY[name])
    record, _ = run.run_study(workload, str(tmp_path), "trace")
    assert record is not None
    totals = run.trace_totals(workload, record)
    root = record["spans"][0]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        root["end"] - root["start"], rel=1e-9
    )
    layer = spans.layer_metrics(totals)
    assert set(layer) == set(spans.LAYER_METRICS)
    # a span that stops firing, e.g. after a rename, fails loudly
    expected = sorted(workload.spans - {spans.ROOT})
    dropped = copy.deepcopy(record)
    dropped["spans"] = [s for s in dropped["spans"] if s["name"] != expected[0]]
    with pytest.raises(run.BenchmarkError, match=expected[0]):
        run.trace_totals(workload, dropped)


def test_install_rejects_renamed_target(monkeypatch):
    from wgsteklov import harness

    assemble = harness.assemble
    monkeypatch.delattr(harness, "condense")
    with pytest.raises(AttributeError):
        spans.install(spans.Tracer())
    assert harness.assemble is assemble


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_lists_the_declared_metrics(tmp_path, monkeypatch, capsys, trace):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = dataclasses.replace(run.WORKLOADS["glb-square"], levels=TINY["glb-square"])
    monkeypatch.setitem(run.WORKLOADS, "glb-square", workload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    argv = ["--workload", "glb-square", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
