"""Benchmark of the wg-steklov eigen, source and certificate studies.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's study through the CLI entry `wgsteklov.harness.main`,
each call in a fresh process with one BLAS/OpenMP thread, as whole rounds
for about S seconds (at least one round), and checks every report with
checks.py.  Set-up is also timed in a few import-only processes.

With --trace 0 a round is one study, and the metrics are the end-to-end
ones: set-up time, study wall time and peak RSS, as medians.  With
--trace 1 a round is one plain and one traced study, and the metrics are
the per-layer self times and counters of the traced one (see spans.py)
plus the cost of tracing.  The inputs are fixed meshes, so --seed is
recorded but changes nothing.

The last line of standard output is the JSON result; the line before it
records the environment.  Both are also written to .bench_out/NAME.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    args: tuple
    levels: tuple
    k: int
    check: object
    spans: frozenset

    def argv(self, out):
        levels = ",".join(str(n) for n in self.levels)
        return [*self.args, "--k", str(self.k), "--levels", levels, "--format", "json", "--out", out]


COMMON_SPANS = {spans.ROOT, "mesh.build", "wgcore.kernels", "assembly.assemble", "harness.report"}

WORKLOADS = {
    "eigen-square": Workload(
        ("converge", "--domain", "square", "--gamma", "pow:0.1", "--eigs", "4", "--refs", "builtin:square"),
        (8, 16, 32, 64),
        2,
        checks.check_eigen,
        frozenset(COMMON_SPANS | {"eigen.condense", "eigen.solve"}),
    ),
    "source-square": Workload(
        ("source", "--domain", "square", "--gamma", "pow:0.1"),
        (8, 16, 32, 64),
        2,
        checks.check_source,
        frozenset(
            COMMON_SPANS
            | {
                "assembly.interpolate",
                "source.solve",
                "source.boundary_load",
                "source.v_norm",
                "source.discrete_v_norm",
                "source.x_norm",
                "source.projection",
            }
        ),
    ),
    "glb-square": Workload(
        (
            "glb", "--domain", "square", "--alpha", "0.01", "--stab-bound", "2.0",
            "--proj-bound", "estimate", "--refs", "builtin:square",
        ),
        (4, 8, 16),
        1,
        checks.check_glb,
        frozenset(COMMON_SPANS | {"eigen.solve_pair", "glb.estimate_delta"}),
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MiB"}
TRACE_UNITS = {"trace.untraced_study_s": "s", "trace.traced_study_s": "s", "trace.overhead_pct": "%"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run as defined."""


def spawn(workdir, mode, argv=()):
    """Run child.py once; return its record with `setup_s` added, or None
    when the process failed."""
    fd, record_path = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    env = {**os.environ, **THREADS}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), record_path, mode, *argv], env=env
    )
    try:
        status = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        status = None
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no process behind
            proc.kill()
            proc.wait()
    if status is None:
        print(f"bench: {mode} child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if status != 0:
        print(f"bench: {mode} child exited with {status}", file=sys.stderr)
        return None
    with open(record_path) as fh:
        record = json.load(fh)
    record["setup_s"] = record.pop("ready") - start
    return record


def run_study(workload, workdir, mode):
    """One operation: one CLI call plus the checks of its report.

    Returns (record, failures); record is None when the call failed.
    """
    report_path = os.path.join(workdir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    record = spawn(workdir, mode, workload.argv(report_path))
    if record is None:
        return None, ["child process failed"]
    if record["code"] != 0:
        return None, [f"wg-steklov exited with code {record['code']}"]
    with open(report_path) as fh:
        report = json.load(fh)
    return record, workload.check(report, workload.levels, workload.k)


def trace_totals(workload, record):
    """Summed spans of a traced record; raises when an expected span never
    fired, since its layer metrics would then read 0 without saying so."""
    totals = spans.summarize(record["spans"])
    missing = sorted(workload.spans - set(totals))
    if missing:
        raise BenchmarkError(f"expected spans never fired: {', '.join(missing)}")
    return totals


def environment(versions, args):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass  # no usable git; src_sha256 still identifies the code
    digest = hashlib.sha256()
    for path in sorted((SRC / "wgsteklov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        **versions,
        "threads": THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(args):
    workload = WORKLOADS[args.workload]
    if not (SRC / "wgsteklov" / "harness.py").is_file():
        raise BenchmarkError(f"no wgsteklov source tree under {SRC}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        setups, versions = [], None
        for _ in range(SETUP_PROBES):
            record = spawn(workdir, "import")
            if record is None:
                raise BenchmarkError("wgsteklov.harness could not be imported")
            setups.append(record["setup_s"])
            versions = record["versions"]

        modes = ("plain", "trace") if args.trace else ("plain",)
        rounds, attempted, failed, correct = [], 0, 0, True
        deadline = time.monotonic() + args.seconds
        while True:
            started = time.monotonic()
            records = {}
            for mode in modes:
                attempted += 1
                record, failures = run_study(workload, workdir, mode)
                if failures:
                    failed += 1
                    if record is not None:
                        correct = False  # the call succeeded but its report is wrong
                    print(f"bench: {args.workload} {mode}: " + "; ".join(failures), file=sys.stderr)
                else:
                    records[mode] = record
            if len(records) < len(modes):
                break
            rounds.append(records)
            # start another round only if it is expected to end in time
            now = time.monotonic()
            if now + (now - started) > deadline:
                break
        if not rounds:
            raise BenchmarkError(f"no {args.workload} round completed")

        setups += [r["plain"]["setup_s"] for r in rounds]
        if args.trace:
            per_round = [spans.layer_metrics(trace_totals(workload, r["trace"])) for r in rounds]
            values = {name: median([m[name] for m in per_round]) for name in spans.LAYER_METRICS}
            units = {name: unit for name, (_, _, unit) in spans.LAYER_METRICS.items()}
            plain = median([r["plain"]["study_s"] for r in rounds])
            traced = median([r["trace"]["study_s"] for r in rounds])
            values["trace.untraced_study_s"] = plain
            values["trace.traced_study_s"] = traced
            values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
            units.update(TRACE_UNITS)
        else:
            values = {
                "setup_s": median(setups),
                "study_s": median([r["plain"]["study_s"] for r in rounds]),
                "peak_rss_mb": median([r["plain"]["peak_rss_mb"] for r in rounds]),
            }
            units = END_TO_END_UNITS
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        }
        env = environment(versions, args)
        env["rounds"] = len(rounds)
        env["setup_samples_s"] = setups
        with open(OUT / f"{args.workload}.json", "w") as fh:
            json.dump({"environment": env, "result": result}, fh, indent=2)
        print(json.dumps({"environment": env}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
