"""Study orchestration and command-line front end.

Drives the full pipeline (mesh, assemble, condense, solve) over refinement
sequences, reports eigenvalue errors and observed convergence orders, runs
the companion source-problem studies, and exports eigenfunction samples.
All reports are deterministic: identical configurations produce byte-identical
output.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import glb as glb_mod
from .assembly import AlphaStabilizer, DofMap, GammaStabilizer, NegInvLog, PowerEps, assemble
from .eigen import NumericalError, _stage, condense, solve_condensed
from .mesh import DOMAINS, build_structured_mesh, locate_cell, mesh_stats, mesh_to_json
from .source import exponential_solution, interpolant, projection_errors, solve_source
from .source import v_norm_error, x_norm_error

# High-accuracy reference values for the first four eigenvalues on the unit
# square, used when a study is configured with refs="builtin:square".  They
# are themselves numerical, so lower-bound checks carry a 1e-9 slack.
SQUARE_REFERENCE_EIGENVALUES = (
    0.2400790854320629,
    1.492303134033900,
    1.492303134115401,
    2.082647053961881,
)

LOWER_BOUND_SLACK = 1e-9

# Report formats of the subcommands that write one.
FORMATS = {"converge": ("csv", "json", "markdown"), "source": ("csv", "json"), "glb": ("csv", "json")}


@dataclass
class StudyConfig:
    """Configuration of a convergence study."""

    domain: str
    k: int
    stabilizer: object
    levels: tuple
    n_eigs: int = 4
    refs: tuple = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        self.levels = check_levels(self.levels)
        if self.n_eigs < 1:
            raise ValueError(f"number of eigenvalues must be >= 1, got {self.n_eigs}")
        if self.fmt not in FORMATS["converge"]:
            raise ValueError(f"unknown output format {self.fmt!r}")
        if self.refs is not None:
            self.refs = tuple(float(r) for r in self.refs)


def observed_order(err_coarse, err_fine):
    """Order between two consecutive levels: log2(e(h) / e(h/2))."""
    return float(np.log2(err_coarse / err_fine))


def fitted_order(hs, errors):
    """Least-squares slope of log(error) against log(h) over the positive
    errors; None (JSON null) when fewer than two are positive."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return None
    slope = np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0]
    return float(slope)


class ConvergenceReport:
    """Eigenvalue study results: per-level values, errors, orders, flags.

    `orders[j][i]` compares level i-1 to level i (None on the first level or
    when either error is nonpositive); `lower_bound[j][i]` records a strictly
    positive error; `trend[j][i]` records nondecrease from the previous level.
    """

    def __init__(self, config, ns, hs, eigenvalues):
        self.config = config
        self.ns = list(ns)
        self.hs = list(hs)
        self.eigenvalues = [list(row) for row in eigenvalues]
        m = config.n_eigs
        refs = config.refs
        self.n_refs = 0 if refs is None else min(len(refs), m)
        self.errors = None
        self.orders = None
        self.lower_bound = None
        if refs is not None:
            self.errors = [
                [refs[j] - lams[j] for lams in self.eigenvalues] for j in range(self.n_refs)
            ]
            self.lower_bound = [[e > 0.0 for e in row] for row in self.errors]
            self.orders = []
            for row in self.errors:
                orow = [None]
                for prev, cur in zip(row, row[1:]):
                    orow.append(observed_order(prev, cur) if prev > 0 and cur > 0 else None)
                self.orders.append(orow)
        self.trend = []
        for j in range(m):
            seq = [lams[j] for lams in self.eigenvalues]
            self.trend.append([None] + [b >= a for a, b in zip(seq, seq[1:])])

    def trend_nondecreasing(self, j):
        """True when the j-th eigenvalue never decreases across the levels."""
        return all(flag for flag in self.trend[j][1:])

    def render(self, fmt=None):
        fmt = fmt or self.config.fmt
        if fmt == "csv":
            return self._render_csv()
        if fmt == "json":
            return self._render_json()
        if fmt == "markdown":
            return self._render_markdown()
        raise ValueError(f"unknown output format {fmt!r}")

    def _render_csv(self):
        m = self.config.n_eigs
        multi = len(self.ns) > 1  # order columns need at least two levels
        cols = ["n", "h"]
        cols += [f"lambda_{j + 1}" for j in range(m)]
        for j in range(self.n_refs):
            cols += [f"error_{j + 1}", f"lower_{j + 1}"]
            if multi:
                cols.append(f"order_{j + 1}")
        if multi:
            cols += [f"trend_{j + 1}" for j in range(m)]
        rows = []
        for i, n in enumerate(self.ns):
            row = [str(n), _fmt(self.hs[i])]
            row += [_fmt(self.eigenvalues[i][j]) for j in range(m)]
            for j in range(self.n_refs):
                row += [
                    _fmt(self.errors[j][i]),
                    "1" if self.lower_bound[j][i] else "0",
                ]
                if multi:
                    row.append(_opt(self.orders[j][i]))
            if multi:
                for j in range(m):
                    flag = self.trend[j][i]
                    row.append("" if flag is None else ("1" if flag else "0"))
            rows.append(row)
        return _csv(cols, rows)

    def _render_json(self):
        payload = {
            "domain": self.config.domain,
            "k": self.config.k,
            "stabilizer": describe_stabilizer(self.config.stabilizer),
            "levels": self.ns,
            "h": self.hs,
            "eigenvalues": self.eigenvalues,
            "references": None if self.config.refs is None else list(self.config.refs),
            "errors": self.errors,
            "orders": self.orders,
            "lower_bound": self.lower_bound,
            "trend": self.trend,
        }
        return json.dumps(payload, indent=2) + "\n"

    def _render_markdown(self):
        m = self.config.n_eigs
        header = ["quantity"] + [f"n={n}" for n in self.ns] + ["trend"]
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "---|" * len(header),
        ]
        for j in range(m):
            vals = [f"{self.eigenvalues[i][j]:.10e}" for i in range(len(self.ns))]
            trend = "nondecreasing" if self.trend_nondecreasing(j) else "not monotone"
            lines.append("| " + " | ".join([f"lambda_{j + 1}"] + vals + [trend]) + " |")
            if self.errors is not None and j < self.n_refs:
                errs = [f"{self.errors[j][i]:.4e}" for i in range(len(self.ns))]
                lines.append("| " + " | ".join([f"error_{j + 1}"] + errs + [""]) + " |")
                orders = [
                    "" if o is None else f"{o:.4f}" for o in self.orders[j]
                ]
                lines.append("| " + " | ".join([f"order_{j + 1}"] + orders + [""]) + " |")
        return "\n".join(lines) + "\n"


def describe_stabilizer(stabilizer):
    if isinstance(stabilizer, AlphaStabilizer):
        return f"alpha:{stabilizer.alpha:g}"
    spec = stabilizer.spec
    if isinstance(spec, PowerEps):
        return f"pow:{spec.eps:g}"
    if isinstance(spec, NegInvLog):
        return "neglog"
    return f"fixed:{float(spec):g}"


def _fmt(x):
    return f"{x:.16e}"


def _opt(x):
    return "" if x is None else _fmt(x)


def _csv(header, rows):
    """CSV text from a header and rows of already formatted cells."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def _solve_level(domain, n, k, stabilizer, m):
    """Mesh, assemble, condense and solve one level for m eigenpairs.

    Returns (DofMap, EigenResult); a NumericalError names the failed stage.
    """
    dof_map = DofMap(build_structured_mesh(domain, n), k)
    pencil = _stage("condense", condense, assemble(dof_map, stabilizer))
    return dof_map, _stage("solve", solve_condensed, pencil, m)


def run_eigen_study(config):
    """Run the eigenvalue convergence study described by `config`."""
    ns, hs, eigenvalues = [], [], []
    for n in config.levels:
        dof_map, result = _solve_level(config.domain, n, config.k, config.stabilizer, config.n_eigs)
        ns.append(n)
        hs.append(dof_map.mesh.h_max)
        eigenvalues.append([float(v) for v in result.values])
    return ConvergenceReport(config, ns, hs, eigenvalues)


class SourceReport:
    """Source-problem study results: per-level V and X errors and orders."""

    def __init__(self, ns, hs, v_errors, x_errors, proj_v, proj_x, label):
        self.ns = ns
        self.hs = hs
        self.v_errors = v_errors
        self.x_errors = x_errors
        self.proj_v = proj_v
        self.proj_x = proj_x
        self.label = label
        self.v_orders = [None] + [
            observed_order(a, b) for a, b in zip(v_errors, v_errors[1:])
        ]
        self.x_orders = [None] + [
            observed_order(a, b) for a, b in zip(x_errors, x_errors[1:])
        ]
        self.v_fitted = fitted_order(hs, v_errors)
        self.x_fitted = fitted_order(hs, x_errors)

    def render(self, fmt="csv"):
        if fmt == "csv":
            cols = ["n", "h", "v_error", "v_order", "x_error", "x_order", "proj_v", "proj_x"]
            data = zip(self.hs, self.v_errors, self.v_orders, self.x_errors, self.x_orders,
                       self.proj_v, self.proj_x)
            return _csv(cols, [[str(n)] + [_opt(v) for v in row]
                               for n, row in zip(self.ns, data)])
        if fmt == "json":
            payload = {
                "solution": self.label,
                "levels": self.ns,
                "h": self.hs,
                "v_error": self.v_errors,
                "v_order": self.v_orders,
                "v_fitted_order": self.v_fitted,
                "x_error": self.x_errors,
                "x_order": self.x_orders,
                "x_fitted_order": self.x_fitted,
                "projection_v": self.proj_v,
                "projection_x": self.proj_x,
            }
            return json.dumps(payload, indent=2) + "\n"
        raise ValueError(f"unknown output format {fmt!r}")


def run_source_study(domain, k, stabilizer, levels, solution=None):
    """Solve the boundary-flux problem across levels and report error orders."""
    solution = solution or exponential_solution()
    ns, hs, v_errs, x_errs, pvs, pxs = [], [], [], [], [], []
    for n in levels:
        dof_map = DofMap(build_structured_mesh(domain, n), k)
        u_h = _stage("solve", solve_source, dof_map, stabilizer, solution.flux)
        q = interpolant(solution, dof_map)
        v_errs.append(v_norm_error(u_h, q, dof_map))
        x_errs.append(x_norm_error(u_h, solution, dof_map))
        pv, px = projection_errors(solution, q, dof_map)
        pvs.append(pv)
        pxs.append(px)
        ns.append(n)
        hs.append(dof_map.mesh.h_max)
    return SourceReport(ns, hs, v_errs, x_errs, pvs, pxs, solution.label)


def export_eigenfunction_field(result, dof_map, j, grid_resolution):
    """CSV sample of the j-th (1-based) eigenfunction's interior component,
    for a result solved on `dof_map`.

    Samples u0 cellwise on a uniform grid over the bounding unit square,
    omitting points outside the domain.  Samples within a relative 1e-9 of
    max|u| count as tied, and the sign is normalized so the first of them in
    grid order is positive: the extremes of an antisymmetric mode agree to
    rounding, so the largest sample alone would leave the sign to chance.
    """
    if not 1 <= j <= result.vectors.shape[1]:
        raise ValueError(f"eigenfunction index {j} out of range")
    mesh, classes = dof_map.mesh, dof_map.classes
    coords = np.linspace(0.0, 1.0, grid_resolution)
    xs, ys = (c.ravel() for c in np.meshgrid(coords, coords))
    cells = locate_cell(mesh, xs, ys)
    inside = cells >= 0
    xs, ys, cells = xs[inside], ys[inside], cells[inside]
    u0 = dof_map.split(result.vectors[:, j - 1])[0]
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    values = np.empty(len(cells))
    for c, cell in enumerate(classes.cells):
        # members are translates of the representative: shift the points onto it
        at = classes.class_of[cells] == c
        pts = np.column_stack([xs[at], ys[at]]) + (cell.basis.centroid - centroids[cells[at]])
        values[at] = np.einsum("pi,pi->p", cell.basis.eval(pts), u0[cells[at]])
    if len(values):
        size = np.abs(values)
        if values[np.argmax(size >= (1.0 - 1e-9) * size.max())] < 0:
            values = -values
    return _csv(["x", "y", "u"], [[_fmt(x), _fmt(y), _fmt(v)] for x, y, v in zip(xs, ys, values)])


# ---------------------------------------------------------------------------
# command-line interface


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def parse_stabilizer(gamma, alpha):
    """Stabilizer from CLI strings: gamma 'pow:EPS'|'neglog'|'fixed:V', or alpha."""
    if (gamma is None) == (alpha is None):
        raise ValueError("exactly one of --gamma and --alpha is required")
    if alpha is not None:
        return AlphaStabilizer(float(alpha))
    if gamma == "neglog":
        return GammaStabilizer(NegInvLog())
    if gamma.startswith("pow:"):
        return GammaStabilizer(PowerEps(float(gamma[4:])))
    if gamma.startswith("fixed:"):
        return GammaStabilizer(float(gamma[6:]))
    raise ValueError(f"unknown gamma spec {gamma!r} (expected pow:EPS, neglog, or fixed:V)")


def parse_refs(text):
    if text is None or text == "none":
        return None
    if text == "builtin:square":
        return SQUARE_REFERENCE_EIGENVALUES
    return tuple(float(v) for v in text.split(","))


def check_levels(levels):
    """Mesh levels as a tuple of ints; raises ValueError unless they strictly increase."""
    levels = tuple(int(n) for n in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels}")
    return levels


def parse_levels(text):
    return check_levels(text.split(","))


def load_config_file(path):
    """Key-value configuration file: one `key = value` per line, # comments."""
    data = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            data[key.strip().replace("-", "_")] = value.strip()
    return data


def _merge_config(args):
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            if key in ("command", "config") or not hasattr(args, key):
                raise ValueError(f"{args.config}: unknown key {key!r} for {args.command}")
            if getattr(args, key) is None:
                setattr(args, key, value)
    # a config file bypasses the parser's choices, so check the merged value
    fmt = getattr(args, "format", None)
    if args.command in FORMATS and fmt is not None and fmt not in FORMATS[args.command]:
        raise ValueError(f"unknown output format {fmt!r} for {args.command}")
    return args


def _build_parser():
    parser = _Parser(prog="wg-steklov", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *names):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key-value configuration file")
        if "domain" in names:
            p.add_argument("--domain", choices=DOMAINS)
        if "k" in names:
            p.add_argument("--k")
        if "stab" in names:
            p.add_argument("--gamma", help="pow:EPS | neglog | fixed:VALUE")
            p.add_argument("--alpha", help="volume-weighted stabilizer coefficient")
        if "levels" in names:
            p.add_argument("--levels", help="comma-separated mesh levels, e.g. 8,16,32,64")
        if "out" in names:
            p.add_argument("--out", help="output path (default: stdout)")
            p.add_argument("--format", choices=FORMATS[name])
        return p

    p = command("mesh", "build a mesh and print its statistics", "domain")
    p.add_argument("--n")
    p.add_argument("--out", help="write a JSON mesh dump to this path")

    p = command("solve", "solve one eigenvalue problem", "domain", "k", "stab")
    p.add_argument("--n")
    p.add_argument("--eigs")

    p = command("converge", "eigenvalue convergence study", "domain", "k", "stab", "levels", "out")
    p.add_argument("--eigs")
    p.add_argument("--refs", help="builtin:square | none | comma-separated values")

    p = command("source", "boundary-flux source-problem study", "domain", "k", "stab", "levels", "out")
    p.add_argument("--direction", help="a,b with a^2+b^2=1 for u = exp(a x + b y)")

    p = command("glb", "guaranteed-lower-bound certificate study", "domain", "k", "levels", "out")
    p.add_argument("--alpha")
    p.add_argument("--index")
    p.add_argument("--stab-bound", dest="stab_bound")
    p.add_argument("--proj-bound", dest="proj_bound", help="value, or 'estimate'")
    p.add_argument("--probe-degree", dest="probe_degree")
    p.add_argument("--refs", help="builtin:square | none | comma-separated values")

    p = command("field", "export an eigenfunction sample grid", "domain", "k", "stab")
    p.add_argument("--n")
    p.add_argument("--eig")
    p.add_argument("--grid")
    p.add_argument("--out")
    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mesh(args):
    _require(args, "domain", "n")
    mesh = build_structured_mesh(args.domain, int(args.n))
    if args.out:
        _emit(mesh_to_json(mesh) + "\n", args.out)
    for key, value in mesh_stats(mesh).items():
        print(f"{key} = {value}")
    return 0


def _cmd_solve(args):
    _require(args, "domain", "n", "k")
    stab = parse_stabilizer(args.gamma, args.alpha)
    _, result = _solve_level(args.domain, int(args.n), int(args.k), stab, int(args.eigs or 4))
    for value in result.values:
        print(_fmt(value))
    return 0


def _cmd_converge(args):
    _require(args, "domain", "k", "levels")
    config = StudyConfig(
        domain=args.domain,
        k=int(args.k),
        stabilizer=parse_stabilizer(args.gamma, args.alpha),
        levels=parse_levels(args.levels),
        n_eigs=int(args.eigs or 4),
        refs=parse_refs(args.refs),
        fmt=args.format or "csv",
    )
    report = run_eigen_study(config)
    _emit(report.render(), args.out)
    return 0


def _cmd_source(args):
    _require(args, "domain", "k", "levels")
    stab = parse_stabilizer(args.gamma, args.alpha)
    if args.direction:
        try:
            a, b = (float(v) for v in args.direction.split(","))
        except ValueError:
            raise ValueError(f"--direction must be two numbers a,b, got {args.direction!r}") from None
        solution = exponential_solution(a, b)
    else:
        solution = exponential_solution()
    report = run_source_study(args.domain, int(args.k), stab, parse_levels(args.levels), solution)
    _emit(report.render(args.format or "csv"), args.out)
    return 0


def _cmd_glb(args):
    _require(args, "domain", "k", "levels", "alpha", "stab_bound")
    proj = args.proj_bound
    proj_bound = None if proj in (None, "estimate") else float(proj)
    config = glb_mod.GlbConfig(
        alpha=float(args.alpha),
        stab_bound=float(args.stab_bound),
        proj_bound=proj_bound,
        index=int(args.index or 1),
    )
    rows = glb_mod.run_glb_study(
        args.domain,
        parse_levels(args.levels),
        int(args.k),
        config,
        refs=parse_refs(args.refs),
        probe_degree=int(args.probe_degree) if args.probe_degree else None,
    )
    if (args.format or "csv") == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = _csv(list(rows[0]), [["" if v is None else str(v) for v in row.values()]
                                    for row in rows])
    _emit(text, args.out)
    return 0


def _cmd_field(args):
    _require(args, "domain", "n", "k", "eig", "grid", "out")
    stab = parse_stabilizer(args.gamma, args.alpha)
    grid = int(args.grid)
    if grid < 2:
        raise ValueError(f"--grid must be at least 2, got {grid}")
    dof_map, result = _solve_level(args.domain, int(args.n), int(args.k), stab, int(args.eig))
    text = export_eigenfunction_field(result, dof_map, int(args.eig), grid)
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "mesh": _cmd_mesh,
    "solve": _cmd_solve,
    "converge": _cmd_converge,
    "source": _cmd_source,
    "glb": _cmd_glb,
    "field": _cmd_field,
}


def main(argv=None):
    """CLI entry point; returns 0 on success, 1 on bad usage, 2 on numerical failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"wg-steklov: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"wg-steklov: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"wg-steklov: numerical failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
