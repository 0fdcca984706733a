"""Correctness checks on the JSON reports of the benchmark's studies.

Every check compares against references or properties computed here, apart
from the program, never against a stored copy of its output.  Each returns
a list of failure messages; an empty list means the report passed.
"""

import math

import numpy as np
from numpy.polynomial import legendre

# High-accuracy Steklov eigenvalues of -lap(u) + u = 0 on the unit square:
# the published reference values the reproduction's acceptance suite is
# built on.  They are numerical themselves, hence the 1e-9 slack that
# acceptance criterion 03 allows on lower-bound checks.
SQUARE_REFERENCES = (
    0.2400790854320629,
    1.492303134033900,
    1.492303134115401,
    2.082647053961881,
)
SLACK = 1e-9

# Observed orders are judged only where both errors exceed this, since
# smaller errors sit at the level of the references' own accuracy.
ORDER_FLOOR = 1e-9
# Half-width of the window around 2k, the width acceptance criterion 02
# allows around its 3.9-4.1 range.
ORDER_TOLERANCE = 0.25

# Floors of acceptance criterion 08 on the fitted source-study orders.
V_ORDER_MARGIN = 0.25
X_ORDER_MARGIN = 0.25

PROJECTION_RTOL = 1e-6
DELTA_RATIO = (0.4, 0.6)


def check_levels(found, levels):
    if list(found) != list(levels):
        return [f"report covers levels {list(found)}, expected {list(levels)}"]
    return []


def check_eigen(report, levels, k):
    """Lower bounds, nondecrease across levels and observed order 2k."""
    failures = check_levels(report["levels"], levels)
    lams = np.array(report["eigenvalues"], dtype=float)
    if lams.shape != (len(levels), len(SQUARE_REFERENCES)) or not np.all(np.isfinite(lams)):
        return failures + [f"eigenvalue table has shape {lams.shape} or non-finite entries"]
    for j, ref in enumerate(SQUARE_REFERENCES):
        for n, lam in zip(levels, lams[:, j]):
            if lam > ref + SLACK:
                failures.append(f"lambda_{j + 1} = {lam!r} at n={n} exceeds reference {ref!r}")
        for i in range(1, len(levels)):
            if lams[i, j] < lams[i - 1, j]:
                failures.append(f"lambda_{j + 1} decreases from n={levels[i - 1]} to n={levels[i]}")
            e0, e1 = ref - lams[i - 1, j], ref - lams[i, j]
            if e0 > ORDER_FLOOR and e1 > ORDER_FLOOR:
                order = math.log(e0 / e1) / math.log(levels[i] / levels[i - 1])
                if abs(order - 2 * k) > ORDER_TOLERANCE:
                    failures.append(
                        f"lambda_{j + 1} order {order:.3f} from n={levels[i - 1]} to "
                        f"n={levels[i]} is not within {ORDER_TOLERANCE} of {2 * k}"
                    )
    return failures


def fitted_order(levels, errors):
    """Least-squares slope of log(error) against log(h), with h = sqrt(2)/n."""
    h = math.sqrt(2.0) / np.asarray(levels, dtype=float)
    return float(np.polyfit(np.log(h), np.log(np.asarray(errors, dtype=float)), 1)[0])


def boundary_projection_defect(n, k, points=20):
    """|| (I - Q_b) exp(x) || over the boundary of the unit square, with
    Q_b the L2 projection onto P_k on each of the n edges per side.

    On the sides x = 0 and x = 1 the function is constant, so only the
    sides y = 0 and y = 1 contribute; each edge integral uses Gauss-Legendre
    quadrature and Legendre polynomials, which are orthogonal there.
    """
    t, w = legendre.leggauss(points)
    V = legendre.legvander(t, k)
    scale = (2 * np.arange(k + 1) + 1) / 2.0
    total = 0.0
    for i in range(n):
        x = (i + 0.5 + 0.5 * t) / n
        f = np.exp(x)
        residual = f - V @ (scale * ((V * w[:, None]).T @ f))
        total += (w @ residual**2) / (2 * n)
    return math.sqrt(2.0 * total)


def check_source(report, levels, k):
    """Fitted V- and X-orders above their floors; projection_x independent."""
    failures = check_levels(report["levels"], levels)
    for key in ("v_error", "x_error", "projection_x"):
        values = np.asarray(report[key], dtype=float)
        if values.shape != (len(levels),) or not np.all(np.isfinite(values) & (values > 0)):
            return failures + [f"{key} is not a positive finite value per level"]
    v_order = fitted_order(levels, report["v_error"])
    x_order = fitted_order(levels, report["x_error"])
    if v_order < k - V_ORDER_MARGIN:
        failures.append(f"fitted V-order {v_order:.3f} below {k - V_ORDER_MARGIN}")
    if x_order < k + X_ORDER_MARGIN:
        failures.append(f"fitted X-order {x_order:.3f} below {k + X_ORDER_MARGIN}")
    for n, value in zip(levels, report["projection_x"]):
        expected = boundary_projection_defect(n, k)
        if abs(value - expected) > PROJECTION_RTOL * expected:
            failures.append(f"projection_x {value!r} at n={n} differs from {expected!r}")
    return failures


def check_glb(rows, levels, k):
    """Every row certified by the criterion's arithmetic and below the
    reference; estimated defect constants positive and halving with h."""
    failures = check_levels([row["n"] for row in rows], levels)
    ref = SQUARE_REFERENCES[0]
    for row in rows:
        n, lam, delta = row["n"], row["lambda_h"], row["proj_bound"]
        budget = row["alpha"] * row["stab_bound"]
        if not row["certified"]:
            failures.append(f"n={n} is not certified")
        elif min(delta * ref, delta * lam) + budget > 1.0:
            failures.append(f"n={n} is certified, but the criterion does not hold")
        if not 0.0 < lam <= ref + SLACK:
            failures.append(f"lambda_h = {lam!r} at n={n} is not in (0, {ref!r}]")
        if row["proj_bound_source"] != "estimated" or not delta > 0.0:
            failures.append(f"proj_bound {delta!r} at n={n} is not a positive estimate")
    deltas = [row["proj_bound"] for row in rows]
    for n, d0, d1 in zip(levels[1:], deltas, deltas[1:]):
        if d0 > 0.0 and not DELTA_RATIO[0] <= d1 / d0 <= DELTA_RATIO[1]:
            failures.append(f"proj_bound ratio {d1 / d0:.3f} at n={n} is outside {DELTA_RATIO}")
    return failures
