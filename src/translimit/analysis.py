"""Norms, corrector expansion, uniform-bound checks, and eps-sweep studies.

The discrete L^p norm on the slab-velocity phase space is the midpoint rule
in x tensored with the quadrature weights in mu.  Boundary norms carry the
|mu| weight.  The collision energy norm is evaluated exactly as
(eps*gamma*u + (sigma/eps)(I - K)u, u) in the weighted inner product, and
the two equivalent split expressions are exposed for ratio tests.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .diffusion import solve_diffusion
from .errors import ConvergenceError, ValidationError
from .problem import Grid1D, cells_for_eps, coefficient_views
from .transport import directional_derivative, outflow_trace, solve_transport
from .velocity_space import (
    _decomposition,
    apply_K,
    certify_assumptions,
    pinv_apply,
)

__all__ = [
    "velocity_average",
    "split_mean_fluctuation",
    "space_velocity_norm",
    "spatial_norm",
    "NormSet",
    "norms",
    "first_order_corrector",
    "expansion_remainder",
    "FitResult",
    "fit_loglog",
    "AprioriTable",
    "apriori_check",
    "ConvergenceReport",
    "convergence_study",
]


def velocity_average(field, quad):
    """Weighted mean over the velocity axis (last axis)."""
    field = np.asarray(field, dtype=float)
    if field.shape[-1] != quad.n:
        raise ValidationError(
            f"field has last dimension {field.shape[-1]}, expected {quad.n}"
        )
    return field @ quad.weights


def split_mean_fluctuation(field, quad):
    """Orthogonal splitting u = ubar + (u - ubar)."""
    mean = velocity_average(field, quad)
    return mean, field - mean[..., None]


def space_velocity_norm(field, grid, quad, p=2):
    """L^p norm over the slab-velocity phase space."""
    field = np.asarray(field, dtype=float)
    if p == np.inf:
        return float(np.max(np.abs(field)))
    p = float(p)
    return float((grid.h * np.sum(np.abs(field) ** p @ quad.weights)) ** (1.0 / p))


def spatial_norm(values, grid, p=2):
    """L^p norm of a velocity-independent field given at cell centers."""
    values = np.asarray(values, dtype=float)
    if p == np.inf:
        return float(np.max(np.abs(values)))
    p = float(p)
    return float((grid.h * np.sum(np.abs(values) ** p)) ** (1.0 / p))


def inflow_data_norm(problem, eps, quad, p=2):
    """|mu|-weighted boundary norm of the scaled inflow data."""
    views = coefficient_views(problem, eps)
    mu = quad.nodes
    w = quad.weights
    pos = mu > 0.0
    gl = views.g_left(mu[pos])
    gr = views.g_right(mu[~pos])
    total = np.sum(w[pos] * mu[pos] * np.abs(gl) ** p) + np.sum(
        w[~pos] * (-mu[~pos]) * np.abs(gr) ** p
    )
    return float(total ** (1.0 / p))


@dataclass(frozen=True)
class NormSet:
    """Bundle of norms of one space-velocity field.

    energy is the collision energy norm induced by
    eps*gamma*I + (sigma/eps)(I - K); energy_dual is the norm of its
    inverse.  The proxy expressions are the equivalent split forms
    (1/eps)|u - ubar|^2 + eps|ubar|^2 and
    eps|u - ubar|^2 + (1/eps)|ubar|^2, exposed for ratio tests.
    """

    l2: float
    lp: dict
    bdry_plus: float | None
    energy: float
    energy_sq: float
    energy_dual_sq: float
    energy_proxy_sq: float
    energy_dual_proxy_sq: float

    def as_dict(self):
        return {
            "l2": self.l2,
            "lp": {str(k): v for k, v in self.lp.items()},
            "bdry_plus": self.bdry_plus,
            "energy": self.energy,
            "energy_sq": self.energy_sq,
            "energy_dual_sq": self.energy_dual_sq,
            "energy_proxy_sq": self.energy_proxy_sq,
            "energy_dual_proxy_sq": self.energy_dual_proxy_sq,
        }


def norms(field, eps, sigma_cells, gamma_cells, op, grid, ps=()):
    """Norm bundle of a field (or a TransportSolution, adding its trace norm).

    sigma_cells and gamma_cells are the unscaled coefficient values at the
    cell centers; the eps scaling is applied internally.
    """
    bdry = None
    if hasattr(field, "u") and hasattr(field, "edges"):
        bdry = outflow_trace(field).norm(2)
        field = field.u
    field = np.asarray(field, dtype=float)
    quad = op.quadrature
    w = quad.weights
    h = grid.h
    sigma_cells = np.asarray(sigma_cells, dtype=float)
    gamma_cells = np.asarray(gamma_cells, dtype=float)

    mean, fluct = split_mean_fluctuation(field, quad)
    mean_sq = float(h * np.sum(mean**2))
    fluct_sq = float(h * np.sum(fluct**2 @ w))

    resid = field - apply_K(op, field)
    energy_sq = float(
        h
        * np.sum(
            eps * gamma_cells * (field**2 @ w)
            + (sigma_cells / eps) * ((resid * field) @ w)
        )
    )
    energy_sq = max(energy_sq, 0.0)

    # the collision operator is diagonal per cell in the operator eigenbasis,
    # so its inverse norm is an explicit weighted sum of squared coefficients
    certify_assumptions(op)
    s, lam, q, _ = _decomposition(op)
    coeff = (field * s[None, :]) @ q
    denom = (eps * gamma_cells)[:, None] + np.outer(sigma_cells / eps, lam)
    dual_sq = float(h * np.sum(coeff**2 / denom))

    lp = {p: space_velocity_norm(field, grid, quad, p) for p in ps}
    return NormSet(
        l2=space_velocity_norm(field, grid, quad, 2),
        lp=lp,
        bdry_plus=bdry,
        energy=math.sqrt(energy_sq),
        energy_sq=energy_sq,
        energy_dual_sq=dual_sq,
        energy_proxy_sq=fluct_sq / eps + eps * mean_sq,
        energy_dual_proxy_sq=eps * fluct_sq + mean_sq / eps,
    )


def first_order_corrector(diffusion, sigma_cells, op):
    """First-order angular corrector -(1/sigma) (I-K)^+ (mu) * dubar/dx.

    Uses the flux-recovered cell gradients of the diffusion solution.  The
    component function mu has zero mean, so the pseudoinverse always applies;
    the result has zero velocity average cell by cell.
    """
    quad = op.quadrature
    phi = pinv_apply(op, quad.coords[:, 0])
    sigma_cells = np.asarray(sigma_cells, dtype=float)
    return -(diffusion.grad / sigma_cells)[:, None] * phi[None, :]


def expansion_remainder(u_eps, u0_centers, u1, eps):
    """Remainder u_eps - ubar_0 - eps u_1 of the two-term expansion."""
    u_eps = np.asarray(u_eps, dtype=float)
    u0 = np.asarray(u0_centers, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if u_eps.shape != u1.shape or u0.shape != u_eps.shape[:-1]:
        raise ValidationError(
            f"shape mismatch: u_eps {u_eps.shape}, u0 {u0.shape}, u1 {u1.shape}"
        )
    return u_eps - u0[:, None] - eps * u1


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float


def fit_loglog(eps, values):
    """Least-squares slope of log(values) against log(eps), with its
    standard error.  Exact power data is recovered to roundoff."""
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if eps.size != values.size or eps.size < 2:
        raise ValidationError("need at least two matching points to fit a slope")
    if np.any(values <= 0.0) or np.any(eps <= 0.0):
        raise ValidationError("slope fit requires positive eps and values")
    x = np.log(eps)
    y = np.log(values)
    xm = x - x.mean()
    sxx = float(np.sum(xm**2))
    slope = float(np.sum(xm * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(eps.size - 2, 1)
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return FitResult(slope=slope, intercept=intercept, stderr=stderr)


@dataclass(frozen=True)
class AprioriTable:
    """Per-eps uniform-bound diagnostics.

    columns maps quantity names to arrays over the sweep:
      trace_over_sqrt_eps, fluct_over_eps, mean_norm, deriv_norm,
      energy_ratio (solution energy identity lhs over data rhs), max_abs.
    flagged lists the quantities that grew by more than 2x relative to the
    largest-eps entry.
    """

    eps: np.ndarray
    columns: dict
    flagged: tuple

    def rows(self):
        names = list(self.columns)
        for i, e in enumerate(self.eps):
            yield {"eps": float(e), **{k: float(self.columns[k][i]) for k in names}}


def apriori_check(eps_list, solutions, problem):
    """Boundedness diagnostics for a family of transport solutions.

    The first four columns must stay bounded as eps decreases; energy_ratio
    compares the solution-side energy identity with the data side it is
    bounded by.  Growth beyond 2x is flagged, never raised.
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 3:
        raise ValidationError("apriori_check needs at least 3 eps values")
    cols = {
        "trace_over_sqrt_eps": [],
        "fluct_over_eps": [],
        "mean_norm": [],
        "deriv_norm": [],
        "energy_ratio": [],
        "max_abs": [],
    }
    for eps, sol in zip(eps_arr, solutions):
        grid, quad = sol.grid, sol.quad
        views = coefficient_views(problem, eps)
        xc = grid.centers
        mean, fluct = split_mean_fluctuation(sol.u, quad)
        trace = outflow_trace(sol).norm(2)
        fluct_norm = space_velocity_norm(fluct, grid, quad)
        mean_norm = spatial_norm(mean, grid)
        deriv_norm = space_velocity_norm(directional_derivative(sol), grid, quad)
        cols["trace_over_sqrt_eps"].append(trace / math.sqrt(eps))
        cols["fluct_over_eps"].append(fluct_norm / eps)
        cols["mean_norm"].append(mean_norm)
        cols["deriv_norm"].append(deriv_norm)
        lhs = trace**2 + fluct_norm**2 / eps + eps * mean_norm**2
        f_vals = views.f(xc)
        fbar_sq = grid.h * float(np.sum(f_vals**2))  # isotropic source: f = fbar
        g_norm = inflow_data_norm(problem, eps, quad)
        rhs = g_norm**2 + fbar_sq / eps
        cols["energy_ratio"].append(lhs / max(rhs, 1e-300))
        cols["max_abs"].append(float(np.max(np.abs(sol.u))))
    columns = {k: np.asarray(v) for k, v in cols.items()}
    flagged = tuple(
        name for name, vals in columns.items() if np.max(vals) > 2.0 * vals[0]
    )
    return AprioriTable(eps=eps_arr, columns=columns, flagged=flagged)


_REPORT_COLUMNS = ("err_total", "err_fluct", "bdry", "deriv", "remainder")


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors, fitted rates and protocol record of an eps sweep.

    columns holds one array per measured quantity (err_total, err_fluct,
    bdry, deriv, remainder, and err_l{p} for each requested p); slopes holds
    a FitResult per quantity.  lp_reference_rate records the interpolation
    exponent 2/p next to each measured L^p slope.  rate_asserted is False
    when the diffusivity is discontinuous and only plain convergence (no
    rate) is claimed.
    """

    eps: np.ndarray
    columns: dict
    slopes: dict
    n_cells: tuple
    iterations: tuple
    lp_reference_rate: dict
    rate_asserted: bool
    notes: tuple
    protocol: dict

    def column_names(self):
        return list(self.columns)

    def to_csv(self, path):
        names = self.column_names()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("eps," + ",".join(names) + "\n")
            for i, e in enumerate(self.eps):
                row = [f"{e:.17g}"] + [f"{self.columns[n][i]:.17g}" for n in names]
                fh.write(",".join(row) + "\n")

    def slopes_payload(self):
        payload = {
            "slopes": {
                name: {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "stderr": fit.stderr,
                }
                for name, fit in self.slopes.items()
            },
            "lp_reference_rate": {str(k): v for k, v in self.lp_reference_rate.items()},
            "rate_asserted": self.rate_asserted,
            "notes": list(self.notes),
            "protocol": self.protocol,
            "eps": [float(e) for e in self.eps],
            "n_cells": list(self.n_cells),
            "iterations": list(self.iterations),
        }
        return payload

    def write_plot_files(self, directory, prefix="plot"):
        """Two-column (log10 eps, log10 value) files, one per quantity."""
        import os

        paths = []
        for name in self.column_names():
            path = os.path.join(directory, f"{prefix}_{name}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                for e, v in zip(self.eps, self.columns[name]):
                    if v > 0.0:
                        fh.write(f"{math.log10(e):.17g} {math.log10(v):.17g}\n")
            paths.append(path)
        return paths


def _validate_eps_list(eps_list):
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 4:
        raise ValidationError("eps sweep needs at least 4 points")
    if np.any(eps <= 0.0):
        raise ValidationError("eps values must be positive")
    ratios = eps[1:] / eps[:-1]
    if np.any(ratios >= 1.0):
        raise ValidationError("eps values must be strictly decreasing")
    if np.max(np.abs(ratios - ratios[0])) > 1e-9:
        raise ValidationError("eps values must form a geometric sequence")
    if ratios[0] > 0.5 + 1e-12:
        raise ValidationError("eps sweep ratio must be at most 1/2")
    return eps


def _study_row(args):
    problem, eps, quad, op, options, ps, floor_cells = args
    n = cells_for_eps(eps, problem.grid.length, floor=floor_cells)
    grid = Grid1D(problem.grid.length, n)
    local = dc_replace(problem, grid=grid)
    diffusion = solve_diffusion(local, op)
    transport = solve_transport(local, eps, quad, options, operator=op)

    u0c = diffusion.at_centers()
    diff = transport.u - u0c[:, None]
    mean, fluct = split_mean_fluctuation(transport.u, quad)
    sigma_cells = local.sigma(grid.centers)
    u1 = first_order_corrector(diffusion, sigma_cells, op)
    psi = expansion_remainder(transport.u, u0c, u1, eps)

    row = {
        "err_total": space_velocity_norm(diff, grid, quad, 2),
        "err_fluct": space_velocity_norm(fluct, grid, quad, 2),
        "bdry": outflow_trace(transport).norm(2),
        "deriv": space_velocity_norm(directional_derivative(transport), grid, quad, 2),
        "remainder": space_velocity_norm(psi, grid, quad, 2),
    }
    for p in ps:
        row[f"err_l{p:g}"] = space_velocity_norm(diff, grid, quad, p)
    return row, n, transport.log.iterations


def convergence_study(problem, eps_list, quad, options=None, ps=(1, 4),
                      jobs=1, floor_cells=64):
    """Solve the scaled transport problem over a geometric eps sweep and
    measure every convergence quantity against the diffusion limit.

    The mesh per eps follows h <= eps/4 with a floor, so the second-order
    discretization error stays below the first-order asymptotic signal.  The
    diffusion problem is re-solved on each mesh and compared at cell centers
    through its nodal interpolant.  Slopes come from a log-log least-squares
    fit.  A transport solve that fails to converge aborts the study with the
    partial report attached to the raised ConvergenceError.
    """
    eps = _validate_eps_list(eps_list)
    # the operator does not depend on the mesh: build and certify it once,
    # so every row (and, pickled with its cached certificate, every worker)
    # reuses it
    op = problem.kernel.build(quad)
    certify_assumptions(op)
    tasks = [(problem, float(e), quad, op, options, tuple(ps), floor_cells)
             for e in eps]

    rows = []
    cells = []
    iters = []
    partial_error = None
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
            futures = [pool.submit(_study_row, t) for t in tasks]
            for fut in futures:
                try:
                    row, n, it = fut.result()
                except ConvergenceError as exc:
                    partial_error = exc
                    break
                rows.append(row)
                cells.append(n)
                iters.append(it)
    else:
        for t in tasks:
            try:
                row, n, it = _study_row(t)
            except ConvergenceError as exc:
                partial_error = exc
                break
            rows.append(row)
            cells.append(n)
            iters.append(it)

    names = list(rows[0]) if rows else list(_REPORT_COLUMNS)
    columns = {
        name: np.asarray([r[name] for r in rows], dtype=float) for name in names
    }
    done = len(rows)
    slopes = {}
    if done >= 2:
        for name, vals in columns.items():
            if np.all(vals > 0.0):
                slopes[name] = fit_loglog(eps[:done], vals)

    rate_asserted = problem.sigma.kind != "piecewise"
    notes = []
    if not rate_asserted:
        notes.append(
            "rate not asserted: discontinuous diffusivity, plain-convergence regime"
        )
    report = ConvergenceReport(
        eps=eps[:done],
        columns=columns,
        slopes=slopes,
        n_cells=tuple(cells),
        iterations=tuple(iters),
        lp_reference_rate={p: 2.0 / p for p in ps},
        rate_asserted=rate_asserted,
        notes=tuple(notes),
        protocol={
            "mesh_rule": "h <= eps/4",
            "floor_cells": int(floor_cells),
            "n_ordinates": int(quad.n),
            "scheme": options.scheme if options is not None else "diamond",
        },
    )
    if partial_error is not None:
        err = ConvergenceError(
            f"study aborted at eps={eps[done]:.6g}: {partial_error}",
            log=partial_error.log,
        )
        err.partial_report = report
        raise err
    return report
