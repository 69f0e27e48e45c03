"""Norms, corrector expansion, and eps-sweep studies.

The discrete L^p norm on the slab-velocity phase space is the midpoint rule
in x tensored with the quadrature weights in mu.  Boundary norms carry the
|mu| weight.  The collision energy norm is evaluated exactly as
(eps*gamma*u + (sigma/eps)(I - K)u, u) in the weighted inner product.  The
study measures, row by row, the errors against the diffusion limit and the
quantities the paper's a priori bounds keep uniform in eps.  It returns a
ConvergenceReport and writes no file: translimit.cli turns the report into
report.csv, slopes.json and the plot files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .config import StudySpec
from .diffusion import solve_diffusion
from .errors import ConvergenceError, ValidationError
from .problem import Grid1D, cells_for_eps, scaled_fields
from .transport import (SolverOptions, directional_derivative, outflow_trace,
                        solve_transport)
from .velocity_space import _require_slab, apply_K, certify_assumptions, pinv_apply

__all__ = [
    "velocity_average",
    "split_mean_fluctuation",
    "space_velocity_norm",
    "NormSet",
    "norms",
    "first_order_corrector",
    "expansion_remainder",
    "FitResult",
    "fit_loglog",
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


def _check_ps(ps):
    """ValidationError unless every p is a norm exponent: p >= 1 (NaN fails)."""
    for p in ps:
        if not float(p) >= 1.0:
            raise ValidationError(f"L^p norm needs p >= 1, got p = {p!r}")


def space_velocity_norm(field, grid, quad, p=2):
    """L^p norm over the slab-velocity phase space, 1 <= p <= inf.

    The power sum h sum |f|^p w can underflow to 0 or overflow to inf for a
    large p while max |f| = m is positive and finite; the norm is then
    m (h sum (|f|/m)^p w)^(1/p), whose terms lie in [0, 1].
    """
    _check_ps((p,))
    field = np.asarray(field, dtype=float)
    if p == np.inf:
        return float(np.max(np.abs(field)))
    p = float(p)
    w = quad.weights
    with np.errstate(over="ignore"):
        # |f| and f * f are |f| ** 1 and |f| ** 2 bit for bit, at a small
        # part of the cost of the power
        if p == 1.0:
            power = np.abs(field)
        elif p == 2.0:
            power = field * field
        else:
            power = np.abs(field) ** p
        power_sum = grid.h * np.sum(power @ w)
    if power_sum == 0.0 or power_sum == np.inf:
        field = np.abs(field)
        m = np.max(field)
        if 0.0 < m < np.inf:
            ratio = field / m if p == 1.0 else (field / m) ** p
            return float(m * (grid.h * np.sum(ratio @ w)) ** (1.0 / p))
    return float(power_sum ** (1.0 / p))


@dataclass(frozen=True)
class NormSet:
    """Bundle of norms of one space-velocity field.

    l2 and lp are phase-space L^p norms; energy is the collision energy norm
    induced by eps*gamma*I + (sigma/eps)(I - K), and energy_sq its square.
    """

    l2: float
    lp: dict
    energy: float
    energy_sq: float


def norms(field, eps, sigma_cells, gamma_cells, op, grid, ps=()):
    """Norm bundle of an (n_cells, n_ordinates) field.

    sigma_cells and gamma_cells are the problem's coefficient values at the
    cell centers, i.e. the data at eps = 1; the energy norm uses sigma/eps
    and eps*gamma, the same scaling scaled_fields applies.  An operator that
    fails certification raises CertificationError, and a p < 1 in ps
    raises ValidationError.
    """
    certify_assumptions(op).require()
    field = np.asarray(field, dtype=float)
    quad = op.quadrature
    w = quad.weights
    sigma_cells = np.asarray(sigma_cells, dtype=float)
    gamma_cells = np.asarray(gamma_cells, dtype=float)

    resid = field - apply_K(op, field)
    energy_sq = float(
        grid.h
        * np.sum(
            eps * gamma_cells * (field**2 @ w)
            + (sigma_cells / eps) * ((resid * field) @ w)
        )
    )
    energy_sq = max(energy_sq, 0.0)

    lp = {p: space_velocity_norm(field, grid, quad, p) for p in ps}
    return NormSet(
        l2=space_velocity_norm(field, grid, quad, 2),
        lp=lp,
        energy=math.sqrt(energy_sq),
        energy_sq=energy_sq,
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


def expansion_remainder(diff, u1, eps):
    """Remainder (u_eps - ubar_0) - eps u_1 of the two-term expansion, from
    diff = u_eps - ubar_0 per cell and ordinate."""
    diff = np.asarray(diff, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if diff.shape != u1.shape:
        raise ValidationError(f"shape mismatch: diff {diff.shape}, u1 {u1.shape}")
    return diff - eps * u1


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


_REPORT_COLUMNS = ("err_total", "err_fluct", "bdry", "deriv", "remainder")


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors, fitted rates and protocol record of an eps sweep.

    columns holds one array per measured quantity (err_total, err_fluct,
    bdry, deriv, remainder, err_l{p} for each requested p, then the a priori
    quantities energy_ratio and max_abs); slopes holds a FitResult per
    quantity.  rate_asserted is False when the diffusivity is discontinuous
    and only plain convergence (no rate) is claimed.  notes also names each
    a priori quantity that grew past twice its largest-eps value.
    iterations and reduction_per_sweep hold each row's transport sweep count
    and IterationLog.spectral_radius_estimate, so a row records how fast its
    solve converged as well as how long it took.  The CLI writes columns to
    report.csv and the plot files, and every other field, under its name,
    to slopes.json.
    """

    eps: np.ndarray
    columns: dict
    slopes: dict
    n_cells: tuple
    iterations: tuple
    reduction_per_sweep: tuple
    rate_asserted: bool
    notes: tuple
    protocol: dict


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


class _MeshRecord:
    """What every study row on one mesh shares: the row problem, the limit
    u0 at the cell centers and the corrector u1.  None of it depends on eps;
    u0 and u1 stay None until the mesh's first transport solve has run."""

    def __init__(self, problem):
        self.problem = problem
        self.u0_centers = self.u1 = None


def _study_row(mesh, eps, op, options, ps):
    local = mesh.problem
    grid = local.grid
    quad = op.quadrature
    transport = solve_transport(local, eps, op, options)
    if mesh.u1 is None:
        # filled after the solve, so that the solve's peak memory does not
        # carry it
        diffusion = solve_diffusion(local, op)
        mesh.u0_centers = diffusion.at_centers()
        mesh.u1 = first_order_corrector(diffusion, local.cell_fields["sigma"], op)

    diff = transport.u - mesh.u0_centers[:, None]
    mean, fluct = split_mean_fluctuation(transport.u, quad)
    psi = expansion_remainder(diff, mesh.u1, eps)

    fluct_norm = space_velocity_norm(fluct, grid, quad, 2)
    trace_norm = outflow_trace(transport).norm()
    row = {
        "err_total": space_velocity_norm(diff, grid, quad, 2),
        "err_fluct": fluct_norm,
        "bdry": trace_norm,
        "deriv": space_velocity_norm(directional_derivative(transport), grid, quad, 2),
        "remainder": space_velocity_norm(psi, grid, quad, 2),
    }
    for p in ps:
        row[f"err_l{p:g}"] = space_velocity_norm(diff, grid, quad, p)

    # energy identity: the solution side |u|_bdry^2 + |u - ubar|^2/eps
    # + eps|ubar|^2 over the data side |g|_bdry^2 + |fbar|^2/eps bounding it,
    # with the data scaled at eps; the source is isotropic, so fbar = f
    data = scaled_fields(local, eps, quad)
    k, m = quad.n_negative, quad.boundary_measure
    g = data["inflow"]
    g_sq = float(np.sum(m[k:] * g[k:]**2) + np.sum(m[:k] * g[:k]**2))
    f_sq = grid.h * float(np.sum(data["source"]**2))
    lhs = trace_norm**2 + fluct_norm**2 / eps + eps * grid.h * float(np.sum(mean**2))
    row["energy_ratio"] = lhs / max(g_sq + f_sq / eps, 1e-300)
    row["max_abs"] = float(np.max(np.abs(transport.u)))
    return row, transport.log


def _growth_notes(eps, columns):
    """One note per quantity the paper bounds uniformly in eps that grew past
    twice its value at the largest eps."""
    bounded = {
        "bdry/sqrt(eps)": columns["bdry"] / np.sqrt(eps),
        "err_fluct/eps": columns["err_fluct"] / eps,
        "deriv": columns["deriv"],
        "energy_ratio": columns["energy_ratio"],
        "max_abs": columns["max_abs"],
    }
    return [
        f"a priori bound: {name} grew past 2x its largest-eps value "
        f"({vals[0]:.4g} -> {np.max(vals):.4g})"
        for name, vals in bounded.items()
        if vals.size and np.max(vals) > 2.0 * vals[0]
    ]


def convergence_study(problem, eps_list, op, options=None,
                      ps=StudySpec.p_norms, floor_cells=StudySpec.floor_cells):
    """Solve the scaled transport problem over a geometric eps sweep and
    measure every convergence quantity against the diffusion limit.

    op is the certified slab ScatteringOperator every row shares: the limit's
    diffusivity, the transport solves and the corrector all come from it,
    and its one decomposition serves them all.  Before any solve, an
    operator on any other quadrature raises ValidationError and one that
    fails certification raises CertificationError.

    The mesh per eps follows h <= eps/4 with a floor, so the second-order
    discretization error stays below the first-order asymptotic signal.
    Every row's mesh is built before the first solve, so a mesh too large
    for an array raises ValidationError before any work.  The diffusion
    limit and the corrector do not depend on eps: they are solved once per
    distinct mesh, after that mesh's first transport solve, and shared by
    its rows with the row problem, whose cell_fields are evaluated once.
    The limit is compared at cell centers through its nodal interpolant.
    Slopes come from a log-log least-squares
    fit.  Each row also measures the quantities of the paper's a priori
    bounds, and a note names each that grows past twice its largest-eps
    value.  A transport solve that fails to converge aborts the study with
    the partial report attached to the raised ConvergenceError.  Every p in
    ps must be at least 1, else ValidationError is raised before any solve.
    ps and floor_cells default to StudySpec's p_norms and floor_cells, and
    options to SolverOptions().
    """
    _check_ps(ps)
    options = options if options is not None else SolverOptions()
    _require_slab(op, "convergence_study")
    certify_assumptions(op).require()
    eps = _validate_eps_list(eps_list)

    # every row's mesh before any solve, so that an impossible one raises
    # ValidationError first
    length = problem.grid.length
    grids = [Grid1D(length, cells_for_eps(e, length, floor=floor_cells))
             for e in eps]

    rows = []
    logs = []
    partial_error = None
    mesh = None
    for e, grid in zip(eps, grids):
        if mesh is None or mesh.problem.grid != grid:
            # drops the previous mesh's record before this mesh's first solve
            mesh = _MeshRecord(dc_replace(problem, grid=grid))
        try:
            row, log = _study_row(mesh, float(e), op, options, ps)
        except ConvergenceError as exc:
            partial_error = exc
            break
        rows.append(row)
        logs.append(log)

    names = (_REPORT_COLUMNS + tuple(f"err_l{p:g}" for p in ps)
             + ("energy_ratio", "max_abs"))
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
    notes += _growth_notes(eps[:done], columns)
    report = ConvergenceReport(
        eps=eps[:done],
        columns=columns,
        slopes=slopes,
        n_cells=tuple(grid.n_cells for grid in grids[:done]),
        iterations=tuple(log.iterations for log in logs),
        reduction_per_sweep=tuple(log.spectral_radius_estimate for log in logs),
        rate_asserted=rate_asserted,
        notes=tuple(notes),
        protocol={
            "mesh_rule": "h <= eps/4",
            "floor_cells": int(floor_cells),
            "n_ordinates": int(op.n),
            "scheme": options.scheme,
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
