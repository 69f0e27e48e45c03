"""Discrete-ordinates transport solver for the scaled slab problem.

Solves  mu du/dx + (gamma_eps + sigma_eps) u = sigma_eps K u + f_eps  with
prescribed inflow on both faces.  The scattering operator sees a flux only
through its r kernel moments per cell (K = D^-1 Phi C Phi^T W, see
velocity_space), so the iteration's unknowns are those moments.  One step
maps them to the next: the emission they give, one transport sweep, and a
synthetic-diffusion (DSA) correction of the velocity average and, for a
kernel that also scatters the current, of the current.  The step is
affine.  One loop makes full steps and checks the change and the balance
of each swept solution against the tolerance; while the change is above it,
GMRES, preconditioned by the DSA, solves for the correction to the fixed
point with one sweep per Krylov step.  Plain source iteration (the same
step, without the correction and without GMRES) is kept as a deliberately
non-robust control: its spectral radius approaches one in the diffusive
regime.

A sweep's diamond (or upwind) march along one ordinate is a bidiagonal
system in that ordinate's edge values.  Taken in the order the ordinate
crosses the cells (from x = 0 for mu > 0, from x = L for mu < 0) it is
lower-bidiagonal, so all ordinates stack into one block-diagonal lower band.
That band depends on sigma_t, the ordinates, the mesh and the scheme, not on
the iterate, so a SweepPlan builds it once per solve and scales it there to
a unit diagonal, keeping the reciprocals of the diagonal in the band's
diagonal row, which a unit-diagonal solve never reads.  The iteration runs
in that march order, an (ordinates, cells) array: a step forms its emission
there with one product, a sweep multiplies it by the reciprocals and makes
one LAPACK triangular banded solve (scipy's dtbtrs with diag="U", read from
_lapack, which imports it on the first sweep) in place, which never
divides, and the next moments are read from the solution with one
product.  Cells and edges in (cells, ordinates) layout are unpacked only in
full steps.  There is no Python loop over cells.  The slab quadrature keeps
its ordinates ascending, so the negative ones are a leading slice, and the
inflow, the outflow and the balance read the split from it.

The convergence test combines the sweep's relative change of the velocity
average, read before the DSA correction, with the discrete particle-balance
residual of the same sweep; one tolerance gates both, the balance at the
larger of the tolerance and its rounding floor.  So every returned solution
satisfies the balance identity at the tolerance, or at rounding level where
the tolerance lies below that, even when the scattering ratio sigma_eps/eps
amplifies iteration error.  The change after the correction would not do:
in cells with sigma_t h in the tens the finite-volume DSA amplifies a
rounding-level residual above any useful tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .diffusion import face_fluxes, factor_operator, interface_diffusivity, solve_cells
from .errors import ConvergenceError, ValidationError
from .krylov import _gmres
from .problem import scaled_fields
from .velocity_space import _require_slab, certify_assumptions, diffusion_moment

__all__ = [
    "SolverOptions",
    "IterationLog",
    "TransportSolution",
    "OutflowTrace",
    "SweepPlan",
    "sweep",
    "solve_transport",
    "directional_derivative",
    "outflow_trace",
    "particle_balance",
]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the transport iteration.

    scheme : "diamond" (second order) or "upwind" (first order, non
        asymptotic-preserving control)
    tolerance : the one threshold of the solve.  A full step converges
        when the relative l2 change of the velocity average over its sweep,
        read before the DSA correction, is at most tolerance and its
        particle-balance residual is at most the larger of tolerance and
        the balance's rounding floor (particle_balance).  With "dsa", a full
        step whose change is above it starts GMRES, which runs to a relative
        residual of 0.1 * tolerance.  The change stalls at a roundoff floor
        of 1-2e-16 (on the 512-cell 1|4 slab with 16 ordinates and the
        linear kernel, tolerance 1e-14 takes 20, 19 and 17 sweeps for
        g = 0.25, 0.5 and 0.75), so a tolerance below about 2e-16 uses up
        max_iterations, and the ConvergenceError says so
    max_iterations : budget of transport sweeps, Krylov sweeps included
    acceleration : "dsa" (GMRES on the DSA-preconditioned step) or "none"
        (plain source iteration, the unaccelerated control)
    """

    scheme: str = "diamond"
    tolerance: float = 1e-10
    max_iterations: int = 200
    acceleration: str = "dsa"

    def __post_init__(self):
        if self.scheme not in ("diamond", "upwind"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.acceleration not in ("dsa", "none"):
            raise ValidationError(f"unknown acceleration {self.acceleration!r}")
        if not (self.tolerance > 0.0):
            raise ValidationError("tolerance must be positive")
        if int(self.max_iterations) < 1:
            raise ValidationError("max_iterations must be >= 1")


@dataclass(frozen=True)
class IterationLog:
    """What a transport solve did, one entry per sweep.

    residuals : per full step, the relative change |sbar - z M| / |sbar|
        of the velocity average over its sweep, before the DSA correction
        (1 for the first step, from zero moments, unless the right-hand side
        is zero); with "dsa", after each full step whose change is above the
        tolerance, GMRES's relative residuals, one per Krylov step
    iterations : number of transport sweeps, Krylov sweeps included; equal
        to len(residuals) unless a non-finite sweep stopped the solve
    spectral_radius_estimate : per-sweep reduction factor,
        (last residual / first) ** (1 / (sweeps - 1)); 0 when undefined.
        It is taken from the last residual, which sits at the tolerance, so
        a change of rounding moves it by percents
    balance_residual : particle-balance residual of the last full sweep
        that passed its finiteness checks (inf before the first)
    balance_floor : the rounding floor particle_balance gave with it, below
        which the residual does not fall (0 before the first full sweep)
    negative_fraction : share of negative cell values in that sweep
    max_optical_thickness : largest cell optical thickness sigma_t * h at
        eps, gamma_eps + sigma_eps times the cell width
    """

    residuals: tuple
    iterations: int
    converged: bool
    spectral_radius_estimate: float
    balance_residual: float
    balance_floor: float
    negative_fraction: float
    max_optical_thickness: float


@dataclass(frozen=True)
class TransportSolution:
    """Converged discrete-ordinates solution.

    u : (n_cells, n_ordinates) cell-average angular flux
    edges : (n_cells + 1, n_ordinates) cell-edge values
    u_bar : (n_cells,) velocity average, exactly u @ weights
    """

    grid: object
    quad: object
    eps: float
    u: np.ndarray
    edges: np.ndarray
    u_bar: np.ndarray
    log: IterationLog


class SweepPlan:
    """The part of a sweep that does not change between iterates.

    Built once per solve from the total removal sigma_t (shape (n_cells,),
    non-negative), the grid, the slab quadrature and the scheme; sigma_t and
    the scheme are checked here, the ordinates by the quadrature.  Per cell,
    an ordinate's march reads
    (a + s_out) e_out - (a - s_in) e_in = emission with a = |mu|/h, and
    each step's incoming edge is the previous step's outgoing one.  Taken
    in march order (cells from x = 0 for mu > 0, from x = L for mu < 0),
    ordinate j's march is therefore a lower-bidiagonal system in its
    n_cells outgoing edges.  The plan divides each row by its diagonal
    a_j + s_out once, so the system has a unit diagonal and the coupling
    -(a_j - s_in)/(a_j + s_out) of each step to the one before; a sweep
    then multiplies its right-hand side by the reciprocals 1/(a_j + s_out)
    and never divides.  The plan stacks every ordinate's system
    block-diagonally, in the quadrature's order, in the
    (2, ordinates * n_cells) Fortran-order band storage dtbtrs reads.  The
    diagonal row, which dtbtrs(diag="U") does not read, holds the
    reciprocals in march order.  The plan computes and checks the
    reciprocals and the couplings as contiguous (n_ordinates, n_cells)
    arrays and interleaves them into the band once.  It keeps the
    contiguous reciprocals too (plan.reciprocal): a sweep's multiply reads
    them with unit stride, which saves about 8 us per sweep at 2048 cells
    and 16 ordinates, for one more (n_ordinates, n_cells) array per plan
    (solve_transport holds one set of cells and edges fewer to make room).
    The plan also keeps the
    scaled coefficients (a_j - s_in)/(a_j + s_out) that carry each
    ordinate's inflow into the first cell it enters.  A unit-diagonal
    solve needs no pivoting and cannot report a zero pivot, so the plan
    raises ValidationError unless every reciprocal is positive and finite
    (an infinite sigma_t fails here).  march() lays an (n_cells,
    n_ordinates) field out in march order, (n_ordinates, n_cells);
    unpack() turns a sweep's output and its inflow (scaled_fields' inflow)
    back into cells and edges.
    """

    def __init__(self, sigma_t, grid, quad, scheme="diamond"):
        n = grid.n_cells
        sigma_t = np.asarray(sigma_t, dtype=float)
        if sigma_t.shape != (n,):
            raise ValidationError(f"sigma_t has shape {sigma_t.shape}, expected {(n,)}")
        if not np.all(sigma_t >= 0.0):
            raise ValidationError("sigma_t must be non-negative")
        if scheme not in ("diamond", "upwind"):
            raise ValidationError(f"unknown scheme {scheme!r}")
        self.n_cells = n
        self.n_negative = k = quad.n_negative
        self.diamond = scheme == "diamond"
        if self.diamond:
            s_out = s_in = 0.5 * sigma_t
        else:
            s_out, s_in = sigma_t, np.zeros(n)
        a = np.abs(quad.nodes)[:, None] / grid.h
        self.reciprocal = reciprocal = np.empty((quad.n, n))
        coupling = np.empty((quad.n, n))
        self.inflow = np.empty(quad.n)
        # an infinite sigma_t makes inf * 0 here; the check below rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, march in ((slice(None, k), slice(None, None, -1)),
                                (slice(k, None), slice(None))):
                recip = reciprocal[rows]
                np.divide(1.0, a[rows] + s_out[march], out=recip)
                # band storage puts a step's coupling in the column of the
                # step before
                np.multiply(s_in[march][1:] - a[rows], recip[:, 1:],
                            out=coupling[rows, :-1])
                self.inflow[rows] = (a[rows, 0] - s_in[march][0]) * recip[:, 0]
        if not np.all((reciprocal > 0.0) & np.isfinite(reciprocal)):
            raise ValidationError(
                "sweep reciprocals 1/(|mu|/h + s_out) must be positive and "
                "finite; sigma_t must be finite")
        coupling[:, -1] = 0.0
        # interleaved, so that band.reshape(-1, 2).T is the (2, N) Fortran-order
        # band storage dtbtrs reads without a copy
        self.band = np.stack([reciprocal, coupling], axis=-1).reshape(-1, 2).T

    def march(self, field):
        """The field in a new array, cells reversed for mu < 0."""
        n, k = self.n_cells, self.n_negative
        m = self.inflow.size
        field = np.asarray(field, dtype=float)
        if field.shape != (n, m):
            raise ValidationError(
                f"field has shape {field.shape}, expected {(n, m)}")
        out = np.empty((m, n))
        out[:k] = field[::-1, :k].T
        out[k:] = field[:, k:].T
        return out

    def unpack(self, swept, incoming):
        """(n_cells, n_ordinates) cells and (n_cells + 1, n_ordinates) edges
        of a sweep's output and its inflow.  The diamond closure takes the
        cell value as the edge average; upwind takes the downstream edge."""
        n, k = self.n_cells, self.n_negative
        edges = np.empty((n + 1, swept.shape[0]))
        edges[n, :k] = incoming[:k]
        edges[:-1, :k] = swept[:k, ::-1].T
        edges[0, k:] = incoming[k:]
        edges[1:, k:] = swept[k:].T
        if self.diamond:
            cells = edges[:-1] + edges[1:]
            cells *= 0.5
        else:
            cells = np.concatenate([edges[:-1, :k], edges[1:, k:]], axis=1)
        return cells, edges


def sweep(plan, emission, incoming=None):
    """One transport sweep: invert mu d/dx + sigma_t per ordinate, in place.

    Positive ordinates march from x = 0, negative ones from x = L.  The
    sweep multiplies the emission by the plan's reciprocals, adds the scaled
    inflow and makes one dtbtrs(diag="U") call, which overwrites it.

    Parameters
    ----------
    plan : SweepPlan of sigma_t (the total removal gamma_eps + sigma_eps),
        the grid, the ordinates and the scheme
    emission : (n_ordinates, n_cells) C-order float array in march order
        (plan.march), the emission sigma_eps K u + f_eps
    incoming : (n_ordinates,) inflow in the quadrature's order, the values
        of the mu < 0 ordinates at x = L and of the others at x = 0
        (scaled_fields' inflow), or None for zero

    Returns the outgoing edges in march order, in the emission's memory;
    plan.unpack turns them into cells and edges.  Raises ValidationError for
    an emission or an inflow of any other shape.
    """
    shape = (plan.inflow.size, plan.n_cells)
    if not (isinstance(emission, np.ndarray) and emission.shape == shape
            and emission.dtype == float and emission.flags.c_contiguous):
        raise ValidationError(
            f"emission must be a C-order float array of shape {shape}, got "
            f"{type(emission).__name__} {np.shape(emission)}")
    if incoming is not None and np.shape(incoming) != shape[:1]:
        raise ValidationError(f"incoming has shape {np.shape(incoming)}, not {shape[:1]}")
    emission *= plan.reciprocal
    if incoming is not None:
        emission[:, 0] += plan.inflow * incoming
    out, info = _lapack.dtbtrs(plan.band, emission.reshape(-1, 1), uplo="L",
                               diag="U", overwrite_b=1)
    if info != 0:
        raise ValidationError(f"transport sweep solve failed (dtbtrs info {info})")
    return out.reshape(shape)


class _MarchMoments:
    """A solve's maps between (r, n_cells) moments and march order.

    emission() scatters sigma * moments into march order with one product
    of the block map spread (n_ordinates, 2r): the negative ordinates see
    the moments with the cells reversed.  read() takes a sweep's output
    back to cell moments with one product of gather (4 * 2r, n_ordinates),
    the two directions apart, in four partial sums (lanes) over the
    ordinates j with j % 4 = 0, 1, 2, 3, as a blocked dot product sums.
    Upwind cells are their outgoing edges.  A diamond cell adds, lane by
    lane, the moments of its two edges (gather holds the factor 1/2), the
    inflow's at the first cell; the lanes are then summed in pairs.  So a
    cell's last roundings are its own.  Averaging edge moments summed over
    all ordinates would share each edge's rounding between two neighbouring
    cells, a smooth error that the synthetic diffusion amplifies: it raised
    the roundoff floor of the change read after the correction by a third.
    """

    def __init__(self, op, plan, incoming):
        k, r, n, m = plan.n_negative, op.rank, plan.n_cells, op.n
        self.r, self.diamond = r, plan.diamond
        self.spread = np.zeros((m, 2 * r))
        self.spread[:k, :r] = op.scatter[:, :k].T
        self.spread[k:, r:] = op.scatter[:, k:].T
        to_moments = 0.5 * op.to_moments if plan.diamond else op.to_moments
        in_lane = np.arange(m) % 4 == np.arange(4)[:, None, None]
        gather = np.zeros((4, 2 * r, m))
        for rows, cols in ((slice(None, r), slice(None, k)),
                           (slice(r, None), slice(k, None))):
            gather[:, rows, cols] = np.where(in_lane[..., cols], to_moments[cols].T, 0.0)
        self.gather = gather.reshape(-1, m)
        self.inflow = np.dot(self.gather, incoming)
        self.weighted = np.empty((2 * r, n))
        self.lanes = np.empty((4 * 2 * r, n))
        self.sums = np.empty_like(self.lanes)

    def emission(self, moments, sigma, out):
        r, weighted = self.r, self.weighted
        np.multiply(moments, sigma, out=weighted[r:])
        weighted[:r] = weighted[r:, ::-1]
        return np.dot(self.spread, weighted, out=out)

    def read(self, swept, full):
        """The cell moments of a sweep's output; full: it had the inflow."""
        lanes = np.dot(self.gather, swept, out=self.lanes)
        if self.diamond:
            # one flat pass; each row's first entry, which read the row
            # before, is set after it
            flat = lanes.reshape(-1)
            np.add(flat[1:], flat[:-1], out=self.sums.reshape(-1)[1:])
            np.add(lanes[:, 0], self.inflow if full else 0.0, out=self.sums[:, 0])
            lanes = self.sums
        # lanes 0 + 2 and 1 + 3, then those two
        quarters = lanes.reshape(2, 2, -1, lanes.shape[1])
        halves = quarters[0] + quarters[1]
        both = halves[0] + halves[1]
        r = self.r
        return both[r:] + both[:r, ::-1]


# the balance floor in units of u S / scale: converged thick solves whose
# balance exceeds 1e-10 measured 0.07-1.71 u S / scale, so 16 leaves a
# margin of about 10
_BALANCE_FLOOR = 16.0 * np.finfo(float).eps


# the sweep's relative change stalls at 1-2e-16 (SolverOptions.tolerance);
# a full step that ends at or below this has reached rounding
_CHANGE_FLOOR = 16.0 * np.finfo(float).eps


def particle_balance(cells, edges, sigma_t, gamma_e, f_e, grid, quad):
    """Relative defect of outflow - inflow + absorption - source, and the
    floor that rounding sets under it.

    The outflow and the inflow are both read from the edges, which hold a
    solve's inflow on the face each ordinate enters by (x = 0 for mu > 0,
    x = L for mu < 0), as plan.unpack writes it.  The identity holds for a
    converged solve because the row-normalized, weighted-self-adjoint
    scattering operator is conservative.  Both are relative to scale, the
    largest of the four terms.  In each cell the removal sigma_t u and the
    scattering cancel, so the defect of a converged solve is rounding of
    order u S, with S = sum_j h sigma_t,j |ubar_j| and u the double-precision
    epsilon.  The floor is 16 u S / scale; in thick cells S outgrows scale
    and the floor exceeds the tolerance.
    """
    w = quad.weights
    h = grid.h
    k, m = quad.n_negative, quad.boundary_measure
    u_bar = cells @ w
    out = float(np.sum(m[k:] * edges[-1, k:]) + np.sum(m[:k] * edges[0, :k]))
    inflow = float(np.sum(m[k:] * edges[0, k:]) + np.sum(m[:k] * edges[-1, :k]))
    absorption = float(np.sum(h * gamma_e * u_bar))
    source = float(np.sum(h * (f_e @ w)))
    scale = max(abs(out), abs(inflow), abs(absorption), abs(source), 1e-300)
    floor = _BALANCE_FLOOR * h * float(np.dot(sigma_t, np.abs(u_bar))) / scale
    return abs(out - inflow + absorption - source) / scale, floor


def _reduction_per_sweep(history):
    """Mean factor by which one sweep reduced the residual:
    (last / first) ** (1 / (sweeps - 1)), 0.0 when undefined."""
    if len(history) < 2 or not history[0] > 0.0:
        return 0.0
    ratio = history[-1] / history[0]
    if not np.isfinite(ratio):
        return 0.0
    return float(ratio ** (1.0 / (len(history) - 1)))


def solve_transport(problem, eps, op, options=None, source_override=None):
    """Discrete-ordinates solve, Krylov-accelerated with synthetic diffusion.

    Parameters
    ----------
    problem : ProblemSpec; the solve reads its read-only cell_fields, which
        the problem evaluates once, scaled at eps (scaled_fields)
    eps : scaling parameter (> 0)
    op : ScatteringOperator on a slab AngularQuadrature; it carries both
        the kernel and the ordinates, and must pass certification
    source_override : optional (n_cells, n_ordinates) source replacing the
        scaled isotropic source (used for manufactured verification)

    The operator K = D^-1 Phi C Phi^T W sees a flux u only through its r
    kernel moments Phi^T W u per cell, so the iteration runs on those
    (r, n_cells) moments M.  One step maps M to the next moments: emission
    sigma_e (C Phi^T / D)^T M + f, one sweep to the moments M', then (with
    acceleration "dsa") a diffusion correction delta of the sweep average
    z M', Phi z = 1 (K 1 = 1 puts the constants in the range of Phi).  Its
    right-hand side is the scattering residual sigma_e z dM of the change
    dM = M' - M, and delta adds delta times the moments of the constant 1.
    For an operator of rank r > 1 under the diamond scheme the step is P1
    synthetic acceleration: it also adds the angular term 3 mu dJ of a
    current correction dJ.  The sweep leaves the residual R1 = sigma_e c1 dM,
    c1 = scatter @ (w mu), in the current's equation too, so the error's P1
    equations read
        dJ' + gamma_e delta = sigma_e z dM,
        delta' / 3 + (sigma_e / (3 m_K)) dJ = R1,
    with m_K = diffusion_moment(op)[0, 0].  The second gives
    dJ = -a delta' + q, with the DSA's diffusivity a = m_K / sigma_e and
    q = 3 m_K c1 dM.  So the DSA solves
    -(a delta')' + gamma_e delta = sigma_e z dM - q' in the finite-volume
    form of diffusion.face_fluxes, with q at a face the mean of its two cells
    and at x = 0 and x = L the boundary cell's value (the half-cell closure
    of the diffusion operator), and dJ is the cell mean of the face fluxes
    -a delta' plus the face values of q.  One (2, r) product gives z dM and
    q.  Without q the current's error falls only by about g per sweep: on
    the 128-cell 1|4 slab at eps 2^-5 with 16 ordinates a solve takes 16,
    15, 14 and 14 sweeps for g = 0.25, 0.5, 0.75 and 0.9, against 17, 20,
    27 and 40 with the Fick current -a delta' alone and 31 at g = 0.5 with
    no current correction.  At the fixed point dM = 0, so delta = q = 0 and
    the solution is unchanged.  A rank-1 operator is the isotropic average,
    which scatters no current (c1 = 0), so it skips the work.  Upwind skips
    it too: that scheme is not asymptotic-preserving, so in thick cells its
    current is not the Fick current of the diffusion correction, and adding
    that current slowed its thick solves (g = 0.99: 52 and 75 sweeps became
    69 and 104).  The step is affine, M -> A M + b.

    One loop makes a full step from M, with the source and the inflow, and
    reads two things.  The change |sbar - z M| / |sbar|, with sbar the
    sweep average before the correction, is the residual of the
    unaccelerated fixed point; after the correction a rounding-level
    residual would come back amplified by about (3/4) (sigma_e h)^2 for a
    grid-scale mode, and more for smoother ones.  The change must meet the
    tolerance, and the balance the larger of the tolerance and its rounding
    floor (particle_balance).  If both pass, the solve has converged.
    Otherwise, with "dsa" and a change above the tolerance, GMRES solves
    (I - A) D = step(M) - M to 0.1 * tolerance relative residual with the
    sweeps left, one step with zero source and inflow per Krylov step, and
    M becomes M + D; from M = 0 that solves (I - A) M = b.  In any other case
    M becomes the step's next moments, the stationary iteration: with
    "none" that is plain source iteration.  Every sweep counts against
    max_iterations, so a GMRES that uses up the budget ends the solve
    unconverged.

    Raises ValidationError for an operator on any other quadrature, and
    CertificationError for one that fails certification, before any sweep.
    Raises ConvergenceError (carrying the residual history) when the
    change and the balance do not both meet their gates within
    max_iterations, which is the expected signature of running without
    acceleration deep in the diffusive regime, and at once when a change
    or an average stops being finite: with "dsa" the accelerated average,
    which a non-finite sweep average makes non-finite, with "none" the
    sweep average.
    """
    quad = _require_slab(op, "solve_transport")
    options = options if options is not None else SolverOptions()
    grid = problem.grid
    fields = scaled_fields(problem, eps, quad)
    certify_assumptions(op).require()

    sigma_e = fields["sigma"]
    gamma_e = fields["gamma"]
    sigma_t = sigma_e + gamma_e
    plan = SweepPlan(sigma_t, grid, quad, options.scheme)
    thickness = float(np.max(sigma_t * grid.h))
    w = quad.weights
    incoming = fields["inflow"]

    if source_override is not None:
        f_e = np.asarray(source_override, dtype=float)
        if f_e.shape != (grid.n_cells, quad.n):
            raise ValidationError(
                f"source_override has shape {f_e.shape}, "
                f"expected {(grid.n_cells, quad.n)}"
            )
    else:
        f_e = np.broadcast_to(fields["source"][:, None], (grid.n_cells, quad.n))

    phi = op.features
    mean_moments = w @ phi  # the moments of the constant 1
    z = op.mean_weights  # z @ M = u @ w

    source = plan.march(f_e)
    maps = _MarchMoments(op, plan, incoming)
    # every sweep's right-hand side, overwritten by its solution
    emission = np.empty((quad.n, grid.n_cells))

    dsa_factor = current_moments = None
    if options.acceleration == "dsa":
        m_k = diffusion_moment(op)[0, 0]
        dsa_a = m_k / sigma_e
        dsa_factor = factor_operator(dsa_a, gamma_e, grid.h)
        if op.rank > 1 and options.scheme == "diamond":
            dsa_ah = interface_diffusivity(dsa_a)
            current_moments = (3.0 * quad.nodes * w) @ phi  # moments of 3 mu
            # rows z and 3 m_K c1, c1 = scatter @ (w mu): applied to the
            # change of the moments, the scalar residual and the current q
            residual_map = np.stack([z, 3.0 * m_k * (op.scatter @ (w * quad.nodes))])
            q_face = np.empty(grid.n_cells + 1)

    history = []
    cells = np.zeros((grid.n_cells, quad.n))
    edges = None
    # the balance and its floor of the last full sweep's cells and edges,
    # None until asked for: only a change within the tolerance, or a log,
    # needs them
    balance = None
    converged = False
    iterations = 0

    def full_balance():
        nonlocal balance
        if balance is None:
            balance = (np.inf, 0.0) if edges is None else particle_balance(
                cells, edges, sigma_t, gamma_e, f_e, grid, quad)
        return balance

    def log():
        residual, floor = full_balance()
        return IterationLog(
            residuals=tuple(history), iterations=iterations, converged=converged,
            spectral_radius_estimate=_reduction_per_sweep(history),
            balance_residual=float(residual), balance_floor=float(floor),
            negative_fraction=float(np.mean(cells < 0.0)),
            max_optical_thickness=thickness,
        )

    def require_finite(values, what):
        if not np.isfinite(values).all():
            raise ConvergenceError(
                f"transport iteration diverged: non-finite {what} after "
                f"{iterations} sweeps", log=log(),
            )

    def step(moments, full):
        """One sweep from the (r, n_cells) moments and its correction: the
        next moments, the sweep's march-order output and the sweep average
        before the correction.  A full step has the source and the inflow; a
        Krylov step has neither."""
        nonlocal iterations
        maps.emission(moments, sigma_e, emission)
        if full:
            np.add(emission, source, out=emission)
        swept = sweep(plan, emission, incoming if full else None)
        iterations += 1
        next_moments = maps.read(swept, full)
        sbar = np.dot(z, next_moments)
        if dsa_factor is None:
            require_finite(sbar, "sweep average")
            return next_moments, swept, sbar
        # a non-finite sweep average makes the accelerated one non-finite,
        # so the DSA step checks only the latter
        if current_moments is None:
            delta = solve_cells(dsa_factor, sigma_e * (sbar - np.dot(z, moments)))
        else:
            residual = np.dot(residual_map, next_moments - moments)
            q = residual[1]
            # the mean of the two cells at an interior face, the boundary
            # cell's value at x = 0 and x = L
            q_face[1:-1] = 0.5 * (q[1:] + q[:-1])
            q_face[0], q_face[-1] = q[0], q[-1]
            delta = solve_cells(dsa_factor, sigma_e * residual[0]
                                - (q_face[1:] - q_face[:-1]) / grid.h)
        require_finite(sbar + delta, "accelerated average")
        next_moments += mean_moments[:, None] * delta
        if current_moments is not None:
            flux = face_fluxes(delta, dsa_a, dsa_ah, grid.h)
            flux += q_face
            next_moments += current_moments[:, None] * (0.5 * (flux[:-1] + flux[1:]))
        return next_moments, swept, sbar

    # a diverging iterate overflows before require_finite reports it
    with np.errstate(over="ignore", invalid="ignore"):
        moments = np.zeros((op.rank, grid.n_cells))
        while iterations < options.max_iterations:
            next_moments, swept, sbar = step(moments, True)
            change = float(
                np.linalg.norm(sbar - np.dot(z, moments))
                / max(np.linalg.norm(sbar), 1e-300)
            )
            history.append(change)
            # np.linalg.norm overflows to a nan change before the average
            # itself stops being finite
            require_finite(change, "change")
            # the last step's cells and edges go before this step's are
            # made, so that the solve never holds two sets
            cells = edges = None
            cells, edges = plan.unpack(swept, incoming)
            balance = None
            if change <= options.tolerance:
                residual, floor = full_balance()
                if residual <= max(options.tolerance, floor):
                    converged = True
                    break
            if change > options.tolerance and dsa_factor is not None:
                moments = moments + _gmres(lambda v: v - step(v, False)[0],
                                           next_moments - moments, 0.1 * options.tolerance,
                                           options.max_iterations - iterations, history)
            else:
                moments = next_moments

    if not converged:
        message = (f"transport iteration did not converge in {iterations} sweeps "
                   f"(last residual {history[-1]:.3e}, balance {full_balance()[0]:.3e})")
        # GMRES can spend the budget before a full step reaches the floor,
        # so the tolerance is named whatever the last change was
        if options.tolerance < _CHANGE_FLOOR:
            stalled = (f"the full-step change stalled at {change:.1e}, and "
                       if options.tolerance < change <= _CHANGE_FLOOR else "")
            message += (f"; {stalled}the tolerance {options.tolerance:.1e} lies "
                        f"below the sweep change's rounding floor")
        raise ConvergenceError(message, log=log())
    return TransportSolution(
        grid=grid, quad=quad, eps=float(eps),
        u=cells, edges=edges, u_bar=cells @ w, log=log(),
    )


def directional_derivative(solution):
    """Field mu du/dx per cell and ordinate, from the stored edge values."""
    mu = solution.quad.nodes
    h = solution.grid.h
    return mu[None, :] * (solution.edges[1:] - solution.edges[:-1]) / h


@dataclass(frozen=True)
class OutflowTrace:
    """Boundary values on the outflow set with their |mu|-weighted measure.

    Collects x = 0 for mu < 0 and x = L for mu > 0, in the quadrature's
    order; mu and weight are the quadrature's own arrays.
    """

    mu: np.ndarray
    weight: np.ndarray
    value: np.ndarray

    def norm(self):
        """The |mu|-weighted L2 norm (sum_j weight_j |mu_j| value_j^2)^(1/2)."""
        return float(
            np.sum(self.weight * np.abs(self.mu) * np.abs(self.value) ** 2.0) ** (1.0 / 2.0)
        )


def outflow_trace(solution):
    quad = solution.quad
    k = quad.n_negative
    return OutflowTrace(
        mu=quad.nodes,
        weight=quad.weights,
        value=np.concatenate([solution.edges[0, :k], solution.edges[-1, k:]]),
    )
