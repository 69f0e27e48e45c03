"""Problem definition: grid, coefficient fields, data scaling, manufactured cases.

The spatial domain is the slab (0, L) on a uniform cell grid.  Coefficients
are declarative (constant, piecewise constant, or a named smooth profile) so
that bounds are known exactly.  A ProblemSpec evaluates them once at its
grid's cell centers (cell_fields), and scaled_fields scales them at eps in
the diffusive scaling: absorption, source and inflow are multiplied by eps
and the scattering coefficient is divided by it, so eps = 1 uses every
field verbatim.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import types
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .velocity_space import (
    _require_slab,
    apply_K,
    assemble_scattering,
    diffusion_moment,
    kernel_isotropic,
    kernel_linear,
)

__all__ = [
    "Grid1D",
    "CoefficientField",
    "KernelSpec",
    "ProblemSpec",
    "scaled_fields",
    "cells_for_eps",
    "ManufacturedCase",
    "manufactured_case",
    "mms_transport_source",
    "mms_diffusion_source",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on (0, length).

    n_cells must be an integer from 1 to the largest array index
    (np.iinfo(np.intp).max), else ValidationError is raised, so that a grid
    exists only when its arrays can.  centers is computed once per grid and
    is read-only; edges is a new array on each access.
    """

    length: float
    n_cells: int

    def __post_init__(self):
        if not (0.0 < self.length < math.inf):
            raise ValidationError(
                f"grid length must be positive and finite, got {self.length}")
        n = self.n_cells
        # an int too large for a float is still integral
        integral = isinstance(n, numbers.Integral) or float(n).is_integer()
        if not (integral and n >= 1):
            raise ValidationError(f"n_cells must be an integer >= 1, got {n}")
        if n > np.iinfo(np.intp).max:
            # an int beyond the float range is shown in full
            count = f"{n:.4e}" if n <= sys.float_info.max else n
            raise ValidationError(
                f"n_cells = {count} exceeds the largest array size "
                f"{np.iinfo(np.intp).max}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "n_cells", int(n))

    @property
    def h(self):
        return self.length / self.n_cells

    @functools.cached_property
    def centers(self):
        """Read-only (n_cells,) cell midpoints."""
        centers = (np.arange(self.n_cells) + 0.5) * self.h
        centers.setflags(write=False)
        return centers

    @property
    def edges(self):
        return np.arange(self.n_cells + 1) * self.h


@dataclass(frozen=True)
class CoefficientField:
    """Declarative scalar field on the slab with recorded bounds.

    kinds:
      constant  : value
      piecewise : breakpoints (strictly increasing) and one value per piece
      sinusoid  : value + amplitude * sin(2 pi frequency x + phase)
    """

    kind: str
    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    breakpoints: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "piecewise", "sinusoid"):
            raise ValidationError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "piecewise":
            bp = tuple(float(b) for b in self.breakpoints)
            vals = tuple(float(v) for v in self.values)
            if len(vals) != len(bp) + 1:
                raise ValidationError(
                    "piecewise field needs one more value than breakpoints"
                )
            if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
                raise ValidationError("breakpoints must be strictly increasing")
            object.__setattr__(self, "breakpoints", bp)
            object.__setattr__(self, "values", vals)
        numbers = (self.value, self.amplitude, self.frequency, self.phase,
                   *self.breakpoints, *self.values)
        if not all(math.isfinite(v) for v in numbers):
            raise ValidationError(f"{self.kind} field has a non-finite parameter")

    @classmethod
    def constant(cls, value):
        return cls(kind="constant", value=float(value))

    @classmethod
    def piecewise(cls, breakpoints, values):
        return cls(kind="piecewise", breakpoints=tuple(breakpoints),
                   values=tuple(values))

    @classmethod
    def sinusoid(cls, offset=0.0, amplitude=0.0, frequency=1.0, phase=0.0):
        return cls(kind="sinusoid", value=float(offset), amplitude=float(amplitude),
                   frequency=float(frequency), phase=float(phase))

    @property
    def bounds(self):
        """Global envelope (c_lo, c_hi) of the field values."""
        if self.kind == "constant":
            return (self.value, self.value)
        if self.kind == "piecewise":
            return (min(self.values), max(self.values))
        return (self.value - abs(self.amplitude), self.value + abs(self.amplitude))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        if self.kind == "piecewise":
            idx = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
            return np.asarray(self.values)[idx]
        # finite parameters can still give sin(inf) or an overflowing sum;
        # the solvers report a non-finite field (_require_finite_fields)
        with np.errstate(invalid="ignore", over="ignore"):
            return self.value + self.amplitude * np.sin(
                2.0 * np.pi * self.frequency * x + self.phase
            )

    def derivative(self, x):
        """Pointwise derivative; zero for piecewise fields away from jumps."""
        x = np.asarray(x, dtype=float)
        if self.kind == "sinusoid":
            om = 2.0 * np.pi * self.frequency
            with np.errstate(invalid="ignore", over="ignore"):
                return self.amplitude * om * np.cos(om * x + self.phase)
        return np.zeros_like(x)


@dataclass(frozen=True)
class KernelSpec:
    """Scattering kernel selector: isotropic, or linear with g_factor.

    build(quad) assembles the ScatteringOperator the solvers take.  A
    nonzero g_factor with any other kind than "linear" is rejected.
    """

    kind: str = "isotropic"
    g_factor: float = 0.0

    def __post_init__(self):
        if self.kind not in ("isotropic", "linear"):
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.g_factor != 0.0 and self.kind != "linear":
            raise ValidationError(
                f"g_factor applies only to the linear kernel, not {self.kind!r}"
            )

    def build(self, quad):
        """Assemble the scattering operator on the given quadrature."""
        if self.kind == "isotropic":
            return assemble_scattering(kernel_isotropic(), quad)
        return assemble_scattering(kernel_linear(self.g_factor), quad)


@dataclass(frozen=True)
class ProblemSpec:
    """Slab problem shared by the transport and diffusion solvers.

    The scattering kernel and the velocity quadrature are not part of it:
    both come with the ScatteringOperator each solver takes.  sigma and
    gamma must be strictly positive; the inflow data g_left (at x = 0) and
    g_right (at x = L) are numbers or callables of mu returning shape () or
    mu's shape, default to zero, and are checked and scaled, as one inflow
    over all ordinates, by scaled_fields alone.  At eps the solver
    sees sigma_eps = sigma/eps, gamma_eps = eps*gamma, f_eps = eps*f and
    g_eps = eps*g; the eps-independent problem is the one at eps = 1.
    The fields at the cell centers are evaluated once per problem, on first
    use, into the read-only cell_fields; dataclasses.replace gives a new
    problem, which evaluates its own.
    """

    grid: Grid1D
    sigma: CoefficientField
    gamma: CoefficientField
    source: CoefficientField
    g_left: object = 0.0
    g_right: object = 0.0

    def __post_init__(self):
        if self.sigma.bounds[0] <= 0.0:
            raise ValidationError(
                f"sigma must be strictly positive (bounds {self.sigma.bounds})"
            )
        if self.gamma.bounds[0] <= 0.0:
            raise ValidationError(
                f"gamma must be strictly positive (bounds {self.gamma.bounds})"
            )

    @functools.cached_property
    def cell_fields(self):
        """sigma, gamma and source at grid.centers, the data at eps = 1.

        A read-only mapping of read-only (n_cells,) arrays, evaluated and
        checked once per problem: ValidationError names the first field
        that is not finite on the grid (see _require_finite_fields), and
        every access until then raises it again.
        """
        xc = self.grid.centers
        fields = {}
        for name in ("sigma", "gamma", "source"):
            # a view, so that a callable's own array stays writeable
            values = np.asarray(getattr(self, name)(xc), dtype=float).view()
            values.setflags(write=False)
            fields[name] = values
        _require_finite_fields(**fields)
        return types.MappingProxyType(fields)


def _inflow(g, mu, name):
    """Inflow datum g at the ordinates mu, as an array of mu's shape: g is a
    number, or a callable of mu whose values have shape () or mu's;
    ValidationError otherwise."""
    try:
        values = np.asarray(g if isinstance(g, numbers.Real) else g(mu), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"{name} must be a number or a callable of mu: {exc}") from None
    if values.shape not in ((), mu.shape):
        raise ValidationError(f"{name}(mu) has shape {values.shape}, not () or {mu.shape}")
    return np.broadcast_to(values, mu.shape)


def _require_finite_fields(**fields):
    """Raise ValidationError unless every named cell array is finite.

    Finite field parameters can still evaluate to inf or nan: a sinusoid
    of frequency 1e308 takes the sine of inf.  The solvers' LAPACK calls
    check nothing per right-hand side, so ProblemSpec.cell_fields checks
    the fields once per problem; scaled_fields reports a finite field that
    overflows when scaled at eps as that scaling's overflow.
    """
    for name, values in fields.items():
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} is not finite on the grid")


def scaled_fields(problem, eps, quad):
    """The problem's fields as the solver sees them at eps.

    Returns a dict of new arrays: sigma / eps, eps * gamma and eps * source
    from problem.cell_fields, so on problem.grid, and inflow, the
    (quad.n,) inflow in the quadrature's order: eps * g_right(mu) on the
    leading mu < 0 ordinates, which enter at x = L, and eps * g_left(mu) on
    the rest, which enter at x = 0.  Raises ValidationError when a cell
    field is not finite as given, or when a field or the inflow is not
    finite as scaled; that message names the scaling and eps, and numpy
    warns nothing.  It raises ValidationError too when g_left or g_right is
    neither a number nor a callable of mu whose values are numbers of shape
    () or mu's.
    To scale on another grid, pass dataclasses.replace(problem, grid=grid).
    """
    if not (0.0 < eps < math.inf):
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    eps = float(eps)
    cells = problem.cell_fields
    k = quad.n_negative
    # the cell fields are finite, so a scaled one that is not has overflowed,
    # or, for the inflow, was not finite as given
    with np.errstate(over="ignore"):
        fields = {
            "sigma": cells["sigma"] / eps,
            "gamma": eps * cells["gamma"],
            "source": eps * cells["source"],
            "inflow": eps * np.concatenate([
                _inflow(problem.g_right, quad.nodes[:k], "g_right"),
                _inflow(problem.g_left, quad.nodes[k:], "g_left")]),
        }
    for name, scaled in (("sigma", "sigma / eps"), ("gamma", "eps * gamma"),
                         ("source", "eps * source"), ("inflow", "eps * inflow")):
        if not np.isfinite(fields[name]).all():
            raise ValidationError(f"{scaled} is not finite at eps = {eps!r}")
    return fields


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution (transport or diffusion flavor) with its derivatives."""

    name: str
    u: object = None            # u(x, mu)
    du_dx: object = None
    ubar: object = None         # ubar(x)
    dubar_dx: object = None
    d2ubar_dx2: object = None

    @property
    def is_transport(self):
        return self.u is not None

    @property
    def is_diffusion(self):
        return self.ubar is not None


def manufactured_case(name, length=1.0):
    """Predefined manufactured cases on a slab of the given length.

    transport-poly : u = (x/L)(1 - x/L)(1 + mu)
    transport-trig : u = sin(pi x / L)(1 + mu/2)
    diffusion-sin  : ubar = sin(pi x / L)
    diffusion-parabola : ubar = (x/L)(1 - x/L)

    All cases vanish at both slab ends, so the zero-inflow and homogeneous
    Dirichlet boundary conditions are satisfied exactly.
    """
    L = float(length)
    if name == "transport-poly":
        return ManufacturedCase(
            name=name,
            u=lambda x, mu: (x / L) * (1.0 - x / L) * (1.0 + mu),
            du_dx=lambda x, mu: (1.0 - 2.0 * x / L) / L * (1.0 + mu),
        )
    if name == "transport-trig":
        return ManufacturedCase(
            name=name,
            u=lambda x, mu: np.sin(np.pi * x / L) * (1.0 + 0.5 * mu),
            du_dx=lambda x, mu: (np.pi / L) * np.cos(np.pi * x / L) * (1.0 + 0.5 * mu),
        )
    if name == "diffusion-sin":
        return ManufacturedCase(
            name=name,
            ubar=lambda x: np.sin(np.pi * x / L),
            dubar_dx=lambda x: (np.pi / L) * np.cos(np.pi * x / L),
            d2ubar_dx2=lambda x: -((np.pi / L) ** 2) * np.sin(np.pi * x / L),
        )
    if name == "diffusion-parabola":
        return ManufacturedCase(
            name=name,
            ubar=lambda x: (x / L) * (1.0 - x / L),
            dubar_dx=lambda x: (1.0 - 2.0 * x / L) / L,
            d2ubar_dx2=lambda x: np.full_like(np.asarray(x, dtype=float), -2.0 / L**2),
        )
    raise ValidationError(f"unknown manufactured case {name!r}")


def mms_transport_source(case, sigma, gamma, op, grid):
    """Source making the manufactured transport solution exact.

    f = mu du/dx + gamma u - sigma (K - I) u, evaluated on cell centers and
    the quadrature nodes of the operator.  sigma and gamma are callables of x
    (CoefficientField works).
    """
    quad = _require_slab(op, "transport manufactured source")
    if not case.is_transport:
        raise ValidationError(
            f"manufactured case {case.name!r} is not a transport case")
    xc = grid.centers
    mu = quad.nodes
    u = case.u(xc[:, None], mu[None, :])
    du = case.du_dx(xc[:, None], mu[None, :])
    scatter = apply_K(op, u) - u
    return mu[None, :] * du + gamma(xc)[:, None] * u - sigma(xc)[:, None] * scatter


def mms_diffusion_source(case, sigma, gamma, op):
    """Source callable making the manufactured diffusion solution exact.

    The slab diffusivity is a(x) = m_K / sigma(x) with m_K the slab moment
    of the certified operator op (diffusion_moment(op)[0, 0]).  sigma must
    expose derivative(x) (CoefficientField does); for piecewise fields the
    derivative is zero away from jumps, so manufactured verification is
    meaningful only for smooth sigma.
    """
    if not case.is_diffusion:
        raise ValidationError(
            f"manufactured case {case.name!r} is not a diffusion case")
    m_k = diffusion_moment(op)[0, 0]

    def f(x):
        x = np.asarray(x, dtype=float)
        s = sigma(x)
        ds = sigma.derivative(x) if hasattr(sigma, "derivative") else 0.0
        a = m_k / s
        da = -m_k * ds / s**2
        return -(da * case.dubar_dx(x) + a * case.d2ubar_dx2(x)) + gamma(x) * case.ubar(x)

    return f


# the least cell count of a study mesh, unless the study sets its own
FLOOR_CELLS = 64


def cells_for_eps(eps, length, floor=FLOOR_CELLS):
    """Mesh-coupling rule for rate studies: h <= eps/4 with a cell floor.

    The cell count is rounded up to an even number so interface-aligned
    material jumps at the midpoint stay aligned.
    """
    if not (eps > 0.0):
        raise ValidationError(f"eps must be positive, got {eps}")
    half = 2.0 * length / eps
    if not math.isfinite(half):
        raise ValidationError(f"eps = {eps!r} needs more cells than a float holds")
    n = max(int(floor), 2 * math.ceil(half))
    return n + (n % 2)
