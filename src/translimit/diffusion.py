"""Finite-volume solver for the limit diffusion problem on the slab.

Solves -(a(x) u')' + gamma(x) u = f(x) on (0, L) with u = 0 at both ends,
where a = m_K / sigma and m_K is the slab component of the velocity moment
of the certified scattering operator (velocity_space.diffusion_moment): 1/3
for isotropic scattering, 1/(3(1-g)) for the linear kernel.  Unknowns sit at
cell centers; interface diffusivities are harmonic averages, which keeps the
flux single-valued at material jumps and the scheme second order.  The
solution object also carries exact nodal values reconstructed from the
fluxes (zero at the boundary nodes by construction), the interface fluxes,
and flux-recovered cell gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ValidationError
from .velocity_space import diffusion_moment

__all__ = ["DiffusionSolution", "solve_diffusion"]


def interface_diffusivity(a):
    """Harmonic averages at interior interfaces, (n-1,) from (n,) cell values."""
    return 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])


def assemble_banded(a, gamma, h):
    """Upper-banded (2, n) form of the SPD tridiagonal operator.

    Row balance for cell i: (F_{i+1} - F_i)/h + gamma_i u_i, with harmonic
    interface fluxes and half-cell Dirichlet closures at both ends.
    """
    n = a.size
    ah = interface_diffusivity(a)
    diag = gamma.astype(float).copy()
    diag[:-1] += ah / h**2
    diag[1:] += ah / h**2
    diag[0] += 2.0 * a[0] / h**2
    diag[-1] += 2.0 * a[-1] / h**2
    ab = np.zeros((2, n))
    ab[0, 1:] = -ah / h**2
    ab[1, :] = diag
    return ab


def factor_operator(a, gamma, h):
    """Cholesky factorization of the banded operator, reusable across solves:
    one dpbtrf on the upper band storage of assemble_banded.

    A non-finite operator, or one LAPACK finds not positive definite, raises
    ValidationError, once per factor.  solve_cells checks nothing but
    LAPACK's info, so each caller checks its right-hand side first:
    solve_diffusion its evaluated fields, the transport DSA each sweep
    average.
    """
    ab = assemble_banded(a, gamma, h)
    if not np.isfinite(ab).all():
        raise ValidationError("banded diffusion operator is not finite")
    factor, info = dpbtrf(ab, overwrite_ab=1)
    if info != 0:
        raise ValidationError(
            f"banded diffusion factorization failed (dpbtrf info {info})")
    return factor


def solve_cells(factor, rhs):
    """Solve with the upper banded factor of factor_operator: one dpbtrs."""
    u, info = dpbtrs(factor, rhs)
    if info != 0:
        raise ValidationError(f"banded diffusion solve failed (dpbtrs info {info})")
    return u


def face_fluxes(u, a, ah, h):
    """Interface fluxes -a u' at all n+1 interfaces, Dirichlet 0 at the ends.

    ah is interface_diffusivity(a), passed in so that a caller applying
    the same operator many times computes it once.
    """
    flux = np.empty(u.size + 1)
    flux[1:-1] = -ah * (u[1:] - u[:-1]) / h
    flux[0] = -a[0] * (u[0] - 0.0) / (h / 2.0)
    flux[-1] = -a[-1] * (0.0 - u[-1]) / (h / 2.0)
    return flux


@dataclass(frozen=True)
class DiffusionSolution:
    """Discrete diffusion solution and its derived fields.

    u_cell : (n,) cell-center unknowns
    u_nodes : (n+1,) nodal values reconstructed from the fluxes; exactly zero
        at both boundary nodes, single-valued at material interfaces
    flux : (n+1,) interface fluxes -a u'
    grad : (n,) cell-center gradients recovered from the fluxes
    a11 : (n,) slab diffusivity used per cell
    """

    grid: object
    a11: np.ndarray
    u_cell: np.ndarray
    u_nodes: np.ndarray
    flux: np.ndarray
    grad: np.ndarray

    def at_centers(self):
        """Linear interpolation of the nodal values to cell centers."""
        return 0.5 * (self.u_nodes[:-1] + self.u_nodes[1:])


def solve_diffusion(problem, op):
    """Solve the limit diffusion problem with homogeneous Dirichlet data.

    Parameters
    ----------
    problem : ProblemSpec; uses its grid and its read-only cell_fields,
        sigma, gamma and source at the cell centers as given, which are the
        eps-independent data (a field that is not finite raises
        ValidationError there).
    op : certified ScatteringOperator, on a slab or a sphere quadrature;
        the diffusivity is a = m_K / sigma with
        m_K = diffusion_moment(op)[0, 0].
    """
    grid = problem.grid
    h = grid.h
    cells = problem.cell_fields
    gamma, rhs = cells["gamma"], cells["source"]
    a = diffusion_moment(op)[0, 0] / cells["sigma"]

    u = solve_cells(factor_operator(a, gamma, h), rhs)
    flux = face_fluxes(u, a, interface_diffusivity(a), h)

    # within each cell the profile has slope -flux/a; evaluating it at the
    # interior faces gives single-valued nodal values; the end nodes carry
    # the Dirichlet value itself, which the closure fluxes are built from
    nodes = np.zeros(u.size + 1)
    nodes[1:-1] = u[1:] + (h / 2.0) * flux[1:-1] / a[1:]
    grad = -0.5 * (flux[:-1] + flux[1:]) / a
    return DiffusionSolution(grid=grid, a11=a, u_cell=u, u_nodes=nodes,
                             flux=flux, grad=grad)
