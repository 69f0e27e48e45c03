"""Discrete velocity sets and scattering operators.

Velocities live either on the unit sphere (for the 3x3 diffusion tensor) or
on the slab interval mu in (-1, 1) (for the transport solver).  Both carry a
normalized measure: weights sum to one, so the constant function integrates
to one and the second moment of a single component is 1/3.

Scattering operators are assembled from symmetric kernels, certified against
the structural assumptions they must satisfy (weighted self-adjointness,
spectrum of I - K inside [0, 1], constants as the only null space), and
inverted on the mean-free complement through their eigendecomposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CertificationError, SolvabilityError, ValidationError

__all__ = [
    "SphereQuadrature",
    "AngularQuadrature",
    "ScatteringOperator",
    "CertReport",
    "DiffusionTensor",
    "build_sphere_quadrature",
    "build_angular_quadrature",
    "kernel_isotropic",
    "kernel_linear",
    "assemble_scattering",
    "certify_assumptions",
    "apply_K",
    "pinv_apply",
    "diffusion_moment",
    "diffusion_tensor",
]

# eigenvalues of I - K below this are treated as exact zeros (null space)
NULL_CUTOFF = 1e-10
SPECTRUM_TOL = 1e-10


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SphereQuadrature:
    """Quadrature on the unit sphere with normalized measure.

    points : (n, 3) array of unit vectors
    weights : (n,) array of positive weights summing to one
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(self.points))
        object.__setattr__(self, "weights", _readonly(self.weights))

    @property
    def n(self):
        return self.weights.size

    @property
    def coords(self):
        """Velocity coordinates as an (n, d) array, d = 3 on the sphere."""
        return self.points


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss rule on mu in (-1, 1) with weights summing to one (measure dmu/2)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))

    @property
    def n(self):
        return self.weights.size

    @property
    def coords(self):
        return self.nodes[:, None]


def build_sphere_quadrature(n_polar, n_azimuth):
    """Product rule: Gauss-Legendre in the polar cosine, uniform in azimuth.

    Exact for spherical polynomials up to combined degree
    min(2*n_polar - 1, n_azimuth - 1).  The normalized measure makes
    sum(w) = 1, sum(w v) = 0 and sum(w v v^T) = I/3 hold to roundoff.
    """
    n_polar = int(n_polar)
    n_azimuth = int(n_azimuth)
    if n_polar < 2:
        raise ValidationError(f"n_polar must be >= 2, got {n_polar}")
    if n_azimuth < 4:
        raise ValidationError(f"n_azimuth must be >= 4, got {n_azimuth}")
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    wmu = wmu / 2.0
    phi = 2.0 * np.pi * (np.arange(n_azimuth) + 0.5) / n_azimuth
    s = np.sqrt(1.0 - mu**2)
    # outer product layout: polar index varies slowest
    vx = np.outer(s, np.cos(phi)).ravel()
    vy = np.outer(s, np.sin(phi)).ravel()
    vz = np.outer(mu, np.ones(n_azimuth)).ravel()
    w = np.outer(wmu, np.full(n_azimuth, 1.0 / n_azimuth)).ravel()
    return SphereQuadrature(np.column_stack([vx, vy, vz]), w)


def build_angular_quadrature(n):
    """Gauss-Legendre rule on (-1, 1), weights rescaled to the measure dmu/2.

    n must be even so that the node set is symmetric and excludes mu = 0.
    """
    n = int(n)
    if n < 2 or n % 2 != 0:
        raise ValidationError(f"number of ordinates must be even and >= 2, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return AngularQuadrature(x, w / 2.0)


def kernel_isotropic():
    """Kernel k(v, v') = 1: scattering replaces a field by its average."""

    def k(v, vp):
        return np.ones(np.broadcast_shapes(v.shape[:-1], vp.shape[:-1]))

    return k


def kernel_linear(g):
    """Linearly anisotropic kernel k(v, v') = 1 + 3 g (v . v')."""
    g = float(g)

    def k(v, vp):
        # one broadcast product per coordinate, summed left to right as
        # np.sum(v * vp, axis=-1) does, without its (..., d) temporary
        dot = v[..., 0] * vp[..., 0]
        for c in range(1, v.shape[-1]):
            dot += v[..., c] * vp[..., c]
        return 1.0 + 3.0 * g * dot

    return k


@dataclass(eq=False)
class ScatteringOperator:
    """Matrix action of a scattering kernel on quadrature values.

    The matrix is row-normalized at assembly so that K 1 = 1 exactly.  For a
    symmetric kernel the operator is self-adjoint in the weighted inner
    product (u, v)_w = sum_i w_i u_i v_i up to the normalization defect,
    which is recorded in the metadata rather than silently repaired.
    """

    matrix: np.ndarray
    quadrature: object
    normalization_deviation: float = 0.0
    kernel_min: float = 0.0
    warnings: tuple = ()
    _cert: object = field(default=None, repr=False)
    _decomp: object = field(default=None, repr=False)

    def __post_init__(self):
        self.matrix = _readonly(self.matrix)

    @property
    def n(self):
        return self.quadrature.n

    @property
    def weights(self):
        return self.quadrature.weights

    def symmetry_defect(self):
        """max |w_i K_ij - w_j K_ji|, the weighted self-adjointness defect."""
        wk = self.weights[:, None] * self.matrix
        return float(np.max(np.abs(wk - wk.T)))


def assemble_scattering(kernel, quad):
    """Assemble the scattering matrix K_ij = k(v_i, v_j) w_j, row-normalized.

    Parameters
    ----------
    kernel : callable k(v, v') acting on (..., d) coordinate arrays, or an
        (n, n) table of kernel values (row i, column j = k(v_i, v_j)).
    quad : SphereQuadrature or AngularQuadrature

    Row sums of the raw kernel are rescaled to one so the constant vector is
    reproduced exactly; a deviation beyond 1e-6 is recorded as a warning in
    the operator metadata.
    """
    coords = quad.coords
    n = quad.n
    if callable(kernel):
        kmat = np.asarray(kernel(coords[:, None, :], coords[None, :, :]), dtype=float)
    else:
        kmat = np.asarray(kernel, dtype=float)
    if kmat.shape != (n, n):
        raise ValidationError(f"kernel table has shape {kmat.shape}, expected {(n, n)}")
    asym = float(np.max(np.abs(kmat - kmat.T)))
    scale = max(1.0, float(np.max(np.abs(kmat))))
    if asym > 1e-10 * scale:
        raise ValidationError(f"kernel is not symmetric: max asymmetry {asym:.3e}")

    warnings = []
    kmin = float(kmat.min())
    if kmin < 0.0:
        # pointwise negativity does not by itself break operator positivity
        # (certification checks the spectrum); record it instead of rejecting
        warnings.append(f"kernel takes negative values (min {kmin:.6g})")

    rows = kmat @ quad.weights
    if np.any(rows <= 0.0):
        raise ValidationError("kernel row integral is not positive; cannot normalize")
    deviation = float(np.max(np.abs(rows - 1.0)))
    if deviation > 1e-6:
        warnings.append(f"row normalization factor deviates from 1 by {deviation:.3e}")
    K = kmat * quad.weights[None, :] / rows[:, None]
    return ScatteringOperator(
        matrix=K,
        quadrature=quad,
        normalization_deviation=deviation,
        kernel_min=kmin,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class CertReport:
    """Certification record for a scattering operator.

    eigenvalues : spectrum of I - K in the weighted inner product, ascending
    null_space_dim : number of eigenvalues below the null cutoff
    c_K : reciprocal of the smallest nonzero eigenvalue (stability constant
        of the pseudoinverse), clipped to >= 1; infinite when undefined
    passed : per-assumption booleans (self_adjoint, contraction, null_space,
        solvability)
    """

    eigenvalues: np.ndarray
    null_space_dim: int
    c_K: float
    passed: dict
    diagnostics: tuple = ()
    symmetry_defect: float = 0.0
    row_sum_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))

    @property
    def all_passed(self):
        return all(self.passed.values())

    def as_dict(self):
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "c_K": float(self.c_K) if np.isfinite(self.c_K) else None,
            "null_space_dim": int(self.null_space_dim),
            "passed": {k: bool(v) for k, v in self.passed.items()},
            "all_passed": bool(self.all_passed),
            "diagnostics": list(self.diagnostics),
            "symmetry_defect": float(self.symmetry_defect),
            "row_sum_max": float(self.row_sum_max),
        }

    def to_json(self, **kwargs):
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.as_dict(), **kwargs)


def _decomposition(op):
    """Weighted-symmetric eigendecomposition of I - K, cached on the operator."""
    if op._decomp is None:
        w = op.weights
        s = np.sqrt(w)
        m = np.eye(op.n) - op.matrix
        sym = (s[:, None] * m) / s[None, :]
        sym = 0.5 * (sym + sym.T)
        lam, q = scipy.linalg.eigh(sym)
        null_dim = int(np.searchsorted(lam, NULL_CUTOFF))
        op._decomp = (s, lam, q, null_dim)
    return op._decomp


def certify_assumptions(op, tol=SPECTRUM_TOL):
    """Certify the structural assumptions on a scattering operator.

    Checks, in the weighted inner product:
      self_adjoint : w_i K_ij = w_j K_ji within 1e-12
      contraction  : spectrum of I - K inside [-tol, 1 + tol] (positivity
                     and the mean-square bound); the sup-norm row sum is
                     recorded in the report but does not gate
      null_space   : exactly one zero eigenvalue, with constant eigenvector
      solvability  : smallest nonzero eigenvalue is positive, so the
                     restricted inverse is bounded by c_K

    Returns a CertReport; the report is cached on the operator.  A failing
    report is returned, not raised; operations that require a certified
    operator raise CertificationError themselves.
    """
    if op._cert is not None:
        return op._cert
    s, lam, q, null_dim = _decomposition(op)
    diagnostics = []

    sym_defect = op.symmetry_defect()
    ok_adjoint = sym_defect <= 1e-12
    if not ok_adjoint:
        diagnostics.append(
            f"weighted self-adjointness defect {sym_defect:.3e} exceeds 1e-12"
        )

    # mean-square contraction and positivity, certified spectrally; the
    # sup-norm row-sum bound is recorded but cannot gate, because signed
    # kernels (linear anisotropy beyond g = 1/3) exceed it while remaining
    # positive operators
    row_sum_max = float(np.max(np.abs(op.matrix).sum(axis=1)))
    ok_spectrum = bool(lam[0] >= -tol and lam[-1] <= 1.0 + tol)
    if not ok_spectrum:
        diagnostics.append(
            f"spectrum of I-K not inside [0, 1]: range [{lam[0]:.3e}, {lam[-1]:.3e}]"
        )
    if row_sum_max > 1.0 + tol:
        diagnostics.append(
            f"sup-norm row sum {row_sum_max:.12g} exceeds 1 (signed kernel); "
            "mean-square contraction certified spectrally"
        )

    ok_null = null_dim == 1
    if ok_null:
        vec = q[:, 0] / s
        dev = float(np.max(np.abs(vec - vec.mean())) / np.max(np.abs(vec)))
        if dev > 1e-8:
            ok_null = False
            diagnostics.append(f"null eigenvector deviates from constant by {dev:.3e}")
    else:
        diagnostics.append(f"null space dimension {null_dim}, expected 1")

    if null_dim < op.n and lam[null_dim] > 0.0:
        c_k = max(1.0, 1.0 / float(lam[null_dim]))
    else:
        c_k = float("inf")
        diagnostics.append("no positive eigenvalue outside the null space")

    report = CertReport(
        eigenvalues=lam,
        null_space_dim=null_dim,
        c_K=c_k,
        passed={
            "self_adjoint": ok_adjoint,
            "contraction": ok_spectrum,
            "null_space": ok_null,
            "solvability": bool(np.isfinite(c_k)),
        },
        diagnostics=tuple(diagnostics),
        symmetry_defect=sym_defect,
        row_sum_max=row_sum_max,
    )
    op._cert = report
    return report


def _require_certified(op):
    report = certify_assumptions(op)
    if not report.all_passed:
        raise CertificationError(
            "scattering operator failed certification: " + "; ".join(report.diagnostics),
            report=report,
        )
    return report


def apply_K(op, field_values):
    """Apply the scattering matrix along the velocity axis.

    Accepts a single velocity vector (n,) or a space-velocity field with
    velocity last, e.g. (n_cells, n); each spatial slice is mapped
    independently.
    """
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape[-1] != op.n:
        raise ValidationError(
            f"field has last dimension {field_values.shape[-1]}, expected {op.n}"
        )
    return field_values @ op.matrix.T


def pinv_apply(op, rhs, mean_tol=1e-10):
    """Solve (I - K) u = rhs for the unique zero-mean solution.

    The right-hand side must have zero weighted mean (relative to its
    weighted norm) within mean_tol; otherwise the system is not solvable and
    a SolvabilityError is raised.  Works on (n,) vectors or (..., n) stacks.
    The weighted norm of the result is bounded by c_K times that of rhs.
    """
    report = _require_certified(op)
    s, lam, q, null_dim = _decomposition(op)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != op.n:
        raise ValidationError(f"rhs has last dimension {rhs.shape[-1]}, expected {op.n}")

    w = op.weights
    mean = rhs @ w
    norm_w = np.sqrt(np.maximum(rhs**2 @ w, 0.0))
    bad = np.abs(mean) > mean_tol * np.maximum(norm_w, 1e-300)
    if np.any(bad):
        worst = float(np.max(np.abs(mean)))
        raise SolvabilityError(
            "right-hand side has nonzero weighted mean "
            f"(max |mean| = {worst:.3e}); the system is only solvable for "
            "mean-free data"
        )

    inv = np.zeros_like(lam)
    inv[null_dim:] = 1.0 / lam[null_dim:]
    coeff = (rhs * s) @ q
    coeff = coeff * inv
    return (coeff @ q.T) / s


@dataclass(frozen=True)
class DiffusionTensor:
    """Per-cell macroscopic diffusion tensor with its coercivity bound.

    matrices : (n_cells, 3, 3) symmetric positive definite tensors
    coercivity_lb : smallest tensor eigenvalue over all cells
    moment : the sigma-independent 3x3 velocity moment, so that
        matrices[c] = moment / sigma[c]
    """

    matrices: np.ndarray
    coercivity_lb: float
    moment: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrices", _readonly(self.matrices))
        object.__setattr__(self, "moment", _readonly(self.moment))
        object.__setattr__(self, "sigma", _readonly(self.sigma))

    @property
    def n_cells(self):
        return self.matrices.shape[0]


def diffusion_moment(op):
    """Velocity moment sum_i w_i v_i ((I-K)^+ v)(v_i) of a certified operator.

    The diffusivity of the limit equation is this (d, d) matrix divided by
    sigma: 1x1 on the slab, 3x3 on the sphere.  The pseudoinverse is applied
    to each velocity component function, all of which have zero mean by the
    odd symmetry of the quadrature.
    """
    coords = op.quadrature.coords
    b = coords.T @ (op.weights[:, None] * pinv_apply(op, coords.T).T)
    return 0.5 * (b + b.T)


def diffusion_tensor(op, sigma):
    """Assemble the per-cell diffusion tensor diffusion_moment(op) / sigma.

    Requires a certified operator on a sphere quadrature and strictly
    positive sigma.  Coercivity of each cell tensor against
    |xi|^2 / (3 sigma) is enforced.
    """
    if not isinstance(op.quadrature, SphereQuadrature):
        raise ValidationError("diffusion_tensor requires a sphere quadrature")
    _require_certified(op)
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if np.any(sigma <= 0.0):
        raise ValidationError("sigma values must be strictly positive")

    b = diffusion_moment(op)
    eigs = np.linalg.eigvalsh(b)
    if eigs[0] < (1.0 - 1e-8) / 3.0:
        raise CertificationError(
            f"diffusion tensor coercivity {eigs[0]:.12g} below the bound 1/3"
        )
    matrices = b[None, :, :] / sigma[:, None, None]
    coercivity_lb = float(eigs[0] / np.max(sigma))
    return DiffusionTensor(matrices=matrices, coercivity_lb=coercivity_lb,
                           moment=b, sigma=sigma)
