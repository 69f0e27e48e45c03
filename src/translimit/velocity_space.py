"""Discrete velocity sets and scattering operators.

Velocities live either on the unit sphere (for the 3x3 diffusion tensor) or
on the slab interval mu in (-1, 1) (for the transport solver).  Both carry a
normalized measure: weights sum to one, so the constant function integrates
to one and the second moment of a single component is 1/3.

Scattering operators are assembled from symmetric kernels, certified against
the structural assumptions they must satisfy (weighted self-adjointness,
spectrum of I - K inside [0, 1], constants as the only null space), and
inverted on the mean-free complement.  An operator is only the kernel's
finite-rank factor k = Phi C Phi^T (Phi n x r, C symmetric r x r): K acts
through r kernel moments, the spectrum of I - K is that of an r x r core
plus the eigenvalue 1 on the rest, and the pseudoinverse is a rank-r update
of the identity, so none costs more than O(n r^2) after assembly.  A kernel
with no factor is the full-rank case Phi = I, r = n of the same computation.
Everything here runs on numpy alone, the core's eigensolver included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

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


# a 4096-node Gauss-Legendre rule sums to one within 1.1e-16
_WEIGHT_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss rule on mu in (-1, 1) with weights summing to one (measure dmu/2).

    nodes : (n,) ascending ordinates, n >= 1, none zero or nan, so the
        first n_negative of them enter the slab at x = L and the rest at x = 0
    weights : (n,) one finite, positive weight per node, summing to one
        within 1e-12

    Raises ValidationError for any other nodes or weights.  The transport
    sweep, the inflow and the outflow trace take the direction split from
    n_negative and the face measure from boundary_measure.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        weights = _readonly(self.weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValidationError(
                f"nodes {nodes.shape} and weights {weights.shape} must be "
                "1-D of one size")
        if nodes.size == 0:
            raise ValidationError("quadrature is empty")
        # nan fails both comparisons
        if not np.all(np.abs(nodes) > 0.0):
            raise ValidationError("quadrature contains a zero or nan ordinate")
        if not np.all(np.diff(nodes) >= 0.0):
            raise ValidationError("quadrature nodes must be ascending")
        if not np.all((weights > 0.0) & np.isfinite(weights)):
            raise ValidationError("quadrature weights must be finite and positive")
        total = float(np.sum(weights))
        if abs(total - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                f"quadrature weights sum to {total!r}, not 1 within "
                f"{_WEIGHT_SUM_TOLERANCE:g}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self):
        return self.weights.size

    @functools.cached_property
    def n_negative(self):
        """Number of ordinates mu < 0, which come first."""
        return int(np.searchsorted(self.nodes, 0.0))

    @functools.cached_property
    def boundary_measure(self):
        """Read-only (n,) weights * |nodes|, the measure of a face trace."""
        return _readonly(self.weights * np.abs(self.nodes))

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
    The nodes are ascending, as AngularQuadrature requires.
    """
    n = int(n)
    if n < 2 or n % 2 != 0:
        raise ValidationError(f"number of ordinates must be even and >= 2, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return AngularQuadrature(x, w / 2.0)


def kernel_isotropic():
    """Kernel k(v, v') = 1: scattering replaces a field by its average.

    Its factor (see assemble_scattering) has the one feature 1 and C = [1].
    """

    def k(v, vp):
        return np.ones(np.broadcast_shapes(v.shape[:-1], vp.shape[:-1]))

    k.factor = lambda coords: (np.ones((coords.shape[0], 1)), np.eye(1))
    return k


def kernel_linear(g):
    """Linearly anisotropic kernel k(v, v') = 1 + 3 g (v . v').

    Its factor (see assemble_scattering) has the 1 + d features [1, v] and
    C = diag(1, 3g, ..., 3g).
    """
    g = float(g)

    def k(v, vp):
        # one broadcast product per coordinate, summed left to right as
        # np.sum(v * vp, axis=-1) does, without its (..., d) temporary
        dot = v[..., 0] * vp[..., 0]
        for c in range(1, v.shape[-1]):
            dot += v[..., c] * vp[..., c]
        return 1.0 + 3.0 * g * dot

    def factor(coords):
        n, d = coords.shape
        return (np.column_stack([np.ones(n), coords]),
                np.diag(np.r_[1.0, np.full(d, 3.0 * g)]))

    k.factor = factor
    return k


@dataclass(frozen=True, eq=False)
class ScatteringOperator:
    """A scattering kernel on quadrature values, held as its finite-rank factor.

    K = D^-1 Phi C Phi^T W, W = diag(weights): features Phi (n, r), a
    symmetric core C (r, r) and the row sums D of the raw kernel, so that
    K 1 = 1 exactly.  No n x n matrix is kept: u (velocity last) reaches K
    through its kernel moments u @ to_moments = u W Phi, and M @ scatter =
    M C Phi^T / D maps them back to u K^T.  assemble_scattering, the one
    constructor, records the tabulated kernel's normalization defect, its
    weighted self-adjointness defect max |w_i K_ij - w_j K_ji| and its
    sup-norm row sum max_i sum_j |K_ij|; for a kernel with a factor it
    takes them tile by tile, so no n x n array is built at any point.

    The operator is immutable and owns what is derived from it, each
    computed once, on first use: its spectrum, its CertReport (certificate),
    its diffusion moment and its mean weights.  Read the certificate through
    certify_assumptions(op) and gate on it with .require() before reading
    the spectrum; the diffusion moment, read through diffusion_moment(op),
    gates itself and raises CertificationError on every read of an operator
    that fails certification.
    """

    quadrature: object
    features: np.ndarray
    core: np.ndarray
    row_sums: np.ndarray
    normalization_deviation: float
    kernel_min: float
    symmetry_defect: float
    row_sum_max: float
    warnings: tuple = ()
    to_moments: np.ndarray = field(init=False)
    scatter: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("features", "core", "row_sums"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "to_moments",
                           _readonly(self.weights[:, None] * self.features))
        object.__setattr__(self, "scatter",
                           _readonly((self.core @ self.features.T) / self.row_sums))

    @property
    def n(self):
        return self.quadrature.n

    @property
    def weights(self):
        return self.quadrature.weights

    @property
    def rank(self):
        """Number of kernel features r: the size of the spectral core."""
        return self.features.shape[1]

    @functools.cached_property
    def spectrum(self):
        """Eigendecomposition of I - K through its r x r core:
        (t, lam, basis, lam_core, null_dim).

        With T = diag(t), t = sqrt(weights * row_sums), the similarity
        T K T^-1 = A C A^T, A = diag(sqrt(weights / row_sums)) Phi, is exact.
        A QR factorization A = B R reduces it to the core R C R^T, whose
        eigenvalues mu (numpy's eigh, LAPACK's dsyevd) give
        lam_core = 1 - mu (ascending) with orthonormal
        eigenvectors basis = B Y (n, r) in T-space; I - K is the identity on
        their complement.  lam holds all n eigenvalues ascending, and
        null_dim counts those below NULL_CUTOFF, which all lie in the core.
        """
        t = np.sqrt(self.weights * self.row_sums)
        a = np.sqrt(self.weights / self.row_sums)[:, None] * self.features
        b, r = np.linalg.qr(a)
        mu, y = np.linalg.eigh(r @ self.core @ r.T)
        lam_core = 1.0 - mu[::-1]
        basis = b @ y[:, ::-1]
        lam = np.sort(np.concatenate([lam_core, np.ones(self.n - lam_core.size)]))
        return t, lam, basis, lam_core, int(np.searchsorted(lam, NULL_CUTOFF))

    @functools.cached_property
    def diffusion_moment(self):
        """Read-only (d, d) velocity moment; see diffusion_moment."""
        return _readonly(_diffusion_moment(self))

    @functools.cached_property
    def mean_weights(self):
        """Read-only (r,) weights z with features @ z = 1, so that the
        velocity average u @ weights is the moments' M @ z."""
        return _readonly(np.linalg.lstsq(self.features, np.ones(self.n),
                                         rcond=None)[0])

    @functools.cached_property
    def certificate(self):
        """The CertReport of this operator; see certify_assumptions."""
        t, lam, basis, _, null_dim = self.spectrum
        diagnostics = []

        ok_adjoint = self.symmetry_defect <= 1e-12
        if not ok_adjoint:
            diagnostics.append(f"weighted self-adjointness defect "
                               f"{self.symmetry_defect:.3e} exceeds 1e-12")

        # mean-square contraction and positivity, certified spectrally; the
        # sup-norm row-sum bound is recorded but cannot gate, because signed
        # kernels (linear anisotropy beyond g = 1/3) exceed it while remaining
        # positive operators
        ok_spectrum = bool(lam[0] >= -SPECTRUM_TOL and lam[-1] <= 1.0 + SPECTRUM_TOL)
        if not ok_spectrum:
            diagnostics.append(
                "spectrum of I-K not inside [0, 1]: "
                f"range [{lam[0]:.3e}, {lam[-1]:.3e}]"
            )
        if self.row_sum_max > 1.0 + SPECTRUM_TOL:
            diagnostics.append(
                f"sup-norm row sum {self.row_sum_max:.12g} exceeds 1 (signed kernel); "
                "mean-square contraction certified spectrally"
            )

        ok_null = null_dim == 1
        if ok_null:
            vec = basis[:, 0] / t
            dev = float(np.max(np.abs(vec - vec.mean())) / np.max(np.abs(vec)))
            if dev > 1e-8:
                ok_null = False
                diagnostics.append(
                    f"null eigenvector deviates from constant by {dev:.3e}")
        else:
            diagnostics.append(f"null space dimension {null_dim}, expected 1")

        # c_K bounds the inverse on the mean-free space; a null space wider
        # than the constants leaves part of that space with no inverse
        if null_dim <= 1 and null_dim < self.n and lam[null_dim] > 0.0:
            c_k = max(1.0, 1.0 / float(lam[null_dim]))
        else:
            c_k = float("inf")
            diagnostics.append("I - K has no bounded inverse on the mean-free space")

        return CertReport(
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
            symmetry_defect=self.symmetry_defect,
            row_sum_max=self.row_sum_max,
            warnings=self.warnings,
        )


# quadrature points on a side of a tile: assemble_scattering evaluates a
# factored kernel on tiles of _TILE x _TILE and holds one row block of
# _TILE x n and a few tiles, never the whole n x n table.  A multiple of 64,
# so that BLAS groups the rows of a row block as it groups those of the
# whole table, and every record keeps the whole table's bits
_TILE = 128


def assemble_scattering(kernel, quad):
    """Assemble the scattering operator K_ij = k(v_i, v_j) w_j / D_i.

    Parameters
    ----------
    kernel : callable k(v, v') acting entrywise on (..., d) coordinate
        arrays, so that its values on a block of rows and columns are the
        whole table's entries there
    quad : SphereQuadrature or AngularQuadrature

    Row sums D of the raw kernel are rescaled to one so the constant vector
    is reproduced exactly; a deviation beyond 1e-6 is recorded as a warning
    in the operator metadata.

    A kernel with a finite-rank factor carries it as kernel.factor(coords),
    returning features Phi (n, r) and a symmetric core C (r, r) with
    k(v_i, v_j) = (Phi C Phi^T)_ij; the factor must reproduce the tabulated
    kernel to 1e-10 relative.  Such a kernel is never tabulated whole, and
    no n x n array is built.  It is evaluated on tiles of _TILE x _TILE
    points in one pass over the row blocks, which reuses one row block of
    _TILE x n.  Row block J is filled tile by tile, each tile giving its
    minimum, maximum and factor defect while it is small; then come its row
    integrals D_J, the asymmetry and the weighted self-adjointness defect of
    the mirror tiles k(I, J) of the earlier row blocks I < J against its own
    k(J, I) and of its diagonal tile, and last, in place, |K| for the
    sup-norm row sum.  The kernel is evaluated once on the row blocks and
    once more on the tiles above the diagonal, and each record equals the
    whole table's bit for bit.  For a kernel without a factor, the
    tabulated kernel is its own core, Phi = I, C = k, r = n, and the tiles
    are read from it.

    Raises ValidationError, in this order, for kernel values of the wrong
    shape (for a kernel with a factor, found on the first tile and named
    with that tile's shape), an asymmetric kernel, a row integral that is
    not positive, a factor of the wrong shapes and a factor that does not
    reproduce the kernel.  Nothing divides by a row integral that is not
    positive.
    """
    coords = quad.coords
    n = quad.n
    w = quad.weights
    factor = getattr(kernel, "factor", None)
    if factor is None:
        table = _kernel_values(kernel, coords, coords)
        features, core, gram = np.eye(n), table, None

        def block(rows, cols):
            return table[rows, cols]
    else:
        features, core = (np.asarray(a, dtype=float) for a in factor(coords))
        r = features.shape[-1]
        shaped = features.shape == (n, r) and core.shape == (r, r)
        gram = core @ features.T if shaped else None

        def block(rows, cols):
            return _kernel_values(kernel, coords[rows], coords[cols])

    tiles = _tiles(n)
    rows = np.empty(n)
    abs_row_sums = np.empty(n)
    row_block = np.empty((max(b.stop - b.start for b in tiles), n))
    kmins, kmaxs, defects, asyms, weighted, positive = [], [], [], [], [], []
    for j, bj in enumerate(tiles):
        kb = row_block[:bj.stop - bj.start]
        for cols in tiles:
            tile = block(bj, cols)
            kb[:, cols] = tile
            kmins.append(tile.min())
            kmaxs.append(tile.max())
            if gram is not None:
                d = features[bj] @ gram[:, cols]
                d -= tile
                defects.append(np.abs(d, out=d).max())
        rows[bj] = kb @ w
        positive.append(not (rows[bj] <= 0.0).any())
        # k(I, J) against k(J, I) for I < J, then the diagonal tile
        for i, bi in enumerate(tiles[:j + 1]):
            kij = kb[:, bj] if i == j else block(bi, bj)
            kji = kb[:, bi]
            asyms.append(_max_asymmetry(kij, kji))
            if positive[i] and positive[j]:
                wij = _weighted(kij, bi, bj, w, rows)
                weighted.append(_max_asymmetry(
                    wij, wij if i == j else _weighted(kji, bj, bi, w, rows)))
        if positive[j]:
            # K = (k w) / D
            kb *= w
            kb /= rows[bj, None]
            abs_row_sums[bj] = np.abs(kb, out=kb).sum(axis=1)

    asym = float(np.max(asyms))
    kmin = float(np.min(kmins))
    # max |k| without an |k| pass
    scale = max(1.0, float(np.maximum(np.max(kmaxs), -kmin)))
    if asym > 1e-10 * scale:
        raise ValidationError(f"kernel is not symmetric: max asymmetry {asym:.3e}")

    warnings = []
    if kmin < 0.0:
        # pointwise negativity does not by itself break operator positivity
        # (certification checks the spectrum); record it instead of rejecting
        warnings.append(f"kernel takes negative values (min {kmin:.6g})")

    if not all(positive):
        raise ValidationError("kernel row integral is not positive; cannot normalize")
    deviation = float(np.max(np.abs(rows - 1.0)))
    if deviation > 1e-6:
        warnings.append(f"row normalization factor deviates from 1 by {deviation:.3e}")

    if factor is not None:
        if gram is None:
            raise ValidationError(
                f"kernel factor has shapes {features.shape} and {core.shape}, "
                f"expected ({n}, r) and (r, r)"
            )
        defect = float(np.max(defects))
        if defect > 1e-10 * scale:
            raise ValidationError(
                f"kernel factor does not reproduce the kernel: max defect {defect:.3e}"
            )
    # eigh reads one triangle: symmetrize (a no-op on a symmetric core)
    core = 0.5 * (core + core.T)
    return ScatteringOperator(
        quadrature=quad,
        features=features,
        core=core,
        row_sums=rows,
        normalization_deviation=deviation,
        kernel_min=kmin,
        symmetry_defect=float(np.max(weighted)),
        row_sum_max=float(np.max(abs_row_sums)),
        warnings=tuple(warnings),
    )


def _tiles(n):
    """Slices of _TILE points that cover range(n), the last one taking a
    single point left over: numpy forms a one-row matrix product with a dot
    product, not with the BLAS routine that the whole table's rows use, and
    the records would lose their bits."""
    starts = list(range(0, n, _TILE))
    if n > 1 and n % _TILE == 1:
        starts.pop()
    return [slice(start, start + _TILE) for start in starts[:-1]] + [slice(starts[-1], n)]


def _kernel_values(kernel, rows, cols):
    """The kernel on rows x cols of coordinates, as a float array of that
    shape; ValidationError for values of any other shape."""
    values = np.asarray(kernel(rows[:, None, :], cols[None, :, :]), dtype=float)
    if values.shape != (len(rows), len(cols)):
        raise ValidationError(f"kernel values have shape {values.shape}, "
                              f"expected {(len(rows), len(cols))}")
    return values


def _weighted(k, bi, bj, w, rows):
    """w_i K_ij on the kernel's tile (bi, bj), rounded as the dense table
    rounds it: (k_ij w_j / D_i) w_i."""
    a = k * w[bj]
    a /= rows[bi, None]
    a *= w[bi, None]
    return a


def _max_asymmetry(a, b):
    """max |a - b^T| of a tile a and its mirror tile b."""
    d = a - b.T
    return np.abs(d, out=d).max()


@dataclass(frozen=True)
class CertReport:
    """Certification record for a scattering operator.

    eigenvalues : spectrum of I - K in the weighted inner product, ascending
    null_space_dim : number of eigenvalues below the null cutoff
    c_K : reciprocal of the smallest nonzero eigenvalue (stability constant
        of the pseudoinverse), clipped to >= 1; infinite when undefined or
        when the null space has more than one dimension
    passed : per-assumption booleans (self_adjoint, contraction, null_space,
        solvability)
    diagnostics : the checks' notes: why one failed, or a sup-norm row sum
        above 1 that the spectral check certifies
    symmetry_defect, row_sum_max : the operator's, as its assembly measured
        them for the checks
    warnings : what the operator's assembly recorded without rejecting it
        (a negative kernel value, a row normalization far from 1)
    """

    eigenvalues: np.ndarray
    null_space_dim: int
    c_K: float
    passed: dict
    diagnostics: tuple = ()
    symmetry_defect: float = 0.0
    row_sum_max: float = 1.0
    warnings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))

    @property
    def all_passed(self):
        return all(self.passed.values())

    def require(self):
        """The one certification gate: return this report if every
        assumption passed, else raise CertificationError carrying it."""
        if not self.all_passed:
            raise CertificationError(
                "scattering operator failed certification: "
                + "; ".join(self.diagnostics),
                report=self,
            )
        return self


def certify_assumptions(op):
    """Certify the structural assumptions on a scattering operator.

    Checks, in the weighted inner product:
      self_adjoint : w_i K_ij = w_j K_ji within 1e-12
      contraction  : spectrum of I - K inside [-SPECTRUM_TOL,
                     1 + SPECTRUM_TOL] (positivity and the mean-square
                     bound); the sup-norm row sum is recorded in the report
                     but does not gate
      null_space   : exactly one zero eigenvalue, with constant eigenvector
      solvability  : at most the constants in the null space and the
                     smallest nonzero eigenvalue positive, so the inverse on
                     the mean-free space is bounded by c_K

    Returns op.certificate, the CertReport the operator computes once.  A
    failing report is returned, not raised: every operation that reads the
    spectrum gates first with certify_assumptions(op).require().
    """
    return op.certificate


def _require_slab(op, what):
    """The slab quadrature op is assembled on; ValidationError for an
    operator on the sphere or anything that is not an operator."""
    quad = getattr(op, "quadrature", None)
    if not isinstance(quad, AngularQuadrature):
        raise ValidationError(f"{what} needs an operator on a slab quadrature")
    return quad


def apply_K(op, field_values):
    """Apply K along the velocity axis through the kernel moments, O(n r).

    Accepts a single velocity vector (n,) or a space-velocity field with
    velocity last, e.g. (n_cells, n); each spatial slice is mapped
    independently.
    """
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape[-1] != op.n:
        raise ValidationError(
            f"field has last dimension {field_values.shape[-1]}, expected {op.n}"
        )
    return (field_values @ op.to_moments) @ op.scatter


def pinv_apply(op, rhs):
    """Solve (I - K) u = rhs for the unique zero-mean solution.

    Raises CertificationError for an operator that fails certification.  The
    right-hand side must have zero weighted mean (relative to its weighted
    norm) within 1e-10; otherwise the system is not solvable and a
    SolvabilityError is raised.  Works on (n,) vectors or (..., n) stacks.
    The weighted norm of the result is bounded by c_K times that of rhs.
    The cost is O(n r) per vector, r the operator's rank (see spectrum).
    """
    certify_assumptions(op).require()
    t, _, basis, lam_core, null_dim = op.spectrum
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != op.n:
        raise ValidationError(f"rhs has last dimension {rhs.shape[-1]}, expected {op.n}")

    w = op.weights
    mean = rhs @ w
    norm_w = np.sqrt(np.maximum(rhs**2 @ w, 0.0))
    bad = np.abs(mean) > 1e-10 * np.maximum(norm_w, 1e-300)
    if np.any(bad):
        worst = float(np.max(np.abs(mean)))
        raise SolvabilityError(
            "right-hand side has nonzero weighted mean "
            f"(max |mean| = {worst:.3e}); the system is only solvable for "
            "mean-free data"
        )

    # in T-space I - K is the identity off the core's eigenvectors, so its
    # pseudoinverse is x + basis (lam_core^+ - 1) basis^T x
    inv = np.zeros_like(lam_core)
    inv[null_dim:] = 1.0 / lam_core[null_dim:]
    x = rhs * t
    return (x + ((x @ basis) * (inv - 1.0)) @ basis.T) / t


@dataclass(frozen=True)
class DiffusionTensor:
    """Macroscopic diffusion tensor moment / sigma[c] with its coercivity bound.

    moment : the sigma-independent 3x3 velocity moment; the tensor of cell c
        is moment / sigma[c], and its eigenvalues are eigenvalues / sigma[c]
    eigenvalues : ascending eigenvalues of moment
    sigma : (n_cells,) finite, strictly positive cross section
    coercivity_lb : smallest tensor eigenvalue over all cells
    """

    moment: np.ndarray
    eigenvalues: np.ndarray
    sigma: np.ndarray
    coercivity_lb: float

    def __post_init__(self):
        for name in ("moment", "eigenvalues", "sigma"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_cells(self):
        return self.sigma.size


def diffusion_moment(op):
    """Velocity moment sum_i w_i v_i ((I-K)^+ v)(v_i) of a certified operator.

    The diffusivity of the limit equation is this (d, d) matrix divided by
    sigma: 1x1 on the slab, 3x3 on the sphere.  The pseudoinverse is applied
    to each velocity component function, all of which have zero mean by the
    odd symmetry of the quadrature.  The operator computes it once and
    returns the same read-only array on every later call.
    """
    return op.diffusion_moment


def _diffusion_moment(op):
    """The moment diffusion_moment(op) returns, computed afresh."""
    coords = op.quadrature.coords
    b = coords.T @ (op.weights[:, None] * pinv_apply(op, coords.T).T)
    return 0.5 * (b + b.T)


def diffusion_tensor(op, sigma):
    """The diffusion tensor diffusion_moment(op) / sigma of each cell.

    Requires a certified operator on a sphere quadrature and a nonempty
    sigma of finite, strictly positive values: an empty sigma, NaN and inf
    raise ValidationError, as 0 does.
    Coercivity of each cell tensor against |xi|^2 / (3 sigma) is enforced.
    """
    if not isinstance(op.quadrature, SphereQuadrature):
        raise ValidationError("diffusion_tensor requires a sphere quadrature")
    certify_assumptions(op).require()
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sigma.size == 0:
        raise ValidationError("sigma needs at least one value")
    if not np.all((sigma > 0.0) & (sigma < np.inf)):
        raise ValidationError("sigma values must be finite and strictly positive")

    b = diffusion_moment(op)
    eigs = np.linalg.eigvalsh(b)
    if eigs[0] < (1.0 - 1e-8) / 3.0:
        raise CertificationError(
            f"diffusion tensor coercivity {eigs[0]:.12g} below the bound 1/3"
        )
    coercivity_lb = float(eigs[0] / np.max(sigma))
    return DiffusionTensor(moment=b, eigenvalues=eigs, sigma=sigma,
                           coercivity_lb=coercivity_lb)
