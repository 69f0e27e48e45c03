import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from translimit import (
    CoefficientField,
    Grid1D,
    ProblemSpec,
    ValidationError,
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    kernel_isotropic,
    kernel_linear,
    scaled_fields,
    space_velocity_norm,
    split_mean_fluctuation,
)


@pytest.fixture(scope="session")
def quad8():
    return build_angular_quadrature(8)


@pytest.fixture(scope="session")
def quad16():
    return build_angular_quadrature(16)


@pytest.fixture(scope="session")
def sphere48():
    return build_sphere_quadrature(4, 8)


@pytest.fixture(scope="session")
def iso8(quad8):
    """Isotropic scattering operator on 8 ordinates (slab moment 1/3)."""
    return assemble_scattering(kernel_isotropic(), quad8)


@pytest.fixture(scope="session")
def iso16(quad16):
    """Isotropic scattering operator on 16 ordinates."""
    return assemble_scattering(kernel_isotropic(), quad16)


def make_problem(n_cells=100, sigma=1.0, gamma=1.0, source=1.0, length=1.0,
                 **kwargs):
    """Unit-slab problem with constant coefficients unless fields are given."""
    def field(v):
        return v if isinstance(v, CoefficientField) else CoefficientField.constant(v)

    return ProblemSpec(
        grid=Grid1D(length, n_cells),
        sigma=field(sigma),
        gamma=field(gamma),
        source=field(source),
        **kwargs,
    )


# inflow data that scaled_fields rejects with ValidationError on a
# quadrature with four ordinates of each sign; a callable's values of shape
# (1,) are not taken for a constant
BAD_INFLOWS = {
    "callable-length": lambda mu: np.ones(3),
    "callable-one": lambda mu: np.ones(1),
    "callable-text": lambda mu: "x",
    "text": "x",
    "array": np.ones(4),
}


@pytest.fixture
def unit_problem():
    return make_problem


def smooth_benchmark(n_cells=64):
    """The smooth heterogeneous benchmark used by the rate studies."""
    return make_problem(
        n_cells=n_cells,
        sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0),
        gamma=1.0,
        source=1.0,
    )


def l2_error(a, b, grid, quad):
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(grid.h * np.sum((d**2) @ quad.weights)))


def split_energy_sq(field, eps, grid, quad):
    """The split form |u - ubar|^2/eps + eps|ubar|^2 that the collision
    energy norm squared is equivalent to."""
    mean, fluct = split_mean_fluctuation(field, quad)
    mean_sq = grid.h * float(np.sum(mean**2))
    return space_velocity_norm(fluct, grid, quad) ** 2 / eps + eps * mean_sq


def dense_scattering(kernel, quad):
    """Reference tabulation K_ij = k(v_i, v_j) w_j / D_i, D_i = sum_j k(v_i, v_j) w_j.

    Built from the kernel callable and the quadrature alone, never from the
    kernel's factor, in the order the certificate's checks round in:
    (k * w) / D.
    """
    coords = quad.coords
    kmat = np.asarray(kernel(coords[:, None, :], coords[None, :, :]), dtype=float)
    return kmat * quad.weights[None, :] / (kmat @ quad.weights)[:, None]


def dense_certificate_values(matrix, weights):
    """Weighted self-adjointness defect max |w_i K_ij - w_j K_ji| and sup-norm
    row sum max_i sum_j |K_ij| of a dense scattering matrix."""
    wk = weights[:, None] * matrix
    return float(np.max(np.abs(wk - wk.T))), float(np.max(np.abs(matrix).sum(axis=1)))


def dense_assembly(kernel, quad):
    """The records assemble_scattering keeps, taken from the whole n x n table.

    The dense algorithm the tiled assembly replaced, kept as its oracle: it
    tabulates the kernel once and rounds every record as the tiles must,
    and raises ValidationError with the same messages in the same order.
    Returns a dict of features, core, row_sums, normalization_deviation,
    kernel_min, symmetry_defect, row_sum_max and warnings.
    """
    coords = quad.coords
    n = quad.n
    w = quad.weights
    kmat = np.asarray(kernel(coords[:, None, :], coords[None, :, :]), dtype=float)
    if kmat.shape != (n, n):
        raise ValidationError(f"kernel values have shape {kmat.shape}, expected {(n, n)}")
    asym = float(np.max(np.abs(kmat - kmat.T)))
    scale = max(1.0, float(np.max(np.abs(kmat))))
    if asym > 1e-10 * scale:
        raise ValidationError(f"kernel is not symmetric: max asymmetry {asym:.3e}")

    warnings = []
    kmin = float(kmat.min())
    if kmin < 0.0:
        warnings.append(f"kernel takes negative values (min {kmin:.6g})")
    rows = kmat @ w
    if np.any(rows <= 0.0):
        raise ValidationError("kernel row integral is not positive; cannot normalize")
    deviation = float(np.max(np.abs(rows - 1.0)))
    if deviation > 1e-6:
        warnings.append(f"row normalization factor deviates from 1 by {deviation:.3e}")

    factor = getattr(kernel, "factor", None)
    if factor is None:
        features, core = np.eye(n), kmat
    else:
        features, core = (np.asarray(a, dtype=float) for a in factor(coords))
        r = features.shape[-1]
        if features.shape != (n, r) or core.shape != (r, r):
            raise ValidationError(
                f"kernel factor has shapes {features.shape} and {core.shape}, "
                f"expected ({n}, r) and (r, r)"
            )
        defect = float(np.max(np.abs(features @ (core @ features.T) - kmat)))
        if defect > 1e-10 * scale:
            raise ValidationError(
                f"kernel factor does not reproduce the kernel: max defect {defect:.3e}"
            )
    matrix = kmat * w / rows[:, None]
    weighted = matrix * w[:, None]
    return {
        "features": features,
        "core": 0.5 * (core + core.T),
        "row_sums": rows,
        "normalization_deviation": deviation,
        "kernel_min": kmin,
        "symmetry_defect": float(np.max(np.abs(weighted - weighted.T))),
        "row_sum_max": float(np.max(np.abs(matrix).sum(axis=1))),
        "warnings": tuple(warnings),
    }


def spec_kernel(spec):
    """The kernel callable a KernelSpec assembles its operator from."""
    return kernel_isotropic() if spec.kind == "isotropic" else kernel_linear(spec.g_factor)


def cell_equation_residual(solution, problem, eps, kernel):
    """Largest relative defect of the discrete diamond equations.

    Reads only the returned cells and edges, the data scaled at eps and the
    dense tabulation of the scattering kernel on the solution's ordinates
    (dense_scattering), so it measures the solution, not the solver that
    produced it: the balance mu (e_out - e_in)/h + sigma_t u - sigma_e K u - f
    relative to max |sigma_t u|, the closure u = (e_in + e_out)/2 relative to
    max |u|, and the inflow edges against the scaled inflow data.
    """
    quad = solution.quad
    grid = problem.grid
    data = scaled_fields(problem, eps, quad)
    u, edges = solution.u, solution.edges
    mu = quad.nodes
    sigma_t = data["sigma"] + data["gamma"]
    matrix = dense_scattering(kernel, quad)
    balance = (mu * np.diff(edges, axis=0) / grid.h + sigma_t[:, None] * u
               - data["sigma"][:, None] * (u @ matrix.T) - data["source"][:, None])
    closure = u - 0.5 * (edges[:-1] + edges[1:])
    # a mu > 0 ordinate enters at x = 0, a mu < 0 one at x = L
    inflow = np.where(mu > 0.0, edges[0], edges[-1]) - data["inflow"]
    scale = float(np.max(np.abs(u)))
    return max(float(np.max(np.abs(balance))) / float(np.max(np.abs(sigma_t[:, None] * u))),
               float(np.max(np.abs(closure))) / scale,
               float(np.max(np.abs(inflow))) / scale)


def direct_solve(problem, eps, kernel, quad):
    """The discrete diamond system solved directly, without iterating.

    The unknowns are the edge values, ordered edge by edge (edge e,
    ordinate j at e * m + j for m ordinates).  Each cell gives m balance
    rows mu (e_out - e_in)/h + (sigma_t - sigma_e K) (e_in + e_out)/2 = f,
    with K the dense tabulation of the kernel (dense_scattering), and the
    inflow gives m more rows.  The left inflow rows come first and the right
    inflow rows last, so every row's entries lie within 3m/2 - 1 of its
    diagonal, and a banded LU solve with partial pivoting
    (scipy.linalg.solve_banded), refined once, gives the edges.  The quadrature's negative
    ordinates lead, as the solver's do; the quadrature must be symmetric,
    which the slab quadrature is.  Returns an object with the quad,
    the cells u and the edges, as cell_equation_residual reads them.
    """
    grid = problem.grid
    data = scaled_fields(problem, eps, quad)
    n, m, k = grid.n_cells, quad.n, quad.n_negative
    p = m - k  # positive ordinates, one left inflow row each
    half = 3 * m // 2 - 1
    size = (n + 1) * m
    sigma_t = data["sigma"] + data["gamma"]
    scatter = 0.5 * data["sigma"][:, None, None] * dense_scattering(kernel, quad)
    stream = np.diag(quad.nodes / grid.h)
    band = np.zeros((2 * half + 1, size))
    rhs = np.empty(size)

    def put(rows, cols, values):
        band[half + rows - cols, cols] = values

    # cell i's rows follow the p left inflow rows
    rows = p + np.arange(n)[:, None, None] * m + np.arange(m)[None, :, None]
    cols = np.arange(n)[:, None, None] * m + np.arange(m)[None, None, :]
    diagonal = 0.5 * sigma_t[:, None, None] * np.eye(m)
    put(rows, cols, diagonal - stream - scatter)
    put(rows, cols + m, diagonal + stream - scatter)
    rhs[p:p + n * m] = np.repeat(data["source"], m)
    left, right = np.arange(k, m), np.arange(k)
    put(left - k, left, 1.0)
    rhs[:p] = data["inflow"][k:]
    put(p + n * m + right, n * m + right, 1.0)
    rhs[p + n * m:] = data["inflow"][:k]

    # one step of iterative refinement takes the balance defect of the
    # 512-cell 1|4 slab from about 3e-12 to 1e-15; band's rows are the
    # diagonals half, half - 1, ..., -half, stored as dia_array stores them
    edges = scipy.linalg.solve_banded((half, half), band, rhs)
    matrix = scipy.sparse.dia_array((band, np.arange(half, -half - 1, -1)),
                                    shape=(size, size))
    edges += scipy.linalg.solve_banded((half, half), band, rhs - matrix @ edges)
    edges = edges.reshape(n + 1, m)
    return types.SimpleNamespace(quad=quad, u=0.5 * (edges[:-1] + edges[1:]),
                                 edges=edges)


def poison_sweep(monkeypatch, bad_call):
    """Make the transport sweep return NaN edge values on its bad_call-th call,
    so a solve meets a non-finite iterate whatever its input; returns the
    list that records the calls."""
    import translimit.transport as transport

    original = transport.sweep
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(1)
        swept = original(*args, **kwargs)
        if len(calls) == bad_call:
            swept[...] = np.nan
        return swept

    monkeypatch.setattr(transport, "sweep", poisoned)
    return calls
