import numpy as np
import pytest

from translimit import (
    CoefficientField,
    Grid1D,
    ProblemSpec,
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    kernel_isotropic,
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
