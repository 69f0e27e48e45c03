import re
import warnings
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from translimit import (
    CoefficientField,
    Grid1D,
    KernelSpec,
    ManufacturedCase,
    ProblemSpec,
    ValidationError,
    assemble_scattering,
    cells_for_eps,
    kernel_isotropic,
    kernel_linear,
    manufactured_case,
    mms_diffusion_source,
    mms_transport_source,
    scaled_fields,
)
from conftest import BAD_INFLOWS, make_problem


class TestGrid:
    def test_basic_geometry(self):
        g = Grid1D(2.0, 8)
        assert g.h == 0.25
        np.testing.assert_allclose(g.centers[0], 0.125)
        np.testing.assert_allclose(g.edges[[0, -1]], [0.0, 2.0])
        assert g.centers.size == 8 and g.edges.size == 9

    def test_invalid(self):
        with pytest.raises(ValidationError):
            Grid1D(0.0, 8)
        with pytest.raises(ValidationError):
            Grid1D(1.0, 0)

    @pytest.mark.parametrize("n_cells", [64.9, 0.5, np.float64(2.5), np.nan, np.inf,
                                         np.float64(np.inf)])
    def test_non_integral_n_cells_rejected(self, n_cells):
        # int() used to truncate: Grid1D(1.0, 64.9) had 64 cells
        with pytest.raises(ValidationError, match="integer"):
            Grid1D(1.0, n_cells)

    @pytest.mark.parametrize("n_cells", [64, np.int64(64), np.int32(64), 64.0,
                                         np.float64(64.0)])
    def test_integral_n_cells_accepted(self, n_cells):
        grid = Grid1D(1.0, n_cells)
        assert grid.n_cells == 64 and type(grid.n_cells) is int

    @pytest.mark.parametrize("length", [np.inf, np.nan])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValidationError, match="finite"):
            Grid1D(length, 8)

    @pytest.mark.parametrize("n_cells, shown", [
        (np.iinfo(np.intp).max + 1, "9.2234e+18"), (4e300, "4.0000e+300"),
        (10**400, "1" + "0" * 400)], ids=["intp-max-plus-one", "float", "huge-int"])
    def test_more_cells_than_an_array_can_hold_rejected(self, n_cells, shown):
        # building a grid allocates nothing, so no huge array is asked for
        with pytest.raises(ValidationError, match=re.escape(
                f"n_cells = {shown} exceeds the largest array size")):
            Grid1D(1.0, n_cells)
        assert Grid1D(1.0, np.iinfo(np.intp).max).n_cells == np.iinfo(np.intp).max

    def test_centers_are_read_only_and_computed_once(self):
        grid = Grid1D(2.0, 8)
        centers = grid.centers
        assert grid.centers is centers
        assert not centers.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            centers[0] = 1.0
        np.testing.assert_array_equal(centers, (np.arange(8) + 0.5) * 0.25)
        # the cache is no field: equality and hashing ignore it
        assert grid == Grid1D(2.0, 8) and hash(grid) == hash(Grid1D(2.0, 8))


class TestCoefficientField:
    def test_constant(self):
        f = CoefficientField.constant(2.5)
        np.testing.assert_allclose(f(np.linspace(0, 1, 11)), 2.5)
        assert f.bounds == (2.5, 2.5)

    def test_piecewise(self):
        f = CoefficientField.piecewise([0.5], [1.0, 4.0])
        x = np.array([0.1, 0.49, 0.51, 0.9])
        np.testing.assert_allclose(f(x), [1.0, 1.0, 4.0, 4.0])
        assert f.bounds == (1.0, 4.0)

    def test_sinusoid_and_derivative(self):
        f = CoefficientField.sinusoid(1.0, 0.5, 2.0, 0.3)
        x = np.linspace(0, 1, 7)
        h = 1e-6
        fd = (f(x + h) - f(x - h)) / (2 * h)
        np.testing.assert_allclose(f.derivative(x), fd, atol=1e-7)

    def test_bounds_hold_on_refined_sampling(self):
        fields = [
            CoefficientField.constant(3.0),
            CoefficientField.piecewise([0.3, 0.7], [1.0, 0.5, 2.0]),
            CoefficientField.sinusoid(1.0, 0.5, 3.0, 0.1),
        ]
        x = np.linspace(0.0, 1.0, 10 * 256 + 1)
        for f in fields:
            lo, hi = f.bounds
            v = f(x)
            assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)

    def test_piecewise_validation(self):
        with pytest.raises(ValidationError):
            CoefficientField.piecewise([0.5, 0.4], [1, 2, 3])
        with pytest.raises(ValidationError):
            CoefficientField.piecewise([0.5], [1.0])
        with pytest.raises(ValidationError):
            CoefficientField(kind="mystery")

    @pytest.mark.parametrize("build", [
        lambda: CoefficientField.constant(np.nan),
        lambda: CoefficientField.sinusoid(np.inf, 0.5),
        lambda: CoefficientField.sinusoid(1.0, np.nan),
        lambda: CoefficientField.sinusoid(1.0, 0.5, frequency=np.inf),
        lambda: CoefficientField.sinusoid(1.0, 0.5, phase=-np.inf),
        lambda: CoefficientField.piecewise([np.nan], [1.0, 2.0]),
        lambda: CoefficientField.piecewise([0.5], [1.0, np.inf]),
    ], ids=["value", "offset", "amplitude", "frequency", "phase", "breakpoint",
            "piece-value"])
    def test_non_finite_parameter_rejected(self, build):
        with pytest.raises(ValidationError, match="non-finite"):
            build()


class TestProblemValidation:
    def test_zero_gamma_rejected(self):
        with pytest.raises(ValidationError):
            make_problem(gamma=0.0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValidationError):
            make_problem(sigma=CoefficientField.piecewise([0.5], [1.0, -1.0]))

    def test_kernel_spec_validation(self):
        with pytest.raises(ValidationError):
            KernelSpec(kind="weird")
        with pytest.raises(ValidationError):
            KernelSpec(kind="table")

    def test_g_factor_only_for_the_linear_kernel(self):
        with pytest.raises(ValidationError, match="only to the linear kernel"):
            KernelSpec(kind="isotropic", g_factor=0.5)
        assert KernelSpec(kind="isotropic", g_factor=0.0).kind == "isotropic"


class TestScale:
    def test_diffusive_values(self, quad8):
        p = make_problem(sigma=1.0)
        fields = scaled_fields(p, 0.1, quad8)
        np.testing.assert_allclose(fields["sigma"], 10.0)
        np.testing.assert_allclose(fields["gamma"], 0.1)
        np.testing.assert_allclose(fields["source"], 0.1)

    def test_eps_one_is_identity(self, quad8):
        # eps = 1 is the eps-independent problem: every field verbatim
        p = make_problem(sigma=CoefficientField.sinusoid(2.0, 0.5, 1.0),
                         g_left=0.7, g_right=lambda mu: mu**2)
        fields = scaled_fields(p, 1.0, quad8)
        xc = p.grid.centers
        mu = quad8.nodes
        np.testing.assert_array_equal(fields["sigma"], p.sigma(xc))
        np.testing.assert_array_equal(fields["gamma"], p.gamma(xc))
        np.testing.assert_array_equal(fields["source"], p.source(xc))
        k = quad8.n_negative
        np.testing.assert_array_equal(fields["inflow"][k:], np.full((mu > 0).sum(), 0.7))
        np.testing.assert_array_equal(fields["inflow"][:k], mu[mu < 0] ** 2)

    def test_multiplicative_composition(self, quad8):
        p = make_problem(sigma=CoefficientField.sinusoid(2.0, 0.5, 1.0))
        e1, e2 = 0.5, 0.25
        once = scaled_fields(p, e1 * e2, quad8)
        twice = scaled_fields(p, e1, quad8)
        np.testing.assert_allclose(once["sigma"], twice["sigma"] / e2, rtol=1e-14)
        np.testing.assert_allclose(once["gamma"], twice["gamma"] * e2, rtol=1e-14)

    def test_sigma_divided_and_the_rest_multiplied(self, quad8):
        # sigma / eps and eps * v for every other field, bit for bit
        p = make_problem(sigma=CoefficientField.sinusoid(2.0, 0.5, 1.0),
                         g_left=0.7, g_right=1.3)
        eps = 0.3
        fields = scaled_fields(p, eps, quad8)
        xc = p.grid.centers
        pos = quad8.nodes > 0
        k = quad8.n_negative
        np.testing.assert_array_equal(fields["sigma"], p.sigma(xc) / eps)
        np.testing.assert_array_equal(fields["gamma"], eps * p.gamma(xc))
        np.testing.assert_array_equal(fields["source"], eps * p.source(xc))
        np.testing.assert_array_equal(fields["inflow"][k:], np.full(pos.sum(), eps * 0.7))
        np.testing.assert_array_equal(fields["inflow"][:k],
                                      np.full((~pos).sum(), eps * 1.3))

    def test_boundary_norm_scaling(self, quad8):
        # closed form: int_0^1 mu dmu / 2 = 1/4 per face, so |g|^2 = 1/2
        p = make_problem(g_left=1.0, g_right=1.0)
        eps = 0.25
        fields = scaled_fields(p, eps, quad8)
        mu, w = quad8.nodes, quad8.weights
        pos = mu > 0
        k = quad8.n_negative
        gl = fields["inflow"][k:]
        gr = fields["inflow"][:k]
        norm_sq = np.sum(w[pos] * mu[pos] * gl**2) + np.sum(
            w[~pos] * (-mu[~pos]) * gr**2
        )
        base_sq = np.sum(w[pos] * mu[pos]) + np.sum(w[~pos] * (-mu[~pos]))
        # quadrature value of the half-range closed form 1/4 per face
        assert abs(base_sq - 0.5) < 0.02
        # scaling of the discrete norm is exact: |g_eps| = eps |g|
        np.testing.assert_allclose(norm_sq, eps**2 * base_sq, rtol=1e-13)
        # sqrt(eps) bound holds with constant 0.5 relative to the data norm
        assert np.sqrt(norm_sq) <= 0.5 * np.sqrt(base_sq) * np.sqrt(eps) + 1e-15

    def test_callable_inflow_on_incoming_ordinates(self, quad8):
        p = make_problem(g_left=lambda mu: mu, g_right=lambda mu: mu**2)
        fields = scaled_fields(p, 0.5, quad8)
        mu = quad8.nodes
        k = quad8.n_negative
        np.testing.assert_array_equal(fields["inflow"][k:], 0.5 * mu[mu > 0])
        np.testing.assert_array_equal(fields["inflow"][:k], 0.5 * mu[mu < 0] ** 2)

    @pytest.mark.parametrize("side", ["g_left", "g_right"])
    @pytest.mark.parametrize("bad", BAD_INFLOWS)
    def test_malformed_inflow_rejected(self, quad8, side, bad):
        # a number, or a callable of mu with values of shape () or mu's
        problem = make_problem(n_cells=8, **{side: BAD_INFLOWS[bad]})
        with pytest.raises(ValidationError, match=side):
            scaled_fields(problem, 0.5, quad8)

    def test_invalid_eps(self, quad8):
        with pytest.raises(ValidationError):
            scaled_fields(make_problem(), 0.0, quad8)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_eps_rejected(self, quad8, eps):
        with pytest.raises(ValidationError):
            scaled_fields(make_problem(), eps, quad8)

    @pytest.mark.parametrize("field", ["sigma", "gamma", "source"])
    def test_non_finite_field_values_rejected(self, quad8, field):
        # finite parameters, but sin(2 pi 1e308 x) is sin(inf) = nan
        bad = CoefficientField.sinusoid(1.0, 0.0, frequency=1e308)
        problem = make_problem(**{field: bad})
        with pytest.raises(ValidationError, match=f"{field} is not finite"):
            scaled_fields(problem, 0.5, quad8)

    @pytest.mark.parametrize("field, eps, scaled", [
        ("sigma", 1e-300, "sigma / eps"), ("gamma", 1e300, "eps * gamma"),
        ("source", 1e300, "eps * source"), ("g_left", 1e300, "eps * inflow")])
    def test_overflow_when_scaled_names_the_scaling(self, quad8, field, eps, scaled):
        # 1e10 is finite as given; scaled at eps it overflows
        problem = make_problem(n_cells=16, **{field: 1e10})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                scaled_fields(problem, eps, quad8)
        assert str(info.value) == f"{scaled} is not finite at eps = {eps!r}"

    @pytest.mark.parametrize("g", [np.inf, lambda mu: np.nan * mu], ids=["inf", "nan"])
    def test_non_finite_inflow_rejected(self, quad8, g):
        with pytest.raises(ValidationError, match=r"eps \* inflow is not finite"):
            scaled_fields(make_problem(g_right=g), 0.5, quad8)

    def test_cell_fields_are_read_only_and_evaluated_once(self):
        p = make_problem(n_cells=8, sigma=CoefficientField.sinusoid(2.0, 0.5, 1.0),
                         source=CoefficientField.piecewise([0.5], [1.0, 3.0]))
        fields = p.cell_fields
        assert p.cell_fields is fields
        assert list(fields) == ["sigma", "gamma", "source"]
        for name, values in fields.items():
            assert p.cell_fields[name] is values
            assert not values.flags.writeable
            np.testing.assert_array_equal(values, getattr(p, name)(p.grid.centers))
        with pytest.raises(TypeError):
            fields["sigma"] = np.ones(8)
        with pytest.raises(ValueError, match="read-only"):
            fields["gamma"][0] = 2.0

    def test_cell_fields_leave_a_callables_array_writeable(self):
        # the cached array is a read-only view of the callable's result
        own = np.linspace(1.0, 2.0, 8)
        p = make_problem(n_cells=8, source=CoefficientField.constant(1.0))
        p = dc_replace(p, source=lambda x: own)
        assert not p.cell_fields["source"].flags.writeable
        assert own.flags.writeable
        np.testing.assert_array_equal(p.cell_fields["source"], own)

    def test_non_finite_cell_field_raises_on_every_access(self):
        bad = CoefficientField.sinusoid(1.0, 0.0, frequency=1e308)
        p = make_problem(n_cells=8, gamma=bad)
        for _ in range(2):
            with pytest.raises(ValidationError, match="gamma is not finite"):
                p.cell_fields

    def test_fields_on_the_given_grid(self, quad8):
        p = make_problem(n_cells=100, sigma=CoefficientField.sinusoid(2.0, 0.5, 1.0))
        grid = Grid1D(1.0, 12)
        fields = scaled_fields(dc_replace(p, grid=grid), 0.5, quad8)
        np.testing.assert_array_equal(fields["sigma"], p.sigma(grid.centers) / 0.5)


class TestManufacturedCases:
    @pytest.mark.parametrize("name", ["transport-poly", "transport-trig"])
    def test_transport_cases_satisfy_zero_inflow(self, name):
        case = manufactured_case(name, length=2.0)
        mu = np.linspace(-0.9, 0.9, 5)
        np.testing.assert_allclose(case.u(0.0, mu), 0.0, atol=1e-15)
        np.testing.assert_allclose(case.u(2.0, mu), 0.0, atol=1e-14)

    @pytest.mark.parametrize("name", ["diffusion-sin", "diffusion-parabola"])
    def test_diffusion_cases_vanish_at_ends(self, name):
        case = manufactured_case(name, length=1.5)
        assert abs(case.ubar(0.0)) < 1e-15
        assert abs(case.ubar(1.5)) < 1e-12

    def test_derivatives_match_finite_differences(self):
        case = manufactured_case("transport-trig")
        x = np.linspace(0.1, 0.9, 7)[:, None]
        mu = np.array([[-0.5, 0.7]])
        h = 1e-6
        fd = (case.u(x + h, mu) - case.u(x - h, mu)) / (2 * h)
        np.testing.assert_allclose(case.du_dx(x, mu), fd, atol=1e-8)

    def test_unknown_case(self):
        with pytest.raises(ValidationError):
            manufactured_case("nope")


class TestTransportSource:
    def test_poly_case_matches_hand_formula(self, quad8):
        # u = x(1-x)(1+mu), sigma = gamma = 1, isotropic scattering
        grid = Grid1D(1.0, 16)
        op = assemble_scattering(kernel_isotropic(), quad8)
        case = manufactured_case("transport-poly")
        f = mms_transport_source(case, CoefficientField.constant(1.0),
                                 CoefficientField.constant(1.0), op, grid)
        x = grid.centers[:, None]
        mu = quad8.nodes[None, :]
        expected = (mu * (1 - 2 * x) * (1 + mu)
                    + x * (1 - x) * (1 + mu)
                    - x * (1 - x) * (1.0 - (1.0 + mu)))
        np.testing.assert_allclose(f, expected, atol=1e-13)

    def test_velocity_independent_solution_drops_scattering(self, quad8):
        grid = Grid1D(1.0, 8)
        op = assemble_scattering(kernel_isotropic(), quad8)
        case = ManufacturedCase(
            name="flat-mu",
            u=lambda x, mu: np.sin(np.pi * x) * np.ones_like(mu),
            du_dx=lambda x, mu: np.pi * np.cos(np.pi * x) * np.ones_like(mu),
        )
        gamma = CoefficientField.constant(2.0)
        f = mms_transport_source(case, CoefficientField.constant(3.0), gamma, op, grid)
        x = grid.centers[:, None]
        mu = quad8.nodes[None, :]
        expected = mu * np.pi * np.cos(np.pi * x) + 2.0 * np.sin(np.pi * x)
        np.testing.assert_allclose(f, expected, atol=1e-13)

    def test_zero_solution_gives_zero_source(self, quad8):
        grid = Grid1D(1.0, 8)
        op = assemble_scattering(kernel_isotropic(), quad8)
        case = ManufacturedCase(
            name="zero",
            u=lambda x, mu: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(mu))),
            du_dx=lambda x, mu: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(mu))),
        )
        f = mms_transport_source(case, CoefficientField.constant(1.0),
                                 CoefficientField.constant(1.0), op, grid)
        np.testing.assert_allclose(f, 0.0, atol=1e-15)

    def test_sphere_operator_and_bare_quadrature_rejected(self, quad8, sphere48):
        case = manufactured_case("transport-trig")
        one = CoefficientField.constant(1.0)
        sphere_op = assemble_scattering(kernel_isotropic(), sphere48)
        for op in (sphere_op, quad8):
            with pytest.raises(ValidationError, match="slab quadrature"):
                mms_transport_source(case, one, one, op, Grid1D(1.0, 8))

    def test_continuous_residual_vanishes(self, quad16):
        # insert the manufactured solution into the continuous operator
        grid = Grid1D(1.0, 32)
        op = assemble_scattering(kernel_isotropic(), quad16)
        case = manufactured_case("transport-trig")
        sigma = CoefficientField.sinusoid(1.5, 0.25, 1.0)
        gamma = CoefficientField.constant(1.0)
        f = mms_transport_source(case, sigma, gamma, op, grid)
        x = grid.centers[:, None]
        mu = quad16.nodes[None, :]
        u = case.u(x, mu)
        ubar = (u @ quad16.weights)[:, None]
        residual = (mu * case.du_dx(x, mu) + gamma(grid.centers)[:, None] * u
                    - sigma(grid.centers)[:, None] * (ubar - u) - f)
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)


class TestDiffusionSource:
    def test_sin_case_closed_form(self, iso8):
        case = manufactured_case("diffusion-sin")
        f = mms_diffusion_source(case, CoefficientField.constant(1.0),
                                 CoefficientField.constant(1.0), iso8)
        x = np.linspace(0.05, 0.95, 13)
        expected = (np.pi**2 / 3.0 + 1.0) * np.sin(np.pi * x)
        np.testing.assert_allclose(f(x), expected, atol=1e-12)

    def test_linear_kernel_uses_its_moment(self, quad8):
        # the slab moment of the linear kernel is 1/(3(1-g))
        g = 0.5
        op = assemble_scattering(kernel_linear(g), quad8)
        case = manufactured_case("diffusion-sin")
        f = mms_diffusion_source(case, CoefficientField.constant(1.0),
                                 CoefficientField.constant(1.0), op)
        x = np.linspace(0.05, 0.95, 13)
        expected = (np.pi**2 / (3.0 * (1.0 - g)) + 1.0) * np.sin(np.pi * x)
        np.testing.assert_allclose(f(x), expected, atol=1e-12)

    def test_parabola_case(self, iso8):
        case = manufactured_case("diffusion-parabola")
        f = mms_diffusion_source(case, CoefficientField.constant(1.0),
                                 CoefficientField.constant(1.0), iso8)
        x = np.linspace(0.1, 0.9, 9)
        np.testing.assert_allclose(f(x), 2.0 / 3.0 + x * (1 - x), atol=1e-13)

    def test_variable_sigma_against_finite_differences(self, iso8):
        case = manufactured_case("diffusion-sin")
        sigma = CoefficientField.sinusoid(1.0, 0.4, 1.0)
        gamma = CoefficientField.constant(1.0)
        f = mms_diffusion_source(case, sigma, gamma, iso8)
        x = np.linspace(0.1, 0.9, 17)
        h = 1e-5
        a = lambda t: 1.0 / (3.0 * sigma(t))
        flux = lambda t: a(t) * case.dubar_dx(t)
        fd = -(flux(x + h) - flux(x - h)) / (2 * h) + gamma(x) * case.ubar(x)
        np.testing.assert_allclose(f(x), fd, rtol=1e-8, atol=1e-8)

    def test_requires_diffusion_case(self, iso8):
        with pytest.raises(ValidationError):
            mms_diffusion_source(manufactured_case("transport-poly"),
                                 CoefficientField.constant(1.0),
                                 CoefficientField.constant(1.0), iso8)


class TestMeshRule:
    def test_floor_and_rule(self):
        assert cells_for_eps(0.5, 1.0) == 64
        n = cells_for_eps(2.0**-6, 1.0)
        assert n >= 256 and n % 2 == 0
        assert 1.0 / n <= 2.0**-6 / 4.0
        assert cells_for_eps(0.5, 1.0, floor=32) == 32

    def test_invalid_eps(self):
        with pytest.raises(ValidationError):
            cells_for_eps(0.0, 1.0)

    def test_eps_too_small_for_a_float_cell_count_rejected(self):
        # 2 / 5e-324 is inf, and math.ceil(inf) raised OverflowError
        with pytest.raises(ValidationError, match="more cells than a float"):
            cells_for_eps(5e-324, 1.0)
