import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from translimit import (
    CertificationError,
    CoefficientField,
    Grid1D,
    ValidationError,
    assemble_scattering,
    kernel_linear,
    manufactured_case,
    mms_diffusion_source,
    solve_diffusion,
)
import translimit.diffusion as diffusion
from translimit.diffusion import assemble_banded, factor_operator, solve_cells
from conftest import make_problem


def cosh_exact(x, sigma=1.0, gamma=1.0, f=1.0, length=1.0):
    # closed-form solution of -(1/(3 sigma)) u'' + gamma u = f, u(0) = u(L) = 0
    kappa = math.sqrt(3.0 * sigma * gamma)
    return (f / gamma) * (1.0 - np.cosh(kappa * (x - length / 2))
                          / np.cosh(kappa * length / 2))


class TestCoshBenchmark:
    def test_exact_solution_satisfies_the_equation(self):
        # oracle: finite-difference residual of the closed form
        x = np.linspace(0.1, 0.9, 33)
        h = 1e-5
        d2 = (cosh_exact(x + h) - 2 * cosh_exact(x) + cosh_exact(x - h)) / h**2
        resid = -d2 / 3.0 + cosh_exact(x) - 1.0
        np.testing.assert_allclose(resid, 0.0, atol=1e-5)

    def test_nodal_error_and_order(self, iso8):
        errs = []
        for n in (64, 128, 256):
            p = make_problem(n_cells=n)
            sol = solve_diffusion(p, iso8)
            errs.append(np.max(np.abs(sol.u_nodes - cosh_exact(p.grid.edges))))
        assert errs[-1] < 1e-4
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) > 1.9

    def test_boundary_nodes_exactly_zero(self, iso8):
        sol = solve_diffusion(make_problem(n_cells=17), iso8)
        assert sol.u_nodes[0] == 0.0
        assert sol.u_nodes[-1] == 0.0


class TestManufactured:
    def test_order_with_variable_sigma(self, iso8):
        from translimit import ProblemSpec

        case = manufactured_case("diffusion-sin")
        sigma = CoefficientField.sinusoid(1.0, 0.5, 1.0)
        gamma = CoefficientField.constant(1.0)
        src = mms_diffusion_source(case, sigma, gamma, iso8)
        errs = []
        for n in (32, 64, 128, 256):
            grid = Grid1D(1.0, n)
            p = ProblemSpec(grid=grid, sigma=sigma, gamma=gamma, source=src)
            sol = solve_diffusion(p, iso8)
            errs.append(
                np.sqrt(grid.h * np.sum((sol.u_cell - case.ubar(grid.centers)) ** 2))
            )
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) > 1.9

    def test_zero_source_gives_zero_solution(self, iso8):
        p = make_problem(n_cells=32, source=0.0)
        sol = solve_diffusion(p, iso8)
        np.testing.assert_allclose(sol.u_cell, 0.0, atol=1e-15)
        np.testing.assert_allclose(sol.flux, 0.0, atol=1e-15)


class TestStructure:
    def test_operator_is_symmetric_positive_definite(self):
        p = make_problem(n_cells=12,
                         sigma=CoefficientField.piecewise([0.5], [1.0, 4.0]))
        grid = p.grid
        a = 1.0 / (3.0 * p.sigma(grid.centers))
        ab = assemble_banded(a, p.gamma(grid.centers), grid.h)
        dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
        np.testing.assert_allclose(dense, dense.T)
        assert np.linalg.eigvalsh(dense)[0] > 0

    def test_maximum_principle(self, iso8):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0.0, 2.0, 4)
        p = make_problem(
            n_cells=64,
            sigma=CoefficientField.piecewise([0.5], [1.0, 4.0]),
            source=CoefficientField.piecewise([0.2, 0.6, 0.8], tuple(vals)),
        )
        sol = solve_diffusion(p, iso8)
        assert np.all(sol.u_cell >= 0.0)
        assert np.all(sol.u_nodes >= 0.0)

    def test_flux_single_valued_at_material_interface(self, iso8):
        p = make_problem(n_cells=64,
                         sigma=CoefficientField.piecewise([0.5], [1.0, 4.0]))
        sol = solve_diffusion(p, iso8)
        grid = p.grid
        a = sol.a11
        u = sol.u_cell
        h = grid.h
        j = 32  # interface at x = 0.5
        left_val = u[j - 1] - sol.flux[j] * h / (2 * a[j - 1])
        right_val = u[j] + sol.flux[j] * h / (2 * a[j])
        np.testing.assert_allclose(left_val, right_val, rtol=1e-12)
        np.testing.assert_allclose(sol.u_nodes[j], left_val, rtol=1e-12)

    def test_tensor_argument_forms_agree(self, sphere48, quad8):
        # the slab and sphere operators of one kernel share the slab moment
        g = 0.5
        p = make_problem(n_cells=16,
                         sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0))
        via_sphere = solve_diffusion(p, assemble_scattering(kernel_linear(g), sphere48))
        via_slab = solve_diffusion(p, assemble_scattering(kernel_linear(g), quad8))
        np.testing.assert_allclose(via_sphere.u_cell, via_slab.u_cell, rtol=1e-10)
        np.testing.assert_allclose(
            via_slab.a11, 1.0 / (3.0 * (1.0 - g) * p.sigma(p.grid.centers)),
            rtol=1e-12)

    def test_uncertified_operator_rejected(self, quad8):
        p = make_problem(n_cells=16)
        with pytest.raises(CertificationError):
            solve_diffusion(p, assemble_scattering(kernel_linear(1.0), quad8))

    @pytest.mark.parametrize("field", ["sigma", "gamma", "source"])
    def test_non_finite_field_values_rejected(self, iso8, field):
        # solve_cells checks only LAPACK's info, so a nan source would be
        # solved and reported as a success; sin(2 pi 1e308 x) is nan
        bad = CoefficientField.sinusoid(1.0, 0.0, frequency=1e308)
        with pytest.raises(ValidationError, match=f"{field} is not finite"):
            solve_diffusion(make_problem(n_cells=16, **{field: bad}), iso8)


class TestSolveCells:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_matches_cho_solve_banded_bit_for_bit(self, n, columns, seed):
        # a random SPD tridiagonal system in upper band storage: diagonally
        # dominant, with entries spread over six decades
        rng = np.random.default_rng(seed)
        off = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3.0, 3.0, n - 1)
        ab = np.zeros((2, n))
        ab[0, 1:] = off
        ab[1] = 10.0 ** rng.uniform(-3.0, 3.0, n)
        ab[1, 1:] += np.abs(off)
        ab[1, :-1] += np.abs(off)
        factor = scipy.linalg.cholesky_banded(ab)
        rhs = rng.normal(size=(n, columns) if columns else n)
        want = scipy.linalg.cho_solve_banded((factor, False), rhs)
        np.testing.assert_array_equal(solve_cells(factor, rhs), want)

    def test_nonzero_info_raises(self, monkeypatch):
        monkeypatch.setattr(diffusion, "dpbtrs", lambda ab, b: (b, -1))
        factor = factor_operator(np.ones(4), np.ones(4), 0.25)
        with pytest.raises(ValidationError, match="dpbtrs info -1"):
            solve_cells(factor, np.ones(4))


class TestFactorOperator:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_cholesky_banded_bit_for_bit(self, n, seed):
        # diffusivities and absorption spread over six decades, as thick and
        # thin cells give them; gamma may vanish
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-3.0, 3.0, n)
        gamma = 10.0 ** rng.uniform(-3.0, 3.0, n) * rng.integers(0, 2, n)
        h = 10.0 ** rng.uniform(-4.0, 0.0)
        want = scipy.linalg.cholesky_banded(assemble_banded(a, gamma, h))
        np.testing.assert_array_equal(factor_operator(a, gamma, h), want)

    @pytest.mark.parametrize("field, bad", [("a", np.nan), ("gamma", np.nan),
                                            ("gamma", np.inf)])
    def test_non_finite_operator_rejected(self, field, bad):
        values = {"a": np.ones(4), "gamma": np.ones(4)}
        values[field][2] = bad
        with pytest.raises(ValidationError, match="not finite"):
            factor_operator(values["a"], values["gamma"], 0.25)

    @pytest.mark.parametrize("info", [-1, 2])
    def test_nonzero_info_raises(self, monkeypatch, info):
        monkeypatch.setattr(diffusion, "dpbtrf", lambda ab, **k: (ab, info))
        with pytest.raises(ValidationError, match=f"dpbtrf info {info}"):
            factor_operator(np.ones(4), np.ones(4), 0.25)
