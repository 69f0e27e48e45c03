import numpy as np
import pytest

from translimit import (
    CertificationError,
    CoefficientField,
    DiffusionSolution,
    Grid1D,
    ValidationError,
    apply_K,
    apriori_check,
    assemble_scattering,
    certify_assumptions,
    convergence_study,
    expansion_remainder,
    first_order_corrector,
    fit_loglog,
    kernel_isotropic,
    kernel_linear,
    norms,
    pinv_apply,
    solve_diffusion,
    solve_transport,
    space_velocity_norm,
    spatial_norm,
    split_mean_fluctuation,
    velocity_average,
)
from conftest import make_problem, smooth_benchmark


def count_eigh(monkeypatch):
    """Record every scipy.linalg.eigh call: one per operator decomposed."""
    import scipy.linalg

    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *a, **k: calls.append(a) or eigh(*a, **k))
    return calls


class TestVelocityAverage:
    def test_constant(self, quad8):
        field = np.full((5, 8), 3.25)
        np.testing.assert_allclose(velocity_average(field, quad8), 3.25, atol=1e-14)

    def test_odd_moment(self, quad8):
        field = np.tile(quad8.nodes, (4, 1))
        np.testing.assert_allclose(velocity_average(field, quad8), 0.0, atol=1e-14)

    def test_second_moment(self, quad8):
        field = np.tile(quad8.nodes**2, (4, 1))
        np.testing.assert_allclose(velocity_average(field, quad8), 1.0 / 3.0,
                                   atol=1e-14)

    def test_shape_mismatch(self, quad8):
        with pytest.raises(ValidationError):
            velocity_average(np.ones((4, 5)), quad8)


class TestOrthogonalSplitting:
    def test_pythagoras_for_random_fields(self, quad16):
        rng = np.random.default_rng(11)
        grid = Grid1D(1.0, 32)
        for _ in range(20):
            u = rng.standard_normal((32, 16))
            mean, fluct = split_mean_fluctuation(u, quad16)
            total = space_velocity_norm(u, grid, quad16) ** 2
            parts = spatial_norm(mean, grid) ** 2 + \
                space_velocity_norm(fluct, grid, quad16) ** 2
            assert abs(total - parts) <= 1e-12 * total
            np.testing.assert_allclose(velocity_average(fluct, quad16), 0.0,
                                       atol=1e-14)


class TestNorms:
    def test_velocity_independent_field_energy(self, quad8):
        # scattering term vanishes on velocity-independent fields
        grid = Grid1D(1.0, 16)
        op = assemble_scattering(kernel_isotropic(), quad8)
        ubar = np.linspace(0.5, 1.5, 16)
        field = np.tile(ubar[:, None], (1, 8))
        eps = 0.25
        ns = norms(field, eps, np.ones(16), np.ones(16), op, grid)
        np.testing.assert_allclose(ns.energy_sq,
                                   eps * spatial_norm(ubar, grid) ** 2,
                                   rtol=1e-12)

    def test_mean_free_field_energy(self, quad8):
        grid = Grid1D(1.0, 16)
        op = assemble_scattering(kernel_isotropic(), quad8)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((16, 8))
        _, fluct = split_mean_fluctuation(u, quad8)
        eps = 0.125
        ns = norms(fluct, eps, np.ones(16), np.full(16, 2.0), op, grid)
        fl_sq = space_velocity_norm(fluct, grid, quad8) ** 2
        expected = eps * 2.0 * fl_sq + fl_sq / eps
        np.testing.assert_allclose(ns.energy_sq, expected, rtol=1e-12)

    def test_equivalence_ratio_window(self, quad8):
        # coefficients in [1/2, 2] give the window [c/c_K, 2/c] = [1/2, 4]
        grid = Grid1D(1.0, 32)
        op = assemble_scattering(kernel_isotropic(), quad8)
        rng = np.random.default_rng(2024)
        for eps in (1.0, 2.0**-3, 2.0**-6):
            for _ in range(100):
                u = rng.standard_normal((32, 8))
                sg = rng.uniform(0.5, 2.0, 32)
                gm = rng.uniform(0.5, 2.0, 32)
                ns = norms(u, eps, sg, gm, op, grid)
                ratio = ns.energy_sq / ns.energy_proxy_sq
                assert 0.5 - 1e-12 <= ratio <= 4.0 + 1e-12

    def test_dual_equivalence_ratio_window(self, quad8):
        # inverse-norm window [c/2, c_K/c] = [1/4, 2] for isotropic scattering
        grid = Grid1D(1.0, 32)
        op = assemble_scattering(kernel_isotropic(), quad8)
        rng = np.random.default_rng(77)
        for eps in (1.0, 2.0**-3, 2.0**-6):
            for _ in range(100):
                u = rng.standard_normal((32, 8))
                sg = rng.uniform(0.5, 2.0, 32)
                gm = rng.uniform(0.5, 2.0, 32)
                ns = norms(u, eps, sg, gm, op, grid)
                ratio = ns.energy_dual_sq / ns.energy_dual_proxy_sq
                assert 0.25 - 1e-12 <= ratio <= 2.0 + 1e-12

    def test_dual_norm_against_dense_solve_oracle(self, quad8):
        grid = Grid1D(1.0, 12)
        op = assemble_scattering(kernel_linear(0.4), quad8)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((12, 8))
        sg = rng.uniform(0.5, 2.0, 12)
        gm = rng.uniform(0.5, 2.0, 12)
        eps = 0.125
        ns = norms(u, eps, sg, gm, op, grid)
        eye = np.eye(8)
        dual = 0.0
        for i in range(12):
            coll = eps * gm[i] * eye + (sg[i] / eps) * (eye - op.matrix)
            v = np.linalg.solve(coll, u[i])
            dual += grid.h * np.sum(quad8.weights * v * u[i])
        np.testing.assert_allclose(ns.energy_dual_sq, dual, rtol=1e-12)

    def test_uncertified_operator_raises(self, quad8):
        grid = Grid1D(1.0, 4)
        op = assemble_scattering(kernel_linear(1.0), quad8)
        with pytest.raises(CertificationError) as err:
            norms(np.ones((4, 8)), 0.5, np.ones(4), np.ones(4), op, grid)
        assert err.value.report is certify_assumptions(op)

    def test_solution_field_norms(self, quad8, iso8):
        p = make_problem(n_cells=32)
        sol = solve_transport(p, 0.5, iso8)
        xc = p.grid.centers
        ns = norms(sol.u, 0.5, p.sigma(xc), p.gamma(xc), op=iso8, grid=p.grid,
                   ps=(1, 4))
        assert ns.l2 == space_velocity_norm(sol.u, p.grid, quad8, 2)
        assert set(ns.lp) == {1, 4}
        assert ns.lp[4] == space_velocity_norm(sol.u, p.grid, quad8, 4)


class TestCorrector:
    def test_constant_limit_gives_zero(self, quad8):
        grid = Grid1D(1.0, 8)
        op = assemble_scattering(kernel_isotropic(), quad8)
        flat = DiffusionSolution(
            grid=grid, a11=np.full(8, 1 / 3), u_cell=np.ones(8),
            u_nodes=np.ones(9), flux=np.zeros(9), grad=np.zeros(8),
        )
        u1 = first_order_corrector(flat, np.ones(8), op)
        np.testing.assert_allclose(u1, 0.0, atol=1e-300)

    def test_isotropic_closed_form(self, quad8):
        p = make_problem(n_cells=64)
        op = assemble_scattering(kernel_isotropic(), quad8)
        d = solve_diffusion(p, op)
        u1 = first_order_corrector(d, p.sigma(p.grid.centers), op)
        expected = -d.grad[:, None] * quad8.nodes[None, :]
        np.testing.assert_allclose(u1, expected, atol=1e-13)

    def test_zero_velocity_average_and_defining_relation(self, quad16):
        p = make_problem(n_cells=64,
                         sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0))
        op = assemble_scattering(kernel_linear(0.5), quad16)
        d = solve_diffusion(p, op)
        sig = p.sigma(p.grid.centers)
        u1 = first_order_corrector(d, sig, op)
        np.testing.assert_allclose(velocity_average(u1, quad16), 0.0, atol=1e-12)
        # defining relation: (I - K) u1 = -(1/sigma) mu dubar/dx
        lhs = u1 - apply_K(op, u1)
        rhs = -(d.grad / sig)[:, None] * quad16.nodes[None, :]
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestRemainder:
    def test_exact_expansion_recovers_zero(self, quad8):
        rng = np.random.default_rng(8)
        u0 = rng.standard_normal(16)
        u1 = rng.standard_normal((16, 8))
        eps = 0.125
        u_eps = u0[:, None] + eps * u1
        psi = expansion_remainder(u_eps, u0, u1, eps)
        np.testing.assert_allclose(psi, 0.0, atol=1e-15)

    def test_triangle_inequality_sanity(self, quad8, iso8):
        grid = Grid1D(1.0, 32)
        p = make_problem(n_cells=32)
        sol = solve_transport(p, 2.0**-4, iso8)
        d = solve_diffusion(p, iso8)
        u1 = first_order_corrector(d, p.sigma(grid.centers), iso8)
        u0c = d.at_centers()
        psi = expansion_remainder(sol.u, u0c, u1, sol.eps)
        lhs = space_velocity_norm(psi, grid, quad8)
        rhs = space_velocity_norm(sol.u - u0c[:, None], grid, quad8) \
            + sol.eps * space_velocity_norm(u1, grid, quad8)
        assert lhs <= rhs + 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            expansion_remainder(np.ones((4, 3)), np.ones(5), np.ones((4, 3)), 0.5)


class TestSlopeFit:
    def test_exact_power_data(self):
        eps = np.array([0.5**k for k in range(1, 7)])
        for q in (0.5, 1.0, 2.0):
            fit = fit_loglog(eps, 3.7 * eps**q)
            assert abs(fit.slope - q) < 1e-10
            assert fit.stderr < 1e-10

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_loglog([0.5], [1.0])
        with pytest.raises(ValidationError):
            fit_loglog([0.5, 0.25], [1.0, -1.0])


class TestApriori:
    def test_zero_data_gives_zero_rows(self, iso8):
        p = make_problem(n_cells=32, source=0.0)
        eps_list = [0.5, 0.25, 0.125]
        sols = [solve_transport(p, e, iso8) for e in eps_list]
        table = apriori_check(eps_list, sols, p)
        for name in ("trace_over_sqrt_eps", "fluct_over_eps", "mean_norm",
                     "deriv_norm", "max_abs"):
            np.testing.assert_allclose(table.columns[name], 0.0, atol=1e-12)

    def test_smooth_sweep_stays_bounded(self, iso8):
        p = smooth_benchmark(n_cells=64)
        eps_list = [0.5, 0.25, 0.125, 0.0625]
        sols = [solve_transport(p, e, iso8) for e in eps_list]
        table = apriori_check(eps_list, sols, p)
        for name in ("trace_over_sqrt_eps", "fluct_over_eps", "mean_norm",
                     "deriv_norm", "max_abs"):
            assert name not in table.flagged
        rows = list(table.rows())
        assert len(rows) == 4 and "energy_ratio" in rows[0]

    def test_needs_three_points(self, quad8):
        with pytest.raises(ValidationError):
            apriori_check([0.5, 0.25], [], make_problem())

    def test_needs_one_solution_per_eps(self, iso8):
        p = make_problem(n_cells=16)
        sol = solve_transport(p, 0.5, iso8)
        with pytest.raises(ValidationError, match="1 solutions for 3 eps"):
            apriori_check([0.5, 0.25, 0.125], [sol], p)


class TestConvergenceStudy:
    def test_eps_list_validation(self, iso8):
        p = smooth_benchmark()
        with pytest.raises(ValidationError):
            convergence_study(p, [0.5], iso8)
        with pytest.raises(ValidationError):
            convergence_study(p, [0.5, 0.3, 0.2, 0.1], iso8)
        with pytest.raises(ValidationError):
            convergence_study(p, [0.8, 0.64, 0.512, 0.4096], iso8)

    def test_small_study_structure(self, iso8, tmp_path):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        rep = convergence_study(p, eps, iso8, floor_cells=32)
        assert list(rep.columns) == [
            "err_total", "err_fluct", "bdry", "deriv", "remainder",
            "err_l1", "err_l4",
        ]
        assert all(len(v) == 4 for v in rep.columns.values())
        assert rep.rate_asserted
        assert rep.lp_reference_rate[4] == 0.5
        for n, e in zip(rep.n_cells, eps):
            assert 1.0 / n <= e / 4.0 or n == 32

        payload = rep.slopes_payload()
        assert "err_total" in payload["slopes"]
        files = rep.write_plot_files(tmp_path)
        assert len(files) == 7

    def test_determinism(self, iso8):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        r1 = convergence_study(p, eps, iso8, floor_cells=32)
        r2 = convergence_study(p, eps, iso8, floor_cells=32)
        np.testing.assert_array_equal(r1.eps, r2.eps)
        assert list(r1.columns) == list(r2.columns)
        for name in r1.columns:
            np.testing.assert_array_equal(r1.columns[name], r2.columns[name])
        assert r1.slopes_payload() == r2.slopes_payload()

    def test_builds_no_operator_and_decomposes_the_given_one_once(
            self, quad8, monkeypatch):
        # the operator does not depend on the mesh, so a whole sweep shares
        # the one it is given
        import translimit.velocity_space as vs

        op = assemble_scattering(kernel_isotropic(), quad8)
        built = []
        post_init = vs.ScatteringOperator.__post_init__
        monkeypatch.setattr(vs.ScatteringOperator, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        decomposed = count_eigh(monkeypatch)
        rep = convergence_study(smooth_benchmark(),
                                [2.0**-k for k in range(1, 5)], op,
                                floor_cells=32)
        assert len(rep.n_cells) == 4
        assert built == []
        assert len(decomposed) == 1
        # that one decomposition was the given operator's: it is not redone
        certify_assumptions(op)
        pinv_apply(op, quad8.nodes)
        assert len(decomposed) == 1

    def test_sphere_operator_rejected_before_any_decomposition(
            self, quad8, sphere48, monkeypatch):
        import translimit.analysis as analysis

        sphere_op = assemble_scattering(kernel_isotropic(), sphere48)
        diffused = []
        decomposed = count_eigh(monkeypatch)
        monkeypatch.setattr(analysis, "solve_diffusion",
                            lambda *a, **k: diffused.append(a))
        for op in (sphere_op, quad8):
            with pytest.raises(ValidationError, match="slab quadrature"):
                convergence_study(smooth_benchmark(),
                                  [2.0**-k for k in range(1, 5)], op,
                                  floor_cells=32)
        assert decomposed == []
        assert diffused == []

    def test_uncertified_operator_rejected_before_any_solve(
            self, quad8, monkeypatch):
        import translimit.analysis as analysis

        # g = 1 puts mu in the null space of I - K next to the constants
        op = assemble_scattering(kernel_linear(1.0), quad8)
        diffused = []
        monkeypatch.setattr(analysis, "solve_diffusion",
                            lambda *a, **k: diffused.append(a))
        with pytest.raises(CertificationError, match="null space dimension 2"):
            convergence_study(smooth_benchmark(),
                              [2.0**-k for k in range(1, 5)], op,
                              floor_cells=32)
        assert diffused == []

    def test_discontinuous_sigma_flags_no_rate(self, iso8):
        p = make_problem(
            n_cells=64,
            sigma=CoefficientField.piecewise([0.5], [1.0, 4.0]),
        )
        rep = convergence_study(p, [2.0**-k for k in range(1, 5)], iso8,
                                floor_cells=32)
        assert not rep.rate_asserted
        assert any("rate not asserted" in n for n in rep.notes)

    def test_partial_report_on_convergence_failure(self, iso8):
        from translimit import ConvergenceError, SolverOptions

        p = smooth_benchmark()
        opts = SolverOptions(acceleration="none", max_iterations=30)
        with pytest.raises(ConvergenceError) as err:
            convergence_study(p, [2.0**-k for k in range(1, 5)], iso8,
                              options=opts, floor_cells=32)
        assert hasattr(err.value, "partial_report")


class TestWeakConsistency:
    def test_transport_average_satisfies_limit_weak_form(self, quad16):
        # pairing the weak residual of the converged velocity average with a
        # fixed smooth test decays like eps + h^2 (measured constant ~1.83)
        import dataclasses

        from translimit import cells_for_eps, weak_residual

        p = smooth_benchmark()
        op = assemble_scattering(kernel_isotropic(), quad16)
        pairings = {}
        for k in (4, 6):
            eps = 2.0**-k
            n = cells_for_eps(eps, 1.0)
            pe = dataclasses.replace(p, grid=Grid1D(1.0, n))
            sol = solve_transport(pe, eps, op)
            r = weak_residual(solve_diffusion(pe, op), pe, sol.u_bar)
            h = pe.grid.h
            psi = np.sin(np.pi * pe.grid.edges[1:-1])
            pairings[k] = abs(np.sum(h * r * psi))
            assert pairings[k] <= 2.0 * (eps + h * h)
        assert pairings[6] / pairings[4] < 0.35
