import numpy as np
import pytest

from translimit import (
    CoefficientField,
    DiffusionSolution,
    Grid1D,
    ValidationError,
    apply_K,
    apriori_check,
    assemble_scattering,
    convergence_study,
    expansion_remainder,
    first_order_corrector,
    fit_loglog,
    kernel_isotropic,
    kernel_linear,
    norms,
    solve_diffusion,
    solve_transport,
    space_velocity_norm,
    spatial_norm,
    split_mean_fluctuation,
    velocity_average,
)
from conftest import make_problem, smooth_benchmark


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

    def test_solution_input_adds_trace_norm(self, quad8):
        p = make_problem(n_cells=32)
        sol = solve_transport(p, 0.5, quad8)
        xc = p.grid.centers
        ns = norms(sol, 0.5, p.sigma(xc), p.gamma(xc), op=p.kernel.build(quad8),
                   grid=p.grid, ps=(1, 4))
        assert ns.bdry_plus is not None and ns.bdry_plus > 0.0
        assert set(ns.lp) == {1, 4}


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

    def test_triangle_inequality_sanity(self, quad8):
        grid = Grid1D(1.0, 32)
        p = make_problem(n_cells=32)
        sol = solve_transport(p, 2.0**-4, quad8)
        op = assemble_scattering(kernel_isotropic(), quad8)
        d = solve_diffusion(p, op)
        u1 = first_order_corrector(d, p.sigma(grid.centers), op)
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
    def test_zero_data_gives_zero_rows(self, quad8):
        p = make_problem(n_cells=32, source=0.0)
        eps_list = [0.5, 0.25, 0.125]
        sols = [solve_transport(p, e, quad8) for e in eps_list]
        table = apriori_check(eps_list, sols, p)
        for name in ("trace_over_sqrt_eps", "fluct_over_eps", "mean_norm",
                     "deriv_norm", "max_abs"):
            np.testing.assert_allclose(table.columns[name], 0.0, atol=1e-12)

    def test_smooth_sweep_stays_bounded(self, quad8):
        p = smooth_benchmark(n_cells=64)
        eps_list = [0.5, 0.25, 0.125, 0.0625]
        sols = [solve_transport(p, e, quad8) for e in eps_list]
        table = apriori_check(eps_list, sols, p)
        for name in ("trace_over_sqrt_eps", "fluct_over_eps", "mean_norm",
                     "deriv_norm", "max_abs"):
            assert name not in table.flagged
        rows = list(table.rows())
        assert len(rows) == 4 and "energy_ratio" in rows[0]

    def test_needs_three_points(self, quad8):
        with pytest.raises(ValidationError):
            apriori_check([0.5, 0.25], [], make_problem())


class TestConvergenceStudy:
    def test_eps_list_validation(self, quad8):
        p = smooth_benchmark()
        with pytest.raises(ValidationError):
            convergence_study(p, [0.5], quad8)
        with pytest.raises(ValidationError):
            convergence_study(p, [0.5, 0.3, 0.2, 0.1], quad8)
        with pytest.raises(ValidationError):
            convergence_study(p, [0.8, 0.64, 0.512, 0.4096], quad8)

    def test_small_study_structure(self, quad8, tmp_path):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        rep = convergence_study(p, eps, quad8, floor_cells=32)
        assert set(rep.column_names()) == {
            "err_total", "err_fluct", "bdry", "deriv", "remainder",
            "err_l1", "err_l4",
        }
        assert all(len(v) == 4 for v in rep.columns.values())
        assert rep.rate_asserted
        assert rep.lp_reference_rate[4] == 0.5
        for n, e in zip(rep.n_cells, eps):
            assert 1.0 / n <= e / 4.0 or n == 32

        csv = tmp_path / "report.csv"
        rep.to_csv(csv)
        header = csv.read_text().splitlines()[0]
        assert header == "eps,err_total,err_fluct,bdry,deriv,remainder,err_l1,err_l4"
        payload = rep.slopes_payload()
        assert "err_total" in payload["slopes"]
        files = rep.write_plot_files(tmp_path)
        assert len(files) == 7

    def test_determinism(self, quad8, tmp_path):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        r1 = convergence_study(p, eps, quad8, floor_cells=32)
        r2 = convergence_study(p, eps, quad8, floor_cells=32)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.to_csv(f1)
        r2.to_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_parallel_matches_serial(self, quad8):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        serial = convergence_study(p, eps, quad8, floor_cells=32)
        parallel = convergence_study(p, eps, quad8, floor_cells=32, jobs=2)
        for name in serial.column_names():
            np.testing.assert_array_equal(serial.columns[name],
                                          parallel.columns[name])

    def test_operator_built_and_certified_once(self, quad8, monkeypatch):
        # the operator does not depend on the mesh, so a whole sweep shares one
        import translimit.velocity_space as vs
        from translimit import KernelSpec

        built, decomposed = [], []
        build, decomposition = KernelSpec.build, vs._decomposition
        monkeypatch.setattr(KernelSpec, "build",
                            lambda self, q: built.append(q) or build(self, q))
        monkeypatch.setattr(vs, "_decomposition",
                            lambda op: decomposed.append(op._decomp is None)
                            or decomposition(op))
        rep = convergence_study(smooth_benchmark(),
                                [2.0**-k for k in range(1, 5)], quad8,
                                floor_cells=32)
        assert len(rep.n_cells) == 4
        assert len(built) == 1
        assert decomposed.count(True) == 1

    def test_discontinuous_sigma_flags_no_rate(self, quad8):
        p = make_problem(
            n_cells=64,
            sigma=CoefficientField.piecewise([0.5], [1.0, 4.0]),
        )
        rep = convergence_study(p, [2.0**-k for k in range(1, 5)], quad8,
                                floor_cells=32)
        assert not rep.rate_asserted
        assert any("rate not asserted" in n for n in rep.notes)

    def test_partial_report_on_convergence_failure(self, quad8):
        from translimit import ConvergenceError, SolverOptions

        p = smooth_benchmark()
        opts = SolverOptions(acceleration="none", max_iterations=30)
        with pytest.raises(ConvergenceError) as err:
            convergence_study(p, [2.0**-k for k in range(1, 5)], quad8,
                              options=opts, floor_cells=32)
        assert hasattr(err.value, "partial_report")


class TestWeakConsistency:
    def test_transport_average_satisfies_limit_weak_form(self, quad16):
        # pairing the weak residual of the converged velocity average with a
        # fixed smooth test decays like eps + h^2 (measured constant ~1.83)
        import dataclasses

        from translimit import cells_for_eps, weak_residual

        p = smooth_benchmark()
        op = p.kernel.build(quad16)
        pairings = {}
        for k in (4, 6):
            eps = 2.0**-k
            n = cells_for_eps(eps, 1.0)
            pe = dataclasses.replace(p, grid=Grid1D(1.0, n))
            sol = solve_transport(pe, eps, quad16, operator=op)
            r = weak_residual(solve_diffusion(pe, op), pe, sol.u_bar)
            h = pe.grid.h
            psi = np.sin(np.pi * pe.grid.edges[1:-1])
            pairings[k] = abs(np.sum(h * r * psi))
            assert pairings[k] <= 2.0 * (eps + h * h)
        assert pairings[6] / pairings[4] < 0.35
