import numpy as np
import pytest

from translimit import (
    CertificationError,
    CoefficientField,
    DiffusionSolution,
    Grid1D,
    SolverOptions,
    ValidationError,
    apply_K,
    assemble_scattering,
    build_angular_quadrature,
    certify_assumptions,
    convergence_study,
    expansion_remainder,
    first_order_corrector,
    fit_loglog,
    kernel_isotropic,
    kernel_linear,
    norms,
    outflow_trace,
    pinv_apply,
    solve_diffusion,
    solve_transport,
    space_velocity_norm,
    split_mean_fluctuation,
    velocity_average,
)
from conftest import make_problem, smooth_benchmark, split_energy_sq


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
            parts = grid.h * np.sum(mean**2) + \
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
                                   eps * grid.h * np.sum(ubar**2),
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
                ratio = ns.energy_sq / split_energy_sq(u, eps, grid, quad8)
                assert 0.5 - 1e-12 <= ratio <= 4.0 + 1e-12

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

    @pytest.mark.parametrize("value", [0.1, 10.0, 1e-200, 1e200])
    @pytest.mark.parametrize("p", [1000.0, 5000.0, 2.0])
    def test_large_p_of_a_constant_field(self, quad8, value, p):
        # |f|^p underflows or overflows (0.1^1000, 10^1000, 1e-200^2,
        # 1e200^2), which made the norm 0 or inf; the exact norm of a
        # constant c on a slab of length L is c L^(1/p)
        grid = Grid1D(2.0, 16)
        field = np.full((16, quad8.n), value)
        got = space_velocity_norm(field, grid, quad8, p)
        assert got == pytest.approx(value * 2.0 ** (1.0 / p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [3.0, 0.3, 1e-300])
    def test_large_p_of_a_spike(self, quad8, m):
        # one nonzero entry m in cell i, ordinate j: m (h w_j)^(1/p)
        grid = Grid1D(1.0, 8)
        field = np.zeros((8, quad8.n))
        field[5, 2] = -m
        for p in (700.0, 1000.0, 1e4):
            want = m * (grid.h * quad8.weights[2]) ** (1.0 / p)
            assert space_velocity_norm(field, grid, quad8, p) == pytest.approx(
                want, rel=1e-13, abs=0.0)

    def test_large_p_keeps_zero_and_non_finite_fields(self, quad8):
        grid = Grid1D(1.0, 4)
        assert space_velocity_norm(np.zeros((4, 8)), grid, quad8, 1000) == 0.0
        field = np.ones((4, 8))
        field[1, 1] = np.inf
        assert space_velocity_norm(field, grid, quad8, 1000) == np.inf
        field[1, 1] = np.nan
        assert np.isnan(space_velocity_norm(field, grid, quad8, 1000))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_moderate_p_keeps_its_bits(self, quad16, p):
        # the power sum is neither 0 nor inf here, so the norm is the
        # plain formula, bit for bit
        grid = Grid1D(1.0, 24)
        rng = np.random.default_rng(p)
        for scale in (1.0, 1e-3, 1e3):
            field = scale * rng.standard_normal((24, quad16.n))
            want = (grid.h * np.sum(np.abs(field) ** float(p) @ quad16.weights)) ** (1.0 / p)
            assert space_velocity_norm(field, grid, quad16, p) == float(want)

    @pytest.mark.parametrize("bad", [0, -1, 0.5, float("nan")])
    def test_exponent_below_one_rejected(self, quad8, iso8, bad):
        grid = Grid1D(1.0, 4)
        u = np.ones((4, 8))
        with pytest.raises(ValidationError, match="p >= 1"):
            space_velocity_norm(u, grid, quad8, bad)
        with pytest.raises(ValidationError, match="p >= 1"):
            norms(u, 0.5, np.ones(4), np.ones(4), iso8, grid, ps=(1, bad))


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
        psi = expansion_remainder(u_eps - u0[:, None], u1, eps)
        np.testing.assert_allclose(psi, 0.0, atol=1e-15)

    def test_triangle_inequality_sanity(self, quad8, iso8):
        grid = Grid1D(1.0, 32)
        p = make_problem(n_cells=32)
        sol = solve_transport(p, 2.0**-4, iso8)
        d = solve_diffusion(p, iso8)
        u1 = first_order_corrector(d, p.sigma(grid.centers), iso8)
        u0c = d.at_centers()
        psi = expansion_remainder(sol.u - u0c[:, None], u1, sol.eps)
        lhs = space_velocity_norm(psi, grid, quad8)
        rhs = space_velocity_norm(sol.u - u0c[:, None], grid, quad8) \
            + sol.eps * space_velocity_norm(u1, grid, quad8)
        assert lhs <= rhs + 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            expansion_remainder(np.ones((4, 3)), np.ones((5, 3)), 0.5)


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


def apriori_quantities(rep):
    """The quantities the paper bounds uniformly in eps, from a study."""
    cols = rep.columns
    return {
        "bdry/sqrt(eps)": cols["bdry"] / np.sqrt(rep.eps),
        "err_fluct/eps": cols["err_fluct"] / rep.eps,
        "deriv": cols["deriv"],
        "energy_ratio": cols["energy_ratio"],
        "max_abs": cols["max_abs"],
    }


class TestApriori:
    def test_zero_data_gives_zero_rows(self, iso8):
        p = make_problem(n_cells=32, source=0.0)
        rep = convergence_study(p, [0.5, 0.25, 0.125, 0.0625], iso8,
                                floor_cells=32)
        for name in ("err_total", "err_fluct", "bdry", "deriv",
                     "energy_ratio", "max_abs"):
            np.testing.assert_allclose(rep.columns[name], 0.0, atol=1e-12)
        assert rep.notes == ()

    def test_smooth_sweep_stays_bounded(self, iso8):
        # the 64-cell floor puts every row on the same mesh
        p = smooth_benchmark(n_cells=64)
        rep = convergence_study(p, [0.5, 0.25, 0.125, 0.0625], iso8)
        assert rep.n_cells == (64, 64, 64, 64)
        for name, vals in apriori_quantities(rep).items():
            assert len(vals) == 4
            assert np.max(vals) <= 2.0 * vals[0], name
        assert rep.notes == ()

    def test_energy_ratio_and_max_abs_of_each_row(self, quad8, iso8):
        # inflow on both faces, so every term of the energy identity counts
        p = make_problem(n_cells=64, g_left=0.5, g_right=0.25,
                         sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0))
        eps = [0.5, 0.25, 0.125, 0.0625]
        rep = convergence_study(p, eps, iso8)
        mu, w, h = quad8.nodes, quad8.weights, p.grid.h
        for i, e in enumerate(eps):
            sol = solve_transport(p, e, iso8)  # the row's 64-cell mesh
            mean, fluct = split_mean_fluctuation(sol.u, quad8)
            lhs = (outflow_trace(sol).norm() ** 2
                   + space_velocity_norm(fluct, p.grid, quad8) ** 2 / e
                   + e * h * np.sum(mean**2))
            g = e * np.where(mu > 0, 0.5, 0.25)
            f_sq = h * np.sum((e * p.source(p.grid.centers)) ** 2)
            rhs = np.sum(w * np.abs(mu) * g**2) + f_sq / e
            assert rep.columns["energy_ratio"][i] == pytest.approx(lhs / rhs,
                                                                   rel=1e-12)
            assert rep.columns["max_abs"][i] == np.max(np.abs(sol.u))

    def test_growth_past_twice_the_first_value_is_noted(self):
        from translimit.analysis import _growth_notes

        cols = {name: np.ones(4) for name in
                ("bdry", "err_fluct", "deriv", "energy_ratio", "max_abs")}
        eps = np.array([0.5, 0.25, 0.125, 0.0625])
        cols["bdry"] = np.sqrt(eps)
        cols["max_abs"] = np.array([1.0, 1.5, 2.0, 2.5])
        notes = _growth_notes(eps, cols)
        # err_fluct/eps doubles each row; max_abs passes 2x at the last
        assert [n.split()[3] for n in notes] == ["err_fluct/eps", "max_abs"]
        assert _growth_notes(eps[:0], {k: v[:0] for k, v in cols.items()}) == []


class TestConvergenceStudy:
    def test_eps_list_validation(self, iso8):
        p = smooth_benchmark()
        with pytest.raises(ValidationError):
            convergence_study(p, [0.5], iso8)
        with pytest.raises(ValidationError):
            convergence_study(p, [0.5, 0.3, 0.2, 0.1], iso8)
        with pytest.raises(ValidationError):
            convergence_study(p, [0.8, 0.64, 0.512, 0.4096], iso8)

    @pytest.mark.parametrize("ps", [(0,), (-1,), (0.5,), (1, float("nan"))])
    def test_exponent_below_one_rejected_before_any_solve(
            self, iso8, ps, monkeypatch):
        import translimit.analysis as analysis

        diffused = []
        monkeypatch.setattr(analysis, "solve_diffusion",
                            lambda *a, **k: diffused.append(a))
        with pytest.raises(ValidationError, match="p >= 1"):
            convergence_study(smooth_benchmark(), [0.5, 0.25, 0.125, 0.0625],
                              iso8, ps=ps)
        assert diffused == []

    def test_small_study_structure(self, iso8):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        rep = convergence_study(p, eps, iso8, floor_cells=32)
        assert list(rep.columns) == [
            "err_total", "err_fluct", "bdry", "deriv", "remainder",
            "err_l1", "err_l4", "energy_ratio", "max_abs",
        ]
        assert all(len(v) == 4 for v in rep.columns.values())
        assert rep.rate_asserted
        for n, e in zip(rep.n_cells, eps):
            assert 1.0 / n <= e / 4.0 or n == 32

        assert "err_total" in rep.slopes
        # each row records its solve's sweeps and its reduction per sweep
        first = solve_transport(smooth_benchmark(rep.n_cells[0]), eps[0], iso8).log
        assert rep.iterations[0] == first.iterations
        assert rep.reduction_per_sweep[0] == first.spectral_radius_estimate
        assert len(rep.reduction_per_sweep) == 4
        assert all(0.0 < r < 1.0 for r in rep.reduction_per_sweep)

    def test_determinism(self, iso8):
        p = smooth_benchmark()
        eps = [2.0**-k for k in range(1, 5)]
        r1 = convergence_study(p, eps, iso8, floor_cells=32)
        r2 = convergence_study(p, eps, iso8, floor_cells=32)
        np.testing.assert_array_equal(r1.eps, r2.eps)
        assert list(r1.columns) == list(r2.columns)
        for name in r1.columns:
            np.testing.assert_array_equal(r1.columns[name], r2.columns[name])
        for name in ("slopes", "n_cells", "iterations", "reduction_per_sweep",
                     "rate_asserted", "notes", "protocol"):
            assert getattr(r1, name) == getattr(r2, name)

    @pytest.mark.parametrize("sigma, kernel, n_ordinates, deepest, sweeps", [
        (CoefficientField.sinusoid(1.0, 0.5, 1.0, phase=0.8442354444173306),
         kernel_isotropic(), 16, 9, 112),
        (CoefficientField.piecewise([0.5], [1.0, 4.0]), kernel_linear(0.5), 64,
         7, 100),
    ], ids=["smooth-deep", "jump-aniso"])
    def test_sweeps_per_study_stay_within_budget(
            self, monkeypatch, sigma, kernel, n_ordinates, deepest, sweeps):
        # the two benchmark studies: their sweep counts bound how deep a
        # study can afford to go, so a change that adds sweeps shows here
        import translimit.transport as transport

        calls = []
        original = transport.sweep
        monkeypatch.setattr(transport, "sweep",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        op = assemble_scattering(kernel, build_angular_quadrature(n_ordinates))
        rep = convergence_study(make_problem(n_cells=64, sigma=sigma),
                                [2.0**-k for k in range(1, deepest + 1)], op)
        assert sum(rep.iterations) == len(calls)
        assert len(calls) <= sweeps

    @pytest.mark.parametrize("sigma", [
        CoefficientField.piecewise([0.5], [1.0, 100.0]),
        CoefficientField.piecewise([0.5], [1.0, 1000.0]),
        CoefficientField.constant(1e3),
    ], ids=["1|100", "1|1000", "constant-1e3"])
    def test_high_contrast_studies_complete(self, iso16, sigma):
        # the last rows have cells with sigma_t h in the tens and hundreds,
        # where the finite-volume DSA amplifies a rounding-level residual
        eps = [2.0**-k for k in range(1, 8)]
        rep = convergence_study(make_problem(n_cells=64, sigma=sigma), eps, iso16)
        assert len(rep.eps) == len(eps)
        assert np.all(np.diff(rep.columns["err_total"]) < 0.0)

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

    def test_limit_and_corrector_solved_once_per_mesh(self, iso8, monkeypatch):
        # eps 2^-1..2^-3 share the 32-cell floor mesh; the limit and the
        # corrector do not depend on eps, so its rows share one of each
        import translimit.analysis as analysis

        calls = {"solve_diffusion": [], "first_order_corrector": []}
        for name, record in calls.items():
            original = getattr(analysis, name)
            monkeypatch.setattr(
                analysis, name,
                lambda *a, _f=original, _r=record, **k: _r.append(a) or _f(*a, **k))
        eps = [2.0**-k for k in range(1, 5)]
        rep = convergence_study(smooth_benchmark(), eps, iso8, floor_cells=32)
        assert rep.n_cells == (32, 32, 32, 64)
        assert [a[0].grid.n_cells for a in calls["solve_diffusion"]] == [32, 64]
        assert len(calls["first_order_corrector"]) == 2

        # every row alone, on a fresh ProblemSpec, gives the same bits
        for i, (e, n) in enumerate(zip(eps, rep.n_cells)):
            row, log = analysis._study_row(
                analysis._MeshRecord(smooth_benchmark(n)), e, iso8,
                SolverOptions(), (1.0, 4.0))
            assert list(row) == list(rep.columns)
            for name, column in rep.columns.items():
                assert row[name] == column[i], (name, e)
            assert log.iterations == rep.iterations[i]

    def test_each_field_evaluated_once_per_mesh(self, iso8, monkeypatch):
        evaluated = []
        call = CoefficientField.__call__
        monkeypatch.setattr(
            CoefficientField, "__call__",
            lambda self, x: evaluated.append((id(self), np.size(x))) or call(self, x))
        p = make_problem(sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0),
                         gamma=CoefficientField.piecewise([0.5], [1.0, 2.0]),
                         source=3.0)
        convergence_study(p, [2.0**-k for k in range(1, 5)], iso8, floor_cells=32)
        assert sorted(evaluated) == sorted(
            (id(field), n) for field in (p.sigma, p.gamma, p.source) for n in (32, 64))

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
