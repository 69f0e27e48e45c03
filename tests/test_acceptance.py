"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The gates cover: the closed-form and oracle-confirmed diffusion tensors, the
operator certification, the norm-equivalence window, solver verification by
manufactured solutions, the eps-sweep rate measurements on the smooth and
two-material benchmarks, the remainder and L4 rates, and the necessity of
synthetic-diffusion acceleration deep in the diffusive regime.
"""

import csv
import json
import time

import numpy as np
import pytest

from translimit import (
    CoefficientField,
    ConvergenceError,
    SolverOptions,
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    certify_assumptions,
    convergence_study,
    diffusion_tensor,
    kernel_isotropic,
    kernel_linear,
    manufactured_case,
    mms_diffusion_source,
    mms_transport_source,
    norms,
    solve_diffusion,
    solve_transport,
)
from translimit.cli import main as cli_main
from conftest import (dense_scattering, l2_error, make_problem, smooth_benchmark,
                      split_energy_sq)

EPS_SWEEP = tuple(2.0**-k for k in range(1, 7))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def smooth_report(iso16):
    t0 = time.perf_counter()
    rep = convergence_study(smooth_benchmark(), EPS_SWEEP, iso16)
    return rep, time.perf_counter() - t0


class TestCriterion1:
    def test_isotropic_tensor_via_cli(self, tmp_path):
        cfg = tmp_path / "iso.ini"
        cfg.write_text("[grid]\nn_cells = 8\n[scattering]\nn_polar = 8\n"
                       "n_azimuth = 16\n")
        t0 = time.perf_counter()
        rc = cli_main(["tensor", "--config", str(cfg), "--out", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        with open(tmp_path / "tensor.csv") as fh:
            rows = list(csv.DictReader(fh))
        comps = {"a11": 1 / 3, "a22": 1 / 3, "a33": 1 / 3,
                 "a12": 0.0, "a13": 0.0, "a23": 0.0}
        err = max(abs(float(r[k]) - v) for r in rows for k, v in comps.items())
        ok = rc == 0 and err <= 1e-10 and elapsed < 1.0
        assert report("1 isotropic tensor",
                      ok, f"max component error {err:.2e}, {elapsed:.2f} s")


class TestCriterion2:
    def test_anisotropic_tensor_with_oracle(self):
        t0 = time.perf_counter()
        quad = build_sphere_quadrature(8, 16)
        worst = 0.0
        worst_oracle = 0.0
        for g in (0.3, 0.5, 0.9):
            op = assemble_scattering(kernel_linear(g), quad)
            tensor = diffusion_tensor(op, [1.0])
            target = np.eye(3) / (3.0 * (1.0 - g))
            cell = tensor.moment / tensor.sigma[0]
            worst = max(worst, float(np.max(np.abs(cell - target))))
            # independent oracle: SVD pseudoinverse plus quadrature summation
            w, s = quad.weights, np.sqrt(quad.weights)
            m = np.eye(op.n) - dense_scattering(kernel_linear(g), quad)
            sym = 0.5 * ((s[:, None] * m) / s[None, :]
                         + ((s[:, None] * m) / s[None, :]).T)
            pinv = np.linalg.pinv(sym, rcond=1e-8)
            cols = (pinv @ (quad.points * s[:, None])) / s[:, None]
            oracle = quad.points.T @ (w[:, None] * cols)
            worst_oracle = max(worst_oracle,
                               float(np.max(np.abs(oracle - target))))
            assert np.max(np.abs(cell - oracle)) <= 1e-10
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and worst_oracle <= 1e-8 and elapsed < 5.0
        assert report("2 anisotropic tensor",
                      ok, f"max error {worst:.2e}, oracle agrees to "
                          f"{worst_oracle:.2e}, {elapsed:.2f} s")


class TestCriterion3:
    def test_certification(self, quad16):
        t0 = time.perf_counter()
        iso = certify_assumptions(assemble_scattering(kernel_isotropic(), quad16))
        spectrum_ok = (
            abs(iso.eigenvalues[0]) <= 1e-10
            and np.max(np.abs(iso.eigenvalues[1:] - 1.0)) <= 1e-10
        )
        ck_ok = abs(iso.c_K - 1.0) <= 1e-10
        degenerate = certify_assumptions(
            assemble_scattering(kernel_linear(1.0), quad16)
        )
        reject_ok = degenerate.null_space_dim == 2 and not degenerate.all_passed
        elapsed = time.perf_counter() - t0
        ok = spectrum_ok and ck_ok and iso.all_passed and reject_ok and elapsed < 1.0
        assert report("3 certification",
                      ok, f"c_K={iso.c_K:.12f}, degenerate null dim "
                          f"{degenerate.null_space_dim}, {elapsed:.2f} s")


class TestCriterion4:
    def test_norm_equivalence_window(self, quad16):
        t0 = time.perf_counter()
        from translimit import Grid1D

        grid = Grid1D(1.0, 32)
        op = assemble_scattering(kernel_isotropic(), quad16)
        rng = np.random.default_rng(20240817)
        lo, hi = np.inf, -np.inf
        for eps in (1.0, 2.0**-3, 2.0**-6):
            for _ in range(100):
                field = rng.standard_normal((32, 16))
                sg = rng.uniform(0.5, 2.0, 32)
                gm = rng.uniform(0.5, 2.0, 32)
                ns = norms(field, eps, sg, gm, op, grid)
                ratio = ns.energy_sq / split_energy_sq(field, eps, grid, quad16)
                lo, hi = min(lo, ratio), max(hi, ratio)
        elapsed = time.perf_counter() - t0
        ok = lo >= 0.5 and hi <= 4.0 and elapsed < 5.0
        assert report("4 norm equivalence",
                      ok, f"ratio range [{lo:.3f}, {hi:.3f}] in [0.5, 4], "
                          f"{elapsed:.2f} s")


class TestCriterion5:
    def test_solver_verification(self, quad8):
        t0 = time.perf_counter()
        sigma = CoefficientField.sinusoid(1.0, 0.5, 1.0)
        gamma = CoefficientField.constant(1.0)

        dcase = manufactured_case("diffusion-sin")
        iso = assemble_scattering(kernel_isotropic(), quad8)
        src = mms_diffusion_source(dcase, sigma, gamma, iso)
        derrs = []
        from translimit import Grid1D, ProblemSpec
        for n in (32, 64, 128, 256):
            grid = Grid1D(1.0, n)
            p = ProblemSpec(grid=grid, sigma=sigma, gamma=gamma, source=src)
            sol = solve_diffusion(p, iso)
            derrs.append(np.sqrt(grid.h * np.sum(
                (sol.u_cell - dcase.ubar(grid.centers)) ** 2)))
        dorders = [np.log2(a / b) for a, b in zip(derrs, derrs[1:])]

        tcase = manufactured_case("transport-trig")
        terrs = []
        balances = []
        for n in (32, 64, 128, 256):
            p = make_problem(n_cells=n, sigma=sigma)
            src_t = mms_transport_source(tcase, p.sigma, p.gamma, iso, p.grid)
            sol = solve_transport(p, 1.0, iso, SolverOptions(tolerance=1e-12),
                                  source_override=src_t)
            exact = tcase.u(p.grid.centers[:, None], quad8.nodes[None, :])
            terrs.append(l2_error(sol.u, exact, p.grid, quad8))
            balances.append(sol.log.balance_residual)
        torders = [np.log2(a / b) for a, b in zip(terrs, terrs[1:])]
        elapsed = time.perf_counter() - t0

        ok = (min(dorders) >= 1.9 and min(torders) >= 1.9
              and max(balances) <= 1e-10 and elapsed < 30.0)
        assert report(
            "5 solver verification", ok,
            f"diffusion order {min(dorders):.3f}, transport order "
            f"{min(torders):.3f}, max balance {max(balances):.1e}, "
            f"{elapsed:.1f} s")


class TestCriterion6:
    def test_smooth_benchmark_rate(self, smooth_report):
        rep, elapsed = smooth_report
        slope = rep.slopes["err_total"].slope
        ok = 0.85 <= slope <= 1.15 and elapsed < 300.0
        assert report("6 smooth-benchmark total error rate",
                      ok, f"slope {slope:.3f} in [0.85, 1.15], {elapsed:.1f} s")


    @pytest.mark.parametrize("g", [0.3, 0.6])
    def test_linear_kernel_rate(self, quad16, g):
        # the limit's diffusivity is the kernel's own slab moment
        # 1/(3(1-g) sigma); against 1/(3 sigma) err_total stalls and grows
        t0 = time.perf_counter()
        op = assemble_scattering(kernel_linear(g), quad16)
        rep = convergence_study(make_problem(n_cells=64), EPS_SWEEP, op)
        slope = rep.slopes["err_total"].slope
        elapsed = time.perf_counter() - t0
        ok = 0.85 <= slope <= 1.15 and elapsed < 60.0
        assert report(f"6 linear-kernel (g={g}) total error rate", ok,
                      f"slope {slope:.3f} in [0.85, 1.15], {elapsed:.1f} s")


class TestCriterion7:
    def test_fluctuation_rate(self, smooth_report):
        rep, _ = smooth_report
        slope = rep.slopes["err_fluct"].slope
        ok = 0.85 <= slope <= 1.15
        assert report("7a fluctuation rate",
                      ok, f"slope {slope:.3f} in [0.85, 1.15]")

    def test_outflow_trace_rate_window(self, smooth_report):
        # With zero inflow the limit u0 vanishes on the boundary, so the
        # outflow trace of the expansion is carried by the eps-weighted
        # corrector and decays at first order.  The C sqrt(eps) energy
        # estimate is only an upper bound; the study notes any growth of
        # bdry/sqrt(eps), which TestApriori checks stays absent.
        rep, _ = smooth_report
        slope = rep.slopes["bdry"].slope
        ok = 0.85 <= slope <= 1.15
        assert report("7b outflow trace rate window", ok,
                      f"slope {slope:.3f} in [0.85, 1.15]"), (
            f"outflow trace slope {slope:.3f} is outside [0.85, 1.15]; zero "
            "inflow gives u0 = 0 on the boundary, so the trace is "
            "eps-weighted and first order")

    def test_directional_derivative_bounded(self, smooth_report):
        rep, _ = smooth_report
        deriv = rep.columns["deriv"]
        spread = float(np.max(deriv) / np.min(deriv))
        ok = spread < 2.0
        assert report("7c directional derivative bounded",
                      ok, f"max/min {spread:.3f} < 2")


class TestCriterion8:
    def test_two_material_convergence(self, iso16):
        t0 = time.perf_counter()
        p = make_problem(
            n_cells=64,
            sigma=CoefficientField.piecewise([0.5], [1.0, 4.0]),
        )
        rep = convergence_study(p, EPS_SWEEP, iso16)
        err = rep.columns["err_total"]
        decreasing = bool(np.all(np.diff(err) < 0.0))
        elapsed = time.perf_counter() - t0
        ok = decreasing and not rep.rate_asserted and elapsed < 300.0
        assert report("8 two-material convergence", ok,
                      "errors " + " > ".join(f"{e:.3e}" for e in err)
                      + f", {elapsed:.1f} s")


class TestCriterion9:
    def test_remainder_rate(self, smooth_report):
        rep, _ = smooth_report
        slope = rep.slopes["remainder"].slope
        ok = slope >= 0.85
        assert report("9 expansion remainder rate",
                      ok, f"slope {slope:.3f} >= 0.85")


class TestCriterion10:
    def test_l4_rate(self, smooth_report):
        rep, _ = smooth_report
        slope = rep.slopes["err_l4"].slope
        ok = slope >= 0.45
        assert report("10 L4 interpolation rate", ok,
                      f"slope {slope:.3f} >= 0.45 (sharpness not asserted)")


class TestCriterion11:
    def test_acceleration_necessity(self, iso16):
        t0 = time.perf_counter()
        p = make_problem(n_cells=256)
        eps = 2.0**-6
        accelerated = solve_transport(p, eps, iso16)
        n_acc = accelerated.log.iterations
        max_unacc = 600
        try:
            un = solve_transport(
                p, eps, iso16,
                SolverOptions(acceleration="none", max_iterations=max_unacc))
            n_un = un.log.iterations
            hit_max = False
        except ConvergenceError as exc:
            n_un = exc.log.iterations
            hit_max = True
        elapsed = time.perf_counter() - t0
        ok = (hit_max or n_un >= 10 * n_acc) and elapsed < 60.0
        assert report(
            "11 acceleration necessity", ok,
            f"dsa {n_acc} iterations, plain {n_un}"
            + (" (hit max_iterations)" if hit_max else "")
            + f", {elapsed:.1f} s")
