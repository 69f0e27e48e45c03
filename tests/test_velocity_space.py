import numpy as np
import pytest
import scipy.optimize

from translimit import (
    CertificationError,
    ScatteringOperator,
    SolvabilityError,
    ValidationError,
    apply_K,
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    certify_assumptions,
    diffusion_moment,
    diffusion_tensor,
    kernel_isotropic,
    kernel_linear,
    pinv_apply,
)


class TestSphereQuadrature:
    def test_unit_vectors_and_normalized_weights(self):
        q = build_sphere_quadrature(2, 4)
        np.testing.assert_allclose(np.linalg.norm(q.points, axis=1), 1.0, atol=1e-12)
        assert abs(q.weights.sum() - 1.0) < 1e-12
        assert np.all(q.weights > 0)

    def test_odd_moment_vanishes(self):
        q = build_sphere_quadrature(2, 4)
        np.testing.assert_allclose(q.weights @ q.points, 0.0, atol=1e-14)

    def test_second_moment_is_identity_over_three(self):
        q = build_sphere_quadrature(4, 8)
        m = (q.weights[:, None] * q.points).T @ q.points
        np.testing.assert_allclose(m, np.eye(3) / 3.0, atol=1e-12)

    def test_fourth_moment_against_monte_carlo(self):
        # analytic moment of the uniform sphere measure: int mu^4 dmu / 2 = 1/5
        q = build_sphere_quadrature(4, 8)
        val = q.weights @ q.points[:, 0] ** 4
        assert abs(val - 0.2) < 1e-12
        rng = np.random.default_rng(1234)
        v = rng.standard_normal((2_000_000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        mc = np.mean(v[:, 0] ** 4)
        assert abs(mc - 0.2) < 5e-4

    @pytest.mark.parametrize("np_, na", [(1, 8), (3, 3), (0, 4)])
    def test_invalid_sizes(self, np_, na):
        with pytest.raises(ValidationError):
            build_sphere_quadrature(np_, na)


class TestAngularQuadrature:
    def test_two_point_rule_matches_root_oracle(self):
        # roots of the degree-2 polynomial from the three-term recurrence
        def p2(x):
            p0, p1 = 1.0, x
            return (3.0 * x * p1 - 1.0 * p0) / 2.0

        root = scipy.optimize.brentq(p2, 0.1, 1.0)
        q = build_angular_quadrature(2)
        np.testing.assert_allclose(sorted(q.nodes), [-root, root], atol=1e-14)
        np.testing.assert_allclose(q.weights, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(abs(q.nodes), 1.0 / np.sqrt(3.0), atol=1e-14)

    def test_moments(self):
        q = build_angular_quadrature(8)
        assert abs(q.weights.sum() - 1.0) < 1e-14
        assert abs(q.weights @ q.nodes) < 1e-14
        assert abs(q.weights @ q.nodes**2 - 1.0 / 3.0) < 1e-14

    def test_nodes_inside_open_interval_without_zero(self):
        for n in (2, 4, 16):
            q = build_angular_quadrature(n)
            assert np.all(np.abs(q.nodes) < 1.0)
            assert np.all(q.nodes != 0.0)

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_invalid_sizes(self, n):
        with pytest.raises(ValidationError):
            build_angular_quadrature(n)


class TestAssembleScattering:
    def test_isotropic_rows_are_weights(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        np.testing.assert_allclose(op.matrix, np.tile(quad8.weights, (8, 1)),
                                   atol=1e-15)

    def test_constant_vector_preserved(self, quad8):
        for kern in (kernel_isotropic(), kernel_linear(0.7)):
            op = assemble_scattering(kern, quad8)
            np.testing.assert_allclose(op.matrix @ np.ones(8), 1.0, atol=1e-13)

    def test_linear_kernel_spectrum(self, quad8):
        # Legendre eigenfunctions: I-K has eigenvalues {0, 1-g, 1, ..., 1}
        g = 0.5
        op = assemble_scattering(kernel_linear(g), quad8)
        report = certify_assumptions(op)
        expected = np.sort(np.r_[0.0, 1.0 - g, np.ones(6)])
        np.testing.assert_allclose(report.eigenvalues, expected, atol=1e-12)

    def test_weighted_self_adjointness(self, quad8):
        op = assemble_scattering(kernel_linear(0.5), quad8)
        assert op.symmetry_defect() < 1e-12

    def test_normalization_warning_recorded(self, quad8):
        def k(v, vp):
            return np.exp(-((v[..., 0] - vp[..., 0]) ** 2))

        op = assemble_scattering(k, quad8)
        assert op.normalization_deviation > 1e-6
        assert any("normalization" in w for w in op.warnings)
        np.testing.assert_allclose(op.matrix @ np.ones(8), 1.0, atol=1e-13)

    @pytest.mark.parametrize("g", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("rule", ["quad8", "quad16", "sphere1152"])
    def test_linear_kernel_bit_identical_to_summed_product(self, request, rule, g):
        # the per-coordinate dot product must round exactly as the summed
        # (n, n, d) broadcast product it replaced, so operators keep every bit
        quad = (build_sphere_quadrature(24, 48) if rule == "sphere1152"
                else request.getfixturevalue(rule))
        v, vp = quad.coords[:, None, :], quad.coords[None, :, :]
        expected = 1.0 + 3.0 * g * np.sum(v * vp, axis=-1)
        got = kernel_linear(g)(v, vp)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_negative_kernel_values_recorded(self, quad8):
        op = assemble_scattering(kernel_linear(0.9), quad8)
        assert op.kernel_min < 0
        assert any("negative" in w for w in op.warnings)

    def test_asymmetric_table_rejected(self, quad8):
        table = np.ones((8, 8))
        table[0, 1] = 2.0
        with pytest.raises(ValidationError):
            assemble_scattering(table, quad8)

    def test_wrong_table_shape_rejected(self, quad8):
        with pytest.raises(ValidationError):
            assemble_scattering(np.ones((4, 4)), quad8)


class TestCertifyAssumptions:
    def test_isotropic_projection_spectrum(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        report = certify_assumptions(op)
        np.testing.assert_allclose(report.eigenvalues,
                                   np.r_[0.0, np.ones(7)], atol=1e-12)
        assert report.null_space_dim == 1
        assert abs(report.c_K - 1.0) < 1e-10
        assert report.all_passed

    def test_identity_operator_fails_null_space(self, quad8):
        op = ScatteringOperator(matrix=np.eye(8), quadrature=quad8)
        report = certify_assumptions(op)
        assert report.null_space_dim == 8
        assert not report.passed["null_space"]
        assert not report.all_passed

    def test_linear_c_k(self, quad8):
        op = assemble_scattering(kernel_linear(0.5), quad8)
        report = certify_assumptions(op)
        assert abs(report.c_K - 2.0) < 1e-10
        assert report.all_passed

    def test_g_one_rejected_for_null_space_two(self, quad8):
        op = assemble_scattering(kernel_linear(1.0), quad8)
        report = certify_assumptions(op)
        assert report.null_space_dim == 2
        assert not report.passed["null_space"]

    def test_report_serializes(self, quad8):
        report = certify_assumptions(assemble_scattering(kernel_isotropic(), quad8))
        payload = report.to_json()
        assert '"c_K"' in payload and '"eigenvalues"' in payload and '"passed"' in payload


class TestPinvApply:
    def test_isotropic_leaves_mean_free_unchanged(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        u = pinv_apply(op, quad8.nodes)
        np.testing.assert_allclose(u, quad8.nodes, atol=1e-13)
        resid = (np.eye(8) - op.matrix) @ u - quad8.nodes
        np.testing.assert_allclose(resid, 0.0, atol=1e-13)

    def test_constant_rhs_rejected(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        with pytest.raises(SolvabilityError):
            pinv_apply(op, np.ones(8))

    def test_linear_kernel_scales_mu(self, quad8):
        op = assemble_scattering(kernel_linear(0.5), quad8)
        u = pinv_apply(op, quad8.nodes)
        np.testing.assert_allclose(u, 2.0 * quad8.nodes, atol=1e-12)
        resid = (np.eye(8) - op.matrix) @ u - quad8.nodes
        np.testing.assert_allclose(resid, 0.0, atol=1e-13)

    def test_bound_and_roundtrip_on_random_mean_free_vectors(self, quad16):
        op = assemble_scattering(kernel_linear(0.4), quad16)
        report = certify_assumptions(op)
        w = quad16.weights
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = rng.standard_normal(16)
            r -= (r @ w)  # remove the weighted mean (constant shift)
            u = pinv_apply(op, r)
            nrm = lambda v: np.sqrt(v**2 @ w)
            assert nrm(u) <= report.c_K * nrm(r) * (1 + 1e-12)
            recon = (np.eye(16) - op.matrix) @ u
            assert nrm(recon - r) <= 1e-9 * nrm(r)

    def test_vectorized_over_cells(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        rhs = np.outer([1.0, 2.0, -3.0], quad8.nodes)
        u = pinv_apply(op, rhs)
        np.testing.assert_allclose(u, rhs, atol=1e-12)

    def test_failed_certification_blocks_pinv(self, quad8):
        op = ScatteringOperator(matrix=np.eye(8), quadrature=quad8)
        with pytest.raises(CertificationError):
            pinv_apply(op, quad8.nodes)


class TestApplyK:
    def test_constant_preserved(self, quad8):
        op = assemble_scattering(kernel_linear(0.3), quad8)
        np.testing.assert_allclose(apply_K(op, np.ones(8)), 1.0, atol=1e-13)

    def test_isotropic_annihilates_mu(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        np.testing.assert_allclose(apply_K(op, quad8.nodes), 0.0, atol=1e-14)

    def test_isotropic_gives_weighted_mean(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        rng = np.random.default_rng(7)
        field = rng.standard_normal((5, 8))
        out = apply_K(op, field)
        mean = field @ quad8.weights
        np.testing.assert_allclose(out, np.tile(mean[:, None], (1, 8)), atol=1e-13)

    def test_shape_mismatch(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        with pytest.raises(ValidationError):
            apply_K(op, np.ones(5))


class TestDiffusionMoment:
    def test_isotropic_slab_moment_is_one_third(self, quad8):
        m = diffusion_moment(assemble_scattering(kernel_isotropic(), quad8))
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - 1.0 / 3.0) <= 1e-15

    @pytest.mark.parametrize("g", [0.3, 0.6, 0.9])
    def test_linear_kernel_closed_form_on_slab_and_sphere(self, quad16, sphere48, g):
        expected = 1.0 / (3.0 * (1.0 - g))
        slab = diffusion_moment(assemble_scattering(kernel_linear(g), quad16))
        np.testing.assert_allclose(slab, [[expected]], rtol=1e-12)
        sphere = diffusion_moment(assemble_scattering(kernel_linear(g), sphere48))
        np.testing.assert_allclose(sphere, expected * np.eye(3), rtol=1e-12,
                                   atol=1e-13 * expected)

    def test_tensor_is_moment_over_sigma(self, sphere48):
        op = assemble_scattering(kernel_linear(0.4), sphere48)
        sigma = np.array([1.0, 2.5])
        t = diffusion_tensor(op, sigma)
        np.testing.assert_array_equal(t.moment, diffusion_moment(op))
        np.testing.assert_allclose(t.matrices, t.moment / sigma[:, None, None],
                                   rtol=1e-15)

    def test_uncertified_operator_rejected(self, quad8):
        op = assemble_scattering(kernel_linear(1.0), quad8)
        with pytest.raises(CertificationError):
            diffusion_moment(op)


class TestDiffusionTensor:
    def test_isotropic_is_identity_over_three(self, sphere48):
        op = assemble_scattering(kernel_isotropic(), sphere48)
        t = diffusion_tensor(op, [1.0])
        np.testing.assert_allclose(t.matrices[0], np.eye(3) / 3.0, atol=1e-10)

    def test_sigma_scaling(self, sphere48):
        op = assemble_scattering(kernel_isotropic(), sphere48)
        t = diffusion_tensor(op, [1.0, 2.0])
        np.testing.assert_allclose(t.matrices[1], np.eye(3) / 6.0, atol=1e-10)

    def test_linear_kernel_against_dense_pseudoinverse_oracle(self, sphere48):
        g = 0.5
        op = assemble_scattering(kernel_linear(g), sphere48)
        t = diffusion_tensor(op, [1.0])
        np.testing.assert_allclose(t.matrices[0], np.eye(3) / (3 * (1 - g)),
                                   atol=1e-8)
        # oracle: SVD pseudoinverse of the symmetrized matrix, then summation
        w = sphere48.weights
        s = np.sqrt(w)
        m = np.eye(op.n) - op.matrix
        sym = (s[:, None] * m) / s[None, :]
        pinv = np.linalg.pinv(0.5 * (sym + sym.T), rcond=1e-8)
        v = sphere48.points
        g_cols = (pinv @ (v * s[:, None])) / s[:, None]
        oracle = v.T @ (w[:, None] * g_cols)
        np.testing.assert_allclose(t.matrices[0], oracle, atol=1e-10)

    def test_eigenvalue_window(self, sphere48):
        op = assemble_scattering(kernel_linear(0.5), sphere48)
        report = certify_assumptions(op)
        sigma = np.array([0.5, 1.0, 2.0])
        t = diffusion_tensor(op, sigma)
        for mat, sg in zip(t.matrices, sigma):
            eig = np.linalg.eigvalsh(mat)
            assert eig[0] >= (1.0 - 1e-8) / (3 * sg)
            assert eig[-1] <= report.c_K * (1.0 + 1e-8) / (3 * sg)

    def test_requires_sphere_quadrature(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        with pytest.raises(ValidationError):
            diffusion_tensor(op, [1.0])

    def test_rejects_nonpositive_sigma(self, sphere48):
        op = assemble_scattering(kernel_isotropic(), sphere48)
        with pytest.raises(ValidationError):
            diffusion_tensor(op, [1.0, 0.0])
