import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from translimit import (
    AngularQuadrature,
    CertificationError,
    CoefficientField,
    Grid1D,
    SolvabilityError,
    SphereQuadrature,
    ValidationError,
    apply_K,
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    certify_assumptions,
    convergence_study,
    diffusion_moment,
    diffusion_tensor,
    kernel_isotropic,
    kernel_linear,
    pinv_apply,
)
import translimit.velocity_space as velocity_space
from translimit.velocity_space import NULL_CUTOFF, SPECTRUM_TOL
from conftest import (dense_assembly, dense_certificate_values, dense_scattering,
                      make_problem)


def identity_kernel(quad):
    """k = delta_ij / w_j, the kernel whose operator is K = I."""
    return lambda v, vp: np.all(v == vp, axis=-1) / quad.weights


def shifted_projection_kernel(quad):
    """k = 1.001 - 0.001 delta_ij / w_j, whose operator is P - 0.001 (I - P),
    P the isotropic projection."""
    return lambda v, vp: 1.001 - 0.001 * np.all(v == vp, axis=-1) / quad.weights


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

    def test_negative_ordinates_come_first(self):
        for n in (2, 8, 16):
            q = build_angular_quadrature(n)
            assert np.all(np.diff(q.nodes) > 0.0)
            assert q.n_negative == n // 2
            assert np.all(q.nodes[:q.n_negative] < 0.0)
            assert np.all(q.nodes[q.n_negative:] > 0.0)

    @pytest.mark.parametrize("nodes, n_negative", [
        ([0.5, 1.0], 0), ([-1.0, -0.5], 2), ([-0.5, -0.5, 0.25], 2)])
    def test_split_and_boundary_measure(self, nodes, n_negative):
        weights = np.full(len(nodes), 1.0 / len(nodes))
        q = AngularQuadrature(nodes, weights)
        assert q.n_negative == n_negative
        np.testing.assert_array_equal(q.boundary_measure,
                                      weights * np.abs(nodes))
        assert not q.boundary_measure.flags.writeable

    @pytest.mark.parametrize("nodes, weights, match", [
        ([0.5, -0.5], [0.5, 0.5], "ascending"),
        ([-0.5, 0.0, 0.5], [0.25, 0.5, 0.25], "zero"),
        ([-0.5, np.nan, 0.5], [0.25, 0.5, 0.25], "nan"),
        ([np.nan], [1.0], "nan"),
        ([-0.5, 0.5], [0.5, 0.5, 0.1], "weights"),
        ([[-0.5, 0.5]], [[0.5, 0.5]], "1-D"),
        ([-0.5, 0.5], [-0.5, 1.5], "positive"),
        ([-0.5, 0.5], [0.5, np.inf], "finite"),
        ([-0.5, 0.5], [0.5, np.nan], "finite"),
        ([-0.5, 0.5], [0.9, 0.9], "sum"),
        ([], [], "empty"),
    ], ids=["descending", "zero", "nan", "single-nan", "weights-length", "2d",
            "negative-weight", "inf-weight", "nan-weight", "weights-sum",
            "empty"])
    def test_rejects_malformed_rules(self, nodes, weights, match):
        with pytest.raises(ValidationError, match=match):
            AngularQuadrature(nodes, weights)


class TestAssembleScattering:
    def test_isotropic_rows_are_weights(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        # apply_K(op, I) = K^T
        np.testing.assert_allclose(apply_K(op, np.eye(8)).T,
                                   np.tile(quad8.weights, (8, 1)), atol=1e-15)

    def test_constant_vector_preserved(self, quad8):
        for kern in (kernel_isotropic(), kernel_linear(0.7)):
            op = assemble_scattering(kern, quad8)
            np.testing.assert_allclose(apply_K(op, np.ones(8)), 1.0, atol=1e-13)

    def test_linear_kernel_spectrum(self, quad8):
        # Legendre eigenfunctions: I-K has eigenvalues {0, 1-g, 1, ..., 1}
        g = 0.5
        op = assemble_scattering(kernel_linear(g), quad8)
        report = certify_assumptions(op)
        expected = np.sort(np.r_[0.0, 1.0 - g, np.ones(6)])
        np.testing.assert_allclose(report.eigenvalues, expected, atol=1e-12)

    def test_weighted_self_adjointness(self, quad8):
        op = assemble_scattering(kernel_linear(0.5), quad8)
        assert op.symmetry_defect < 1e-12

    def test_normalization_warning_recorded(self, quad8):
        def k(v, vp):
            return np.exp(-((v[..., 0] - vp[..., 0]) ** 2))

        op = assemble_scattering(k, quad8)
        assert op.normalization_deviation > 1e-6
        assert any("normalization" in w for w in op.warnings)
        np.testing.assert_allclose(apply_K(op, np.ones(8)), 1.0, atol=1e-13)

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

    def test_asymmetric_kernel_rejected(self, quad8):
        def skewed(v, vp):
            return 2.0 + v[..., 0] * vp[..., 0] ** 2

        with pytest.raises(ValidationError, match="not symmetric"):
            assemble_scattering(skewed, quad8)

    def test_wrong_kernel_shape_rejected(self, quad8):
        with pytest.raises(ValidationError, match="shape"):
            assemble_scattering(lambda v, vp: np.ones((4, 4)), quad8)

    def test_factor_must_reproduce_the_kernel(self, quad8):
        k = kernel_linear(0.5)
        k.factor = kernel_linear(0.4).factor
        with pytest.raises(ValidationError, match="does not reproduce"):
            assemble_scattering(k, quad8)
        k.factor = lambda coords: (np.ones((coords.shape[0], 2)), np.eye(3))
        with pytest.raises(ValidationError, match="factor has shapes"):
            assemble_scattering(k, quad8)

    @pytest.mark.parametrize("g", [None, 0.5])
    def test_kernel_without_factor_is_the_full_rank_case(self, quad8, g):
        kernel = kernel_isotropic() if g is None else kernel_linear(g)
        factored = assemble_scattering(kernel, quad8)
        full = assemble_scattering(lambda v, vp: kernel(v, vp), quad8)
        assert full.rank == 8 and factored.rank < full.rank
        # both certificate values come from the same table, not the factor
        assert full.symmetry_defect == factored.symmetry_defect
        assert full.row_sum_max == factored.row_sum_max
        np.testing.assert_allclose(apply_K(full, np.eye(8)), apply_K(factored, np.eye(8)),
                                   rtol=0, atol=1e-15)
        a, b = certify_assumptions(full), certify_assumptions(factored)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=0, atol=1e-14)
        assert a.passed == b.passed and abs(a.c_K - b.c_K) <= 1e-13
        np.testing.assert_allclose(pinv_apply(full, quad8.nodes),
                                   pinv_apply(factored, quad8.nodes),
                                   rtol=0, atol=1e-13)


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
        op = assemble_scattering(identity_kernel(quad8), quad8)
        np.testing.assert_allclose(apply_K(op, np.eye(8)), np.eye(8), atol=1e-15)
        report = certify_assumptions(op)
        assert report.null_space_dim == 8
        assert not report.passed["null_space"]
        assert not report.all_passed

    @pytest.mark.parametrize("n", [8, 16])
    def test_degenerate_null_space_has_no_stability_constant(self, n):
        # g = 1 adds mu's mean-free part to the null space of I - K
        op = assemble_scattering(kernel_linear(1.0), build_angular_quadrature(n))
        report = certify_assumptions(op)
        assert report.null_space_dim == 2
        assert report.c_K == np.inf
        assert not report.passed["solvability"]
        assert not report.passed["null_space"]

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

    def test_operator_is_frozen(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.scatter = np.ones((1, 8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.quadrature = build_angular_quadrature(4)

    def test_one_report_per_operator_at_the_spectrum_tolerance(self, quad8):
        # K = P - 0.001 (I - P), P the isotropic projection: I - K has the
        # spectrum {0, 1.001}, outside [0, 1] by far more than SPECTRUM_TOL
        op = assemble_scattering(shifted_projection_kernel(quad8), quad8)
        p = np.tile(quad8.weights, (8, 1))
        np.testing.assert_allclose(apply_K(op, np.eye(8)).T, p - 0.001 * (np.eye(8) - p),
                                   rtol=0, atol=1e-15)
        report = certify_assumptions(op)
        np.testing.assert_allclose(report.eigenvalues[1:], 1.001, rtol=1e-12)
        assert not report.passed["contraction"]
        assert certify_assumptions(op) is report
        with pytest.raises(TypeError):
            certify_assumptions(op, tol=1e-2)

    def test_require_is_the_gate(self, quad8):
        good = certify_assumptions(assemble_scattering(kernel_isotropic(), quad8))
        assert good.require() is good
        bad = certify_assumptions(assemble_scattering(kernel_linear(1.0), quad8))
        with pytest.raises(CertificationError,
                           match="failed certification: .*null space dimension 2") as err:
            bad.require()
        assert err.value.report is bad


class TestPinvApply:
    def test_isotropic_leaves_mean_free_unchanged(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        u = pinv_apply(op, quad8.nodes)
        np.testing.assert_allclose(u, quad8.nodes, atol=1e-13)
        matrix = dense_scattering(kernel_isotropic(), quad8)
        resid = (np.eye(8) - matrix) @ u - quad8.nodes
        np.testing.assert_allclose(resid, 0.0, atol=1e-13)

    def test_constant_rhs_rejected(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        with pytest.raises(SolvabilityError):
            pinv_apply(op, np.ones(8))

    def test_linear_kernel_scales_mu(self, quad8):
        op = assemble_scattering(kernel_linear(0.5), quad8)
        u = pinv_apply(op, quad8.nodes)
        np.testing.assert_allclose(u, 2.0 * quad8.nodes, atol=1e-12)
        matrix = dense_scattering(kernel_linear(0.5), quad8)
        resid = (np.eye(8) - matrix) @ u - quad8.nodes
        np.testing.assert_allclose(resid, 0.0, atol=1e-13)

    def test_bound_and_roundtrip_on_random_mean_free_vectors(self, quad16):
        op = assemble_scattering(kernel_linear(0.4), quad16)
        report = certify_assumptions(op)
        matrix = dense_scattering(kernel_linear(0.4), quad16)
        w = quad16.weights
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = rng.standard_normal(16)
            r -= (r @ w)  # remove the weighted mean (constant shift)
            u = pinv_apply(op, r)
            nrm = lambda v: np.sqrt(v**2 @ w)
            assert nrm(u) <= report.c_K * nrm(r) * (1 + 1e-12)
            recon = (np.eye(16) - matrix) @ u
            assert nrm(recon - r) <= 1e-9 * nrm(r)

    def test_vectorized_over_cells(self, quad8):
        op = assemble_scattering(kernel_isotropic(), quad8)
        rhs = np.outer([1.0, 2.0, -3.0], quad8.nodes)
        u = pinv_apply(op, rhs)
        np.testing.assert_allclose(u, rhs, atol=1e-12)

    def test_failed_certification_blocks_pinv(self, quad8):
        op = assemble_scattering(identity_kernel(quad8), quad8)
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
        np.testing.assert_array_equal(t.sigma, sigma)
        assert t.n_cells == 2
        # the eigenvalues of cell c's tensor are eigenvalues / sigma[c]
        for sg in sigma:
            np.testing.assert_allclose(t.eigenvalues / sg,
                                       np.linalg.eigvalsh(t.moment / sg),
                                       rtol=1e-15)

    def test_uncertified_operator_rejected(self, quad8):
        op = assemble_scattering(kernel_linear(1.0), quad8)
        for _ in range(2):
            with pytest.raises(CertificationError):
                diffusion_moment(op)

    def test_cached_read_only(self, quad16):
        op = assemble_scattering(kernel_linear(0.5), quad16)
        m = diffusion_moment(op)
        assert diffusion_moment(op) is m
        np.testing.assert_array_equal(m, velocity_space._diffusion_moment(op))
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
        z = op.mean_weights
        assert op.mean_weights is z
        np.testing.assert_allclose(op.features @ z, 1.0, rtol=1e-14)
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 1.0

    def test_computed_once_per_operator_in_a_study(self, monkeypatch, quad8):
        # every study row reads the moment twice (its transport DSA and its
        # diffusion limit); the operator's pseudoinverse runs for it once
        calls = []
        original = velocity_space._diffusion_moment
        monkeypatch.setattr(velocity_space, "_diffusion_moment",
                            lambda op: calls.append(op) or original(op))
        op = assemble_scattering(kernel_isotropic(), quad8)
        convergence_study(make_problem(n_cells=16), [0.5, 0.25, 0.125, 0.0625],
                          op)
        assert calls == [op]


class TestDiffusionTensor:
    def test_isotropic_is_identity_over_three(self, sphere48):
        op = assemble_scattering(kernel_isotropic(), sphere48)
        t = diffusion_tensor(op, [1.0])
        np.testing.assert_allclose(t.moment / t.sigma[0], np.eye(3) / 3.0,
                                   atol=1e-10)

    def test_sigma_scaling(self, sphere48):
        op = assemble_scattering(kernel_isotropic(), sphere48)
        t = diffusion_tensor(op, [1.0, 2.0])
        np.testing.assert_allclose(t.moment / t.sigma[1], np.eye(3) / 6.0,
                                   atol=1e-10)

    def test_linear_kernel_against_dense_pseudoinverse_oracle(self, sphere48):
        g = 0.5
        op = assemble_scattering(kernel_linear(g), sphere48)
        t = diffusion_tensor(op, [1.0])
        np.testing.assert_allclose(t.moment / t.sigma[0],
                                   np.eye(3) / (3 * (1 - g)), atol=1e-8)
        # oracle: SVD pseudoinverse of the symmetrized matrix, then summation
        w = sphere48.weights
        s = np.sqrt(w)
        m = np.eye(op.n) - dense_scattering(kernel_linear(g), sphere48)
        sym = (s[:, None] * m) / s[None, :]
        pinv = np.linalg.pinv(0.5 * (sym + sym.T), rcond=1e-8)
        v = sphere48.points
        g_cols = (pinv @ (v * s[:, None])) / s[:, None]
        oracle = v.T @ (w[:, None] * g_cols)
        np.testing.assert_allclose(t.moment / t.sigma[0], oracle, atol=1e-10)

    def test_eigenvalue_window(self, sphere48):
        op = assemble_scattering(kernel_linear(0.5), sphere48)
        report = certify_assumptions(op)
        sigma = np.array([0.5, 1.0, 2.0])
        t = diffusion_tensor(op, sigma)
        for sg in t.sigma:
            eig = np.linalg.eigvalsh(t.moment / sg)
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

    @pytest.mark.parametrize("sigma, message", [
        ([1.0, np.nan], "finite and strictly positive"),
        ([1.0, np.inf], "finite and strictly positive"),
        ([], "at least one value"),
    ], ids=["nan", "inf", "empty"])
    def test_rejects_non_finite_sigma(self, sphere48, sigma, message):
        # an empty sigma has no largest value to bound the coercivity by
        op = assemble_scattering(kernel_isotropic(), sphere48)
        with pytest.raises(ValidationError, match=message):
            diffusion_tensor(op, sigma)


SLAB_ORDERS = st.integers(2, 16).map(lambda k: 2 * k)
G_FACTORS = st.floats(0.0, 0.9)


class TestOperatorInvariantProperties:
    @settings(max_examples=60, deadline=None)
    @given(SLAB_ORDERS, G_FACTORS)
    def test_constant_preserved(self, n, g):
        op = assemble_scattering(kernel_linear(g), build_angular_quadrature(n))
        np.testing.assert_allclose(apply_K(op, np.ones(n)), 1.0, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(SLAB_ORDERS, G_FACTORS, st.data())
    def test_pinv_apply_is_mean_free(self, n, g, data):
        quad = build_angular_quadrature(n)
        op = assemble_scattering(kernel_linear(g), quad)
        w = quad.weights
        v = data.draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
        r = v - v @ w
        norm = lambda x: float(np.sqrt(x**2 @ w))
        # a nearly constant v leaves too little after the shift to be solvable
        assume(norm(r) > 1e-3 * max(norm(v), 1e-300))
        u = pinv_apply(op, r)
        assert abs(u @ w) <= 1e-12 * norm(u)


def dense_oracle(matrix, w):
    """Certificate and pseudoinverse of the dense scattering matrix K on
    weights w from a dense eigh of the symmetrized S (I - K) S^-1,
    S = diag(sqrt(w))."""
    n = w.size
    s = np.sqrt(w)
    m = (s[:, None] * (np.eye(n) - matrix)) / s[None, :]
    lam, q = np.linalg.eigh(0.5 * (m + m.T))
    null_dim = int(np.sum(lam < NULL_CUTOFF))
    vec = q[:, 0] / s
    constant = np.max(np.abs(vec - vec.mean())) <= 1e-8 * np.max(np.abs(vec))
    # a null space wider than the constants leaves no bounded inverse on the
    # mean-free space
    bounded = null_dim <= 1 and lam[null_dim] > 0.0
    c_k = max(1.0, 1.0 / lam[null_dim]) if bounded else np.inf
    passed = {
        "self_adjoint": dense_certificate_values(matrix, w)[0] <= 1e-12,
        "contraction": bool(lam[0] >= -SPECTRUM_TOL and lam[-1] <= 1.0 + SPECTRUM_TOL),
        "null_space": bool(null_dim == 1 and constant),
        "solvability": bool(np.isfinite(c_k)),
    }
    inv = np.zeros_like(lam)
    inv[null_dim:] = 1.0 / lam[null_dim:]
    pinv = ((q * inv) @ q.T) * (s[None, :] / s[:, None])
    return lam, null_dim, c_k, passed, pinv


SPHERE_RULES = st.tuples(st.integers(2, 4), st.integers(4, 8))
VELOCITY_SETS = st.one_of(
    st.integers(1, 32).map(lambda k: build_angular_quadrature(2 * k)),
    SPHERE_RULES.map(lambda r: build_sphere_quadrature(*r)),
)
# None is the isotropic kernel; g = -0.3 puts 1.3 in the spectrum of I - K
# and g = 1 adds the velocity components to its null space
KERNELS = st.one_of(st.none(), st.floats(-0.3, 1.0))


class TestRankRCoreAgainstDenseOracle:
    @settings(max_examples=80, deadline=None)
    @given(VELOCITY_SETS, KERNELS, st.data())
    @example(build_angular_quadrature(8), 1.0, None)
    @example(build_sphere_quadrature(2, 4), 1.0, None)
    @example(build_sphere_quadrature(3, 6), -0.3, None)
    def test_certificate_and_pinv_match(self, quad, g, data):
        kernel = kernel_isotropic() if g is None else kernel_linear(g)
        op = assemble_scattering(kernel, quad)
        assert op.rank == (1 if g is None else 1 + quad.coords.shape[1])
        lam, null_dim, c_k, passed, pinv = dense_oracle(dense_scattering(kernel, quad),
                                                        quad.weights)
        # a gate decided by rounding at its threshold is not a disagreement
        for edge in (NULL_CUTOFF, -SPECTRUM_TOL, 1.0 + SPECTRUM_TOL):
            assume(np.min(np.abs(lam - edge)) > 1e-12)

        report = certify_assumptions(op)
        np.testing.assert_allclose(report.eigenvalues, lam, rtol=0, atol=1e-12)
        assert report.null_space_dim == null_dim
        assert report.passed == passed
        if not np.isfinite(c_k):
            assert report.c_K == np.inf
            return
        # c_K is the reciprocal of an eigenvalue: compare at that level
        assert abs(1.0 / report.c_K - 1.0 / c_k) <= 1e-12
        if not all(passed.values()):
            with pytest.raises(CertificationError):
                pinv_apply(op, quad.coords[:, 0])
            return

        w = quad.weights
        nrm = lambda x: float(np.sqrt(x**2 @ w))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rhs = np.random.default_rng(seed).standard_normal((3, op.n))
        rhs -= (rhs @ w)[:, None]
        got = pinv_apply(op, rhs)
        for u, r in zip(got, rhs):
            want = pinv @ r
            # the pseudoinverse's relative condition number is c_K
            assert nrm(u - want) <= 1e-12 * c_k * nrm(want)


class TestFactoredApplyAgainstDenseReference:
    @settings(max_examples=80, deadline=None)
    @given(VELOCITY_SETS, KERNELS, st.integers(0, 2**32 - 1))
    @example(build_angular_quadrature(64), -0.3, 0)
    @example(build_angular_quadrature(2), 1.0, 0)
    @example(build_sphere_quadrature(4, 8), 1.0, 0)
    def test_apply_and_certificate_values_match(self, quad, g, seed):
        kernel = kernel_isotropic() if g is None else kernel_linear(g)
        op = assemble_scattering(kernel, quad)
        matrix = dense_scattering(kernel, quad)
        u = np.random.default_rng(seed).standard_normal((3, op.n))
        want = u @ matrix.T
        # relative to the bound max_i sum_j |K_ij| max |u| of the action,
        # since K u may cancel to far below it
        scale = np.max(np.abs(matrix).sum(axis=1)) * np.max(np.abs(u))
        assert np.max(np.abs(apply_K(op, u) - want)) <= 1e-13 * scale
        report = certify_assumptions(op)
        assert ((report.symmetry_defect, report.row_sum_max)
                == dense_certificate_values(matrix, quad.weights))


TILE = velocity_space._TILE


def slab_rule(n):
    """An ascending slab rule of n nonzero nodes: Gauss-Legendre for an even
    n, and for an odd n the (n + 1)-point rule without its last node,
    reweighted to sum to one."""
    if n % 2 == 0:
        return build_angular_quadrature(n)
    x, w = np.polynomial.legendre.leggauss(n + 1)
    return AngularQuadrature(x[:-1], w[:-1] / np.sum(w[:-1]))


def sphere_rule(n):
    """The first n points of a 320-point product rule, reweighted to sum to
    one."""
    full = build_sphere_quadrature(16, 20)
    return SphereQuadrature(full.points[:n], full.weights[:n] / np.sum(full.weights[:n]))


def scaled_linear_kernel(s, g):
    """s (1 + 3 g v . v') with its factor: rows integrate to about s, so an
    s away from 1 records the normalization warning."""
    base = kernel_linear(g)

    def k(v, vp):
        return s * base(v, vp)

    def factor(coords):
        features, core = base.factor(coords)
        return features, s * core

    k.factor = factor
    return k


def make_kernel(kind, g, s):
    """A kernel of the kind named, for the tiled assembly's tests."""
    if kind == "isotropic":
        return kernel_isotropic()
    if kind == "no factor":
        linear = kernel_linear(g)
        return lambda v, vp: linear(v, vp)
    return kernel_linear(g) if kind == "linear" else scaled_linear_kernel(s, g)


def assemble_without_warnings(kernel, quad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return assemble_scattering(kernel, quad)


def assert_same_error(kernel, quad):
    """The tiled assembly raises the dense oracle's ValidationError, with
    its message, and no warning."""
    with pytest.raises(ValidationError) as want:
        dense_assembly(kernel, quad)
    with pytest.raises(ValidationError) as got:
        assemble_without_warnings(kernel, quad)
    assert str(got.value) == str(want.value)
    return str(got.value)


class TestTiledAssembly:
    """assemble_scattering against the dense n x n algorithm it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]),
           st.sampled_from([slab_rule, sphere_rule]),
           st.sampled_from(["isotropic", "linear", "no factor", "scaled"]),
           st.floats(0.0, 1.2), st.floats(0.5, 2.0))
    @example(2 * TILE + 3, sphere_rule, "linear", 1.2, 1.0)
    @example(TILE + 1, slab_rule, "no factor", 0.9, 1.0)
    @example(TILE, slab_rule, "scaled", 0.3, 1.5)
    @example(1, sphere_rule, "isotropic", 0.0, 1.0)
    def test_records_match_the_dense_oracle_bit_for_bit(self, n, rule, kind, g, s):
        quad = rule(n)
        kernel = make_kernel(kind, g, s)
        try:
            want = dense_assembly(kernel, quad)
        except ValidationError:
            # a truncated sphere rule can leave a row integral <= 0
            assert_same_error(kernel, quad)
            return
        op = assemble_without_warnings(kernel, quad)
        for name, value in want.items():
            got = getattr(op, name)
            if isinstance(value, np.ndarray):
                assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
            elif isinstance(value, float):
                assert got.hex() == value.hex(), name
            else:
                assert got == value, name
        if kind == "scaled" and abs(s - 1.0) > 1e-3:
            assert any("normalization" in w for w in op.warnings)
        if g > 1.0 / 3.0 and kind != "isotropic" and rule is slab_rule and n > 1:
            assert op.kernel_min < 0.0

    @pytest.mark.parametrize("n", [8, TILE + 1, 2 * TILE + 3])
    def test_rejections_in_the_dense_order_with_its_messages(self, n):
        quad = slab_rule(n)
        linear = kernel_linear(0.5)

        def with_factor(values, factor):
            def k(v, vp):
                return values(v, vp)

            k.factor = factor
            return k

        def wrong_shapes(coords):
            return np.ones((coords.shape[0], 2)), np.eye(3)

        def skewed(v, vp):
            return -2.0 + v[..., 0] * vp[..., 0] ** 2

        def zero(v, vp):
            return 0.0 * linear(v, vp)

        # zero on the last three nodes, the last row block at n = 2 TILE + 3:
        # the blocks before it have positive row integrals and are normalized
        # before the zero rows are met
        cut = 0.5 * (quad.nodes[-4] + quad.nodes[-3])

        def last_rows_zero(v, vp):
            return (v[..., 0] < cut) * (vp[..., 0] < cut) * linear(v, vp)

        # asymmetry comes before a non-positive row and a bad factor
        assert "not symmetric" in assert_same_error(with_factor(skewed, wrong_shapes), quad)
        assert "not symmetric" in assert_same_error(skewed, quad)
        # a zero row integral is reported before anything divides by it
        assert "row integral" in assert_same_error(zero, quad)
        assert "row integral" in assert_same_error(with_factor(zero, wrong_shapes), quad)
        assert "row integral" in assert_same_error(
            with_factor(zero, kernel_isotropic().factor), quad)
        assert "row integral" in assert_same_error(
            with_factor(last_rows_zero, kernel_linear(0.5).factor), quad)
        # factor shapes come before the factor's defect
        assert "factor has shapes" in assert_same_error(
            with_factor(linear, wrong_shapes), quad)
        assert "does not reproduce" in assert_same_error(
            with_factor(linear, kernel_linear(0.4).factor), quad)

    @pytest.mark.parametrize("factored", [False, True])
    def test_wrong_kernel_shape_is_reported_first(self, factored):
        def k(v, vp):
            return np.ones((4, 4))

        if factored:
            k.factor = kernel_isotropic().factor
        for n in (8, TILE):
            assert "kernel values have shape (4, 4)" in assert_same_error(k, slab_rule(n))
        # past one tile, a factored kernel names the tile it was evaluated
        # on, not the whole table
        quad = slab_rule(2 * TILE + 3)
        with pytest.raises(ValidationError) as got:
            assemble_without_warnings(k, quad)
        side = TILE if factored else quad.n
        assert str(got.value) == (f"kernel values have shape (4, 4), "
                                  f"expected {(side, side)}")

    def test_factored_kernel_never_tabulated_whole(self):
        quad = sphere_rule(2 * TILE + 3)
        shapes = []
        base = kernel_linear(0.5)

        def k(v, vp):
            values = base(v, vp)
            shapes.append(values.shape)
            return values

        k.factor = base.factor
        assemble_scattering(k, quad)
        # one pass: row block J is filled tile by tile, then each mirror
        # tile (I, J), I < J, is read to compare with the row block's (J, I)
        tiles = [TILE, TILE, 3]
        schedule = []
        for j, b in enumerate(tiles):
            schedule += [(b, c) for c in tiles] + [(a, b) for a in tiles[:j]]
        assert shapes == schedule
        # n^2 entries for the row blocks and one more visit of each tile
        # above the diagonal, against 101,385 when each pair was read twice
        assert sum(a * b for a, b in shapes) == 84_233

    def test_tracemalloc_peak_below_an_eighth_of_the_table(self):
        # n = 2304: the whole table is 40.5 MiB, and the dense assembly held
        # about two of them; the one row block of TILE x n is 2.25 MiB, and
        # the assembly peaks at 3.35 MiB
        quad = build_sphere_quadrature(24, 96)
        kernel = kernel_linear(0.5)
        tracemalloc.start()
        try:
            op = assemble_scattering(kernel, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.n == 2304
        assert peak < quad.n**2 * 8 / 8


class TestFactorOnly:
    @pytest.mark.parametrize("g", [None, 0.5])
    def test_no_array_larger_than_n_times_r(self, g):
        quad = build_sphere_quadrature(24, 48)
        kernel = kernel_isotropic() if g is None else kernel_linear(g)
        op = assemble_scattering(kernel, quad)
        report = certify_assumptions(op).require()
        assert op.rank == (1 if g is None else 4)
        assert not hasattr(op, "matrix")
        held = [*vars(op).values(), *op.spectrum, *vars(report).values()]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert {"features", "to_moments", "scatter"} <= set(vars(op))
        assert max(a.size for a in arrays) <= op.n * op.rank


class TestTensorMomentOnly:
    def test_no_array_larger_than_the_cells_or_the_moment(self, sphere48):
        # one 3x3 moment for all cells: the tensor of cell c is
        # moment / sigma[c] and is never stored
        op = assemble_scattering(kernel_linear(0.5), sphere48)
        sigma = CoefficientField.sinusoid(offset=1.0, amplitude=0.5)
        n_cells = 65536
        t = diffusion_tensor(op, sigma(Grid1D(1.0, n_cells).centers))
        assert t.n_cells == n_cells
        assert not hasattr(t, "matrices")
        arrays = [a for a in vars(t).values() if isinstance(a, np.ndarray)]
        assert {"moment", "eigenvalues", "sigma"} <= set(vars(t))
        assert max(a.size for a in arrays) <= max(n_cells, 9)


class TestEigensolverSize:
    def test_no_eigensolver_larger_than_the_core(self, monkeypatch):
        import scipy.linalg

        # the Gauss rule's nodes come from a companion-matrix eigensolve;
        # only what follows the quadrature is under test
        quad = build_sphere_quadrature(24, 48)
        shapes = []
        for module, name in ((np.linalg, "eig"), (np.linalg, "eigh"),
                             (np.linalg, "eigvals"), (np.linalg, "eigvalsh"),
                             (np.linalg, "svd"), (np.linalg, "pinv"),
                             (scipy.linalg, "eig"), (scipy.linalg, "eigh"),
                             (scipy.linalg, "eigvals"), (scipy.linalg, "eigvalsh"),
                             (scipy.linalg, "svd"), (scipy.linalg, "pinv")):
            def recorded(a, *args, _fn=getattr(module, name), **kwargs):
                shapes.append(np.shape(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        op = assemble_scattering(kernel_linear(0.5), quad)
        certify_assumptions(op).require()
        tensor = diffusion_tensor(op, [1.0, 2.0])
        np.testing.assert_allclose(tensor.moment, np.eye(3) / 1.5, atol=1e-12)

        d = quad.coords.shape[1]
        assert shapes, "no eigensolver was called"
        assert max(max(sh) for sh in shapes) <= 1 + d
