import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from translimit import (
    AngularQuadrature,
    CoefficientField,
    ConvergenceError,
    Grid1D,
    KernelSpec,
    SolverOptions,
    SweepPlan,
    ValidationError,
    assemble_scattering,
    build_angular_quadrature,
    cells_for_eps,
    directional_derivative,
    kernel_isotropic,
    kernel_linear,
    manufactured_case,
    mms_transport_source,
    outflow_trace,
    particle_balance,
    solve_transport,
    sweep,
)
from translimit.krylov import _gmres, _solve_upper
from translimit.transport import _MarchMoments
from conftest import (BAD_INFLOWS, cell_equation_residual, dense_scattering, direct_solve,
                      l2_error, make_problem, poison_sweep, smooth_benchmark)


def inflow_vector(plan, g_left, g_right):
    """The (n_ordinates,) inflow a sweep takes, in the quadrature's order:
    g_right on the leading mu < 0 ordinates, g_left on the rest, each a
    scalar or an array over its ordinates."""
    k = plan.n_negative
    incoming = np.empty(plan.inflow.size)
    incoming[:k] = g_right
    incoming[k:] = g_left
    return incoming


def natural_sweep(plan, emission, g_left, g_right):
    """Cells and edges of one sweep of an (n_cells, n_ordinates) emission:
    laid out in march order, swept, and unpacked."""
    incoming = inflow_vector(plan, g_left, g_right)
    return plan.unpack(sweep(plan, plan.march(emission), incoming), incoming)


def pure_absorber_sweep(n, quad, sigma=2.0, g_in=1.0, scheme="diamond"):
    grid = Grid1D(1.0, n)
    emission = np.zeros((n, quad.n))
    plan = SweepPlan(np.full(n, sigma), grid, quad, scheme)
    cells, edges = natural_sweep(plan, emission, g_in, 0.0)
    return grid, cells, edges


class TestSweep:
    def test_pure_absorber_matches_characteristic_solution(self, quad8):
        # closed form along each ordinate: u(x) = g exp(-sigma x / mu)
        errs = []
        for n in (50, 100, 200):
            grid, cells, edges = pure_absorber_sweep(n, quad8)
            pos = quad8.nodes > 0
            exact = np.exp(-2.0 * grid.edges[:, None] / quad8.nodes[pos][None, :])
            errs.append(np.max(np.abs(edges[:, pos] - exact)))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) > 1.9

    def test_zero_data_gives_zero(self, quad8):
        grid, cells, edges = pure_absorber_sweep(40, quad8, g_in=0.0)
        np.testing.assert_allclose(cells, 0.0, atol=1e-300)
        np.testing.assert_allclose(edges, 0.0, atol=1e-300)

    def test_constant_source_saturates(self, quad8):
        # u = c (1 - exp(-sigma x / mu)) for emission = sigma * c, zero inflow
        n, sigma, c = 400, 10.0, 0.7
        grid = Grid1D(1.0, n)
        emission = np.full((n, quad8.n), sigma * c)
        cells, edges = natural_sweep(SweepPlan(np.full(n, sigma), grid, quad8),
                                     emission, 0.0, 0.0)
        pos = quad8.nodes > 0
        exact = c * (1.0 - np.exp(-sigma * grid.edges[:, None]
                                  / quad8.nodes[pos][None, :]))
        assert np.max(np.abs(edges[:, pos] - exact)) < 2e-3
        # deep interior approaches the constant particular solution
        assert abs(cells[-1, -1] - c) < 1e-3

    def test_upwind_closure_first_order(self, quad8):
        errs = []
        for n in (100, 200, 400, 800):
            grid, cells, edges = pure_absorber_sweep(n, quad8, scheme="upwind")
            pos = quad8.nodes > 0
            xc = grid.centers
            exact = np.exp(-2.0 * xc[:, None] / quad8.nodes[pos][None, :])
            errs.append(np.max(np.abs(cells[:, pos] - exact)))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert 0.8 < min(orders) and max(orders) < 1.3

    def test_shape_validation(self, quad8):
        plan = SweepPlan(np.ones(10), Grid1D(1.0, 10), quad8)
        with pytest.raises(ValidationError):
            sweep(plan, np.zeros((8, 5)))
        with pytest.raises(ValidationError):
            plan.march(np.zeros((5, 8)))

    @pytest.mark.parametrize("emission", [
        np.zeros((10, 8)),                   # (n_cells, n_ordinates) layout
        np.zeros((8, 10), dtype=np.float32),
        np.zeros((10, 8)).T,                 # right shape, Fortran order
        np.zeros((8, 10)).tolist(),
    ], ids=["layout", "float32", "fortran", "list"])
    def test_rejects_emission_it_cannot_overwrite(self, quad8, emission):
        # a sweep solves in place, so it takes only a C-order float array in
        # march order
        plan = SweepPlan(np.ones(10), Grid1D(1.0, 10), quad8)
        with pytest.raises(ValidationError):
            sweep(plan, emission)

    def test_solves_in_place(self, quad8):
        plan = SweepPlan(np.ones(10), Grid1D(1.0, 10), quad8)
        emission = np.ones((8, 10))
        swept = sweep(plan, emission, inflow_vector(plan, 1.0, 0.5))
        assert np.shares_memory(swept, emission)
        assert swept.shape == (8, 10) and np.all(swept > 0.0)

    @pytest.mark.parametrize("sigma_t, scheme", [
        (np.ones(9), "diamond"),       # sigma_t longer than n_cells
        (np.ones((4, 1)), "diamond"),
        (-np.ones(4), "diamond"),
        (np.array([1.0, np.inf, 1.0, 1.0]), "diamond"),
        (np.array([1.0, np.inf, 1.0, 1.0]), "upwind"),
        (np.ones(4), "magic"),
    ], ids=["sigma-length", "sigma-2d", "sigma-negative", "sigma-inf",
            "sigma-inf-upwind", "scheme"])
    def test_malformed_input_rejected(self, quad8, sigma_t, scheme):
        grid = Grid1D(1.0, 4)
        with pytest.raises(ValidationError):
            natural_sweep(SweepPlan(sigma_t, grid, quad8, scheme), np.zeros((4, 8)),
                          0.0, 0.0)

    @pytest.mark.parametrize("incoming", [np.zeros(7), np.zeros(9), np.zeros((8, 1)),
                                          0.0],
                             ids=["short", "long", "2d", "scalar"])
    def test_rejects_incoming_of_wrong_shape(self, quad8, incoming):
        # one inflow value per ordinate, in the quadrature's order
        plan = SweepPlan(np.ones(4), Grid1D(1.0, 4), quad8)
        with pytest.raises(ValidationError, match="incoming has shape"):
            sweep(plan, np.zeros((8, 4)), incoming)


def reference_sweep(sigma_t, emission, g_left, g_right, grid, quad, scheme):
    """The sweep as a per-cell march, one cell at a time per direction."""
    mu = quad.nodes
    n = grid.n_cells
    cells = np.empty((n, mu.size))
    edges = np.empty((n + 1, mu.size))
    for sel, g, forward in ((mu > 0.0, g_left, True), (mu < 0.0, g_right, False)):
        a = np.abs(mu[sel]) / grid.h
        e_in = np.broadcast_to(np.asarray(g, dtype=float), a.shape)
        edges[0 if forward else n, sel] = e_in
        for i in range(n) if forward else range(n - 1, -1, -1):
            s = sigma_t[i]
            if scheme == "diamond":
                e_out = ((a - 0.5 * s) * e_in + emission[i, sel]) / (a + 0.5 * s)
                cells[i, sel] = 0.5 * (e_in + e_out)
            else:
                e_out = (a * e_in + emission[i, sel]) / (a + s)
                cells[i, sel] = e_out
            edges[i + 1 if forward else i, sel] = e_out
            e_in = e_out
    return cells, edges


@st.composite
def sweep_inputs(draw):
    """Random slab, ascending ordinates with unequal sign counts (one sign
    may be missing), and data."""
    n = draw(st.integers(1, 300))
    grid = Grid1D(draw(st.floats(0.1, 10.0)), n)
    n_pos, n_neg = draw(st.tuples(st.integers(0, 6), st.integers(0, 6))
                        .filter(lambda c: c[0] != c[1]))
    size = st.floats(0.01, 1.0)
    mu = np.array(draw(st.lists(size, min_size=n_pos, max_size=n_pos))
                  + [-m for m in draw(st.lists(size, min_size=n_neg,
                                               max_size=n_neg))])
    mu = np.sort(mu)
    quad = AngularQuadrature(mu, np.full(mu.size, 1.0 / mu.size))
    tau = 10.0 ** draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    sigma_t = tau / grid.h
    emission = draw(hnp.arrays(float, (n, mu.size),
                               elements=st.floats(-10.0, 10.0)))

    def inflow(count):
        value = st.floats(-10.0, 10.0)
        return draw(st.one_of(value, hnp.arrays(float, count, elements=value)))

    return (sigma_t, emission, inflow(n_pos), inflow(n_neg), grid, quad,
            draw(st.sampled_from(["diamond", "upwind"])))


def close(got, want, scale=None):
    """Agreement to 1e-12, relative to each entry and to a scale, by default
    the field's largest entry."""
    scale = float(np.max(np.abs(want))) if scale is None else scale
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * max(scale, 1e-300))


class TestSweepProperties:
    @settings(max_examples=100, deadline=None)
    @given(sweep_inputs())
    # a thick diamond cell (sigma_t h = 1000) whose edges cancel: one-ulp
    # edge differences are far above 1e-12 of the cell values
    @example((np.full(33, 33000.0), np.full((33, 1), 0.70092907), 1.0, 0.0,
              Grid1D(1.0, 33), AngularQuadrature(np.array([1.0 / 64]),
                                                 np.array([1.0])), "diamond"))
    def test_matches_per_cell_march(self, inputs):
        sigma_t, emission, g_left, g_right, grid, quad, scheme = inputs
        cells, edges = natural_sweep(SweepPlan(sigma_t, grid, quad, scheme),
                                     emission, g_left, g_right)
        ref_cells, ref_edges = reference_sweep(*inputs)
        close(edges, ref_edges)
        # the cells are the scheme's closure of the returned edges, so they
        # carry the edges' rounding, which is bounded by the edge scale
        mu, scheme = inputs[5].nodes, inputs[6]
        if scheme == "diamond":
            closure = 0.5 * (edges[:-1] + edges[1:])
        else:
            closure = np.where(mu > 0.0, edges[1:], edges[:-1])
        np.testing.assert_array_equal(cells, closure)
        close(cells, ref_cells, scale=float(np.max(np.abs(ref_edges))))

    @settings(max_examples=60, deadline=None)
    @given(sweep_inputs(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linear_in_emission_and_inflow(self, inputs, alpha, beta):
        sigma_t, emission, g_left, g_right, grid, quad, scheme = inputs
        rng = np.random.default_rng(emission.size)
        other = (rng.normal(size=emission.shape), rng.normal(),
                 rng.normal(size=np.shape(g_right)))
        plan = SweepPlan(sigma_t, grid, quad, scheme)
        one = natural_sweep(plan, emission, g_left, g_right)
        two = natural_sweep(plan, *other)
        mixed = natural_sweep(plan, alpha * emission + beta * other[0],
                              alpha * np.asarray(g_left) + beta * other[1],
                              alpha * np.asarray(g_right) + beta * other[2])
        for got, a, b in zip(mixed, one, two):
            want = alpha * a + beta * b
            scale = max(float(np.max(np.abs(alpha * a))),
                        float(np.max(np.abs(beta * b))), 1e-300)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(sweep_inputs())
    def test_leaves_its_arguments_unchanged(self, inputs):
        # the sweep overwrites only the march-order copy plan.march makes,
        # never the caller's emission or inflow
        sigma_t, emission, g_left, g_right, grid, quad, _ = inputs
        before = [np.copy(x) for x in (emission, g_left, g_right)]
        for scheme in ("diamond", "upwind"):
            plan = SweepPlan(sigma_t, grid, quad, scheme)
            natural_sweep(plan, emission, g_left, g_right)
            for got, want in zip((emission, g_left, g_right), before):
                np.testing.assert_array_equal(got, want)


@st.composite
def march_moment_inputs(draw):
    """A slab quadrature, its rank-1 or linear operator, optical thickness
    sigma_t h over six decades, an emission, and zero or random inflow."""
    n = draw(st.integers(1, 200))
    grid = Grid1D(draw(st.floats(0.1, 10.0)), n)
    quad = build_angular_quadrature(draw(st.sampled_from([2, 4, 6, 8, 16, 32])))
    kernel = draw(st.sampled_from([kernel_isotropic(),
                                   kernel_linear(draw(st.floats(0.0, 0.9)))]))
    tau = 10.0 ** draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    emission = draw(hnp.arrays(float, (n, quad.n), elements=st.floats(-10.0, 10.0)))
    inflow = draw(st.booleans())
    g = (draw(hnp.arrays(float, quad.n, elements=st.floats(-10.0, 10.0)))
         if inflow else np.zeros(quad.n))
    plan = SweepPlan(tau / grid.h, grid, quad, draw(st.sampled_from(["diamond", "upwind"])))
    return plan, assemble_scattering(kernel, quad), emission, g, inflow


class TestMarchMoments:
    @settings(max_examples=100, deadline=None)
    @given(march_moment_inputs())
    def test_read_matches_unpacked_cells(self, inputs):
        # the moments a step reads from the march-order output are those of
        # the cells a full step unpacks; without inflow the step is a Krylov
        # step, which sweeps and reads without it
        plan, op, emission, incoming, inflow = inputs
        maps = _MarchMoments(op, plan, incoming)
        swept = sweep(plan, plan.march(emission), incoming if inflow else None)
        got = maps.read(swept, inflow)
        cells, edges = plan.unpack(swept, incoming)
        want = np.dot(cells, op.to_moments).T
        # a diamond cell's moments are summed from its edges' values, so
        # their rounding is bounded by the edges' moment scale
        scale = float(np.max(np.abs(edges) @ np.abs(op.to_moments)))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * max(scale, 1e-300))


class TestSweepPlan:
    @settings(max_examples=60, deadline=None)
    @given(sweep_inputs(), st.integers(0, 2**32 - 1))
    def test_reused_plan_matches_a_fresh_one(self, inputs, seed):
        # a solve builds one plan and sweeps with it many times, so nothing
        # a sweep does may change the plan
        sigma_t, emission, g_left, g_right, grid, quad, scheme = inputs
        plan = SweepPlan(sigma_t, grid, quad, scheme)
        rng = np.random.default_rng(seed)
        counts = [int(np.sum(quad.nodes > 0.0)), int(np.sum(quad.nodes < 0.0))]
        calls = [(emission, g_left, g_right)]
        for k in range(3):
            inflows = [rng.normal() if k % 2 else rng.normal(size=c) for c in counts]
            calls.append((rng.normal(size=emission.shape), *inflows))
        for args in calls:
            reused = natural_sweep(plan, *args)
            fresh = natural_sweep(SweepPlan(sigma_t, grid, quad, scheme), *args)
            for got, want in zip(reused, fresh):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["diamond", "upwind"])
    def test_band_entries_match_a_per_entry_loop(self, quad8, scheme):
        # the reciprocals are contiguous, so a sweep multiplies with unit
        # stride, and the band interleaves them with the couplings; each
        # entry is the one divide or multiply of a per-ordinate loop, bit
        # for bit
        n = 12
        grid = Grid1D(1.0, n)
        sigma_t = np.linspace(0.5, 40.0, n)
        plan = SweepPlan(sigma_t, grid, quad8, scheme)
        assert plan.reciprocal.shape == (quad8.n, n)
        assert plan.reciprocal.flags.c_contiguous
        s_out, s_in = ((0.5 * sigma_t, 0.5 * sigma_t) if scheme == "diamond"
                       else (sigma_t, np.zeros(n)))
        band = plan.band.T.reshape(quad8.n, n, 2)
        for j, mu in enumerate(quad8.nodes):
            a = abs(float(mu)) / grid.h
            march = slice(None, None, -1) if mu < 0 else slice(None)
            recip = [1.0 / (a + float(s)) for s in s_out[march]]
            coupling = [(float(s) - a) * r for s, r in zip(s_in[march][1:], recip[1:])]
            assert plan.reciprocal[j].tolist() == recip
            assert band[j, :, 0].tolist() == recip
            assert band[j, :, 1].tolist() == coupling + [0.0]

    @pytest.mark.parametrize("acceleration", ["dsa", "none"])
    @pytest.mark.parametrize("scheme", ["diamond", "upwind"])
    def test_one_plan_per_solve(self, monkeypatch, iso8, acceleration, scheme):
        import translimit.transport as transport

        plans = []
        original = transport.SweepPlan
        monkeypatch.setattr(transport, "SweepPlan",
                            lambda *a, **k: plans.append(1) or original(*a, **k))
        opts = SolverOptions(scheme=scheme, acceleration=acceleration)
        log = solve_transport(make_problem(n_cells=32), 0.5, iso8, opts).log
        assert log.iterations > 1
        assert len(plans) == 1

    @pytest.mark.parametrize("acceleration", ["dsa", "none"])
    @pytest.mark.parametrize("scheme", ["diamond", "upwind"])
    def test_one_dtbtrs_call_per_sweep(self, monkeypatch, iso8, acceleration,
                                       scheme):
        # both directions are one lower band, solved by one LAPACK call
        import translimit.transport as transport

        solves = []
        per_sweep = []
        original_sweep, original_dtbtrs = transport.sweep, transport.dtbtrs

        def counting_dtbtrs(*args, **kwargs):
            solves.append(1)
            return original_dtbtrs(*args, **kwargs)

        def counting_sweep(*args, **kwargs):
            before = len(solves)
            result = original_sweep(*args, **kwargs)
            per_sweep.append(len(solves) - before)
            return result

        monkeypatch.setattr(transport, "dtbtrs", counting_dtbtrs)
        monkeypatch.setattr(transport, "sweep", counting_sweep)
        opts = SolverOptions(scheme=scheme, acceleration=acceleration)
        log = solve_transport(make_problem(n_cells=32), 0.5, iso8, opts).log
        assert log.iterations > 1
        assert per_sweep == [1] * log.iterations

    def test_nonzero_info_raises(self, monkeypatch, quad8):
        import translimit.transport as transport

        plan = SweepPlan(np.ones(4), Grid1D(1.0, 4), quad8)
        monkeypatch.setattr(transport, "dtbtrs", lambda band, b, **k: (b, 2))
        with pytest.raises(ValidationError, match="dtbtrs info 2"):
            sweep(plan, np.zeros((8, 4)))

    def test_max_optical_thickness_recorded(self, iso8):
        eps = 0.125
        p = make_problem(n_cells=64, sigma=SLAB_SIGMA["smooth"], gamma=2.0)
        log = solve_transport(p, eps, iso8).log
        xc = p.grid.centers
        thickness = np.max((p.sigma(xc) / eps + eps * p.gamma(xc)) * p.grid.h)
        assert log.max_optical_thickness == thickness


def piecewise_fields(draw, lo, hi):
    """A positive field of one to three pieces with values in [lo, hi]."""
    pieces = draw(st.integers(1, 3))
    breaks = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=pieces - 1,
                                  max_size=pieces - 1, unique=True)))
    values = draw(st.lists(st.floats(lo, hi), min_size=pieces, max_size=pieces))
    return CoefficientField.piecewise(breaks, values)


def linear_in_mu(a, b):
    """The mu-dependent inflow a + b mu."""
    return lambda mu: a + b * mu


def inflow_data(value=st.floats(-2.0, 2.0)):
    """A constant inflow or a mu-dependent callable one."""
    return st.one_of(value, st.builds(linear_in_mu, value, value))


@st.composite
def balance_problems(draw):
    """Random positive coefficients and constant or mu-dependent inflow on
    8..128 cells."""
    n = draw(st.integers(8, 128))
    # eps = 1 is the eps-independent problem
    eps = 2.0 ** -draw(st.integers(0, 4))
    # keep the cell optical thickness sigma_t h well below 1, where the DSA
    # is known to converge
    sigma = piecewise_fields(draw, 0.1, min(4.0, 0.5 * eps * n))
    gamma = piecewise_fields(draw, 0.1, 2.0)
    source = piecewise_fields(draw, 0.1, 2.0)
    kernel = draw(st.sampled_from([KernelSpec(),
                                   KernelSpec(kind="linear", g_factor=0.5)]))
    problem = make_problem(
        n_cells=n, sigma=sigma, gamma=gamma, source=source,
        g_left=draw(inflow_data()),
        g_right=draw(inflow_data()),
    )
    return problem, eps, kernel


class TestBalanceProperty:
    # the tolerance gates the balance too: a returned solution meets the
    # larger of the tolerance and the balance's rounding floor
    @settings(max_examples=40, deadline=None)
    @given(balance_problems(), st.floats(-13.0, -8.0))
    def test_balance_holds_with_independently_scaled_data(self, inputs, log_tol):
        problem, eps, kernel = inputs
        quad = build_angular_quadrature(8)
        tolerance = 10.0 ** log_tol
        sol = solve_transport(problem, eps, kernel.build(quad),
                              SolverOptions(tolerance=tolerance))
        target = max(tolerance, sol.log.balance_floor)
        assert sol.log.balance_residual <= target
        # the same identity from data scaled here, not by the solver; the
        # balance reads the inflow from the solution's edges, so first check
        # those against the inflow scaled here
        xc = problem.grid.centers
        mu = quad.nodes
        for face, enters, g in ((0, mu > 0.0, problem.g_left),
                                (-1, mu < 0.0, problem.g_right)):
            nodes = mu[enters]
            scaled = eps * (g(nodes) if callable(g) else np.full(nodes.size, g))
            np.testing.assert_array_equal(sol.edges[face, enters], scaled)
        gamma_e = eps * problem.gamma(xc)
        res, _ = particle_balance(
            sol.u, sol.edges, problem.sigma(xc) / eps + gamma_e, gamma_e,
            np.repeat(eps * problem.source(xc)[:, None], quad.n, axis=1),
            problem.grid, quad)
        assert res <= target


@st.composite
def scattering_slabs(draw):
    """Random slabs on 8..128 cells, scaled at eps: the isotropic kernel or
    a linear one with g in [0, 0.9], sigma of one to three pieces with
    contrast up to 100, the largest cell optical thickness max sigma_t h
    from 1e-3 to 1e3, and zero or random constant inflow."""
    n = draw(st.integers(8, 128))
    eps = 2.0 ** -draw(st.integers(0, 6))
    gamma = draw(st.floats(0.1, 2.0))
    shape = piecewise_fields(draw, 0.01, 1.0)
    # scaled so that the thickest cell has sigma_e h + gamma_e h = thickness
    thickness = 10.0 ** draw(st.floats(-3.0, 3.0))
    grid = Grid1D(1.0, n)
    xc = grid.centers
    scale = (thickness - eps * gamma * grid.h) * eps / (np.max(shape(xc)) * grid.h)
    assume(scale > 0.0)
    sigma = CoefficientField.piecewise(shape.breakpoints, [scale * v for v in shape.values])
    inflow = draw(st.one_of(st.just((0.0, 0.0)),
                            st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
    problem = make_problem(n_cells=n, sigma=sigma, gamma=gamma,
                           source=piecewise_fields(draw, 0.1, 2.0),
                           g_left=inflow[0], g_right=inflow[1])
    g = draw(st.none() | st.floats(0.0, 0.9))
    kernel = kernel_isotropic() if g is None else kernel_linear(g)
    n_ordinates = draw(st.sampled_from([8, 16]))
    return problem, eps, kernel, n_ordinates, thickness


class TestDirectSolveProperty:
    # thin cells agree with the direct solve to 1e-9; thicker ones to a
    # precision that falls as sigma_t h grows, and with it the balance's
    # rounding floor: on 400 draws up to sigma_t h = 1e3 and a grid of
    # their range edges the difference stayed within 1e-9 + 1.8 floors
    @settings(max_examples=40, deadline=None)
    @given(scattering_slabs())
    def test_default_solve_matches_the_direct_solve(self, inputs):
        problem, eps, kernel, n_ordinates, thickness = inputs
        quad = build_angular_quadrature(n_ordinates)
        sol = solve_transport(problem, eps, assemble_scattering(kernel, quad))
        assert sol.log.max_optical_thickness == pytest.approx(thickness, rel=1e-12)
        ref = direct_solve(problem, eps, kernel, quad)
        bound = 1e-9 + 10.0 * sol.log.balance_floor
        assert np.max(np.abs(sol.u - ref.u)) <= bound * np.max(np.abs(ref.u))
        assert cell_equation_residual(sol, problem, eps, kernel) <= 1e-9


class TestSolveTransport:
    def test_baseline_convergence_and_balance(self, quad8, iso8):
        p = make_problem(n_cells=100)
        sol = solve_transport(p, 1.0, iso8)
        assert sol.log.converged
        assert sol.log.balance_residual <= 1e-10
        np.testing.assert_allclose(sol.u_bar, sol.u @ quad8.weights, atol=1e-15)

    @pytest.mark.parametrize("side", ["g_left", "g_right"])
    @pytest.mark.parametrize("bad", BAD_INFLOWS)
    def test_malformed_inflow_rejected_before_any_sweep(self, monkeypatch, iso8,
                                                       side, bad):
        calls = poison_sweep(monkeypatch, 1)
        problem = make_problem(n_cells=8, **{side: BAD_INFLOWS[bad]})
        with pytest.raises(ValidationError, match=side):
            solve_transport(problem, 0.5, iso8)
        assert calls == []

    def test_balance_identity_recomputes(self, quad8, iso8):
        p = make_problem(n_cells=64)
        eps = 0.5
        sol = solve_transport(p, eps, iso8)
        xc = p.grid.centers
        gamma_e = eps * p.gamma(xc)
        f_e = np.full((64, 8), eps * 1.0)
        res, _ = particle_balance(sol.u, sol.edges, p.sigma(xc) / eps + gamma_e,
                                  gamma_e, f_e, p.grid, quad8)
        assert res <= 1e-10

    def test_balance_only_where_the_change_meets_the_tolerance(self, monkeypatch,
                                                                iso8):
        # the first full step, from zero moments, has change 1 and cannot be
        # accepted, so the only balance is the accepting step's, and the log
        # records it with its floor
        import translimit.transport as transport

        balances = []
        original = transport.particle_balance
        monkeypatch.setattr(transport, "particle_balance",
                            lambda *a: balances.append(original(*a)) or balances[-1])
        log = solve_transport(make_problem(n_cells=64), 0.5, iso8).log
        assert log.converged and log.residuals[0] == 1.0
        assert balances == [(log.balance_residual, log.balance_floor)]
        assert log.balance_floor > 0.0

    def test_unconverged_log_has_the_last_full_sweeps_balance(self, monkeypatch,
                                                              iso8):
        # no step of an unaccelerated thick solve meets the tolerance, so
        # the balance is taken once, for the log of the last full sweep
        import translimit.transport as transport

        balances = []
        original = transport.particle_balance
        monkeypatch.setattr(transport, "particle_balance",
                            lambda *a: balances.append(original(*a)) or balances[-1])
        opts = SolverOptions(acceleration="none", max_iterations=5)
        with pytest.raises(ConvergenceError) as err:
            solve_transport(make_problem(n_cells=64), 2.0**-5, iso8, opts)
        log = err.value.log
        assert balances == [(log.balance_residual, log.balance_floor)]
        assert f"balance {log.balance_residual:.3e}" in str(err.value)
        assert "rounding floor" not in str(err.value)

    def test_anisotropic_kernel_converges_conservatively(self, quad16):
        op = KernelSpec(kind="linear", g_factor=0.5).build(quad16)
        sol = solve_transport(make_problem(n_cells=64), 0.5, op)
        assert sol.log.converged
        assert sol.log.balance_residual <= 1e-10

    def test_linearity_in_the_source(self, iso8):
        p1 = make_problem(n_cells=50, source=1.0)
        p2 = make_problem(n_cells=50, source=2.0)
        s1 = solve_transport(p1, 0.25, iso8)
        s2 = solve_transport(p2, 0.25, iso8)
        np.testing.assert_allclose(s2.u, 2.0 * s1.u, rtol=1e-8, atol=1e-12)

    def test_fixed_point_residual_under_one_extra_sweep(self, quad8, iso8):
        p = make_problem(n_cells=64)
        opts = SolverOptions(tolerance=1e-10)
        sol = solve_transport(p, 0.25, iso8, opts)
        xc = p.grid.centers
        sigma_e = p.sigma(xc) / 0.25
        gamma_e = 0.25 * p.gamma(xc)
        matrix = dense_scattering(kernel_isotropic(), quad8)
        emission = sigma_e[:, None] * (sol.u @ matrix.T) + 0.25
        cells, _ = natural_sweep(SweepPlan(sigma_e + gamma_e, p.grid, quad8),
                                 emission, 0.0, 0.0)
        rel = np.linalg.norm(cells - sol.u) / np.linalg.norm(sol.u)
        assert rel <= opts.tolerance

    def test_inflow_scaling_applied(self, quad8, iso8):
        p = make_problem(n_cells=32, g_left=1.0)
        eps = 0.5
        sol = solve_transport(p, eps, iso8)
        pos = quad8.nodes > 0
        np.testing.assert_allclose(sol.edges[0, pos], eps, atol=1e-14)

    def test_unaccelerated_diffusive_solve_fails(self, iso8):
        p = make_problem(n_cells=64)
        opts = SolverOptions(acceleration="none", max_iterations=50)
        with pytest.raises(ConvergenceError) as err:
            solve_transport(p, 2.0**-5, iso8, opts)
        assert err.value.log.iterations == 50
        assert len(err.value.log.residuals) == 50

    def test_certification_gate(self, quad8):
        op = KernelSpec(kind="linear", g_factor=1.0).build(quad8)
        from translimit import CertificationError
        with pytest.raises(CertificationError):
            solve_transport(make_problem(n_cells=16), 1.0, op)

    def test_invalid_eps(self, iso8):
        with pytest.raises(ValidationError):
            solve_transport(make_problem(n_cells=8), 0.0, iso8)

    def test_sphere_operator_rejected_before_any_sweep(self, sphere48, quad8,
                                                       monkeypatch):
        import translimit.transport as transport

        swept = []
        monkeypatch.setattr(transport, "sweep", lambda *a, **k: swept.append(a))
        sphere_op = assemble_scattering(kernel_isotropic(), sphere48)
        for op in (sphere_op, quad8):
            with pytest.raises(ValidationError, match="slab quadrature"):
                solve_transport(make_problem(n_cells=8), 0.5, op)
        assert swept == []


class TestManufacturedOrders:
    def _mms_errors(self, scheme, meshes, quad):
        case = manufactured_case("transport-trig")
        errs = []
        for n in meshes:
            p = make_problem(n_cells=n)
            op = assemble_scattering(kernel_isotropic(), quad)
            src = mms_transport_source(case, p.sigma, p.gamma, op, p.grid)
            sol = solve_transport(
                p, 1.0, op,
                SolverOptions(scheme=scheme, tolerance=1e-12),
                source_override=src,
            )
            exact = case.u(p.grid.centers[:, None], quad.nodes[None, :])
            errs.append(l2_error(sol.u, exact, p.grid, quad))
        return errs

    def test_diamond_second_order(self, quad8):
        errs = self._mms_errors("diamond", (32, 64, 128, 256), quad8)
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.9

    def test_upwind_first_order(self, quad8):
        errs = self._mms_errors("upwind", (32, 64, 128, 256), quad8)
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 0.9
        assert max(orders) < 1.5


class TestDerivedFields:
    def test_directional_derivative_of_flat_solution(self, iso8):
        p = make_problem(n_cells=16)
        sol = solve_transport(p, 1.0, iso8)
        flat = type(sol)(
            grid=sol.grid, quad=sol.quad, eps=sol.eps,
            u=np.ones_like(sol.u), edges=np.ones_like(sol.edges),
            u_bar=np.ones_like(sol.u_bar), log=sol.log,
        )
        np.testing.assert_allclose(directional_derivative(flat), 0.0, atol=1e-300)

    def test_directional_derivative_matches_absorber_decay(self, quad8):
        # mu du/dx = -sigma u along characteristics of the pure absorber
        n = 200
        grid, cells, edges = pure_absorber_sweep(n, quad8, sigma=2.0)
        pos = quad8.nodes > 0
        deriv = quad8.nodes[None, pos] * (edges[1:, pos] - edges[:-1, pos]) / grid.h
        np.testing.assert_allclose(deriv, -2.0 * cells[:, pos], rtol=2e-4)

    def test_outflow_trace_values_and_weights(self, quad8):
        from translimit import IterationLog, TransportSolution

        n = 400
        grid, cells, edges = pure_absorber_sweep(n, quad8, sigma=2.0)
        log = IterationLog(residuals=(), iterations=0, converged=True,
                           spectral_radius_estimate=0.0, balance_residual=0.0,
                           balance_floor=0.0, negative_fraction=0.0,
                           max_optical_thickness=0.0)
        sol = TransportSolution(grid=grid, quad=quad8, eps=1.0, u=cells,
                                edges=edges, u_bar=cells @ quad8.weights, log=log)
        trace = outflow_trace(sol)
        pos = quad8.nodes > 0
        exact_right = np.exp(-2.0 / quad8.nodes[pos])
        got_right = trace.value[trace.mu > 0]
        np.testing.assert_allclose(got_right, exact_right, rtol=1e-3)
        assert trace.norm() > 0.0
        # |mu|-weighted norm agrees with a direct sum
        direct = np.sqrt(np.sum(trace.weight * np.abs(trace.mu) * trace.value**2))
        np.testing.assert_allclose(trace.norm(), direct, rtol=1e-14)
        # zero-field trace is zero
        zero = TransportSolution(grid=grid, quad=quad8, eps=1.0,
                                 u=np.zeros_like(cells),
                                 edges=np.zeros_like(edges),
                                 u_bar=np.zeros(n), log=log)
        assert outflow_trace(zero).norm() == 0.0

    def test_negative_fraction_recorded(self, iso8):
        p = make_problem(n_cells=64)
        sol = solve_transport(p, 0.125, iso8)
        assert 0.0 <= sol.log.negative_fraction <= 1.0


class TestGmres:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
        st.one_of(st.just(np.zeros(n)),
                  hnp.arrays(float, n, elements=st.floats(-10.0, 10.0))))))
    def test_matches_dense_solve(self, system):
        a, b = system
        n = b.size
        # well-conditioned and well-scaled, so that the solution is finite
        assume(np.linalg.norm(a) >= 1e-3 and np.linalg.cond(a) < 1e4)
        calls = []

        def matvec(x):
            calls.append(x.copy())
            return a @ x

        residuals = []
        if 0.0 < np.max(np.abs(b)) < np.finfo(float).tiny:
            # no iterate scaled back to a subnormal b meets a relative tolerance
            with pytest.raises(ValidationError, match="smallest normal double"):
                _gmres(matvec, b, 1e-13, n, residuals)
            assert calls == [] and residuals == []
            return
        x = _gmres(matvec, b, 1e-13, n, residuals)
        want = np.linalg.solve(a, b)
        if not np.any(b):
            assert calls == [] and residuals == [] and not np.any(x)
            return
        assert len(calls) == len(residuals) <= n
        assert all(r1 <= r0 * (1 + 1e-12) for r0, r1 in zip(residuals, residuals[1:]))
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        # the reported residual is that of the returned iterate (norms taken
        # after scaling by max |b|, so a tiny b does not underflow them)
        s = np.max(np.abs(b))
        true = np.linalg.norm((b - a @ x) / s) / np.linalg.norm(b / s)
        assert abs(true - residuals[-1]) <= 1e-10

    def test_subnormal_right_hand_side_rejected(self):
        # scale * y rounds in the subnormal range: this b once came back as
        # [0, 0, -5e-324], reported at residual 6e-33 against a true 1.41
        a = np.array([[1.0, -1.0, -1.0], [-1.0, 0.0, -1.0], [-1.0, -1.0, -1.0]])
        b = np.array([5e-324, 0.0, 0.0])
        residuals = []
        with pytest.raises(ValidationError, match="below the smallest normal double"):
            _gmres(lambda v: a @ v, b, 1e-13, 3, residuals)
        assert residuals == []
        assert not np.any(_gmres(lambda v: a @ v, np.zeros(3), 1e-13, 3, residuals))

    def test_ill_conditioned_non_normal_system(self):
        # a graded diagonal from 1 to 1e-8 plus a random strictly upper part
        # scaled with it: cond ~1e8, far from normal.  A basis that loses
        # orthogonality makes the residual GMRES reports from its Givens
        # rotations part from the true one of the iterate it returns
        n = 40
        rng = np.random.default_rng(0)
        d = np.logspace(0.0, -8.0, n)
        a = np.diag(d) + (np.sqrt(np.outer(d, d)) * np.triu(rng.normal(size=(n, n)), 1)
                          / np.sqrt(n))
        assert 1e7 < np.linalg.cond(a) < 1e9
        b = a @ rng.normal(size=n)
        residuals = []
        x = _gmres(lambda v: a @ v, b, 1e-10, n, residuals)
        assert len(residuals) <= n and residuals[-1] <= 1e-10
        s = np.max(np.abs(b))
        true = np.linalg.norm((b - a @ x) / s) / np.linalg.norm(b / s)
        assert abs(true - residuals[-1]) <= 1e-10

    def test_non_finite_matvec_stops_at_once(self):
        calls = []

        def matvec(x):
            calls.append(x)
            return np.full_like(x, np.nan)

        residuals = []
        x = _gmres(matvec, np.ones(5), 1e-12, 50, residuals)
        assert len(calls) == 1 and residuals == [1.0] and not np.any(x)


SLAB_SIGMA = {"smooth": CoefficientField.sinusoid(1.0, 0.5, 1.0, phase=1.0),
              "jump": CoefficientField.piecewise([0.5], [1.0, 4.0])}


def slab_problem(kind, eps):
    """The sinusoidal or the 1|4 sigma slab on the study mesh for eps."""
    return make_problem(n_cells=cells_for_eps(eps, 1.0), sigma=SLAB_SIGMA[kind])


def krylov_problem(kind, eps):
    """Smooth-deep-like (sinusoidal sigma, isotropic, 16 ordinates) or
    jump-aniso-like (sigma 1|4, linear g = 0.5, 64 ordinates) on the study
    mesh for eps, with the kernel and its operator."""
    if kind == "smooth":
        kernel, quad = kernel_isotropic(), build_angular_quadrature(16)
    else:
        kernel, quad = kernel_linear(0.5), build_angular_quadrature(64)
    return slab_problem(kind, eps), kernel, assemble_scattering(kernel, quad)


class TestSolveUpper:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_matches_solve_triangular_bit_for_bit(self, n, seed):
        # a random upper triangle, its diagonal spread over four decades
        rng = np.random.default_rng(seed)
        r = np.triu(rng.normal(size=(n, n)))
        r[np.diag_indices(n)] = (rng.choice([-1.0, 1.0], n)
                                 * 10.0 ** rng.uniform(-2.0, 2.0, n))
        rhs = rng.normal(size=n)
        np.testing.assert_array_equal(_solve_upper(r, rhs),
                                      scipy.linalg.solve_triangular(r, rhs))

    def test_nonzero_info_raises(self, monkeypatch):
        import translimit.krylov as krylov

        monkeypatch.setattr(krylov, "dtrtrs", lambda a, b, **k: (b, 2))
        with pytest.raises(ValidationError, match="dtrtrs info 2"):
            _solve_upper(np.eye(3), np.ones(3))


class TestKrylovSolve:
    @pytest.mark.parametrize("acceleration", ["dsa", "none"])
    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 5, 200])
    def test_sweeps_within_budget_one_residual_each(self, monkeypatch, iso8,
                                                    acceleration, max_iterations):
        import translimit.transport as transport

        original = transport.sweep
        swept = []
        monkeypatch.setattr(transport, "sweep",
                            lambda *a, **k: swept.append(1) or original(*a, **k))
        opts = SolverOptions(acceleration=acceleration, max_iterations=max_iterations)
        try:
            log = solve_transport(make_problem(n_cells=64), 2.0**-5, iso8, opts).log
        except ConvergenceError as err:
            # the budget is exhausted, never exceeded
            log = err.log
            assert log.iterations == max_iterations
        assert log.iterations <= max_iterations
        assert len(log.residuals) == log.iterations == len(swept)
        if max_iterations == 200:
            assert log.converged == (acceleration == "dsa")

    @pytest.mark.parametrize("acceleration, bad_call", [
        ("dsa", 1), ("dsa", 4), ("dsa", "last"), ("none", 3)])
    def test_non_finite_sweep_raises_at_once(self, monkeypatch, iso8,
                                             acceleration, bad_call):
        # call 1 is the first full step, whose residual is GMRES's right-hand
        # side, call 4 is a Krylov step and the last call of a clean solve is
        # the full step that accepts
        problem = make_problem(n_cells=32)
        opts = SolverOptions(acceleration=acceleration)
        if bad_call == "last":
            bad_call = solve_transport(problem, 0.25, iso8, opts).log.iterations
        calls = poison_sweep(monkeypatch, bad_call)
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solve_transport(problem, 0.25, iso8, opts)
        assert len(calls) == bad_call == err.value.log.iterations
        assert err.value.log.converged is False

    def test_gmres_restarts_from_the_true_residual(self, monkeypatch, quad16):
        # a Krylov stage cut short leaves a sweep change above the
        # tolerance; GMRES then solves for the correction from step(M) - M
        import translimit.transport as transport

        original = transport._gmres
        budgets = []

        def cut_short(matvec, b, rtol, max_steps, residuals):
            budgets.append(max_steps)
            steps = 3 if len(budgets) == 1 else max_steps
            return original(matvec, b, rtol, steps, residuals)

        monkeypatch.setattr(transport, "_gmres", cut_short)
        eps = 2.0**-5
        problem, kernel = slab_problem("jump", eps), kernel_linear(0.5)
        sol = solve_transport(problem, eps, assemble_scattering(kernel, quad16))
        assert len(budgets) >= 2
        assert budgets[0] == SolverOptions().max_iterations - 1
        assert len(sol.log.residuals) == sol.log.iterations
        ref = direct_solve(problem, eps, kernel, quad16)
        assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))

    @pytest.mark.parametrize("kind", ["smooth", "jump"])
    @pytest.mark.parametrize("k", [3, 6])
    def test_agrees_with_tight_reference(self, kind, k):
        eps = 2.0**-k
        problem, kernel, op = krylov_problem(kind, eps)
        sol = solve_transport(problem, eps, op)
        ref = solve_transport(problem, eps, op,
                              SolverOptions(tolerance=1e-14))
        scale = np.max(np.abs(ref.u))
        assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * scale
        assert cell_equation_residual(sol, problem, eps, kernel) <= 1e-9


class TestThickCells:
    """The 64-cell slab of smooth_study.ini held fixed while eps falls, so
    the thickest cell's sigma_t h grows from 12 at eps 2^-9 to about 1500
    at 2^-16.  The finite-volume DSA amplifies a rounding-level residual
    there, so the iteration reads the sweep's change before the correction
    and accepts a balance at its rounding floor."""

    @pytest.mark.parametrize("g", [None, 0.5], ids=["isotropic", "linear"])
    def test_every_eps_matches_the_direct_solve(self, quad16, g):
        problem = smooth_benchmark()
        kernel = kernel_isotropic() if g is None else kernel_linear(g)
        op = assemble_scattering(kernel, quad16)
        for k in range(9, 17):
            eps = 2.0**-k
            sol = solve_transport(problem, eps, op)
            assert sol.log.converged
            assert cell_equation_residual(sol, problem, eps, kernel) <= 1e-9
            ref = direct_solve(problem, eps, kernel, quad16)
            assert np.max(np.abs(sol.u - ref.u)) <= 1e-6 * np.max(np.abs(ref.u))

    @pytest.mark.parametrize("g", [0.25, 0.5, 0.75])
    def test_tolerance_near_the_roundoff_floor(self, quad16, g):
        # the sweep's own change falls to 1-2e-16 here; read after the DSA
        # correction it stalls at 3-4e-14
        eps = 2.0**-7
        problem = slab_problem("jump", eps)
        assert problem.grid.n_cells == 512
        kernel = kernel_linear(g)
        opts = SolverOptions(tolerance=1e-14)
        sol = solve_transport(problem, eps, assemble_scattering(kernel, quad16), opts)
        assert sol.log.converged and sol.log.iterations <= 200
        ref = direct_solve(problem, eps, kernel, quad16)
        assert np.max(np.abs(sol.u - ref.u)) <= 1e-11 * np.max(np.abs(ref.u))


    def test_tolerance_below_the_floor_is_named(self, quad16):
        # the full-step change stalls at 1-2e-16, so tolerance 1e-18 restarts
        # GMRES after every full step until the budget is spent
        eps = 2.0**-7
        op = assemble_scattering(kernel_linear(0.5), quad16)
        opts = SolverOptions(tolerance=1e-18, max_iterations=30)
        with pytest.raises(ConvergenceError, match="rounding floor") as err:
            solve_transport(slab_problem("jump", eps), eps, op, opts)
        stalled = re.search(r"change stalled at (\S+),", str(err.value))
        assert 5e-17 <= float(stalled.group(1)) <= 4e-16
        assert "tolerance 1.0e-18 lies below" in str(err.value)
        assert err.value.log.iterations == 30


class TestCurrentCorrection:
    """With a linear kernel the diamond DSA step corrects the current as well
    as the scalar flux, by the Fick current of the scalar correction and by
    the sweep's own first-moment scattering residual; the isotropic kernel,
    the upwind scheme and plain source iteration run without that
    correction."""

    @pytest.mark.parametrize("k", [1, 4, 7])
    @pytest.mark.parametrize("kind", ["smooth", "jump"])
    @pytest.mark.parametrize("g", [0.25, 0.5, 0.75])
    def test_agrees_with_tight_reference(self, quad16, g, kind, k):
        eps = 2.0**-k
        problem = slab_problem(kind, eps)
        kernel = kernel_linear(g)
        sol = solve_transport(problem, eps, assemble_scattering(kernel, quad16))
        # the direct solve of the same discrete system; an iterated reference
        # at tolerance 1e-14 sits below the roundoff floor of the 512-cell
        # jump slab and meets it only by chance
        ref = direct_solve(problem, eps, kernel, quad16)
        assert cell_equation_residual(ref, problem, eps, kernel) <= 1e-12
        assert np.max(np.abs(sol.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))

    def test_jump_slab_sweep_count(self, quad16):
        # 31 sweeps when the DSA step corrects the scalar flux alone, 20 with
        # the Fick current of that correction alone
        problem = slab_problem("jump", 2.0**-5)
        assert problem.grid.n_cells == 128
        op = assemble_scattering(kernel_linear(0.5), quad16)
        assert solve_transport(problem, 2.0**-5, op).log.iterations <= 15

    def test_stronger_anisotropy_costs_no_sweeps(self, quad16):
        # without the first-moment residual the current's error falls by
        # about g per sweep: 17 sweeps at g = 0.25 and 40 at g = 0.9
        problem = slab_problem("jump", 2.0**-5)
        sweeps = [solve_transport(problem, 2.0**-5,
                                  assemble_scattering(kernel_linear(g), quad16)).log.iterations
                  for g in (0.25, 0.9)]
        assert sweeps[1] <= sweeps[0]

    def test_thick_constant_slab_sweep_count(self, quad16):
        # sigma_t h = 10 per cell; 45 sweeps without the first-moment residual
        problem = make_problem(n_cells=128, sigma=40.0)
        op = assemble_scattering(kernel_linear(0.9), quad16)
        assert solve_transport(problem, 2.0**-5, op).log.iterations <= 22

    @pytest.mark.parametrize("g, scheme, acceleration, k, sweeps", [
        (None, "diamond", "dsa", 5, 17),
        (0.5, "upwind", "dsa", 5, 26),
        (0.5, "diamond", "none", 1, 134),
    ], ids=["isotropic", "upwind", "source-iteration"])
    def test_uncorrected_solves_keep_their_sweeps(self, monkeypatch, quad16, g,
                                                  scheme, acceleration, k, sweeps):
        import translimit.transport as transport

        def no_current(*args):
            raise AssertionError("current correction applied")

        monkeypatch.setattr(transport, "face_fluxes", no_current)
        kernel = kernel_isotropic() if g is None else kernel_linear(g)
        op = assemble_scattering(kernel, quad16)
        opts = SolverOptions(scheme=scheme, acceleration=acceleration)
        sol = solve_transport(slab_problem("jump", 2.0**-k), 2.0**-k, op, opts)
        assert sol.log.iterations == sweeps


class TestOptionsValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValidationError):
            SolverOptions(scheme="magic")

    def test_bad_tolerance(self):
        with pytest.raises(ValidationError):
            SolverOptions(tolerance=0.0)

    def test_bad_acceleration(self):
        with pytest.raises(ValidationError):
            SolverOptions(acceleration="turbo")
