import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortigen import fields

from vortigen.errors import MissingSnapshots, PointOutsideDomain
from vortigen.evoform import (
    A1Variant,
    CroccoSign,
    ForceModel,
    FlowRegime,
    TransportModel,
    classify_regime,
    commutator,
    crocco_normal_coefficient,
    equilibrium_classifier,
    equilibrium_tolerance,
    ideal_a1,
    lagrange_criterion,
    sample_anu,
    truncation_estimate,
    viscous_a1,
)
from vortigen.fields import (
    FieldSet,
    StructuredGrid2D,
    Snapshot,
    Trajectory,
    curl2d,
    gradient,
    interp_bilinear,
    time_derivative,
    trace_streamline,
)

from scenarios import (
    GAMMA,
    MODEL,
    couette_a1_closed_form,
    couette_flow,
    diaphragm_snapshot_pair,
    shear_flow,
    source_flow,
)

NO_FORCE = ForceModel.none()


def uniform_fs(n=17, u=1.0, v=0.0):
    grid = StructuredGrid2D(n, n, hx=1.0 / (n - 1), hy=1.0 / (n - 1))
    one = np.ones(grid.shape)
    return FieldSet(grid, one, np.full(grid.shape, u), np.full(grid.shape, v), one)


def horizontal_line(y, x0=0.1, x1=0.9, n=33):
    pts = np.column_stack([np.linspace(x0, x1, n), np.full(n, y)])
    return Trajectory(pts)


class TestCroccoCoefficient:
    def test_uniform_flow_zero(self):
        fs = uniform_fs()
        traj = trace_streamline(fs, (0.1, 0.5), max_len=0.7)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
        samples = commutator(anu, ideal_a1(), traj, fs.grid).anu
        assert np.max(np.abs(samples)) <= 1e-13

    def test_shear_flow_consistent_sign_vanishes(self):
        fs, sigma, T0 = shear_flow()
        traj = trace_streamline(fs, (0.1, 1.0), max_len=1.6)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points,
                         sign=CroccoSign.CONSISTENT)
        samples = commutator(anu, ideal_a1(), traj, fs.grid).anu
        est = truncation_estimate(fs, MODEL)
        assert np.max(np.abs(samples)) <= 10.0 * est.anu

    def test_shear_flow_paper_literal_value(self):
        fs, sigma, T0 = shear_flow()
        y_traj = 1.0
        traj = trace_streamline(fs, (0.1, y_traj), max_len=1.6)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points,
                         sign=CroccoSign.PAPER_LITERAL)
        samples = commutator(anu, ideal_a1(), traj, fs.grid).anu
        expected = 2.0 * sigma ** 2 * y_traj / T0
        assert np.max(np.abs(samples - expected)) <= 0.01 * expected

    def test_time_term_requires_snapshots(self):
        fs = uniform_fs()
        with pytest.raises(MissingSnapshots):
            crocco_normal_coefficient(fs, NO_FORCE, MODEL,
                                      include_time_term=True)

    def test_potential_force_enters_normally(self):
        # F = -grad(phi) with phi = g*y adds +g n_y / T to the coefficient.
        fs = uniform_fs()
        _, Y = np.meshgrid(fs.grid.x, fs.grid.y)
        g = 2.5
        force = ForceModel.potential(g * Y)
        traj = trace_streamline(fs, (0.1, 0.5), max_len=0.7)
        anu = sample_anu(fs, force, MODEL, traj.points)
        # the other terms vanish exactly on the uniform field
        assert not anu["h0_gradient"].any()
        assert not anu["vortical"].any()
        samples = commutator(anu, ideal_a1(), traj, fs.grid).anu
        T = 1.0
        assert np.allclose(samples, g / T, atol=1e-12)


def wavy_series(n, times=(0.0, 0.1, 0.25)):
    """Smooth nonuniform fields on an n x n grid with a snapshot at each of
    ``times`` (nonuniformly spaced); the primary arrays are the second."""
    grid = StructuredGrid2D(n, n, hx=1.0 / (n - 1), hy=1.0 / (n - 1))
    X, Y = np.meshgrid(grid.x, grid.y)

    def state(t):
        return (1.0 + 0.1 * np.sin(3.0 * X + t) * np.cos(2.0 * Y),
                1.0 + Y * Y + 0.3 * t * X, 0.3 * X - 0.2 * t * Y * Y,
                1.0 + 0.2 * X * Y + 0.1 * t)

    snaps = [Snapshot(t, *state(t)) for t in times]
    return FieldSet(grid, *state(times[1]), snapshots=snaps)


def reference_pieces(fs, forces, m, sign, time_index, include_time_term):
    """The (6, ny, nx) term stacks built by the plain expressions, each term
    stacked from its (Gx, Gy) and their node gradients."""
    grid = fs.grid
    T = fs.p / (fs.rho * m.R)
    h0 = m.c_v * T + fs.p / fs.rho + 0.5 * (fs.u ** 2 + fs.v ** 2)
    vort_sign = 1.0 if sign is CroccoSign.PAPER_LITERAL else -1.0
    gx, gy = gradient(h0, grid)
    omega = curl2d(fs.u, fs.v, grid)
    vectors = {"h0_gradient": (gx / T, gy / T),
               "vortical": (vort_sign * fs.v * omega / T,
                            vort_sign * (-fs.u) * omega / T)}
    fcomp = forces.components(grid)
    if fcomp is not None:
        vectors["force"] = (-fcomp[0] / T, -fcomp[1] / T)
    if include_time_term:
        dudt = time_derivative(fs, "u", time_index)
        dvdt = time_derivative(fs, "v", time_index)
        vectors["nonstationarity"] = (dudt / T, dvdt / T)
    return {name: np.stack([fx, fy, *gradient(fx, grid), *gradient(fy, grid)])
            for name, (fx, fy) in vectors.items()}


class TestCroccoTermStacks:
    """The stacks are built in place, term by term: every value equals the
    plain construction's, and the transient memory is a few node fields."""

    @pytest.mark.parametrize("sign", list(CroccoSign))
    @pytest.mark.parametrize("force", ["none", "potential", "tabulated"])
    @pytest.mark.parametrize("time_index", [None, 0, 1, 2])
    def test_bitwise_equal_to_plain_stack(self, sign, force, time_index):
        fs = wavy_series(33)
        X, Y = np.meshgrid(fs.grid.x, fs.grid.y)
        forces = {"none": NO_FORCE,
                  "potential": ForceModel.potential(9.8 * Y + X * X * Y),
                  "tabulated": ForceModel.tabulated(np.sin(X + Y),
                                                    np.cos(X * Y))}[force]
        timed = time_index is not None
        anu = crocco_normal_coefficient(
            fs, forces, MODEL, sign=sign, time_index=time_index or 0,
            include_time_term=timed)
        ref = reference_pieces(fs, forces, MODEL, sign, time_index, timed)
        assert list(anu) == list(ref)
        for name, stack in ref.items():
            assert anu[name].shape == (6, 33, 33)
            assert np.array_equal(anu[name], stack), name

    @pytest.mark.parametrize("terms", [2, 4])
    def test_transient_memory_is_a_few_fields(self, terms):
        # the plain construction needs 17 (two terms) and 25 (four terms)
        # node fields beyond the kept stacks
        fs = wavy_series(129)
        if terms == 2:
            fs = FieldSet(fs.grid, fs.rho, fs.u, fs.v, fs.p)
            forces = NO_FORCE
        else:
            _, Y = np.meshgrid(fs.grid.x, fs.grid.y)
            forces = ForceModel.potential(9.8 * Y)
        field = fs.rho.nbytes
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            anu = crocco_normal_coefficient(fs, forces, MODEL, time_index=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(anu) == terms
        kept = sum(stack.nbytes for stack in anu.values())
        assert kept == 6 * terms * field
        assert peak - entry <= kept + 8 * field



@st.composite
def random_series(draw):
    """A field set of 3 to 12 nodes a side with 3 snapshots at nonuniform
    times, its time index and a potential or tabulated force, all from
    random finite values."""
    nx, ny = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = StructuredGrid2D(nx, ny, x0=-0.3, y0=1.7, hx=0.7, hy=0.45)
    shape = grid.shape
    snaps = [Snapshot(t, rng.uniform(0.5, 2.0, shape),
                      rng.uniform(-1.0, 1.0, shape),
                      rng.uniform(-1.0, 1.0, shape),
                      rng.uniform(0.5, 2.0, shape)) for t in (0.0, 0.3, 0.45)]
    k = draw(st.integers(0, 2))
    s = snaps[k]
    fs = FieldSet(grid, s.rho, s.u, s.v, s.p, snapshots=snaps)
    if draw(st.booleans()):
        forces = ForceModel.potential(rng.uniform(-1.0, 1.0, shape))
    else:
        forces = ForceModel.tabulated(rng.uniform(-1.0, 1.0, shape),
                                      rng.uniform(-1.0, 1.0, shape))
    return fs, forces, k, draw(st.sampled_from(CroccoSign))


def full_stacks(fs, forces, k, sign):
    return crocco_normal_coefficient(fs, forces, MODEL, sign=sign,
                                     time_index=k, include_time_term=True)


class TestTiledSampling:
    """A_nu built on a window with a two-node halo equals the full grid's
    on the window's core, so sampling tile by tile equals sampling the
    full-grid stacks, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(random_series(), st.data())
    def test_window_core_equals_full_grid(self, case, data):
        fs, forces, k, sign = case
        full = full_stacks(fs, forces, k, sign)
        assert list(full) == ["h0_gradient", "vortical", "force",
                              "nonstationarity"]
        core, win = [], []
        for n in (fs.grid.ny, fs.grid.nx):
            # the core's first and last node; ranges reach every edge and
            # corner of the grid
            lo = data.draw(st.integers(0, n - 2))
            hi = data.draw(st.integers(lo + 1, n - 1))
            start = max(lo - 2, 0)
            win.append(slice(start, min(hi + 2, n - 1) + 1))
            core.append((slice(lo, hi + 1), slice(lo - start, hi + 1 - start)))
        (rows, wrows), (cols, wcols) = core
        part = crocco_normal_coefficient(
            fs.window(*win), forces.window(*win), MODEL, sign=sign,
            time_index=k, include_time_term=True)
        assert list(part) == list(full)
        for name, stack in full.items():
            assert (part[name][:, wrows, wcols].tobytes()
                    == stack[:, rows, cols].tobytes()), name

    @settings(max_examples=80, deadline=None)
    @given(random_series(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_samples_equal_full_grid_interpolation(self, case, tile, seed):
        fs, forces, k, sign = case
        grid = fs.grid
        rng = np.random.default_rng(seed)
        xs = rng.uniform(grid.x0, grid.xmax, 40)
        ys = rng.uniform(grid.y0, grid.ymax, 40)
        # the grid's edges and corners, and some nodes
        xs[:8] = [grid.x0, grid.xmax] * 4
        ys[4:12] = [grid.y0, grid.ymax] * 4
        xs[-4:] = grid.x[rng.integers(0, grid.nx, 4)]
        ys[-4:] = grid.y[rng.integers(0, grid.ny, 4)]
        pts = np.column_stack([xs, ys])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "TILE_CELLS", tile)
            got = sample_anu(fs, forces, MODEL, pts, sign=sign, time_index=k,
                             include_time_term=True)
        full = full_stacks(fs, forces, k, sign)
        assert list(got) == list(full)
        for name, stack in full.items():
            assert (got[name].tobytes()
                    == interp_bilinear(stack, grid, pts).tobytes()), name

    def test_points_outside_or_none_refused(self):
        fs = uniform_fs()
        with pytest.raises(PointOutsideDomain):
            sample_anu(fs, NO_FORCE, MODEL, [[0.5, 0.5], [1.5, 0.5]])
        with pytest.raises(ValueError):
            sample_anu(fs, NO_FORCE, MODEL, np.empty((0, 2)))


class TestA1:
    def test_ideal_is_zero(self):
        a1 = ideal_a1()
        assert a1.is_zero
        traj = horizontal_line(0.5)
        grid = StructuredGrid2D(9, 9, hx=0.125, hy=0.125)
        assert np.all(a1.sample_along(traj, grid) == 0.0)

    def test_zero_transport_zero_field(self):
        fs, _ = couette_flow()
        a1 = viscous_a1(fs, TransportModel(mu=0.0, k=0.0), MODEL)
        assert np.max(np.abs(a1.field)) == 0.0

    def test_couette_closed_form_mid_channel(self):
        mu, k = 0.1, 0.05
        fs, _ = couette_flow(mu=mu, k=k)
        a1 = viscous_a1(fs, TransportModel(mu=mu, k=k), MODEL,
                        A1Variant.PAPER_LITERAL)
        j_mid = (fs.grid.ny - 1) // 2
        y_mid = fs.grid.y[j_mid]
        expected, _ = couette_a1_closed_form(y_mid, mu, k)
        got = a1.field[j_mid, fs.grid.nx // 2]
        assert abs(got - expected) <= 0.005 * abs(expected)

    def test_conduction_slab_affine_temperature(self):
        # u = 0, T affine in y: production term is exactly k T'^2/(rho T).
        grid = StructuredGrid2D(9, 33, hx=0.125, hy=1.0 / 32)
        _, Y = np.meshgrid(grid.x, grid.y)
        slope = 0.8
        T = 1.0 + slope * Y
        rho = 1.0 / T  # p = rho R T = 1
        z = np.zeros(grid.shape)
        fs = FieldSet(grid, rho, z, z, np.ones(grid.shape))
        k = 0.3
        a1 = viscous_a1(fs, TransportModel(mu=0.0, k=k), MODEL,
                        A1Variant.PAPER_LITERAL)
        expected = k * slope ** 2 / (rho * T)
        np.testing.assert_allclose(a1.pieces["conduction_production"],
                                   expected, rtol=1e-10)
        assert np.all(a1.pieces["conduction_production"] > 0.0)

    @pytest.mark.parametrize("variant", list(A1Variant))
    def test_x_varying_closed_forms(self, variant):
        # rho constant, u = U(x), v = 0 and T = T(x) through p = rho R T:
        # per unit rho the pieces are 4/3 mu U'^2, k (T''/T - T'^2/T^2) and
        # k T'^2 / T, the productions over T once more in the standard
        # variant; second order away from the two x edges, whose one-sided
        # stencils the second derivative compounds
        mu, k, rho0 = 0.2, 0.3, 1.3
        errors = {name: [] for name in ("viscous_production",
                                        "heatflux_divergence",
                                        "conduction_production")}
        for nx in (33, 65, 129):
            grid = StructuredGrid2D(nx, 9, hx=1.0 / (nx - 1), hy=0.125)
            X, _ = np.meshgrid(grid.x, grid.y)
            U, dU = 0.3 * np.sin(np.pi * X) + 0.1 * X, \
                0.3 * np.pi * np.cos(np.pi * X) + 0.1
            T = 1.0 + 0.2 * np.cos(np.pi * X)
            dT = -0.2 * np.pi * np.sin(np.pi * X)
            ddT = -0.2 * np.pi ** 2 * np.cos(np.pi * X)
            rho = np.full(grid.shape, rho0)
            fs = FieldSet(grid, rho, U, np.zeros(grid.shape),
                          rho * MODEL.R * T)
            a1 = viscous_a1(fs, TransportModel(mu=mu, k=k), MODEL, variant)
            per_T = T if variant is A1Variant.STANDARD_PRODUCTION else 1.0
            exact = {
                "viscous_production": 4.0 / 3.0 * mu * dU ** 2 / rho / per_T,
                "heatflux_divergence": k * (ddT / T - dT ** 2 / T ** 2) / rho,
                "conduction_production": k * dT ** 2 / (rho * T) / per_T,
            }
            for name, want in exact.items():
                got = a1.pieces[name]
                errors[name].append(np.max(np.abs(got - want)[:, 2:-2]))
        for name, errs in errors.items():
            order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
            assert order >= 1.85, (name, errs)

    def test_production_nonnegative_sweep(self):
        # 10 transport/flow cases, both variants, both production terms.
        rng = np.random.default_rng(2024)
        grid = StructuredGrid2D(17, 17, hx=1.0 / 16, hy=1.0 / 16)
        X, Y = np.meshgrid(grid.x, grid.y)
        cases = []
        for mu, k in [(0.1, 0.05), (0.02, 0.3), (1.0, 1.0), (0.5, 0.0),
                      (0.0, 0.7)]:
            a, b, c = rng.uniform(-1.0, 1.0, 3)
            u = a * Y + b * np.sin(2 * X) + c
            v = b * X * Y - a * np.cos(Y)
            T = 1.0 + 0.3 * np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) * 3)
            rho = 1.0 / T
            cases.append((mu, k, FieldSet(grid, rho, u, v, np.ones(grid.shape))))
            u2 = rng.uniform(-1, 1) * X + rng.uniform(-1, 1) * Y
            v2 = rng.uniform(-1, 1) * X * X
            cases.append((mu, k, FieldSet(grid, rho, u2, v2, np.ones(grid.shape))))
        assert len(cases) == 10
        for mu, k, fs in cases:
            for variant in A1Variant:
                a1 = viscous_a1(fs, TransportModel(mu=mu, k=k), MODEL, variant)
                assert np.all(a1.pieces["conduction_production"] >= 0.0)
                assert np.all(a1.pieces["viscous_production"] >= 0.0)

    def test_standard_variant_rescales_production(self):
        fs, T = couette_flow()
        tm = TransportModel(mu=0.1, k=0.05)
        lit = viscous_a1(fs, tm, MODEL, A1Variant.PAPER_LITERAL)
        std = viscous_a1(fs, tm, MODEL, A1Variant.STANDARD_PRODUCTION)
        np.testing.assert_allclose(std.pieces["conduction_production"],
                                   lit.pieces["conduction_production"] / T,
                                   rtol=1e-12)
        np.testing.assert_allclose(std.pieces["viscous_production"],
                                   lit.pieces["viscous_production"] / T,
                                   rtol=1e-12)
        np.testing.assert_allclose(std.pieces["heatflux_divergence"],
                                   lit.pieces["heatflux_divergence"], rtol=1e-12)


class TestCommutator:
    def test_zero_coefficients_zero_K(self):
        fs = uniform_fs()
        traj = trace_streamline(fs, (0.1, 0.5), max_len=0.7)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
        K = commutator(anu, ideal_a1(), traj, fs.grid)
        assert np.max(np.abs(K.K)) <= 1e-12

    def test_prescribed_profile_derivative(self):
        # G = (0, sin(3 (x - 0.1))): along the line y = 0.5 from x = 0.1 the
        # frame normal is +y, so A_nu = sin(3 xi) and K = 3 cos(3 xi).
        # 129^2: on 33^2 the bilinear samples of the node Jacobian miss the
        # bound (about 8e-3).
        fs = uniform_fs(129)
        X, _ = np.meshgrid(fs.grid.x, fs.grid.y)
        gx, gy = np.zeros(fs.grid.shape), np.sin(3.0 * (X - 0.1))
        stack = np.stack(
            [gx, gy, *gradient(gx, fs.grid), *gradient(gy, fs.grid)])
        traj = horizontal_line(0.5, n=201)
        anu = {"prescribed": interp_bilinear(stack, fs.grid, traj.points)}
        xi = traj.arclength
        K = commutator(anu, ideal_a1(), traj, fs.grid)
        assert np.max(np.abs(K.K - 3.0 * np.cos(3.0 * xi))) <= 1e-3

    def test_attribution_sums_to_K(self):
        fs = diaphragm_snapshot_pair()
        traj = trace_streamline(fs, (0.55, 0.02), max_len=0.5)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points, time_index=1)
        K = commutator(anu, ideal_a1(), traj, fs.grid)
        total = np.sum(list(K.attribution.values()), axis=0)
        scale = max(np.max(np.abs(K.K)), 1e-30)
        assert np.max(np.abs(total - K.K)) / scale <= 1e-10

    def test_shock_tube_pair_nonstationarity_dominates(self):
        fs = diaphragm_snapshot_pair()
        traj = trace_streamline(fs, (0.55, 0.02), max_len=0.5)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points, time_index=1)
        K = commutator(anu, ideal_a1(), traj, fs.grid)
        assert np.max(np.abs(K.K)) > equilibrium_tolerance(fs, MODEL)
        integrals = {n: abs(np.trapezoid(c, K.xi))
                     for n, c in K.attribution.items()}
        assert max(integrals, key=integrals.get) == "nonstationarity"

    def test_inviscid_paths_agree(self):
        # With A1 = 0, K reduces to the xi1-derivative of A_nu: the
        # field-Jacobian route and plain arclength differencing of the
        # samples must agree within the stencil tolerance.
        fs = source_flow(65)
        traj = trace_streamline(fs, (1.05, 1.1), max_len=0.9)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
        K_field = commutator(anu, ideal_a1(), traj, fs.grid)
        K_samp = np.gradient(K_field.anu, traj.arclength, edge_order=2)
        tol = equilibrium_tolerance(fs, MODEL)
        assert np.max(np.abs(K_field.K)) <= tol
        assert np.max(np.abs(K_field.K - K_samp)) <= tol


class TestLagrange:
    def test_source_flow_predicts_equilibrium(self):
        fs = source_flow()
        rep = lagrange_criterion(fs, NO_FORCE)
        assert rep.stationary and rep.potential and rep.simply_connected
        assert rep.predicts_equilibrium

    def test_shock_tube_series_not_stationary(self):
        fs = diaphragm_snapshot_pair()
        rep = lagrange_criterion(fs, NO_FORCE)
        assert not rep.stationary
        assert not rep.predicts_equilibrium

    def test_rotational_tabulated_force_flagged(self):
        fs = source_flow(33)
        X, Y = np.meshgrid(fs.grid.x, fs.grid.y)
        rep = lagrange_criterion(fs, ForceModel.tabulated(-Y, X))
        assert not rep.potential

    def test_conservative_tabulated_force_passes(self):
        fs = source_flow(33)
        X, Y = np.meshgrid(fs.grid.x, fs.grid.y)
        rep = lagrange_criterion(fs, ForceModel.tabulated(X, Y))
        assert rep.potential


class TestClassification:
    def speed_and_a(self, mach):
        a = np.sqrt(GAMMA)  # rho = p = 1
        return mach * a, a

    def test_regimes(self):
        assert classify_regime(*self.speed_and_a(2.0)) is FlowRegime.HYPERBOLIC
        assert classify_regime(*self.speed_and_a(0.5)) is FlowRegime.ELLIPTIC
        assert classify_regime(*self.speed_and_a(1.0)) is FlowRegime.SONIC

    def test_zero_K_is_equilibrium(self):
        from vortigen.evoform import Commutator
        K = Commutator(xi=np.linspace(0, 1, 5), a1=np.zeros(5),
                       anu=np.zeros(5), K=np.zeros(5),
                       attribution={"vortical": np.zeros(5)})
        out = equilibrium_classifier(K, tol=1e-8)
        assert out.kind == "locally_equilibrium"
        assert out.dominant is None

    def test_couette_dominant_is_transport(self):
        mu, k = 0.1, 0.05
        fs, _ = couette_flow(mu=mu, k=k)
        a1 = viscous_a1(fs, TransportModel(mu=mu, k=k), MODEL)
        traj = horizontal_line(0.3, n=65)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
        K = commutator(anu, a1, traj, fs.grid)
        out = equilibrium_classifier(K, equilibrium_tolerance(fs, MODEL))
        assert out.kind == "nonequilibrium"
        assert out.dominant in ("conduction_production", "viscous_production",
                                "heatflux_divergence")
        # attribution still sums to K with the transport terms in play
        total = np.sum(list(K.attribution.values()), axis=0)
        assert np.max(np.abs(total - K.K)) <= 1e-10 * np.max(np.abs(K.K))

    def test_invalid_tolerance(self):
        from vortigen.evoform import Commutator
        K = Commutator(xi=np.zeros(1), a1=np.zeros(1), anu=np.zeros(1),
                       K=np.zeros(1), attribution={})
        with pytest.raises(ValueError):
            equilibrium_classifier(K, tol=0.0)


class TestEquilibriumSoundness:
    def test_uniform_state_machine_zero(self):
        fs = uniform_fs()
        traj = trace_streamline(fs, (0.1, 0.5), max_len=0.7)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
        K = commutator(anu, ideal_a1(), traj, fs.grid)
        assert np.max(np.abs(K.K)) <= 1e-13

    def test_source_flow_refinement_order(self):
        vals = []
        for n in (33, 65, 129):
            fs = source_flow(n)
            traj = trace_streamline(fs, (1.05, 1.1), max_len=0.9)
            anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
            K = commutator(anu, ideal_a1(), traj, fs.grid)
            assert np.max(np.abs(K.K)) <= equilibrium_tolerance(fs, MODEL)
            vals.append(np.max(np.abs(K.K)))
        orders = [np.log2(vals[k] / vals[k + 1]) for k in range(2)]
        assert min(orders) >= 1.5
