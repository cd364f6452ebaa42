import math

import numpy as np
import pytest

from vortigen.errors import TooCloseToBoundary, WrongSurfaceKind
from vortigen.exact import CenteredFan
from vortigen.fields import StructuredGrid2D
from vortigen.jumps import (
    Surface,
    SurfaceKind,
    WeakDiscontinuity,
    char_jump_check,
    consistency_determinant,
    contact_jump_check,
    measure_discontinuity,
    measure_jump,
    synthesize_contact_field,
)
from vortigen.thermo import GasModel, PrimitiveState, derive_state

M14 = GasModel(gamma=1.4, R=1.0)
UP = Surface(SurfaceKind.TRAJECTORY, (0.0, 1.0))


def contact_setup(gamma, delta, ny, nx=9):
    m = GasModel(gamma=gamma, R=1.0)
    grid = StructuredGrid2D(nx, ny, x0=0.0, y0=0.0, hx=1.0 / (nx - 1),
                            hy=1.0 / (ny - 1))
    base = PrimitiveState(rho=1.0, u=(1.0, 0.0), p=1.0)
    fs = synthesize_contact_field(base, delta, grid, m)
    return m, fs, derive_state(base, m)


def fan_jumps(u_tail=-0.3, n=241, gamma=1.4, a0=1.0, t_probe=1.0):
    fan = CenteredFan(gamma=gamma, a0=a0, u_tail=u_tail)
    grid = StructuredGrid2D(n, n, x0=a0 * t_probe - 0.7, y0=t_probe - 0.5,
                            hx=1.4 / (n - 1), hy=1.2 / (n - 1))
    X, T = np.meshgrid(grid.x, grid.y)
    u, a = fan.sound_speed_field(X, T)
    s = np.full(grid.shape, fan.s0)
    rho = (a * a / (gamma * fan.s0)) ** (1.0 / (gamma - 1.0))
    p = fan.s0 * rho ** gamma
    norm = np.hypot(1.0, a0)
    surf = Surface(SurfaceKind.CHARACTERISTIC_PLUS, (1.0 / norm, -a0 / norm))
    pt = (a0 * t_probe, t_probe)
    jumps = {name: measure_jump(f, grid, surf, pt)
             for name, f in (("u", u), ("a", a), ("s", s), ("p", p))}
    return WeakDiscontinuity(surf, jumps)


class TestSynthesize:
    def test_zero_slope_smooth(self):
        m, fs, state = contact_setup(1.4, 0.0, 101)
        wd = measure_discontinuity(fs, m, UP, (0.5, 0.5))
        for v in wd.jumps.values():
            assert abs(v) <= 1e-10

    def test_prescribed_entropy_kink(self):
        m, fs, state = contact_setup(1.4, 1.0, 101)
        wd = measure_discontinuity(fs, m, UP, (0.5, 0.5))
        # s is piecewise linear in y, the offset stencils are exact on it
        assert wd.jumps["s"] == pytest.approx(1.0, abs=1e-10)

    def test_pressure_velocity_continuous_by_construction(self):
        for delta in (-1.0, 0.5, 2.0):
            m, fs, state = contact_setup(1.4, delta, 101)
            wd = measure_discontinuity(fs, m, UP, (0.5, 0.5))
            assert abs(wd.jumps["p"]) <= 1e-12
            assert abs(wd.jumps["u"]) <= 1e-12


class TestMeasureJump:
    def test_smooth_field_near_zero(self):
        grid = StructuredGrid2D(101, 101, hx=0.01, hy=0.01)
        X, Y = np.meshgrid(grid.x, grid.y)
        f = np.sin(2 * X) * np.cos(Y)
        got = measure_jump(f, grid, UP, (0.5, 0.5))
        assert abs(got) <= 1e-3  # O(h^2) on both sides

    def test_abs_profile_exact(self):
        grid = StructuredGrid2D(9, 101, hx=0.125, hy=0.01)
        _, Y = np.meshgrid(grid.x, grid.y)
        f = np.abs(Y - 0.5)
        got = measure_jump(f, grid, UP, (0.5, 0.5))
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_too_close_to_boundary(self):
        grid = StructuredGrid2D(9, 9)
        with pytest.raises(TooCloseToBoundary):
            measure_jump(np.zeros(grid.shape), grid, UP, (0.5, 7.5))


class TestContactRelation:
    def test_zero_jump_passes(self):
        m, fs, state = contact_setup(1.4, 0.0, 101)
        wd = measure_discontinuity(fs, m, UP, (0.5, 0.5))
        rep = contact_jump_check(wd, state, m)
        assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-10)

    def test_unit_kink_value(self):
        # rhs = a/(2 gamma s) = sqrt(1.4)/2.8 for the unit base state
        m, fs, state = contact_setup(1.4, 1.0, 201)
        wd = measure_discontinuity(fs, m, UP, (0.5, 0.5))
        rep = contact_jump_check(wd, state, m)
        assert rep.rhs == pytest.approx(math.sqrt(1.4) / 2.8, rel=1e-12)
        assert rep.rhs == pytest.approx(0.42258, abs=5e-6)
        assert rep.passed and rep.rel_error <= 1e-2

    def test_parameter_sweep_and_order(self):
        for gamma in (1.2, 1.4, 1.67):
            for delta in (-1.0, 0.5, 2.0):
                errs = []
                for ny in (51, 101, 201):
                    m, fs, state = contact_setup(gamma, delta, ny)
                    wd = measure_discontinuity(fs, m, UP, (0.5, 0.5))
                    rep = contact_jump_check(wd, state, m)
                    errs.append(rep.rel_error)
                assert rep.passed and errs[-1] <= 1e-2
                orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
                assert min(orders) >= 1.0

    def test_broken_pressure_continuity_flagged(self):
        m, fs, state = contact_setup(1.4, 1.0, 101)
        # kink the pressure too: side condition must fail the check
        _, Y = np.meshgrid(fs.grid.x, fs.grid.y)
        p_broken = fs.p + 0.5 * np.maximum(0.0, Y - 0.5)
        from vortigen.fields import FieldSet
        fs2 = FieldSet(fs.grid, fs.rho, fs.u, fs.v, p_broken)
        wd = measure_discontinuity(fs2, m, UP, (0.5, 0.5))
        rep = contact_jump_check(wd, state, m)
        assert not rep.passed
        assert rep.side_errors["p"] > 0.0

    def test_wrong_surface_kind(self):
        m, fs, state = contact_setup(1.4, 1.0, 101)
        wd = WeakDiscontinuity(
            Surface(SurfaceKind.CHARACTERISTIC_PLUS, (0.0, 1.0)),
            {"u": 0.0, "a": 0.0, "s": 0.0, "p": 0.0})
        with pytest.raises(WrongSurfaceKind):
            contact_jump_check(wd, state, m)


class TestCharRelation:
    def test_zero_jumps_pass(self):
        wd = WeakDiscontinuity(
            Surface(SurfaceKind.CHARACTERISTIC_PLUS, (1.0, 0.0)),
            {"u": 0.0, "a": 0.0, "s": 0.0, "p": 0.0})
        rep = char_jump_check(wd, M14)
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_frozen_factor(self):
        # 2/(gamma-1) = 5: an a-jump of 0.1 needs a u-jump of 0.5
        wd = WeakDiscontinuity(
            Surface(SurfaceKind.CHARACTERISTIC_PLUS, (1.0, 0.0)),
            {"u": 0.5, "a": 0.1, "s": 0.0, "p": 0.0})
        rep = char_jump_check(wd, M14)
        assert rep.rhs == pytest.approx(0.5, rel=1e-12)
        assert rep.passed

    def test_minus_family_sign(self):
        wd = WeakDiscontinuity(
            Surface(SurfaceKind.CHARACTERISTIC_MINUS, (1.0, 0.0)),
            {"u": -0.5, "a": 0.1, "s": 0.0, "p": 0.0})
        rep = char_jump_check(wd, M14)
        assert rep.rhs == pytest.approx(-0.5, rel=1e-12)
        assert rep.passed

    def test_centered_fan_head(self):
        for u_tail in (-0.2, -0.4, -0.8):
            rep = char_jump_check(fan_jumps(u_tail=u_tail), M14)
            assert rep.passed and rep.rel_error <= 0.02
            assert rep.lhs < 0.0  # fan side accelerates toward the piston

    def test_fan_measured_jump_magnitudes(self):
        # One-sided fan derivatives at the head: du/deta = -2 N/((g+1) t),
        # da/deta = -(g-1) N/((g+1) t) with N = sqrt(1 + a0^2).
        wd = fan_jumps(u_tail=-0.4)
        N = math.hypot(1.0, 1.0)
        expect_u = -2.0 * N / 2.4
        expect_a = -0.4 * N / 2.4
        assert wd.jumps["u"] == pytest.approx(expect_u, rel=0.02)
        assert wd.jumps["a"] == pytest.approx(expect_a, rel=0.02)
        assert abs(wd.jumps["s"]) <= 1e-10

    def test_wrong_surface_kind(self):
        wd = WeakDiscontinuity(UP, {"u": 0.0, "a": 0.0, "s": 0.0, "p": 0.0})
        with pytest.raises(WrongSurfaceKind):
            char_jump_check(wd, M14)


class TestConsistencyDeterminant:
    def test_frozen_value(self):
        # u = 0, a = 1: det(2) = 2 (4 - 1) = 6
        q = PrimitiveState(rho=1.0, u=(0.0,), p=1.0 / 1.4)
        st = derive_state(q, M14)
        assert st.a == pytest.approx(1.0, rel=1e-14)
        assert consistency_determinant(q, 2.0, M14) == pytest.approx(6.0, rel=1e-12)

    def test_vanishes_at_characteristic_slopes(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            rho = rng.uniform(0.5, 2.0)
            p = rng.uniform(0.5, 2.0)
            u = rng.uniform(0.0, 5.0)
            gamma = rng.choice([1.2, 1.4, 1.67])
            m = GasModel(gamma=gamma, R=1.0)
            q = PrimitiveState(rho=rho, u=(u,), p=p)
            st = derive_state(q, m)
            for lam in (u, u + st.a, u - st.a):
                assert abs(consistency_determinant(q, lam, m)) <= 1e-12

    def test_bounded_away_off_roots(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            rho = rng.uniform(0.5, 2.0)
            p = rng.uniform(0.5, 2.0)
            u = rng.uniform(0.0, 5.0)
            q = PrimitiveState(rho=rho, u=(u,), p=p)
            a = derive_state(q, M14).a
            for lam in (u + 0.5 * a, u - 0.5 * a, u + 1.5 * a, u - 1.5 * a):
                assert abs(consistency_determinant(q, lam, M14)) >= a ** 3 / 10.0

    def test_matches_factored_polynomial(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = rng.uniform(0.5, 2.0)
            p = rng.uniform(0.5, 2.0)
            u = rng.uniform(0.0, 3.0)
            lam = rng.uniform(-5.0, 8.0)
            q = PrimitiveState(rho=rho, u=(u,), p=p)
            st = derive_state(q, M14)
            got = consistency_determinant(q, lam, M14)
            expect = (lam - u) * ((lam - u) ** 2 - st.a ** 2)
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("u", [1e-9, 1e-6, -1e-6])
    def test_small_speeds_keep_the_root(self, u):
        # the speed is the state's own signed u, not sqrt(2 (h0 - h)),
        # which rounding spoils near zero
        q = PrimitiveState(rho=1.0, u=(u,), p=1.0)
        assert abs(consistency_determinant(q, u, M14)) <= 1e-12

    def test_needs_a_1d_state(self):
        with pytest.raises(ValueError, match="1-D state"):
            consistency_determinant(
                PrimitiveState(rho=1.0, u=(0.0, 1.0), p=1.0), 0.0, M14)
