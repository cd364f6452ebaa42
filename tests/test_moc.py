import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortigen import moc
from vortigen.errors import NonConvergence
from vortigen.exact import SimpleWave
from vortigen.moc import (
    CharNet,
    EnvelopeEvent,
    compat_residual,
    detect_envelope,
    nodes_from_primitive,
    riemann_invariants,
)
from vortigen.thermo import GasModel

from fv_oracle import godunov_solve
from nets import LEVEL_ARRAYS, collect_net, fold_residual

GAMMA = 1.4
M = GasModel(gamma=GAMMA, R=1.0)


def advance_net(*args, **kwargs):
    """moc.advance_net's whole net (``collect_net``), checking on every net
    that a rescan of all its level pairs finds nothing the pair-by-pair
    scan during advancement missed, and that the net matches the reference
    level step and scan."""
    net = collect_net(*args, **kwargs)
    rescan = None
    for k in range(net.n_levels - 1):
        rescan = moc._scan_level_pair(net, k, np.diff(net.x[0]), {})
        if rescan is not None:
            break
    # without a crossing the net may still end at a degenerate unit process
    assert (rescan or net.envelope) == net.envelope
    assert_net_matches_reference(net, kwargs.get("corrector_tol", 1e-12),
                                 kwargs.get("max_iter", 20))
    return net


def uniform_nodes(n=21, u=0.0, a=1.0, s=1.0, span=(0.0, 1.0)):
    return np.linspace(*span, n), np.full(n, u), np.full(n, a), np.full(n, s)


def net_linf_error_vs(net, state_fn):
    """Max nodewise |q - q_exact| over (u, a), relative to the state scale."""
    err = 0.0
    scale = 0.0
    for k in range(net.n_levels):
        for i in range(net.level_size(k)):
            u_ex, a_ex = state_fn(float(net.x[k][i]), float(net.t[k][i]))
            err = max(err, abs(net.u[k][i] - u_ex), abs(net.a[k][i] - a_ex))
            scale = max(scale, abs(u_ex), abs(a_ex))
    return err / scale


# (u, a, s) states of the pointwise relation tests below
POINTWISE_STATES = [(0.0, 1.0, 1.0), (1.0, 1e-14, 1.0), (0.8, 1.1, 1.0),
                    (-0.8, 1.1, 1.0), (0.3, 1.2, 0.9), (0.1, 1.0, 1.0),
                    (0.25, 1.06, 1.0)]


class TestPointwise:
    def test_riemann_invariants_frozen(self):
        # 2/(gamma-1) = 5 at gamma = 1.4
        jp, jm = riemann_invariants(0.0, 1.0, GAMMA)
        assert jp == pytest.approx(5.0, rel=1e-15)
        assert jm == pytest.approx(-5.0, rel=1e-15)

    def test_riemann_invariants_sound_speed_limit(self):
        jp, jm = riemann_invariants(1.0, 1e-14, GAMMA)
        assert jp == pytest.approx(1.0, abs=1e-12)
        assert jm == pytest.approx(1.0, abs=1e-12)

    def test_riemann_invariants_reflection(self):
        jp1, jm1 = riemann_invariants(0.8, 1.1, GAMMA)
        jp2, jm2 = riemann_invariants(-0.8, 1.1, GAMMA)
        assert jp2 == pytest.approx(-jm1, rel=1e-15)
        assert jm2 == pytest.approx(-jp1, rel=1e-15)

    @pytest.mark.parametrize("gamma", [1.2, GAMMA, 1.67])
    def test_array_calls_equal_float_calls(self, gamma):
        # random states plus those of the pointwise tests; each array
        # element must be bitwise the float call on that element's state
        m = GasModel(gamma=gamma, R=1.0)
        rng = np.random.default_rng(11)
        n = 200
        start = np.vstack([rng.uniform(-2, 2, n), rng.uniform(0.1, 3, n),
                           rng.uniform(0.1, 3, n)])
        end = start + rng.uniform(-0.2, 0.2, (3, n))
        pts = np.array(POINTWISE_STATES).T
        start = np.hstack([start, pts, pts])
        end = np.hstack([end, pts, np.roll(pts, 1, axis=1)])
        jp, jm = riemann_invariants(start[0], start[1], gamma)
        res = {fam: compat_residual(start, end, fam, m) for fam in ("C+", "C-")}
        for i in range(start.shape[1]):
            s0, s1 = tuple(map(float, start[:, i])), tuple(map(float, end[:, i]))
            assert riemann_invariants(s0[0], s0[1], gamma) == (jp[i], jm[i])
            for fam in ("C+", "C-"):
                r = compat_residual(s0, s1, fam, m)
                assert type(r) is float and r == res[fam][i]


class TestCompatibility:
    def test_identical_nodes_zero(self):
        n = (0.3, 1.2, 0.9)
        assert compat_residual(n, n, "C+", M) == 0.0
        assert compat_residual(n, n, "C-", M) == 0.0

    @pytest.mark.parametrize("family", ["C0", "C*", "c+"])
    def test_rejects_other_families(self, family):
        with pytest.raises(ValueError, match="unknown family"):
            compat_residual((0.3, 1.2, 0.9), (0.3, 1.2, 0.9), family, M)

    def test_isentropic_reduces_to_riemann_increment(self):
        (ua, aa, sa), (ub, ab, sb) = (0.1, 1.0, 1.0), (0.25, 1.06, 1.0)
        c = 2.0 / (GAMMA - 1.0)
        assert compat_residual((ua, aa, sa), (ub, ab, sb), "C+", M) == \
            pytest.approx(abs((ub - ua) + c * (ab - aa)), rel=1e-15)
        assert compat_residual((ua, aa, sa), (ub, ab, sb), "C-", M) == \
            pytest.approx(abs((ub - ua) - c * (ab - aa)), rel=1e-15)

    def test_manufactured_solution_order(self):
        # States integrated along an exact C+ compatibility path; the
        # midpoint-discretized residual must shrink at order >= 2 in the
        # sampling interval.
        from scipy.integrate import solve_ivp

        c = 2.0 / (GAMMA - 1.0)

        def a_of(t):
            return 1.0 + 0.1 * np.cos(t)

        def s_of(t):
            return 1.0 + 0.1 * np.sin(t)

        def rhs(t, y):
            g = a_of(t) / (GAMMA * (GAMMA - 1.0) * s_of(t))
            return [-c * (-0.1 * np.sin(t)) + g * (0.1 * np.cos(t))]

        sol = solve_ivp(rhs, (0.0, 1.0), [0.0], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        res = []
        for dt in (0.2, 0.1, 0.05, 0.025):
            worst = 0.0
            ts = np.arange(0.0, 1.0 + 1e-12, dt)
            for t0, t1 in zip(ts, ts[1:]):
                n0 = (float(sol.sol(t0)[0]), a_of(t0), s_of(t0))
                n1 = (float(sol.sol(t1)[0]), a_of(t1), s_of(t1))
                worst = max(worst, compat_residual(n0, n1, "C+", M))
            res.append(worst)
        orders = [np.log2(res[k] / res[k + 1]) for k in range(len(res) - 1)]
        assert min(orders) >= 1.9

    def test_equivalent_to_pressure_form(self):
        # The (u, a, s) bracket must agree with du +/- dp/(rho a) evaluated
        # with midpoint averages as the increments shrink, at order >= 2.
        rng = np.random.default_rng(7)
        for _ in range(20):
            u0, a0, s0 = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(0.5, 2)
            du, da, ds = rng.uniform(-1, 1, 3)
            diffs = []
            for eps in (1e-2, 1e-3, 1e-4, 1e-5):
                n0 = (u0, a0, s0)
                n1 = (u0 + eps * du, a0 + eps * da, s0 + eps * ds)
                r_uas = compat_residual(n0, n1, "C+", M)
                # pressure form via rho = (a^2/(gamma s))^(1/(gamma-1))
                def prim(n):
                    rho = (n[1] ** 2 / (GAMMA * n[2])) ** (1.0 / (GAMMA - 1.0))
                    return rho, n[2] * rho ** GAMMA
                r0, p0 = prim(n0)
                r1, p1 = prim(n1)
                rho_m, a_m = 0.5 * (r0 + r1), 0.5 * (n0[1] + n1[1])
                r_p = abs((n1[0] - n0[0]) + (p1 - p0) / (rho_m * a_m))
                diffs.append(abs(r_uas - r_p))
            if diffs[0] < 1e-14:
                continue  # degenerate draw, nothing to measure
            orders = [np.log10(diffs[k] / diffs[k + 1]) for k in range(3)
                      if diffs[k + 1] > 1e-14]
            assert diffs[-1] <= 1e-12
            assert not orders or min(orders) >= 1.9

    @pytest.mark.parametrize("gamma", [1.2, GAMMA, 1.67])
    def test_solver_nodes_satisfy_relation(self, gamma):
        # every node of a nonisentropic net against its C+ and C- parents:
        # the corrector and compat_residual must state one relation
        m = GasModel(gamma=gamma, R=1.0)
        x = np.linspace(0.0, 1.0, 201)
        rho = 1.0 + 0.05 * np.sin(2 * np.pi * x)
        s = 1.0 + 0.10 * np.sin(2 * np.pi * x + 0.7)
        net = advance_net(nodes_from_primitive(
            x, rho, 0.05 * np.cos(2 * np.pi * x), s * rho ** gamma, m),
            t_end=0.2, m=m)
        assert net.envelope is None and net.n_levels > 20
        for k in range(1, net.n_levels):
            node = (net.u[k], net.a[k], net.s[k])
            for fam, par in zip(("C+", "C-"), net.parents(k)):
                parent = (net.u[k - 1][par], net.a[k - 1][par], net.s[k - 1][par])
                assert compat_residual(parent, node, fam, m).max() <= 1e-12


class TestAdvanceNet:
    def test_uniform_state_straight(self):
        net = advance_net(uniform_nodes(21), t_end=0.4, m=M)
        for k in range(net.n_levels):
            assert np.all(net.a[k] > 0.0) and np.all(net.s[k] > 0.0)
            if k >= 1:  # each node later than both of its parents
                assert np.all(net.t[k] > np.maximum(net.t[k - 1][:-1],
                                                    net.t[k - 1][1:]))
            np.testing.assert_allclose(net.u[k], 0.0, atol=1e-14)
            np.testing.assert_allclose(net.a[k], 1.0, rtol=1e-14)
            np.testing.assert_allclose(net.s[k], 1.0, rtol=1e-14)
        # C+ chains are straight lines x = x0 + t
        for k in range(net.n_levels):
            np.testing.assert_allclose(
                net.x[k] - net.t[k], net.x[0][: net.level_size(k)], atol=1e-13)

    def test_galilean_consistency(self):
        w = SimpleWave(lambda x: 0.05 * np.sin(2 * np.pi * x), gamma=GAMMA)
        x0 = np.linspace(0.0, 1.0, 81)
        base = advance_net(w.initial_nodes(x0), t_end=0.2, m=M)
        c = 0.37
        x, u, a, s = w.initial_nodes(x0)
        shifted = advance_net((x, u + c, a, s), t_end=0.2, m=M)
        assert shifted.n_levels == base.n_levels
        for k in range(base.n_levels):
            np.testing.assert_allclose(shifted.t[k], base.t[k], atol=1e-10)
            np.testing.assert_allclose(
                shifted.x[k], base.x[k] + c * base.t[k], atol=1e-10)
            np.testing.assert_allclose(shifted.u[k], base.u[k] + c, atol=1e-10)
            np.testing.assert_allclose(shifted.a[k], base.a[k], atol=1e-10)
            np.testing.assert_allclose(shifted.s[k], base.s[k], atol=1e-10)

    def test_simple_wave_matches_exact(self):
        w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)), gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(0, 1, 201)),
                          t_end=0.35, m=M)
        assert net.envelope is None

        def exact(x, t):
            u, a, _ = w.state(x, t, (x - 1.4 * t - 0.3, x + 0.3))
            return u, a
        assert net_linf_error_vs(net, exact) <= 1e-4

    def test_simple_wave_minus_invariant_uniform(self):
        w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)), gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(0, 1, 201)),
                          t_end=0.35, m=M)
        jm_ref = riemann_invariants(net.u[0][0], net.a[0][0], GAMMA)[1]
        for k in range(net.n_levels):
            jm = net.u[k] - 5.0 * net.a[k]
            assert np.max(np.abs(jm - jm_ref)) <= 1e-6

    def test_nonisentropic_matches_fv_oracle(self):
        def profiles(x):
            rho = 1.0 + 0.05 * np.sin(2 * np.pi * x)
            s = 1.0 + 0.10 * np.sin(2 * np.pi * x + 0.7)
            return rho, 0.05 * np.cos(2 * np.pi * x), s * rho ** GAMMA

        x = np.linspace(0.0, 1.0, 101)
        net = advance_net(nodes_from_primitive(x, *profiles(x), M), t_end=0.2, m=M)
        assert net.envelope is None

        xf = np.linspace(-0.5, 1.5, 1601)  # 8x the characteristic spacing
        fv = godunov_solve(xf, *profiles(xf), GAMMA, t_end=0.25)
        err, scale = 0.0, 0.0
        for k in range(net.n_levels):
            smp = fv.sample(net.x[k], net.t[k])
            a_fv = np.sqrt(GAMMA * smp["p"] / smp["rho"])
            err = max(err, np.max(np.abs(smp["u"] - net.u[k])),
                      np.max(np.abs(a_fv - net.a[k])))
            scale = max(scale, np.max(np.abs(net.u[k])), np.max(net.a[k]))
        assert err / scale <= 1e-2

    def test_nonconvergence_raised(self):
        w = SimpleWave(lambda x: 0.2 * np.sin(2 * np.pi * x), gamma=GAMMA)
        with pytest.raises(NonConvergence):
            advance_net(w.initial_nodes(np.linspace(0, 1, 41)),
                        t_end=0.2, m=M, max_iter=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_corrector_change_raises(self):
        # nodes 1e-300 apart: the stencil weights are 0/0, and the NaN
        # change of the iterates must not pass as converged (the command
        # line refuses such spacings before the solver runs)
        n = 821
        i = np.arange(n)
        nodes = nodes_from_primitive(i * 1e-300, np.ones(n),
                                     0.01 * np.sin(i / 50), np.ones(n), M)
        with pytest.raises(NonConvergence, match="corrector did not reach "
                           "1e-12 in 20 iterations"):
            advance_net(nodes, t_end=1e-299, m=M)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            advance_net(uniform_nodes(2), t_end=0.1, m=M)
        x, u, a, s = uniform_nodes(5)
        x[2] = x[1]
        with pytest.raises(ValueError):
            advance_net((x, u, a, s), t_end=0.1, m=M)
        # a and s must be positive, and NaN is refused as well
        for q, bad in ((2, 0.0), (2, np.nan), (3, -1.0), (3, np.nan)):
            nodes = list(uniform_nodes(5))
            nodes[q] = nodes[q].copy()
            nodes[q][1] = bad
            with pytest.raises(ValueError, match="a > 0 and s > 0"):
                advance_net(nodes, t_end=0.1, m=M)
            with pytest.raises(ValueError, match="a > 0 and s > 0"):
                detect_envelope(nodes)

    @pytest.mark.parametrize("gamma", [1.2, 1.67])
    def test_simple_wave_other_gammas(self, gamma):
        m = GasModel(gamma=gamma, R=1.0)
        w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)),
                       gamma=gamma)
        net = advance_net(w.initial_nodes(np.linspace(0, 1, 101)),
                          t_end=0.25, m=m)
        assert net.envelope is None

        def exact(x, t):
            u, a, _ = w.state(x, t, (x - 1.5 * t - 0.3, x + 0.3))
            return u, a
        assert net_linf_error_vs(net, exact) <= 1e-4
        res = fold_residual(net)
        assert res["C0"] <= 1e-10
        assert res["C+"] <= 1e-10


class TestPseudostructure:
    def test_uniform_net_zero_all_families(self):
        net = advance_net(uniform_nodes(21), t_end=0.4, m=M)
        res = fold_residual(net)
        for fam in ("C0", "C+", "C-"):
            assert res[fam] <= 1e-14

    def test_isentropic_simple_wave(self):
        w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)), gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(0, 1, 201)),
                          t_end=0.35, m=M)
        res = fold_residual(net)
        assert res["C0"] <= 1e-10
        assert res["C+"] <= 1e-10
        assert res["C-"] <= 1e-10

    def test_nonisentropic_residual_order(self):
        res = []
        for n in (51, 101, 201):
            res.append(fold_residual(nonisentropic_net(n))["C0"])
        orders = [np.log2(res[k] / res[k + 1]) for k in range(2)]
        assert min(orders) >= 1.9


def nonisentropic_net(n):
    """The nonisentropic sine profile of criterion c07 on ``n`` nodes."""
    x = np.linspace(0.0, 1.0, n)
    rho = 1.0 + 0.05 * np.sin(2 * np.pi * x)
    s = 1.0 + 0.10 * np.sin(2 * np.pi * x + 0.7)
    return advance_net(nodes_from_primitive(
        x, rho, 0.05 * np.cos(2 * np.pi * x), s * rho ** GAMMA, M),
        t_end=0.2, m=M)


def tube_ratios(net, k, family):
    """Level k's tube-width ratios dx/dx0 of one family from
    ``moc._level_gaps``, their times, and the launch pair of the first."""
    g, t_bar = moc._level_gaps(net, k)
    lo = k if family == "C-" else 0  # node i: C+ chain i, C- chain i + k
    row = g[list(moc._SIGN).index(family)]
    return t_bar, row / np.diff(net.x[0])[lo:lo + len(row)], lo


def central_chain(net, family):
    """Launch midpoint of the chain nearest x = 0 and its tube-width ratio
    J = dx/dx0 with its time, level by level from ``moc._level_gaps``,
    while the chain's pair stays on the net."""
    x0 = net.x[0]
    mids = 0.5 * (x0[:-1] + x0[1:])
    j = int(np.argmin(np.abs(mids)))
    t, J = [], []
    for k in range(net.n_levels):
        t_bar, ratio, lo = tube_ratios(net, k, family)
        if not lo <= j < lo + len(ratio):
            break
        t.append(t_bar[j - lo])
        J.append(ratio[j - lo])
    return mids[j], np.array(t), np.array(J)


class TestJacobian:
    def test_uniform_state_identity(self):
        net = advance_net(uniform_nodes(15), t_end=0.3, m=M)
        for family in ("C+", "C-"):
            for k in range(net.n_levels):
                ratio = tube_ratios(net, k, family)[1]
                np.testing.assert_allclose(ratio, 1.0, atol=1e-12)
                if k == 0:
                    assert np.all(ratio == 1.0)

    def test_expansion_wave_growth(self):
        w = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(-1, 1, 201)),
                          t_end=0.6, m=M)
        x0, t, J = central_chain(net, "C+")
        lp = (w.lam(x0 + 1e-6) - w.lam(x0 - 1e-6)) / 2e-6
        np.testing.assert_allclose(J, 1.0 + lp * t, atol=2e-4)
        assert np.all(np.diff(J) > 0.0)

    def test_compression_wave_collapse(self):
        gamma = GAMMA
        w = SimpleWave(lambda x: -0.1 * np.sin(2 * np.pi * x) * 2 / (gamma + 1),
                       gamma=gamma)
        net = advance_net(w.initial_nodes(np.linspace(-0.55, 3.55, 821)),
                          t_end=3.0, m=M)
        x0, t, J = central_chain(net, "C+")
        assert np.all(np.diff(J) < 0.0)
        lp = (w.lam(x0 + 1e-6) - w.lam(x0 - 1e-6)) / 2e-6
        # J reaches ~0 by t = -1/lam'
        assert J[-1] <= 0.02
        assert t[-1] == pytest.approx(-1.0 / lp, rel=0.02)


class TestEnvelope:
    def compression_wave(self):
        return SimpleWave(
            lambda x: -0.1 * np.sin(2 * np.pi * x) * 2.0 / (GAMMA + 1.0),
            gamma=GAMMA)

    def test_uniform_no_event(self):
        net = advance_net(uniform_nodes(21), t_end=0.5, m=M)
        assert net.envelope is None
        assert detect_envelope(uniform_nodes(21)) is None

    def test_sine_compression_within_2_percent(self):
        w = self.compression_wave()
        net = advance_net(w.initial_nodes(np.linspace(-0.55, 3.55, 821)),
                          t_end=3.0, m=M)
        t_true = 1.0 / (0.2 * np.pi)
        assert net.envelope is not None
        assert net.envelope.family == "C+"
        assert net.envelope.t_star == pytest.approx(t_true, rel=0.02)

    def test_analytic_path_matches_formula(self):
        w = self.compression_wave()
        ev = detect_envelope(w.initial_nodes(np.linspace(-0.55, 3.55, 821)))
        assert ev.family == "C+"
        assert ev.t_star == pytest.approx(1.0 / (0.2 * np.pi), rel=1e-3)

    def test_left_moving_compression_detects_minus_family(self):
        # mirror image: J+ uniform, C- characteristics steepen; same t*
        amp = 0.1 * 2.0 / (GAMMA + 1.0)

        def u0(x):
            return amp * np.sin(2 * np.pi * x)

        def a0(x):
            return 1.0 - 0.5 * (GAMMA - 1.0) * u0(x)

        x = np.linspace(-3.55, 0.55, 821)
        s = 1.0
        a = a0(x)
        rho = (a * a / (GAMMA * s)) ** (1.0 / (GAMMA - 1.0))
        nodes = nodes_from_primitive(x, rho, u0(x), s * rho ** GAMMA, M)
        t_true = 1.0 / (0.2 * np.pi)
        ev = detect_envelope(nodes)
        assert ev.family == "C-"
        assert ev.t_star == pytest.approx(t_true, rel=1e-3)
        net = advance_net(nodes, t_end=3.0, m=M)
        assert net.envelope is not None
        assert net.envelope.family == "C-"
        assert net.envelope.t_star == pytest.approx(t_true, rel=0.02)

    def test_pure_expansion_none(self):
        w = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=GAMMA)
        nodes = w.initial_nodes(np.linspace(-1, 1, 201))
        assert detect_envelope(nodes) is None
        net = advance_net(nodes, t_end=0.6, m=M)
        assert net.envelope is None

    @pytest.mark.parametrize("V", [1e-12, 1e-8, 1e8])
    def test_analytic_estimate_in_any_speed_unit(self, V):
        # u and a scaled by V and s by V^2: the same flow in another speed
        # unit, whose crossing time scales by 1/V
        x, u, a, s = self.compression_wave().initial_nodes(
            np.linspace(-0.55, 3.55, 821))
        ref = detect_envelope((x, u, a, s))
        ev = detect_envelope((x, u * V, a * V, s * V * V))
        assert ev is not None and ev.family == ref.family
        assert ev.t_star * V == pytest.approx(ref.t_star, rel=1e-12)
        assert detect_envelope(uniform_nodes(21, u=0.3 * V, a=V,
                                             s=V * V)) is None

    def test_detection_first_order_in_spacing(self):
        # the detection error obeys a first-order bound err <= C dx (the
        # sequence itself is noisy: which pair fires first quantizes it)
        w = self.compression_wave()
        t_true = 1.0 / (0.2 * np.pi)
        for n in (206, 411, 821):
            net = advance_net(w.initial_nodes(np.linspace(-0.55, 3.55, n)),
                              t_end=3.0, m=M)
            dx = 4.1 / (n - 1)
            assert abs(net.envelope.t_star - t_true) <= 1.0 * dx


class TestConnectivity:
    def test_parent_indices(self):
        net = advance_net(uniform_nodes(7), t_end=0.5, m=M)
        cplus, cminus, c0 = net.parents(1)
        assert cplus[2] == 2
        assert cminus[2] == 3
        assert c0[2] in (2, 3)
        for parent in net.parents(0):
            np.testing.assert_array_equal(parent, np.full(7, -1))


def sine_nodes(n, amp):
    """u = -amp sin 2 pi x, a = s = 1 on n nodes of [0, 1]."""
    x = np.linspace(0.0, 1.0, n)
    return x, -amp * np.sin(2 * np.pi * x), np.ones(n), np.ones(n)


def two_mode_nodes(n):
    """The two-mode compression that ends at a degenerate unit process
    whose pair depends on the scan direction (201 nodes)."""
    x = np.linspace(0.0, 1.0, n)
    u = -0.6 * np.sin(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x + 0.3)
    return x, u, 1.0 + 0.05 * np.cos(2 * np.pi * x), np.ones(n)


def envelope_bits(net):
    e = net.envelope
    return e and (e.family, np.array([e.t_star, e.x_star]).tobytes())


def simple_wave_nodes(u0, span, n):
    return SimpleWave(u0, gamma=GAMMA).initial_nodes(np.linspace(*span, n))


class TestReleasedNet:
    # every net keeps the initial level and the last two; the rest of the
    # net reads as the collected net does, and on_level sees every level.
    # Each case: its initial nodes, t_end, and whether it ends at a
    # degenerate unit process
    CASES = {
        "c05_compression": (lambda: simple_wave_nodes(
            lambda x: -0.1 * np.sin(2 * np.pi * x) * 2.0 / (GAMMA + 1.0),
            (-0.55, 3.55), 821), 3.0, True),
        "c06_wave": (lambda: simple_wave_nodes(
            lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)), (0, 1), 201),
            0.35, False),
        "expansion": (lambda: simple_wave_nodes(
            lambda x: 0.1 * np.tanh(2 * x), (-1, 1), 201), 0.6, False),
        # the degenerate unit process reads the last level after the one
        # before it is released
        "degenerate_at_t0": (lambda: sine_nodes(41, 50.0), 1.0, True),
        "vacuum": (lambda: sine_nodes(201, 20.0), 1.0, True),
        "two_mode": (lambda: two_mode_nodes(201), 2.0, True),
    }

    @pytest.mark.parametrize("fold_first", [True, False])
    @pytest.mark.parametrize("case", CASES)
    def test_on_level_sees_each_level_as_it_is_made(self, case, fold_first,
                                                    monkeypatch):
        # once per level, in order: the initial level first, each new level
        # once the scan of its level pair is done, and before the level
        # before it is released; with fold_first a ResidualFold reads each
        # level before the check, as the 1-D stage chains its hooks, and
        # leaves the level as it was made
        nodes, t_end, _ = self.CASES[case]
        fold = moc.ResidualFold()
        kept = advance_net(nodes(), t_end=t_end, m=M)
        scans, scan = [], moc._scan_level_pair
        monkeypatch.setattr(moc, "_scan_level_pair", lambda net, k, *carry:
                            scans.append(k) or scan(net, k, *carry))
        seen = []

        def on_level(net, k):
            if fold_first:
                fold(net, k)
            assert net.n_levels == k + 1 and len(scans) == k
            assert all(getattr(net, q)[j] is not None for q in LEVEL_ARRAYS
                       for j in (0, max(k - 1, 0), k))
            seen.append([getattr(net, q)[k].tobytes() for q in LEVEL_ARRAYS])
        net = moc.advance_net(nodes(), t_end=t_end, m=M, on_level=on_level)
        assert len(seen) == net.n_levels == kept.n_levels
        assert seen == [[getattr(kept, q)[k].tobytes() for q in LEVEL_ARRAYS]
                        for k in range(kept.n_levels)]
        if fold_first:
            assert np.array(list(fold.result().values())).tobytes() == \
                np.array(list(fold_residual(kept).values())).tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_same_net_as_kept(self, case, monkeypatch):
        nodes, t_end, degenerate = self.CASES[case]
        kept = advance_net(nodes(), t_end=t_end, m=M)
        steps, step = [], moc._advance_level
        monkeypatch.setattr(moc, "_advance_level", lambda *a: steps.append(
            step(*a)) or steps[-1])
        released = moc.advance_net(nodes(), t_end=t_end, m=M)
        assert (steps[-1][0] is None) == degenerate
        n = kept.n_levels
        assert released.n_levels == n
        assert [released.level_size(k) for k in range(n)] == \
            [kept.level_size(k) for k in range(n)] == [len(x) for x in kept.x]
        assert envelope_bits(released) == envelope_bits(kept)
        alive = sorted({0, max(n - 2, 0), n - 1})
        for q in ("x", "t", "u", "a", "s", "labels", "c0_parent"):
            levels = getattr(released, q)
            assert [k for k in range(n) if levels[k] is not None] == alive
            for k in alive:
                assert levels[k].tobytes() == getattr(kept, q)[k].tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_fold_as_levels_are_made_matches_the_whole_net(self, case,
                                                           monkeypatch):
        # the fold fed by on_level reads the residuals of the collected net
        # bit for bit, in blocks of one level as in blocks of many
        nodes, t_end, _ = self.CASES[case]
        kept = advance_net(nodes(), t_end=t_end, m=M)
        for block in (1, moc._BLOCK_NODES):
            monkeypatch.setattr(moc, "_BLOCK_NODES", block)
            fold = moc.ResidualFold()
            moc.advance_net(nodes(), t_end=t_end, m=M, on_level=fold)
            assert np.array(list(fold.result().values())).tobytes() == \
                np.array(list(fold_residual(kept).values())).tobytes()

    def test_advance_and_fold_memory_grows_with_the_node_count(self):
        # a 601-node expansion runs to its last level, 180,901 nodes: kept
        # whole and swept, the net peaked near 12.5 MiB; released, with the
        # fold, near 1.9 MiB
        import tracemalloc
        nodes = simple_wave_nodes(lambda x: 0.1 * np.tanh((x - 2.0) / 0.5),
                                  (0.0, 4.0), 601)
        tracemalloc.start()
        try:
            fold = moc.ResidualFold()
            net = moc.advance_net(nodes, t_end=100.0, m=M, on_level=fold)
            fold.result()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n_levels == 601 and net.envelope is None
        assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# array kernels against the per-node loops they replaced


def corrected_gaps_reference(x, t, u, a, sign):
    """Reference: one family's adjacent-chain gaps corrected onto a common
    time with the family slopes, and those times."""
    lam = u + sign * a
    t_bar = 0.5 * (t[:-1] + t[1:])
    left = x[:-1] + lam[:-1] * (t_bar - t[:-1])
    right = x[1:] + lam[1:] * (t_bar - t[1:])
    return right - left, t_bar


def scan_level_pair_loop(net, k, families=(("C+", 1.0), ("C-", -1.0))):
    """Reference: the per-pair loop of the level-pair crossing scan."""
    x0 = net.x[0]
    best = None
    best_gnorm = np.inf
    for family, sign in families:
        g_prev, tb_prev = corrected_gaps_reference(
            net.x[k], net.t[k], net.u[k], net.a[k], sign)
        g_new, tb_new = corrected_gaps_reference(
            net.x[k + 1], net.t[k + 1], net.u[k + 1], net.a[k + 1], sign)
        if family == "C+":
            pairs = zip(range(len(g_new)), range(len(g_new)))
        else:
            pairs = zip(range(1, len(g_prev)), range(len(g_new)))
        for ip, inew in pairs:
            if g_prev[ip] > 0.0 >= g_new[inew]:
                chain = ip if family == "C+" else ip + k
                dx0 = x0[chain + 1] - x0[chain]
                gnorm = g_prev[ip] / dx0
                th = g_prev[ip] / (g_prev[ip] - g_new[inew])
                t_star = (1 - th) * tb_prev[ip] + th * tb_new[inew]
                x_prev = 0.5 * (net.x[k][ip] + net.x[k][ip + 1])
                x_new = 0.5 * (net.x[k + 1][inew] + net.x[k + 1][inew + 1])
                x_star = (1 - th) * x_prev + th * x_new
                if t_star > 0.0 and gnorm < best_gnorm:
                    best = EnvelopeEvent(float(t_star), float(x_star), family)
                    best_gnorm = gnorm
    return best


def random_net(rng, n0, levels, tie_level0):
    """Random net with the advance_net level sizes n0, n0-1, ...: sorted
    launch positions, jittered later levels (so gaps of either family turn
    negative) and, with ``tie_level0``, a level 0 at t = 0 at rest, where
    both families' launch-normalized gaps are exactly 1 (ties)."""
    x0 = np.sort(rng.uniform(0.0, 1.0, n0))
    x0 += np.arange(n0) * 1e-3  # distinct
    net = CharNet(gamma=1.4)
    for k in range(levels):
        n = n0 - k
        if k == 0:
            x = x0
            t = np.zeros(n) if tie_level0 else rng.uniform(0.0, 0.2, n)
            u = np.zeros(n) if tie_level0 else rng.uniform(-0.5, 0.5, n)
        else:
            x = 0.5 * (net.x[-1][:-1] + net.x[-1][1:]) \
                + rng.normal(0.0, 0.03, n)
            t = net.t[-1].max() + rng.uniform(0.01, 0.3, n)
            u = rng.uniform(-0.5, 0.5, n)
        net.x.append(x)
        net.t.append(t)
        net.u.append(u)
        net.a.append(rng.uniform(0.5, 1.5, n))
        net.s.append(np.ones(n))
        net.labels.append(x.copy())
        net.c0_parent.append(np.full(n, -1, dtype=int))
    return net


@pytest.fixture(scope="module")
def real_nets():
    """Compressions ending by a level-pair crossing (101, 301 nodes) and by
    a degenerate unit process (206), both families; an expansion and a
    uniform state without an envelope."""
    def left_moving(n):
        x = np.linspace(-3.55, 0.55, n)
        a = 1.0 - 0.5 * (GAMMA - 1.0) * amp * np.sin(2 * np.pi * x)
        rho = (a * a / GAMMA) ** (1.0 / (GAMMA - 1.0))
        return nodes_from_primitive(x, rho, amp * np.sin(2 * np.pi * x),
                                    rho ** GAMMA, M)

    comp = SimpleWave(
        lambda x: -0.1 * np.sin(2 * np.pi * x) * 2.0 / (GAMMA + 1.0),
        gamma=GAMMA)
    expa = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=GAMMA)
    amp = 0.1 * 2.0 / (GAMMA + 1.0)
    return [
        *(advance_net(comp.initial_nodes(np.linspace(-0.55, 3.55, n)),
                      t_end=3.0, m=M) for n in (101, 301, 206)),
        *(advance_net(left_moving(n), t_end=3.0, m=M) for n in (101, 206)),
        advance_net(expa.initial_nodes(np.linspace(-1, 1, 101)),
                    t_end=0.6, m=M),
        advance_net(uniform_nodes(21), t_end=0.4, m=M),
    ]


def pseudostructure_residual_reference(net, family):
    """Reference: the per-family residual, one sweep per family."""
    g = net.gamma
    if family == "C0":
        xs0 = net.x[0]
        s0 = net.s[0]
        worst = [0.0]
        for k in range(1, net.n_levels):
            lab = net.labels[k]
            pos = np.clip(lab, xs0[0], xs0[-1])
            i = np.clip(np.searchsorted(xs0, pos) - 1, 0, len(xs0) - 2)
            stencil = moc._stencil(xs0, pos, i)
            s0_lab = moc._dot(moc._weights(stencil, pos),
                              [s0[j] for j in stencil[0]])
            worst.append(np.max(np.abs(net.s[k] - s0_lab)))
        return float(np.max(worst))
    j = 0 if family == "C+" else 1
    worst = [0.0]
    for k in range(1, net.n_levels):
        J_par = riemann_invariants(net.u[k - 1], net.a[k - 1], g)[j]
        J = riemann_invariants(net.u[k], net.a[k], g)[j]
        worst.append(np.max(np.abs(J - J_par[net.parents(k)[j]])))
    return float(np.max(worst))  # NaN if any level's drift is NaN


def assert_residual_matches_reference(net):
    got = fold_residual(net)
    want = {fam: pseudostructure_residual_reference(net, fam)
            for fam in ("C0", "C+", "C-")}
    assert list(got) == list(want)
    assert np.array_equal(list(got.values()), list(want.values()),
                          equal_nan=True), (got, want)
    return got


class TestArrayKernels:
    def test_residual_matches_reference_on_real_nets(self, real_nets):
        for net in real_nets:
            assert_residual_matches_reference(net)

    @pytest.mark.parametrize("n", [51, 101, 201])
    def test_residual_matches_reference_nonisentropic(self, n):
        assert_residual_matches_reference(nonisentropic_net(n))

    def test_residual_matches_reference_on_random_nets(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            assert_residual_matches_reference(
                random_net(rng, int(rng.integers(4, 40)), 4, trial % 2 == 0))

    @pytest.mark.parametrize("block", [1, 50, 700, 10**9])
    def test_residual_matches_reference_in_any_block(self, real_nets, block,
                                                     monkeypatch):
        # blocks of one level (levels larger than the block too), of a few
        # levels, and of many; a NaN node makes its families' defects NaN
        monkeypatch.setattr(moc, "_BLOCK_NODES", block)
        for net in real_nets:
            assert_residual_matches_reference(net)
        net = real_nets[1]
        nan_net = CharNet(net.gamma, **{q: [arr.copy() for arr in getattr(net, q)]
                                        for q in LEVEL_ARRAYS})
        for k in range(1, net.n_levels, 2):
            nan_net.s[k][k % len(nan_net.s[k])] = np.nan
        nan_net.u[9][3] = nan_net.a[30][0] = np.nan
        assert np.isnan(list(assert_residual_matches_reference(
            nan_net).values())).all()

    def test_nan_drift_gives_a_nan_residual(self, tmp_path):
        # one NaN u node on the last of three levels makes its C+ and C-
        # drifts NaN: the residuals are NaN, which residuals.json refuses,
        # not the largest finite drift of the other levels; C0 reads no u
        from vortigen import cli
        from vortigen.errors import NonFiniteResult
        n0 = 6
        x = [np.linspace(0.0, 1.0, n0 - k) for k in range(3)]
        ramp = [0.1 * (k + 1) * np.arange(n0 - k) for k in range(3)]
        net = CharNet(gamma=GAMMA, x=x,
                      t=[np.full(n0 - k, 0.1 * k) for k in range(3)],
                      u=ramp, a=[np.ones(n0 - k) for k in range(3)],
                      s=[np.ones(n0 - k) for k in range(3)],
                      labels=[q.copy() for q in x],
                      c0_parent=[np.full(n0, -1)] + [np.arange(n0 - k)
                                                      for k in (1, 2)])
        finite = fold_residual(net)
        assert all(np.isfinite(v) and v > 0.0 for v in
                   (finite["C+"], finite["C-"]))
        net.u[2][1] = np.nan
        res = fold_residual(net)
        assert np.isnan(res["C+"]) and np.isnan(res["C-"])
        assert res["C0"] == finite["C0"]
        with pytest.raises(NonFiniteResult):
            cli._write_json(tmp_path / "residuals.json", res)

    def test_residual_memory_follows_the_block(self, real_nets, monkeypatch):
        # the 301-node net holds about 43,000 nodes; a sweep of 2,048-node
        # blocks peaks near 0.6 MiB, one block of them all near 6.9 MiB
        import tracemalloc
        net = real_nets[1]
        assert sum(map(len, net.x)) > 40_000
        monkeypatch.setattr(moc, "_BLOCK_NODES", 2048)
        tracemalloc.start()
        try:
            fold_residual(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_scan_matches_loop_on_random_nets(self):
        rng = np.random.default_rng(2024)
        seen = {"C+": 0, "C-": 0}
        ties = 0
        for trial in range(400):
            tie_level0 = trial % 2 == 0
            net = random_net(rng, int(rng.integers(3, 40)), 3, tie_level0)
            for k in range(2):
                ref = scan_level_pair_loop(net, k)
                assert moc._scan_level_pair(net, k, np.diff(net.x[0]),
                                            {}) == ref
                if ref is None:
                    continue
                seen[ref.family] += 1
                # on a level 0 at rest both families' normalized gaps are
                # exactly 1, so a crossing in each family is a tie
                if tie_level0 and k == 0 and scan_level_pair_loop(
                        net, k, (("C-", -1.0),)) is not None \
                        and scan_level_pair_loop(net, k, (("C+", 1.0),)):
                    assert ref.family == "C+"
                    ties += 1
        assert seen["C+"] > 20 and seen["C-"] > 20
        assert ties > 20

    def test_scan_matches_loop_on_real_nets(self, real_nets):
        events = []
        for net in real_nets:
            for k in range(net.n_levels - 1):
                ref = scan_level_pair_loop(net, k)
                assert moc._scan_level_pair(net, k, np.diff(net.x[0]),
                                            {}) == ref
                if ref is not None:
                    events.append(ref.family)
        assert events == ["C+", "C+", "C-"]

    def test_degenerate_end_family_matches_loop(self, real_nets):
        # the 206-node compressions end at a degenerate unit process; redo
        # its last step and pick the family with the old per-family loop
        for net, family in ((real_nets[2], "C+"), (real_nets[4], "C-")):
            k = net.n_levels - 1
            result, bad = moc._advance_level(
                net.x[k], net.t[k], net.u[k], net.a[k], net.s[k],
                net.labels[k], net.gamma, 1e-12, 20)
            assert result is None
            x0 = net.x[0]
            gnorm = {}
            for fam, sign in (("C+", 1.0), ("C-", -1.0)):
                g, _ = corrected_gaps_reference(net.x[k], net.t[k], net.u[k],
                                                net.a[k], sign)
                chain = bad if fam == "C+" else bad + k
                chain = min(max(chain, 0), len(x0) - 2)
                gnorm[fam] = g[bad] / (x0[chain + 1] - x0[chain])
            assert min(gnorm, key=gnorm.get) == family
            assert net.envelope == EnvelopeEvent(
                max(float(net.t[k][bad]), 1e-300),
                float(0.5 * (net.x[k][bad] + net.x[k][bad + 1])), family)

    def test_recorded_event_is_the_first_crossing(self, real_nets):
        # the net stops at the first level pair where the reference loop
        # finds a crossing, and records that event
        net = real_nets[0]
        events = [scan_level_pair_loop(net, k)
                  for k in range(net.n_levels - 1)]
        assert net.envelope is not None
        assert events[-1] == net.envelope and not any(events[:-1])


# ---------------------------------------------------------------------------
# the level step and the level-pair scan against their reference copies


def stencil_base_reference(xs, xf, i):
    n = len(xs)
    if n < 3:
        return None
    go_left = (xf - xs[i]) < (xs[i + 1] - xf)
    return np.clip(np.where(go_left, i - 1, i), 0, n - 3)


def interp_on_level_reference(xs, xf, base, values):
    if base is not None:
        x0, x1, x2 = xs[base], xs[base + 1], xs[base + 2]
        w0 = (xf - x1) * (xf - x2) / ((x0 - x1) * (x0 - x2))
        w1 = (xf - x0) * (xf - x2) / ((x1 - x0) * (x1 - x2))
        w2 = (xf - x0) * (xf - x1) / ((x2 - x0) * (x2 - x1))
        return [w0 * v[base] + w1 * v[base + 1] + w2 * v[base + 2] for v in values]
    th = (xf - xs[0]) / (xs[1] - xs[0])
    return [(1.0 - th) * v[0] + th * v[1] for v in values]


def advance_level_reference(x, t, u, a, s, lab, gamma, tol, max_iter):
    """Reference: the level step that recomputes every quantity on every
    corrector iteration (a NaN change component counts as 0 here)."""
    xL, xR = x[:-1], x[1:]
    tL, tR = t[:-1], t[1:]
    uL, uR = u[:-1], u[1:]
    aL, aR = a[:-1], a[1:]
    sL, sR = s[:-1], s[1:]

    c = 2.0 / (gamma - 1.0)
    uP = 0.5 * (uL + uR)
    aP = 0.5 * (aL + aR)
    sP = 0.5 * (sL + sR)
    xP = 0.5 * (xL + xR)
    tP = np.maximum(tL, tR) + (xR - xL) / (2.0 * np.maximum(aL, aR))
    labP = np.empty_like(xP)

    for it in range(max_iter):
        lam_p = 0.5 * ((uL + aL) + (uP + aP))
        lam_m = 0.5 * ((uR - aR) + (uP - aP))
        denom = lam_p - lam_m
        if np.any(denom <= 0.0):
            return None, int(np.argmax(denom <= 0.0))
        tP_new = (xR - xL + lam_p * tL - lam_m * tR) / denom
        xP_new = xL + lam_p * (tP_new - tL)
        if np.any(tP_new <= np.maximum(tL, tR)):
            return None, int(np.argmax(tP_new <= np.maximum(tL, tR)))

        dx = xR - xL
        dt = tR - tL
        du = uR - uL
        A = xP_new - xL
        B = tP_new - tL
        U0 = uP + uL
        c2 = 0.5 * du * dt
        c1 = -dx + 0.5 * (U0 * dt - du * B)
        c0 = A - 0.5 * U0 * B
        scale = np.abs(c1) + np.abs(c2) + 1e-300
        lin = np.abs(c2) <= 1e-14 * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            theta_lin = -c0 / c1
            disc = np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0)
            q = -0.5 * (c1 + np.where(c1 >= 0.0, 1.0, -1.0) * np.sqrt(disc))
            r_small = np.where(np.abs(q) > 0.0, c0 / np.where(q == 0.0, 1.0, q), 0.0)
            r_big = q / np.where(c2 == 0.0, 1.0, c2)
        pick_small = np.abs(r_small - 0.5) <= np.abs(r_big - 0.5)
        theta_quad = np.where(pick_small, r_small, r_big)
        theta = np.where(lin, theta_lin, theta_quad)
        theta = np.clip(theta, -0.5, 1.5)
        xf = xL + theta * dx
        if it == 0:
            base = stencil_base_reference(x, xf, np.arange(len(xL)))
        sP_new, labP = interp_on_level_reference(x, xf, base, [s, lab])
        sP_new = np.maximum(sP_new, 1e-300)

        g_mid_L = 0.5 * (aL + aP) / (gamma * (gamma - 1.0) * 0.5 * (sL + sP_new))
        g_mid_R = 0.5 * (aR + aP) / (gamma * (gamma - 1.0) * 0.5 * (sR + sP_new))
        rhs1 = uL + c * aL + g_mid_L * (sP_new - sL)
        rhs2 = uR - c * aR - g_mid_R * (sP_new - sR)
        uP_new = 0.5 * (rhs1 + rhs2)
        aP_new = (rhs1 - rhs2) / (2.0 * c)
        if np.any(aP_new <= 0.0):
            return None, int(np.argmax(aP_new <= 0.0))

        change = 0.0
        for old, new in ((xP, xP_new), (tP, tP_new), (uP, uP_new),
                         (aP, aP_new), (sP, sP_new)):
            sc = np.maximum(np.abs(new), 1.0)
            change = max(change, float(np.max(np.abs(new - old) / sc)))
        xP, tP, uP, aP, sP = xP_new, tP_new, uP_new, aP_new, sP_new
        if change < tol:
            break
    else:
        raise NonConvergence(
            f"corrector did not reach {tol:g} in {max_iter} iterations")

    idx = np.arange(len(xL))
    c0p = np.where(theta < 0.5, idx, idx + 1)
    return (xP, tP, uP, aP, sP, labP, c0p), -1


def level_gaps_reference(net, k, family):
    chain = np.arange(net.level_size(k) - 1) + (k if family == "C-" else 0)
    g, t_bar = corrected_gaps_reference(net.x[k], net.t[k], net.u[k],
                                        net.a[k], moc._SIGN[family])
    x0 = net.x[0]
    return g, t_bar, g / (x0[chain + 1] - x0[chain]), chain


def scan_level_pair_reference(net, k):
    """Reference: the scan that computes both levels' gaps on every call."""
    best = None
    best_gnorm = np.inf
    for family in moc._SIGN:
        g_prev, tb_prev, gnorm, c_prev = level_gaps_reference(net, k, family)
        g_new, tb_new, _, c_new = level_gaps_reference(net, k + 1, family)
        if len(g_new) == 0:
            continue
        off = c_new[0] - c_prev[0]
        m = min(len(g_new), len(g_prev) - off)
        inew = np.flatnonzero((g_prev[off:off + m] > 0.0) & (g_new[:m] <= 0.0))
        ip = inew + off
        th = g_prev[ip] / (g_prev[ip] - g_new[inew])
        t_star = (1 - th) * tb_prev[ip] + th * tb_new[inew]
        live = np.flatnonzero((t_star > 0.0) & (gnorm[ip] < best_gnorm))
        if len(live) == 0:
            continue
        j = live[np.argmin(gnorm[ip[live]])]
        i, n = ip[j], inew[j]
        x_prev = 0.5 * (net.x[k][i] + net.x[k][i + 1])
        x_new = 0.5 * (net.x[k + 1][n] + net.x[k + 1][n + 1])
        x_star = (1 - th[j]) * x_prev + th[j] * x_new
        best = EnvelopeEvent(float(t_star[j]), float(x_star), family)
        best_gnorm = gnorm[i]
    return best


def assert_bitwise(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def step_outcome(step, level, gamma, tol, max_iter):
    """What the level step ``step`` does on ``level`` (its arrays x, t, u,
    a, s, labels): the new level and -1, None and the first bad pair, or
    the NonConvergence message and None."""
    try:
        return step(*level, gamma, tol, max_iter)
    except NonConvergence as exc:
        return str(exc), None


def assert_same_outcome(level, gamma, tol=1e-12, max_iter=20):
    """The level step and its reference copy return bitwise-equal levels,
    the same degenerate pair or the same NonConvergence; returns that."""
    got, bad = step_outcome(moc._advance_level, level, gamma, tol, max_iter)
    ref, ref_bad = step_outcome(advance_level_reference, level, gamma, tol,
                                max_iter)
    assert bad == ref_bad and type(got) is type(ref)
    if isinstance(ref, tuple):
        for g, r in zip(got, ref, strict=True):
            assert_bitwise(g, r)
    else:
        assert got == ref
    return ref, ref_bad


def assert_net_matches_reference(net, tol, max_iter):
    """Each level is bitwise what the reference step makes of the level
    before, and the step after the last level does what the reference
    does (a net ending at a degenerate unit process ends at the same
    pair).  Each level pair scans to the reference's event, also with the
    level gaps carried from scan to scan."""
    dx0, gaps = np.diff(net.x[0]), {}
    for k in range(net.n_levels):
        if net.level_size(k) < 2:
            break
        level = [getattr(net, q)[k] for q in LEVEL_ARRAYS[:6]]
        ref, _ = assert_same_outcome(level, net.gamma, tol, max_iter)
        if k == net.n_levels - 1:
            break
        for q, arr in zip(LEVEL_ARRAYS, ref, strict=True):
            assert_bitwise(getattr(net, q)[k + 1], arr)
        assert moc._scan_level_pair(net, k, dx0, gaps) \
            == scan_level_pair_reference(net, k)


def random_level(rng, n):
    """A level of ``n`` nodes at uneven times with random states; some
    levels have crossing characteristics (a degenerate unit process)."""
    x = np.sort(rng.uniform(0.0, 1.0, n)) + np.arange(n) * 1e-3
    return (x, rng.uniform(0.0, 0.05, n), rng.uniform(-0.5, 0.5, n),
            rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n), x.copy())


class TestReferenceCopies:
    def test_level_step_matches_reference_on_random_levels(self):
        rng = np.random.default_rng(11)
        outcomes = {tuple: 0, type(None): 0, str: 0}
        for trial in range(300):
            ref, _ = assert_same_outcome(
                random_level(rng, int(rng.integers(2, 40))),
                float(rng.uniform(1.1, 1.8)),
                max_iter=int(rng.integers(1, 6)) if trial % 4 == 0 else 20)
            outcomes[type(ref)] += 1
        # new levels, degenerate unit processes and NonConvergence
        assert min(outcomes.values()) > 10

    def test_carried_scan_matches_reference_on_random_nets(self):
        rng = np.random.default_rng(5)
        events = 0
        for trial in range(200):
            net = random_net(rng, int(rng.integers(7, 30)), 6, trial % 2 == 0)
            dx0, gaps = np.diff(net.x[0]), {}
            for k in range(net.n_levels - 1):
                ref = scan_level_pair_reference(net, k)
                assert moc._scan_level_pair(net, k, dx0, gaps) == ref
                assert moc._scan_level_pair(net, k, dx0, {}) == ref
                events += ref is not None
        assert events > 100

    def test_nan_change_is_not_converged(self):
        # nodes 1e-300 apart: the stencil weights are 0/0, so s is NaN; the
        # reference drops the NaN change and makes a level of NaN nodes
        n = 41
        i = np.arange(n)
        level = (i * 1e-300, np.zeros(n), 0.01 * np.sin(i / 50.0),
                 np.ones(n), np.ones(n), i * 1e-300)
        with np.errstate(all="ignore"):
            ref, _ = advance_level_reference(*level, GAMMA, 1e-12, 20)
            assert np.isnan(ref[4]).all()
            with pytest.raises(NonConvergence):
                moc._advance_level(*level, GAMMA, 1e-12, 20)

    @pytest.mark.parametrize("n", [101, 206])  # crossing / degenerate end
    def test_level_gaps_computed_once_per_level(self, monkeypatch, n):
        calls = []
        gaps = moc._level_gaps
        monkeypatch.setattr(moc, "_level_gaps", lambda *a: calls.append(a[1])
                            or gaps(*a))
        w = SimpleWave(
            lambda x: -0.1 * np.sin(2 * np.pi * x) * 2.0 / (GAMMA + 1.0),
            gamma=GAMMA)
        net = moc.advance_net(w.initial_nodes(np.linspace(-0.55, 3.55, n)),
                              t_end=3.0, m=M)
        assert net.envelope is not None
        assert len(calls) <= net.n_levels + 1
        # each level's gaps once, both families' together
        assert sorted(calls) == list(range(net.n_levels))


# ---------------------------------------------------------------------------
# the level step, the scan and the whole advance against their references,
# on drawn data


def event_bits(e):
    """An envelope event by family and float bits (NaN compares equal)."""
    return e and (e.family, np.array([e.t_star, e.x_star]).tobytes())


@st.composite
def drawn_levels(draw, min_nodes=2, max_nodes=12):
    """A level of 2 to 12 nodes, sorted and distinct in x, with random
    states, at t = 0 (as level 0 is: every unit process solves its C0 foot
    linearly, c2 == 0) or at uneven times."""
    n = draw(st.integers(min_nodes, max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.cumsum(rng.uniform(1e-3, 0.2, n))
    t = np.zeros(n) if draw(st.booleans()) else rng.uniform(0.0, 0.05, n)
    spread = draw(st.sampled_from([0.05, 0.5, 3.0]))  # 3.0: crossings
    return (x, t, rng.uniform(-spread, spread, n), rng.uniform(0.5, 1.5, n),
            rng.uniform(0.5, 1.5, n), x.copy())


def advance_net_reference(initial, t_end, gamma, tol=1e-12, max_iter=20):
    """Reference: the net advanced with the reference level step and scan,
    every level kept; the degenerate family from the reference gaps."""
    x0, u0, a0, s0 = (np.array(q, float) for q in initial)
    net = CharNet(gamma=gamma, x=[x0], t=[np.zeros_like(x0)], u=[u0],
                  a=[a0], s=[s0], labels=[x0.copy()],
                  c0_parent=[np.full(len(x0), -1, dtype=int)])
    while len(net.x[-1]) >= 2:
        k = net.n_levels - 1
        level = [getattr(net, q)[k] for q in LEVEL_ARRAYS[:6]]
        result, bad = advance_level_reference(*level, gamma, tol, max_iter)
        if result is None:
            gnorm = {fam: level_gaps_reference(net, k, fam)[2][bad]
                     for fam in moc._SIGN}
            net.envelope = EnvelopeEvent(
                max(float(net.t[k][bad]), 1e-300),
                float(0.5 * (net.x[k][bad] + net.x[k][bad + 1])),
                min(gnorm, key=gnorm.get))
            break
        for q, arr in zip(LEVEL_ARRAYS, result, strict=True):
            getattr(net, q).append(arr)
        net.envelope = scan_level_pair_reference(net, k)
        if net.envelope is not None or net.t[-1].min() >= t_end:
            break
    return net


class TestDrawnReferences:
    @settings(max_examples=300, deadline=None, database=None)
    @given(level=drawn_levels(), gamma=st.floats(1.1, 1.8),
           max_iter=st.sampled_from([1, 3, 20, 20, 20]))
    def test_level_step_matches_reference(self, level, gamma, max_iter):
        # 2-node levels take the linear stencil; a 1-3 iteration cap makes
        # NonConvergence, crossings make degenerate unit processes
        with np.errstate(all="ignore"):
            assert_same_outcome(level, gamma, max_iter=max_iter)

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n0=st.integers(2, 12),
           tie_level0=st.booleans(), data=st.data())
    def test_scan_matches_reference(self, seed, n0, tie_level0, data):
        # a 2-node level 0 makes a 1-node level 1, with no gaps; two equal
        # nodes make a gap of exactly 0.0 in both families, a NaN node a
        # NaN gap in each family on either side of it
        net = random_net(np.random.default_rng(seed), n0, min(n0, 4),
                         tie_level0)
        for _ in range(data.draw(st.integers(0, 3))):
            k = data.draw(st.integers(0, net.n_levels - 1))
            n = net.level_size(k)
            if n < 2:
                continue
            i = data.draw(st.integers(0, n - 2))
            if data.draw(st.booleans()):
                for q in ("x", "t", "u", "a"):
                    getattr(net, q)[k][i + 1] = getattr(net, q)[k][i]
            else:
                getattr(net, data.draw(st.sampled_from("xtua")))[k][i] = np.nan
        dx0, gaps = np.diff(net.x[0]), {}
        with np.errstate(all="ignore"):
            for k in range(net.n_levels - 1):
                ref = event_bits(scan_level_pair_reference(net, k))
                assert event_bits(moc._scan_level_pair(net, k, dx0, gaps)) == ref
                assert event_bits(moc._scan_level_pair(net, k, dx0, {})) == ref

    def test_scan_sees_exact_zero_and_nan_gaps(self):
        # a gap of exactly 0.0 on the new level is a crossing; a NaN gap
        # is not, and neither hides a crossing elsewhere on the level
        net = random_net(np.random.default_rng(3), 8, 2, True)
        net.x[1] = np.linspace(0.1, 0.9, 7)
        net.t[1] = np.full(7, 0.1)
        net.u[1] = np.zeros(7)
        net.a[1] = np.ones(7)
        for q in ("x", "t", "u", "a"):
            getattr(net, q)[1][3] = getattr(net, q)[1][2]
        assert moc._level_gaps(net, 1)[0][:, 2].tolist() == [0.0, 0.0]
        event = moc._scan_level_pair(net, 0, np.diff(net.x[0]), {})
        assert event_bits(event) == event_bits(scan_level_pair_reference(net, 0))
        assert event is not None and event.family == "C+"
        net.x[1][5] = np.nan
        assert event_bits(moc._scan_level_pair(net, 0, np.diff(net.x[0]), {})) \
            == event_bits(event)
        net.x[1][3] = net.x[1][2] + 0.1  # only the NaN gaps are left
        assert scan_level_pair_reference(net, 0) is None
        assert moc._scan_level_pair(net, 0, np.diff(net.x[0]), {}) is None

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30),
           amp=st.sampled_from([0.05, 0.3, 1.0, 20.0]),
           t_end=st.sampled_from([0.05, 0.3, 2.0]))
    def test_net_matches_reference(self, seed, n, amp, t_end):
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 1.0, n)
        nodes = (x, amp * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi)),
                 rng.uniform(0.8, 1.2, n), rng.uniform(0.8, 1.2, n))
        try:
            ref = advance_net_reference(nodes, t_end, GAMMA)
        except NonConvergence as exc:
            with pytest.raises(NonConvergence, match=str(exc)):
                moc.advance_net(nodes, t_end, M)
            return
        # the released net keeps the levels it needs, the collected net
        # every level, each bitwise the reference's
        net = moc.advance_net(nodes, t_end, M)
        whole = collect_net(nodes, t_end, M)
        assert net.n_levels == whole.n_levels == ref.n_levels
        assert event_bits(net.envelope) == event_bits(whole.envelope) \
            == event_bits(ref.envelope)
        for q in LEVEL_ARRAYS:
            for k, arr in enumerate(getattr(net, q)):
                assert (arr is None) == (0 < k < net.n_levels - 2)
                if arr is not None:
                    assert_bitwise(arr, getattr(ref, q)[k])
            assert len(getattr(whole, q)) == ref.n_levels
            for k, arr in enumerate(getattr(whole, q)):
                assert_bitwise(arr, getattr(ref, q)[k])
