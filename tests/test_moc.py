import numpy as np
import pytest

from vortigen import moc
from vortigen.errors import NonConvergence
from vortigen.exact import SimpleWave
from vortigen.moc import (
    CharNet,
    CharNode,
    EnvelopeEvent,
    char_slopes,
    compat_residual,
    detect_envelope,
    jacobian_trace,
    nodes_from_primitive,
    pseudostructure_residual,
    riemann_invariants,
)
from vortigen.thermo import GasModel

from fv_oracle import godunov_solve

GAMMA = 1.4
M = GasModel(gamma=GAMMA, R=1.0)


def advance_net(*args, **kwargs):
    """moc.advance_net, checking on every net that a rescan of all its level
    pairs finds nothing the pair-by-pair scan during advancement missed."""
    net = moc.advance_net(*args, **kwargs)
    rescan = None
    for k in range(net.n_levels - 1):
        rescan = moc._scan_level_pair(net, k)
        if rescan is not None:
            break
    # without a crossing the net may still end at a degenerate unit process
    assert (rescan or net.envelope) == net.envelope
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


class TestPointwise:
    def test_char_slopes_rest(self):
        assert char_slopes(CharNode(0, 0, 0.0, 1.0, 1.0)) == (1.0, -1.0, 0.0)

    def test_char_slopes_supersonic(self):
        lp, lm, l0 = char_slopes(CharNode(0, 0, 2.0, 1.0, 1.0))
        assert (lp, lm, l0) == (3.0, 1.0, 2.0)
        assert lm > 0.0  # both acoustic slopes positive when supersonic

    def test_char_slopes_galilean_shift(self):
        base = char_slopes(CharNode(0, 0, 0.7, 1.3, 1.0))
        for c in (-2.0, 0.5, 10.0):
            shifted = char_slopes(CharNode(0, 0, 0.7 + c, 1.3, 1.0))
            assert shifted == pytest.approx(tuple(b + c for b in base), rel=1e-15)

    def test_riemann_invariants_frozen(self):
        # 2/(gamma-1) = 5 at gamma = 1.4
        jp, jm = riemann_invariants(CharNode(0, 0, 0.0, 1.0, 1.0), M)
        assert jp == pytest.approx(5.0, rel=1e-15)
        assert jm == pytest.approx(-5.0, rel=1e-15)

    def test_riemann_invariants_sound_speed_limit(self):
        jp, jm = riemann_invariants(CharNode(0, 0, 1.0, 1e-14, 1.0), M)
        assert jp == pytest.approx(1.0, abs=1e-12)
        assert jm == pytest.approx(1.0, abs=1e-12)

    def test_riemann_invariants_reflection(self):
        n1 = CharNode(0, 0, 0.8, 1.1, 1.0)
        n2 = CharNode(0, 0, -0.8, 1.1, 1.0)
        jp1, jm1 = riemann_invariants(n1, M)
        jp2, jm2 = riemann_invariants(n2, M)
        assert jp2 == pytest.approx(-jm1, rel=1e-15)
        assert jm2 == pytest.approx(-jp1, rel=1e-15)


class TestCompatibility:
    def test_identical_nodes_zero(self):
        n = CharNode(0, 0, 0.3, 1.2, 0.9)
        assert compat_residual(n, n, "C+", M) == 0.0
        assert compat_residual(n, n, "C-", M) == 0.0

    def test_isentropic_reduces_to_riemann_increment(self):
        a = CharNode(0.0, 0.0, 0.1, 1.0, 1.0)
        b = CharNode(0.1, 0.05, 0.25, 1.06, 1.0)
        c = 2.0 / (GAMMA - 1.0)
        assert compat_residual(a, b, "C+", M) == pytest.approx(
            abs((b.u - a.u) + c * (b.a - a.a)), rel=1e-15)
        assert compat_residual(a, b, "C-", M) == pytest.approx(
            abs((b.u - a.u) - c * (b.a - a.a)), rel=1e-15)

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
                n0 = CharNode(0, t0, float(sol.sol(t0)[0]), a_of(t0), s_of(t0))
                n1 = CharNode(0, t1, float(sol.sol(t1)[0]), a_of(t1), s_of(t1))
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
                n0 = CharNode(0, 0, u0, a0, s0)
                n1 = CharNode(0, 1, u0 + eps * du, a0 + eps * da, s0 + eps * ds)
                r_uas = compat_residual(n0, n1, "C+", M)
                # pressure form via rho = (a^2/(gamma s))^(1/(gamma-1))
                def prim(n):
                    rho = (n.a ** 2 / (GAMMA * n.s)) ** (1.0 / (GAMMA - 1.0))
                    return rho, n.s * rho ** GAMMA
                r0, p0 = prim(n0)
                r1, p1 = prim(n1)
                rho_m, a_m = 0.5 * (r0 + r1), 0.5 * (n0.a + n1.a)
                r_p = abs((n1.u - n0.u) + (p1 - p0) / (rho_m * a_m))
                diffs.append(abs(r_uas - r_p))
            if diffs[0] < 1e-14:
                continue  # degenerate draw, nothing to measure
            orders = [np.log10(diffs[k] / diffs[k + 1]) for k in range(3)
                      if diffs[k + 1] > 1e-14]
            assert diffs[-1] <= 1e-12
            assert not orders or min(orders) >= 1.9


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
        jm_ref = riemann_invariants(net.node(0, 0), M)[1]
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
        assert pseudostructure_residual(net, "C0") <= 1e-10
        assert pseudostructure_residual(net, "C+") <= 1e-10


class TestPseudostructure:
    def test_uniform_net_zero_all_families(self):
        net = advance_net(uniform_nodes(21), t_end=0.4, m=M)
        for fam in ("C0", "C+", "C-"):
            assert pseudostructure_residual(net, fam) <= 1e-14

    def test_isentropic_simple_wave(self):
        w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)), gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(0, 1, 201)),
                          t_end=0.35, m=M)
        assert pseudostructure_residual(net, "C0") <= 1e-10
        assert pseudostructure_residual(net, "C+") <= 1e-10
        assert pseudostructure_residual(net, "C-") <= 1e-10

    def test_nonisentropic_residual_order(self):
        def profiles(x):
            rho = 1.0 + 0.05 * np.sin(2 * np.pi * x)
            s = 1.0 + 0.10 * np.sin(2 * np.pi * x + 0.7)
            return rho, 0.05 * np.cos(2 * np.pi * x), s * rho ** GAMMA

        res = []
        for n in (51, 101, 201):
            x = np.linspace(0.0, 1.0, n)
            net = advance_net(nodes_from_primitive(x, *profiles(x), M),
                              t_end=0.2, m=M)
            res.append(pseudostructure_residual(net, "C0"))
        orders = [np.log2(res[k] / res[k + 1]) for k in range(2)]
        assert min(orders) >= 1.9


class TestJacobian:
    def test_uniform_state_identity(self):
        net = advance_net(uniform_nodes(15), t_end=0.3, m=M)
        for ch in jacobian_trace(net, "C+").chains:
            np.testing.assert_allclose(ch.J, 1.0, atol=1e-12)
            assert ch.J[0] == 1.0
        for ch in jacobian_trace(net, "C-").chains:
            np.testing.assert_allclose(ch.J, 1.0, atol=1e-12)

    def test_expansion_wave_growth(self):
        w = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(-1, 1, 201)),
                          t_end=0.6, m=M)
        jt = jacobian_trace(net, "C+")
        ch = min(jt.chains, key=lambda c: abs(c.x0))
        lp = (w.lam(ch.x0 + 1e-6) - w.lam(ch.x0 - 1e-6)) / 2e-6
        np.testing.assert_allclose(ch.J, 1.0 + lp * ch.t, atol=2e-4)
        assert np.all(np.diff(ch.J) > 0.0)

    def test_compression_wave_collapse(self):
        gamma = GAMMA
        w = SimpleWave(lambda x: -0.1 * np.sin(2 * np.pi * x) * 2 / (gamma + 1),
                       gamma=gamma)
        net = advance_net(w.initial_nodes(np.linspace(-0.55, 3.55, 821)),
                          t_end=3.0, m=M)
        jt = jacobian_trace(net, "C+")
        ch = min(jt.chains, key=lambda c: abs(c.x0))
        assert np.all(np.diff(ch.J) < 0.0)
        lp = (w.lam(ch.x0 + 1e-6) - w.lam(ch.x0 - 1e-6)) / 2e-6
        # J reaches ~0 by t = -1/lam'
        assert ch.J[-1] <= 0.02
        assert ch.t[-1] == pytest.approx(-1.0 / lp, rel=0.02)


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

    def test_t_end_filter(self):
        w = self.compression_wave()
        nodes = w.initial_nodes(np.linspace(-0.55, 3.55, 821))
        assert detect_envelope(nodes, t_end=0.5) is None

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

    def test_chain_ids(self):
        net = advance_net(uniform_nodes(7), t_end=0.5, m=M)
        np.testing.assert_array_equal(net.chain_ids("C+", 2), np.arange(5))
        np.testing.assert_array_equal(net.chain_ids("C-", 2), np.arange(5) + 2)


# ---------------------------------------------------------------------------
# array kernels against the per-node loops they replaced


def scan_level_pair_loop(net, k, families=(("C+", 1.0), ("C-", -1.0))):
    """Reference: the per-pair loop of the level-pair crossing scan."""
    x0 = net.x[0]
    best = None
    best_gnorm = np.inf
    for family, sign in families:
        g_prev, tb_prev = moc._corrected_gaps(
            net.x[k], net.t[k], net.u[k], net.a[k], sign)
        g_new, tb_new = moc._corrected_gaps(
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


def jacobian_trace_loop(net, family):
    """Reference: the node-by-node double loop of the chain Jacobians."""
    sign = 1.0 if family == "C+" else -1.0
    chains = []
    for j in range(net.level_size(0) - 1):
        ts, Js = [], []
        for k in range(net.n_levels):
            i0, i1 = (j, j + 1) if family == "C+" else (j - k, j + 1 - k)
            if i0 < 0 or i1 > net.level_size(k) - 1:
                break
            dx0 = net.x[0][j + 1] - net.x[0][j]
            t_bar = 0.5 * (net.t[k][i0] + net.t[k][i1])
            lam0 = net.u[k][i0] + sign * net.a[k][i0]
            lam1 = net.u[k][i1] + sign * net.a[k][i1]
            x_at0 = net.x[k][i0] + lam0 * (t_bar - net.t[k][i0])
            x_at1 = net.x[k][i1] + lam1 * (t_bar - net.t[k][i1])
            Js.append((x_at1 - x_at0) / dx0)
            ts.append(t_bar)
        if Js:
            chains.append((float(0.5 * (net.x[0][j] + net.x[0][j + 1])),
                           np.array(ts), np.array(Js)))
    return chains


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


class TestArrayKernels:
    def test_scan_matches_loop_on_random_nets(self):
        rng = np.random.default_rng(2024)
        seen = {"C+": 0, "C-": 0}
        ties = 0
        for trial in range(400):
            tie_level0 = trial % 2 == 0
            net = random_net(rng, int(rng.integers(3, 40)), 3, tie_level0)
            for k in range(2):
                ref = scan_level_pair_loop(net, k)
                assert moc._scan_level_pair(net, k) == ref
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
                assert moc._scan_level_pair(net, k) == ref
                if ref is not None:
                    events.append(ref.family)
        assert events == ["C+", "C+", "C-"]

    def test_jacobian_matches_loop(self, real_nets):
        rng = np.random.default_rng(7)
        nets = real_nets + [random_net(rng, 12, 6, False)
                              for _ in range(20)]
        for net in nets:
            for family in ("C+", "C-"):
                ref = jacobian_trace_loop(net, family)
                got = jacobian_trace(net, family).chains
                assert len(got) == len(ref)
                for ch, (x0, t, J) in zip(got, ref):
                    assert ch.x0 == x0
                    assert ch.t.dtype == t.dtype and ch.J.dtype == J.dtype
                    np.testing.assert_array_equal(ch.t, t)
                    np.testing.assert_array_equal(ch.J, J)

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
                g, _ = moc._corrected_gaps(net.x[k], net.t[k], net.u[k],
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

