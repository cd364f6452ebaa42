"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the PASS/FAIL lines).
"""

import numpy as np

from vortigen.evoform import (
    A1Variant,
    CroccoSign,
    ForceModel,
    TransportModel,
    commutator,
    equilibrium_classifier,
    equilibrium_tolerance,
    ideal_a1,
    sample_anu,
    truncation_estimate,
    viscous_a1,
)
from vortigen.exact import SimpleWave
from vortigen.fields import StructuredGrid2D, trace_streamline
from vortigen.jumps import (
    Surface,
    SurfaceKind,
    char_jump_check,
    consistency_determinant,
    contact_jump_check,
    measure_discontinuity,
    synthesize_contact_field,
)
from vortigen.moc import (
    advance_net,
    nodes_from_primitive,
    pseudostructure_residual,
    riemann_invariants,
)
from vortigen.thermo import (
    GasModel,
    PrimitiveState,
    derive_state,
    gibbs_residual,
)

from fv_oracle import godunov_solve
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


def criterion(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def fitted_order(errs):
    return min(np.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1))


def test_c01_contact_jump_relation():
    worst_rel = 0.0
    worst_order = np.inf
    for gamma in (1.2, 1.4, 1.67):
        m = GasModel(gamma=gamma, R=1.0)
        for delta in (-1.0, 0.5, 2.0):
            errs = []
            for ny in (51, 101, 201):
                grid = StructuredGrid2D(9, ny, x0=0.0, y0=0.0, hx=0.125,
                                        hy=1.0 / (ny - 1))
                base = PrimitiveState(rho=1.0, u=(1.0, 0.0), p=1.0)
                fs = synthesize_contact_field(base, delta, grid, m)
                surf = Surface(SurfaceKind.TRAJECTORY, (0.0, 1.0))
                wd = measure_discontinuity(fs, m, surf, (0.5, 0.5))
                rep = contact_jump_check(wd, base, m, tol=1e-2)
                errs.append(rep.rel_error)
            worst_rel = max(worst_rel, errs[-1])
            worst_order = min(worst_order, fitted_order(errs))
    ok = worst_rel <= 1e-2 and worst_order >= 1.0
    criterion(1, "contact jump relation",
              ok, f"max rel_error {worst_rel:.2e} at h=1/200, "
              f"min order {worst_order:.2f}")


def test_c02_characteristic_jump_relation():
    from vortigen.exact import CenteredFan
    from vortigen.jumps import WeakDiscontinuity, measure_jump

    worst = 0.0
    for u_tail in (-0.2, -0.4, -0.8):
        fan = CenteredFan(gamma=GAMMA, a0=1.0, u_tail=u_tail)
        n = 241
        grid = StructuredGrid2D(n, n, x0=0.3, y0=0.5, hx=1.4 / (n - 1),
                                hy=1.2 / (n - 1))
        X, T = np.meshgrid(grid.x, grid.y)
        u, a = fan.sound_speed_field(X, T)
        s = np.full(grid.shape, fan.s0)
        rho = (a * a / (GAMMA * fan.s0)) ** (1.0 / (GAMMA - 1.0))
        p = fan.s0 * rho ** GAMMA
        norm = np.hypot(1.0, fan.a0)
        surf = Surface(SurfaceKind.CHARACTERISTIC_PLUS,
                       (1.0 / norm, -fan.a0 / norm))
        pt = (fan.a0, 1.0)
        wd = WeakDiscontinuity(surf, {
            name: measure_jump(f, grid, surf, pt)
            for name, f in (("u", u), ("a", a), ("s", s), ("p", p))})
        rep = char_jump_check(wd, MODEL, tol=0.02)
        worst = max(worst, rep.rel_error)
    criterion(2, "characteristic jump relation", worst <= 0.02,
              f"max rel_error {worst:.2e} over three fan strengths")


def test_c03_lagrange_criterion():
    # equilibrium side: steady homentropic source flow, no force
    vals = []
    below = True
    for n in (33, 65, 129):
        fs = source_flow(n)
        traj = trace_streamline(fs, (1.05, 1.1), max_len=0.9)
        anu = sample_anu(fs, NO_FORCE, MODEL, traj.points)
        K = commutator(anu, ideal_a1(), traj, fs.grid)
        below &= float(np.max(np.abs(K.K))) <= equilibrium_tolerance(fs, MODEL)
        vals.append(float(np.max(np.abs(K.K))))
    order = fitted_order(vals)

    # nonequilibrium side: diaphragm-break snapshot pair
    fs = diaphragm_snapshot_pair()
    traj = trace_streamline(fs, (0.55, 0.02), max_len=0.5)
    anu = sample_anu(fs, NO_FORCE, MODEL, traj.points, time_index=1)
    K = commutator(anu, ideal_a1(), traj, fs.grid)
    cls = equilibrium_classifier(K, equilibrium_tolerance(fs, MODEL))
    ok = below and order >= 1.5 and cls.kind == "nonequilibrium" \
        and cls.dominant == "nonstationarity"
    criterion(3, "Lagrange criterion", ok,
              f"source max|K| below tol at all grids={below}, "
              f"order {order:.2f}; shock-tube pair -> {cls.kind}, "
              f"dominant {cls.dominant}")


def test_c04_crocco_sign_resolution():
    fs, sigma, T0 = shear_flow()
    y_traj = 1.0
    traj = trace_streamline(fs, (0.1, y_traj), max_len=1.6)
    est = truncation_estimate(fs, MODEL)
    anu_c, anu_p = (
        commutator(sample_anu(fs, NO_FORCE, MODEL, traj.points, sign=sign),
                   ideal_a1(), traj, fs.grid).anu
        for sign in (CroccoSign.CONSISTENT, CroccoSign.PAPER_LITERAL))
    consistent_max = float(np.max(np.abs(anu_c)))
    expected = 2.0 * sigma ** 2 * y_traj / T0
    literal_err = float(np.max(np.abs(anu_p - expected))) / expected
    ok = consistent_max <= 10.0 * est.anu and literal_err <= 0.01
    criterion(4, "vortical-term sign resolution", ok,
              f"consistent max {consistent_max:.1e} vs 10*est "
              f"{10 * est.anu:.1e}; literal rel err {literal_err:.1e}")


def test_c05_envelope_detection():
    w = SimpleWave(lambda x: -0.1 * np.sin(2 * np.pi * x) * 2.0 / (GAMMA + 1.0),
                   gamma=GAMMA)
    net = advance_net(w.initial_nodes(np.linspace(-0.55, 3.55, 821)),
                      t_end=3.0, m=MODEL)
    t_true = 1.0 / (0.2 * np.pi)
    rel = abs(net.envelope.t_star - t_true) / t_true if net.envelope else np.inf

    w_exp = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=GAMMA)
    net_exp = advance_net(w_exp.initial_nodes(np.linspace(-1, 1, 201)),
                          t_end=0.6, m=MODEL)
    no_event = net_exp.envelope is None
    ok = rel <= 0.02 and no_event
    criterion(5, "envelope detection", ok,
              f"t* rel err {rel:.2e} vs 1/(0.2 pi); pure expansion none: "
              f"{no_event}")


def test_c06_moc_fidelity():
    # isentropic simple wave vs the exact implicit solution
    w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)), gamma=GAMMA)
    net = advance_net(w.initial_nodes(np.linspace(0, 1, 201)),
                      t_end=0.35, m=MODEL)
    err = scale = 0.0
    jm_worst = 0.0
    jm_ref = riemann_invariants(net.u[0][0], net.a[0][0], GAMMA)[1]
    for k in range(net.n_levels):
        for i in range(net.level_size(k)):
            x, t = float(net.x[k][i]), float(net.t[k][i])
            u_ex, a_ex, _ = w.state(x, t, (x - 1.4 * t - 0.3, x + 0.3))
            err = max(err, abs(net.u[k][i] - u_ex), abs(net.a[k][i] - a_ex))
            scale = max(scale, abs(u_ex), abs(a_ex))
        jm = net.u[k] - (2.0 / (GAMMA - 1.0)) * net.a[k]
        jm_worst = max(jm_worst, float(np.max(np.abs(jm - jm_ref))))
    wave_rel = err / scale

    # nonisentropic smooth run vs the independent finite-volume oracle
    def profiles(x):
        rho = 1.0 + 0.05 * np.sin(2 * np.pi * x)
        s = 1.0 + 0.10 * np.sin(2 * np.pi * x + 0.7)
        return rho, 0.05 * np.cos(2 * np.pi * x), s * rho ** GAMMA

    x = np.linspace(0.0, 1.0, 101)
    net2 = advance_net(nodes_from_primitive(x, *profiles(x), MODEL),
                       t_end=0.2, m=MODEL)
    xf = np.linspace(-0.5, 1.5, 1601)
    fv = godunov_solve(xf, *profiles(xf), GAMMA, t_end=0.25)
    err2 = scale2 = 0.0
    for k in range(net2.n_levels):
        smp = fv.sample(net2.x[k], net2.t[k])
        a_fv = np.sqrt(GAMMA * smp["p"] / smp["rho"])
        err2 = max(err2, float(np.max(np.abs(smp["u"] - net2.u[k]))),
                   float(np.max(np.abs(a_fv - net2.a[k]))))
        scale2 = max(scale2, float(np.max(np.abs(net2.u[k]))),
                     float(np.max(net2.a[k])))
    fv_rel = err2 / scale2
    ok = wave_rel <= 1e-4 and jm_worst <= 1e-6 and fv_rel <= 1e-2
    criterion(6, "characteristic-solver fidelity", ok,
              f"simple-wave Linf rel {wave_rel:.2e} (<=1e-4), J- drift "
              f"{jm_worst:.2e} (<=1e-6), vs FV {fv_rel:.2e} (<=1e-2)")


def test_c07_pseudostructure_residuals():
    # nonisentropic entropy residual: order >= 2 under refinement
    def profiles(x):
        rho = 1.0 + 0.05 * np.sin(2 * np.pi * x)
        s = 1.0 + 0.10 * np.sin(2 * np.pi * x + 0.7)
        return rho, 0.05 * np.cos(2 * np.pi * x), s * rho ** GAMMA

    c0 = []
    for n in (51, 101, 201):
        x = np.linspace(0.0, 1.0, n)
        net = advance_net(nodes_from_primitive(x, *profiles(x), MODEL),
                          t_end=0.2, m=MODEL)
        c0.append(pseudostructure_residual(net)["C0"])
    c0_order = fitted_order(c0)

    # isentropic invariants: transported exactly (machine floor counts)
    inv = {"C+": [], "C-": []}
    for n in (51, 101, 201):
        w = SimpleWave(lambda x: 0.05 * (1.0 + np.cos(2 * np.pi * x)),
                       gamma=GAMMA)
        net = advance_net(w.initial_nodes(np.linspace(0, 1, n)),
                          t_end=0.2, m=MODEL)
        res = pseudostructure_residual(net)
        for fam in ("C+", "C-"):
            inv[fam].append(res[fam])
    inv_ok = all(
        max(v) <= 1e-10 or fitted_order(v) >= 2.0 for v in inv.values())
    ok = c0_order >= 1.9 and inv_ok
    criterion(7, "pseudostructure residual convergence", ok,
              f"C0 order {c0_order:.2f} (residuals {c0[0]:.1e}->{c0[-1]:.1e}); "
              f"invariant residuals <= {max(max(v) for v in inv.values()):.1e}")


def test_c08_viscous_a1():
    mu, k = 0.1, 0.05
    fs, _ = couette_flow(mu=mu, k=k)
    a1 = viscous_a1(fs, TransportModel(mu=mu, k=k), MODEL,
                    A1Variant.PAPER_LITERAL)
    j_mid = (fs.grid.ny - 1) // 2
    expected, _ = couette_a1_closed_form(fs.grid.y[j_mid], mu, k)
    got = a1.field[j_mid, fs.grid.nx // 2]
    couette_rel = abs(got - expected) / abs(expected)

    rng = np.random.default_rng(2024)
    grid = StructuredGrid2D(17, 17, hx=1.0 / 16, hy=1.0 / 16)
    X, Y = np.meshgrid(grid.x, grid.y)
    from vortigen.fields import FieldSet
    nonneg = True
    cases = 0
    for mu_i, k_i in [(0.1, 0.05), (0.02, 0.3), (1.0, 1.0), (0.5, 0.0),
                      (0.0, 0.7)]:
        for _ in range(2):
            a, b, c = rng.uniform(-1.0, 1.0, 3)
            u = a * Y + b * np.sin(2 * X) + c
            v = b * X * Y - a * np.cos(Y)
            T = 1.0 + 0.3 * np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) * 3)
            fsx = FieldSet(grid, 1.0 / T, u, v, np.ones(grid.shape))
            cases += 1
            for variant in A1Variant:
                out = viscous_a1(fsx, TransportModel(mu=mu_i, k=k_i), MODEL,
                                 variant)
                nonneg &= bool(np.all(out.pieces["conduction_production"] >= 0))
                nonneg &= bool(np.all(out.pieces["viscous_production"] >= 0))
    ok = couette_rel <= 0.005 and nonneg and cases == 10
    criterion(8, "transport coefficient", ok,
              f"Couette mid-channel rel err {couette_rel:.2e} (<=5e-3); "
              f"production terms nonnegative over {cases} cases: {nonneg}")


def test_c09_consistency_determinant():
    rng = np.random.default_rng(1234)
    worst_root = 0.0
    worst_off = np.inf
    for _ in range(100):
        rho = rng.uniform(0.5, 2.0)
        p = rng.uniform(0.5, 2.0)
        u = rng.uniform(0.0, 5.0)
        gamma = rng.choice([1.2, 1.4, 1.67])
        m = GasModel(gamma=gamma, R=1.0)
        q = PrimitiveState(rho=rho, u=(u,), p=p)
        st = derive_state(q, m)
        for lam in (u, u + st.a, u - st.a):
            worst_root = max(worst_root, abs(consistency_determinant(q, lam, m)))
        for lam in (u + 0.5 * st.a, u - 0.5 * st.a):
            worst_off = min(worst_off,
                            abs(consistency_determinant(q, lam, m)) / st.a ** 3)
    ok = worst_root <= 1e-12 and worst_off >= 0.1
    criterion(9, "consistency determinant", ok,
              f"max |det| at characteristic slopes {worst_root:.1e} (<=1e-12), "
              f"min |det|/a^3 at a/2 offsets {worst_off:.3f} (>=0.1)")


def test_c10_thermo():
    m14 = GasModel(gamma=1.4, R=1.0)
    res = []
    for n in (11, 21, 41, 81):
        rho = np.linspace(1.0, 2.0, n)
        path = [PrimitiveState(r, (0.0,), r ** 1.4) for r in rho]
        res.append(gibbs_residual(path, m14))
    order = fitted_order(res)

    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(200):
        rho = rng.uniform(0.05, 20.0)
        p = rng.uniform(0.05, 20.0)
        gamma = rng.choice([1.2, 1.4, 1.67])
        m = GasModel(gamma=gamma, R=287.05)
        d = derive_state(PrimitiveState(rho=rho, u=(0.0,), p=p), m)
        worst = max(worst, abs(d.a ** 2 * rho - gamma * p) / (gamma * p))
    ok = order >= 2.0 and worst <= 4e-16
    criterion(10, "thermodynamic identities", ok,
              f"local-equilibrium residual order {order:.2f} (>=2); "
              f"a^2 rho vs gamma p rel {worst:.1e} (machine)")
