"""An independent oracle for a nonzero commutator K on manufactured fields.

The fields vary in x and in y, with a potential force and transport:

    rho = 1 + 0.3 sin(2x + 1) cos 3y,   u = 1 + 0.4 sin(3y + 1/2) cos x,
    v = 0.3 cos 2x sin(y + 0.2),        p = 1 + 0.2 cos(x + 2y),
    phi = 0.7 xy + 0.2 sin 2y,

gamma = 1.4, R = 1, mu = 1e-2 and k = 2e-2 on [0, 1]^2.  sympy gives each
term's closed form from the definitions in ``crocco_normal_coefficient``
(the vector field G of each A_nu term) and ``viscous_a1`` (each A1
piece).  At the points traced from (0.1, 0.3) with ``max_len`` 0.6, with
t = U/|U| and n its left normal there, a term's K part is t . grad(G) . n
for an A_nu term and -n . grad(piece) for an A1 piece; K is their sum.
The pipeline's parts must converge to these at second order over 65^2,
129^2 and 257^2 (measured orders 1.93 to 2.00), and a reflection
x -> -x must negate every part.
"""

import numpy as np
import pytest
import sympy as sp

from vortigen.evoform import (
    ForceModel,
    TransportModel,
    commutator,
    sample_anu,
    viscous_a1,
)
from vortigen.fields import FieldSet, StructuredGrid2D, trace_streamlines
from vortigen.thermo import GasModel

GAS = GasModel(gamma=1.4, R=1.0)
TRANSPORT = TransportModel(mu=1e-2, k=2e-2)
SEED, MAX_LEN = (0.1, 0.3), 0.6
SIZES = (65, 129, 257)
X, Y = sp.symbols("x y", real=True)
Q = sp.Rational  # exact coefficients


def _fields():
    rho = 1 + Q(3, 10) * sp.sin(2 * X + 1) * sp.cos(3 * Y)
    u = 1 + Q(2, 5) * sp.sin(3 * Y + Q(1, 2)) * sp.cos(X)
    v = Q(3, 10) * sp.cos(2 * X) * sp.sin(Y + Q(1, 5))
    p = 1 + Q(1, 5) * sp.cos(X + 2 * Y)
    phi = Q(7, 10) * X * Y + Q(1, 5) * sp.sin(2 * Y)
    return rho, u, v, p, phi


def _closed_forms():
    """``(primitives, parts)``: numpy functions of (x, y) for rho, u, v, p
    and phi, and per K part its value at (x, y) on the frame (t, n):
    t . grad(G) . n or -n . grad(piece)."""
    rho, u, v, p, phi = _fields()
    gamma, gas_r = Q(7, 5), 1
    k, mu = Q(1, 50), Q(1, 100)
    T = p / (rho * gas_r)
    h0 = gas_r / (gamma - 1) * T + p / rho + (u ** 2 + v ** 2) / 2
    omega = sp.diff(v, X) - sp.diff(u, Y)
    vector = {  # G of each A_nu term, as crocco_normal_coefficient has it
        "vortical": (-omega * v / T, omega * u / T),
        "force": (sp.diff(phi, X) / T, sp.diff(phi, Y) / T),  # -F / T
        "h0_gradient": (sp.diff(h0, X) / T, sp.diff(h0, Y) / T),
    }
    Tx, Ty = sp.diff(T, X), sp.diff(T, Y)
    ux, uy, vx, vy = (sp.diff(u, X), sp.diff(u, Y), sp.diff(v, X),
                      sp.diff(v, Y))
    scalar = {  # the A1 pieces, as viscous_a1 has them
        "heatflux_divergence": (sp.diff(k * Tx / T, X)
                                + sp.diff(k * Ty / T, Y)) / rho,
        "conduction_production": k * (Tx ** 2 + Ty ** 2) / (rho * T),
        "viscous_production": mu * (Q(4, 3) * (ux - vy / 2) ** 2 + vy ** 2
                                    + (uy + vx) ** 2) / rho,
    }

    def numeric(expr):
        f = sp.lambdify((X, Y), expr, "numpy")
        return lambda x, y: np.broadcast_to(f(x, y), np.shape(x))

    parts = {}
    for name, (gx, gy) in vector.items():
        jac = [numeric(sp.diff(g, d)) for g in (gx, gy) for d in (X, Y)]

        def part(x, y, t, n, jac=jac):
            jxx, jxy, jyx, jyy = (f(x, y) for f in jac)
            return ((t[:, 0] * jxx + t[:, 1] * jxy) * n[:, 0]
                    + (t[:, 0] * jyx + t[:, 1] * jyy) * n[:, 1])
        parts[name] = part
    for name, piece in scalar.items():
        grad = [numeric(sp.diff(piece, d)) for d in (X, Y)]

        def part(x, y, t, n, grad=grad):
            return -(grad[0](x, y) * n[:, 0] + grad[1](x, y) * n[:, 1])
        parts[name] = part
    return [numeric(f) for f in _fields()], parts


PRIMITIVES, PARTS = _closed_forms()


def _run(n, mirror=False):
    """The commutator of the seed's trajectory on the n x n grid: the
    record, and the trajectory's points; with ``mirror`` on the fields
    reflected x -> -x (columns flipped, u negated) from the mirrored seed."""
    h = 1.0 / (n - 1)
    grid = StructuredGrid2D(n, n, hx=h, hy=h)
    xs, ys = np.meshgrid(grid.x, grid.y)
    rho, u, v, p, phi = (f(xs, ys) for f in PRIMITIVES)
    seed = SEED
    if mirror:
        grid = StructuredGrid2D(n, n, hx=h, hy=h, x0=-1.0)
        rho, u, v, p, phi = (a[:, ::-1] for a in (rho, -u, v, p, phi))
        seed = (-SEED[0], SEED[1])
    fs = FieldSet(grid, rho, u, v, p)
    forces = ForceModel.potential(phi)
    (traj,) = trace_streamlines(fs, [seed], max_len=MAX_LEN)
    anu = sample_anu(fs, forces, GAS, traj.points)
    K = commutator(anu, viscous_a1(fs, TRANSPORT, GAS), traj, grid)
    return K, traj.points


def _exact_parts(points):
    """Every K part's closed form at ``points``, on the frame of the exact
    velocity there."""
    x, y = points[:, 0], points[:, 1]
    u, v = PRIMITIVES[1](x, y), PRIMITIVES[2](x, y)
    speed = np.hypot(u, v)
    t = np.column_stack([u / speed, v / speed])
    n = np.column_stack([-t[:, 1], t[:, 0]])
    return {name: part(x, y, t, n) for name, part in PARTS.items()}


@pytest.fixture(scope="module")
def errors():
    """Per grid size, the largest error of every K part and of K."""
    out = {}
    for size in SIZES:
        K, points = _run(size)
        exact = _exact_parts(points)
        assert sorted(K.attribution) == sorted(exact)
        err = {name: float(np.max(np.abs(K.attribution[name] - exact[name])))
               for name in exact}
        err["K"] = float(np.max(np.abs(K.K - sum(exact.values()))))
        out[size] = err
    return out


def test_every_part_is_nonzero():
    # an oracle of parts that vanish would not see a swapped or flipped one
    K, points = _run(SIZES[0])
    exact = _exact_parts(points)
    scale = float(np.max(np.abs(sum(exact.values()))))
    assert 1.0 < scale < 10.0
    for name, part in exact.items():
        assert float(np.max(np.abs(part))) > 1e-3 * scale, name


@pytest.mark.parametrize("name", [*PARTS, "K"])
def test_second_order_convergence(errors, name):
    h = np.array([1.0 / (n - 1) for n in SIZES])
    err = np.array([errors[n][name] for n in SIZES])
    order = np.polyfit(np.log(h), np.log(err), 1)[0]
    assert order >= 1.85, (name, order, err)
    assert err[-1] < 1e-3, (name, err)


def test_reflection_negates_every_part():
    K, points = _run(129)
    mirrored, mirrored_points = _run(129, mirror=True)
    assert mirrored_points.shape == points.shape
    np.testing.assert_allclose(mirrored_points[:, 0], -points[:, 0],
                               rtol=0, atol=1e-13)
    scale = float(np.max(np.abs(K.K)))
    for name in [*K.attribution, "K"]:
        got = mirrored.K if name == "K" else mirrored.attribution[name]
        want = K.K if name == "K" else K.attribution[name]
        assert float(np.max(np.abs(got + want))) <= 1e-14 * scale, name
