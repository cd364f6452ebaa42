"""1-D unsteady nonisentropic method-of-characteristics solver.

State is carried as (u, a, s) with s the entropy function p/rho**gamma;
this convention is fixed inside this module because it is the one under
which the compatibility relations close without conversion factors.

The compatibility relation along a C+/C- characteristic is

    du +/- (2/(gamma-1)) da -/+ (a / (gamma (gamma-1) s)) ds = 0

which is the form du +/- dp/(rho a) = 0 rewritten with p = s rho**gamma
(the two are verified equivalent in the test suite by evaluating both on
random states and small increments).

The net is advanced level-synchronously: each new node is placed at the
intersection of the C+ characteristic from its left parent and the C-
characteristic from its right parent, with midpoint-averaged slopes and
coefficients iterated to a fixed point.  Entropy is carried along the C0
trajectory through the new node; its foot on the parent level is found on
the segment between the two parents and s is interpolated there with a
three-point (quadratic) stencil.  A passive Lagrangian label (the launch
coordinate of the trajectory) is advected through exactly the same
interpolation, which is what the C0 pseudostructure residual is measured
against.  Only interior nodes are advanced, so the net covers the domain
of determinacy of the initial data; no boundary conditions are invented.

Levels are built sequentially but each level's nodes are computed in one
vectorized pass; a finished net is treated as immutable and all analyses
on it are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import NonConvergence
from .thermo import GasModel

__all__ = [
    "CharNode",
    "CharNet",
    "EnvelopeEvent",
    "ChainJacobian",
    "JacobianTrace",
    "char_slopes",
    "riemann_invariants",
    "compat_residual",
    "nodes_from_primitive",
    "advance_net",
    "pseudostructure_residual",
    "jacobian_trace",
    "detect_envelope",
]


@dataclass(frozen=True)
class CharNode:
    """One characteristic-net node: position, time and (u, a, s) state."""

    x: float
    t: float
    u: float
    a: float
    s: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.s > 0.0):
            raise ValueError(f"need a > 0 and s > 0, got a={self.a}, s={self.s}")


@dataclass(frozen=True)
class EnvelopeEvent:
    """First crossing of two same-family characteristics."""

    t_star: float
    x_star: float
    family: str  # "C+" or "C-"

    def __post_init__(self):
        if not self.t_star > 0.0:
            raise ValueError("envelope time must be positive")
        if self.family not in ("C+", "C-"):
            raise ValueError(f"unknown family {self.family!r}")


@dataclass
class CharNet:
    """Characteristic net: per-level node arrays plus connectivity.

    Level k+1 node i has C+ parent (k, i), C- parent (k, i+1) and C0 parent
    (k, c0_parent[k+1][i]) (the parent-level node nearest its trajectory
    foot); :meth:`parents` and :meth:`chain_ids` are the readers of this
    rule.  ``labels`` carries each node's trajectory launch coordinate.
    """

    gamma: float
    x: List[np.ndarray] = field(default_factory=list)
    t: List[np.ndarray] = field(default_factory=list)
    u: List[np.ndarray] = field(default_factory=list)
    a: List[np.ndarray] = field(default_factory=list)
    s: List[np.ndarray] = field(default_factory=list)
    labels: List[np.ndarray] = field(default_factory=list)
    c0_parent: List[np.ndarray] = field(default_factory=list)
    envelope: Optional[EnvelopeEvent] = None

    @property
    def n_levels(self) -> int:
        return len(self.x)

    def level_size(self, k: int) -> int:
        return len(self.x[k])

    def node(self, k: int, i: int) -> CharNode:
        return CharNode(
            x=float(self.x[k][i]), t=float(self.t[k][i]),
            u=float(self.u[k][i]), a=float(self.a[k][i]), s=float(self.s[k][i]),
        )

    def parents(self, k: int):
        """C+, C- and C0 parent indices (on level k-1) of level k's nodes;
        all -1 on the initial level."""
        if k == 0:
            return (self.c0_parent[0],) * 3
        i = np.arange(self.level_size(k))
        return i, i + 1, self.c0_parent[k]

    def chain_ids(self, family: str, k: int) -> np.ndarray:
        """Which chain of the family each node of level k belongs to."""
        n = self.level_size(k)
        if family == "C+":
            return np.arange(n)
        if family == "C-":
            return np.arange(n) + k
        raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ChainJacobian:
    """Tube-width ratio J(t) = dx/dx0 along one characteristic chain."""

    x0: float
    t: np.ndarray
    J: np.ndarray


@dataclass(frozen=True)
class JacobianTrace:
    family: str
    chains: List[ChainJacobian]


# ---------------------------------------------------------------------------
# pointwise relations


def char_slopes(n: CharNode):
    """Characteristic slopes (u+a, u-a, u) of a node."""
    return (n.u + n.a, n.u - n.a, n.u)


def riemann_invariants(n: CharNode, m: GasModel):
    """J+/- = u +/- 2a/(gamma-1)."""
    c = 2.0 / (m.gamma - 1.0)
    return (n.u + c * n.a, n.u - c * n.a)


def compat_residual(from_node: CharNode, to_node: CharNode, family: str,
                    m: GasModel) -> float:
    """Discrete compatibility residual along a C+ or C- connection.

    Midpoint-averaged coefficients; the residual of the exact relation is
    O(dt^2) on nodes sampled from a smooth solution.
    """
    if family not in ("C+", "C-"):
        raise ValueError(f"unknown family {family!r}")
    g = m.gamma
    c = 2.0 / (g - 1.0)
    a_mid = 0.5 * (from_node.a + to_node.a)
    s_mid = 0.5 * (from_node.s + to_node.s)
    coef = a_mid / (g * (g - 1.0) * s_mid)
    du = to_node.u - from_node.u
    da = to_node.a - from_node.a
    ds = to_node.s - from_node.s
    if family == "C+":
        return abs(du + c * da - coef * ds)
    return abs(du - c * da + coef * ds)


def nodes_from_primitive(x, rho, u, p, m: GasModel):
    """t=0 initial data ``(x, u, a, s)`` from (x, rho, u, p) samples."""
    rho = np.asarray(rho, float)
    p = np.asarray(p, float)
    with np.errstate(all="ignore"):  # _initial_arrays rejects non-finite a, s
        a, s = np.sqrt(m.gamma * p / rho), p / rho ** m.gamma
    return np.array(x, float), np.array(u, float), a, s


def _initial_arrays(initial):
    """Validated copies of t=0 initial data ``(x, u, a, s)``."""
    x, u, a, s = (np.array(q, float) for q in initial)
    if x.ndim != 1 or any(q.shape != x.shape for q in (u, a, s)):
        raise ValueError("initial x, u, a, s must be 1-D arrays of one length")
    if len(x) < 3:
        raise ValueError("need at least 3 initial nodes")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("initial nodes must be sorted and distinct in x")
    if not all(np.all((q > 0.0) & (q < np.inf)) for q in (a, s)):
        raise ValueError("need finite a > 0 and s > 0 at every initial node")
    return x, u, a, s


# ---------------------------------------------------------------------------
# level advancement


def _stencil_base(xs: np.ndarray, xf: np.ndarray, i: np.ndarray):
    """Start index of the 3-node stencil nearest each foot (None if linear)."""
    n = len(xs)
    if n < 3:
        return None
    go_left = (xf - xs[i]) < (xs[i + 1] - xf)
    return np.clip(np.where(go_left, i - 1, i), 0, n - 3)


def _interp_on_level(xs: np.ndarray, xf: np.ndarray, base, values):
    """Quadratic (3-point) interpolation of level quantities at foot x.

    ``base`` is the stencil start from :func:`_stencil_base`; it is chosen
    once per unit process and frozen so the corrector's fixed point is not
    perturbed by stencil switching.  Linear when the level has 2 nodes.
    """
    if base is not None:
        x0, x1, x2 = xs[base], xs[base + 1], xs[base + 2]
        w0 = (xf - x1) * (xf - x2) / ((x0 - x1) * (x0 - x2))
        w1 = (xf - x0) * (xf - x2) / ((x1 - x0) * (x1 - x2))
        w2 = (xf - x0) * (xf - x1) / ((x2 - x0) * (x2 - x1))
        return [w0 * v[base] + w1 * v[base + 1] + w2 * v[base + 2] for v in values]
    th = (xf - xs[0]) / (xs[1] - xs[0])
    return [(1.0 - th) * v[0] + th * v[1] for v in values]


def _corrected_gaps(x, t, u, a, sign):
    """Adjacent-chain gaps corrected onto a common time with family slopes."""
    lam = u + sign * a
    t_bar = 0.5 * (t[:-1] + t[1:])
    left = x[:-1] + lam[:-1] * (t_bar - t[:-1])
    right = x[1:] + lam[1:] * (t_bar - t[1:])
    return right - left, t_bar


def _advance_level(x, t, u, a, s, lab, gamma, tol, max_iter):
    """One interior-advancement step; returns new-level arrays or None on
    a degenerate unit process (index of the first bad pair is returned)."""
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

        # C0 foot on the parent segment: solve the quadratic in the segment
        # parameter theta from x_P - x_f = u_mid (t_P - t_f)
        dx = xR - xL
        dt = tR - tL
        du = uR - uL
        A = xP_new - xL
        B = tP_new - tL
        U0 = uP + uL
        c2 = 0.5 * du * dt
        c1 = -dx + 0.5 * (U0 * dt - du * B)
        c0 = A - 0.5 * U0 * B
        # stable quadratic roots: q = -(c1 + sign(c1) sqrt(disc))/2, roots
        # c0/q (small, the one we want) and q/c2; avoids the cancellation
        # the textbook formula suffers when c2 is tiny
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
            base = _stencil_base(x, xf, np.arange(len(xL)))
        sP_new, labP = _interp_on_level(x, xf, base, [s, lab])
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
            f"corrector did not reach {tol:g} in {max_iter} iterations"
        )

    # nearest parent node to the foot, for C0 connectivity
    idx = np.arange(len(xL))
    c0p = np.where(theta < 0.5, idx, idx + 1)
    return (xP, tP, uP, aP, sP, labP, c0p), -1


_SIGN = {"C+": 1.0, "C-": -1.0}


def _level_gaps(net: CharNet, k: int, family: str):
    """Corrected gaps of level k, their common times, each gap over the
    launch spacing of its chain pair (the tube-width ratio dx/dx0), and
    the chain of each gap (that of its left node)."""
    chain = net.chain_ids(family, k)[:-1]
    g, t_bar = _corrected_gaps(net.x[k], net.t[k], net.u[k], net.a[k],
                               _SIGN[family])
    x0 = net.x[0]
    return g, t_bar, g / (x0[chain + 1] - x0[chain]), chain


def _scan_level_pair(net: CharNet, k: int) -> Optional[EnvelopeEvent]:
    """Detect a same-family crossing between levels k and k+1.

    When both families show a sign change in the same level window (the
    mesh folds at an envelope, which inverts node ordering and drags the
    other family's gap negative too), the event belongs to the family
    whose chain tube had genuinely collapsed before the fold: the one
    with the smaller launch-normalized gap on the still-healthy level k
    (the first such pair; C+ on a tie).
    """
    best = None
    best_gnorm = np.inf
    for family in _SIGN:
        g_prev, tb_prev, gnorm, c_prev = _level_gaps(net, k, family)
        g_new, tb_new, _, c_new = _level_gaps(net, k + 1, family)
        if len(g_new) == 0:
            continue
        # chain pair of level-(k+1) gap i sits at level-k gap i + off
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


def advance_net(
    initial: Sequence[np.ndarray],
    t_end: float,
    m: GasModel,
    corrector_tol: float = 1e-12,
    max_iter: int = 20,
) -> CharNet:
    """Advance the characteristic net from t=0 initial data ``(x, u, a, s)``.

    Stops at ``t_end``, at the first envelope event (recorded on
    ``net.envelope``), or when the shrinking domain of determinacy is
    exhausted.

    Raises
    ------
    ValueError
        If ``t_end`` is not finite and positive, or the initial data is
        invalid (see ``_initial_arrays``).
    NonConvergence
        If the node-placement fixed point fails to converge.
    """
    if not 0.0 < t_end < np.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    x0, u0, a0, s0 = _initial_arrays(initial)
    net = CharNet(gamma=m.gamma, x=[x0], t=[np.zeros_like(x0)], u=[u0],
                  a=[a0], s=[s0], labels=[x0.copy()],
                  c0_parent=[np.full(len(x0), -1, dtype=int)])
    levels = (net.x, net.t, net.u, net.a, net.s, net.labels, net.c0_parent)

    while net.level_size(net.n_levels - 1) >= 2:
        k = net.n_levels - 1
        result, bad = _advance_level(
            net.x[k], net.t[k], net.u[k], net.a[k], net.s[k], net.labels[k],
            m.gamma, corrector_tol, max_iter,
        )
        if result is None:
            # degenerate unit process: characteristics no longer intersect
            # forward in time.  Report an envelope at the failing pair; the
            # family is the one whose chain tube has collapsed there (the
            # smaller launch-normalized corrected gap, C+ on a tie).
            gnorm = {fam: _level_gaps(net, k, fam)[2][bad] for fam in _SIGN}
            fam = min(gnorm, key=gnorm.get)
            t_star = max(float(net.t[k][bad]), 1e-300)
            x_star = float(0.5 * (net.x[k][bad] + net.x[k][bad + 1]))
            net.envelope = EnvelopeEvent(t_star, x_star, fam)
            break
        for lst, arr in zip(levels, result):
            lst.append(arr)
        event = _scan_level_pair(net, k)
        if event is not None:
            net.envelope = event
            break
        if float(np.min(net.t[-1])) >= t_end:
            break
    return net


# ---------------------------------------------------------------------------
# net analyses


def pseudostructure_residual(net: CharNet, family: str) -> float:
    """Constancy defect of the family's conserved quantity on the net.

    * ``"C0"``: max over nodes of |s - s0(label)|, the drift of entropy from
      its value at the trajectory's launch point (s0 interpolated on the
      initial level with the same quadratic stencil the solver uses).
    * ``"C+"`` / ``"C-"``: max per-link change of the matching Riemann
      invariant u +/- 2a/(gamma-1) along the family's chains.
    """
    g = net.gamma
    if family == "C0":
        xs0 = net.x[0]
        s0 = net.s[0]
        worst = 0.0
        for k in range(1, net.n_levels):
            lab = net.labels[k]
            pos = np.clip(lab, xs0[0], xs0[-1])
            i = np.clip(np.searchsorted(xs0, pos) - 1, 0, len(xs0) - 2)
            (s_ref,) = _interp_on_level(xs0, pos, _stencil_base(xs0, pos, i), [s0])
            worst = max(worst, float(np.max(np.abs(net.s[k] - s_ref))))
        return worst
    if family in _SIGN:
        sc = _SIGN[family] * (2.0 / (g - 1.0))
        worst = 0.0
        for k in range(1, net.n_levels):
            par = net.parents(k)[0 if family == "C+" else 1]
            J_par = (net.u[k - 1] + sc * net.a[k - 1])[par]
            worst = max(worst, float(np.max(np.abs(
                net.u[k] + sc * net.a[k] - J_par))))
        return worst
    raise ValueError(f"unknown family {family!r}")


def jacobian_trace(net: CharNet, family: str) -> JacobianTrace:
    """J(t) = dx/dx0 per launch point by adjacent-chain differencing.

    Each level's neighbor positions are slid onto a common time along
    their own characteristic slopes (node times differ within a level):
    chain j's J on level k is that level's corrected gap over the launch
    spacing (:func:`_level_gaps`), followed while the pair stays on the net.
    """
    x0 = net.x[0]
    J = np.zeros((net.n_levels, len(x0) - 1))
    T = np.zeros_like(J)
    on = np.zeros(J.shape, dtype=bool)
    for k in range(net.n_levels):
        _, t_bar, ratio, chain = _level_gaps(net, k, family)
        J[k, chain], T[k, chain], on[k, chain] = ratio, t_bar, True
    # a chain leaves the net at its first level without its pair
    depth = np.where(on.all(axis=0), net.n_levels, np.argmin(on, axis=0))
    mids = 0.5 * (x0[:-1] + x0[1:])
    return JacobianTrace(family=family, chains=[
        ChainJacobian(x0=float(mids[j]), t=T[:n, j].copy(), J=J[:n, j].copy())
        for j, n in enumerate(depth) if n > 0])


def detect_envelope(
    initial: Sequence[np.ndarray],
    t_end: Optional[float] = None,
) -> Optional[EnvelopeEvent]:
    """Straight-characteristic estimate of the first same-family crossing
    from t=0 initial data ``(x, u, a, s)``.

    With lam = u +/- a per family, the earliest crossing is
    t* = -1 / min(dlam/dx) over points where the slope gradient is
    negative.  Returns None when no crossing occurs (before ``t_end`` if
    given).  The crossing found on a net is ``CharNet.envelope``.
    """
    x, u, a, _ = _initial_arrays(initial)
    best = None
    for family, sign in _SIGN.items():
        lam = u + sign * a
        dlam = np.gradient(lam, x, edge_order=2)
        # ignore slope gradients at the rounding-noise level of the stencil
        noise = 1024.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(lam)))) \
            / float(np.min(np.diff(x)))
        dlam = np.where(np.abs(dlam) <= noise, 0.0, dlam)
        if np.min(dlam) < 0.0:
            i = int(np.argmin(dlam))
            t_star = -1.0 / float(dlam[i])
            x_star = float(x[i] + lam[i] * t_star)
            if best is None or t_star < best.t_star:
                best = EnvelopeEvent(t_star, x_star, family)
    if best is not None and t_end is not None and best.t_star > t_end:
        return None
    return best
