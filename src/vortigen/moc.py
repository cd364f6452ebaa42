"""1-D unsteady nonisentropic method-of-characteristics solver.

State is carried as (u, a, s) with s the entropy function p/rho**gamma,
the package's one entropy variable, in which the compatibility relations
close without conversion factors.

The compatibility relation along a C+/C- characteristic is

    du +/- (2/(gamma-1)) da -/+ (a / (gamma (gamma-1) s)) ds = 0

which is the form du +/- dp/(rho a) = 0 rewritten with p = s rho**gamma
(the two are verified equivalent in the test suite by evaluating both on
random states and small increments).  :func:`riemann_invariants` (J+/- =
u +/- 2a/(gamma-1)) and the private midpoint entropy term state these
relations: :func:`compat_residual` calls both and :class:`ResidualFold`
the invariants; the corrector evaluates the same expressions inline, on the
left and right parents of a level at once.

The net is advanced level-synchronously: each new node is placed at the
intersection of the C+ characteristic from its left parent and the C-
characteristic from its right parent, with midpoint-averaged slopes and
coefficients iterated until no node quantity changes by more than the
corrector tolerance relative to max(|value|, 1).  A change that is not
finite never converges, so NaN nodes raise NonConvergence instead of
entering the net.  Entropy is carried along the C0 trajectory through the
new node; its foot on the parent level is found on the segment between the
two parents and s is interpolated there with a three-point (quadratic)
stencil.  A passive Lagrangian label (the launch coordinate of the
trajectory) is advected through exactly the same interpolation, which is
what the C0 pseudostructure residual is measured against.  Only interior
nodes are advanced, so the net covers the domain of determinacy of the
initial data; no boundary conditions are invented.

Levels are built sequentially but each level's nodes are computed in one
vectorized pass; a finished net is treated as immutable and all analyses
on it are pure.  A level costs a fixed number of numpy calls, about 75 per
corrector iteration and three iterations on smooth data, so small levels
cost nearly what large ones do (about 0.19 ms at 6 nodes, 0.34 ms at 601
and 0.48 ms at 1,200 on a 2-vCPU x86 host).  The net keeps its initial
level and the last two, which the envelope scan reads, so its memory is
O(n) in the initial node count, not O(n^2); a reader of every level, such
as :class:`ResidualFold`, takes each one as it is made through ``on_level``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import NonConvergence
from .thermo import GasModel

__all__ = [
    "CharNet",
    "EnvelopeEvent",
    "riemann_invariants",
    "compat_residual",
    "nodes_from_primitive",
    "advance_net",
    "ResidualFold",
    "detect_envelope",
]


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
    foot); :meth:`parents` reads this rule.  ``labels`` carries each
    node's trajectory launch coordinate.

    Level k has ``len(x[0]) - k`` nodes.  :func:`advance_net` releases the
    net as it advances: the seven entries of every level but the initial
    one and the last two are None, while ``n_levels``, :meth:`level_size`
    and ``envelope`` still describe the whole net.
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
        return len(self.x[0]) - k  # each level one node fewer than its parent

    def parents(self, k: int):
        """C+, C- and C0 parent indices (on level k-1) of level k's nodes;
        all -1 on the initial level."""
        if k == 0:
            return (self.c0_parent[0],) * 3
        i = np.arange(self.level_size(k))
        return i, i + 1, self.c0_parent[k]


# ---------------------------------------------------------------------------
# the characteristic relations, on floats or arrays


_SIGN = {"C+": 1.0, "C-": -1.0}


def riemann_invariants(u, a, gamma: float):
    """J+/- = u +/- 2a/(gamma-1)."""
    c = 2.0 / (gamma - 1.0)
    return u + c * a, u - c * a


def _entropy_term(a0, s0, a1, s1, gamma: float):
    """Midpoint entropy term of the C+/- relation from state 0 to state 1:
    J+ gains it along C+, J- loses it along C-."""
    return 0.5 * (a0 + a1) / (gamma * (gamma - 1.0) * 0.5 * (s0 + s1)) * (s1 - s0)


def compat_residual(start, end, family: str, m: GasModel):
    """Discrete compatibility residual |dJ+/- -/+ entropy term| along a C+ or
    C- connection between ``(u, a, s)`` states (floats or arrays).

    Midpoint-averaged coefficients; the residual of the exact relation is
    O(dt^2) on nodes sampled from a smooth solution.
    """
    if family not in _SIGN:
        raise ValueError(f"unknown family {family!r}")
    j = 0 if family == "C+" else 1
    (u0, a0, s0), (u1, a1, s1) = start, end
    dJ = riemann_invariants(u1, a1, m.gamma)[j] - riemann_invariants(u0, a0, m.gamma)[j]
    return abs(dJ - _SIGN[family] * _entropy_term(a0, s0, a1, s1, m.gamma))


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
#
# Each level costs a fixed number of numpy calls whatever its size, so the
# step and the scan below work on rows stacked per family, parent side or
# stencil node; every element still goes through the same IEEE operations
# in the same order as the single-row expressions in the comments.

_any = np.logical_or.reduce
_min, _max = np.minimum.reduce, np.maximum.reduce
_clip = np._core.umath.clip  # the ufunc behind ndarray.clip, without its checks
_FAMILY_SIGNS = np.array([[1.0], [-1.0]])  # rows C+, C- (the order of _SIGN)
_NODE_ROWS = np.arange(3)[:, None]
_OTHER = np.array([1, 0, 0, 2, 2, 1])  # rows 0-2, 3-5: each node's other two


def _stencil(xs: np.ndarray, xf: np.ndarray, i: np.ndarray):
    """Interpolation stencil on level ``xs`` at feet ``xf`` (``i``: the left
    node of each foot's segment), quadratic on the 3 nodes nearest each
    foot, linear on a 2-node level: node indices, node positions and the
    denominators of :func:`_weights`, one row per stencil node.  Frozen
    per unit process, so stencil switching cannot perturb the corrector's
    fixed point."""
    n = len(xs)
    if n < 3:
        idx = np.array([[0], [1]])
        xn = xs[idx]
        return idx, xn, xn[1] - xn[0]
    base = _clip(i - ((xf - xs[i]) < (xs[i + 1] - xf)), 0, n - 3)  # i - 1 or i
    idx = base + _NODE_ROWS
    xn = xs[idx]
    o = xn[_OTHER]
    # (x0 - x1)(x0 - x2), (x1 - x0)(x1 - x2), (x2 - x0)(x2 - x1)
    return idx, xn, (xn - o[:3]) * (xn - o[3:])


def _weights(stencil, xf: np.ndarray):
    """Lagrange weights of the stencil's nodes at feet ``xf``, one row per
    node: (xf - x1)(xf - x2) / den0 and its cyclic kin, or 1 - th, th."""
    _, xn, den = stencil
    if len(xn) == 2:
        th = (xf - xn[0]) / den
        return np.array((1.0 - th, th))
    o = (xf - xn)[_OTHER]
    return o[:3] * o[3:] / den


def _dot(w, v):
    """``w[0] v[0] + w[1] v[1] (+ w[2] v[2])`` over the rows, summed left
    to right."""
    p = w * v
    return p[0] + p[1] + p[2] if len(p) == 3 else p[0] + p[1]


def _advance_level(x, t, u, a, s, lab, gamma, tol, max_iter):
    """One interior-advancement step; returns new-level arrays or None on
    a degenerate unit process (index of the first bad pair is returned).
    The corrector loop computes only what changes per iteration."""
    xL, xR = x[:-1], x[1:]
    tL, tR = t[:-1], t[1:]
    uL, uR = u[:-1], u[1:]
    aL, aR = a[:-1], a[1:]
    sL, sR = s[:-1], s[1:]
    i = np.arange(len(xL))

    c = 2.0 / (gamma - 1.0)
    ge = gamma * (gamma - 1.0) * 0.5  # factor of the midpoint entropy term
    dx, dt, du = xR - xL, tR - tL, uR - uL
    t_max = np.maximum(tL, tR)
    # parents' C+ and C- slopes and Riemann invariants (riemann_invariants)
    lam_LR = np.array((uL + aL, uR - aR))
    J_L, J_R = uL + c * aL, uR - c * aR
    t_LR, a_LR, s_LR = np.array((tL, tR)), np.array((aL, aR)), np.array((sL, sR))
    # leading coefficient of the C0 foot quadratic below, and its guards
    c2 = 0.5 * du * dt
    c2_abs, c2_4, c2_div = np.abs(c2), 4.0 * c2, np.where(c2 == 0.0, 1.0, c2)
    # iterates (x, t, u, a, s) of the new nodes, one row each
    P = np.array((0.5 * (xL + xR), t_max + dx / (2.0 * np.maximum(aL, aR)),
                  0.5 * (uL + uR), 0.5 * (aL + aR), 0.5 * (sL + sR)))

    for it in range(max_iter):
        uP, aP = P[2], P[3]
        # 0.5 (lam_L + (uP + aP)) and 0.5 (lam_R + (uP - aP))
        lam = 0.5 * (lam_LR + (uP + _FAMILY_SIGNS * aP))
        lam_p, lam_m = lam[0], lam[1]
        denom = lam_p - lam_m
        bad = denom <= 0.0
        if _any(bad):
            return None, int(bad.argmax())
        lt = lam * t_LR
        tP = (dx + lt[0] - lt[1]) / denom
        B = tP - tL
        xP = xL + lam_p * B
        bad = tP <= t_max
        if _any(bad):
            return None, int(bad.argmax())

        # C0 foot on the parent segment: solve the quadratic in the segment
        # parameter theta from x_P - x_f = u_mid (t_P - t_f)
        U0 = uP + uL
        c1 = 0.5 * (U0 * dt - du * B) - dx
        c0 = xP - xL - 0.5 * U0 * B
        # stable quadratic roots: q = -(c1 + sign(c1) sqrt(disc))/2, roots
        # c0/q (small, the one we want) and q/c2; avoids the cancellation
        # the textbook formula suffers when c2 is tiny
        lin = c2_abs <= 1e-14 * (np.abs(c1) + c2_abs + 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = np.maximum(c1 * c1 - c2_4 * c0, 0.0)
            q = -0.5 * (c1 + np.where(c1 >= 0.0, 1.0, -1.0) * np.sqrt(disc))
            r_small = np.where(np.abs(q) > 0.0, c0 / q, 0.0)
            r_big = q / c2_div
            theta = np.where(np.abs(r_small - 0.5) <= np.abs(r_big - 0.5),
                             r_small, r_big)
            if _any(lin):
                theta = np.where(lin, -c0 / c1, theta)
        theta = _clip(theta, -0.5, 1.5)
        xf = xL + theta * dx
        if it == 0:
            stencil = _stencil(x, xf, i)
            s_st = s[stencil[0]]
        w = _weights(stencil, xf)
        sP = np.maximum(_dot(w, s_st), 1e-300)

        # compatibility along C+ and C- with midpoint coefficients: J+
        # gains the midpoint entropy term (_entropy_term) along C+, J-
        # loses it along C-
        e = 0.5 * (a_LR + aP) / (ge * (s_LR + sP)) * (sP - s_LR)
        rhs1, rhs2 = J_L + e[0], J_R - e[1]
        new = np.array((xP, tP, 0.5 * (rhs1 + rhs2), (rhs1 - rhs2) / (2.0 * c),
                        sP))
        bad = new[3] <= 0.0
        if _any(bad):
            return None, int(bad.argmax())
        change = _max(np.abs(new - P) / np.maximum(np.abs(new), 1.0), axis=None)
        P = new
        if change < tol:  # False for a NaN or infinite change
            break
    else:
        raise NonConvergence(
            f"corrector did not reach {tol:g} in {max_iter} iterations"
        )

    # labels at the final foot; C0 parent: the parent node nearest it
    labP = _dot(w, lab[stencil[0]])
    return (*P, labP, np.where(theta < 0.5, i, i + 1)), -1


def _level_gaps(net: CharNet, k: int):
    """Corrected gaps of level k, one row per family (C+, C-): each
    adjacent chain pair's gap carried onto the pair's common time with the
    family slopes u +/- a, and those times.  Row f's gap i belongs to the
    chain pair launched at i + lo (lo 0 for C+, k for C-); over the launch
    spacing ``np.diff(net.x[0])[i + lo]`` it is the tube-width ratio."""
    x, t = net.x[k], net.t[k]
    lam = net.u[k] + _FAMILY_SIGNS * net.a[k]
    t_bar = 0.5 * (t[:-1] + t[1:])
    right = x[1:] + lam[:, 1:] * (t_bar - t[1:])
    left = x[:-1] + lam[:, :-1] * (t_bar - t[:-1])
    return right - left, t_bar


def _scan_level_pair(net, k, dx0, gaps) -> Optional[EnvelopeEvent]:
    """Detect a same-family crossing between levels k and k+1.

    When both families show a sign change in the same level window (the
    mesh folds at an envelope, which inverts node ordering and drags the
    other family's gap negative too), the event belongs to the family
    whose chain tube had genuinely collapsed before the fold: the one
    with the smaller launch-normalized gap on the still-healthy level k
    (the first such pair; C+ on a tie).

    ``dx0`` is ``np.diff(net.x[0])``; ``gaps`` carries :func:`_level_gaps`
    by level from scan to scan, level k's in (where present), k+1's out.
    """
    g_prev, tb_prev = gaps.pop(k, None) or _level_gaps(net, k)
    g_new, tb_new = gaps[k + 1] = _level_gaps(net, k + 1)
    # a crossing needs a new gap <= 0; a NaN gap makes the minimum NaN
    if _min(g_new, axis=None, initial=np.inf) > 0.0:
        return None
    best = None
    best_gnorm = np.inf
    for f, family in enumerate(_SIGN):
        # chain pair of level-(k+1) gap i sits at level-k gap i + f
        inew = ((g_prev[f, f:f + g_new.shape[1]] > 0.0)
                & (g_new[f] <= 0.0)).nonzero()[0]
        if len(inew) == 0:
            continue
        ip = inew + f
        gp = g_prev[f, ip]
        th = gp / (gp - g_new[f, inew])
        t_star = (1 - th) * tb_prev[ip] + th * tb_new[inew]
        gnorm = gp / dx0[ip + f * k]  # C- chains start at launch pair k
        live = ((t_star > 0.0) & (gnorm < best_gnorm)).nonzero()[0]
        if len(live) == 0:
            continue
        j = live[gnorm[live].argmin()]
        i, n = ip[j], inew[j]
        x_prev = 0.5 * (net.x[k][i] + net.x[k][i + 1])
        x_new = 0.5 * (net.x[k + 1][n] + net.x[k + 1][n + 1])
        x_star = (1 - th[j]) * x_prev + th[j] * x_new
        best = EnvelopeEvent(float(t_star[j]), float(x_star), family)
        best_gnorm = gnorm[j]
    return best


def advance_net(
    initial: Sequence[np.ndarray],
    t_end: float,
    m: GasModel,
    corrector_tol: float = 1e-12,
    max_iter: int = 20,
    *,
    on_level: Callable[[CharNet, int], object] = lambda net, k: None,
) -> CharNet:
    """Advance the characteristic net from t=0 initial data ``(x, u, a, s)``.

    Stops at ``t_end``, at the first envelope event (recorded on
    ``net.envelope``), or when the shrinking domain of determinacy is
    exhausted.  Each level but the initial one is released once the scan
    of the level pair after it is done (see :class:`CharNet`).
    ``on_level(net, k)`` is called once for each level k as it is made,
    while ``net`` holds levels 0, k - 1 and k: for the initial level before
    the first step, for each new level once the scan of its level pair is
    done and before level k - 1 is released.

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
    dx0, gaps = np.diff(x0), {}  # gaps: the last level's, by level
    on_level(net, 0)

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
            g = (gaps.get(k) or _level_gaps(net, k))[0][:, bad]
            gnorm = {fam: g[f] / dx0[bad + f * k] for f, fam in enumerate(_SIGN)}
            fam = min(gnorm, key=gnorm.get)
            t_star = max(float(net.t[k][bad]), 1e-300)
            x_star = float(0.5 * (net.x[k][bad] + net.x[k][bad + 1]))
            net.envelope = EnvelopeEvent(t_star, x_star, fam)
            break
        for lst, arr in zip(levels, result):
            lst.append(arr)
        event = _scan_level_pair(net, k, dx0, gaps)
        on_level(net, k + 1)
        if k >= 2:
            for lst in levels:
                lst[k - 1] = None
        if event is not None:
            net.envelope = event
            break
        if net.t[-1].min() >= t_end:
            break
    return net


# ---------------------------------------------------------------------------
# net analyses


_BLOCK_NODES = 1 << 13  # nodes per block of levels that ResidualFold folds


class ResidualFold:
    """Constancy defects ``{"C0", "C+", "C-"}`` of the families' conserved
    quantities on a net, folded in level by level from ``advance_net``'s
    ``on_level(net, k)``; :meth:`result` returns them.

    * ``"C0"``: max over nodes of |s - s0(label)|, the drift of entropy from
      its value at the trajectory's launch point (s0 interpolated on the
      initial level with the same quadratic stencil the solver uses).
    * ``"C+"`` / ``"C-"``: max per-link change of the matching Riemann
      invariant u +/- 2a/(gamma-1) along the family's chains, with the C+
      parent i and the C- parent i + 1 that :meth:`CharNet.parents` states.

    Levels are held until they reach ``_BLOCK_NODES`` nodes (at least one)
    and folded as one block, whose last level is the next one's parent, so
    memory stays bounded.  A NaN drift makes its family's defect NaN, which
    no report accepts as a result.
    """

    def __call__(self, net: CharNet, k: int):
        if k == 0:
            self._x0, self._s0, self._gamma = net.x[0], net.s[0], net.gamma
            self._per_block = max(1, _BLOCK_NODES // len(net.x[0]))
            self._worst = dict.fromkeys(("C0", "C+", "C-"), 0.0)
            self._levels = []  # the parent level, then those not yet folded
        self._levels.append((net.u[k], net.a[k], net.s[k], net.labels[k]))
        if len(self._levels) > self._per_block:
            self._fold()

    def _fold(self):
        (u, a, s, labels), xs0 = zip(*self._levels), self._x0
        pos = np.clip(np.concatenate(labels[1:]), xs0[0], xs0[-1])
        i = np.clip(np.searchsorted(xs0, pos) - 1, 0, len(xs0) - 2)
        stencil = _stencil(xs0, pos, i)
        s0_lab = _dot(_weights(stencil, pos), self._s0[stencil[0]])
        # node j (flat index f) of a level after the parent level u[0] has
        # its C+ parent at f - (size of the level before)
        J_plus, J_minus = riemann_invariants(np.concatenate(u),
                                             np.concatenate(a), self._gamma)
        n = list(map(len, u))
        par = np.arange(n[0], sum(n)) - np.repeat(n[:-1], n[1:])
        for fam, drift in (("C0", np.concatenate(s[1:]) - s0_lab),
                           ("C+", J_plus[n[0]:] - J_plus[par]),
                           ("C-", J_minus[n[0]:] - J_minus[par + 1])):
            self._worst[fam] = np.maximum(self._worst[fam],
                                          np.abs(drift).max())
        del self._levels[:-1]

    def result(self) -> dict:
        """The defects of the levels taken so far."""
        if len(self._levels) > 1:
            self._fold()
        return {fam: float(v) for fam, v in self._worst.items()}


def detect_envelope(initial: Sequence[np.ndarray]) -> Optional[EnvelopeEvent]:
    """Straight-characteristic estimate of the first same-family crossing
    from t=0 initial data ``(x, u, a, s)``.

    With lam = u +/- a per family, the earliest crossing is
    t* = -1 / min(dlam/dx) over points where the slope gradient is
    negative.  Returns None when no crossing occurs.  The crossing found
    on a net is ``CharNet.envelope``.
    """
    x, u, a, _ = _initial_arrays(initial)
    # slope gradients at the rounding-noise level of the stencil are zero;
    # max|u| + max(a) is the rounding scale of lam's terms, in any units
    noise = 1024.0 * np.finfo(float).eps \
        * float(np.max(np.abs(u)) + np.max(a)) / float(np.min(np.diff(x)))
    best = None
    for family, sign in _SIGN.items():
        lam = u + sign * a
        dlam = np.gradient(lam, x, edge_order=2)
        dlam = np.where(np.abs(dlam) <= noise, 0.0, dlam)
        if np.min(dlam) < 0.0:
            i = int(np.argmin(dlam))
            t_star = -1.0 / float(dlam[i])
            x_star = float(x[i] + lam[i] * t_star)
            if best is None or t_star < best.t_star:
                best = EnvelopeEvent(t_star, x_star, family)
    return best
