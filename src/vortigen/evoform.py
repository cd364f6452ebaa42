"""Entropy evolutionary-form coefficients, commutator and classification.

The entropy gradient projected on the accompanying frame of a trajectory
defines a 1-form with an along-trajectory coefficient A1 (from the energy
balance; zero for inviscid flow, transport-driven otherwise) and a normal
coefficient A_nu (from the momentum balance in Crocco form).  The form's
commutator

    K = dA_nu/dxi1 - dA1/dxi_nu

is the nonequilibrium indicator: any term feeding it marks an internal
force and an instability source, and its attribution names the source.

The normal coefficient is assembled from per-term *vector* fields
G_term(x, y) so that A_nu = G . n on the frame normal; the commutator
takes the frame from the trajectory itself (``frame_along``) and
contracts the node-field Jacobian of G with it (t . grad(G . n) with the
frame held fixed at each sample, dropping manifold-deformation terms).
This keeps every derivative on the grid stencils, where it is
second-order accurate, instead of differencing bilinear-interpolated
samples, which would cost an order.

Sign conventions: the momentum balance in Crocco form reads
T grad s = grad h0 - U x rot U - F + dU/dt (the ``CONSISTENT`` vortical
sign, which the steady homentropic shear-flow solution validates);
``PAPER_LITERAL`` keeps the + vortical sign for fidelity with the source
formulation, and is retained behind the ``sign`` switch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import MissingSnapshots, NonPhysicalState, ShapeMismatch
from .fields import (
    FieldSet,
    StructuredGrid2D,
    Trajectory,
    curl2d,
    frame_along,
    gradient,
    interp_bilinear,
    sample_tiles,
    time_derivative,
)
from .thermo import GasModel

__all__ = [
    "ATTRIBUTION_ORDER",
    "CroccoSign",
    "A1Variant",
    "ForceKind",
    "ForceModel",
    "TransportModel",
    "A1Coefficient",
    "Commutator",
    "FlowRegime",
    "LagrangeReport",
    "EquilibriumClass",
    "crocco_normal_coefficient",
    "sample_anu",
    "ideal_a1",
    "viscous_a1",
    "commutator",
    "lagrange_criterion",
    "classify_regime",
    "equilibrium_classifier",
    "truncation_estimate",
    "equilibrium_tolerance",
]

ATTRIBUTION_ORDER = (
    "nonstationarity",
    "vortical",
    "force",
    "h0_gradient",
    "heatflux_divergence",
    "conduction_production",
    "viscous_production",
)


class CroccoSign(enum.Enum):
    CONSISTENT = "consistent"
    PAPER_LITERAL = "paper"


class A1Variant(enum.Enum):
    PAPER_LITERAL = "paper"
    STANDARD_PRODUCTION = "standard"


class ForceKind(enum.Enum):
    NONE = "none"
    POTENTIAL = "potential"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class ForceModel:
    """Mass force specification: none, potential phi (F = -grad phi),
    or tabulated node components."""

    kind: ForceKind = ForceKind.NONE
    phi: Optional[np.ndarray] = None
    fx: Optional[np.ndarray] = None
    fy: Optional[np.ndarray] = None

    @classmethod
    def none(cls):
        return cls(ForceKind.NONE)

    @classmethod
    def potential(cls, phi):
        return cls(ForceKind.POTENTIAL, phi=np.asarray(phi, float))

    @classmethod
    def tabulated(cls, fx, fy):
        return cls(ForceKind.TABULATED,
                   fx=np.asarray(fx, float), fy=np.asarray(fy, float))

    def validate(self, grid: StructuredGrid2D):
        if self.kind is ForceKind.POTENTIAL:
            grid.check_conforms(self.phi, "phi")
        elif self.kind is ForceKind.TABULATED:
            grid.check_conforms(self.fx, "fx")
            grid.check_conforms(self.fy, "fy")

    def window(self, rows: slice, cols: slice) -> "ForceModel":
        """The force on the nodes ``[rows, cols]``, as ``FieldSet.window``."""
        crop = lambda arr: None if arr is None else np.asarray(arr)[rows, cols]
        return ForceModel(self.kind, crop(self.phi), crop(self.fx),
                          crop(self.fy))

    def components(self, grid: StructuredGrid2D):
        """(Fx, Fy) node fields, or None when no force is modeled."""
        if self.kind is ForceKind.NONE:
            return None
        if self.kind is ForceKind.POTENTIAL:
            px, py = gradient(self.phi, grid)
            return -px, -py
        return self.fx, self.fy


@dataclass(frozen=True)
class TransportModel:
    """Newtonian/Fourier transport closure: q = -k grad T, Stokes stress."""

    mu: float
    k: float

    def __post_init__(self):
        if self.mu < 0.0 or self.k < 0.0:
            raise ValueError("transport coefficients must be nonnegative")


@dataclass(frozen=True)
class A1Coefficient:
    """Along-trajectory coefficient as a node field plus its terms and
    their node gradients, stacked (2, ny, nx) per term.

    ``field`` is None for the inviscid (identically zero) coefficient.
    """

    field: Optional[np.ndarray]
    pieces: Dict[str, np.ndarray]
    gradients: Dict[str, np.ndarray]

    @property
    def is_zero(self) -> bool:
        return self.field is None

    def sample_along(self, traj: Trajectory, grid: StructuredGrid2D) -> np.ndarray:
        if self.is_zero:
            return np.zeros(len(traj))
        return interp_bilinear(self.field, grid, traj.points)


@dataclass(frozen=True)
class Commutator:
    """The evolutionary form along a trajectory: arclength, A1 and A_nu
    samples, K and its source attribution.

    The attribution components sum to K (both are evaluated through the
    same linear derivative operators, so they agree to rounding).
    """

    xi: np.ndarray
    a1: np.ndarray
    anu: np.ndarray
    K: np.ndarray
    attribution: Dict[str, np.ndarray]


class FlowRegime(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    SONIC = "sonic"


@dataclass(frozen=True)
class LagrangeReport:
    """Eddy-free stable-flow conditions: all three must hold."""

    stationary: bool
    potential: bool
    simply_connected: bool

    @property
    def predicts_equilibrium(self) -> bool:
        return self.stationary and self.potential and self.simply_connected


@dataclass(frozen=True)
class EquilibriumClass:
    kind: str  # "locally_equilibrium" | "nonequilibrium"
    dominant: Optional[str]
    magnitude: float


# ---------------------------------------------------------------------------
# coefficient construction


def crocco_normal_coefficient(
    fs: FieldSet,
    forces: ForceModel,
    m: GasModel,
    sign: CroccoSign = CroccoSign.CONSISTENT,
    time_index: int = 0,
    include_time_term: Optional[bool] = None,
) -> Dict[str, np.ndarray]:
    """Normal coefficient A_nu = (grad h0 -/+ U x rot U - F + dU/dt) . n / T.

    Returns A_nu split into its additive terms: per term name, the vector
    node field G whose frame-normal component is the term (A_nu = G . n)
    and its node Jacobian, stacked (6, ny, nx) as (Gx, Gy, dGx/dx, dGx/dy,
    dGy/dx, dGy/dy); ``commutator`` contracts the Jacobian directly.

    The vortical sign is minus for ``CONSISTENT`` (the momentum-balance
    identity) and plus for ``PAPER_LITERAL``.  The time term needs at least
    two snapshots; ``include_time_term=None`` enables it automatically when
    a time series is attached.  The field set's primary arrays should hold
    the state at ``time_index`` so the spatial and temporal terms refer to
    the same instant.

    Memory: the result keeps 6 node fields per term, two to four terms.
    Each stack is written in place, so the call needs only a few node
    fields beyond them while it runs (T, h0 and stencil temporaries).
    ``sample_anu`` calls this only on small windows of the field set, so
    a run never holds the stacks for the whole grid.

    Raises
    ------
    MissingSnapshots
        When the time term is requested explicitly without a time series.
    """
    grid = fs.grid
    forces.validate(grid)
    has_series = fs.snapshots is not None and len(fs.snapshots) >= 2
    if include_time_term is None:
        include_time_term = has_series
    elif include_time_term and not has_series:
        raise MissingSnapshots("time term requested but no snapshot series")

    T, h0 = _temperature_and_h0(fs, m)
    vort_sign = 1.0 if sign is CroccoSign.PAPER_LITERAL else -1.0
    shape = (6,) + grid.shape
    pieces = {}

    # rows 0-1 take each term's T (Gx, Gy); the loop at the end divides
    # them by T and fills rows 2-5 with their node gradients
    g = pieces["h0_gradient"] = np.empty(shape)
    g[0], g[1] = gradient(h0, grid)
    del h0

    g = pieces["vortical"] = np.empty(shape)
    g[0], g[1] = fs.v, -fs.u
    g[:2] *= vort_sign
    g[:2] *= curl2d(fs.u, fs.v, grid)

    fcomp = forces.components(grid)
    if fcomp is not None:
        g = pieces["force"] = np.empty(shape)
        g[0], g[1] = fcomp
        del fcomp
        np.negative(g[:2], out=g[:2])

    if include_time_term:
        g = pieces["nonstationarity"] = np.empty(shape)
        g[0] = time_derivative(fs, "u", time_index)
        g[1] = time_derivative(fs, "v", time_index)

    for g in pieces.values():
        g[:2] /= T
        g[2], g[3] = gradient(g[0], grid)
        g[4], g[5] = gradient(g[1], grid)
    return pieces


# the nodes that G's Jacobian reaches: G takes a gradient (h0, the curl
# or the potential), and the Jacobian a gradient of G
_ANU_HALO = 2


def sample_anu(fs: FieldSet, forces: ForceModel, m: GasModel, points, *,
               sign: CroccoSign = CroccoSign.CONSISTENT, time_index: int = 0,
               include_time_term: Optional[bool] = None,
               ) -> Dict[str, np.ndarray]:
    """The term stacks of ``crocco_normal_coefficient`` sampled at the
    (n, 2) ``points``: per term, in its order, a (6, n) array.

    The stacks are built tile by tile (``fields.sample_tiles``) on the
    tiles that hold a point.  np.gradient's interior formula reads only
    neighbours, so on a tile's nodes the stacks of the tile widened by two
    nodes equal the full grid's, and each sample equals ``interp_bilinear``
    of the full-grid stack, bit for bit.
    """
    forces.validate(fs.grid)

    def build(rows, cols):
        return crocco_normal_coefficient(
            fs.window(rows, cols), forces.window(rows, cols), m, sign,
            time_index, include_time_term)
    return sample_tiles(build, fs.grid, points, _ANU_HALO)


def _temperature(fs: FieldSet, m: GasModel) -> np.ndarray:
    """Node field T = p / (rho R)."""
    if np.any(fs.rho <= 0.0) or np.any(fs.p <= 0.0):
        raise NonPhysicalState("field arrays must have rho > 0 and p > 0")
    return fs.p / (fs.rho * m.R)


def _temperature_and_h0(fs: FieldSet, m: GasModel):
    """Node fields T and h0 = c_v T + p / rho + |U|^2 / 2, summed in that
    order."""
    T = _temperature(fs, m)
    h0 = m.c_v * T
    h0 += fs.p / fs.rho
    h0 += 0.5 * (fs.u ** 2 + fs.v ** 2)
    return T, h0


def ideal_a1() -> A1Coefficient:
    """The inviscid along-trajectory coefficient: identically zero."""
    return A1Coefficient(field=None, pieces={}, gradients={})


def viscous_a1(
    fs: FieldSet,
    tm: TransportModel,
    m: GasModel,
    variant: A1Variant = A1Variant.PAPER_LITERAL,
) -> A1Coefficient:
    """Transport contribution to the along-trajectory coefficient.

    ``PAPER_LITERAL`` evaluates, term by term,

        (1/rho) d/dx_i(-q_i/T) - (q_i/(rho T)) dT/dx_i
            + (tau_ki/rho) du_i/dx_k

    with Fourier flux and Newtonian/Stokes stress.  ``STANDARD_PRODUCTION``
    replaces the last two terms by the entropy-production forms
    k |grad T|^2/(rho T^2) and tau:grad u/(rho T).  The two production
    terms are returned as separate pieces; both are evaluated through
    sum-of-squares groupings and are nonnegative nodewise in either
    variant.
    """
    if fs.grid.nx < 5 or fs.grid.ny < 5:
        raise ShapeMismatch("need nx, ny >= 5 to resolve second derivatives")
    grid = fs.grid
    T = _temperature(fs, m)
    rho = fs.rho

    Tx, Ty = gradient(T, grid)
    qx, qy = -tm.k * Tx, -tm.k * Ty

    d1x, _ = gradient(-qx / T, grid)
    _, d1y = gradient(-qy / T, grid)
    heatflux_divergence = (d1x + d1y) / rho

    conduction = (tm.k * Tx * Tx + tm.k * Ty * Ty) / (rho * T)

    ux, uy = gradient(fs.u, grid)
    vx, vy = gradient(fs.v, grid)
    # tau : grad u regrouped as a sum of squares (Stokes hypothesis)
    tau_ddu = tm.mu * ((4.0 / 3.0) * (ux - 0.5 * vy) ** 2 + vy ** 2
                       + (uy + vx) ** 2)
    viscous = tau_ddu / rho

    if variant is A1Variant.STANDARD_PRODUCTION:
        conduction = conduction / T
        viscous = viscous / T

    pieces = {
        "heatflux_divergence": heatflux_divergence,
        "conduction_production": conduction,
        "viscous_production": viscous,
    }
    total = heatflux_divergence + conduction + viscous
    return A1Coefficient(field=total, pieces=pieces, gradients={
        name: np.stack(gradient(piece, grid)) for name, piece in pieces.items()})


# ---------------------------------------------------------------------------
# commutator


def commutator(
    anu: Dict[str, np.ndarray],
    a1: A1Coefficient,
    traj: Trajectory,
    grid: StructuredGrid2D,
) -> Commutator:
    """A1, A_nu and K = dA_nu/dxi1 - dA1/dxi_nu along the trajectory, with
    K's attribution.

    ``anu`` is the A_nu term samples of ``sample_anu`` at the trajectory's
    points, (6, n) per term.  The accompanying frame (unit tangent t, left
    normal n) comes from the trajectory itself, through ``frame_along``.
    Each term's (Gx, Gy) rows dotted with the frame normal give the term's
    A_nu, and t . J . n of its Jacobian rows (the frame frozen at each
    sample) its xi1-derivative.  A_nu is the sum of the terms in ``anu``'s
    order.  A1 terms contribute through minus their frame-normal
    derivative, sampled from their node gradient stacks on ``grid``.
    """
    t, n = frame_along(traj)
    anu_terms, attribution = [], {}
    for name, (gx, gy, dxx, dxy, dyx, dyy) in anu.items():
        anu_terms.append(gx * n[:, 0] + gy * n[:, 1])
        attribution[name] = ((t[:, 0] * dxx + t[:, 1] * dxy) * n[:, 0]
                             + (t[:, 0] * dyx + t[:, 1] * dyy) * n[:, 1])
    for name, grad in a1.gradients.items():
        sx, sy = interp_bilinear(grad, grid, traj.points)
        attribution[name] = -(sx * n[:, 0] + sy * n[:, 1])

    return Commutator(xi=traj.arclength.copy(), a1=a1.sample_along(traj, grid),
                      anu=np.sum(anu_terms, axis=0),
                      K=np.sum(list(attribution.values()), axis=0),
                      attribution=attribution)


# ---------------------------------------------------------------------------
# classification


def lagrange_criterion(fs: FieldSet, forces: ForceModel) -> LagrangeReport:
    """Eddy-free stable-flow test: stationary + potential force +
    simply connected domain.  The domain is the whole grid, which is
    simply connected: no input marks nodes outside it."""
    stationary = True
    if fs.snapshots is not None and len(fs.snapshots) >= 2:
        t0 = fs.snapshots[0].t
        t1 = fs.snapshots[-1].t
        span = max(t1 - t0, 1e-300)
        worst = 0.0
        for name in ("rho", "u", "v", "p"):
            scale = max(float(np.max(np.abs(getattr(fs, name)))), 1e-300)
            for k in range(len(fs.snapshots)):
                df = time_derivative(fs, name, k)
                worst = max(worst, float(np.max(np.abs(df))) * span / scale)
        stationary = worst <= 1e-9

    if forces.kind is ForceKind.TABULATED:
        forces.validate(fs.grid)
        c = curl2d(forces.fx, forces.fy, fs.grid)
        fscale = max(float(np.max(np.hypot(forces.fx, forces.fy))), 1e-300)
        lscale = min(fs.grid.hx * (fs.grid.nx - 1), fs.grid.hy * (fs.grid.ny - 1))
        potential = float(np.max(np.abs(c))) <= 1e-8 * fscale / lscale
    else:
        potential = True

    # The domain is the grid's rectangle, which is simply connected.
    return LagrangeReport(stationary=stationary, potential=potential,
                          simply_connected=True)


def classify_regime(speed: float, a: float) -> FlowRegime:
    """Hyperbolic (speed > a), elliptic (speed < a) or sonic within 1e-12 a,
    for a flow speed and the sound speed at the same point."""
    if abs(speed - a) <= 1e-12 * a:
        return FlowRegime.SONIC
    return FlowRegime.HYPERBOLIC if speed > a else FlowRegime.ELLIPTIC


def equilibrium_classifier(c: Commutator, tol: float) -> EquilibriumClass:
    """Vanishing-commutator test; the dominant source is the attribution
    term with the largest |integral| along the trajectory."""
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    magnitude = float(np.max(np.abs(c.K))) if len(c.K) else 0.0
    if magnitude <= tol:
        return EquilibriumClass("locally_equilibrium", None, magnitude)
    best_name, best_val = None, -1.0
    for name, comp in c.attribution.items():
        val = abs(float(np.trapezoid(comp, c.xi)))
        if val > best_val:
            best_name, best_val = name, val
    return EquilibriumClass("nonequilibrium", best_name, magnitude)


# ---------------------------------------------------------------------------
# truncation-based tolerances


@dataclass(frozen=True)
class TruncationEstimate:
    anu: float
    commutator: float


def _third_derivative_scale(f: np.ndarray, grid: StructuredGrid2D) -> float:
    out = 0.0
    if grid.nx >= 4:
        out = max(out, float(np.max(np.abs(np.diff(f, 3, axis=1)))) / grid.hx ** 3)
    if grid.ny >= 4:
        out = max(out, float(np.max(np.abs(np.diff(f, 3, axis=0)))) / grid.hy ** 3)
    return out


def truncation_estimate(fs: FieldSet, m: GasModel) -> TruncationEstimate:
    """Stencil-truncation scale of A_nu and K on this grid and data.

    Second-order stencils err as h^2 f'''/6; third derivatives are
    estimated by third differences of the ingredient fields, and a
    rounding-amplification floor eps |f| / h guards exactly representable
    (polynomial) fields whose truncation term vanishes.
    """
    grid = fs.grid
    T, h0 = _temperature_and_h0(fs, m)
    t_min = float(np.min(T))
    v_max = float(np.max(fs.speed))
    h = max(grid.hx, grid.hy)
    h_min = min(grid.hx, grid.hy)

    m3 = (_third_derivative_scale(h0, grid)
          + v_max * (_third_derivative_scale(fs.u, grid)
                     + _third_derivative_scale(fs.v, grid)))
    eps = np.finfo(float).eps
    mag = float(np.max(np.abs(h0))) + v_max ** 2 + v_max * v_max
    floor_anu = 4096.0 * eps * mag / (t_min * h_min)
    anu = (h * h / 6.0) * m3 / t_min + floor_anu

    lx = grid.hx * (grid.nx - 1)
    ly = grid.hy * (grid.ny - 1)
    l_char = min(lx, ly)
    commut = anu / l_char + floor_anu / h_min
    return TruncationEstimate(anu=anu, commutator=commut)


def equilibrium_tolerance(fs: FieldSet, m: GasModel) -> float:
    """Default commutator tolerance: 10x the stencil truncation estimate."""
    return 10.0 * truncation_estimate(fs, m).commutator
