"""Weak discontinuities: one-sided normal-derivative jumps and their checks.

Across the surfaces where the flow's degenerate transformations live, the
flow quantities stay continuous but their derivatives normal to the surface
jump.  Two relations tie the jumps together:

* across a trajectory (contact): [da/deta1] = [ds/deta1] a / (2 gamma s),
  with the velocity and pressure derivatives continuous;
* across a C+/C- characteristic: [du/deta] = +/- [da/deta] 2/(gamma-1),
  with the entropy derivative continuous.

Both close exactly in the entropy function s = p/rho**gamma, the package's
one entropy variable: with continuous p- and u-derivatives,
a^2 = gamma p^((gamma-1)/gamma) s^(1/gamma) differentiates to precisely the
contact coefficient.

Jumps are measured with three-point one-sided stencils offset from the
surface (samples at 1, 2, 3 normal spacings on each side; the on-surface
point is excluded because interpolating across the derivative kink would
contaminate it).  The stencils are second order and exact on piecewise
linear profiles.  Oblique surfaces are sampled along the normal by bilinear
interpolation, which costs one order of jump accuracy; the sampling offset
keeps every stencil cell strictly on one side of the surface.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import TooCloseToBoundary, WrongSurfaceKind
from .fields import FieldSet, StructuredGrid2D, interp_bilinear
from .thermo import GasModel, PrimitiveState

__all__ = [
    "SurfaceKind",
    "Surface",
    "WeakDiscontinuity",
    "JumpCheckReport",
    "synthesize_contact_field",
    "measure_jump",
    "measure_discontinuity",
    "contact_jump_check",
    "char_jump_check",
    "consistency_determinant",
]


class SurfaceKind(enum.Enum):
    TRAJECTORY = "trajectory"
    CHARACTERISTIC_PLUS = "characteristic_plus"
    CHARACTERISTIC_MINUS = "characteristic_minus"


@dataclass(frozen=True)
class Surface:
    """A discontinuity-bearing surface: its kind and local unit normal."""

    kind: SurfaceKind
    normal: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("surface normal must be unit length")
        object.__setattr__(self, "normal", n)


@dataclass(frozen=True)
class WeakDiscontinuity:
    """Measured one-sided normal-derivative jumps of u, a, s, p."""

    surface: Surface
    jumps: Dict[str, float]

    def __post_init__(self):
        for key in ("u", "a", "s", "p"):
            if key not in self.jumps:
                raise ValueError(f"missing jump entry {key!r}")
            if not np.isfinite(self.jumps[key]):
                raise ValueError(f"jump {key!r} is not finite")


@dataclass(frozen=True)
class JumpCheckReport:
    """One evaluated jump relation.

    ``rel_error`` folds in the side conditions (the derivatives that must
    *not* jump, normalized by their contamination of the relation), so
    ``passed`` is exactly ``rel_error <= tol``.
    """

    relation: str  # "contact" | "char"
    lhs: float
    rhs: float
    rel_error: float
    passed: bool
    side_errors: Dict[str, float] = field(default_factory=dict)

    def to_record(self) -> dict:
        return {key: getattr(self, key)
                for key in ("relation", "lhs", "rhs", "rel_error", "passed")}


def _guarded_rel(num: float, scale: float) -> float:
    """Relative error with a 1e-12 absolute fallback when both sides vanish."""
    if scale <= 1e-12:
        return 0.0 if abs(num) <= 1e-12 else abs(num) / 1e-300
    return abs(num) / scale


# ---------------------------------------------------------------------------
# synthesis and measurement


def synthesize_contact_field(base: PrimitiveState, delta_s_slope: float,
                             grid: StructuredGrid2D, m: GasModel) -> FieldSet:
    """Steady stratified field with a prescribed entropy-derivative kink.

    Pressure and (horizontal) velocity are uniform, so their normal
    derivatives stay continuous; s(y) = s0 + delta max(0, y - y0) puts a
    derivative break of exactly ``delta_s_slope`` on the mid-row trajectory
    y = y0, and the density follows from rho = (p/s)^(1/gamma).
    """
    if len(base.u) != 2 or base.u[1] != 0.0:
        raise ValueError("base velocity must be horizontal (u, 0)")
    y0 = grid.y[(grid.ny - 1) // 2]
    _, Y = np.meshgrid(grid.x, grid.y)
    s0 = base.p / base.rho ** m.gamma
    s = s0 + delta_s_slope * np.maximum(0.0, Y - y0)
    if np.any(s <= 0.0):
        raise ValueError("entropy kink drives s nonpositive on this grid")
    rho = (base.p / s) ** (1.0 / m.gamma)
    return FieldSet(
        grid,
        rho=rho,
        u=np.full(grid.shape, base.u[0]),
        v=np.zeros(grid.shape),
        p=np.full(grid.shape, base.p),
    )


def _normal_spacing(grid: StructuredGrid2D, normal: np.ndarray) -> float:
    nx_, ny_ = abs(normal[0]), abs(normal[1])
    if nx_ > 1.0 - 1e-12:
        return grid.hx
    if ny_ > 1.0 - 1e-12:
        return grid.hy
    # oblique: keep every stencil cell clear of the surface
    return 2.5 * max(grid.hx, grid.hy)


def measure_jump(f: np.ndarray, grid: StructuredGrid2D, surface: Surface,
                 point) -> float:
    """(plus side) - (minus side) one-sided normal derivative at a surface
    point, by offset three-point second-order stencils.

    Raises
    ------
    TooCloseToBoundary
        If any stencil sample would leave the grid.
    """
    n = surface.normal
    h = _normal_spacing(grid, n)
    x0, y0 = float(point[0]), float(point[1])
    # quadratic fit through offsets (h, 2h, 3h), derivative at the surface
    k = np.array([1, 2, 3, -1, -2, -3])
    px, py = x0 + k * h * n[0], y0 + k * h * n[1]
    inside = grid.contains(px, py)
    if not inside.all():
        raise TooCloseToBoundary(f"stencil sample at offset "
                                 f"{k[np.argmin(inside)]} leaves the grid")
    p1, p2, p3, m1, m2, m3 = interp_bilinear(f, grid, np.column_stack([px, py]))
    fp = (-5.0 * p1 + 8.0 * p2 - 3.0 * p3) / (2.0 * h)
    fm = (5.0 * m1 - 8.0 * m2 + 3.0 * m3) / (2.0 * h)
    return float(fp - fm)


def measure_discontinuity(fs: FieldSet, m: GasModel, surface: Surface,
                          point) -> WeakDiscontinuity:
    """Measure all four normal-derivative jumps (u, a, s, p) at a point."""
    a = np.sqrt(m.gamma * fs.p / fs.rho)
    s = fs.p / fs.rho ** m.gamma
    jumps = {
        "u": measure_jump(fs.u, fs.grid, surface, point),
        "a": measure_jump(a, fs.grid, surface, point),
        "s": measure_jump(s, fs.grid, surface, point),
        "p": measure_jump(fs.p, fs.grid, surface, point),
    }
    return WeakDiscontinuity(surface=surface, jumps=jumps)


# ---------------------------------------------------------------------------
# the two jump relations


def contact_jump_check(wd: WeakDiscontinuity, q: PrimitiveState,
                       m: GasModel, tol: float = 1e-2) -> JumpCheckReport:
    """Trajectory-normal relation [da/deta1] = [ds/deta1] a/(2 gamma s).

    ``q`` is the primitive state on the surface; a and s follow from it.
    Side conditions: the velocity and pressure derivatives must not jump;
    their measured jumps are folded into ``rel_error`` scaled by how much
    they would contaminate the relation.
    """
    if wd.surface.kind is not SurfaceKind.TRAJECTORY:
        raise WrongSurfaceKind("contact relation applies to trajectory surfaces")
    a = math.sqrt(m.gamma * q.p / q.rho)
    s = q.p / q.rho ** m.gamma
    lhs = wd.jumps["a"]
    rhs = wd.jumps["s"] * a / (2.0 * m.gamma * s)
    scale = max(abs(lhs), abs(rhs))
    side = {
        # u-jump competes directly with the a-jump (same units)
        "u": _guarded_rel(wd.jumps["u"], scale),
        # p-jump contaminates [da] by (gamma-1) a/(2 gamma p) [dp]
        "p": _guarded_rel((m.gamma - 1.0) * a / (2.0 * m.gamma * q.p)
                          * wd.jumps["p"], scale),
    }
    rel = max(_guarded_rel(lhs - rhs, scale), *side.values())
    return JumpCheckReport(relation="contact", lhs=lhs, rhs=rhs,
                           rel_error=rel, passed=rel <= tol,
                           side_errors=side)


def char_jump_check(wd: WeakDiscontinuity, m: GasModel,
                    tol: float = 0.02) -> JumpCheckReport:
    """Characteristic-normal relation [du/deta] = +/- [da/deta] 2/(gamma-1).

    Plus sign for the C+ family, minus for C-; the entropy derivative must
    not jump and enters ``rel_error`` through its compatibility-relation
    coefficient a/(gamma (gamma-1) s).
    """
    if wd.surface.kind is SurfaceKind.CHARACTERISTIC_PLUS:
        sign = 1.0
    elif wd.surface.kind is SurfaceKind.CHARACTERISTIC_MINUS:
        sign = -1.0
    else:
        raise WrongSurfaceKind("characteristic relation needs a C+ or C- surface")
    lhs = wd.jumps["u"]
    rhs = sign * wd.jumps["a"] * 2.0 / (m.gamma - 1.0)
    scale = max(abs(lhs), abs(rhs))
    side = {"s": _guarded_rel(wd.jumps["s"] * 2.0 / (m.gamma - 1.0), scale)}
    rel = max(_guarded_rel(lhs - rhs, scale), *side.values())
    return JumpCheckReport(relation="char", lhs=lhs, rhs=rhs,
                           rel_error=rel, passed=rel <= tol,
                           side_errors=side)


# ---------------------------------------------------------------------------
# consistency determinant


def consistency_determinant(q: PrimitiveState, slope: float,
                            m: GasModel) -> float:
    """Determinant of the jump system's normal-derivative coefficients.

    For the 1-D unsteady system in (rho, u, s) with p = p(rho, s), the
    homogeneous jump system is singular exactly on the characteristic
    directions; the determinant factors as (slope-u)((slope-u)^2 - a^2),
    with u the signed velocity of the 1-D state ``q``.
    """
    if len(q.u) != 1:
        raise ValueError(f"need a 1-D state, got {len(q.u)} velocity components")
    a2 = m.gamma * q.p / q.rho  # dp/drho at constant s
    p_s = q.rho ** m.gamma  # dp/ds at constant rho
    lam = slope - q.u[0]
    mat = np.array([
        [lam, -q.rho, 0.0],
        [-a2 / q.rho, lam, -p_s / q.rho],
        [0.0, 0.0, lam],
    ])
    return float(np.linalg.det(mat))
