"""Ideal-gas state derivations and the local thermodynamic consistency check.

The entropy variable is the entropy function s = p / rho**gamma, the one
under which the characteristic compatibility relations and the
derivative-jump relation across a trajectory (coefficient a / (2*gamma*s))
close exactly.  Only ``gibbs_residual`` needs the physical specific entropy
c_v * ln(s), and it forms that itself.

All quantities are per unit mass, SI units unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NonPhysicalState

__all__ = [
    "GasModel",
    "PrimitiveState",
    "DerivedState",
    "derive_state",
    "gibbs_residual",
]


@dataclass(frozen=True)
class GasModel:
    """Calorically perfect ideal gas.

    Attributes
    ----------
    gamma : float
        Ratio of specific heats (must exceed 1).
    R : float
        Specific gas constant, J/(kg K).
    """

    gamma: float = 1.4
    R: float = 287.05

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not self.R > 0.0:
            raise ValueError(f"R must be positive, got {self.R}")

    @property
    def c_v(self) -> float:
        return self.R / (self.gamma - 1.0)

    @property
    def c_p(self) -> float:
        return self.gamma * self.R / (self.gamma - 1.0)


@dataclass(frozen=True)
class PrimitiveState:
    """Density, velocity (1 or 2 components) and pressure of a gas particle."""

    rho: float
    u: tuple
    p: float

    def __post_init__(self):
        u = tuple(float(c) for c in self.u)
        if len(u) not in (1, 2):
            raise ValueError(f"velocity needs 1 or 2 components, got {len(u)}")
        object.__setattr__(self, "u", u)
        if not (self.rho > 0.0 and self.p > 0.0):
            raise NonPhysicalState(
                f"need rho > 0 and p > 0, got rho={self.rho}, p={self.p}"
            )

    @property
    def speed(self) -> float:
        return math.sqrt(sum(c * c for c in self.u))


@dataclass(frozen=True)
class DerivedState:
    """State quantities derived from a primitive state under a gas model.

    T temperature (K), a sound speed (m/s), s the entropy function
    p/rho**gamma, e internal energy (J/kg), h enthalpy (J/kg), h0 total
    enthalpy (J/kg).
    """

    T: float
    a: float
    s: float
    e: float
    h: float
    h0: float


def derive_state(q: PrimitiveState, m: GasModel) -> DerivedState:
    """Derive (T, a, s, e, h, h0) from a primitive state.

    Raises
    ------
    NonPhysicalState
        If density or pressure is not strictly positive.
    """
    if not (q.rho > 0.0 and q.p > 0.0):
        raise NonPhysicalState(f"rho={q.rho}, p={q.p}")
    T = q.p / (q.rho * m.R)
    a = math.sqrt(m.gamma * q.p / q.rho)
    e = m.c_v * T
    h = e + q.p / q.rho
    h0 = h + 0.5 * q.speed ** 2
    s = q.p / q.rho ** m.gamma
    return DerivedState(T=T, a=a, s=s, e=e, h=h, h0=h0)


def gibbs_residual(path: Sequence[PrimitiveState], m: GasModel) -> float:
    """Max discrete residual of T ds = de + p dV over consecutive state pairs.

    Midpoint (trapezoid-like) discretization: for each pair the residual is
    ``|T_mid * ds - de - p_mid * dV|`` with V = 1/rho and ds the change of
    the physical entropy c_v ln(s).  On a smoothly sampled thermodynamic path
    the per-pair residual shrinks at least at second order in the path
    spacing.
    """
    if len(path) < 2:
        raise ValueError("path needs at least two states")
    worst = 0.0
    prev = derive_state(path[0], m)
    prev_q = path[0]
    for q in path[1:]:
        cur = derive_state(q, m)
        T_mid = 0.5 * (prev.T + cur.T)
        p_mid = 0.5 * (prev_q.p + q.p)
        ds = m.c_v * math.log(cur.s) - m.c_v * math.log(prev.s)
        de = cur.e - prev.e
        dV = 1.0 / q.rho - 1.0 / prev_q.rho
        worst = max(worst, abs(T_mid * ds - de - p_mid * dV))
        prev, prev_q = cur, q
    return worst
