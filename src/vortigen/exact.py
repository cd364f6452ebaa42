"""Closed-form reference solutions used to check the numerical kernels.

These are independent of the characteristic solver: the simple wave is
evaluated by root-finding on its implicit straight-characteristic relation,
the centered fan from its self-similar algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .thermo import GasModel

__all__ = ["SimpleWave", "CenteredFan"]


class SimpleWave:
    """Right-moving isentropic simple wave with uniform J- invariant.

    The initial velocity profile ``u0`` fixes the sound speed through
    a0 = a_ref + (gamma-1)(u0 - u_ref)/2, so J- = u - 2a/(gamma-1) is the
    same everywhere.  Each (u, a) pair rides its straight C+ line
    x = x0 + (u0 + a0)(x0) t; the state at (x, t) is found by bisecting the
    implicit relation for the launch point x0 (valid before the first
    characteristic crossing).
    """

    def __init__(self, u0: Callable[[float], float], gamma: float = 1.4,
                 a_ref: float = 1.0, u_ref: float = 0.0, s0: float = 1.0):
        self.u0 = u0
        self.gamma = gamma
        self.a_ref = a_ref
        self.u_ref = u_ref
        self.s0 = s0

    def a0(self, x0: float) -> float:
        return self.a_ref + 0.5 * (self.gamma - 1.0) * (self.u0(x0) - self.u_ref)

    def lam(self, x0: float) -> float:
        return self.u0(x0) + self.a0(x0)

    def launch_point(self, x: float, t: float, bracket, tol: float = 1e-12) -> float:
        """Bisection solve of x0 + lam(x0) t = x on a bracketing interval."""
        lo, hi = bracket

        def f(x0):
            return x0 + self.lam(x0) * t - x

        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi > 0.0:
            raise ValueError("bracket does not straddle the launch point")
        while hi - lo > tol * max(1.0, abs(hi) + abs(lo)):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0:
                return mid
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    def state(self, x: float, t: float, bracket) -> tuple:
        """(u, a, s) at a point, before shock formation."""
        x0 = self.launch_point(x, t, bracket)
        return self.u0(x0), self.a0(x0), self.s0

    def shock_time(self, x0_range, n: int = 20001):
        """First characteristic crossing t* = -1/min lam'(x0), or None."""
        xs = np.linspace(x0_range[0], x0_range[1], n)
        lam = np.array([self.lam(x) for x in xs])
        dlam = np.gradient(lam, xs, edge_order=2)
        mn = float(np.min(dlam))
        if mn >= 0.0:
            return None
        return -1.0 / mn

    def initial_nodes(self, x0: Sequence[float]):
        """t=0 initial data ``(x, u, a, s)`` (entropy-function units); the
        profile is evaluated one point at a time, as in
        :meth:`primitive_profile`."""
        x = np.array(x0, float)
        return (x, np.array([self.u0(xi) for xi in x0], float),
                np.array([self.a0(xi) for xi in x0], float),
                np.full(len(x), float(self.s0)))

    def primitive_profile(self, x0: Sequence[float], m: GasModel):
        """(x, rho, u, p) arrays of the t=0 profile."""
        x = np.asarray(x0, float)
        u = np.array([self.u0(xi) for xi in x])
        a = np.array([self.a0(xi) for xi in x])
        rho = (a * a / (m.gamma * self.s0)) ** (1.0 / (m.gamma - 1.0))
        p = self.s0 * rho ** m.gamma
        return x, rho, u, p


@dataclass(frozen=True)
class CenteredFan:
    """Centered expansion fan of C+ characteristics through the origin.

    Quiescent gas (u=0, a=a0) occupies x/t >= a0; the fan spans
    lam_tail <= x/t <= a0 with u = 2 (x/t - a0) / (gamma+1) and
    a = a0 + (gamma-1) u / 2; behind the tail the state is uniform at the
    piston velocity ``u_tail`` (< 0 for an expansion).  Entropy is uniform.
    """

    gamma: float = 1.4
    a0: float = 1.0
    u_tail: float = -0.3
    s0: float = 1.0

    def __post_init__(self):
        if self.u_tail >= 0.0:
            raise ValueError("u_tail must be negative for an expansion")
        if self.a_tail <= 0.0:
            raise ValueError("fan too strong: tail sound speed not positive")

    @property
    def a_tail(self) -> float:
        return self.a0 + 0.5 * (self.gamma - 1.0) * self.u_tail

    @property
    def lam_head(self) -> float:
        return self.a0

    @property
    def lam_tail(self) -> float:
        return self.u_tail + self.a_tail

    def state(self, x: float, t: float) -> tuple:
        """(u, a) at (x, t), t > 0."""
        if t <= 0.0:
            raise ValueError("fan state defined for t > 0")
        xi = x / t
        if xi >= self.lam_head:
            return 0.0, self.a0
        if xi <= self.lam_tail:
            return self.u_tail, self.a_tail
        u = 2.0 * (xi - self.a0) / (self.gamma + 1.0)
        return u, self.a0 + 0.5 * (self.gamma - 1.0) * u

    def sound_speed_field(self, X: np.ndarray, T: np.ndarray):
        """(u, a) arrays on meshgrid coordinates (vectorized ``state``)."""
        xi = X / T
        u = np.clip(2.0 * (xi - self.a0) / (self.gamma + 1.0), self.u_tail, 0.0)
        a = self.a0 + 0.5 * (self.gamma - 1.0) * u
        return u, a
