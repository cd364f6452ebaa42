import dataclasses
import math

import numpy as np
import pytest

from vortigen.errors import NonPhysicalState
from vortigen.thermo import (
    GasModel,
    PrimitiveState,
    derive_state,
    gibbs_residual,
)


def make_model(gamma=1.4, R=1.0):
    return GasModel(gamma=gamma, R=R)


class TestDeriveState:
    def test_unit_state_values(self):
        # Frozen by hand from the defining relations:
        #   T = p/(rho R) = 1, a = sqrt(gamma p / rho) = sqrt(1.4),
        #   s = p/rho^gamma = 1, e = T/(gamma-1) = 2.5, h = e + p/rho = 3.5
        m = make_model()
        d = derive_state(PrimitiveState(rho=1.0, u=(0.0,), p=1.0), m)
        assert d.T == pytest.approx(1.0, rel=1e-15)
        assert d.a == pytest.approx(math.sqrt(1.4), rel=1e-15)
        assert d.s == pytest.approx(1.0, rel=1e-15)
        assert d.e == pytest.approx(2.5, rel=1e-15)
        assert d.h == pytest.approx(3.5, rel=1e-15)
        assert d.h0 == pytest.approx(3.5, rel=1e-15)

    def test_total_enthalpy_includes_kinetic_energy(self):
        m = make_model()
        d = derive_state(PrimitiveState(rho=1.0, u=(3.0, 4.0), p=1.0), m)
        assert d.h0 == pytest.approx(3.5 + 12.5, rel=1e-15)

    def test_nonphysical_state_rejected(self):
        with pytest.raises(NonPhysicalState):
            PrimitiveState(rho=1.0, u=(0.0,), p=0.0)
        with pytest.raises(NonPhysicalState):
            PrimitiveState(rho=-1.0, u=(0.0,), p=1.0)

    def test_uniform_rescale_scaling_law(self):
        # p -> lam p, rho -> lam rho leaves a unchanged and scales the
        # entropy function by lam^(1-gamma); from s = p/rho^gamma directly.
        m = make_model()
        base = derive_state(PrimitiveState(rho=1.3, u=(0.5,), p=0.7), m)
        for lam in (0.25, 2.0, 10.0):
            scaled = derive_state(
                PrimitiveState(rho=1.3 * lam, u=(0.5,), p=0.7 * lam), m
            )
            assert scaled.a == pytest.approx(base.a, rel=1e-13)
            assert scaled.s == pytest.approx(base.s * lam ** (1.0 - m.gamma), rel=1e-12)

    def test_sound_speed_identity_random_states(self):
        # a^2 rho = gamma p to machine precision on random valid states.
        rng = np.random.default_rng(31415)
        m = make_model(gamma=1.67, R=287.05)
        for _ in range(200):
            rho = rng.uniform(0.05, 20.0)
            p = rng.uniform(0.05, 20.0)
            d = derive_state(PrimitiveState(rho=rho, u=(0.0,), p=p), m)
            assert d.a ** 2 * rho == pytest.approx(m.gamma * p, rel=4e-16)

    def test_entropy_round_trip(self):
        # Reconstructing p from (rho, s = p/rho^gamma) must reproduce p to
        # 1e-12 relative.
        rng = np.random.default_rng(99)
        m = make_model()
        for _ in range(100):
            rho = rng.uniform(0.1, 5.0)
            p = rng.uniform(0.1, 5.0)
            d = derive_state(PrimitiveState(rho=rho, u=(0.0,), p=p), m)
            assert d.s * rho ** m.gamma == pytest.approx(p, rel=1e-12)

    def test_derived_stored_heats_consistent(self):
        m = make_model(gamma=1.3, R=11.0)
        assert m.c_p - m.c_v == pytest.approx(m.R, rel=1e-15)
        assert m.c_p / m.c_v == pytest.approx(m.gamma, rel=1e-15)

    def test_gas_model_validation(self):
        with pytest.raises(ValueError):
            GasModel(gamma=1.0)
        with pytest.raises(ValueError):
            GasModel(R=0.0)

    def test_gas_model_has_only_gamma_and_R(self):
        # The entropy function p/rho^gamma is the one entropy variable, so
        # the model carries no entropy convention and no reference offset.
        assert [f.name for f in dataclasses.fields(GasModel)] == ["gamma", "R"]


class TestGibbsResidual:
    def path_isentropic(self, n, gamma=1.4):
        rho = np.linspace(1.0, 2.0, n)
        return [PrimitiveState(r, (0.0,), r ** gamma) for r in rho]

    def test_repeated_state_is_zero(self):
        m = make_model()
        q = PrimitiveState(1.0, (0.0,), 1.0)
        assert gibbs_residual([q, q, q], m) == 0.0

    def test_isentropic_refinement_order(self):
        # The residual of the midpoint discretization of T ds = de + p dV
        # must shrink at order >= 2 under refinement of the sampling.
        m = make_model()
        res = [gibbs_residual(self.path_isentropic(n), m) for n in (11, 21, 41, 81)]
        assert all(r2 < r1 for r1, r2 in zip(res, res[1:]))
        orders = [np.log2(res[k] / res[k + 1]) for k in range(len(res) - 1)]
        assert min(orders) >= 1.9

    def test_far_apart_states_finite(self):
        m = make_model()
        path = [PrimitiveState(1.0, (0.0,), 1.0), PrimitiveState(4.0, (0.0,), 0.25)]
        r = gibbs_residual(path, m)
        assert np.isfinite(r) and r > 0.0

    @pytest.mark.parametrize("gamma", [1.2, 1.4, 1.67])
    def test_two_states_use_physical_entropy(self, gamma):
        # One pair, its residual formed here from the physical entropy
        # c_v ln(p/rho^gamma), T = p/(rho R) and e = c_v T.
        m = make_model(gamma=gamma, R=287.05)
        (r0, p0), (r1, p1) = (2.0, 3.0), (1.5, 0.8)
        T0, T1 = p0 / (r0 * m.R), p1 / (r1 * m.R)
        ds = (m.c_v * math.log(p1 / r1 ** m.gamma)
              - m.c_v * math.log(p0 / r0 ** m.gamma))
        de = m.c_v * T1 - m.c_v * T0
        dV = 1.0 / r1 - 1.0 / r0
        expect = abs(0.5 * (T0 + T1) * ds - de - 0.5 * (p0 + p1) * dV)
        path = [PrimitiveState(r0, (0.0,), p0), PrimitiveState(r1, (0.0,), p1)]
        assert expect > 0.0 and gibbs_residual(path, m) == expect

    def test_too_short_path(self):
        m = make_model()
        with pytest.raises(ValueError):
            gibbs_residual([PrimitiveState(1.0, (0.0,), 1.0)], m)
