"""Solution pairs: closed forms, the RK4 fallback, Wronskian control."""

import numpy as np
import pytest

from qhjlab.errors import CapabilityError, DegeneracyError
from qhjlab.fields import Grid, ScalarField
from qhjlab.microstates import MicrostateParams, build_microstate, qshje_residual
from qhjlab.schrodinger import (
    PhysicalConstants,
    Potential,
    Scenario,
    analytic_pair,
    make_conjugate,
    normalize_wronskian,
    solve_pair,
)


def fd_residual(pair, member="psi", margin=4):
    """Relative stationary-equation residual on the centered-stencil region."""
    res = pair.schrodinger_residual(member, use_attached=False)
    return np.max(np.abs(res.values[margin:-margin])) / pair.residual_scale()


class TestConstants:
    def test_epsilon_definition(self):
        c = PhysicalConstants(hbar=2.0, mass=2.0)
        assert c.epsilon == pytest.approx(1.0)
        assert PhysicalConstants().epsilon == 1.0  # hbar=1, m=1/2

    def test_positivity(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(ValueError):
            PhysicalConstants(mass=-1.0)


class TestPotential:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            Potential("quartic")
        with pytest.raises(ValueError):
            Potential("custom")  # needs samples
        with pytest.raises(ValueError):
            Potential("linear", slope=0.0)

    def test_values_and_derivatives(self):
        g = Grid(-1.0, 1.0, 65)
        v = Potential("harmonic", stiffness=2.0)
        assert np.allclose(v.value(g.x), 2.0 * g.x ** 2)
        assert np.allclose(v.derivative_samples(g, 1), 4.0 * g.x)
        assert np.allclose(v.derivative_samples(g, 2), 4.0)
        assert np.all(v.derivative_samples(g, 3) == 0.0)

    def test_custom_sampled(self):
        g = Grid(-1.0, 1.0, 129)
        v = Potential("custom", samples=ScalarField(g, np.cos(g.x)))
        assert abs(v.value(0.505) - np.cos(0.505)) < 1e-9
        d1 = v.derivative_samples(g, 1)
        assert np.max(np.abs(d1[4:-4] + np.sin(g.x)[4:-4])) < 1e-9


class TestAnalyticPairs:
    def test_free_is_cos_sin(self, constants, free_grid, free_pair):
        assert np.allclose(free_pair.psi.values, np.cos(free_grid.x))
        assert np.allclose(free_pair.psi_dual.values, np.sin(free_grid.x))
        assert free_pair.omega == pytest.approx(-1.0)

    def test_free_wronskian_constancy(self, free_pair):
        assert free_pair.wronskian_drift() < 1e-12

    def test_free_needs_positive_energy(self, constants, free_grid):
        with pytest.raises(CapabilityError):
            analytic_pair(Potential("free"), -1.0, constants, free_grid)

    def test_linear_residual(self, airy_pair):
        # stationary-equation residual of the Airy pair, stencil-differentiated
        assert fd_residual(airy_pair, "psi") < 1e-8
        assert fd_residual(airy_pair, "psi_dual") < 1e-8

    def test_harmonic_ground_state(self, constants, harmonic_grid, harmonic_pair):
        assert np.allclose(harmonic_pair.psi.values, np.exp(-0.5 * harmonic_grid.x ** 2))
        assert harmonic_pair.omega == pytest.approx(1.0)
        assert fd_residual(harmonic_pair, "psi_dual") < 1e-8

    def test_harmonic_excited_energy_rejected(self, constants, harmonic_grid):
        with pytest.raises(CapabilityError):
            analytic_pair(Potential("harmonic"), 3.0, constants, harmonic_grid)

    def test_turning_point_inside_grid_is_regular(self, constants):
        # the stationary equation itself is regular where E = V; only the
        # expansion hierarchy excludes such domains
        g = Grid(0.0, 4.0, 1025)
        pair = analytic_pair(Potential("linear"), 2.0, constants, g)
        assert fd_residual(pair, "psi") < 1e-8
        numeric = solve_pair(Potential("linear"), 2.0, constants, g, (1.0, 0.0, 0.0, 1.0))
        assert numeric.wronskian_drift() < 1e-6

    def test_linear_independence(self, free_pair, harmonic_pair, airy_pair):
        for pair in (free_pair, harmonic_pair, airy_pair):
            both = np.abs(pair.psi.values) ** 2 + np.abs(pair.psi_dual.values) ** 2
            assert np.min(both) > 0.0


class TestSolvePair:
    def test_free_matches_analytic(self, constants, free_grid, free_pair):
        pair = solve_pair(Potential("free"), 1.0, constants, free_grid, (1.0, 0.0, 0.0, 1.0))
        assert np.max(np.abs(pair.psi.values - free_pair.psi.values)) < 1e-7
        assert np.max(np.abs(pair.psi_dual.values - free_pair.psi_dual.values)) < 1e-7

    def test_harmonic_tracks_ground_state(self, constants):
        # seeded with the ground-state values at x_min the sweep stays
        # proportional to exp(-x^2/2) across the well
        g = Grid(-3.0, 3.0, 1025)
        u0 = np.exp(-0.5 * g.x_min ** 2)
        ics = (u0, -g.x_min * u0, 0.0, -1.0 / u0)
        pair = solve_pair(Potential("harmonic"), 1.0, constants, g, ics)
        target = np.exp(-0.5 * g.x ** 2) * u0 / u0
        assert np.max(np.abs(pair.psi.values - target)) < 1e-6

    def test_step_halving_gains_order_four(self, constants):
        errs, hs = [], []
        for n in (65, 129, 257, 513):
            g = Grid(0.0, 2.0 * np.pi, n)
            pair = solve_pair(Potential("free"), 1.0, constants, g, (1.0, 0.0, 0.0, 1.0))
            errs.append(np.max(np.abs(pair.psi.values - np.cos(g.x))))
            hs.append(g.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 4.0) < 0.3, f"order fit {slope}"

    def test_zero_wronskian_ics_rejected(self, constants, free_grid):
        with pytest.raises(DegeneracyError):
            solve_pair(Potential("free"), 1.0, constants, free_grid, (1.0, 0.0, 2.0, 0.0))

    def test_accuracy_failure_carries_diagnostics(self, constants, free_grid):
        from qhjlab.errors import AccuracyError
        with pytest.raises(AccuracyError) as err:
            solve_pair(Potential("free"), 1.0, constants, free_grid,
                       (1.0, 0.0, 0.0, 1.0), residual_tol=1e-30)
        assert "schrodinger_residual" in err.value.diagnostics
        assert "wronskian_drift" in err.value.diagnostics

    def test_ics_are_energy_independent(self, constants, free_grid):
        ics = (1.0, 0.0, 0.0, 1.0)
        pairs = [solve_pair(Potential("free"), e, constants, free_grid, ics)
                 for e in (1.0, 1.0 + 1e-5, 1.0 - 1e-5)]
        for pair in pairs[1:]:
            assert pair.psi.values[0] == pairs[0].psi.values[0]
            assert pair.psi_dual.values[0] == pairs[0].psi_dual.values[0]

    def test_wronskian_constancy(self, constants):
        g = Grid(-2.0, 2.0, 513)
        pair = solve_pair(Potential("harmonic"), 2.3, constants, g, (1.0, 0.0, 0.0, 1.0))
        assert pair.wronskian_drift() < 1e-6

    def test_custom_sampled_potential(self, constants):
        # the sampled kind goes through spline evaluation at the RK4 midpoints
        from qhjlab.microstates import MicrostateParams, build_microstate, qshje_residual
        g = Grid(-2.0, 2.0, 1025)
        pot = Potential("custom", samples=ScalarField(g, 0.3 * np.cos(g.x)))
        pair = solve_pair(pot, 1.4, constants, g, (1.0, 0.0, 0.0, 1.0))
        assert pair.wronskian_drift() < 1e-6
        ms = build_microstate(pair, MicrostateParams())
        rep = qshje_residual(ms)
        scale = max(1.4, np.max(np.abs(ms.mfW.values)))
        inner = g.interior_slice(0.8)
        assert np.max(np.abs(rep.from_potential.values[inner])) / scale < 1e-6
        assert rep.w_mismatch / scale < 1e-6


class TestNormalizeWronskian:
    def test_identity_when_target_matches(self, free_pair):
        assert normalize_wronskian(free_pair, free_pair.wronskian) is free_pair

    def test_conjugate_pair_to_standard_scale(self, constants, free_grid, free_pair):
        conj = make_conjugate(free_pair)
        assert conj.kind == "conjugate"
        assert np.allclose(conj.psi_dual.values, np.conj(conj.psi.values))
        scaled = normalize_wronskian(conj)
        assert scaled.wronskian == 2j / constants.epsilon
        assert scaled.kind == "conjugate"
        # |psi|^2 Im(eps psi'/psi) = 1 after scaling
        im_p = np.imag(constants.epsilon * scaled.psi.derivs[0] / scaled.psi.values)
        assert np.max(np.abs(np.abs(scaled.psi.values) ** 2 * im_p - 1.0)) < 1e-12

    def test_negative_ratio_handled_by_member_swap(self, constants, harmonic_pair):
        conj = make_conjugate(harmonic_pair)  # Wronskian -2i: opposite orientation
        scaled = normalize_wronskian(conj)
        assert scaled.kind == "conjugate"
        assert scaled.wronskian == 2j / constants.epsilon
        assert np.allclose(scaled.psi_dual.values, np.conj(scaled.psi.values))

    def test_scaling_leaves_microstate_residual_unchanged(self, free_pair):
        params = MicrostateParams(alpha=0.0, ell=2.0 + 0.0j)
        before = qshje_residual(build_microstate(free_pair, params))
        scaled = normalize_wronskian(free_pair, free_pair.wronskian * 4.0)
        after = qshje_residual(build_microstate(scaled, params))
        assert np.max(np.abs(before.from_potential.values
                             - after.from_potential.values)) < 1e-12

    def test_zero_wronskian_rejected(self, free_pair):
        from dataclasses import replace
        broken = replace(free_pair, wronskian=0.0j)
        with pytest.raises(DegeneracyError):
            normalize_wronskian(broken)


class TestScenario:
    def test_numeric_needs_ics(self, constants, free_grid):
        with pytest.raises(ValueError):
            Scenario(Potential("free"), constants, free_grid, 1.0, method="numeric")

    def test_pair_at_shifted_energy(self, constants, free_grid):
        sc = Scenario(Potential("free"), constants, free_grid, 1.0)
        pair = sc.pair(4.0)
        assert np.allclose(pair.psi.values, np.cos(2.0 * free_grid.x))

    def test_delta_e_floor(self, constants, free_grid):
        sc = Scenario(Potential("free"), constants, free_grid, 1e-3)
        assert sc.delta_e() == pytest.approx(1e-5)
