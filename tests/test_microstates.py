"""Microstate fields: phase factor, momentum, quantum potential, time, motion."""

import numpy as np
import pytest

from qhjlab import catalog
from qhjlab.errors import ContractError
from qhjlab.fields import Grid, derivative
from qhjlab.microstates import (
    EnergyFamily,
    MicrostateParams,
    _monotone_segments,
    beta_field,
    build_microstate,
    energy_derivative_of_momentum,
    hamilton_principal,
    momentum,
    qshje_residual,
    quantum_potential,
    time_of_q,
    trajectory,
)
from qhjlab.schrodinger import Potential, Scenario, analytic_pair, make_conjugate


UNIT_ELL = MicrostateParams(alpha=0.0, ell=1.0 + 0.0j)


def free_scenario(constants, grid, energy=1.0):
    return Scenario(Potential("free"), constants, grid, energy)


class TestParams:
    def test_vanishing_real_part_rejected(self):
        # purely imaginary ell makes the combined denominator lose positivity
        with pytest.raises(ValueError):
            MicrostateParams(alpha=0.0, ell=1j)

    def test_components(self):
        p = MicrostateParams(alpha=0.5, ell=2.0 + 3.0j)
        assert (p.ell1, p.ell2) == (2.0, 3.0)


class TestBetaField:
    def test_free_unit_ell_closed_form(self, free_pair, free_grid):
        beta = beta_field(free_pair, UNIT_ELL)
        assert np.max(np.abs(beta.values + np.exp(-2j * free_grid.x))) < 1e-14

    def test_unimodular_for_any_ell(self, free_pair):
        for ell in (1.0, 0.5 - 2.0j, -3.0 + 0.25j):
            beta = beta_field(free_pair, MicrostateParams(ell=ell))
            assert np.max(np.abs(np.abs(beta.values) - 1.0)) < 1e-13

    def test_requires_real_pair(self, free_pair):
        conj = make_conjugate(free_pair)
        with pytest.raises(ContractError):
            beta_field(conj, UNIT_ELL)


class TestHamiltonPrincipal:
    def test_free_slope_minus_one(self, free_pair, free_grid):
        s0 = hamilton_principal(free_pair, UNIT_ELL)
        slope = derivative(s0, 1, use_attached=False).values
        assert np.max(np.abs(slope + 1.0)) < 1e-9

    def test_free_energy_four_slope(self, constants, free_grid):
        pair = analytic_pair(Potential("free"), 4.0, constants, free_grid)
        s0 = hamilton_principal(pair, UNIT_ELL)
        assert np.max(np.abs(s0.derivs[0] + 2.0)) < 1e-12  # -sqrt(E) in default units

    def test_alpha_shifts_uniformly(self, free_pair, constants):
        s0_a = hamilton_principal(free_pair, MicrostateParams(alpha=0.0))
        s0_b = hamilton_principal(free_pair, MicrostateParams(alpha=0.8))
        shift = s0_b.values - s0_a.values
        assert np.max(np.abs(shift - 0.5 * constants.hbar * 0.8)) < 1e-14

    def test_no_unwrap_jumps(self, harmonic_pair, constants):
        s0 = hamilton_principal(harmonic_pair, UNIT_ELL)
        assert np.max(np.abs(np.diff(s0.values))) < 0.5 * np.pi * constants.hbar


class TestMomentum:
    def test_free_is_classical(self, free_pair):
        p = momentum(free_pair, UNIT_ELL)
        assert np.max(np.abs(p.values + 1.0)) < 1e-14  # -sqrt(2mE)

    def test_direction_flag(self, free_pair, harmonic_pair):
        assert build_microstate(free_pair, UNIT_ELL).direction == -1
        assert build_microstate(harmonic_pair, UNIT_ELL).direction == 1

    def test_harmonic_positive_with_constant_combination(self, harmonic_pair, constants):
        p = momentum(harmonic_pair, UNIT_ELL)
        assert np.all(p.values > 0.0)
        denom = ((harmonic_pair.psi_dual.values) ** 2 + harmonic_pair.psi.values ** 2)
        product = p.values * denom
        target = constants.hbar * abs(harmonic_pair.omega)
        assert np.max(np.abs(product - target)) < 1e-9

    def test_ell_rescaling_oracle(self, free_pair, constants):
        # p(a*ell) = p(ell) * a |psiD - i ell psi|^2 / |psiD - i a ell psi|^2
        a = 2.5
        p1 = momentum(free_pair, MicrostateParams(ell=1.0)).values
        p2 = momentum(free_pair, MicrostateParams(ell=a)).values
        chi, psi = free_pair.psi_dual.values, free_pair.psi.values
        d1 = chi ** 2 + psi ** 2
        d2 = chi ** 2 + (a * psi) ** 2
        assert np.max(np.abs(p2 - p1 * a * d1 / d2)) < 1e-13

    def test_matches_principal_function_slope(self, harmonic_pair):
        # the two closed-form routes are one formula; cross-check via stencils
        p = momentum(harmonic_pair, UNIT_ELL)
        s0 = hamilton_principal(harmonic_pair, UNIT_ELL)
        fd = derivative(s0, 1, use_attached=False).values
        rel = np.max(np.abs(fd[4:-4] - p.values[4:-4])) / np.max(np.abs(p.values))
        assert rel < 1e-8


class TestQuantumPotential:
    def test_free_unit_ell_vanishes(self, free_pair):
        ms = build_microstate(free_pair, UNIT_ELL)
        assert np.max(np.abs(ms.Q.values)) < 1e-12

    def test_free_ell_two_balances_kinetic(self, free_pair):
        ms = build_microstate(free_pair, MicrostateParams(ell=2.0))
        assert np.max(np.abs(ms.Q.values)) > 1e-3  # genuinely nonzero
        resid = qshje_residual(ms).from_potential.values
        assert np.max(np.abs(resid)) < 1e-7

    def test_two_paths_agree(self, free_pair):
        ms = build_microstate(free_pair, MicrostateParams(ell=2.0))
        report = quantum_potential(ms)
        inner = slice(4, -4)
        disc = np.max(np.abs(report.from_schwarzian.values[inner]
                             - report.from_amplitude.values[inner]))
        assert disc < 1e-7


class TestQshjeResidual:
    def test_both_w_routes_agree_free(self, free_pair):
        ms = build_microstate(free_pair, UNIT_ELL)
        report = qshje_residual(ms)
        # -(hbar^2/4m){exp(2i S0/hbar); x} = -1 = V - E for the free microstate
        assert report.w_mismatch < 1e-12
        assert np.max(np.abs(report.from_schwarzian.values)) < 1e-7

    def test_analytic_scenarios_below_tolerance(self, free_pair, harmonic_pair, airy_pair):
        for pair in (free_pair, harmonic_pair, airy_pair):
            ms = build_microstate(pair, UNIT_ELL)
            report = qshje_residual(ms)
            scale = max(abs(pair.energy), np.max(np.abs(ms.mfW.values)))
            assert np.max(np.abs(report.from_potential.values)) / scale < 1e-7

    def test_common_scaling_leaves_residual_unchanged(self, free_pair):
        from qhjlab.schrodinger import normalize_wronskian
        ms = build_microstate(free_pair, MicrostateParams(ell=1.5))
        scaled_pair = normalize_wronskian(free_pair, free_pair.wronskian * 9.0)
        ms_scaled = build_microstate(scaled_pair, MicrostateParams(ell=1.5))
        a = qshje_residual(ms).from_potential.values
        b = qshje_residual(ms_scaled).from_potential.values
        assert np.max(np.abs(a - b)) < 1e-12


class TestInvariants:
    def test_momentum_alpha_independent_bitwise(self, harmonic_pair):
        p1 = momentum(harmonic_pair, MicrostateParams(alpha=0.0, ell=1.0)).values
        p2 = momentum(harmonic_pair, MicrostateParams(alpha=2.31, ell=1.0)).values
        assert np.array_equal(p1, p2)

    def test_q_alpha_independent_bitwise(self, harmonic_pair):
        q1 = build_microstate(harmonic_pair, MicrostateParams(alpha=0.0)).Q.values
        q2 = build_microstate(harmonic_pair, MicrostateParams(alpha=1.7)).Q.values
        assert np.array_equal(q1, q2)

    def test_wronskian_weighted_momentum_constant(self, airy_pair):
        # (R^2 S0')' = 0 in its testable form: S0' |psiD - i ell psi|^2 constant,
        # with the slope taken by stencils rather than the closed form
        s0 = hamilton_principal(airy_pair, UNIT_ELL)
        fd = derivative(s0, 1, use_attached=False).values
        chi, psi = airy_pair.psi_dual.values, airy_pair.psi.values
        product = fd[4:-4] * (chi ** 2 + psi ** 2)[4:-4]
        target = np.median(product)
        assert np.max(np.abs(product - target)) / abs(target) < 1e-9

    def test_asymmetric_scaling_with_matched_ell(self, free_pair):
        # scaling psi_dual by omega while sending ell -> omega*ell keeps the
        # physical microstate (and its momentum) fixed
        from dataclasses import replace
        from qhjlab.fields import ScalarField
        omega = 3.7
        scaled_dual = ScalarField(free_pair.grid, omega * free_pair.psi_dual.values,
                                  derivs=tuple(omega * d for d in free_pair.psi_dual.derivs))
        scaled = replace(free_pair, psi_dual=scaled_dual,
                         wronskian=omega * free_pair.wronskian)
        p_ref = momentum(free_pair, MicrostateParams(ell=1.0)).values
        p_matched = momentum(scaled, MicrostateParams(ell=omega)).values
        assert np.max(np.abs(p_matched - p_ref)) < 1e-10
        # holding ell fixed changes the microstate
        p_fixed = momentum(scaled, MicrostateParams(ell=1.0)).values
        assert np.max(np.abs(p_fixed - p_ref)) > 1e-3

    def test_w_ratio_field(self, free_pair, free_grid):
        ms = build_microstate(free_pair, UNIT_ELL)
        good = ~np.isnan(ms.w.values)
        assert np.allclose(ms.w.values[good],
                           np.tan(free_grid.x)[good], rtol=0, atol=1e-9)


class TestRandomizedConstants:
    def test_qshje_holds_for_random_ell(self, free_pair, harmonic_pair, airy_pair):
        # the identity is exact for every admissible (alpha, ell), not just
        # the desk values
        rng = np.random.default_rng(42)
        for pair in (free_pair, harmonic_pair, airy_pair):
            scale = max(abs(pair.energy),
                        np.max(np.abs(pair.potential.derivative_samples(pair.grid, 0)
                                      - pair.energy)))
            for _ in range(6):
                ell1 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
                ell2 = rng.uniform(-2.0, 2.0)
                alpha = rng.uniform(-3.0, 3.0)
                ms = build_microstate(pair, MicrostateParams(alpha=alpha,
                                                             ell=complex(ell1, ell2)))
                resid = qshje_residual(ms).from_potential.values
                inner = pair.grid.interior_slice(0.8)
                assert np.max(np.abs(resid[inner])) / scale < 1e-7


class TestTimeOfQ:
    def test_free_closed_form(self, constants, free_grid):
        for energy in (1.0, 4.0):
            sc = free_scenario(constants, free_grid, energy)
            t = time_of_q(sc, UNIT_ELL)
            expected = -(free_grid.x - free_grid.x[0]) / (2.0 * np.sqrt(energy))
            assert np.max(np.abs(t.values - expected)) < 1e-9

    def test_richardson_order_two(self, constants, free_grid):
        sc = Scenario(Potential("harmonic"), constants, free_grid, 2.0,
                      method="numeric", ics=(1.0, 0.0, 0.0, 1.0))
        # shrink to a well-behaved window grid
        g = Grid(-1.0, 1.0, 513)
        sc = Scenario(Potential("harmonic"), constants, g, 2.0,
                      method="numeric", ics=(1.0, 0.0, 0.0, 1.0))
        ts = [time_of_q(sc, UNIT_ELL, delta_e=de).values for de in (4e-3, 2e-3, 1e-3)]
        d1 = np.max(np.abs(ts[1] - ts[0]))
        d2 = np.max(np.abs(ts[2] - ts[1]))
        assert 3.0 < d1 / d2 < 5.0, f"ratio {d1 / d2}"

    def test_gauge_reference(self, constants, free_grid):
        t = time_of_q(free_scenario(constants, free_grid), UNIT_ELL, x_ref=np.pi)
        assert abs(t.values[free_grid.index_of(np.pi)]) < 1e-15

    def test_unalignable_branches_rejected(self, constants, free_grid):
        # an absurdly large energy step shifts the phase by more than a
        # branch quantum across the grid; alignment must refuse
        from qhjlab.errors import UnwrapError
        with pytest.raises(UnwrapError):
            time_of_q(free_scenario(constants, free_grid), UNIT_ELL, delta_e=0.9)


class TestTrajectory:
    def test_free_uniform_motion(self, constants, free_grid):
        sc = free_scenario(constants, free_grid)
        result = trajectory(sc, UNIT_ELL, t_samples=np.linspace(-2.5, -0.5, 9))
        assert result.monotone
        points = result.segments[0]
        assert len(points) == 9
        for pt in points:
            assert pt.q_dot_from_energy == pytest.approx(-2.0, abs=1e-9)
            assert pt.q_dot_from_mass == pytest.approx(-2.0, abs=1e-9)
            assert pt.m_q == pytest.approx(0.5, abs=1e-9)
        # q(t) = q0 - 2 t along the window
        qs = np.array([pt.q for pt in points])
        ts = np.array([pt.t for pt in points])
        fit = np.polyfit(ts, qs, 1)
        assert fit[0] == pytest.approx(-2.0, abs=1e-9)

    def test_scaling_with_energy(self, constants, free_grid):
        sc = free_scenario(constants, free_grid, energy=4.0)
        result = trajectory(sc, UNIT_ELL, t_samples=[-1.0, -0.75, -0.5])
        for pt in result.segments[0]:
            assert pt.q_dot_from_energy == pytest.approx(-4.0, abs=1e-8)

    def test_velocity_routes_agree_for_harmonic(self, constants):
        g = Grid(-1.0, 1.0, 1025)
        u0 = np.exp(-0.5 * g.x_min ** 2)
        ics = (u0, -g.x_min * u0, 0.0, -1.0 / u0)
        sc = Scenario(Potential("harmonic"), constants, g, 1.0, method="numeric", ics=ics)
        t = time_of_q(sc, UNIT_ELL)
        window = np.linspace(np.percentile(t.values, 30), np.percentile(t.values, 70), 7)
        result = trajectory(sc, UNIT_ELL, t_samples=window)
        for seg in result.segments:
            for pt in seg:
                assert abs(pt.q_dot_from_energy - pt.q_dot_from_mass) < 1e-5

    def test_monotone_segment_splitting(self):
        t = np.array([0.0, 1.0, 2.0, 1.5, 1.0, 2.0, 3.0])
        segments = _monotone_segments(t)
        assert segments == [(0, 3), (2, 5), (4, 7)]

    def test_non_monotone_time_reported_in_segments(self, constants):
        # inside the well at this energy dp/dE changes sign, so t(q) folds
        sc = Scenario(Potential("harmonic"), constants, Grid(-1.5, 1.5, 1025), 3.0,
                      method="numeric", ics=(1.0, 0.0, 0.0, 1.0))
        t = time_of_q(sc, UNIT_ELL)
        samples = np.linspace(np.min(t.values), np.max(t.values), 25)
        result = trajectory(sc, UNIT_ELL, t_samples=samples)
        assert not result.monotone
        assert len(result.segments) > 1
        # within each segment the inversion is consistent: t(q(t*)) = t*
        for seg in result.segments:
            for pt in seg:
                idx = sc.grid.index_of(pt.q)
                assert abs(t.values[idx] - pt.t) < 2.0 * np.max(np.abs(np.diff(t.values)))

    def test_energy_derivative_of_momentum(self, constants, free_grid):
        dEp = energy_derivative_of_momentum(free_scenario(constants, free_grid), UNIT_ELL)
        assert np.max(np.abs(dEp.values + 0.5)) < 1e-7  # d(-sqrt(E))/dE at E=1


class TestEnergyFamily:
    @pytest.mark.parametrize("stage, solves", [
        (lambda sc: time_of_q(sc, UNIT_ELL), 2),
        (lambda sc: energy_derivative_of_momentum(sc, UNIT_ELL), 2),
        (lambda sc: trajectory(sc, UNIT_ELL, t_samples=[-2.0, -1.0]), 3),
    ], ids=["time_of_q", "energy_derivative_of_momentum", "trajectory"])
    def test_solve_counts(self, pair_solves, stage, solves):
        stage(catalog.free_scenario())
        assert len(pair_solves) == solves
        assert len(set(pair_solves)) == solves

    def test_consumers_share_three_solves(self, pair_solves):
        sc = catalog.free_scenario()
        family = EnergyFamily(sc, UNIT_ELL)
        t = family.time_of_q()
        family.trajectory([-2.0, -1.0])
        assert family.microstate.pair is family.pair
        assert len(pair_solves) == 3
        assert np.array_equal(t.values, time_of_q(sc, UNIT_ELL).values)
        assert np.array_equal(family.de_momentum.values,
                              energy_derivative_of_momentum(sc, UNIT_ELL).values)

    def test_delta_e_defaults_to_scenario_step(self):
        sc = catalog.free_scenario(energy=4.0)
        assert EnergyFamily(sc).delta_e == sc.delta_e()
        assert EnergyFamily(sc, delta_e=1e-3).delta_e == 1e-3
