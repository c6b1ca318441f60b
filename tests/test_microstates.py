"""Microstate fields: phase factor, momentum, quantum potential, time, motion."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhjlab import catalog
from qhjlab.errors import CapabilityError, ContractError
from qhjlab.fields import Grid, ScalarField, derivative
from qhjlab.microstates import (
    EnergyFamily,
    MicrostateParams,
    _monotone_segments,
    beta_field,
    build_microstate,
    energy_derivative_of_momentum,
    quantum_potential,
    time_of_q,
    trajectory,
)
from qhjlab.schrodinger import Potential, Scenario, analytic_pair, make_conjugate, \
    normalize_wronskian


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
        s0 = build_microstate(free_pair, UNIT_ELL).S0
        slope = derivative(s0, 1).values
        assert np.max(np.abs(slope + 1.0)) < 1e-9

    def test_free_energy_four_slope(self, constants, free_grid):
        pair = analytic_pair(Potential("free"), 4.0, constants, free_grid)
        s0 = build_microstate(pair, UNIT_ELL).S0
        assert np.max(np.abs(s0.derivs[0] + 2.0)) < 1e-12  # -sqrt(E) in default units

    def test_alpha_shifts_uniformly(self, free_pair, constants):
        s0_a = build_microstate(free_pair, MicrostateParams(alpha=0.0)).S0
        s0_b = build_microstate(free_pair, MicrostateParams(alpha=0.8)).S0
        shift = s0_b.values - s0_a.values
        assert np.max(np.abs(shift - 0.5 * constants.hbar * 0.8)) < 1e-14

    def test_no_unwrap_jumps(self, harmonic_pair, constants):
        s0 = build_microstate(harmonic_pair, UNIT_ELL).S0
        assert np.max(np.abs(np.diff(s0.values))) < 0.5 * np.pi * constants.hbar


class TestMomentum:
    def test_free_is_classical(self, free_pair):
        p = build_microstate(free_pair, UNIT_ELL).p
        assert np.max(np.abs(p.values + 1.0)) < 1e-14  # -sqrt(2mE)

    def test_pair_without_attached_derivatives_rejected(self, free_pair):
        bare = replace(free_pair, psi=ScalarField(free_pair.grid, free_pair.psi.values),
                       psi_dual=ScalarField(free_pair.grid, free_pair.psi_dual.values))
        with pytest.raises(ContractError):
            build_microstate(bare, UNIT_ELL)

    def test_direction_flag(self, free_pair, harmonic_pair):
        # the momentum keeps one sign across the grid; read it at the centre
        for pair, sign in ((free_pair, -1), (harmonic_pair, 1)):
            p = build_microstate(pair, UNIT_ELL).p.values
            assert np.sign(p[len(p) // 2]) == sign

    def test_harmonic_positive_with_constant_combination(self, harmonic_pair, constants):
        p = build_microstate(harmonic_pair, UNIT_ELL).p
        assert np.all(p.values > 0.0)
        denom = ((harmonic_pair.psi_dual.values) ** 2 + harmonic_pair.psi.values ** 2)
        product = p.values * denom
        target = constants.hbar * abs(harmonic_pair.omega)
        assert np.max(np.abs(product - target)) < 1e-9

    def test_ell_rescaling_oracle(self, free_pair, constants):
        # p(a*ell) = p(ell) * a |psiD - i ell psi|^2 / |psiD - i a ell psi|^2
        a = 2.5
        p1 = build_microstate(free_pair, MicrostateParams(ell=1.0)).p.values
        p2 = build_microstate(free_pair, MicrostateParams(ell=a)).p.values
        chi, psi = free_pair.psi_dual.values, free_pair.psi.values
        d1 = chi ** 2 + psi ** 2
        d2 = chi ** 2 + (a * psi) ** 2
        assert np.max(np.abs(p2 - p1 * a * d1 / d2)) < 1e-13

    def test_matches_principal_function_slope(self, harmonic_pair):
        # the two closed-form routes are one formula; cross-check via stencils
        p = build_microstate(harmonic_pair, UNIT_ELL).p
        s0 = build_microstate(harmonic_pair, UNIT_ELL).S0
        fd = derivative(s0, 1).values
        rel = np.max(np.abs(fd[4:-4] - p.values[4:-4])) / np.max(np.abs(p.values))
        assert rel < 1e-8


class TestQuantumPotential:
    def test_free_unit_ell_vanishes(self, free_pair):
        ms = build_microstate(free_pair, UNIT_ELL)
        assert np.max(np.abs(ms.Q.values)) < 1e-12

    def test_free_ell_two_balances_kinetic(self, free_pair):
        ms = build_microstate(free_pair, MicrostateParams(ell=2.0))
        assert np.max(np.abs(ms.Q.values)) > 1e-3  # genuinely nonzero
        resid = ms.qshje.from_potential.values
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
        report = ms.qshje
        # -(hbar^2/4m){exp(2i S0/hbar); x} = -1 = V - E for the free microstate
        assert report.w_mismatch < 1e-12
        assert np.max(np.abs(report.from_schwarzian.values)) < 1e-7

    def test_analytic_scenarios_below_tolerance(self, free_pair, harmonic_pair, airy_pair):
        for pair in (free_pair, harmonic_pair, airy_pair):
            ms = build_microstate(pair, UNIT_ELL)
            report = ms.qshje
            scale = max(abs(pair.energy), np.max(np.abs(ms.mfW.values)))
            assert np.max(np.abs(report.from_potential.values)) / scale < 1e-7

    def test_common_scaling_leaves_residual_unchanged(self, free_pair):
        from qhjlab.schrodinger import normalize_wronskian
        ms = build_microstate(free_pair, MicrostateParams(ell=1.5))
        scaled_pair = normalize_wronskian(free_pair, free_pair.wronskian * 9.0)
        ms_scaled = build_microstate(scaled_pair, MicrostateParams(ell=1.5))
        a = ms.qshje.from_potential.values
        b = ms_scaled.qshje.from_potential.values
        assert np.max(np.abs(a - b)) < 1e-12


class TestInvariants:
    def test_momentum_alpha_independent_bitwise(self, harmonic_pair):
        p1 = build_microstate(harmonic_pair, MicrostateParams(alpha=0.0, ell=1.0)).p.values
        p2 = build_microstate(harmonic_pair, MicrostateParams(alpha=2.31, ell=1.0)).p.values
        assert np.array_equal(p1, p2)

    def test_q_alpha_independent_bitwise(self, harmonic_pair):
        q1 = build_microstate(harmonic_pair, MicrostateParams(alpha=0.0)).Q.values
        q2 = build_microstate(harmonic_pair, MicrostateParams(alpha=1.7)).Q.values
        assert np.array_equal(q1, q2)

    def test_wronskian_weighted_momentum_constant(self, airy_pair):
        # (R^2 S0')' = 0 in its testable form: S0' |psiD - i ell psi|^2 constant,
        # with the slope taken by stencils rather than the closed form
        s0 = build_microstate(airy_pair, UNIT_ELL).S0
        fd = derivative(s0, 1).values
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
        p_ref = build_microstate(free_pair, MicrostateParams(ell=1.0)).p.values
        p_matched = build_microstate(scaled, MicrostateParams(ell=omega)).p.values
        assert np.max(np.abs(p_matched - p_ref)) < 1e-10
        # holding ell fixed changes the microstate
        p_fixed = build_microstate(scaled, MicrostateParams(ell=1.0)).p.values
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
                resid = ms.qshje.from_potential.values
                inner = pair.grid.interior_slice(0.8)
                assert np.max(np.abs(resid[inner])) / scale < 1e-7


class TestTimeOfQ:
    def test_free_closed_form(self, constants, free_grid):
        for energy in (1.0, 4.0):
            sc = free_scenario(constants, free_grid, energy)
            t = time_of_q(sc, UNIT_ELL)
            expected = -(free_grid.x - free_grid.x[0]) / (2.0 * np.sqrt(energy))
            assert np.max(np.abs(t.values - expected)) < 1e-9

    def test_gauge_reference(self, constants, free_grid):
        t = time_of_q(free_scenario(constants, free_grid), UNIT_ELL, x_ref=np.pi)
        assert abs(t.values[free_grid.index_of(np.pi)]) < 1e-15

    def test_attached_derivative_is_de_momentum(self):
        ms = EnergyFamily(catalog.linear_scenario(), GENERIC).microstate
        t, de_p = ms.time_of_q(), ms.de_momentum
        assert np.array_equal(t.derivs[0], de_p.values)
        assert all(np.array_equal(a, b) for a, b in zip(t.derivs[1:], de_p.derivs))
        # t' = dp/dE: the stencil derivative of t agrees with the exact dp/dE
        inner = t.grid.interior_slice(0.8)
        fd = derivative(t, 1).values
        assert np.max(np.abs(fd - de_p.values)[inner]) / np.max(np.abs(de_p.values)) < 1e-8

    def test_harmonic_closed_form_has_no_time(self, constants):
        sc = Scenario(Potential("harmonic"), constants, Grid(-1.0, 1.0, 257), 1.0)
        with pytest.raises(CapabilityError):
            time_of_q(sc, UNIT_ELL)


# A microstate with every constant generic, so that no E-derivative vanishes
# identically (with ell = 1 the free momentum is constant and dQ/dE = 0).
GENERIC = MicrostateParams(alpha=0.7, ell=1.5 + 0.2j)


def differenced(scenario, params, de):
    """t, dp/dE and dQ/dE by central differences of the microstates at E +/- dE,
    from the same initial data; the unwrap branches of S0(E +/- dE) are aligned
    at x_min, in steps of (hbar/2) 2 pi, before differencing."""
    plus, minus = (build_microstate(scenario.pair(scenario.energy + sign * de), params)
                   for sign in (1.0, -1.0))
    diff = plus.S0.values - minus.S0.values
    quantum = np.pi * scenario.constants.hbar
    diff = diff - quantum * round(float(diff[0]) / quantum)
    assert np.max(np.abs(diff)) < 0.5 * quantum, "unwrap branches cannot be aligned"
    t = diff / (2.0 * de)
    return (t - t[0], (plus.p.values - minus.p.values) / (2.0 * de),
            (plus.Q.values - minus.Q.values) / (2.0 * de))


def exact(pair, params):
    """t (gauged to x_min), dp/dE and dQ/dE from the pair's energy derivatives."""
    ms = build_microstate(pair, params)
    s0_e, de_q = ms._de_s0_q
    return s0_e - s0_e[0], ms.de_momentum.values, de_q


def assert_second_order(pair, scenario, params, de):
    """Exact and differenced t, dp/dE and dQ/dE agree with a gap that falls by
    4x when dE halves, the signature of the central difference's dE^2 error."""
    want = exact(pair, params)
    for name, ex, coarse, fine in zip(("t", "dp/dE", "dQ/dE"), want,
                                      differenced(scenario, params, de),
                                      differenced(scenario, params, 0.5 * de)):
        scale = np.max(np.abs(fine))
        gap, gap_half = np.max(np.abs(ex - coarse)) / scale, np.max(np.abs(ex - fine)) / scale
        assert gap < 1e-3, f"{name}: relative gap {gap:.2e}"
        assert 3.8 < gap / gap_half < 4.2, f"{name}: gap ratio {gap / gap_half:.3f}"


ORACLE_CASES = {
    "free-analytic": lambda: catalog.free_scenario(),
    "linear-airy": lambda: catalog.linear_scenario(),
    "harmonic-numeric-hbar1": lambda: catalog.harmonic_scenario(grid=Grid(-0.5, 0.5, 1025)),
    "harmonic-numeric-hbar0.25":
        lambda: catalog.harmonic_scenario(hbar=0.25, grid=Grid(-0.5, 0.5, 1025)),
}


def _negated(f):
    return ScalarField(f.grid, -f.values, derivs=tuple(-d for d in f.derivs))


def _zero(f):
    return ScalarField(f.grid, np.zeros(f.grid.n), derivs=(np.zeros(f.grid.n),) * 2)


# Defects planted in a correct pair; the oracle must catch each one.
PLANTED = {
    # without the -psi/eps^2 source the variational equation from zero
    # initial data has only the zero solution
    "no-source": ("harmonic-numeric-hbar1",
                  lambda pr: replace(pr, psi_e=_zero(pr.psi_e), psi_dual_e=_zero(pr.psi_dual_e))),
    "no-free-omega-e": ("free-analytic", lambda pr: replace(pr, omega_e=0.0)),
    "flipped-psi-dual-e": ("linear-airy",
                           lambda pr: replace(pr, psi_dual_e=_negated(pr.psi_dual_e))),
}


class TestExactEnergyDerivatives:
    """The finite-difference route is the oracle of the exact derivatives."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_central_differences_converge_at_second_order(self, case):
        sc = ORACLE_CASES[case]()
        assert_second_order(sc.pair(), sc, GENERIC, 3e-3 * sc.energy)

    @pytest.mark.parametrize("defect", list(PLANTED))
    def test_planted_defect_fails_the_oracle(self, defect):
        case, plant = PLANTED[defect]
        sc = ORACLE_CASES[case]()
        with pytest.raises(AssertionError):
            assert_second_order(plant(sc.pair()), sc, GENERIC, 3e-3 * sc.energy)

    def test_family_serves_the_exact_fields(self):
        sc = ORACLE_CASES["harmonic-numeric-hbar1"]()
        family = EnergyFamily(sc, GENERIC)
        t, de_p, _ = exact(family.pair, GENERIC)
        assert np.array_equal(family.microstate.time_of_q().values, t)
        assert np.array_equal(family.microstate.de_momentum.values, de_p)


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

    def test_monotone_segments_match_the_loop(self):
        rng = np.random.default_rng(11)
        walks = [np.array([]), np.array([1.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0]),
                 np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]), np.zeros(5)]
        for _ in range(300):
            n = int(rng.integers(2, 40))
            steps = rng.choice([-1.0, 0.0, 1.0], size=n - 1, p=[0.4, 0.2, 0.4])
            steps *= rng.uniform(0.5, 2.0, size=n - 1)
            walks.append(np.concatenate(([0.0], np.cumsum(steps))))
        # long monotone runs broken by single-sample reversals and plateaus
        runs = np.linspace(0.0, 1.0, 60)
        walks.append(np.concatenate((runs, runs[-2::-1][:1], runs[::-1], [0.0, 0.0], runs)))
        for t in walks:
            assert _monotone_segments(t) == monotone_segments_loop(t), t

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
        (lambda sc: time_of_q(sc, UNIT_ELL), 1),
        (lambda sc: energy_derivative_of_momentum(sc, UNIT_ELL), 1),
        (lambda sc: trajectory(sc, UNIT_ELL, t_samples=[-2.0, -1.0]), 1),
    ], ids=["time_of_q", "energy_derivative_of_momentum", "trajectory"])
    def test_solve_counts(self, pair_solves, stage, solves):
        stage(catalog.free_scenario())
        assert len(pair_solves) == solves
        assert len(set(pair_solves)) == solves

    def test_consumers_share_three_solves(self, pair_solves):
        # time_of_q, trajectory and de_momentum share the one solve at E
        sc = catalog.free_scenario()
        family = EnergyFamily(sc, UNIT_ELL)
        t = family.microstate.time_of_q()
        family.microstate.trajectory([-2.0, -1.0])
        assert family.microstate.pair is family.pair
        assert len(pair_solves) == 1
        assert np.array_equal(t.values, time_of_q(sc, UNIT_ELL).values)
        assert np.array_equal(family.microstate.de_momentum.values,
                              energy_derivative_of_momentum(sc, UNIT_ELL).values)


def monotone_segments_loop(t):
    """The former per-sample loop of ``_monotone_segments``, kept as its oracle."""
    dt = np.diff(t)
    segments = []
    start = 0
    sign = 0.0
    for i, d in enumerate(dt):
        s = np.sign(d)
        if s == 0.0:
            if i > start:
                segments.append((start, i + 1))
            start, sign = i + 1, 0.0
            continue
        if sign == 0.0:
            sign = s
        elif s != sign:
            segments.append((start, i + 1))
            start, sign = i, s
    if start < len(t) - 1:
        segments.append((start, len(t)))
    return segments


# One pair per closed form and the harmonic numeric pair, solved once for the
# property tests below.
PROPERTY_PAIRS = {
    "free-analytic": lambda: catalog.free_scenario().pair(),
    "linear-airy": lambda: catalog.linear_scenario().pair(),
    "harmonic-numeric": lambda: catalog.harmonic_scenario(grid=Grid(-0.5, 0.5, 1025)).pair(),
}
_property_pairs = {}


def property_pair(case):
    if case not in _property_pairs:
        _property_pairs[case] = PROPERTY_PAIRS[case]()
    return _property_pairs[case]


ALPHAS = st.floats(-10.0, 10.0)
ELLS = st.builds(complex, st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), st.floats(-1.0, 1.0))


@pytest.mark.parametrize("case", list(PROPERTY_PAIRS))
class TestInvarianceProperties:
    @settings(max_examples=20, deadline=None)
    @given(alpha=ALPHAS, ell=ELLS, m=st.integers(-20, 20))
    def test_rescaling_by_a_power_of_four_changes_no_bit(self, case, alpha, ell, m):
        # psi, psi_dual and their E-derivatives scale by 2^m and omega by 4^m,
        # exactly, and every microstate field is a ratio of equal powers
        pair = property_pair(case)
        params = MicrostateParams(alpha=alpha, ell=ell)
        ms = build_microstate(pair, params)
        scaled = build_microstate(normalize_wronskian(pair, 4.0 ** m * pair.wronskian), params)
        assert np.array_equal(ms.w.values, scaled.w.values, equal_nan=True)
        for name in ("p", "S0", "Q", "de_momentum"):
            assert np.array_equal(getattr(ms, name).values, getattr(scaled, name).values), name
        assert np.array_equal(ms.time_of_q().values, scaled.time_of_q().values)

    @settings(max_examples=20, deadline=None)
    @given(alpha=ALPHAS, shift=ALPHAS, ell=ELLS)
    def test_alpha_moves_only_s0_by_half_hbar_per_unit(self, case, alpha, shift, ell):
        pair = property_pair(case)
        ms = build_microstate(pair, MicrostateParams(alpha=alpha, ell=ell))
        moved = build_microstate(pair, MicrostateParams(alpha=alpha + shift, ell=ell))
        for name in ("p", "Q", "de_momentum"):
            assert np.array_equal(getattr(ms, name).values, getattr(moved, name).values), name
        step = moved.params.alpha - alpha  # the shift the rounded sum carries
        s0, s0_moved = ms.S0.values, moved.S0.values
        size = max(np.max(np.abs(s0)), np.max(np.abs(s0_moved)))
        gap = np.max(np.abs(s0_moved - s0 - 0.5 * pair.constants.hbar * step))
        assert gap <= 8.0 * np.finfo(float).eps * size
