"""Solution pairs: closed forms, the RK4 fallback, Wronskian control."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhjlab.errors import CapabilityError, ContractError, DegeneracyError, DomainError
from qhjlab.fields import Grid, ScalarField, derivative, interpolate
from qhjlab.microstates import MicrostateParams, build_microstate
from qhjlab.schrodinger import (
    WRONSKIAN_TOL,
    PhysicalConstants,
    Potential,
    Scenario,
    analytic_pair,
    default_ics,
    make_conjugate,
    normalize_wronskian,
    solve_pair,
)


def fd_residual(pair, member="psi", margin=4):
    """Relative stationary-equation residual -eps^2 u'' + (V - E) u of one
    member, u'' its samples' stencil, on the centered-stencil region, over
    max |(V - E) u| of both members."""
    eps, v_e = pair.constants.epsilon, pair.v_field.values - pair.energy
    u = pair.psi if member == "psi" else pair.psi_dual
    res = -eps * eps * derivative(u, 2).values + v_e * u.values
    scale = max(np.max(np.abs(v_e * w.values)) for w in (pair.psi, pair.psi_dual))
    return np.max(np.abs(res[margin:-margin])) / scale


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

    @pytest.mark.parametrize("hbar, mass", [(1e-200, 0.5), (1e300, 0.5), (1.0, 1e-320),
                                            (1e-154, 0.5)])
    def test_eps_squared_must_be_a_normal_float(self, hbar, mass):
        # eps^2 underflows to 0, overflows, or is subnormal
        with pytest.raises(ValueError, match="not a positive normal float"):
            PhysicalConstants(hbar=hbar, mass=mass)


class TestPotential:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            Potential("quartic")
        with pytest.raises(ValueError):
            Potential("custom")  # needs samples
        with pytest.raises(ValueError):
            Potential("linear", slope=0.0)

    def test_ground_level_predicate(self):
        harmonic = Potential("harmonic", stiffness=4.0)
        c = PhysicalConstants(hbar=0.5)  # eps = 0.5, ground level 1
        assert harmonic.is_ground_level(1.0, c)
        assert harmonic.is_ground_level(1.0 + 5e-10, c)
        assert not harmonic.is_ground_level(1.0 + 5e-9, c)
        with pytest.raises(CapabilityError):
            Potential("free").is_ground_level(1.0, c)

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

    @pytest.mark.parametrize("values, message", [
        (lambda x: np.cos(x) + 1e-3j * np.sin(x), "V must be real"),
        (lambda x: np.cos(x) + 0j, "V must be real"),
        (lambda x: np.where(x > 0.5, np.nan, np.cos(x)), "V has non-finite samples"),
        (lambda x: np.where(x > 0.5, np.inf, np.cos(x)), "V has non-finite samples"),
    ])
    def test_custom_samples_must_be_real_and_finite(self, values, message):
        # refused where the potential is built, so no solver sees them (a
        # ComplexWarning or RuntimeWarning would fail this test)
        g = Grid(-1.0, 1.0, 129)
        with pytest.raises(ContractError, match=message):
            Potential("custom", samples=ScalarField(g, values(g.x)))

    def test_custom_value_is_one_array_pass_of_the_scalar_stencil(self):
        g = Grid(-1.0, 1.0, 129)
        f = ScalarField(g, 0.3 * np.cos(3.0 * g.x))
        v = Potential("custom", samples=f)
        xs = np.concatenate([np.linspace(-1.0, 1.0, 1001), g.x, g.x[:-1] + 0.5 * g.h])
        scalar = np.array([interpolate(f, float(x)) for x in xs])
        assert np.max(np.abs(v.value(xs) - scalar)) <= 1e-13 * np.max(np.abs(scalar))
        assert v.value(xs[:6].reshape(2, 3)).shape == (2, 3)
        for off_grid in (1.01, np.array([0.0, -1.5]), np.nan):
            with pytest.raises(DomainError):
                v.value(off_grid)


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

    def test_accuracy_failure_carries_diagnostics(self, constants, free_grid, monkeypatch):
        from qhjlab import schrodinger
        from qhjlab.errors import AccuracyError
        monkeypatch.setitem(schrodinger.RESIDUAL_TOL, "numeric", 1e-30)
        with pytest.raises(AccuracyError) as err:
            solve_pair(Potential("free"), 1.0, constants, free_grid, (1.0, 0.0, 0.0, 1.0))
        assert "schrodinger_residual" in err.value.diagnostics
        assert "wronskian_drift" in err.value.diagnostics

    def test_overflowed_pair_rejected(self):
        # E = -50 lies far below the slope on [0, 20]: at hbar 0.01 the sweep
        # overflows, and the NaN diagnostics must fail, not pass
        constants = PhysicalConstants(hbar=0.01, mass=0.5)
        from qhjlab.errors import AccuracyError
        with np.errstate(all="ignore"), pytest.raises(AccuracyError, match="NaN") as err:
            solve_pair(Potential("linear"), -50.0, constants, Grid(0.0, 20.0, 4097),
                       (1.0, 0.0, 0.0, 1.0))
        assert np.isnan(err.value.diagnostics["schrodinger_residual"])

    def test_overflowed_energy_derivative_rejected(self):
        # a finite sweep up to |psi| ~ 1e109, whose Green's function products
        # (of size |psi|^3) overflow: refused without a numpy warning
        from qhjlab.errors import AccuracyError
        with pytest.raises(AccuracyError, match="energy derivative overflows"):
            solve_pair(Potential("linear"), -50.0, PhysicalConstants(hbar=0.1),
                       Grid(0.0, 3.5, 4097), (1.0, 0.0, 0.0, 1.0))

    @pytest.mark.parametrize("hbar, x_max, message", [(0.01, 20.0, "NaN"),
                                                      (0.1, 3.5, "energy derivative overflows")])
    def test_overflowed_composed_pair_rejected(self, hbar, x_max, message):
        # the two cases above through the composed sweep, refused the same way
        # with no numpy warning; at hbar 0.01 its first non-finite sample is
        # 223, the stepwise sweep's 221
        from qhjlab.errors import AccuracyError
        with pytest.raises(AccuracyError, match=message):
            solve_pair(Potential("linear"), -50.0, PhysicalConstants(hbar=hbar),
                       Grid(0.0, x_max, 4097), (1.0, 0.0, 0.0, 1.0), stepwise=False)

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
        from qhjlab.microstates import MicrostateParams, build_microstate
        g = Grid(-2.0, 2.0, 1025)
        pot = Potential("custom", samples=ScalarField(g, 0.3 * np.cos(g.x)))
        pair = solve_pair(pot, 1.4, constants, g, (1.0, 0.0, 0.0, 1.0))
        assert pair.wronskian_drift() < 1e-6
        ms = build_microstate(pair, MicrostateParams())
        rep = ms.qshje
        scale = max(1.4, np.max(np.abs(ms.mfW.values)))
        inner = g.interior_slice(0.8)
        assert np.max(np.abs(rep.from_potential.values[inner])) / scale < 1e-6
        assert rep.w_mismatch / scale < 1e-6


def numpy_step_loop(potential, E, constants, grid, ics):
    """The former numpy RK4 sweep of ``solve_pair``, kept as the reference:
    (n, 4) states (psi, psi', psiD, psiD') on the grid."""
    eps2 = constants.epsilon ** 2
    x = grid.x
    h = grid.h
    g_nodes = (potential.value(x) - E) / eps2
    g_mid = (potential.value(x[:-1] + 0.5 * h) - E) / eps2

    n = grid.n
    state = np.empty((n, 4))
    state[0] = ics
    y = np.array(ics)
    for i in range(n - 1):
        g0, gm, g1 = g_nodes[i], g_mid[i], g_nodes[i + 1]
        k1 = np.array([y[1], g0 * y[0], y[3], g0 * y[2]])
        y2 = y + 0.5 * h * k1
        k2 = np.array([y2[1], gm * y2[0], y2[3], gm * y2[2]])
        y3 = y + 0.5 * h * k2
        k3 = np.array([y3[1], gm * y3[0], y3[3], gm * y3[2]])
        y4 = y + h * k3
        k4 = np.array([y4[1], g1 * y4[0], y4[3], g1 * y4[2]])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        state[i + 1] = y
    return state


def variational_step_loop(potential, E, constants, grid, ics):
    """The former eight-lane scalar sweep of ``solve_pair``, kept as the
    reference for its energy derivatives: (n, 4) states
    (psi_E, psi_E', psiD_E, psiD_E') integrated by RK4 next to the pair from
    zero initial data, which makes them the exact E-derivative of the swept
    pair."""
    eps2 = constants.epsilon ** 2
    x = grid.x
    h = grid.h
    g_nodes = (potential.value(x) - E) / eps2
    g_mid = (potential.value(x[:-1] + 0.5 * h) - E) / eps2

    half, sixth, src = 0.5 * h, h / 6.0, 1.0 / eps2
    u, du, w, dw = (float(v) for v in ics)
    ue = due = we = dwe = 0.0
    state = [ue, due, we, dwe]
    g_list = g_nodes.tolist()
    for g0, gm, g1 in zip(g_list, g_mid.tolist(), g_list[1:]):
        a1, b1, c1, d1 = du, g0 * u, dw, g0 * w
        e1, f1, k1, l1 = due, g0 * ue - src * u, dwe, g0 * we - src * w
        u2, w2 = u + half * a1, w + half * c1
        a2, b2, c2, d2 = du + half * b1, gm * u2, dw + half * d1, gm * w2
        e2, f2 = due + half * f1, gm * (ue + half * e1) - src * u2
        k2, l2 = dwe + half * l1, gm * (we + half * k1) - src * w2
        u3, w3 = u + half * a2, w + half * c2
        a3, b3, c3, d3 = du + half * b2, gm * u3, dw + half * d2, gm * w3
        e3, f3 = due + half * f2, gm * (ue + half * e2) - src * u3
        k3, l3 = dwe + half * l2, gm * (we + half * k2) - src * w3
        u4, w4 = u + h * a3, w + h * c3
        a4, b4, c4, d4 = du + h * b3, g1 * u4, dw + h * d3, g1 * w4
        e4, f4 = due + h * f3, g1 * (ue + h * e3) - src * u4
        k4, l4 = dwe + h * l3, g1 * (we + h * k3) - src * w4
        u, du, w, dw = (u + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                        du + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
                        w + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
                        dw + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
        ue, due, we, dwe = (ue + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4),
                            due + sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
                            we + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                            dwe + sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4))
        state.extend((ue, due, we, dwe))
    return np.array(state).reshape(-1, 4)


def _sweep_cases():
    from qhjlab.catalog import harmonic_scenario

    unit = PhysicalConstants()
    g = Grid(-3.0, 3.0, 1025)
    u0 = np.exp(-0.5 * g.x_min ** 2)
    scan = harmonic_scenario(hbar=1.0 / 16.0, grid=Grid(-0.5, 0.5, 4097))
    custom = Grid(-2.0, 2.0, 257)
    return {
        "free": (Potential("free"), 1.0, unit, Grid(0.0, 2.0 * np.pi, 257),
                 (1.0, 0.0, 0.0, 1.0)),
        "harmonic-ground": (Potential("harmonic"), 1.0, unit, g,
                            (u0, -g.x_min * u0, 0.0, -1.0 / u0)),
        "harmonic-scan": (scan.potential, scan.energy, scan.constants, scan.grid,
                          default_ics(scan.potential, scan.constants, scan.grid.x_min)),
        "linear": (Potential("linear"), 2.0, unit, Grid(0.0, 4.0, 1025), (1.0, 0.0, 0.0, 1.0)),
        "custom": (Potential("custom", samples=ScalarField(custom, 0.3 * np.cos(custom.x))),
                   1.4, unit, custom, (1.0, 0.0, 0.0, 1.0)),
    }


def _composed_cases():
    from qhjlab.catalog import harmonic_scenario

    unit = PhysicalConstants()
    cases = {}
    for n in (1000, 1025, 4097):  # 999 steps fill 31 blocks of 32 and 7 of the last
        scan = harmonic_scenario(hbar=1.0 / 16.0, grid=Grid(-0.5, 0.5, n))
        cases[f"free-{n}"] = (Potential("free"), 1.0, unit, Grid(0.0, 2.0 * np.pi, n),
                              (1.0, 0.0, 0.0, 1.0))
        cases[f"harmonic-{n}"] = (scan.potential, scan.energy, scan.constants, scan.grid,
                                  default_ics(scan.potential, scan.constants, scan.grid.x_min))
        cases[f"linear-{n}"] = (Potential("linear"), 2.0, unit, Grid(0.0, 4.0, n),
                                (1.0, 0.0, 0.0, 1.0))
    return cases


def _energy_derivative_cases():
    unit = PhysicalConstants()
    cases = {f"numeric-{name}": solve_pair(*args) for name, args in _sweep_cases().items()}
    cases["analytic-free"] = analytic_pair(Potential("free"), 1.0, unit,
                                           Grid(0.0, 2.0 * np.pi, 1025))
    cases["analytic-linear"] = analytic_pair(Potential("linear"), 2.0, unit,
                                             Grid(-4.0, 1.5, 1025))
    return cases


@pytest.mark.parametrize("case", ["numeric-free", "numeric-harmonic-ground",
                                  "numeric-harmonic-scan", "numeric-linear", "numeric-custom",
                                  "analytic-free", "analytic-linear"])
def test_energy_derivative_solves_the_variational_equation(case):
    # -eps^2 u_E'' + (V - E) u_E = u, with u_E'' from stencils, independent of
    # the attached second derivative; the attached one must agree with it
    pair = _energy_derivative_cases()[case]
    eps2 = pair.constants.epsilon ** 2
    v = pair.potential.derivative_samples(pair.grid, 0)
    inner = pair.grid.interior_slice(0.8)
    for u, u_e in ((pair.psi, pair.psi_e), (pair.psi_dual, pair.psi_dual_e)):
        d2 = derivative(ScalarField(u_e.grid, u_e.values), 2).values
        scale = np.max(np.abs(u.values))
        residual = -eps2 * d2 + (v - pair.energy) * u_e.values - u.values
        assert np.max(np.abs(residual[inner])) / scale < 1e-6
        assert np.max(np.abs((d2 - u_e.derivs[1])[inner])) * eps2 / scale < 1e-6
        d1 = derivative(ScalarField(u_e.grid, u_e.values), 1).values
        assert np.max(np.abs((d1 - u_e.derivs[0])[inner])) / np.max(np.abs(d1)) < 1e-6
    if case.startswith("numeric"):
        # zero initial data: the pair's initial values do not depend on E
        assert (pair.psi_e.values[0], pair.psi_e.derivs[0][0]) == (0.0, 0.0)
        assert pair.omega_e == 0.0


def test_harmonic_ground_pair_has_no_energy_derivative(harmonic_pair):
    assert harmonic_pair.psi_e is None and harmonic_pair.psi_dual_e is None


@pytest.mark.parametrize("case", ["free", "harmonic-ground", "harmonic-scan", "linear", "custom"])
def test_scalar_sweep_is_bitwise_the_numpy_loop(case):
    args = _sweep_cases()[case]
    pair = solve_pair(*args)
    expected = numpy_step_loop(*args)
    got = (pair.psi.values, pair.psi.derivs[0], pair.psi_dual.values, pair.psi_dual.derivs[0])
    for column, values in enumerate(got):
        assert np.array_equal(values, expected[:, column]), f"state column {column}"


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
        before = build_microstate(free_pair, params).qshje
        scaled = normalize_wronskian(free_pair, free_pair.wronskian * 4.0)
        after = build_microstate(scaled, params).qshje
        assert np.max(np.abs(before.from_potential.values
                             - after.from_potential.values)) < 1e-12

    def test_rescaled_real_pair_keeps_its_energy_derivatives(self, free_pair):
        # psi_E, psi_dual_E scale with the members and omega_E with the Wronskian,
        # so dp/dE of the rescaled pair is still defined, and unchanged
        scaled = normalize_wronskian(free_pair, 4.0 * free_pair.wronskian)
        for f, g in ((free_pair.psi_e, scaled.psi_e), (free_pair.psi_dual_e, scaled.psi_dual_e)):
            for u, v in zip((f.values,) + f.derivs, (g.values,) + g.derivs):
                assert np.array_equal(2.0 * u, v)
        assert scaled.omega_e == 4.0 * free_pair.omega_e != 0.0
        params = MicrostateParams(alpha=0.3, ell=1.5 + 0.2j)
        assert np.array_equal(build_microstate(scaled, params).de_momentum.values,
                              build_microstate(free_pair, params).de_momentum.values)

    def test_zero_wronskian_rejected(self, free_pair):
        from dataclasses import replace
        broken = replace(free_pair, wronskian=0.0j)
        with pytest.raises(DegeneracyError):
            normalize_wronskian(broken)

    @pytest.mark.parametrize("factor", [-1.0, 1j])
    def test_non_real_scale_factor_rejected(self, free_pair, factor):
        # a real pair rescaled by sqrt(-1) or sqrt(i) would stop being real
        with pytest.raises(ContractError):
            normalize_wronskian(free_pair, free_pair.wronskian * factor)


class TestScenario:
    @pytest.mark.parametrize("kind", ["free", "harmonic"])
    def test_numeric_without_ics_solves_from_default_ics(self, constants, kind):
        grid = Grid(-0.5, 0.5, 257)
        potential = Potential(kind)
        ics = (1.0, 0.0, 0.0, 1.0) if kind == "free" else \
            default_ics(potential, constants, grid.x_min)
        bare = Scenario(potential, constants, grid, 1.0, method="numeric")
        got, expected = bare.pair(), replace(bare, ics=ics).pair()
        for member in ("psi", "psi_dual"):
            a, b = getattr(got, member), getattr(expected, member)
            assert np.array_equal(a.values, b.values)
            assert all(np.array_equal(da, db) for da, db in zip(a.derivs, b.derivs))

    def test_harmonic_default_ics_are_the_centered_ground_pair(self):
        # the partner is anchored at the well center, as in the analytic pair
        constants = PhysicalConstants(hbar=0.5)
        grid = Grid(-0.5, 0.5, 1025)
        pair = analytic_pair(Potential("harmonic"), 0.5, constants, grid)
        at_x_min = (pair.psi.values[0], pair.psi.derivs[0][0],
                    pair.psi_dual.values[0], pair.psi_dual.derivs[0][0])
        assert default_ics(Potential("harmonic"), constants, grid.x_min) == \
            pytest.approx(at_x_min, rel=1e-9)

    def test_at_hbar_moves_harmonic_to_its_ground_level(self):
        sc = Scenario(Potential("harmonic", stiffness=4.0), PhysicalConstants(mass=2.0),
                      Grid(-1.0, 1.0, 65), 3.0, method="numeric")
        moved = sc.at_hbar(0.25)
        assert moved.constants == PhysicalConstants(hbar=0.25, mass=2.0)
        assert moved.energy == 0.25  # eps sqrt(k) = (0.25 / 2) * 2
        assert replace(moved, constants=sc.constants, energy=sc.energy) == sc

    def test_at_hbar_keeps_free_energy(self, free_grid):
        sc = Scenario(Potential("free"), PhysicalConstants(mass=2.0), free_grid, 1.5)
        moved = sc.at_hbar(0.5)
        assert moved.constants == PhysicalConstants(hbar=0.5, mass=2.0)
        assert moved.energy == 1.5

    @pytest.mark.parametrize("kind", ["free", "harmonic"])
    def test_at_same_hbar_is_the_scenario(self, constants, free_grid, kind):
        sc = Scenario(Potential(kind), constants, free_grid, 1.0)  # harmonic ground level
        assert sc.at_hbar(constants.hbar) == sc

    def test_pair_at_shifted_energy(self, constants, free_grid):
        sc = Scenario(Potential("free"), constants, free_grid, 1.0)
        pair = sc.pair(4.0)
        assert np.allclose(pair.psi.values, np.cos(2.0 * free_grid.x))


SWEEP_CASES = ["free", "harmonic-ground", "harmonic-scan", "linear", "custom"]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_energy_derivative_matches_the_variational_sweep(case):
    # The RK4 lanes are the exact E-derivative of the discrete sweep, the
    # Green's function integrates the swept pair: two O(h^4) routes to u_E,
    # which agree to RK4's relative step error (h k)^4 with k = max sqrt|g|
    # (measured 1.5e-8 on the n=257 free case, 4.4e-14 at n=4097 hbar=1/16)
    potential, E, constants, grid, ics = args = _sweep_cases()[case]
    pair = solve_pair(*args)
    expected = variational_step_loop(*args)
    k = np.sqrt(np.max(np.abs(potential.value(grid.x) - E))) / constants.epsilon
    tol = 0.1 * (grid.h * k) ** 4
    got = (pair.psi_e.values, pair.psi_e.derivs[0], pair.psi_dual_e.values, pair.psi_dual_e.derivs[0])
    for column, values in enumerate(got):
        ref = expected[:, column]
        assert np.max(np.abs(values - ref)) / np.max(np.abs(ref)) < tol, f"lane {column}"


def _fields(pair):
    return [a for f in (pair.psi, pair.psi_dual, pair.psi_e, pair.psi_dual_e)
            for a in (f.values,) + f.derivs]


@pytest.mark.parametrize("case", ["free", "custom"])
@settings(max_examples=50)
@given(ics=st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_swapping_the_members_swaps_the_energy_derivatives(case, ics):
    # the lanes share their formulas, w0 changes sign exactly and psi psiD is
    # psiD psi, so the swap is exact; only the zero at x_min may change sign
    assume(abs(ics[1] * ics[2] - ics[0] * ics[3]) > 0.25)
    potential, E, constants, grid, _ = _sweep_cases()[case]
    pair = solve_pair(potential, E, constants, grid, ics)
    swapped = solve_pair(potential, E, constants, grid, ics[2:] + ics[:2])
    assert swapped.wronskian == -pair.wronskian
    for a, b in ((pair.psi_e, swapped.psi_dual_e), (pair.psi_dual_e, swapped.psi_e)):
        for u, v in zip((a.values,) + a.derivs, (b.values,) + b.derivs):
            assert np.array_equal(u.view(np.int64)[1:], v.view(np.int64)[1:])
            assert u[0] == v[0]


@pytest.mark.parametrize("case", SWEEP_CASES)
@settings(max_examples=10)
@given(m=st.integers(-60, 60))
def test_scaling_the_data_by_a_power_of_two_scales_every_sample(case, m):
    potential, E, constants, grid, ics = _sweep_cases()[case]
    pair = solve_pair(potential, E, constants, grid, ics)
    scaled = solve_pair(potential, E, constants, grid, tuple(2.0 ** m * c for c in ics))
    assert scaled.wronskian == 4.0 ** m * pair.wronskian
    for u, v in zip(_fields(pair), _fields(scaled)):
        assert np.array_equal(2.0 ** m * u, v)


@pytest.mark.parametrize("case", [f"{kind}-{n}" for kind in ("free", "harmonic", "linear")
                                  for n in (1000, 1025, 4097)])
def test_composed_sweep_agrees_with_the_step_loops(case):
    # composing the step matrices changes only the rounding: normwise within
    # 3e-13 of both step loops (at most 1.4e-13 measured, free at n = 4097),
    # and the pair passes construction
    def state(p):
        return np.stack((p.psi.values, p.psi.derivs[0], p.psi_dual.values, p.psi_dual.derivs[0]),
                        axis=1)

    args = _composed_cases()[case]
    pair = solve_pair(*args, stepwise=False)
    for expected in (numpy_step_loop(*args), state(solve_pair(*args))):
        assert np.max(np.abs(state(pair) - expected)) / np.max(np.abs(expected)) < 3e-13
    assert pair.wronskian_drift() < WRONSKIAN_TOL["numeric"]
