"""Prepotential identities, resolvent residuals, the s' oracle, norm scaling."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qhjlab import duality
from qhjlab.catalog import builtin_scenario
from qhjlab.errors import DomainError
from qhjlab.duality import (
    Prepotential,
    akq_residual,
    build_prepotential,
    dual_derivative_residual,
    duality_checks,
    gd_terms,
    legendre_residual,
    modulus_momentum_residual,
    omega_for_norm,
    prepotential_gd_residual,
    prepotential_ode_residual,
)
from qhjlab.fields import Grid, ScalarField, derivatives
from qhjlab.microstates import MicrostateParams, build_microstate
from qhjlab.schrodinger import Potential, analytic_pair, solve_pair

from conftest import rescaled


@pytest.fixture(scope="module")
def free_prep(free_pair):
    return build_prepotential(free_pair)


@pytest.fixture(scope="module")
def airy_prep(airy_pair):
    return build_prepotential(airy_pair)


@pytest.fixture(scope="module")
def harmonic_numeric_prep(constants):
    g = Grid(-3.0, 3.0, 2049)
    return build_prepotential(
        solve_pair(Potential("harmonic"), 2.0, constants, g, (1.0, 0.0, 0.0, 1.0)))


def strip(prep):
    """Clone without analytic derivatives, so every check runs on stencils."""
    def bare(f):
        return ScalarField(f.grid, f.values)

    return Prepotential(pair=prep.pair, psi=bare(prep.psi), psibar=bare(prep.psibar),
                        F=bare(prep.F), phi=prep.phi,
                        xi={k: bare(v) for k, v in prep.xi.items()})


def printed_gd_residual(prep):
    """The prepotential resolvent form with F in place of F' in the 4(E - V)
    term: a planted defect that genuine pairs do not solve."""
    eps, grid, f = prep.epsilon, prep.pair.grid, prep.F
    v_field, energy = prep.pair.v_field, prep.pair.energy
    f3 = derivatives(f, 3)[3]
    dv = derivatives(v_field, 1)[1]
    shifted = f.values + grid.x / (1j * eps)
    last = f.values + 1.0 / (1j * eps)
    resid = eps ** 2 * f3 - 2.0 * dv * shifted + 4.0 * (energy - v_field.values) * last
    return ScalarField(grid, resid)


class TestBuildPrepotential:
    def test_free_closed_form(self, free_prep, free_grid):
        assert np.max(np.abs(free_prep.F.values.real - 0.5)) < 1e-14
        assert np.max(np.abs(free_prep.F.values.imag - free_grid.x)) == 0.0

    def test_phi_times_psi_squared(self, free_prep):
        # psi^2 phi = |psi|^2 / 2 samplewise
        lhs = free_prep.xi["psi_sq"].values * free_prep.phi.values
        rhs = 0.5 * np.abs(free_prep.psi.values) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_modulus_momentum_normalization(self, free_prep):
        assert np.max(np.abs(modulus_momentum_residual(free_prep).values)) < 1e-8

    def test_modulus_momentum_numeric(self, harmonic_numeric_prep):
        resid = modulus_momentum_residual(harmonic_numeric_prep)
        assert np.max(np.abs(resid.values)) < 1e-5

    def test_pair_at_the_standard_scale_is_not_rescaled(self, free_prep):
        # W = -1 at eps = 1 is already 2i/eps; rescaling by s = 1 anyway would
        # turn psibar[0] = 1 - 0j into 1 + 0j, and a -0 of fields.csv into 0
        assert free_prep.psibar.values[0] == 1.0
        assert np.signbit(free_prep.psibar.values[0].imag)

    @pytest.mark.parametrize("factor", [1e-6, 0.25, 3.0, 7e5])
    def test_conjugate_pair_ignores_the_real_pairs_norm(self, free_pair, airy_pair,
                                                       harmonic_pair, factor):
        # the orientation and the scale s come from W alone, so the real pair
        # may carry any norm: its conjugate pair moves by rounding only
        # (at most 2.3e-16 relative measured)
        for pair in (free_pair, airy_pair, harmonic_pair):
            prep = build_prepotential(pair)
            moved = build_prepotential(rescaled(pair, factor))
            size = np.max(np.abs(prep.psi.values))
            assert np.max(np.abs(moved.psi.values - prep.psi.values)) <= 1e-15 * size


class TestDualDerivative:
    def test_free_exact(self, free_prep):
        assert np.max(dual_derivative_residual(free_prep).values) < 1e-10

    def test_numeric_harmonic_combination(self, harmonic_numeric_prep):
        prep = harmonic_numeric_prep
        inner = slice(4, -4)
        assert np.max(dual_derivative_residual(prep).values[inner]) < 1e-5


class TestPrepotentialOde:
    def test_free_solves_it(self, free_prep):
        resid = prepotential_ode_residual(free_prep)
        assert np.max(np.abs(resid.values)) < 1e-6

    def test_degenerate_energy_flags_nonsolution(self, free_prep, free_grid):
        # forcing E = V kills the right side, leaving |F_ppp| as the residual
        flat = Potential("custom", samples=ScalarField(free_grid, np.full(free_grid.n, 1.0)))
        prep = replace(free_prep, pair=replace(free_prep.pair, potential=flat))
        resid = prepotential_ode_residual(prep)
        assert np.max(np.abs(resid.values)) > 1.0

    def test_airy_pair_solves_it(self, airy_prep):
        # not a free-case accident: the travelling Airy combination satisfies
        # the same third-order equation
        prep = airy_prep
        resid = prepotential_ode_residual(prep)
        assert np.max(np.abs(resid.values)) < 1e-10

    def test_numeric_pair_solves_it(self, harmonic_numeric_prep):
        prep = harmonic_numeric_prep
        resid = prepotential_ode_residual(prep)
        assert np.max(np.abs(resid.values)) < 1e-5

    def test_residual_drops_at_stencil_order(self, constants):
        # stripped fields force the stencil path; each halving of h must pay
        # at least the guaranteed order (grids coarse enough to stay above
        # the roundoff floor)
        maxima = []
        for n in (33, 65, 129):
            g = Grid(0.0, 2.0 * np.pi, n)
            pair = analytic_pair(Potential("free"), 1.0, constants, g)
            prep = strip(build_prepotential(pair))
            resid = prepotential_ode_residual(prep)
            maxima.append(np.max(np.abs(resid.values[4:-4])))
        assert maxima[0] / maxima[1] > 2.0 ** 4
        assert maxima[1] / maxima[2] > 2.0 ** 4


class TestGelfandDickey:
    def test_free_constant_variant(self, free_prep):
        resid = gd_terms(free_prep.xi["psi_psibar"], free_prep.pair)[0]
        assert np.max(np.abs(resid)) < 1e-12

    def test_free_travelling_variant_hand_check(self, free_prep):
        # for Xi = psi^2 = e^{2iX} the third-derivative and energy terms cancel
        resid, scale = gd_terms(free_prep.xi["psi_sq"], free_prep.pair)
        assert np.max(np.abs(resid)) / scale < 1e-6

    @pytest.mark.parametrize("variant", ["psi_psibar", "psi_sq", "psibar_sq"])
    def test_all_variants_airy(self, airy_prep, variant):
        prep = airy_prep
        resid, scale = gd_terms(prep.xi[variant], prep.pair)
        assert np.max(np.abs(resid)) / scale < 1e-6

    @pytest.mark.parametrize("variant", ["psi_psibar", "psi_sq", "psibar_sq"])
    def test_all_variants_numeric(self, harmonic_numeric_prep, variant):
        prep = harmonic_numeric_prep
        resid, scale = gd_terms(prep.xi[variant], prep.pair)
        assert np.max(np.abs(resid)) / scale < 1e-4

    def test_prepotential_form_matches_xi_form(self, airy_prep):
        # the prepotential rewriting is half of the psi*conj(psi) equation
        prep = airy_prep
        via_f = prepotential_gd_residual(prep)
        via_xi = gd_terms(prep.xi["psi_psibar"], prep.pair)[0]
        assert np.max(np.abs(2.0 * via_f.values - via_xi)) < 1e-10

    def test_printed_variant_differs(self, free_prep):
        corrected = prepotential_gd_residual(free_prep)
        printed = printed_gd_residual(free_prep)
        assert np.max(np.abs(corrected.values)) < 1e-10
        assert np.max(np.abs(printed.values)) > 1.0


class TestAkq:
    def test_free_reduces_to_direct(self, free_prep):
        resid = akq_residual(free_prep)
        assert np.max(np.abs(resid.values)) < 1e-12

    def test_printed_form_fails_the_check(self, free_prep, monkeypatch):
        # planted defect: the check compares the free-energy form with the
        # direct one, so the printed direct form must push it over its bound
        value, bound = duality_checks(free_prep)["akq_matches_direct"]
        assert value < bound
        monkeypatch.setattr(duality, "prepotential_gd_residual", printed_gd_residual)
        assert duality_checks(free_prep)["akq_matches_direct"][0] > bound

    def test_linear_with_airy_pair(self, airy_prep):
        prep = airy_prep
        resid = akq_residual(prep)
        scale = gd_terms(prep.xi["psi_psibar"], prep.pair)[1]
        assert np.max(np.abs(resid.values)) / scale < 1e-4

    def test_substitution_recovers_direct_form(self, airy_prep):
        prep = airy_prep
        via_akq = akq_residual(prep)
        direct = prepotential_gd_residual(prep)
        assert np.max(np.abs(via_akq.values - direct.values)) < 1e-12

    def test_construction_identity(self, harmonic_pair):
        # the free-energy form with F0'' = -V/2 = -x^2/2 and F0''' = -V'/2 = -x
        # written out, in akq_residual's operation order: equal bit for bit
        prep = build_prepotential(harmonic_pair)
        x, eps, energy = prep.pair.grid.x, prep.epsilon, prep.pair.energy
        f, f1, _, f3 = derivatives(prep.F, 3)
        expected = (eps ** 2 * f3
                    + (f1 + 1.0 / (1j * eps)) * (8.0 * (-0.5 * x ** 2) + 4.0 * energy)
                    + 4.0 * (-0.5 * (2.0 * x)) * (f + x / (1j * eps)))
        assert np.array_equal(akq_residual(prep).values, expected)


def sprime_error(name, ell, c_factor=1.0):
    """Max relative gap between |p| of the (ell) microstate on built-in ``name``
    and s' = sqrt(2m) / (a psi^2 + b conj(psi)^2 + c psi conj(psi)) on its
    normalized conjugate pair psi.

    (a, b = conj(a), c) is fitted to the microstate denominator
    |psi_dual - i ell psi_real|^2 and scaled to c^2 - 4ab = 1; ``c_factor``
    then multiplies c.
    """
    pair = builtin_scenario(name).pair()
    p = build_microstate(pair, MicrostateParams(ell=ell)).p.values
    ell, u = complex(ell), pair.psi.values
    den = (pair.psi_dual.values + ell.imag * u) ** 2 + (ell.real * u) ** 2
    psi = build_prepotential(pair).psi.values
    # real unknowns (Re a, Im a, c): the form is 2 Re(a psi^2) + c |psi|^2
    sq, mod2 = psi ** 2, np.abs(psi) ** 2
    basis = np.column_stack([2.0 * sq.real, -2.0 * sq.imag, mod2])
    (a_re, a_im, c), *_ = np.linalg.lstsq(basis, den, rcond=None)
    a = complex(a_re, a_im)
    scale = 1.0 / np.sqrt(c * c - 4.0 * abs(a) ** 2)
    a, b, c = scale * a, scale * a.conjugate(), scale * c * c_factor
    s_prime = np.sqrt(2.0 * pair.constants.mass) / (a * sq + b * np.conj(sq) + c * mod2)
    return float(np.max(np.abs(s_prime - np.abs(p)) / np.abs(p)))


ELLS = [1.0, 1.7 + 0.3j, -0.8 - 0.4j]


class TestWkbGeneralSprime:
    """The inverse-quadratic form of s' is the microstate momentum in other
    coordinates; kept as an oracle for :func:`qhjlab.microstates.momentum`."""

    @pytest.mark.parametrize("ell", ELLS)
    @pytest.mark.parametrize("name", ["free", "linear"])
    def test_matches_microstate_momentum(self, name, ell):
        assert sprime_error(name, ell) < 1e-12

    @pytest.mark.parametrize("ell", ELLS)
    @pytest.mark.parametrize("name", ["free", "linear"])
    def test_planted_defect_fails(self, name, ell):
        # c off by 1e-6 breaks c^2 - 4ab = 1, and the match with it
        assert sprime_error(name, ell, c_factor=1.0 + 1e-6) > 1e-12

    def test_phase_derivative_cross_check(self, free_prep, constants):
        # independent route: R^2 s' from hbar * d/dx arg(psi) matches sqrt(2m)/c
        from qhjlab.fields import unwrap_phase, derivative
        theta = unwrap_phase(free_prep.psi)
        dtheta = derivative(theta, 1).values
        mod2 = np.abs(free_prep.psi.values) ** 2
        product = mod2 * constants.hbar * dtheta
        assert np.max(np.abs(product - 1.0)) < 1e-9


class TestOmegaForNorm:
    def test_unit_modulus(self, free_grid):
        assert omega_for_norm(ScalarField(free_grid, np.ones(free_grid.n))) == 1.0

    def test_exponential_closed_form(self):
        g = Grid(0.0, 2.0 * np.pi, 513)
        m2 = ScalarField(g, np.exp(2.0 * np.sin(g.x)))
        omega = omega_for_norm(m2)
        assert omega == pytest.approx(np.exp(-2.0), rel=1e-15)
        assert np.max(omega * m2.values) == pytest.approx(1.0, abs=1e-12)

    def test_maximality(self):
        g = Grid(0.0, 2.0 * np.pi, 513)
        m2 = ScalarField(g, np.exp(2.0 * np.sin(g.x)))
        omega = omega_for_norm(m2)
        assert np.max(omega * (1.0 + 1e-12) * m2.values) > 1.0

    def test_nonpositive_rejected(self, free_grid):
        with pytest.raises(DomainError):
            omega_for_norm(ScalarField(free_grid, np.zeros(free_grid.n)))

    def test_scaling_preserves_microstate_residual(self, free_pair):
        # the norm-fixing scale is invisible to the trajectory equation
        ms = build_microstate(free_pair, MicrostateParams(ell=2.0))
        omega = omega_for_norm(ScalarField(free_pair.grid,
                                           np.abs(free_pair.psi.values) ** 2 + 0.5))
        scaled = rescaled(free_pair, omega)
        ms_scaled = build_microstate(scaled, MicrostateParams(ell=2.0))
        a = ms.qshje.from_potential.values
        b = ms_scaled.qshje.from_potential.values
        assert np.max(np.abs(a - b)) < 1e-10


def test_legendre_consistency(free_prep):
    assert np.max(np.abs(legendre_residual(free_prep).values)) < 1e-6


def test_checks_peak_memory(constants):
    # linear-report's duality stage: forming each Xi's resolvent terms once and
    # reading attached derivatives without copies peaks at 2.38 MiB, where
    # forming them per call on copied arrays peaked at 3.26 MiB
    pair = analytic_pair(Potential("linear"), 2.0, constants, Grid(-4.0, 1.5, 16385))
    prep = build_prepotential(pair)
    tracemalloc.start()
    try:
        duality_checks(prep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2 ** 20
