"""Grid construction, stencil calculus, quadrature and phase unwrapping."""

import numpy as np
import pytest

from qhjlab.errors import DomainError, GridSizeError, SingularFieldError
from qhjlab.fields import (
    Grid,
    ScalarField,
    antiderivative,
    derivative,
    derivatives,
    interpolate,
    schwarzian,
    unwrap_phase,
)

# Offset stencil rows cover this many points next to each boundary; the
# centered, order-6 rows cover everything in between.
EDGE = 4


def interior(values, margin=EDGE):
    return values[margin:-margin]


class TestGrid:
    def test_samples_are_exact(self):
        g = Grid(-1.5, 2.5, 257)
        assert g.h == pytest.approx(4.0 / 256)
        x = g.x
        i = np.arange(257)
        assert np.max(np.abs(x - (-1.5 + i * g.h))) == 0.0
        assert x[0] == -1.5

    def test_too_small_rejected(self):
        with pytest.raises(GridSizeError):
            Grid(0.0, 1.0, 15)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            Grid(1.0, 0.0, 64)

    def test_samples_computed_once_and_read_only(self):
        g = Grid(-1.5, 2.5, 257)
        assert g.x is g.x
        expected = g.x_min + np.arange(g.n) * g.h
        assert np.array_equal(g.x.view(np.int64), expected.view(np.int64))
        with pytest.raises(ValueError):
            g.x[0] = 0.0
        assert g == Grid(-1.5, 2.5, 257) and hash(g) == hash(Grid(-1.5, 2.5, 257))

    def test_refined_shares_samples(self):
        g = Grid(0.0, 1.0, 33)
        r = g.refined()
        assert r.n == 65
        assert np.max(np.abs(r.x[::2] - g.x)) < 1e-15

    def test_samples_keep_x_and_h_bit_for_bit(self):
        g = Grid(-1.3, 2.9, 1001)
        sub = g.samples(117, 402)
        assert (sub.n, sub.x_min, sub.x_max) == (286, g.x[117], g.x[402])
        assert sub.h == g.h
        assert np.array_equal(sub.x.view(np.int64), g.x[117:403].view(np.int64))
        # a grid from the run's end points rounds its samples anew
        assert not np.array_equal(Grid(sub.x_min, sub.x_max, sub.n).x, sub.x)
        # a run of a run is a run of the first grid
        inner = sub.samples(3, 40)
        assert inner.parent is g and inner.start == 120
        assert np.array_equal(inner.x.view(np.int64), g.x[120:158].view(np.int64))
        assert sub == g.samples(117, 402) and hash(sub) == hash(g.samples(117, 402))
        assert sub != Grid(sub.x_min, sub.x_max, sub.n)
        with pytest.raises(GridSizeError):
            g.samples(0, 14)
        with pytest.raises(DomainError):
            g.samples(990, 1001)

    def test_index_of(self):
        g = Grid(0.0, 1.0, 101)
        assert g.index_of(0.5) == 50
        with pytest.raises(DomainError):
            g.index_of(2.0)


class TestScalarField:
    def test_length_checked(self):
        g = Grid(0.0, 1.0, 64)
        with pytest.raises(GridSizeError):
            ScalarField(g, np.zeros(63))

    def test_values_immutable(self):
        g = Grid(0.0, 1.0, 64)
        f = ScalarField(g, np.zeros(64))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_owned_array_is_kept_and_frozen(self):
        g = Grid(0.0, 1.0, 64)
        values, slope = np.sin(g.x), np.cos(g.x)
        f = ScalarField(g, values, derivs=(slope,))
        assert f.values is values and f.derivs[0] is slope
        with pytest.raises(ValueError):
            values[0] = 1.0
        with pytest.raises(ValueError):
            slope[0] = 1.0

    def test_wrong_length_owned_array_stays_writable(self):
        g = Grid(0.0, 1.0, 64)
        values = np.zeros(63)
        with pytest.raises(GridSizeError):
            ScalarField(g, values)
        values[0] = 1.0

    def test_view_is_copied(self):
        g = Grid(0.0, 1.0, 64)
        base = np.zeros((2, 64), dtype=np.complex128)
        f = ScalarField(g, base[0], derivs=(base[1].imag,))
        base[:] = 1.0 + 1.0j
        assert not f.values.any() and not f.derivs[0].any()
        assert f.values.base is None and f.derivs[0].base is None

    def test_list_is_converted(self):
        g = Grid(0.0, 1.0, 16)
        samples = [float(i) for i in range(16)]
        f = ScalarField(g, samples)
        assert isinstance(f.values, np.ndarray) and f.values.tolist() == samples
        assert not f.values.flags.writeable

    def test_attached_derivatives_agree_with_stencils(self):
        # invariant: finite-difference and analytic first derivatives agree
        # to stencil accuracy on interior points
        g = Grid(0.0, 3.0, 257)
        f = ScalarField(g, np.exp(g.x), derivs=(np.exp(g.x),))
        fd = derivative(f, 1).values
        assert np.max(np.abs(interior(fd - np.exp(g.x)))) < 1e-10


class TestDerivative:
    def test_exact_on_polynomials(self):
        g = Grid(-2.0, 2.0, 65)
        d = derivative(ScalarField(g, g.x ** 2), 1)
        assert np.max(np.abs(interior(d.values - 2.0 * g.x))) < 1e-12

    def test_third_derivative_of_sine(self):
        g = Grid(0.0, np.pi, 257)
        d3 = derivative(ScalarField(g, np.sin(g.x)), 3)
        assert np.max(np.abs(interior(d3.values + np.cos(g.x)))) < 1e-8

    def test_interior_convergence_order_six(self):
        # grids coarse enough that truncation stays above the roundoff floor
        errs, hs = [], []
        for n in (17, 33, 65, 129):
            g = Grid(0.0, 3.0, n)
            d2 = derivative(ScalarField(g, np.sin(3.0 * g.x)), 2)
            errs.append(np.max(np.abs(interior(d2.values + 9.0 * np.sin(3.0 * g.x)))))
            hs.append(g.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 6.0) < 0.3, f"order fit {slope}"

    def test_attached_derivatives_preferred(self):
        g = Grid(0.0, 1.0, 64)
        marker = np.full(64, 7.0)
        f = ScalarField(g, g.x ** 3, derivs=(marker, np.zeros(64)))
        values, d1, d2, d3 = derivatives(f, 3)
        # the attached arrays come back themselves, not copies
        assert values is f.values and d1 is f.derivs[0] and d2 is f.derivs[1]
        # an order f does not carry is derivative's stencil
        assert np.array_equal(d3, derivative(f, 3).values)
        # derivative never reads derivs: it differentiates the samples
        assert np.array_equal(derivative(f, 1).values,
                              derivative(ScalarField(g, g.x ** 3), 1).values)
        assert derivative(f, 1).derivs == ()

    def test_bad_order_rejected(self):
        g = Grid(0.0, 1.0, 64)
        f = ScalarField(g, g.x)
        with pytest.raises(ValueError):
            derivative(f, 4)
        # the minimal legal grid still supports the third derivative
        tiny = Grid(0.0, 1.0, 16)
        derivative(ScalarField(tiny, tiny.x), 3)


class TestSchwarzian:
    def test_identity_map_gives_zero(self):
        # exact up to the roundoff of the edge rows (f''' amplifies by 1/h^3)
        g = Grid(-1.0, 1.0, 129)
        s = schwarzian(ScalarField(g, g.x))
        assert np.max(np.abs(s.values)) < 1e-8

    def test_tangent_is_constant_two(self):
        # {tan x; x} = 2 on a grid inside (-1, 1)
        g = Grid(-1.0, 1.0, 513)
        s = schwarzian(ScalarField(g, np.tan(g.x)))
        assert np.max(np.abs(interior(s.values) - 2.0)) < 1e-7
        assert np.max(np.abs(s.values - 2.0)) < 1e-6

    def test_exponential_closed_form(self):
        # {e^{a x}; x} = -a^2/2, here with a = -2i
        g = Grid(0.0, 3.0, 513)
        s = schwarzian(ScalarField(g, np.exp(-2j * g.x)))
        assert np.max(np.abs(s.values - 2.0)) < 1e-7

    def test_vanishing_derivative_rejected(self):
        g = Grid(-1.0, 1.0, 129)
        with pytest.raises(SingularFieldError) as err:
            schwarzian(ScalarField(g, g.x ** 2))
        assert err.value.indices  # offending samples are named

    def test_moebius_invariance(self):
        # the defining property: {(af+b)/(cf+d); x} = {f; x} whenever ad != bc
        g = Grid(-1.0, 1.0, 513)
        f = np.tanh(g.x)
        base = schwarzian(ScalarField(g, f)).values
        rng = np.random.default_rng(7)
        for _ in range(12):
            while True:
                a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
                if abs(a * d - b * c) > 0.1 and np.min(np.abs(c * f + d)) > 0.3:
                    break
            mapped = schwarzian(ScalarField(g, (a * f + b) / (c * f + d))).values
            assert np.max(np.abs(interior(mapped - base))) < 1e-6
            assert np.max(np.abs(mapped - base)) < 1e-5


class TestAntiderivative:
    def test_zero_integrates_to_zero(self):
        g = Grid(0.0, 1.0, 64)
        F = antiderivative(ScalarField(g, np.zeros(64)), 0.5)
        assert np.max(np.abs(F.values)) == 0.0

    def test_cosine_integrates_to_sine(self):
        g = Grid(0.0, 2.0 * np.pi, 513)
        F = antiderivative(ScalarField(g, np.cos(g.x)), 0.0)
        assert np.max(np.abs(F.values - np.sin(g.x))) < 1e-9

    def test_round_trip_with_derivative(self):
        g = Grid(0.0, 3.0, 513)
        f = ScalarField(g, np.sin(2.0 * g.x) * np.exp(-g.x))
        F = antiderivative(f, g.x_min)
        back = derivative(ScalarField(g, F.values), 1).values
        assert np.max(np.abs(back - f.values)) < 1e-8

    def test_round_trip_other_direction(self):
        # antiderivative of the derivative recovers f up to the anchor value
        g = Grid(0.0, 3.0, 513)
        values = np.cos(1.7 * g.x)
        d = derivative(ScalarField(g, values), 1)
        back = antiderivative(ScalarField(g, d.values), 1.5).values
        assert np.max(np.abs(back - (values - np.cos(1.7 * 1.5)))) < 1e-8

    def test_reference_point_respected(self):
        g = Grid(0.0, 2.0, 129)
        F = antiderivative(ScalarField(g, np.exp(g.x)), 1.0)
        assert abs(interpolate(F, 1.0)) < 1e-14
        assert np.max(np.abs(F.values - (np.exp(g.x) - np.e))) < 1e-10

    def test_wide_range_keeps_the_anchors_neighbourhood(self):
        # e^{x^2} reaches e^36 at the ends: summed from x_min, the running sum
        # near x_ref = 0 is 3.6e14 and does not move, so F read exactly 0 on
        # |x| < 1.749; summed outward from the anchor it is 1.1e-13 relative
        from scipy.special import erfi

        g = Grid(-6.0, 6.0, 8193)
        F = antiderivative(ScalarField(g, np.exp(g.x ** 2)), 0.0).values
        exact = 0.5 * np.sqrt(np.pi) * erfi(g.x)
        off = g.x != 0.0
        assert np.max(np.abs(F[off] - exact[off]) / np.abs(exact[off])) < 1e-12

    def test_x_ref_outside_grid(self):
        g = Grid(0.0, 1.0, 64)
        with pytest.raises(DomainError):
            antiderivative(ScalarField(g, g.x), 2.0)

    def test_complex_values(self):
        g = Grid(0.0, 1.0, 257)
        F = antiderivative(ScalarField(g, np.exp(1j * g.x)), 0.0)
        exact = (np.exp(1j * g.x) - 1.0) / 1j
        assert np.max(np.abs(F.values - exact)) < 1e-12


class TestUnwrapPhase:
    def test_linear_winding(self):
        g = Grid(0.0, 4.0, 257)
        theta = unwrap_phase(ScalarField(g, np.exp(3j * g.x)))
        assert np.max(np.abs(theta.values - 3.0 * g.x)) < 1e-12

    def test_branch_cut_crossed_continuously(self):
        # -e^{-2ix} has phase pi - 2x; the continuous branch keeps going
        # through the usual cut instead of jumping
        g = Grid(0.0, 4.0, 257)
        theta = unwrap_phase(ScalarField(g, -np.exp(-2j * g.x)))
        assert np.max(np.abs(theta.values - (np.pi - 2.0 * g.x))) < 1e-12
        assert np.max(np.abs(np.diff(theta.values))) < np.pi

    def test_constant_one(self):
        g = Grid(0.0, 1.0, 64)
        theta = unwrap_phase(ScalarField(g, np.ones(64, dtype=complex)))
        assert np.max(np.abs(theta.values)) == 0.0

    def test_first_sample_in_principal_branch(self):
        g = Grid(0.0, 1.0, 64)
        theta = unwrap_phase(ScalarField(g, np.full(64, -1.0 + 0.0j)))
        assert -np.pi < theta.values[0] <= np.pi

    def test_modulus_floor(self):
        g = Grid(-1.0, 1.0, 129)
        with pytest.raises(SingularFieldError):
            unwrap_phase(ScalarField(g, g.x.astype(complex)))


def test_interpolate_matches_samples():
    g = Grid(0.0, 1.0, 64)
    f = ScalarField(g, np.sin(g.x))
    assert interpolate(f, g.x[10]) == pytest.approx(f.values[10], abs=1e-15)
    assert abs(interpolate(f, 0.505) - np.sin(0.505)) < 1e-10
