"""Indeterminacy chain, interval reports, and the hbar scaling law."""

import pytest

from qhjlab.catalog import (
    SCAN_WINDOWS,
    builtin_scenario,
    harmonic_scenario,
    scan_template,
)
from qhjlab.errors import DomainError, StatisticsError
from qhjlab.fields import Grid
from qhjlab.microstates import MicrostateParams, build_microstate, \
    energy_derivative_of_momentum
from qhjlab.uncertainty import delta_chain, hbar_scaling_scan

UNIT_ELL = MicrostateParams(alpha=0.0, ell=1.0 + 0.0j)
SCAN_HBARS = [1.0, 0.5, 0.25, 0.125, 0.0625]


@pytest.fixture(scope="module")
def free_ms():
    scenario = builtin_scenario("free")
    ms = build_microstate(scenario.pair(), UNIT_ELL)
    de_p = energy_derivative_of_momentum(scenario, UNIT_ELL)
    return ms, de_p


class TestDeltaChain:
    def test_free_closed_form(self, free_ms):
        # |p| = 1 everywhere, so every interval collapses to hbar/2
        ms, de_p = free_ms
        report = delta_chain(ms, 1.0, (1.0, 5.0), de_momentum=de_p)
        assert report.delta_s0 == pytest.approx(0.5)
        assert report.delta_q[0] == pytest.approx(0.5, abs=1e-12)
        assert report.delta_q[1] == pytest.approx(0.5, abs=1e-12)
        assert report.product_pq[0] == pytest.approx(0.5, abs=1e-12)
        assert report.product_pq[1] == pytest.approx(0.5, abs=1e-12)
        assert report.product_et_midpoint == pytest.approx(0.5, abs=1e-7)

    def test_zero_delta_alpha(self, free_ms):
        ms, de_p = free_ms
        report = delta_chain(ms, 0.0, (1.0, 5.0), de_momentum=de_p)
        assert report.delta_s0 == 0.0
        assert report.delta_q == (0.0, 0.0)
        assert report.product_pq == (0.0, 0.0)
        assert report.delta_t == (0.0, 0.0)

    def test_exact_linearity_in_delta_alpha(self, free_ms):
        ms, de_p = free_ms
        r1 = delta_chain(ms, 0.7, (1.0, 5.0), de_momentum=de_p)
        r2 = delta_chain(ms, 1.4, (1.0, 5.0), de_momentum=de_p)
        assert r2.delta_s0 == 2.0 * r1.delta_s0
        assert r2.delta_q == tuple(2.0 * v for v in r1.delta_q)
        assert r2.delta_t == tuple(2.0 * v for v in r1.delta_t)
        assert r2.product_pq == tuple(2.0 * v for v in r1.product_pq)

    def test_harmonic_window_bracket(self):
        # the momentum spread over [-1, 1] keeps the product interval inside
        # a decade of hbar on either side
        scenario = harmonic_scenario(grid=Grid(-1.0, 1.0, 1025))
        ms = build_microstate(scenario.pair(), UNIT_ELL)
        report = delta_chain(ms, 1.0, (-1.0, 1.0))
        hbar = scenario.constants.hbar
        assert report.product_pq[0] >= 0.1 * hbar
        assert report.product_pq[1] <= 10.0 * hbar
        assert report.delta_t is None and report.product_et is None

    def test_intervals_ordered(self):
        scenario = harmonic_scenario(grid=Grid(-1.0, 1.0, 1025))
        ms = build_microstate(scenario.pair(), UNIT_ELL)
        report = delta_chain(ms, 1.0, (-0.8, 0.8))
        assert report.delta_q[0] <= report.delta_q[1]
        assert report.product_pq[0] <= report.product_pq[1]

    def test_window_validation(self, free_ms):
        ms, _ = free_ms
        with pytest.raises(DomainError):
            delta_chain(ms, 1.0, (5.0, 1.0))
        with pytest.raises(DomainError):
            delta_chain(ms, 1.0, (-10.0, 10.0))


class TestScaling:
    def test_free_slope_exact(self):
        report = hbar_scaling_scan(scan_template("free"), SCAN_HBARS, 1.0)
        assert abs(report.pq_slope - 1.0) < 1e-10
        assert abs(report.et_slope - 1.0) < 1e-10
        # the free product is exactly hbar/2
        for h, mid in zip(report.hbars, report.pq_midpoints):
            assert mid == pytest.approx(0.5 * h, rel=1e-12)

    def test_free_slope_exact_minimal_list(self):
        # the shortest admissible scan gives the same exact slope
        report = hbar_scaling_scan(scan_template("free"), [1.0, 0.5, 0.25, 0.125], 1.0)
        assert abs(report.pq_slope - 1.0) < 1e-10

    @pytest.mark.parametrize("name", ["harmonic", "linear"])
    def test_builtin_slopes_near_one(self, name):
        report = hbar_scaling_scan(scan_template(name), SCAN_HBARS, 1.0)
        assert abs(report.pq_slope - 1.0) < 0.05, f"{name} pq {report.pq_slope}"
        assert abs(report.et_slope - 1.0) < 0.05, f"{name} et {report.et_slope}"

    @pytest.mark.parametrize("name", ["free", "harmonic", "linear"])
    def test_midpoint_bracket_fixed_across_scan(self, name):
        # the literal O(hbar) content: midpoint/hbar stays in a fixed bracket
        report = hbar_scaling_scan(scan_template(name), SCAN_HBARS, 1.0)
        ratios = [m / h for m, h in zip(report.pq_midpoints, report.hbars)]
        assert max(ratios) / min(ratios) < 1.2

    def test_doubling_alpha_doubles_products(self):
        template = scan_template("free")
        r1 = hbar_scaling_scan(template, SCAN_HBARS, 1.0)
        r2 = hbar_scaling_scan(template, SCAN_HBARS, 2.0)
        for a, b in zip(r1.pq_midpoints, r2.pq_midpoints):
            assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_too_few_points(self):
        with pytest.raises(StatisticsError):
            hbar_scaling_scan(scan_template("free"), [1.0, 0.5, 0.25], 1.0)
        with pytest.raises(StatisticsError):
            hbar_scaling_scan(scan_template("free"), [1.0, 0.5, 0.25, -0.125], 1.0)


def test_scan_windows_inside_grids():
    from qhjlab.catalog import SCAN_GRIDS

    for name, window in SCAN_WINDOWS.items():
        x_min, x_max, _ = SCAN_GRIDS[name]
        assert x_min <= window[0] < window[1] <= x_max
