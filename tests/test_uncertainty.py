"""Indeterminacy chain, interval reports, and the hbar scaling law."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from qhjlab import microstates
from qhjlab.catalog import (
    SCAN_WINDOWS,
    builtin_scenario,
    harmonic_scenario,
    scan_family,
)
from qhjlab.errors import DomainError, StatisticsError
from qhjlab.fields import Grid, ScalarField
from qhjlab.microstates import EnergyFamily, MicrostateParams, build_microstate, \
    energy_derivative_of_momentum
from qhjlab.schrodinger import Scenario
from qhjlab.uncertainty import ScanReport, delta_chain, hbar_scaling_scan, window_mask

UNIT_ELL = MicrostateParams(alpha=0.0, ell=1.0 + 0.0j)
SCAN_HBARS = [1.0, 0.5, 0.25, 0.125, 0.0625]


def scan(name, hbars=SCAN_HBARS):
    """The hbar scan of a built-in scenario over its scan window."""
    return hbar_scaling_scan(scan_family(name), SCAN_WINDOWS[name], hbars, 1.0)


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

    def test_vanishing_momentum_in_window_refused(self, free_ms):
        # dq = dS0/|p| is unbounded where p vanishes
        ms, de_p = free_ms
        grid = ms.pair.grid
        p = ms.p.values.copy()
        p[grid.index_of(3.0)] = 0.0
        planted = SimpleNamespace(pair=ms.pair, p=ScalarField(grid, p))
        with pytest.raises(DomainError, match=r"\|p\| vanishes"):
            delta_chain(planted, 1.0, (1.0, 5.0), de_momentum=de_p)
        # a zero outside the window is not read
        assert delta_chain(planted, 1.0, (3.5, 5.0), de_momentum=de_p).delta_q[1] > 0

    def test_window_validation(self, free_ms):
        ms, _ = free_ms
        with pytest.raises(DomainError):
            delta_chain(ms, 1.0, (5.0, 1.0))
        with pytest.raises(DomainError):
            delta_chain(ms, 1.0, (-10.0, 10.0))


class TestScaling:
    def test_free_slope_exact(self):
        report = scan("free")
        assert abs(report.pq_slope - 1.0) < 1e-10
        assert abs(report.et_slope - 1.0) < 1e-10
        # the free product is exactly hbar/2
        for h, mid in zip(report.hbars, report.pq_midpoints):
            assert mid == pytest.approx(0.5 * h, rel=1e-12)

    def test_free_slope_exact_minimal_list(self):
        # the shortest admissible scan gives the same exact slope
        report = scan("free", [1.0, 0.5, 0.25, 0.125])
        assert abs(report.pq_slope - 1.0) < 1e-10

    @pytest.mark.parametrize("name", ["harmonic", "linear"])
    def test_builtin_slopes_near_one(self, name):
        report = scan(name)
        assert abs(report.pq_slope - 1.0) < 0.05, f"{name} pq {report.pq_slope}"
        assert abs(report.et_slope - 1.0) < 0.05, f"{name} et {report.et_slope}"

    @pytest.mark.parametrize("name", ["free", "harmonic", "linear"])
    def test_midpoint_bracket_fixed_across_scan(self, name):
        # the literal O(hbar) content: midpoint/hbar stays in a fixed bracket
        report = scan(name)
        ratios = [m / h for m, h in zip(report.pq_midpoints, report.hbars)]
        assert max(ratios) / min(ratios) < 1.2

    def test_doubling_alpha_doubles_products(self):
        family = scan_family("free")
        r1 = hbar_scaling_scan(family, SCAN_WINDOWS["free"], SCAN_HBARS, 1.0)
        r2 = hbar_scaling_scan(family, SCAN_WINDOWS["free"], SCAN_HBARS, 2.0)
        for a, b in zip(r1.pq_midpoints, r2.pq_midpoints):
            assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_extra_hbars_form_no_phase_and_no_schwarzian(self, monkeypatch):
        # the products read |p| and |dp/dE| only: the scan forms neither S0
        # (unwrap_phase) nor Q (schwarzian) at the hbars it adds
        family = scan_family("harmonic")
        family.microstate.Q  # the configured hbar's fields, formed before counting
        calls = []
        for name in ("unwrap_phase", "schwarzian"):
            def counted(f, _name=name, _original=getattr(microstates, name)):
                calls.append(_name)
                return _original(f)

            monkeypatch.setattr(microstates, name, counted)
        hbar_scaling_scan(family, SCAN_WINDOWS["harmonic"], SCAN_HBARS, 1.0)
        assert calls == []

    def test_each_hbar_is_released_before_the_next_solve(self, monkeypatch):
        # peak memory holds one added hbar's pair and microstate at a time:
        # when a pair is solved, only the caller's family (hbar = 1) may hold
        # a microstate
        family = scan_family("harmonic")
        built, alive_at_solve = [], []

        def build(pair, params, _original=microstates.build_microstate):
            ms = _original(pair, params)
            built.append(weakref.ref(ms))
            return ms

        def solve(scenario, energy=None, _original=Scenario.pair):
            alive_at_solve.append(sum(ref() is not None for ref in built))
            return _original(scenario, energy)

        monkeypatch.setattr(microstates, "build_microstate", build)
        monkeypatch.setattr(Scenario, "pair", solve)
        hbar_scaling_scan(family, SCAN_WINDOWS["harmonic"], SCAN_HBARS, 1.0)
        assert alive_at_solve == [0, 1, 1, 1, 1]

    def test_too_few_points(self):
        with pytest.raises(StatisticsError):
            scan("free", [1.0, 0.5, 0.25])
        with pytest.raises(StatisticsError):
            scan("free", [1.0, 0.5, 0.25, -0.125])
        with pytest.raises(StatisticsError, match="distinct"):
            scan("free", [1.0, 0.5, 0.5, 0.25, 0.25])


def full_grid_scan(family, window, hbars, delta_alpha):
    """The scan with every hbar's family on the whole grid, through
    delta_chain: the oracle of :func:`hbar_scaling_scan`."""
    reports = []
    for h in hbars:
        ms = EnergyFamily(family.scenario.at_hbar(h), family.params).microstate
        reports.append(delta_chain(ms, delta_alpha, window, de_momentum=ms.de_momentum))
    pq = [r.product_pq_midpoint for r in reports]
    et = [r.product_et_midpoint for r in reports]

    def slope(mid):
        return float(np.polyfit(np.log(np.asarray(hbars)), np.log(np.asarray(mid)), 1)[0])
    return ScanReport(tuple(hbars), tuple(pq), tuple(et), slope(pq), slope(et))


class TestScanSamples:
    """The pairs the scan adds are formed on the samples it reads."""

    PARAMS = MicrostateParams(alpha=0.4, ell=1.3 - 0.2j)

    @pytest.mark.parametrize("name, window, samples", [
        ("free", SCAN_WINDOWS["free"], 652),
        ("linear", SCAN_WINDOWS["linear"], 558),
        ("free", (1.0, 1.05), 9),                  # padded at its end
        ("free", (6.2, 2.0 * math.pi), 14),       # padded at its start
    ], ids=["free", "linear", "free-narrow", "free-narrow-at-x_max"])
    def test_closed_form_pairs_take_the_window_samples(self, pair_solves, name, window,
                                                       samples):
        family = scan_family(name, params=self.PARAMS)
        grid = family.scenario.grid
        mask = window_mask(grid, window)
        assert mask.sum() == samples
        report = hbar_scaling_scan(family, window, SCAN_HBARS, 1.0)

        configured, *added = pair_solves
        assert configured[0] == "analytic_pair" and configured[4] == grid
        assert sorted(key[3].hbar for key in added) == sorted(SCAN_HBARS[1:])
        for kind, _, _, _, sub, _ in added:
            assert kind == "analytic_pair"
            assert sub.n == max(samples, 16)
            start = grid.index_of(sub.x_min)
            # a run of the grid's samples, bit for bit: the window's, padded to 16
            assert np.array_equal(sub.x.view(np.int64),
                                  grid.x[start:start + sub.n].view(np.int64))
            assert sub.h == grid.h
            assert sub.x_min <= grid.x[mask][0] and grid.x[mask][-1] <= sub.x_max
        # every number as the whole grid gives it
        assert repr(report) == repr(full_grid_scan(family, window, SCAN_HBARS, 1.0))

    def test_numeric_pairs_keep_the_whole_grid(self, pair_solves):
        family = scan_family("harmonic", params=self.PARAMS)
        window = SCAN_WINDOWS["harmonic"]
        report = hbar_scaling_scan(family, window, SCAN_HBARS, 1.0)
        assert [key[0] for key in pair_solves] == ["solve_pair"] * 5
        assert all(key[4] == family.scenario.grid for key in pair_solves)
        oracle = full_grid_scan(family, window, SCAN_HBARS, 1.0)
        # the added pairs compose their RK4 steps; the oracle steps one at a time
        assert report.pq_midpoints == pytest.approx(oracle.pq_midpoints, rel=1e-12)
        assert report.et_midpoints == pytest.approx(oracle.et_midpoints, rel=1e-12)


def test_scan_windows_inside_grids():
    from qhjlab.catalog import SCAN_GRIDS

    for name, window in SCAN_WINDOWS.items():
        x_min, x_max, _ = SCAN_GRIDS[name]
        assert x_min <= window[0] < window[1] <= x_max
