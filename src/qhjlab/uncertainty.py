"""Indeterminacy chain and O(hbar) uncertainty products.

A shift of the free phase constant alpha moves the principal function by
dS0 = (hbar/2) dalpha exactly.  Through the mean-value relation
dq = |1/p(q_hat)| dS0 the matching coordinate indeterminacy depends on an
unknown intermediate point q_hat inside the evaluation window, so everything
downstream is reported as a [min, max] interval over the window rather than a
single number.

The products pair the indeterminacy with the magnitude of the conjugate
quantity at an (equally unknown) observation point in the same window:

    product_pq in dS0 * [min|p|/max|p|, max|p|/min|p|]
    product_Et in dS0 * [min w/max w,   max w/min w],   w = |dp/dE| / |p|

Both intervals bracket dS0 = (hbar/2) dalpha, which is the checkable content
of the O(hbar) statements: scanning hbar and fitting log(midpoint) against
log(hbar) must give slope 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StatisticsError
from .fields import MIN_SAMPLES, ScalarField
from .microstates import EnergyFamily, Microstate

__all__ = ["UncertaintyReport", "ScanReport", "delta_chain", "hbar_scaling_scan",
           "scan_hbars", "window_mask"]


@dataclass(frozen=True)
class UncertaintyReport:
    """Indeterminacies and uncertainty products over a coordinate window.

    All intervals are (min, max) over the window; the time-side entries are
    None when no energy derivative of the momentum was supplied.
    """

    delta_alpha: float
    delta_s0: float
    delta_q: tuple
    delta_t: tuple | None
    product_pq: tuple
    product_et: tuple | None
    hbar: float
    window: tuple

    @staticmethod
    def _midpoint(interval):
        return 0.5 * (interval[0] + interval[1])

    @property
    def product_pq_midpoint(self) -> float:
        return self._midpoint(self.product_pq)

    @property
    def product_et_midpoint(self) -> float:
        if self.product_et is None:
            raise ValueError("report has no time-side products")
        return self._midpoint(self.product_et)


def window_mask(grid, window):
    """Samples of ``grid`` inside ``window`` = (lo, hi), which must satisfy
    lo < hi, lie inside the grid and hold at least one sample."""
    lo, hi = float(window[0]), float(window[1])
    if not (lo < hi):
        raise DomainError(f"window must satisfy lo < hi, got ({lo}, {hi})")
    if lo < grid.x_min or hi > grid.x_max:
        raise DomainError(
            f"window ({lo}, {hi}) not inside grid [{grid.x_min}, {grid.x_max}]")
    mask = (grid.x >= lo) & (grid.x <= hi)
    if not mask.any():
        raise DomainError(f"window ({lo}, {hi}) contains no grid samples")
    return mask


def delta_chain(ms: Microstate, delta_alpha: float, window,
                de_momentum: ScalarField | None = None) -> UncertaintyReport:
    """Propagate the alpha indeterminacy through S0 into q, t and the products.

    ``de_momentum`` (dp/dE on the same grid) unlocks the time-side interval
    via the chain-rule weight |dp/dE|/|p| = |dt/dS0|.
    """
    return _chain(ms, window_mask(ms.pair.grid, window), delta_alpha, window, de_momentum)


def _chain(ms, rows, delta_alpha, window, de_momentum) -> UncertaintyReport:
    """:func:`delta_chain` on the samples ``rows`` of ``ms``'s grid, which are
    the window's."""
    hbar = ms.pair.constants.hbar
    delta_s0 = 0.5 * hbar * abs(delta_alpha)
    abs_p = np.abs(ms.p.values[rows])
    p_min, p_max = float(np.min(abs_p)), float(np.max(abs_p))
    if p_min == 0.0:
        raise DomainError(f"|p| vanishes in the window {window}, so the coordinate "
                          "indeterminacy dS0/|p| is unbounded")
    delta_q = (delta_s0 / p_max, delta_s0 / p_min)
    product_pq = (delta_s0 * p_min / p_max, delta_s0 * p_max / p_min)

    delta_t = product_et = None
    if de_momentum is not None:
        weight = np.abs(de_momentum.values[rows]) / abs_p
        w_min, w_max = float(np.min(weight)), float(np.max(weight))
        if w_min == 0.0:
            raise DomainError(f"the time weight |dp/dE|/|p| vanishes in the window {window}, "
                              "so the time-side products are unbounded")
        delta_t = (delta_s0 * w_min, delta_s0 * w_max)
        product_et = (delta_s0 * w_min / w_max, delta_s0 * w_max / w_min)

    return UncertaintyReport(
        delta_alpha=float(delta_alpha), delta_s0=delta_s0,
        delta_q=delta_q, delta_t=delta_t,
        product_pq=product_pq, product_et=product_et,
        hbar=hbar, window=(float(window[0]), float(window[1])))


@dataclass(frozen=True)
class ScanReport:
    """Log-log fit of the product midpoints against hbar."""

    hbars: tuple
    pq_midpoints: tuple
    et_midpoints: tuple
    pq_slope: float
    et_slope: float

    def checks(self) -> dict:
        """{check name: (|slope - 1|, bound)} for both products."""
        return {"uncertainty_pq_slope": (abs(self.pq_slope - 1.0), 0.05),
                "uncertainty_et_slope": (abs(self.et_slope - 1.0), 0.05)}


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def scan_hbars(hbar_list) -> list:
    """The hbar values of a slope fit as floats: at least four distinct ones
    (a repeat adds no point to the fit), all positive."""
    hbars = [float(h) for h in hbar_list]
    if len(set(hbars)) < 4:
        raise StatisticsError("need at least 4 distinct hbar values for a slope fit, "
                              f"got {len(set(hbars))}")
    if any(h <= 0 for h in hbars):
        raise StatisticsError("hbar values must all be positive")
    return hbars


def hbar_scaling_scan(family: EnergyFamily, window, hbar_list,
                      delta_alpha: float) -> ScanReport:
    """Rebuild ``family``'s scenario at each hbar and fit the product scaling.

    Each hbar runs :func:`delta_chain` over ``window`` on the family of
    ``family.scenario.at_hbar(hbar)``, which is ``family`` itself where that
    scenario is unchanged.  The products read p and dp/dE on the window's
    samples only.  So each closed-form pair the scan adds (``method``
    "analytic") is formed on exactly those samples, padded to a grid's 16
    where the window holds fewer (:meth:`fields.Grid.samples`, whose x and h
    are the grid's bit for bit, so every product is the one the whole grid
    gives).  Each numeric pair it adds sweeps from its initial data at x_min
    over the whole grid, composing its RK4 steps; a sweep that stopped at the
    window's end would change the RK4 step count the benchmark pins.  A slope
    near 1 in the returned fits is the scaling content of the uncertainty
    statements.  ``hbar_list`` must pass :func:`scan_hbars`; spanning a
    decade or more keeps the fit well conditioned.
    """
    hbars = scan_hbars(hbar_list)
    grid = family.scenario.grid
    mask = window_mask(grid, window)
    # the closed-form pairs' samples: the window's, padded at their end (at
    # the grid's end, at their start) up to a grid's fewest
    i0, i1 = (int(i) for i in np.flatnonzero(mask)[[0, -1]])
    n = max(i1 - i0 + 1, MIN_SAMPLES)
    start = min(i0, grid.n - n)
    sub_grid, sub_rows = grid.samples(start, start + n - 1), slice(i0 - start, i1 - start + 1)
    reports = []
    for h in hbars:
        scenario = family.scenario.at_hbar(h)
        rows = mask
        if scenario == family.scenario:
            at_h = family
        elif scenario.method == "analytic":
            at_h, rows = EnergyFamily(replace(scenario, grid=sub_grid), family.params), sub_rows
        else:
            at_h = EnergyFamily(replace(scenario, stepwise=False), family.params)
        reports.append(_chain(at_h.microstate, rows, delta_alpha, window,
                              at_h.microstate.de_momentum))
    pq_mid = [r.product_pq_midpoint for r in reports]
    et_mid = [r.product_et_midpoint for r in reports]
    return ScanReport(tuple(hbars), tuple(pq_mid), tuple(et_mid),
                      _loglog_slope(hbars, pq_mid), _loglog_slope(hbars, et_mid))
