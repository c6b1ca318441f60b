"""Built-in scenarios: free, harmonic ground state, and linear (Airy).

These pin down the grids, windows and initial data the acceptance checks run
against, and provide the hbar-scan templates.  The scan windows are chosen so
that the window stays classically meaningful across the whole scan: the
harmonic window sits inside the allowed region of the ground state down to
hbar = 1/16, and the linear pair uses the smooth envelope combination so the
momentum spread over the window is essentially hbar-independent.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .fields import Grid
from .microstates import EnergyFamily, MicrostateParams
from .schrodinger import PhysicalConstants, Potential, Scenario
from .uncertainty import delta_chain

SCENARIO_NAMES = ("free", "harmonic", "linear")

DEFAULT_GRIDS = {
    "free": (0.0, 2.0 * math.pi, 1025),
    "harmonic": (-1.0, 1.0, 1025),
    "linear": (-4.0, 1.5, 1025),
}

SCAN_WINDOWS = {
    "free": (1.0, 5.0),
    "harmonic": (-0.15, 0.15),
    "linear": (-3.5, -0.5),
}

# The scan rebuilds the pair at each hbar.  The harmonic grid is kept short so
# the energy derivative of the re-solved family (anchored at x_min) does not
# pick up the exponentially growing partner across the scan.
SCAN_GRIDS = {
    "free": DEFAULT_GRIDS["free"],
    "harmonic": (-0.5, 0.5, 1025),
    "linear": DEFAULT_GRIDS["linear"],
}


def free_scenario(hbar: float = 1.0, mass: float = 0.5, energy: float = 1.0,
                  grid: Grid | None = None) -> Scenario:
    """Free particle on [0, 2 pi]; analytic family (cos kX, sin kX)."""
    grid = grid or Grid(*DEFAULT_GRIDS["free"])
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    return Scenario(Potential("free"), constants, grid, energy, method="analytic")


def harmonic_ground_ics(constants: PhysicalConstants, stiffness: float, x_min: float):
    """Initial values at x_min of the ground state and its centered partner.

    The partner is anchored at the well center, not at x_min: anchoring at
    the boundary would make the denominator field swing over ~e^{2 a x^2}
    and starve the momentum of dynamic range at small hbar.  The orientation
    gives Wronskian +1, matching the analytic pair.
    """
    a = math.sqrt(stiffness) / constants.epsilon
    u0 = math.exp(-0.5 * a * x_min * x_min)
    du0 = -a * x_min * u0
    i0 = 0.5 * math.sqrt(math.pi / a) * float(special.erfi(math.sqrt(a) * x_min))
    return (u0, du0, -u0 * i0, -du0 * i0 - 1.0 / u0)


def harmonic_scenario(hbar: float = 1.0, mass: float = 0.5, stiffness: float = 1.0,
                      grid: Grid | None = None) -> Scenario:
    """Harmonic ground state; numeric re-solve from ground-state data at x_min.

    The energy tracks the ground level eps*sqrt(stiffness) as hbar changes.
    """
    grid = grid or Grid(*DEFAULT_GRIDS["harmonic"])
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    potential = Potential("harmonic", stiffness=stiffness)
    ics = harmonic_ground_ics(constants, stiffness, grid.x_min)
    return Scenario(potential, constants, grid, potential.ground_level(constants),
                    method="numeric", ics=ics)


def linear_scenario(hbar: float = 1.0, mass: float = 0.5, slope: float = 1.0,
                    energy: float = 2.0, grid: Grid | None = None,
                    method: str = "analytic") -> Scenario:
    """Linear potential on a classically allowed stretch.

    The analytic family (Ai, Bi) gives a unit-ell microstate the smooth
    envelope Ai^2 + Bi^2 as its denominator; ``method="numeric"`` instead
    re-solves from the Airy values at x_min (useful for solver cross-checks).
    """
    grid = grid or Grid(*DEFAULT_GRIDS["linear"])
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    ics = None
    if method == "numeric":
        eps = constants.epsilon
        c = float(np.cbrt(slope / (eps * eps)))
        z0 = c * (grid.x_min - energy / slope)
        ai, aip, bi, bip = (float(v) for v in special.airy(z0))
        ics = (ai, c * aip, bi, c * bip)
    return Scenario(Potential("linear", slope=slope), constants, grid,
                    energy, method=method, ics=ics)


def builtin_scenario(name: str, hbar: float = 1.0, mass: float = 0.5,
                     grid: Grid | None = None) -> Scenario:
    if name == "free":
        return free_scenario(hbar=hbar, mass=mass, grid=grid)
    if name == "harmonic":
        return harmonic_scenario(hbar=hbar, mass=mass, grid=grid)
    if name == "linear":
        return linear_scenario(hbar=hbar, mass=mass, grid=grid)
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")


def scan_template(name: str, mass: float = 0.5, params: MicrostateParams | None = None):
    """hbar-scan template for :func:`qhjlab.uncertainty.hbar_scaling_scan`.

    Returns a callable (hbar, delta_alpha) -> UncertaintyReport evaluated on
    the scenario's scan window with the default microstate (alpha=0, ell=1).
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    grid = Grid(*SCAN_GRIDS[name])
    return hbar_template(lambda hbar: builtin_scenario(name, hbar=hbar, mass=mass, grid=grid),
                         params or MicrostateParams(), SCAN_WINDOWS[name])


def hbar_template(scenario_at, params: MicrostateParams, window, base: EnergyFamily | None = None):
    """Template (hbar, delta_alpha) -> UncertaintyReport over ``window`` from a
    family of ``scenario_at(hbar)`` built per call, or ``base`` if it is that one."""
    def template(hbar: float, delta_alpha: float):
        scenario = scenario_at(hbar)
        family = base if base and base.scenario == scenario else EnergyFamily(scenario, params)
        return delta_chain(family.microstate, delta_alpha, window,
                           de_momentum=family.de_momentum)

    return template
