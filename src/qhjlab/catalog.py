"""Built-in scenarios: free, harmonic ground state, and linear (Airy).

These pin down the grids, windows and initial data the acceptance checks run
against, and provide the families the hbar scan starts from.  The scan
windows are chosen so that the window stays classically meaningful across the
whole scan: the harmonic window sits inside the allowed region of the ground
state down to hbar = 1/16, and the linear pair uses the smooth envelope
combination so the momentum spread over the window is essentially
hbar-independent.
"""

from __future__ import annotations

import math

from .fields import Grid
from .microstates import EnergyFamily, MicrostateParams
from .schrodinger import PhysicalConstants, Potential, Scenario

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
# the energy derivative of the pair solved at each hbar (anchored at x_min)
# does not pick up the exponentially growing partner across the scan.
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


def harmonic_scenario(hbar: float = 1.0, mass: float = 0.5, stiffness: float = 1.0,
                      grid: Grid | None = None) -> Scenario:
    """Harmonic ground state eps*sqrt(stiffness); numeric re-solve from the
    default (ground-state) initial values at x_min."""
    grid = grid or Grid(*DEFAULT_GRIDS["harmonic"])
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    potential = Potential("harmonic", stiffness=stiffness)
    return Scenario(potential, constants, grid, potential.ground_level(constants),
                    method="numeric")


def linear_scenario(hbar: float = 1.0, mass: float = 0.5, slope: float = 1.0,
                    energy: float = 2.0, grid: Grid | None = None) -> Scenario:
    """Linear potential on a classically allowed stretch.

    The analytic family (Ai, Bi) gives a unit-ell microstate the smooth
    envelope Ai^2 + Bi^2 as its denominator.
    """
    grid = grid or Grid(*DEFAULT_GRIDS["linear"])
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    return Scenario(Potential("linear", slope=slope), constants, grid, energy)


def builtin_scenario(name: str, hbar: float = 1.0, mass: float = 0.5,
                     grid: Grid | None = None) -> Scenario:
    if name == "free":
        return free_scenario(hbar=hbar, mass=mass, grid=grid)
    if name == "harmonic":
        return harmonic_scenario(hbar=hbar, mass=mass, grid=grid)
    if name == "linear":
        return linear_scenario(hbar=hbar, mass=mass, grid=grid)
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")


def scan_family(name: str, mass: float = 0.5,
                params: MicrostateParams | None = None) -> EnergyFamily:
    """The family :func:`qhjlab.uncertainty.hbar_scaling_scan` rebuilds at each
    hbar: the scenario at hbar = 1 on its scan grid, with the default
    microstate (alpha=0, ell=1); pair it with ``SCAN_WINDOWS[name]``."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    return EnergyFamily(builtin_scenario(name, mass=mass, grid=Grid(*SCAN_GRIDS[name])),
                        params or MicrostateParams())
