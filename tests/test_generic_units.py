"""The identities hold in arbitrary units, not just the integer-clean defaults."""

import numpy as np
import pytest

from qhjlab.duality import (
    build_prepotential,
    dual_derivative_residual,
    gd_terms,
    legendre_residual,
    modulus_momentum_residual,
    prepotential_ode_residual,
)
from qhjlab.fields import Grid
from qhjlab.hierarchy import HierarchyInput, master_residual, recurse
from qhjlab.microstates import MicrostateParams, build_microstate, time_of_q, trajectory
from qhjlab.schrodinger import PhysicalConstants, Potential, Scenario, analytic_pair

CONSTANTS = PhysicalConstants(hbar=0.7, mass=1.3)

CASES = [
    ("free", Potential("free"), 1.7, Grid(0.0, 5.0, 1025)),
    ("harmonic", Potential("harmonic", stiffness=2.0),
     CONSTANTS.epsilon * np.sqrt(2.0), Grid(-1.5, 1.5, 1025)),
    ("linear", Potential("linear", slope=-0.8), 1.1, Grid(-0.5, 3.0, 1025)),
]


@pytest.mark.parametrize("name, potential, energy, grid", CASES)
@pytest.mark.parametrize("ell", [1.0 + 0.0j, -2.0 + 0.5j])
def test_qshje_residual_generic_units(name, potential, energy, grid, ell):
    pair = analytic_pair(potential, energy, CONSTANTS, grid)
    ms = build_microstate(pair, MicrostateParams(alpha=0.3, ell=ell))
    rep = ms.qshje
    scale = max(abs(energy), np.max(np.abs(ms.mfW.values)))
    inner = grid.interior_slice(0.8)
    assert np.max(np.abs(rep.from_potential.values[inner])) / scale < 1e-7
    assert rep.w_mismatch / scale < 1e-7


@pytest.mark.parametrize("name, potential, energy, grid", CASES[:1] + CASES[2:])
def test_duality_identities_generic_units(name, potential, energy, grid):
    pair = analytic_pair(potential, energy, CONSTANTS, grid)
    prep = build_prepotential(pair)
    assert np.max(dual_derivative_residual(prep).values) < 1e-10
    assert np.max(np.abs(modulus_momentum_residual(prep).values)) < 1e-8
    assert np.max(np.abs(legendre_residual(prep).values)) < 1e-6
    assert np.max(np.abs(prepotential_ode_residual(prep).values)) < 1e-6
    for xi in prep.xi.values():
        resid, scale = gd_terms(xi, pair)
        assert np.max(np.abs(resid)) / scale < 1e-6


def test_hierarchy_generic_epsilon():
    grid = Grid(-1.0, 0.4, 1025)
    inp = HierarchyInput(Potential("linear", slope=-0.8), grid, 1.1, 4, CONSTANTS.epsilon, 0.0)
    sol = recurse(inp)
    assert max(sol.parity_report) < 1e-12
    scale = abs(inp.energy) + np.max(np.abs(inp.v_field.values))
    assert max(np.max(np.abs(f.values)) for f in master_residual(sol)) / scale < 1e-9


def test_free_motion_generic_units():
    # q_dot = -sqrt(2E/m) through both routes, and t(q) has slope -sqrt(m/2E)
    energy, mass = 1.7, CONSTANTS.mass
    grid = Grid(0.0, 5.0, 1025)
    scenario = Scenario(Potential("free"), CONSTANTS, grid, energy)
    t = time_of_q(scenario, MicrostateParams())
    expected_slope = -np.sqrt(mass / (2.0 * energy))
    fitted = np.polyfit(grid.x, t.values, 1)[0]
    assert fitted == pytest.approx(expected_slope, abs=1e-9)

    motion = trajectory(scenario, MicrostateParams(), t_samples=[-1.0, -0.8, -0.6])
    qdot = -np.sqrt(2.0 * energy / mass)
    for pt in motion.segments[0]:
        assert pt.q_dot_from_energy == pytest.approx(qdot, abs=1e-7)
        assert pt.q_dot_from_mass == pytest.approx(qdot, abs=1e-7)
