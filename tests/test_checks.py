"""Every check takes only the object it checks, and reads what that object
already determines from it instead of forming it again."""

import inspect
from dataclasses import replace

import pytest

from qhjlab.duality import build_prepotential, duality_checks
from qhjlab.fields import Grid
from qhjlab.hierarchy import HierarchyInput, hierarchy_checks, recurse
from qhjlab.microstates import MicrostateParams, build_microstate, microstate_checks
from qhjlab.schrodinger import (
    PhysicalConstants,
    Potential,
    Scenario,
    SolutionPair,
)
from qhjlab.uncertainty import ScanReport


@pytest.mark.parametrize("check", [SolutionPair.checks, ScanReport.checks, microstate_checks,
                                   duality_checks, hierarchy_checks])
def test_each_check_takes_one_object(check):
    assert len(inspect.signature(check).parameters) == 1


PAIRS = {
    "linear": Scenario(Potential("linear"), PhysicalConstants(), Grid(-4.0, 1.5, 1025), 2.0),
    # the ground level, solved by RK4 from the default initial data
    "harmonic-numeric": Scenario(Potential("harmonic"), PhysicalConstants(),
                                 Grid(-0.5, 0.5, 1025), 1.0, method="numeric"),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_a_second_run_of_the_checks_forms_no_v(name, monkeypatch):
    scenario = PAIRS[name]
    pair = scenario.pair()
    ms = build_microstate(pair, MicrostateParams(alpha=0.4, ell=1.3 - 0.2j))
    prep = build_prepotential(pair)
    sol = recurse(HierarchyInput(scenario.potential, scenario.grid, scenario.energy, 4, 0.1,
                                 scenario.grid.x_min))
    runs = [pair.checks, lambda: microstate_checks(ms), lambda: duality_checks(prep),
            lambda: hierarchy_checks(sol)]
    first = [run() for run in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("a check formed V again")

    monkeypatch.setattr(Potential, "field", refuse)
    monkeypatch.setattr(Potential, "derivative_samples", refuse)
    assert [run() for run in runs] == first


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_one_v_per_potential_and_grid(name, monkeypatch):
    # the pair, the duality checks on its conjugate pair, the pair at another
    # hbar and a hierarchy input on the grid all read one V, formed once
    scenario = PAIRS[name]
    scenario = replace(scenario, potential=replace(scenario.potential))  # no V formed yet
    formed = []

    def counted(self, grid, order, _original=Potential.derivative_samples):
        formed.append(order)
        return _original(self, grid, order)

    monkeypatch.setattr(Potential, "derivative_samples", counted)
    pair = scenario.pair()
    duality_checks(build_prepotential(pair))
    readers = [scenario.at_hbar(0.5).pair(),
               HierarchyInput(scenario.potential, scenario.grid, scenario.energy, 4, 0.1,
                              scenario.grid.x_min)]
    assert all(reader.v_field is pair.v_field for reader in readers)
    assert sorted(formed) == [0, 1, 2, 3]
