"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints ``criterion N: PASS/FAIL`` lines; the assertions carry the
same data, so the suite fails exactly when a line says FAIL.  A criterion
that a reported check measures is judged at that check's own bound; the
others (closed forms, fitted orders, runtimes) state theirs here.
"""

import json
import math
import time

import numpy as np

from qhjlab.catalog import SCAN_WINDOWS, free_scenario, scan_family
from qhjlab.duality import build_prepotential, duality_checks, gd_terms, omega_for_norm
from qhjlab.fields import Grid, ScalarField, derivative
from qhjlab.hierarchy import HierarchyInput, hierarchy_checks, master_remainder, recurse
from qhjlab.microstates import MicrostateParams, build_microstate, microstate_checks, \
    time_of_q, trajectory
from qhjlab.schrodinger import PhysicalConstants, Potential, analytic_pair, \
    make_conjugate, normalize_wronskian, solve_pair
from qhjlab.uncertainty import hbar_scaling_scan

UNIT_ELL = MicrostateParams(alpha=0.0, ell=1.0 + 0.0j)
SCAN_HBARS = [1.0, 0.5, 0.25, 0.125, 0.0625]


def report(criterion, label, worst, bound):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"criterion {criterion}: {status} - {label} "
          f"(worst {worst:.3e}, bound {bound:.3e})")
    assert worst <= bound, f"criterion {criterion} ({label}): {worst} > {bound}"


def report_checks(criterion, label, checks, names):
    """report() on each named check of ``checks`` at its own bound."""
    for name in names:
        report(criterion, f"{label}: {name}", *checks[name])


GD_CHECKS = ("gd_psi_psibar", "gd_psi_sq", "gd_psibar_sq")


def test_criterion_1_free_particle_closed_forms():
    start = time.perf_counter()
    scenario = free_scenario()
    grid = scenario.grid
    ms = build_microstate(scenario.pair(), UNIT_ELL)

    worst = np.max(np.abs(ms.p.values + 1.0))
    s0_drift = ms.S0.values - ms.S0.values[0] + (grid.x - grid.x[0])
    worst = max(worst, np.max(np.abs(s0_drift)))
    worst = max(worst, np.max(np.abs(ms.Q.values)))

    t = time_of_q(scenario, UNIT_ELL)
    worst = max(worst, np.max(np.abs(t.values + 0.5 * (grid.x - grid.x[0]))))

    motion = trajectory(scenario, UNIT_ELL, t_samples=np.linspace(-2.5, -0.5, 9))
    for pt in motion.segments[0]:
        worst = max(worst, abs(pt.q_dot_from_energy + 2.0),
                    abs(pt.q_dot_from_mass + 2.0))
    elapsed = time.perf_counter() - start
    report(1, "free-particle closed forms", worst, 1e-9)
    report(1, "runtime (seconds)", elapsed, 1.0)


def test_criterion_2_qshje_identity():
    constants = PhysicalConstants()
    free_grid = Grid(0.0, 2.0 * math.pi, 1025)
    cases = []
    for ell in (1.0 + 0.0j, 2.0 + 0.0j, 1.0 + 0.5j):
        cases.append(("free", analytic_pair(Potential("free"), 1.0, constants, free_grid),
                      MicrostateParams(alpha=0.0, ell=ell)))
    cases.append(("harmonic",
                  analytic_pair(Potential("harmonic"), 1.0, constants,
                                Grid(-3.0, 3.0, 1025)), UNIT_ELL))
    cases.append(("linear",
                  analytic_pair(Potential("linear"), 2.0, constants,
                                Grid(-4.0, 1.5, 1025)), UNIT_ELL))

    for name, pair, params in cases:
        ms = build_microstate(pair, params)
        # the HJ residual by both potential-term routes, and the routes' agreement
        report_checks(2, f"{name}, ell = {params.ell}", microstate_checks(ms),
                      ("qshje_potential", "qshje_schwarzian", "qshje_w_mismatch"))


def test_criterion_3_uncertainty_scaling():
    free = hbar_scaling_scan(scan_family("free"), SCAN_WINDOWS["free"], SCAN_HBARS, 1.0).checks()
    report(3, "free slope exactness (pq)", free["uncertainty_pq_slope"][0], 1e-10)
    report(3, "free slope exactness (Et)", free["uncertainty_et_slope"][0], 1e-10)
    for name in ("free", "harmonic", "linear"):
        checks = hbar_scaling_scan(scan_family(name), SCAN_WINDOWS[name], SCAN_HBARS, 1.0).checks()
        report_checks(3, f"{name} scan", checks, ("uncertainty_pq_slope", "uncertainty_et_slope"))


def test_criterion_4_resolvent_residuals():
    # the square-eigenfunction residual of each Xi variant, and on the numeric
    # pair the free-energy form against the direct one
    constants = PhysicalConstants()
    for potential, energy, grid in (
            (Potential("free"), 1.0, Grid(0.0, 2.0 * math.pi, 1025)),
            (Potential("linear"), 2.0, Grid(-4.0, 1.5, 1025))):
        pair = normalize_wronskian(make_conjugate(
            analytic_pair(potential, energy, constants, grid)))
        report_checks(4, f"{potential.kind} analytic pair",
                      duality_checks(build_prepotential(pair)), GD_CHECKS)

    grid = Grid(-3.0, 3.0, 2049)
    numeric = solve_pair(Potential("harmonic"), 2.0, constants, grid, (1.0, 0.0, 0.0, 1.0))
    checks = duality_checks(build_prepotential(normalize_wronskian(make_conjugate(numeric))))
    report_checks(4, "harmonic numeric pair", checks, GD_CHECKS + ("akq_matches_direct",))


def test_criterion_5_duality_identities():
    constants = PhysicalConstants()
    grid = Grid(0.0, 2.0 * math.pi, 1025)
    pair = normalize_wronskian(make_conjugate(
        analytic_pair(Potential("free"), 1.0, constants, grid)))
    checks = duality_checks(build_prepotential(pair))
    report(5, "Im F = X/eps (construction)", *checks["duality_im_f"])
    report(5, "dual derivative identity", *checks["dual_derivative"])
    report(5, "modulus-momentum normalization", *checks["modulus_momentum"])
    report(5, "Legendre pairing", *checks["legendre"])


def test_criterion_6_hierarchy_recursion():
    grid = Grid(-2.0, 1.5, 1025)
    potential = Potential("linear")
    inp = HierarchyInput(potential, grid, 2.0, 4, 0.1, 0.0)
    sol = recurse(inp)
    x = grid.x

    # closed-form first-order identity, with dP0/dx from the potential itself
    p0 = sol.p_coeffs[0].values
    dp0 = 1j * (-potential.slope) / (2.0 * np.sqrt(2.0 - x))
    report(6, "first correction from leading slope",
           np.max(np.abs(sol.p_coeffs[1].values + dp0 / (2.0 * p0))), 1e-10)

    worst = max(
        np.max(np.abs(sol.p_coeffs[0].values - 1j * np.sqrt(2.0 - x))),
        np.max(np.abs(sol.p_coeffs[1].values - 1.0 / (4.0 * (2.0 - x)))),
        np.max(np.abs(sol.p_coeffs[2].values - 5j / 32.0 * (2.0 - x) ** -2.5)))
    report(6, "linear-potential coefficients vs closed forms", worst, 1e-6)
    report(6, "parity of the coefficients", *hierarchy_checks(sol)["hierarchy_parity"])

    worst_slope = 0.0
    for order in (2, 4):
        inp_k = HierarchyInput(potential, grid, 2.0, order, 0.1, 0.0)
        sol_k = recurse(inp_k)
        eps_values = (0.1, 0.05, 0.025)
        remainders = [np.max(np.abs(master_remainder(sol_k, e).values))
                      for e in eps_values]
        slope = np.polyfit(np.log(eps_values), np.log(remainders), 1)[0]
        worst_slope = max(worst_slope, abs(slope - (order + 1)))
    report(6, "master remainder scaling exponent", worst_slope, 0.3)

    start = time.perf_counter()
    recurse(HierarchyInput(potential, grid, 2.0, 6, 0.1, 0.0))
    report(6, "order-6 runtime (seconds)", time.perf_counter() - start, 5.0)


def test_criterion_7_schwarzian_correction():
    for potential, energy, grid in (
            (Potential("linear"), 2.0, Grid(-2.0, 1.5, 1025)),
            (Potential("harmonic"), 5.0, Grid(-1.0, 1.0, 1025))):
        inp = HierarchyInput(potential, grid, energy, 2, 0.1, 0.0)
        report(7, f"second correction vs Schwarzian route, {potential.kind}",
               *hierarchy_checks(recurse(inp))["hierarchy_p2_schwarzian"])


def test_criterion_8_norm_scaling():
    constants = PhysicalConstants()
    grid = Grid(0.0, 2.0 * math.pi, 1025)
    m2 = ScalarField(grid, np.exp(2.0 * np.sin(grid.x)))
    omega = omega_for_norm(m2)
    report(8, "norm bound saturates", abs(np.max(omega * m2.values) - 1.0), 1e-12)
    overshoot = np.max(omega * (1.0 + 1e-12) * m2.values) - 1.0
    report(8, "bound is maximal", 0.0 if overshoot > 0 else 1.0, 0.5)

    pair = analytic_pair(Potential("free"), 1.0, constants, grid)
    params = MicrostateParams(alpha=0.0, ell=2.0 + 0.0j)
    before = build_microstate(pair, params).qshje.from_potential.values
    scaled = normalize_wronskian(pair, pair.wronskian * omega)
    after = build_microstate(scaled, params).qshje.from_potential.values
    worst = np.max(np.abs(before - after))

    conj = normalize_wronskian(make_conjugate(pair))
    xi = conj.psi.values * conj.psi_dual.values
    for factor in (1.0, omega):
        field = ScalarField(grid, factor * xi,
                            derivs=tuple(factor * d for d in
                                         build_prepotential(conj).xi["psi_psibar"].derivs))
        resid, scale = gd_terms(field, conj)
        relative = float(np.max(np.abs(resid))) / scale
        if factor == 1.0:
            base = relative
        else:
            worst = max(worst, abs(relative - base))
    report(8, "residuals invariant under the scaling", worst, 1e-10)


def test_criterion_9_numerics_hygiene(tmp_path):
    errs, hs = [], []
    for n in (17, 33, 65, 129):
        g = Grid(0.0, 3.0, n)
        d2 = derivative(ScalarField(g, np.sin(3.0 * g.x)), 2)
        errs.append(np.max(np.abs((d2.values + 9.0 * np.sin(3.0 * g.x))[4:-4])))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    report(9, "differentiation order", abs(slope - 6.0), 0.3)

    constants = PhysicalConstants()
    errs, hs = [], []
    for n in (65, 129, 257, 513):
        g = Grid(0.0, 2.0 * math.pi, n)
        pair = solve_pair(Potential("free"), 1.0, constants, g, (1.0, 0.0, 0.0, 1.0))
        errs.append(np.max(np.abs(pair.psi.values - np.cos(g.x))))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    report(9, "integrator order", abs(slope - 4.0), 0.3)

    from qhjlab.cli import main
    doc = {
        "potential": {"kind": "free"}, "energy": 1.0,
        "grid": {"x_min": 0.0, "x_max": 2.0 * math.pi, "n": 257},
        "microstate": {"alpha": 0.0, "ell1": 1.0},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["all", "--config", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert main(["all", "--config", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    report(9, "deterministic reruns", 0.0 if first == second else 1.0, 0.5)
