"""Scenario-driven command line front end.

Reads a single JSON config describing the scenario (constants, potential,
energy, grid and the optional microstate / uncertainty / hierarchy sections),
runs the selected pipelines, and writes CSV tables plus a JSON report into
the output directory.  Files are written atomically (temp file + rename) and
reruns of the same config are byte-identical.

    qhjlab <subcommand> --config scenario.json [--out DIR] [--tol key=value]...

Subcommands: solve, microstate, uncertainty, duality, hierarchy, all, report
(report runs every enabled check but writes only report.json).  Exit code 0
means every check passed, 1 a config/validation problem, 2 at least one
failing check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import duality, hierarchy, microstates, uncertainty
from .catalog import harmonic_ground_ics, hbar_template
from .errors import QhjLabError, ConfigError
from .fields import Grid, ScalarField, derivative
from .schrodinger import PhysicalConstants, Potential, Scenario, make_conjugate, \
    normalize_wronskian

SCHEMA_VERSION = "qhjlab.report/1"

SUBCOMMANDS = ("solve", "microstate", "uncertainty", "duality", "hierarchy", "all", "report")

DEFAULT_TOLERANCES = {
    "schrodinger_residual": {"analytic": 1e-8, "numeric": 1e-5},
    "wronskian_drift": {"analytic": 1e-9, "numeric": 1e-6},
    "qshje_potential": 1e-6,
    "qshje_schwarzian": 1e-6,
    "qshje_w_mismatch": 1e-6,
    "momentum_cross_check": 1e-8,
    "uncertainty_pq_slope": 0.05,
    "uncertainty_et_slope": 0.05,
    "dual_derivative": {"analytic": 1e-10, "numeric": 1e-5},
    "modulus_momentum": {"analytic": 1e-8, "numeric": 1e-5},
    "legendre": 1e-6,
    "gd_residual": {"analytic": 1e-6, "numeric": 1e-4},
    "akq_matches_direct": 1e-12,
    "hierarchy_parity": 1e-12,
    "hierarchy_p1_identity": 1e-10,
    "hierarchy_per_order": 1e-9,
    "hierarchy_p2_schwarzian": 1e-5,
}


# ---------------------------------------------------------------------------
# Config parsing / validation


def _need(section, key, where, types):
    if key not in section:
        raise ConfigError(f"missing field {where}.{key}")
    value = section[key]
    if not isinstance(value, types):
        raise ConfigError(f"field {where}.{key} has wrong type {type(value).__name__}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(float(value)):
            raise ConfigError(f"field {where}.{key} must be finite")
    return value


def _number(value, where) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {where} must be a number, got {value!r}") from exc


def _numbers(value, where) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"field {where} must be a list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _section(doc, key) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field config.{key} must be an object")
    return section


class ScenarioConfig:
    """Validated view of the JSON scenario document."""

    def __init__(self, doc: dict, base_dir: str):
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        self.base_dir = base_dir

        constants = _section(doc, "constants")
        try:
            self.constants = PhysicalConstants(hbar=float(constants.get("hbar", 1.0)),
                                               mass=float(constants.get("mass", 0.5)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"constants: {exc}") from exc

        pot = _need(doc, "potential", "config", dict)
        kind = _need(pot, "kind", "potential", str)
        try:
            if kind == "custom":
                raise ConfigError("custom potentials are configured via hierarchy/f_even-style "
                                  "sample files and are not yet wired into the CLI")
            self.potential = Potential(kind, slope=float(pot.get("slope", 1.0)),
                                       stiffness=float(pot.get("stiffness", 1.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"potential: {exc}") from exc

        self.energy = float(_need(doc, "energy", "config", (int, float)))

        grid = _need(doc, "grid", "config", dict)
        n = int(_need(grid, "n", "grid", int))
        if n < 64:
            raise ConfigError(f"grid.n must be >= 64 for CLI runs, got {n}")
        try:
            self.grid = Grid(float(_need(grid, "x_min", "grid", (int, float))),
                             float(_need(grid, "x_max", "grid", (int, float))), n)
        except (QhjLabError, ValueError) as exc:
            raise ConfigError(f"grid: {exc}") from exc

        solver = _section(doc, "solver")
        self.method = solver.get("method", "auto")
        if self.method not in ("auto", "analytic", "numeric"):
            raise ConfigError(f"solver.method must be auto/analytic/numeric, got {self.method!r}")
        self.ics_given = "ics" in solver
        self.ics = tuple(_numbers(solver.get("ics", [1.0, 0.0, 0.0, 1.0]), "solver.ics"))
        if len(self.ics) != 4:
            raise ConfigError("solver.ics must hold exactly four values")

        self.microstate = self.t_samples = None
        if "microstate" in doc:
            section = _section(doc, "microstate")
            ell1 = float(_need(section, "ell1", "microstate", (int, float)))
            ell2 = _number(section.get("ell2", 0.0), "microstate.ell2")
            if ell1 == 0.0:
                raise ConfigError("microstate.ell1 must be nonzero")
            self.microstate = microstates.MicrostateParams(
                alpha=_number(section.get("alpha", 0.0), "microstate.alpha"),
                ell=complex(ell1, ell2))
            if section.get("t_samples") is not None:
                self.t_samples = _numbers(section["t_samples"], "microstate.t_samples")

        self.uncertainty = None
        if "uncertainty" in doc:
            section = _section(doc, "uncertainty")
            window = _numbers(_need(section, "window", "uncertainty", list), "uncertainty.window")
            if len(window) != 2:
                raise ConfigError("uncertainty.window must be [lo, hi]")
            if self.microstate is None:
                raise ConfigError("uncertainty section needs a microstate section")
            self.uncertainty = {
                "delta_alpha": float(_need(section, "delta_alpha", "uncertainty", (int, float))),
                "window": tuple(window),
                "hbar_scan": _numbers(section.get("hbar_scan", []), "uncertainty.hbar_scan"),
            }

        self.hierarchy = None
        if "hierarchy" in doc:
            section = _section(doc, "hierarchy")
            self.hierarchy = {
                "order": int(_need(section, "order", "hierarchy", int)),
                "epsilon": float(_need(section, "epsilon", "hierarchy", (int, float))),
                "x_ref": _number(section.get("x_ref", self.grid.x_min), "hierarchy.x_ref"),
                "f_even_files": list(section.get("f_even_files", [])),
            }

        outputs = _section(doc, "outputs")
        self.out_dir = outputs.get("directory", "out")
        self.plots = bool(outputs.get("plots", False))

        self.tolerances = {key: _number(value, f"tolerances.{key}")
                           for key, value in _section(doc, "tolerances").items()}

    # -- scenario construction ----------------------------------------------

    def resolved_method(self) -> str:
        if self.method != "auto":
            return self.method
        kind = self.potential.kind
        if kind in ("free", "linear"):
            return "analytic"
        if kind == "harmonic" and self.uncertainty is None and not self.t_samples:
            # the closed form exists for the ground level only, so it cannot
            # serve the E +/- dE re-solves of the time/uncertainty pipelines
            e0 = self.potential.ground_level(self.constants)
            if abs(self.energy - e0) <= 1e-9 * max(1.0, abs(e0)):
                return "analytic"
        return "numeric"

    def scenario(self, hbar: float | None = None) -> Scenario:
        """The configured scenario, or its rebuild at ``hbar`` (harmonic tracks
        its ground level and seeds from the centered ground family by default)."""
        constants, energy = self.constants, self.energy
        if hbar is not None:
            constants = PhysicalConstants(hbar=hbar, mass=constants.mass)
            if self.potential.kind == "harmonic":
                energy = self.potential.ground_level(constants)
        method, ics = self.resolved_method(), None
        if method == "numeric":
            ics = self.ics
            if not self.ics_given and self.potential.kind == "harmonic":
                ics = harmonic_ground_ics(constants, self.potential.stiffness, self.grid.x_min)
        return Scenario(self.potential, constants, self.grid, energy, method=method, ics=ics)

    def tolerance(self, name: str, provenance: str = "analytic") -> float:
        if name in self.tolerances:
            return self.tolerances[name]
        default = DEFAULT_TOLERANCES[name]
        if isinstance(default, dict):
            return default[provenance]
        return default


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: "
                          f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return ScenarioConfig(doc, os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Output helpers


def _format_value(v) -> str:
    return f"{float(v):.17g}"


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qhjlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, columns):
    """columns: list of (name, 1-D array); complex arrays split into re_/im_."""
    names, arrays = [], []
    for name, arr in columns:
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            names.extend([f"re_{name}", f"im_{name}"])
            arrays.extend([arr.real, arr.imag])
        else:
            names.append(name)
            arrays.append(arr)
    length = len(arrays[0])
    lines = [",".join(names)]
    for i in range(length):
        lines.append(",".join(_format_value(a[i]) for a in arrays))
    atomic_write(path, "\n".join(lines) + "\n")


class CheckTable:
    """Accumulates named pass/fail entries for the run report."""

    def __init__(self):
        self.checks = {}

    def add(self, name: str, value: float, tolerance: float, artifacts=()):
        self.checks[name] = {
            "status": "pass" if value <= tolerance else "fail",
            "max_residual": float(value),
            "tolerance": float(tolerance),
            "artifacts": list(artifacts),
        }

    @property
    def failed(self):
        return sorted(n for n, c in self.checks.items() if c["status"] == "fail")


# ---------------------------------------------------------------------------
# Pipelines: each returns fields.csv columns and/or writes side tables; all
# but the hierarchy share one EnergyFamily, so nothing is solved twice.


def _pair_checks(cfg: ScenarioConfig, pair, table: CheckTable, artifacts):
    prov = pair.provenance
    scale = pair.residual_scale()
    inner = cfg.grid.interior_slice(0.8)
    resid = max(
        float(np.max(np.abs(pair.schrodinger_residual("psi", use_attached=False).values[inner]))),
        float(np.max(np.abs(pair.schrodinger_residual("psi_dual", use_attached=False).values[inner]))))
    table.add("schrodinger_residual", resid / scale,
              cfg.tolerance("schrodinger_residual", prov), artifacts)
    table.add("wronskian_drift", pair.wronskian_drift(),
              cfg.tolerance("wronskian_drift", prov), artifacts)


def run_solve(cfg: ScenarioConfig, family: microstates.EnergyFamily, table: CheckTable):
    pair = family.pair
    _pair_checks(cfg, pair, table, ["fields.csv"])
    v = cfg.potential.derivative_samples(cfg.grid, 0)
    return [("x", cfg.grid.x), ("potential", v),
            ("psi", pair.psi.values), ("psi_dual", pair.psi_dual.values)]


def run_microstate(cfg: ScenarioConfig, family: microstates.EnergyFamily, table: CheckTable,
                   out_dir, write_files=True):
    ms = family.microstate
    report = microstates.qshje_residual(ms)
    interior = cfg.grid.interior_slice(0.8)
    scale = max(abs(cfg.energy), float(np.max(np.abs(ms.mfW.values))))

    table.add("qshje_potential",
              float(np.max(np.abs(report.from_potential.values[interior]))) / scale,
              cfg.tolerance("qshje_potential"), ["fields.csv"])
    table.add("qshje_schwarzian",
              float(np.max(np.abs(report.from_schwarzian.values[interior]))) / scale,
              cfg.tolerance("qshje_schwarzian"), ["fields.csv"])
    table.add("qshje_w_mismatch", report.w_mismatch / scale,
              cfg.tolerance("qshje_w_mismatch"), ["fields.csv"])

    fd_p = derivative(ms.S0, 1, use_attached=False).values
    p_scale = float(np.max(np.abs(ms.p.values)))
    table.add("momentum_cross_check",
              float(np.max(np.abs(fd_p[interior] - ms.p.values[interior]))) / p_scale,
              cfg.tolerance("momentum_cross_check"), ["fields.csv"])

    columns = [("w_ratio", ms.w.values), ("S0", ms.S0.values), ("p", ms.p.values),
               ("Q", ms.Q.values), ("mfW", ms.mfW.values),
               ("residual_qshje_potential", report.from_potential.values),
               ("residual_qshje_schwarzian", report.from_schwarzian.values)]

    if write_files and cfg.t_samples:
        traj = family.trajectory(cfg.t_samples)
        rows = [pt for seg in traj.segments for pt in seg]
        write_csv(os.path.join(out_dir, "trajectory.csv"),
                  [(f.name, [getattr(pt, f.name) for pt in rows])
                   for f in fields(microstates.TrajectoryPoint)])
    return columns


def run_uncertainty(cfg: ScenarioConfig, family: microstates.EnergyFamily, table: CheckTable,
                    out_dir, write_files=True):
    ms, de_p = family.microstate, family.de_momentum
    section = cfg.uncertainty
    report = uncertainty.delta_chain(ms, section["delta_alpha"], section["window"],
                                     de_momentum=de_p)

    if write_files:
        mask = (cfg.grid.x >= section["window"][0]) & (cfg.grid.x <= section["window"][1])
        abs_p = np.abs(ms.p.values[mask])
        write_csv(os.path.join(out_dir, "uncertainty.csv"),
                  [("x", cfg.grid.x[mask]), ("abs_p", abs_p),
                   ("delta_q_pointwise", report.delta_s0 / abs_p),
                   ("time_weight", np.abs(de_p.values[mask]) / abs_p)])

    if section["hbar_scan"]:
        # the scan reuses the run's family at the configured hbar
        template = hbar_template(cfg.scenario, cfg.microstate, section["window"], base=family)
        scan = uncertainty.hbar_scaling_scan(template, section["hbar_scan"],
                                             section["delta_alpha"])
        for name, slope in (("uncertainty_pq_slope", scan.pq_slope),
                            ("uncertainty_et_slope", scan.et_slope)):
            table.add(name, abs(slope - 1.0), cfg.tolerance(name), ["uncertainty.csv"])


def run_duality(cfg: ScenarioConfig, family: microstates.EnergyFamily, table: CheckTable):
    pair = family.pair
    prov = pair.provenance
    conj = normalize_wronskian(make_conjugate(pair))
    prep = duality.build_prepotential(conj)
    v_field = cfg.potential.field(cfg.grid)

    im_err = float(np.max(np.abs(prep.F.values.imag - cfg.grid.x / cfg.constants.epsilon)))
    table.add("duality_im_f", im_err, 0.0, ["fields.csv"])
    table.add("dual_derivative",
              float(np.max(duality.dual_derivative_residual(prep).values)),
              cfg.tolerance("dual_derivative", prov), ["fields.csv"])
    table.add("modulus_momentum",
              float(np.max(np.abs(duality.modulus_momentum_residual(conj).values))),
              cfg.tolerance("modulus_momentum", prov), ["fields.csv"])
    table.add("legendre",
              float(np.max(np.abs(duality.legendre_residual(prep).values))),
              cfg.tolerance("legendre"), ["fields.csv"])
    for variant, xi in prep.xi.items():
        resid = duality.gd_residual(xi, v_field, cfg.energy, cfg.constants.epsilon)
        scale = duality.gd_scale(xi, v_field, cfg.energy, cfg.constants.epsilon)
        table.add(f"gd_{variant}", float(np.max(np.abs(resid.values))) / scale,
                  cfg.tolerance("gd_residual", prov), ["fields.csv"])
    fe = duality.FreeEnergy.from_potential(cfg.potential, cfg.grid, cfg.grid.x_min)
    akq = duality.akq_residual(prep, fe, cfg.energy, v_field=v_field)
    direct = duality.prepotential_gd_residual(prep, v_field, cfg.energy)
    scale = duality.gd_scale(prep.xi["psi_psibar"], v_field, cfg.energy, cfg.constants.epsilon)
    table.add("akq_matches_direct",
              float(np.max(np.abs(akq.values - direct.values))) / scale,
              cfg.tolerance("akq_matches_direct"), ["fields.csv"])
    return [("F", prep.F.values), ("phi", prep.phi.values)]


def run_hierarchy(cfg: ScenarioConfig, table: CheckTable, out_dir, write_files=True):
    section = cfg.hierarchy
    f_even = []
    for ref in section["f_even_files"]:
        path = ref if os.path.isabs(ref) else os.path.join(cfg.base_dir, ref)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        values = data[:, -1] if data.ndim == 2 else data
        if len(values) != cfg.grid.n:
            raise ConfigError(f"f_even file {ref} has {len(values)} samples, "
                              f"grid has {cfg.grid.n}")
        f_even.append(ScalarField(cfg.grid, values))
    try:
        inp = hierarchy.HierarchyInput.from_potential(
            cfg.potential, cfg.grid, cfg.energy, section["order"],
            section["epsilon"], section["x_ref"], f_even=f_even)
    except QhjLabError as exc:
        raise ConfigError(f"hierarchy: {exc}") from exc

    sol = hierarchy.recurse(inp)
    table.add("hierarchy_parity", max(sol.parity_report),
              cfg.tolerance("hierarchy_parity"), ["hierarchy.csv"])

    if sol.order >= 1:
        p0, p1 = sol.p_coeffs[0], sol.p_coeffs[1]
        identity = np.abs(p1.values + derivative(p0, 1).values / (2.0 * p0.values))
        p1_scale = max(float(np.max(np.abs(p1.values))), 1.0)
        table.add("hierarchy_p1_identity", float(np.max(identity)) / p1_scale,
                  cfg.tolerance("hierarchy_p1_identity"), ["hierarchy.csv"])

    report = hierarchy.master_residual(sol, inp)
    scale = abs(cfg.energy) + float(np.max(np.abs(inp.v_field.values)))
    table.add("hierarchy_per_order", report.max_per_order() / scale,
              cfg.tolerance("hierarchy_per_order"), ["hierarchy.csv"])

    f2 = inp.f_dd_jet(2, 1)
    if sol.order >= 2 and (f2 is None or float(np.max(np.abs(f2[0]))) == 0.0):
        table.add("hierarchy_p2_schwarzian", hierarchy.p2_schwarzian_check(sol, inp),
                  cfg.tolerance("hierarchy_p2_schwarzian"), ["hierarchy.csv"])

    if write_files:
        columns = [("x", cfg.grid.x)]
        for j, (p, s) in enumerate(zip(sol.p_coeffs, sol.s_coeffs)):
            columns.append((f"P{j}", p.values))
            columns.append((f"S{j}", s.values))
        write_csv(os.path.join(out_dir, "hierarchy.csv"), columns)


PLOT_SCRIPT = """# gnuplot script generated by qhjlab; run from the output directory
set datafile separator ','
set key autotitle columnhead
set grid
set xlabel 'x'
plot 'fields.csv' using 1:'S0' with lines, \\
     'fields.csv' using 1:'p' with lines, \\
     'fields.csv' using 1:'Q' with lines
"""


def run(config_path: str, subcommand: str, out_dir: str | None = None,
        tolerance_overrides=None) -> int:
    """Execute ``subcommand`` for the config; returns the process exit code."""
    cfg = load_config(config_path)
    if tolerance_overrides:
        cfg.tolerances.update(tolerance_overrides)
    if subcommand in ("microstate", "uncertainty", "hierarchy") and getattr(cfg, subcommand) is None:
        raise ConfigError(f"{subcommand} pipeline requested but config has no "
                          f"{subcommand} section")
    out = out_dir or cfg.out_dir
    table = CheckTable()
    write_files = subcommand != "report"
    wants = (lambda *names: subcommand in names or subcommand in ("all", "report"))

    family = microstates.EnergyFamily(cfg.scenario(), cfg.microstate)
    columns = []
    if wants("solve", "microstate", "duality"):
        columns.extend(run_solve(cfg, family, table))
    if wants("microstate") and cfg.microstate is not None:
        columns.extend(run_microstate(cfg, family, table, out, write_files=write_files))
    if wants("uncertainty") and cfg.uncertainty is not None:
        run_uncertainty(cfg, family, table, out, write_files=write_files)
    if wants("duality"):
        columns.extend(run_duality(cfg, family, table))
    del family  # release its fields before the hierarchy and fields.csv
    if wants("hierarchy") and cfg.hierarchy is not None:
        run_hierarchy(cfg, table, out, write_files=write_files)

    if write_files and columns:
        write_csv(os.path.join(out, "fields.csv"), columns)
        if cfg.plots:
            atomic_write(os.path.join(out, "plots.gp"), PLOT_SCRIPT)

    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "checks": table.checks,
        "summary": {
            "total": len(table.checks),
            "passed": sum(1 for c in table.checks.values() if c["status"] == "pass"),
            "failed": len(table.failed),
            "failing_checks": table.failed,
        },
    }
    atomic_write(os.path.join(out, "report.json"),
                 json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name in sorted(table.checks):
        check = table.checks[name]
        print(f"{check['status']:4s}  {name}  "
              f"(max {check['max_residual']:.3e}, tol {check['tolerance']:.3e})")
    return 2 if table.failed else 0


def _parse_tol(items):
    overrides = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance key {key!r}")
        overrides[key] = _number(value, f"--tol {key}")
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhjlab",
        description="Scenario-driven residual checks for 1-D trajectory quantum mechanics")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON scenario config")
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument("--tol", action="append", metavar="KEY=VALUE",
                        help="override a check tolerance")
    args = parser.parse_args(argv)

    try:
        return run(args.config, args.subcommand, out_dir=args.out,
                   tolerance_overrides=_parse_tol(args.tol))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QhjLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
