"""Workload definitions and predictions for the qhjlab benchmark.

Each workload is a generated scenario config plus the subcommand it runs.
The run seed and the invocation index draw only the microstate constants,
the trajectory sample times and the hierarchy anchor; potential, energy,
grid, expansion order and subcommand are fixed per workload, so the amount
of work does not depend on the seed.  The one-line reason for each workload
is its ``why`` in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random

HBAR_SCAN = [1.0, 0.5, 0.25, 0.125, 0.0625]

PAIR_CHECKS = ("schrodinger_residual", "wronskian_drift")
MICROSTATE_CHECKS = ("qshje_potential", "qshje_schwarzian", "qshje_w_mismatch",
                     "momentum_cross_check")
UNCERTAINTY_CHECKS = ("uncertainty_pq_slope", "uncertainty_et_slope")
DUALITY_CHECKS = ("duality_im_f", "dual_derivative", "modulus_momentum", "legendre",
                  "gd_psi_psibar", "gd_psi_sq", "gd_psibar_sq", "akq_matches_direct")
HIERARCHY_CHECKS = ("hierarchy_parity", "hierarchy_p1_identity", "hierarchy_per_order",
                    "hierarchy_p2_schwarzian")

# Checks whose residual moves with the seeded constants (microstate constants
# and the hierarchy anchor).  worst_pass_ratio leaves them out so that it
# reads the same on every seed; they still count in check_pass_ratio and in
# the correctness verdict.
SEED_DEPENDENT_CHECKS = frozenset(MICROSTATE_CHECKS + UNCERTAINTY_CHECKS
                                  + ("hierarchy_p2_schwarzian",))


class Workload:
    def __init__(self, name, subcommand, potential, energy, grid, order,
                 t_range=None, window=None, known_failing=()):
        self.name = name
        self.subcommand = subcommand
        self.potential = potential
        self.energy = energy
        self.grid = grid                  # (x_min, x_max, n)
        self.order = order                # hierarchy truncation order K
        self.t_range = t_range            # trajectory sample times are drawn here
        self.window = window              # uncertainty window; None = no section
        self.known_failing = frozenset(known_failing)

    @property
    def n(self) -> int:
        return self.grid[2]

    def config(self, seed: int, index: int) -> dict:
        """Scenario document of invocation ``index`` in the run with ``seed``."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        x_min, x_max, n = self.grid
        microstate = {"alpha": rng.uniform(0.0, 2.0 * math.pi),
                      "ell1": rng.uniform(0.5, 2.0),
                      "ell2": rng.uniform(-0.5, 0.5)}
        if self.t_range is not None:
            microstate["t_samples"] = sorted(rng.uniform(*self.t_range) for _ in range(5))
        doc = {
            "constants": {"hbar": 1.0, "mass": 0.5},
            "potential": dict(self.potential),
            "energy": self.energy,
            "grid": {"x_min": x_min, "x_max": x_max, "n": n},
            "microstate": microstate,
            "hierarchy": {"order": self.order, "epsilon": 0.1,
                          "x_ref": rng.uniform(x_min, x_max)},
            "outputs": {"directory": "out", "plots": False},
        }
        if self.window is not None:
            doc["uncertainty"] = {"delta_alpha": 1.0, "window": list(self.window),
                                  "hbar_scan": list(HBAR_SCAN)}
        return doc

    def expected_checks(self) -> frozenset:
        names = PAIR_CHECKS + MICROSTATE_CHECKS + DUALITY_CHECKS + HIERARCHY_CHECKS
        if self.window is not None:
            names += UNCERTAINTY_CHECKS
        return frozenset(names)

    def expected_files(self) -> frozenset:
        if self.subcommand == "report":
            return frozenset({"report.json"})
        files = {"report.json", "fields.csv", "hierarchy.csv"}
        if self.t_range is not None:
            files.add("trajectory.csv")
        if self.window is not None:
            files.add("uncertainty.csv")
        return frozenset(files)

    def jet_ops(self) -> int:
        """Elementwise complex multiply-adds and divides in ``hierarchy.recurse``,
        computed from K and n by replaying the loop structure of the jet
        recursion (rows = K + 4; coefficient j carries rows - j jet rows)."""
        rows = self.order + 4
        ops = sum(r - 1 for r in range(1, rows)) + rows                     # sqrt
        for nn in range(1, self.order + 1):
            avail = rows - nn
            for i in range(1, nn):
                m = min(rows - i, rows - nn + i)
                ops += m * (m + 1) // 2                                       # mul
            ops += avail                                                      # shift
            ops += sum(range(1, avail)) + avail                               # div
        return ops * self.n


# Known defects at the commit that defined the benchmark.  These checks fail
# at the workload sizes; they stay counted in check_pass_ratio, and any other
# check failing makes the run incorrect.
#   hierarchy_p2_schwarzian: the stencil Schwarzian's noise grows under
#     refinement (1.2e-3 at n=16385 against a 1e-5 bound).
#   hierarchy_per_order: the K=12 residual is scaled by E + max V, not by the
#     coefficient size.
#   schrodinger_residual: fails on the Airy pair at n=16385.
#   uncertainty_et_slope: the fitted slope misses 1 for most ell != 1.
WORKLOADS = {
    w.name: w for w in (
        Workload("harmonic-scan", "all", {"kind": "harmonic", "stiffness": 1.0}, 1.0,
                 (-0.5, 0.5, 4097), 4, t_range=(0.005, 0.14), window=(-0.15, 0.15),
                 known_failing={"hierarchy_p2_schwarzian", "uncertainty_et_slope"}),
        Workload("free-write", "all", {"kind": "free"}, 1.0,
                 (0.0, 2.0 * math.pi, 16385), 8, t_range=(-3.0, -0.05), window=(1.0, 5.0),
                 known_failing={"hierarchy_p2_schwarzian", "uncertainty_et_slope"}),
        Workload("linear-report", "report", {"kind": "linear", "slope": 1.0}, 2.0,
                 (-4.0, 1.5, 16385), 12,
                 known_failing={"hierarchy_p2_schwarzian", "hierarchy_per_order",
                                "schrodinger_residual"}),
    )
}

# Which layer metric should move which end-to-end metric, and on which
# workload; where a workload is listed under "flat", the prediction is no
# change.  Later performance changes cite metrics and workloads by these names.
PREDICTIONS = [
    {"layer": "schrodinger",
     "metrics": ["schrodinger.self_s", "schrodinger.solve_pair.calls",
                 "schrodinger.solve_pair.self_s", "schrodinger.analytic_pair.calls",
                 "schrodinger.analytic_pair.self_s", "schrodinger.pairs_distinct",
                 "schrodinger.distinct_ratio", "schrodinger.rk4_steps",
                 "schrodinger.us_per_rk4_step"],
     "moves": {"harmonic-scan": ["run_s", "wall_s"]},
     "flat": ["free-write", "linear-report"],
     "note": "distinct_ratio is 15/28 on harmonic-scan and free-write; one solve per "
             "energy lifts it to 1 and cuts run_s on harmonic-scan, and barely moves "
             "free-write, whose analytic pairs are cheap. Transfer-matrix RK4 moves "
             "us_per_rk4_step."},
    {"layer": "cli",
     "metrics": ["cli.self_s", "cli.write_csv.self_s", "cli.write_csv.rows",
                 "cli.bytes_written", "cli.load_config.self_s"],
     "moves": {"free-write": ["run_s", "wall_s"]},
     "flat": ["linear-report"],
     "note": "linear-report runs 'report', which writes no CSV."},
    {"layer": "hierarchy",
     "metrics": ["hierarchy.self_s", "hierarchy.recurse.self_s", "hierarchy.recurse.jet_ops",
                 "hierarchy.master_residual.self_s", "hierarchy.p2_schwarzian_check.self_s"],
     "moves": {"linear-report": ["run_s", "wall_s"], "free-write": ["run_s"]},
     "flat": ["harmonic-scan"],
     "note": "K=12 on linear-report, K=8 on free-write, K=4 (under 1% of run_s) on "
             "harmonic-scan. jet_ops is computed from K and n, not counted."},
    {"layer": "fields",
     "metrics": ["fields.self_s", "fields.derivative.calls", "fields.derivative.self_s",
                 "fields.antiderivative.self_s", "fields.unwrap_phase.self_s"],
     "moves": {"linear-report": ["run_s"]},
     "flat": [],
     "note": "At most about 10% of run_s anywhere; the largest share is on linear-report."},
    {"layer": "microstates",
     "metrics": ["microstates.self_s", "microstates.build_microstate.calls",
                 "microstates.energy_derivative_of_momentum.calls",
                 "microstates.time_of_q.total_s", "microstates.trajectory.total_s"],
     "moves": {"harmonic-scan": ["run_s", "wall_s"]},
     "flat": ["linear-report"],
     "note": "These orchestrate the re-solves; their totals move with harmonic-scan's run_s."},
    {"layer": "uncertainty",
     "metrics": ["uncertainty.self_s", "uncertainty.hbar_scaling_scan.total_s",
                 "uncertainty.scan_items"],
     "moves": {"harmonic-scan": ["run_s", "wall_s"]},
     "flat": ["linear-report"],
     "note": "The hbar scan is about half of harmonic-scan's pair solves."},
    {"layer": "duality",
     "metrics": ["duality.self_s", "duality.build_prepotential.self_s"],
     "moves": {},
     "flat": ["harmonic-scan", "free-write", "linear-report"],
     "note": "Small on all three; kept so that a regression there shows."},
    {"layer": "imports",
     "metrics": ["setup_s"],
     "moves": {"linear-report": ["wall_s"]},
     "flat": [],
     "note": "setup_s is interpreter start plus imports, mostly scipy.special; it is "
             "about half of wall_s on linear-report, so import-cost work shows most there."},
    {"layer": "trace",
     "metrics": ["trace.overhead_s"],
     "moves": {},
     "flat": ["harmonic-scan", "free-write", "linear-report"],
     "note": "Traced run_s minus untraced run_s; end-to-end numbers always come from "
             "untraced invocations."},
]
