"""``src/`` is what the CLI runs: every function and method defined in
src/qhjlab is entered by some subcommand on a few small configs, apart from
a named allowlist, each entry with its reason.

The runs go through ``cli.main`` under ``sys.settrace`` with call events only
(the trace function returns None, so no line events).  A def is matched to
the code objects the runs enter by its file and first line, the line of its
first decorator where it has one.
"""

import ast
import json
import math
import os
import sys
import time
from pathlib import Path

import qhjlab
from qhjlab.cli import PIPELINES, SECTION_STAGES, main

SRC = Path(os.path.realpath(qhjlab.__file__)).parent

# Functions no subcommand enters: {qualified name: why it stays in src/}.
ALLOWED = {
    **{f"microstates.{name}": "a per-layer metric of BENCHMARK.json names it; the CLI "
                              "reads the Microstate member (ROADMAP D10 item 5)"
       for name in ("time_of_q", "trajectory", "energy_derivative_of_momentum")},
    **{f"catalog.{name}": "perfbench/tracer.py imports catalog (ROADMAP D14)"
       for name in ("free_scenario", "harmonic_scenario", "linear_scenario",
                    "builtin_scenario", "scan_family")},
    "microstates.quantum_potential": "test oracle, a second route to Q (ROADMAP D14)",
    "duality.prepotential_ode_residual": "test oracle for the third-order ODE (ROADMAP D9)",
    "duality.omega_for_norm": "test oracle for the norm scale (ROADMAP D8)",
    "duality.Prepotential.psibar": "reader of conj(psi) as a field for callers and tests; "
                                   "the checks form it one array per term",
    "duality.Resolvents.__len__": "part of the Mapping protocol of Prepotential.xi; "
                                  "the checks iterate it without len()",
    "hierarchy.master_remainder": "test oracle for the truncation order (ROADMAP D7a)",
    "hierarchy.reconstruct_modulus": "test oracle for |psi|^2 (ROADMAP D8)",
    "fields.Grid.refined": "test oracle for self-convergence (ROADMAP D5)",
    "errors.SingularFieldError.__init__": "raised at a node of psi or a zero of a "
                                          "derivative, which no pair with a nonzero "
                                          "Wronskian has (test_fields plants them)",
}


def defined_functions() -> dict:
    """{(file, first line): qualified name} of every def in src/qhjlab."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def small_configs(tmp_path) -> dict:
    """Config documents that between them reach every CLI route a valid
    config can take."""
    base = {"constants": {"hbar": 1.0, "mass": 0.5}, "potential": {"kind": "free"},
            "energy": 1.0, "grid": {"x_min": 0.0, "x_max": 2.0 * math.pi, "n": 129},
            "microstate": {"alpha": 0.3, "ell1": 1.2, "ell2": 0.1},
            "uncertainty": {"delta_alpha": 1.0, "window": [1.0, 5.0],
                            "hbar_scan": [1.0, 0.5, 0.25, 0.125]},
            "hierarchy": {"order": 2, "epsilon": 0.1, "x_ref": 1.0},
            "tolerances": {"legendre": 1e-6}}
    harmonic = dict(base, potential={"kind": "harmonic", "stiffness": 1.0}, energy=1.0,
                    grid={"x_min": -0.5, "x_max": 0.5, "n": 129},
                    hierarchy={"order": 2, "epsilon": 0.1, "x_ref": 0.0})
    (tmp_path / "f2.csv").write_text("f2_dd\n" + "0.001\n" * 129, encoding="utf-8")
    return {
        "free": base,
        "linear": dict(base, potential={"kind": "linear", "slope": 1.0}, energy=2.0,
                       grid={"x_min": -4.0, "x_max": 1.5, "n": 129},
                       uncertainty={"delta_alpha": 1.0, "window": [-3.5, -0.5],
                                    "hbar_scan": [1.0, 0.5, 0.25, 0.125]}),
        "harmonic-numeric": dict(
            harmonic, uncertainty={"delta_alpha": 1.0, "window": [-0.15, 0.15],
                                   "hbar_scan": [1.0, 0.5, 0.25, 0.125]},
            microstate={"alpha": 2.1, "ell1": 1.3, "ell2": -0.2, "t_samples": [0.01, 0.05]}),
        # no uncertainty section and no t_samples: auto picks the closed form
        "harmonic-ground": {k: v for k, v in harmonic.items() if k != "uncertainty"},
        "free-plots": dict(base, hierarchy={"order": 4, "epsilon": 0.1, "x_ref": 1.0,
                                            "f_even_files": ["f2.csv"]},
                           outputs={"plots": True}),
        # k h = 2: the RK4 pair fails its construction bound, so every run exits 1
        "free-unresolved": {**{k: v for k, v in base.items() if k != "hierarchy"},
                            "energy": 400.0, "solver": {"method": "numeric"}},
    }


def test_every_function_in_src_is_run_by_the_cli(tmp_path, capsys):
    start = time.perf_counter()
    defined = defined_functions()
    entered = set()

    def on_call(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a cached function that an earlier test filled would not be entered again
    for name, module in list(sys.modules.items()):
        if name.startswith("qhjlab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, doc in small_configs(tmp_path).items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            for subcommand in PIPELINES:
                if subcommand in SECTION_STAGES and subcommand not in doc:
                    continue  # a config error, before any stage runs
                code = main([subcommand, "--config", str(config),
                             "--out", str(tmp_path / name / subcommand)])
                expected = (1,) if name == "free-unresolved" else (0, 2)
                assert code in expected, (name, subcommand, capsys.readouterr().err)
    finally:
        sys.settrace(previous)
    capsys.readouterr()

    entered = {(os.path.realpath(file), line) for file, line in entered}
    never = {defined[key] for key in defined if key not in entered}
    assert sorted(never - set(ALLOWED)) == []
    # an entry whose function is gone or now runs leaves the list
    assert sorted(set(ALLOWED) - never) == []
    assert time.perf_counter() - start < 5.0
