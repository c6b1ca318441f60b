"""Config validation, pipeline wiring, file formats and determinism."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhjlab import fields, hierarchy, microstates, schrodinger
from qhjlab.cli import CSV_BLOCK_CELLS, SCHEMA_VERSION, TOLERANCE_KEYS, _X_MAX, _X_MIN, \
    _cell_tables, _cell_words, load_config, main, write_csv
from qhjlab.errors import ConfigError
from qhjlab.fields import ScalarField
from qhjlab.schrodinger import Potential, default_ics

FIELDS_HEADER = ("x,potential,psi,psi_dual,w_ratio,S0,p,Q,mfW,"
                 "residual_qshje_potential,residual_qshje_schwarzian,"
                 "re_F,im_F,re_phi,im_phi")

REPORT_TOP_KEYS = ["checks", "schema_version", "subcommand", "summary"]


def base_config(out_dir, **extra):
    doc = {
        "constants": {"hbar": 1.0, "mass": 0.5},
        "potential": {"kind": "free"},
        "energy": 1.0,
        "grid": {"x_min": 0.0, "x_max": 2.0 * math.pi, "n": 257},
        "microstate": {"alpha": 0.0, "ell1": 1.0, "ell2": 0.0},
        "uncertainty": {"delta_alpha": 1.0, "window": [1.0, 5.0],
                        "hbar_scan": [1.0, 0.5, 0.25, 0.125, 0.0625]},
        "hierarchy": {"order": 2, "epsilon": 0.1, "x_ref": 1.0},
        "outputs": {"directory": str(out_dir), "plots": False},
    }
    doc.update(extra)
    return doc


# harmonic ground state on the scan grid, with the matching scan window
HARMONIC = {"potential": {"kind": "harmonic", "stiffness": 1.0}, "energy": 1.0,
            "grid": {"x_min": -0.5, "x_max": 0.5, "n": 257},
            "uncertainty": {"delta_alpha": 1.0, "window": [-0.15, 0.15],
                            "hbar_scan": [1.0, 0.5, 0.25, 0.125, 0.0625]},
            "hierarchy": {"order": 2, "epsilon": 0.1, "x_ref": 0.0}}


# the shape of the harmonic-scan benchmark workload at small n: a generic
# microstate with trajectory samples next to the hbar scan
HARMONIC_SCAN = dict(HARMONIC, microstate={"alpha": 2.1, "ell1": 1.3, "ell2": -0.2,
                                           "t_samples": [0.01, 0.05, 0.1]})


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidation:
    def test_zero_ell1_rejected_before_any_write(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["microstate"]["ell1"] = 0.0
        code = main(["all", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert not out.exists()

    def test_small_grid_rejected(self, tmp_path):
        doc = base_config(tmp_path / "out")
        doc["grid"]["n"] = 48
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "potential": }\n', encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line 2" in str(err.value)

    def test_missing_energy(self, tmp_path):
        doc = base_config(tmp_path / "out")
        del doc["energy"]
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        # duality_im_f has no key, and gd_residual sets the three gd_* checks
        for item in ("nonsense=1", "duality_im_f=1", "gd_psi_sq=1"):
            assert main(["all", "--config", cfg, "--tol", item]) == 1
            assert capsys.readouterr().err.startswith("config error:")

    def test_negative_tolerance_refused_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["all", "--config", cfg, "--tol", "legendre=-5"]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
        # a bound of 0 stays allowed: the parity holds exactly, so it passes
        assert main(["report", "--config", cfg, "--tol", "hierarchy_parity=0"]) == 0
        check = json.loads((out / "report.json").read_text())["checks"]["hierarchy_parity"]
        assert (check["tolerance"], check["status"]) == (0.0, "pass")

    @pytest.mark.parametrize("section, key, value", [
        ("constants", "hbar", -1),
        ("constants", "mass", 0),
        ("constants", "hbar", "x"),
        ("microstate", "ell2", "x"),
        ("microstate", "t_samples", "x"),
        ("hierarchy", "x_ref", "x"),
        ("uncertainty", "hbar_scan", [1, "a"]),
        (None, "constants", []),
        ("hierarchy", "order", -1),
        ("hierarchy", "epsilon", 0),
        ("hierarchy", "f_even_files", ["missing.csv"]),
        ("hierarchy", "f_even_files", "f2.csv"),
        ("hierarchy", "x_ref", 99),
        (None, "tolerances", {"qshje_potentail": 1e-30}),
        ("microstate", "alpha", "inf"),
        ("microstate", "t_samples", [1, "nan"]),
        ("uncertainty", "window", ["nan", 5]),
        ("uncertainty", "delta_alpha", 0),
        ("uncertainty", "hbar_scan", [1, 2]),
        ("uncertainty", "hbar_scan", [1.0, 0.5, -0.25, 0.125]),
        ("uncertainty", "window", [-10, 1]),
        ("uncertainty", "window", [3, 2]),
        ("outputs", "directory", 5),
        ("hierarchy", "f_even_files", ["nan_sample.csv"]),
        ("outputs", "plots", "false"),
        (None, "tolerance", {"qshje_potential": 1e-30}),
        ("microstate", "t_sample", [0.1]),
        (None, "tolerances", {"qshje_potential": -1.0}),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "out"
        doc = base_config(out)
        (doc if section is None else doc[section])[key] = value
        (tmp_path / "nan_sample.csv").write_text("f2_dd\n" + "0.0\n" * 128 + "nan\n"
                                                 + "0.0\n" * 128)
        code = main(["all", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("extra, solver", [
        ({}, {"ics": [5, 1, 2, 3]}),
        ({}, {"method": "analytic", "ics": [5, 1, 2, 3]}),
        (HARMONIC, {"ics": [0.9, 0.4, 0.1, 1.2]}),
    ], ids=["free-auto", "free-analytic", "harmonic-ground-auto"])
    def test_ics_of_a_closed_form_refused(self, tmp_path, capsys, extra, solver):
        # initial data seed only the numeric sweep: under a closed form they
        # would change no output, so they are refused rather than ignored
        out = tmp_path / "out"
        doc = base_config(out, solver=solver, **extra)
        if extra:
            del doc["uncertainty"]  # auto then picks the harmonic closed form
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "solver.method: numeric" in err
        assert not out.exists()
        doc["solver"]["method"] = "numeric"
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 0

    def test_config_tolerance_map(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["tolerances"] = {"qshje_potential": 1e-30}
        code = main(["microstate", "--config", write_config(tmp_path, doc)])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["qshje_potential"]["tolerance"] == 1e-30


def kind_config(out_dir, kind):
    """base_config moved to a classically allowed scenario of the built-in ``kind``."""
    if kind == "harmonic":
        return base_config(out_dir, **copy.deepcopy(HARMONIC))
    doc = base_config(out_dir)
    if kind == "linear":
        doc.update(potential={"kind": "linear", "slope": 1.0}, energy=2.0,
                   grid={"x_min": -4.0, "x_max": 1.5, "n": 257})
        del doc["uncertainty"]  # its window lies off this grid
    return doc


class TestExtremeScales:
    """Scales at the ends of the float range end in one error line or a
    report, never in a traceback; a RuntimeWarning fails these tests too
    (pyproject's filterwarnings)."""

    @pytest.mark.parametrize("kind, path, value", [
        ("free", "energy", 1e300),
        ("linear", "constants.hbar", 1e-200),
        ("harmonic", "constants.hbar", 1e-200),
        ("harmonic", "constants.mass", 1e300),
        ("free", "uncertainty.hbar_scan", [1e300, 1e200, 1e100, 1.0]),
        ("free", "uncertainty.hbar_scan", [1e-300, 1e-200, 1e-100, 1.0]),
        ("free", "hierarchy.epsilon", 1e308),
    ])
    def test_one_error_line(self, tmp_path, capsys, kind, path, value):
        out = tmp_path / "out"
        doc = kind_config(out, kind)
        *parents, key = path.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("error:", "config error:")) and err.count("\n") == 1, err
        if err.startswith("config error:"):
            assert not out.exists()

    @settings(max_examples=150)
    @given(kind=st.sampled_from(["free", "linear", "harmonic"]),
           exponents=st.tuples(*[st.floats(-300.0, 300.0)] * 4))
    def test_any_scale_exits_cleanly(self, kind, exponents):
        # log10 of hbar, mass, energy and the slope or stiffness; numpy may
        # warn on such scales, as the command line would print, but any
        # exception that escapes main is a traceback
        hbar, mass, energy, shape = (10.0 ** e for e in exponents)
        with tempfile.TemporaryDirectory() as tmp:
            doc = kind_config(os.path.join(tmp, "out"), kind)
            doc["constants"] = {"hbar": hbar, "mass": mass}
            doc["energy"] = energy
            if kind != "free":
                doc["potential"][{"linear": "slope", "harmonic": "stiffness"}[kind]] = shape
            cfg = os.path.join(tmp, "scenario.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore", RuntimeWarning)
                assert main(["report", "--config", cfg]) in (0, 1, 2)

    @settings(max_examples=60)
    @given(window=st.lists(st.floats(-0.6, 0.6) | st.sampled_from([-0.5, 0.5]),
                           min_size=2, max_size=2, unique=True).map(sorted),
           ell=st.tuples(*[st.tuples(st.sampled_from([-1.0, 1.0]),
                                     st.floats(-300.0, 300.0) | st.floats(-3.0, 3.0))] * 2),
           delta_alpha=st.floats(-1e3, 1e3))
    def test_any_scan_input_exits_cleanly(self, window, ell, delta_alpha):
        # the window (edges on and off the harmonic grid [-0.5, 0.5]), ell1
        # and ell2 over 1e+-300 and delta_alpha, on numeric pairs, so that
        # the scan's added pairs compose their sweeps (about a third of the
        # draws reach the scan): an exit code and one error line or none,
        # never a traceback; numpy may warn on such scales (ell1^2 + ell2^2
        # overflows past 1e154), as the command line would print
        (s1, e1), (s2, e2) = ell
        with tempfile.TemporaryDirectory() as tmp:
            doc = kind_config(os.path.join(tmp, "out"), "harmonic")
            doc["solver"] = {"method": "numeric"}
            doc["microstate"] = {"alpha": 0.3, "ell1": s1 * 10.0 ** e1, "ell2": s2 * 10.0 ** e2}
            doc["uncertainty"].update(window=window, delta_alpha=delta_alpha)
            cfg = os.path.join(tmp, "scenario.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(["report", "--config", cfg])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith(("error:", "config error:"))
            assert err.getvalue().count("\n") == 1, err.getvalue()
        else:
            assert err.getvalue() == ""

    def test_vanishing_time_weight_is_an_error(self, tmp_path, capsys):
        # found by the scale fuzz: at m = 10**30 a sample of |dp/dE|/|p| is 0
        out = tmp_path / "out"
        doc = kind_config(out, "free")
        doc["constants"]["mass"] = 10.0 ** 29.768308378961024
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith("error: the time weight |dp/dE|/|p| vanishes")

    def test_vanishing_momentum_is_an_error(self, tmp_path, capsys, monkeypatch):
        # dq = dS0/|p| is unbounded where p vanishes in the window; no real
        # microstate's closed form gives such a p, so one zero is planted in it
        formed = microstates.Microstate.p.func

        def planted(ms):
            p = formed(ms)
            values = p.values.copy()
            values[ms.pair.grid.index_of(3.0)] = 0.0
            return ScalarField(ms.pair.grid, values, derivs=p.derivs)

        monkeypatch.setattr(microstates.Microstate, "p", property(planted))
        doc = kind_config(tmp_path / "out", "free")
        assert main(["uncertainty", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: |p| vanishes in the window") and err.count("\n") == 1, err

    def test_hbar_squared_beyond_float_range(self, tmp_path, capsys):
        # hbar^2 = 1e310 overflows while eps^2 = hbar^2/(2m) = 5e307 does not;
        # the hbar^2/m prefactors of Q, W and dQ/dE are formed from eps^2, so
        # the run reaches its report (the stencil residual fails at this scale)
        doc = kind_config(tmp_path / "out", "free")
        doc["constants"] = {"hbar": 1e155, "mass": 100.0}
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 2
        assert "fail  schrodinger_residual" in capsys.readouterr().out


@settings(max_examples=100)
@given(kind=st.sampled_from(["free", "linear", "harmonic"]), order=st.integers(-1, 13),
       n=st.integers(60, 300), at=st.floats(-0.1, 1.1))
def test_any_order_exits_cleanly(kind, order, n, at):
    # orders 0 and 1 run on 2 and 3 jet rows; -1 and 13, a grid below 64
    # samples and an x_ref off the grid (``at`` is its place in the grid's
    # span) are config errors
    with tempfile.TemporaryDirectory() as tmp:
        doc = kind_config(os.path.join(tmp, "out"), kind)
        grid = doc["grid"]
        grid["n"] = n
        x_ref = grid["x_min"] + at * (grid["x_max"] - grid["x_min"])
        doc["hierarchy"].update(order=order, x_ref=x_ref)
        cfg = os.path.join(tmp, "scenario.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["hierarchy", "--config", cfg])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


def test_any_order_exits_cleanly_across_tile_seams(monkeypatch):
    # 16-column tiles: the fuzzed grids of 60-300 samples cross several seams
    monkeypatch.setattr(hierarchy, "_tile_width", lambda order: 16)
    test_any_order_exits_cleanly()


PAIR_CHECKS = {"schrodinger_residual", "wronskian_drift"}
MICROSTATE_CHECKS = {"qshje_potential", "qshje_schwarzian", "qshje_w_mismatch",
                     "momentum_cross_check"}
UNCERTAINTY_CHECKS = {"uncertainty_pq_slope", "uncertainty_et_slope"}
DUALITY_CHECKS = {"duality_im_f", "dual_derivative", "modulus_momentum", "legendre",
                  "gd_psi_psibar", "gd_psi_sq", "gd_psibar_sq", "akq_matches_direct"}
HIERARCHY_CHECKS = {"hierarchy_parity", "hierarchy_p1_identity", "hierarchy_per_order",
                    "hierarchy_p2_schwarzian"}
ALL_CHECKS = (PAIR_CHECKS | MICROSTATE_CHECKS | UNCERTAINTY_CHECKS | DUALITY_CHECKS
              | HIERARCHY_CHECKS)


class TestRun:
    @pytest.mark.parametrize("subcommand, checks, files", [
        ("solve", PAIR_CHECKS, {"fields.csv"}),
        ("microstate", PAIR_CHECKS | MICROSTATE_CHECKS, {"fields.csv"}),
        ("uncertainty", UNCERTAINTY_CHECKS, {"uncertainty.csv"}),
        ("duality", PAIR_CHECKS | DUALITY_CHECKS, {"fields.csv"}),
        ("hierarchy", HIERARCHY_CHECKS, {"hierarchy.csv"}),
        ("all", ALL_CHECKS, {"fields.csv", "uncertainty.csv", "hierarchy.csv"}),
        ("report", ALL_CHECKS, set()),
    ])
    def test_subcommand_runs_its_checks_and_writes_its_files(self, tmp_path, subcommand,
                                                             checks, files):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main([subcommand, "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["checks"]) == checks
        assert {p.name for p in out.iterdir()} == files | {"report.json"}

    def test_free_scenario_all_checks_pass(self, tmp_path):
        out = tmp_path / "out"
        code = main(["all", "--config", write_config(tmp_path, base_config(out))])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["failed"] == 0
        for name in ("qshje_potential", "wronskian_drift", "gd_psi_psibar",
                     "uncertainty_pq_slope", "hierarchy_parity"):
            assert report["checks"][name]["status"] == "pass"

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["all", "--config", cfg]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["all", "--config", cfg]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    @pytest.mark.parametrize("extra", [{}, HARMONIC, HARMONIC_SCAN],
                             ids=["free", "harmonic", "harmonic-scan"])
    def test_all_solves_each_pair_once(self, tmp_path, pair_solves, extra):
        out = tmp_path / "out"
        doc = base_config(out, **extra)
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 0
        # one solve per scan hbar, the configured one (the pair at E) included
        assert len(pair_solves) == 5
        assert len(set(pair_solves)) == 5
        assert sorted(key[3].hbar for key in pair_solves) == \
            sorted(doc["uncertainty"]["hbar_scan"])

    @pytest.mark.parametrize("subcommand, expected", [
        ("all", {"ScalarField": 131, "copies": 20, "unwrap_phase": 1, "schwarzian": 2, "V": 1,
                 "stepwise": 1, "composed": 4}),
        ("uncertainty", {"ScalarField": 86, "copies": 20, "unwrap_phase": 0, "schwarzian": 0,
                         "V": 1, "stepwise": 1, "composed": 4}),
    ])
    def test_work_counts(self, tmp_path, monkeypatch, subcommand, expected):
        # exact counts per run, so that added work shows without timing noise:
        # fields built, arrays they copy (the deinterleaved rows of each of the
        # five RK4 sweeps), phases unwrapped into S0, Schwarzians taken, V
        # formed, and the sweeps: the configured pair's is stepwise, since its
        # residual is reported, and the four pairs the scan adds compose
        counts = dict.fromkeys(expected, 0)

        def count(owner, name, key, when=lambda *args: True):
            def counted(*args, _original=getattr(owner, name)):
                counts[key] += when(*args)
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)

        count(ScalarField, "__post_init__", "ScalarField")
        count(fields, "_owned", "copies",
              lambda arr: not (type(arr) is np.ndarray and arr.base is None))
        count(microstates, "unwrap_phase", "unwrap_phase")
        count(microstates, "schwarzian", "schwarzian")
        count(Potential, "derivative_samples", "V", lambda self, grid, order: order == 0)
        count(schrodinger, "_stepwise_sweep", "stepwise")
        count(schrodinger, "_composed_sweep", "composed")
        doc = base_config(tmp_path / "out", **HARMONIC_SCAN)
        assert main([subcommand, "--config", write_config(tmp_path, doc)]) == 0
        assert counts == expected

    @pytest.mark.parametrize("extra, f_even, expected",
                             [({}, None, 2), ({}, 0.0, 2), ({}, -0.0, 257),
                              (HARMONIC_SCAN, None, 257)],
                             ids=["free", "free-zero-file", "free-signed-zero-file",
                                  "harmonic-scan"])
    def test_recursion_columns(self, tmp_path, tile_columns, extra, f_even, expected):
        # the hierarchy recursion runs on two copies of sample 0 where every
        # sample's input is sample 0's, and on every sample otherwise: an F_2''
        # file of +0 with a -0 at sample 40 keeps the grid whole
        doc = base_config(tmp_path / "out", **extra)
        if f_even is not None:
            f2 = np.zeros(257)
            f2[40] = f_even
            text = "".join(f"{v!r}\n" for v in f2.tolist())
            (tmp_path / "f2.csv").write_text("f2_dd\n" + text)
            doc["hierarchy"]["f_even_files"] = ["f2.csv"]
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 0
        assert sum(tile_columns) == expected

    @pytest.mark.parametrize("ics", [None, [0.9, 0.4, 0.1, 1.2]], ids=["default", "given"])
    def test_scan_solves_keep_the_configured_ics(self, tmp_path, pair_solves, ics):
        doc = base_config(tmp_path / "out", **HARMONIC)
        if ics:
            doc["solver"] = {"ics": ics}
        main(["uncertainty", "--config", write_config(tmp_path, doc)])
        scan = HARMONIC["uncertainty"]["hbar_scan"]
        assert sorted({key[3].hbar for key in pair_solves}) == sorted(scan)
        for name, _, _, constants, grid, solved_from in pair_solves:
            assert name == "solve_pair"
            # without solver.ics each hbar seeds from its own ground-state data
            expected = ics or default_ics(Potential("harmonic"), constants, grid.x_min)
            assert solved_from == tuple(expected)

    def test_forced_failure_exits_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        code = main(["all", "--config", cfg, "--tol", "qshje_potential=1e-30"])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert "qshje_potential" in report["summary"]["failing_checks"]

    def test_report_subcommand_writes_only_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["report", "--config", cfg]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_solve_subset(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 0
        header = (out / "fields.csv").read_text().splitlines()[0]
        assert header == "x,potential,psi,psi_dual"

    def test_hierarchy_subcommand(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, potential={"kind": "linear", "slope": 1.0}, energy=2.0,
                          grid={"x_min": -2.0, "x_max": 1.5, "n": 257})
        doc["hierarchy"] = {"order": 4, "epsilon": 0.1, "x_ref": 0.0}
        del doc["uncertainty"]  # its window [1, 5] is off this grid, a config error
        cfg = write_config(tmp_path, doc)
        assert main(["hierarchy", "--config", cfg]) == 0
        header = (out / "hierarchy.csv").read_text().splitlines()[0]
        assert header.startswith("x,re_P0,im_P0,re_S0,im_S0")

    def test_out_dir_override(self, tmp_path):
        doc = base_config(tmp_path / "ignored")
        cfg = write_config(tmp_path, doc)
        override = tmp_path / "elsewhere"
        assert main(["report", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "report.json").exists()

    @pytest.mark.parametrize("potential, energy, grid", [
        ({"kind": "harmonic", "stiffness": 1.0}, 1.0,
         {"x_min": -0.5, "x_max": 0.5, "n": 257}),
        ({"kind": "linear", "slope": 1.0}, 2.0,
         {"x_min": -4.0, "x_max": 1.5, "n": 1025}),
    ])
    def test_other_builtin_scenarios_pass(self, tmp_path, potential, energy, grid):
        out = tmp_path / "out"
        doc = base_config(out, potential=potential, energy=energy, grid=grid)
        del doc["uncertainty"]  # scan windows are scenario-specific
        doc["hierarchy"] = {"order": 4, "epsilon": 0.1, "x_ref": 0.0}
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 0

    def test_report_forms_no_antiderivative_of_the_expansion(self, tmp_path, monkeypatch):
        # the S_j are formed where they are read: hierarchy.csv, not report
        from qhjlab import hierarchy
        anchors = []

        def counted(f, x_ref, _original=hierarchy.antiderivative):
            anchors.append(x_ref)
            return _original(f, x_ref)

        monkeypatch.setattr(hierarchy, "antiderivative", counted)
        doc = base_config(tmp_path / "out", potential={"kind": "linear", "slope": 1.0},
                          energy=2.0, grid={"x_min": -4.0, "x_max": 1.5, "n": 1025})
        del doc["uncertainty"]
        doc["hierarchy"] = {"order": 4, "epsilon": 0.1, "x_ref": 0.0}
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", cfg]) == 0
        assert anchors == []
        assert main(["hierarchy", "--config", cfg]) == 0
        assert anchors == [0.0] * 5

    def test_harmonic_uncertainty_scan(self, tmp_path):
        # auto method must fall back to the numeric family (the closed form
        # covers the ground level only, which the E +/- dE re-solves leave)
        out = tmp_path / "out"
        doc = base_config(out, **HARMONIC)
        del doc["hierarchy"]
        assert main(["uncertainty", "--config", write_config(tmp_path, doc)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["uncertainty_pq_slope"]["status"] == "pass"
        assert report["checks"]["uncertainty_et_slope"]["status"] == "pass"

    def test_hierarchy_correction_file(self, tmp_path):
        # sampled corrections come in as one-column CSVs next to the config
        n = 257
        out = tmp_path / "out"
        doc = base_config(out, potential={"kind": "linear", "slope": 1.0}, energy=2.0,
                          grid={"x_min": -2.0, "x_max": 1.5, "n": n})
        doc["hierarchy"] = {"order": 2, "epsilon": 0.1, "x_ref": 0.0,
                            "f_even_files": ["f2.csv"]}
        del doc["uncertainty"]
        x = np.linspace(-2.0, 1.5, n)
        (tmp_path / "f2.csv").write_text(
            "f2_dd\n" + "\n".join(f"{v:.17g}" for v in 0.1 * np.cos(x)) + "\n")
        assert main(["hierarchy", "--config", write_config(tmp_path, doc)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["hierarchy_parity"]["status"] == "pass"
        # the Schwarzian form of P_2 only applies without a first correction
        assert "hierarchy_p2_schwarzian" not in report["checks"]

    def test_hierarchy_correction_file_length_checked(self, tmp_path):
        doc = base_config(tmp_path / "out", potential={"kind": "linear"}, energy=2.0,
                          grid={"x_min": -2.0, "x_max": 1.5, "n": 257})
        doc["hierarchy"] = {"order": 2, "epsilon": 0.1, "x_ref": 0.0,
                            "f_even_files": ["short.csv"]}
        del doc["uncertainty"]
        (tmp_path / "short.csv").write_text("f2_dd\n0.0\n0.1\n")
        assert main(["hierarchy", "--config", write_config(tmp_path, doc)]) == 1

    def test_turning_point_rejected_cleanly(self, tmp_path):
        doc = base_config(tmp_path / "out",
                          potential={"kind": "harmonic", "stiffness": 1.0},
                          energy=1.0,
                          grid={"x_min": -3.0, "x_max": 3.0, "n": 257})
        del doc["uncertainty"]
        code = main(["hierarchy", "--config", write_config(tmp_path, doc)])
        assert code == 1

    def test_overflowed_pair_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config(out, constants={"hbar": 0.01, "mass": 0.5},
                          potential={"kind": "linear", "slope": 1.0}, energy=-50.0,
                          grid={"x_min": 0.0, "x_max": 20.0, "n": 4097},
                          solver={"method": "numeric"})
        del doc["uncertainty"], doc["hierarchy"]
        with np.errstate(all="ignore"):
            code = main(["solve", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: Schrodinger residual is NaN: the pair has non-finite samples\n"
        assert not out.exists()

    def test_overflowed_pair_prints_one_error_line(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "out"
        doc = base_config(out, constants={"hbar": 0.01, "mass": 0.5},
                          potential={"kind": "linear", "slope": 1.0}, energy=-50.0,
                          grid={"x_min": 0.0, "x_max": 20.0, "n": 4097},
                          solver={"method": "numeric"})
        del doc["uncertainty"], doc["hierarchy"]
        cfg = write_config(tmp_path, doc)
        proc = subprocess.run([sys.executable, "-m", "qhjlab.cli", "solve", "--config", cfg],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: Schrodinger residual is NaN: the pair has non-finite samples\n"

    def test_trajectory_table_written(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["microstate"]["t_samples"] = [-2.0, -1.5, -1.0]
        assert main(["microstate", "--config", write_config(tmp_path, doc)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,q,q_dot_from_energy,q_dot_from_mass,p,m_q"
        assert len(lines) == 4


class TestGoldenSchema:
    def test_fields_header_stable(self, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--config", write_config(tmp_path, base_config(out))]) == 0
        header = (out / "fields.csv").read_text().splitlines()[0]
        assert header == FIELDS_HEADER

    def test_report_keys_stable(self, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--config", write_config(tmp_path, base_config(out))]) == 0
        report = json.loads((out / "report.json").read_text())
        assert sorted(report.keys()) == REPORT_TOP_KEYS
        assert report["schema_version"] == SCHEMA_VERSION
        sample = next(iter(report["checks"].values()))
        assert sorted(sample.keys()) == ["artifacts", "max_residual", "status", "tolerance"]

    def test_side_table_headers_stable(self, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--config", write_config(tmp_path, base_config(out))]) == 0
        unc = (out / "uncertainty.csv").read_text().splitlines()[0]
        assert unc == "x,abs_p,delta_q_pointwise,time_weight"
        hier = (out / "hierarchy.csv").read_text().splitlines()[0]
        assert hier.startswith("x,re_P0,im_P0,re_S0,im_S0")

    def test_csv_values_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--config", write_config(tmp_path, base_config(out))]) == 0
        lines = (out / "fields.csv").read_text().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        # 17 significant digits survive the text round trip exactly
        assert float(first["S0"]) == np.pi / 2
        assert float(first["p"]) == -1.0

    def test_plots_script_emitted_on_demand(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["outputs"]["plots"] = True
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 0
        assert "gnuplot" in (out / "plots.gp").read_text()


def per_cell_csv(columns):
    """The former per-cell ``write_csv`` body, kept as the reference text."""
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
        lines.append(",".join(f"{float(a[i]):.17g}" for a in arrays))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, np.finfo(float).max,
               -np.finfo(float).max, 0.1, 1.0 / 3.0, -2.5, 1e22]


# rows per block of TestWriteCsv.columns, which has thirteen varying columns,
# as fields.csv has, once it spans more than one block ("late" and "wide"
# change at the first boundary)
BLOCK_ROWS = CSV_BLOCK_CELLS // 13


class TestWriteCsv:
    @staticmethod
    def columns(rows):
        def cycle(offset):
            return [EDGE_VALUES[(i + offset) % len(EDGE_VALUES)] for i in range(rows)]
        z = np.array(cycle(0), dtype=complex)
        z.imag = cycle(5)
        imaginary = np.zeros(rows, dtype=complex)  # a structural zero, as in hierarchy.csv
        imaginary.imag = np.linspace(0.0, 2.0, rows)
        return [("x", np.linspace(-1.0, 1.0, rows)),
                ("z", z),
                ("t", cycle(3)),  # a list of Python floats, as for trajectory.csv
                ("flag", np.arange(rows) % 3 == 0),
                ("k", np.arange(rows) - rows // 2),
                ("signed_zero", np.where(np.arange(rows) % 2 == 0, 0.0, -0.0)),  # must not fold
                ("late", np.where(np.arange(rows) < BLOCK_ROWS, 0.5, 0.25)),
                # a later block needs a sign, 17 integer digits and an exponent
                ("wide", np.where(np.arange(rows) < BLOCK_ROWS, 0.5,
                                  np.where(np.arange(rows) % 2, -1.2345678901234567e+100,
                                           -12345678901234568.0))),
                ("i", imaginary),
                ("u", np.array([complex(a, b) for a, b in zip(cycle(7), cycle(9))])),
                ("tiny", np.geomspace(1e-300, 1e300, rows))] + TestWriteCsv.constant_columns(rows)

    @staticmethod
    def constant_columns(rows):
        return [(name, np.full(rows, value)) for name, value in (
            ("zero", 0.0), ("negative_zero", -0.0), ("nan", math.nan), ("inf", math.inf),
            ("tenth", 0.1), ("off", False))]

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                      BLOCK_ROWS + 1, 2 * BLOCK_ROWS - 1,
                                      2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1,
                                      4 * BLOCK_ROWS + 1])
    def test_bytes_equal_the_per_cell_loop(self, tmp_path, rows):
        # the second table has no varying column
        for columns in (self.columns(rows), self.constant_columns(rows)):
            write_csv(str(tmp_path / "t.csv"), columns)
            expected = per_cell_csv(columns).encode("utf-8")
            assert (tmp_path / "t.csv").read_bytes() == expected
            assert expected.count(b"\n") == rows + 1

    def test_error_between_blocks_keeps_the_old_file(self, tmp_path, monkeypatch):
        # blocks stream into a temporary file that replaces the CSV only at the end
        from qhjlab import cli
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")
        formatted = []

        def fail_second(block, pieces):
            if formatted:
                raise RuntimeError("disk full")
            formatted.append(len(block))
            return real_block(block, pieces)

        real_block = cli._csv_block
        monkeypatch.setattr(cli, "_csv_block", fail_second)
        with pytest.raises(RuntimeError, match="disk full"):
            # one varying column: CSV_BLOCK_CELLS rows per block
            write_csv(str(path), [("x", np.arange(2 * CSV_BLOCK_CELLS, dtype=float))])
        assert formatted == [CSV_BLOCK_CELLS]
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize("length", [4, 6])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_unequal_lengths_rejected(self, tmp_path, length, dtype):
        columns = [("x", np.zeros(5)), ("bad", np.zeros(length, dtype=dtype))]
        with pytest.raises(ValueError, match=rf"column 'bad' has {length} rows, expected 5"):
            write_csv(str(tmp_path / "t.csv"), columns)
        assert not (tmp_path / "t.csv").exists()


def cell_texts(values):
    """What ``_cell_words`` writes for each value, NUL bytes dropped."""
    words = _cell_words(np.asarray(values, dtype=np.float64))[0]
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in words]


def percent_g(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def powers_of_ten():
    """10**k as parsed, and its neighbours one ulp away, for every k a float reaches."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def half_ties():
    """m / 4 with odd m in [4e15, 9e15]: exact ties at the 18th digit, both signs."""
    m = np.arange(4 * 10 ** 15 + 1, 9 * 10 ** 15, 2 * 10 ** 12 + 2, dtype=np.int64)
    ties = np.concatenate([[4000000000000001], m, [8999999999999999]]) / 4.0
    return np.concatenate([ties, -ties])


def carries():
    """Values whose 17 digits round up to the next power of ten, and near misses."""
    return np.array([float(f"{sign}9.9999999999999999e{k}") for sign in "+-"
                     for k in range(-300, 301, 7)]
                    + [float(f"9.99999999999999{d}e{k}") for d in range(80, 100, 3)
                       for k in (-5, -4, 15, 16, 17)])


EDGE_LISTS = {
    "powers_of_ten": powers_of_ten(),
    "half_ties": half_ties(),
    "carries": carries(),
    "dyadic_grid": np.linspace(-0.5, 0.5, 4097),
    "largest": np.array([np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny,
                         1e270, 1e-270, np.nextafter(1e270, np.inf),
                         np.nextafter(1e-270, 0.0), 1e16, 1e17, 123456789012345678.0,
                         9.999999999999998e16, 0.00012345678901234567, 1.2345678901234567e-5]),
}


def undecidable(v: float) -> bool:
    """True where the kernel may leave a value to Python's formatter: not a
    float in [1e-270, 1e270], or its 18th digit within 1e-9 of a tie, or it lies
    within 1e-9 units of the 17th digit of a power of ten, where a product
    rounded either way may put the decimal exponent on either side."""
    a = abs(v)
    if not 1e-270 <= a <= 1e270:
        return True
    exact = Fraction(a)
    x = 0
    while exact >= Fraction(10) ** (x + 1):
        x += 1
    while exact < Fraction(10) ** x:
        x -= 1
    scaled = exact * Fraction(10) ** (16 - x)  # in [10**16, 10**17)
    near = Fraction(1, 10 ** 9)
    return (abs(scaled - int(scaled) - Fraction(1, 2)) < near
            or scaled - 10 ** 16 < near or 10 ** 17 - scaled < near)


class TestCellKernel:
    """``_cell_words`` writes the bytes of ``"%.17g" % v`` and leaves to
    Python only the values it cannot decide."""

    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.int64).view(np.float64)
        assert cell_texts(values) == percent_g(values)
        undecided = set(_cell_words(values)[1].tolist())
        assert all(undecidable(v) for v in values[sorted(undecided)].tolist())

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_float(self, values):
        assert cell_texts(values) == percent_g(values)

    @pytest.mark.parametrize("name", sorted(EDGE_LISTS))
    def test_edge_values(self, name):
        values = EDGE_LISTS[name]
        assert cell_texts(values) == percent_g(values)

    @pytest.mark.parametrize("name", sorted(EDGE_LISTS))
    def test_only_undecidable_values_fall_back(self, name):
        values = EDGE_LISTS[name]
        undecided = _cell_words(values)[1]
        assert all(undecidable(v) for v in values[undecided].tolist())

    def test_ties_are_left_to_python(self):
        # %.17g rounds an exact tie half to even: 1000000000000000.25 -> ...0.2
        ties = half_ties()
        assert set(_cell_words(ties)[1].tolist()) == set(range(len(ties)))
        assert cell_texts([4000000000000001 / 4])[0] == "1000000000000000.2"

    def test_signed_zeros_are_written_in_numpy(self):
        values = np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.5e-300, 0.0])
        assert cell_texts(values) == percent_g(values)
        assert _cell_words(values)[1].tolist() == [5]

    def test_power_table_within_1e_31(self):
        # hi + lo stands for 10**(16 - X); _scaled's 1e-14 bound rests on it
        tables = _cell_tables()
        for i, x in enumerate(range(_X_MIN, _X_MAX + 1)):
            exact = Fraction(10) ** (16 - x)
            table = Fraction(float(tables["hi"][i])) + Fraction(float(tables["lo"][i]))
            assert abs(table - exact) <= Fraction(1, 10 ** 31) * exact, x

    def test_carry_to_the_next_power(self):
        values = EDGE_LISTS["powers_of_ten"]
        carried = [v for v, text in zip(values.tolist(), percent_g(values))
                   if text.startswith("1e") and Fraction(v) < Fraction(text)]
        assert carried  # some floats below 10**k print as 1e+k
        assert cell_texts(carried) == percent_g(carried)


@pytest.mark.xfail(strict=True, reason="no resolution guard before the hbar scan (ROADMAP D5)")
def test_under_resolved_scan_refused_before_any_write(tmp_path, capsys):
    out = tmp_path / "out"
    doc = base_config(out, potential={"kind": "linear", "slope": 1.0}, energy=2.0,
                      grid={"x_min": -4.0, "x_max": 1.5, "n": 1025},
                      solver={"method": "numeric"})
    doc["uncertainty"]["window"] = [-3.5, -0.5]
    doc["hierarchy"]["x_ref"] = 0.0
    assert main(["all", "--config", write_config(tmp_path, doc)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "out"
    doc = base_config(out)
    del doc["uncertainty"], doc["hierarchy"]
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run([sys.executable, "-m", "qhjlab.cli", "solve", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "schrodinger_residual" in proc.stdout


# The bounds of every reported check on an analytic and on a numeric pair.
BOUNDS = {"qshje_potential": 1e-6, "qshje_schwarzian": 1e-6, "qshje_w_mismatch": 1e-6,
          "momentum_cross_check": 1e-8, "uncertainty_pq_slope": 0.05,
          "uncertainty_et_slope": 0.05, "duality_im_f": 0.0, "legendre": 1e-6,
          "akq_matches_direct": 1e-12, "hierarchy_parity": 1e-12,
          "hierarchy_p1_identity": 1e-10, "hierarchy_per_order": 1e-9,
          "hierarchy_p2_schwarzian": 1e-5}
METHOD_BOUNDS = {"analytic": {"schrodinger_residual": 1e-8, "wronskian_drift": 1e-9,
                              "dual_derivative": 1e-10, "modulus_momentum": 1e-8,
                              "gd_psi_psibar": 1e-6, "gd_psi_sq": 1e-6, "gd_psibar_sq": 1e-6},
                 "numeric": {"schrodinger_residual": 1e-5, "wronskian_drift": 1e-6,
                             "dual_derivative": 1e-5, "modulus_momentum": 1e-5,
                             "gd_psi_psibar": 1e-4, "gd_psi_sq": 1e-4, "gd_psibar_sq": 1e-4}}


@pytest.mark.parametrize("method, extra", [
    ("analytic", {}), ("numeric", dict(HARMONIC, solver={"method": "numeric"}))],
    ids=["free", "harmonic-numeric"])
def test_report_tolerances_are_the_checks_bounds(tmp_path, method, extra):
    out = tmp_path / "out"
    assert main(["all", "--config", write_config(tmp_path, base_config(out, **extra))]) == 0
    report = json.loads((out / "report.json").read_text())
    tolerances = {name: check["tolerance"] for name, check in report["checks"].items()}
    assert tolerances == dict(BOUNDS, **METHOD_BOUNDS[method])


def test_gd_residual_sets_every_gd_tolerance(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["duality", "--config", cfg, "--tol", "gd_residual=1e-30"]) == 2
    checks = json.loads((out / "report.json").read_text())["checks"]
    for name in ("gd_psi_psibar", "gd_psi_sq", "gd_psibar_sq"):
        assert (checks[name]["tolerance"], checks[name]["status"]) == (1e-30, "fail")


def test_every_override_key_names_a_reported_check(tmp_path):
    out = tmp_path / "out"
    assert main(["all", "--config", write_config(tmp_path, base_config(out))]) == 0
    reported = set(json.loads((out / "report.json").read_text())["checks"])
    assert TOLERANCE_KEYS - {"gd_residual"} <= reported
    # the checks that gd_residual sets, and duality_im_f, which has no key
    assert reported - TOLERANCE_KEYS == {"gd_psi_psibar", "gd_psi_sq", "gd_psibar_sq",
                                         "duality_im_f"}
