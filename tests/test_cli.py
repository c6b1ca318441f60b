"""Config validation, pipeline wiring, file formats and determinism."""

import json
import math

import numpy as np
import pytest

from qhjlab.cli import DEFAULT_TOLERANCES, SCHEMA_VERSION, load_config, main
from qhjlab.errors import ConfigError

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

    def test_unknown_tolerance_key(self, tmp_path):
        doc = base_config(tmp_path / "out")
        code = main(["all", "--config", write_config(tmp_path, doc),
                     "--tol", "nonsense=1"])
        assert code == 1

    @pytest.mark.parametrize("section, key, value", [
        ("constants", "hbar", -1),
        ("constants", "mass", 0),
        ("constants", "hbar", "x"),
        ("microstate", "ell2", "x"),
        ("microstate", "t_samples", "x"),
        ("hierarchy", "x_ref", "x"),
        ("uncertainty", "hbar_scan", [1, "a"]),
        (None, "constants", []),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        out = tmp_path / "out"
        doc = base_config(out)
        (doc if section is None else doc[section])[key] = value
        code = main(["all", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_config_tolerance_map(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["tolerances"] = {"qshje_potential": 1e-30}
        code = main(["microstate", "--config", write_config(tmp_path, doc)])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["qshje_potential"]["tolerance"] == 1e-30


class TestRun:
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

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        monkeypatch.delenv("QHJLAB_THREADS", raising=False)
        assert main(["all", "--config", cfg]) == 0
        serial = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setenv("QHJLAB_THREADS", "4")
        assert main(["all", "--config", cfg]) == 0
        threaded = {p.name: p.read_bytes() for p in out.iterdir()}
        assert serial == threaded

    @pytest.mark.parametrize("extra", [{}, HARMONIC], ids=["free", "harmonic"])
    def test_all_solves_each_pair_once(self, tmp_path, pair_solves, extra):
        out = tmp_path / "out"
        doc = base_config(out, **extra)
        assert main(["all", "--config", write_config(tmp_path, doc)]) == 0
        # the pair at E and E +/- dE, then three solves at each of the four
        # scan hbar values that differ from the configured one
        assert len(pair_solves) == 15
        assert len(set(pair_solves)) == 15

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


def test_default_tolerances_cover_known_checks():
    assert set(DEFAULT_TOLERANCES) >= {
        "schrodinger_residual", "wronskian_drift", "qshje_potential",
        "gd_residual", "hierarchy_parity", "uncertainty_pq_slope"}
