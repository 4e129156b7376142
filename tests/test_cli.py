"""Config round-trips, output rendering, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xpmsim
from xpmsim import ParameterError, compute_C1, compute_C2
from xpmsim.cli.config import (
    RunConfig,
    config_hash,
    emit_config,
    parse_config,
)
from xpmsim.cli.main import main
from xpmsim.cli.output import emit, render_csv, render_json, render_svg
from xpmsim.cli.sweeps import run_fig1, run_fig2, run_fig3, run_task
from xpmsim.cli.validate import CriterionResult, OracleStore, ValidationReport
from xpmsim.errors import ConfigError
from xpmsim.results import Axis, SweepResult


# --------------------------------------------------------------- config

def test_config_round_trip_defaults():
    cfg = RunConfig(task="fig2")
    assert parse_config(emit_config(cfg)) == cfg


def test_config_round_trip_overrides():
    cfg = RunConfig(task="fig4", k0_values=(0.5, 2.5), phi_min=0.1, phi_max=2.0,
                    phi_n=11, headon_phis=(0.7853981633974483, math.pi),
                    profile_shape="square", profile_width=1.5, threads=2,
                    output_path="out.csv", output_format="json", tol_scale=3.0)
    assert parse_config(emit_config(cfg)) == cfg


def test_config_parser_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("task = fig1\nwibble = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("task = fig1\ntask = fig2\n")
    with pytest.raises(ConfigError):
        parse_config("task = fig1\nphi.min = abc\n")
    with pytest.raises(ConfigError):
        parse_config("task = fig9\n")
    with pytest.raises(ConfigError):
        parse_config("task fig1\n")  # missing separator
    # comments and blank lines are fine
    cfg = parse_config("# a comment\n\ntask = coeffs\nk0.list = 1.0, 2.5\n")
    assert cfg.task == "coeffs" and cfg.k0_values == (1.0, 2.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(task="dance")
    with pytest.raises(ConfigError):
        RunConfig(task="fig2", output_format="xml")
    with pytest.raises(ConfigError):
        RunConfig(task="fig3", lattice_k0_n=1)
    with pytest.raises(ConfigError):
        RunConfig(task="fig4", headon_v1=1.0, headon_v2=1.0)
    with pytest.raises(ConfigError):
        RunConfig(task="fig2", tol_scale=0.0)


def test_config_hash_is_stable_and_sensitive():
    a = RunConfig(task="fig1")
    b = RunConfig(task="fig1")
    c = RunConfig(task="fig1", phi_n=100)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12
    int(config_hash(a), 16)  # hex digest prefix


# -------------------------------------------------------------- output

def small_fig1_result():
    return SweepResult(
        kind="fig1",
        axes=(Axis("C1", "dimensionless", (0.2, 0.98)),
              Axis("Phi", "rad", (0.0, 1.0, 2.0))),
        columns={"theta": (0.0, 0.1234567891234, 0.25, 0.0, 1.0, 2.0)},
        provenance={"task": "fig1", "config_hash": "abc"},
        warnings=("watch out",),
    )


def test_csv_pivot_layout():
    text = render_csv(small_fig1_result())
    lines = text.splitlines()
    assert lines[0] == "Phi,theta[C1=0.2],theta[C1=0.98]"
    assert lines[1] == "0,0,0"
    # nine significant digits
    assert lines[2].split(",")[1] == "0.123456789"
    assert "# provenance:" in lines
    assert "#   task = fig1" in lines
    assert "#   warning: watch out" in lines


def test_csv_long_layout_for_single_axis():
    result = SweepResult(kind="coeffs", axes=(Axis("k0", "dimensionless", (1.0, 2.0)),),
                         columns={"C1": (0.9, 0.6), "C2": (1.2, 0.7)},
                         provenance={"task": "coeffs"})
    lines = render_csv(result).splitlines()
    assert lines[0] == "k0,C1,C2"
    assert lines[1] == "1,0.9,1.2"


def test_json_mirrors_to_dict():
    result = small_fig1_result()
    assert json.loads(render_json(result)) == result.to_dict()


def test_svg_is_self_contained():
    line = render_svg(small_fig1_result())
    assert line.startswith("<svg ") and line.rstrip().endswith("</svg>")
    assert "xmlns=\"http://www.w3.org/2000/svg\"" in line
    # no references beyond the namespace: nothing fetched, nothing scripted
    assert line.count("http") == 1
    assert "<script" not in line
    heat = render_svg(SweepResult(
        kind="fig3",
        axes=(Axis("k0", "dimensionless", (1.0, 2.0, 3.0)),
              Axis("Phi", "rad", (0.0, 1.0))),
        columns={"F": (1.0, 0.8, 0.6, 0.4, 0.5, 0.2)}))
    assert heat.count("<rect") >= 6  # one cell per lattice point plus colorbar


def test_emit_writes_files_and_rejects_unknown_format(tmp_path):
    result = small_fig1_result()
    path = tmp_path / "r.csv"
    emit(result, "csv", str(path))
    assert path.read_text(encoding="utf-8") == render_csv(result)
    with pytest.raises(ParameterError, match="format"):
        emit(result, "png", str(tmp_path / "r.png"))


def test_rendering_is_deterministic():
    cfg = RunConfig(task="fig1", c1_values=(0.2, 0.7), phi_n=40)
    first = run_task(cfg)
    second = run_task(cfg)
    for render in (render_csv, render_json, render_svg):
        assert render(first) == render(second)


# -------------------------------------------------------------- sweeps

def test_coeffs_provenance_and_values():
    cfg = RunConfig(task="coeffs", k0_values=(2.5,), threads=1)
    result = run_task(cfg)
    from xpmsim import make_profile
    g = make_profile("gaussian")
    assert result.columns["C1"][0] == pytest.approx(compute_C1(g, g, 2.5), abs=1e-12)
    assert result.columns["C2"][0] == pytest.approx(compute_C2(g, g, 2.5), abs=1e-12)
    assert 2.4 < result.provenance["transition_k0"] < 2.6
    assert result.provenance["task"] == "coeffs"


def test_fig1_boundary_row_is_the_line():
    cfg = RunConfig(task="fig1", c1_values=(0.5,), phi_n=9, phi_max=2.0 * math.pi)
    result = run_fig1(cfg)
    phis = np.asarray(result.axis("Phi").values)
    theta = np.asarray(result.columns["theta"])
    assert np.max(np.abs(theta - 0.5 * phis)) < 1e-12
    assert any("boundary line" in w for w in result.warnings)


def test_fig3_point_equals_fig2_point():
    # shared lattice points agree exactly: same coefficients, same closed form
    common = dict(phi_min=0.0, phi_max=math.pi, threads=2)
    cfg2 = RunConfig(task="fig2", k0_values=(2.5, 5.0), phi_n=5, **common)
    cfg3 = RunConfig(task="fig3", lattice_k0_min=2.5, lattice_k0_max=5.0,
                     lattice_k0_n=2, lattice_phi_n=5, **common)
    f2 = run_fig2(cfg2)
    f3 = run_fig3(cfg3)
    assert f2.axis("Phi").values == f3.axis("Phi").values
    assert f2.columns["F"] == f3.columns["F"]


def test_fig4_curves_and_gauge(tmp_path):
    cfg = RunConfig(task="fig4", headon_phis=(math.pi / 4.0, math.pi),
                    headon_time_n=5, threads=1)
    result = run_task(cfg)
    assert result.axis("phi").values == (math.pi / 4.0, math.pi)
    assert len(result.axis("t").values) == 5
    f = np.asarray(result.columns["F"]).reshape(2, 5)
    assert f[:, 0] == pytest.approx(1.0, abs=1e-12)
    assert f[1, -1] < f[0, -1]  # stronger phase, lower fidelity
    gauge = np.asarray(result.columns["gauge"]).reshape(2, 5)
    assert np.array_equal(gauge[0], gauge[1])  # geometry only, shared by curves
    assert f"f_final[phi={math.pi:.6g}]" in result.provenance


# ---------------------------------------------------------- entry point

def run_main(argv):
    return main(argv)


def test_main_writes_default_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_main(["fig1", "--phi", "0:6.2832:24"])
    assert code == 0
    assert (tmp_path / "fig1.csv").exists()
    assert capsys.readouterr().out == "wrote fig1.csv\n"


def test_main_flags_override_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("task = fig2\nk0.list = 1.0\nphi.n = 3\n", encoding="utf-8")
    out = tmp_path / "custom.json"
    code = run_main(["fig2", "--config", str(cfg_file), "--k0", "2.5",
                     "--format", "json", "--out", str(out), "--threads", "1"])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["axes"][0]["values"] == [2.5]  # flag beat the config file
    assert len(data["axes"][1]["values"]) == 3


def test_main_phi_comma_list_selects_collision_curves(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("task = fig4\nheadon.time_n = 3\nthreads = 1\n",
                        encoding="utf-8")
    out = tmp_path / "f4.csv"
    code = run_main(["fig4", "--config", str(cfg_file),
                     "--phi", "0.785398,3.141593", "--out", str(out)])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert "F[phi=0.785398]" in header and "F[phi=3.14159]" in header


def test_main_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("task = fig1\nwibble = 1\n", encoding="utf-8")
    assert run_main(["fig1", "--config", str(bad)]) == 2
    assert run_main(["fig1", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert run_main(["fig2", "--phi", "1:2"]) == 2
    assert run_main(["fig2", "--k0", "one,two"]) == 2


def test_main_convergence_failure_exits_3(tmp_path):
    # four phi samples cannot track the winding theta branch at C1 near 1;
    # the sweep guard turns that into a convergence failure
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("task = fig1\nc1.list = 0.98\n", encoding="utf-8")
    code = run_main(["fig1", "--config", str(cfg_file),
                     "--phi", "0:6.2831853:4", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_cli_import_leaves_scipy_unloaded():
    # SciPy costs most of a CLI start-up; only `validate` and the tests use it
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpmsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, xpmsim, xpmsim.cli.main; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_main_validate_exit_reflects_report(tmp_path, monkeypatch):
    import xpmsim.cli.main as entry

    def fake_validate(config):
        results = (CriterionResult(1, "stub", False, "nope", 0.0),)
        return ValidationReport(results=results, text="stub\n")

    monkeypatch.setattr(entry, "run_validate", fake_validate)
    out = tmp_path / "report.txt"
    assert run_main(["validate", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "stub\n"

    def ok_validate(config):
        results = (CriterionResult(1, "stub", True, "yep", 0.0),)
        return ValidationReport(results=results, text="ok\n")

    monkeypatch.setattr(entry, "run_validate", ok_validate)
    assert run_main(["validate"]) == 0


# --------------------------------------------------------- oracle store

def test_oracle_store_caches_to_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("XPMSIM_ORACLE_DIR", str(tmp_path / "oracles"))
    calls = []

    def compute():
        calls.append(1)
        return 41.5

    store = OracleStore()
    assert store.get("answer", compute) == 41.5
    path = tmp_path / "oracles" / "oracles.json"
    assert json.loads(path.read_text(encoding="utf-8")) == {"answer": 41.5}
    # a fresh store reads the file instead of recomputing
    fresh = OracleStore()
    assert fresh.get("answer", lambda: 1 / 0) == 41.5
    assert calls == [1]


def test_oracle_store_degrades_without_writable_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    monkeypatch.setenv("XPMSIM_ORACLE_DIR", str(blocker / "nested"))
    store = OracleStore()
    assert store.get("x", lambda: 7.0) == 7.0  # memory-only fallback
    assert store.get("x", lambda: 1 / 0) == 7.0
