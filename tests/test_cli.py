"""Command-line interface: outputs, manifests, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest depends on tomli
    import tomli as tomllib

import numpy as np
import pytest

import fluxnet.simulate
from fluxnet.cli import main

from conftest import random_network_doc, three_dimers_doc, uncoupled_dimers_doc

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "fluxnet" / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_section(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def footer(text):
    return {line[2:].split("=", 1)[0]: line[2:].split("=", 1)[1]
            for line in text.splitlines()
            if line.startswith("# ") and "=" in line}


class TestValidate:
    def test_equilibrium_report(self, capsys):
        code, out, _ = run_cli(
            ["validate", str(CONFIGS / "lozenge_eq.json")], capsys)
        assert code == 0
        assert "controllability (C): OK" in out
        assert "dim lineality space: 1" in out
        assert "equilibrium: yes" in out
        ep = float(out.split("entropy production rate: ")[1].splitlines()[0])
        assert abs(ep) < 1e-9

    def test_heatpump_nonequilibrium(self, capsys):
        code, out, _ = run_cli(
            ["validate", str(CONFIGS / "heatpump_10_3.6_7_6.8.json")], capsys)
        assert code == 0
        assert "equilibrium: no" in out
        ep = float(out.split("entropy production rate: ")[1].splitlines()[0])
        assert ep > 0.0

    def test_three_dimers_report_dim_L_3(self, tmp_path, capsys):
        # each uncoupled dimer conserves its own energy
        path = tmp_path / "three_dimers.json"
        path.write_text(json.dumps(three_dimers_doc()))
        code, out, _ = run_cli(["validate", str(path)], capsys)
        assert code == 0
        assert "dim lineality space: 3" in out

    def test_json_flag_rejected(self, capsys):
        # the report is plain text; there is no JSON form to mirror it
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(CONFIGS / "lozenge_1_2_4.json"), "--json"])
        assert exc.value.code == 2
        assert "--json" in capsys.readouterr().err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(["validate", str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["validate", "/does/not/exist.json"], capsys)
        assert code == 2

    def test_uncontrollable_exit_1(self, tmp_path, capsys):
        doc = {
            "oscillators": ["a", "b"],
            "kappa_sq": [[1.0, 0.0], [0.0, 2.0]],
            "boundary": [{"id": "a", "gamma": 1.0, "theta": 1.0}],
        }
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["validate", str(path)], capsys)
        assert code == 1
        assert "FAILED" in out


class TestGapScan:
    def test_csv_structure_and_footer(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            ["gap-scan", str(CONFIGS / "lozenge_eq.json"), "--dirs", "8",
             "--out", str(out_file)], capsys)
        assert code == 0
        text = out_file.read_text()
        rows = data_section(text)
        header = rows[0].split(",")
        assert header[:2] == ["dir_index", "angle"]
        assert "Lambda_plus" in header and "gap" in header
        assert len(rows) == 1 + 8
        foot = footer(text)
        assert foot["condition_R"] == "true"
        assert float(foot["min_gap"]) > 0.0

    def test_strong_drive_verdict(self, tmp_path, capsys):
        out_file = tmp_path / "scan64.csv"
        code, _, _ = run_cli(
            ["gap-scan", str(CONFIGS / "lozenge_1_2_64.json"), "--dirs", "8",
             "--out", str(out_file)], capsys)
        assert code == 0
        assert footer(out_file.read_text())["condition_R"] == "false"

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(
            ["gap-scan", str(CONFIGS / "lozenge_eq.json"), "--dirs", "8",
             "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["command"] == "gap-scan"
        assert len(doc["rows"]) == 8
        assert doc["footer"]["condition_R"] is True


class TestCgf:
    def test_single_tilt_row(self, capsys):
        code, out, _ = run_cli(
            ["cgf", str(CONFIGS / "lozenge_1_2_4.json"),
             "--xi", "0.1,0.05,-0.02"], capsys)
        assert code == 0
        rows = data_section(out)
        header = rows[0].split(",")
        values = dict(zip(header, rows[1].split(",")))
        gi, gs, gr = (float(values[k]) for k in
                      ("g_integral", "g_spectral", "g_riccati"))
        assert abs(gi - gs) < 1e-6 and abs(gs - gr) < 1e-6
        assert values["in_D"] == "true"

    def test_wrong_tilt_size_exit_2(self, capsys):
        code, _, err = run_cli(
            ["cgf", str(CONFIGS / "lozenge_1_2_4.json"), "--xi", "0.1"],
            capsys)
        assert code == 2

    @pytest.mark.parametrize("seed, draws", [(1, 10), (2, 1)])
    def test_frequency_integral_on_random_network(self, seed, draws, tmp_path,
                                                  capsys):
        # 7 and 11 oscillators: the integrand -log(1 - mu) lost the small mu
        # of these scans to rounding, and the quadrature gave up
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            doc = random_network_doc(rng, n_max=12)
        path = tmp_path / "network.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["cgf", str(path), "--dirs", "4", "--radii", "2"], capsys)
        assert code == 0, err
        header, *rows = data_section(out)
        cols = header.split(",")
        for row in rows:
            values = dict(zip(cols, row.split(",")))
            gi, gs = float(values["g_integral"]), float(values["g_spectral"])
            assert abs(gi - gs) <= 1e-9 * (1.0 + abs(gs))

    def test_radial_scan(self, capsys):
        code, out, _ = run_cli(
            ["cgf", str(CONFIGS / "lozenge_1_2_4.json"),
             "--dirs", "8", "--radii", "2"], capsys)
        assert code == 0
        rows = data_section(out)
        assert len(rows) == 1 + 8 * 2

    def test_dirs_on_three_dimensional_section(self, capsys):
        counts = []
        for dirs in ("2", "4"):
            code, out, _ = run_cli(
                ["cgf", str(CONFIGS / "heatpump_10_3.6_7_6.8.json"),
                 "--dirs", dirs, "--radii", "1"], capsys)
            assert code == 0
            counts.append(len(data_section(out)) - 1)
        assert counts == [2, 4]

    @pytest.mark.parametrize("flags", [
        ["--radii", "0"], ["--radii", "-2"], ["--dirs", "0"]])
    def test_empty_scan_exit_2(self, flags, capsys):
        code, out, err = run_cli(
            ["cgf", str(CONFIGS / "lozenge_1_2_4.json"), *flags], capsys)
        assert code == 2
        assert "at least 1 scan direction and 1 radius" in err
        assert out == ""

    def test_one_direction_one_radius(self, capsys):
        code, out, _ = run_cli(
            ["cgf", str(CONFIGS / "lozenge_1_2_4.json"),
             "--dirs", "1", "--radii", "1"], capsys)
        assert code == 0
        assert len(data_section(out)) == 1 + 1


class TestTolerance:
    @pytest.mark.parametrize("command", [
        "validate", "gap-scan", "rate", "cgf", "simulate"])
    def test_tol_rejected_by_every_subcommand(self, command, capsys):
        # no subcommand bisects a section radius, so none takes a width
        with pytest.raises(SystemExit) as exc:
            main([command, str(CONFIGS / "lozenge_1_2_4.json"), "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestNumericInput:
    @pytest.mark.parametrize("args, message", [
        (["rate", "--extent", "0"], "grid half-width"),
        (["rate", "--extent", "-1"], "grid half-width"),
        (["rate", "--extent", "nan"], "grid half-width"),
        (["rate", "--extent", "inf"], "grid half-width"),
        (["simulate", "--T", "nan"], "horizon must be finite"),
        (["simulate", "--T", "inf"], "horizon must be finite"),
        (["simulate", "--h", "nan"], "step must be finite"),
        (["simulate", "--tilts", "nan,0,0"], "finite components"),
        (["simulate", "--tilts", "0.1,0,0;0,inf,0"], "finite components"),
        (["cgf", "--xi", "nan,0,0"], "finite components"),
        (["cgf", "--xi", "0.1,x,0"], "finite components"),
        (["simulate", "--tilts", "0.1,x,0"], "finite components"),
        (["simulate", "--seed", "-1"], "seed must lie in [0, 2**128)"),
        (["simulate", "--seed", str(2**128)], "seed must lie in [0, 2**128)"),
        (["simulate", "--traj", "1"], "at least two trajectories"),
    ])
    def test_non_finite_or_degenerate_exit_2(self, args, message, capsys):
        code, out, err = run_cli(
            [args[0], str(CONFIGS / "lozenge_1_2_4.json"), *args[1:]], capsys)
        assert code == 2
        assert message in err
        assert out == ""


class TestUnwritableOutput:
    @pytest.mark.parametrize("args", [
        ["validate", "--out"],
        ["cgf", "--xi", "0.1,0.05,-0.02", "--out"],
        ["simulate", "--traj", "20", "--T", "1", "--h", "0.05",
         "--tilts", "0.01,0.0,0.0", "--per-traj"],
    ])
    def test_exit_2(self, tmp_path, args, capsys):
        # as for an unreadable input: a message and exit 2, no traceback
        target = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(
            [args[0], str(CONFIGS / "lozenge_1_2_4.json"), *args[1:],
             str(target)], capsys)
        assert code == 2
        assert f"cannot write {target}" in err


class TestSingleReservoir:
    """Every subcommand answers or exits with a typed error on d = 1."""

    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({
            "oscillators": ["o1"],
            "kappa_sq": [[1.0]],
            "boundary": [{"id": "o1", "gamma": 1.0, "theta": 1.0}],
        }))
        return str(path)

    def test_validate_answers(self, spec, capsys):
        code, out, _ = run_cli(["validate", spec], capsys)
        assert code == 0
        assert "dim lineality space: 1" in out

    def test_single_tilt_answers(self, spec, capsys):
        code, out, _ = run_cli(["cgf", spec, "--xi", "0.3"], capsys)
        assert code == 0
        assert len(data_section(out)) == 2

    @pytest.mark.parametrize("command", [
        ["gap-scan"], ["rate"], ["cgf"],
        ["simulate", "--traj", "16", "--T", "1"]])
    def test_sectionless_commands_exit_2(self, spec, command, capsys):
        code, out, err = run_cli([command[0], spec, *command[1:]], capsys)
        assert code == 2
        assert "flux section is zero-dimensional" in err
        assert out == ""


class TestFourDimers:
    """Four uncoupled dimers: a four-dimensional section.  The rate grid
    reaches the boundary regime, which needs no direction table; the
    section scans have no directions for k >= 4 and exit with a typed
    error naming k."""

    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("four_dimers") / "four_dimers.json"
        path.write_text(json.dumps(uncoupled_dimers_doc(
            (-0.3, -0.2, -0.25, -0.35),
            ((1.0, 2.0), (1.5, 4.0), (1.2, 3.0), (2.0, 2.5)))))
        return str(path)

    @pytest.mark.parametrize("command", [
        ["validate"], ["rate", "--grid", "2"],
        ["simulate", "--traj", "64", "--T", "2"]])
    def test_answers(self, spec, command, capsys):
        code, out, err = run_cli([command[0], spec, *command[1:]], capsys)
        assert code == 0, err
        if command[0] == "rate":
            rows = data_section(out)[1:]
            assert len(rows) == 16
            assert any(row.endswith(",true") for row in rows)

    @pytest.mark.parametrize("command", [["gap-scan"], ["cgf"]])
    def test_section_scans_exit_2(self, spec, command, capsys):
        code, out, err = run_cli([command[0], spec], capsys)
        assert code == 2
        assert "section of dimension at most 3, not 4" in err
        assert out == ""


class TestRate:
    def test_grid_contains_zero_at_mean(self, capsys):
        code, out, _ = run_cli(
            ["rate", str(CONFIGS / "lozenge_1_2_4.json"), "--grid", "3"],
            capsys)
        assert code == 0
        rows = data_section(out)
        header = rows[0].split(",")
        i_col = header.index("I")
        delta_col = header.index("Delta")
        values = [list(map(str, r.split(","))) for r in rows[1:]]
        i_values = [float(v[i_col]) for v in values]
        # the grid is centered at the mean flux, where the rate vanishes
        assert min(i_values) < 1e-9
        assert all(v >= -1e-12 for v in i_values)
        center = values[len(values) // 2]
        assert abs(float(center[delta_col])) < 1e-6
        foot = footer(out)
        assert foot["conjectural_rows"] == "0" and foot["max_kkt_residual"] == "nan"

    def test_footer_reports_boundary_regime(self, capsys):
        # two rows of the dimer's grid lie beyond the gradient image
        args = ["rate", str(ROOT / "perfbench" / "networks" / "dimer_1_64.json"),
                "--grid", "5", "--extent", "20"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        rows = data_section(out)
        header = rows[0].split(",")
        phis = [j for j, name in enumerate(header) if name.startswith("phi_")
                and not name.startswith("phi_c")]
        conjectural = [r.split(",") for r in rows[1:] if r.endswith(",true")]
        phi_norm = max(np.linalg.norm([float(r[j]) for j in phis]) for r in conjectural)
        foot = footer(out)
        assert foot["conjectural_rows"] == str(len(conjectural)) == "2"
        assert float(foot["max_kkt_residual"]) <= 1e-7 * (1.0 + phi_norm)
        code, out, _ = run_cli(args + ["--json"], capsys)
        doc = json.loads(out)
        assert doc["footer"]["conjectural_rows"] == 2
        assert doc["footer"]["max_kkt_residual"] == float(foot["max_kkt_residual"])


    @pytest.mark.parametrize("grid", ["-1", "0", "1"])
    def test_grid_below_two_exit_2(self, grid, capsys):
        code, out, err = run_cli(
            ["rate", str(CONFIGS / "lozenge_1_2_4.json"), "--grid", grid],
            capsys)
        assert code == 2
        assert "at least 2 grid points" in err
        assert out == ""


class TestSimulate:
    def test_summary_and_determinism(self, tmp_path, capsys):
        args = ["simulate", str(CONFIGS / "lozenge_1_2_4.json"),
                "--seed", "42", "--traj", "200", "--T", "20", "--h", "0.05",
                "--tilts", "0.02,0.0,-0.02"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code, _, _ = run_cli(args + ["--out", str(out1)], capsys)
        assert code == 0
        code, _, _ = run_cli(args + ["--out", str(out2)], capsys)
        assert code == 0
        assert data_section(out1.read_text()) == data_section(out2.read_text())

    def test_per_trajectory_output(self, tmp_path, capsys):
        per = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            ["simulate", str(CONFIGS / "lozenge_1_2_4.json"),
             "--seed", "7", "--traj", "50", "--T", "10", "--h", "0.05",
             "--tilts", "0.01,0.0,0.0", "--per-traj", str(per)], capsys)
        assert code == 0
        rows = data_section(per.read_text())
        assert len(rows) == 1 + 50
        assert rows[0].split(",")[0] == "traj_index"


    def test_worker_count_leaves_data_unchanged(self, tmp_path, capsys,
                                                monkeypatch):
        args = ["simulate", str(CONFIGS / "lozenge_1_2_4.json"),
                "--seed", "5", "--traj", "600", "--T", "5", "--h", "0.05",
                "--tilts", "0.02,0.0,-0.02"]
        outputs = []
        for n in (1, 2):
            monkeypatch.setattr(fluxnet.simulate, "_workers", lambda: n)
            out, per = tmp_path / f"w{n}.csv", tmp_path / f"w{n}.traj.csv"
            code, _, _ = run_cli(args + ["--out", str(out), "--per-traj",
                                         str(per)], capsys)
            assert code == 0
            text = out.read_text()
            assert footer(text)["workers"] == str(n)
            outputs.append((data_section(text), data_section(per.read_text())))
        assert outputs[0] == outputs[1]

    def test_json_footer_reports_workers(self, capsys, monkeypatch):
        monkeypatch.setattr(fluxnet.simulate, "_workers", lambda: 2)
        code, out, _ = run_cli(
            ["simulate", str(CONFIGS / "lozenge_1_2_4.json"), "--seed", "5",
             "--traj", "600", "--T", "1", "--h", "0.05", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["footer"]["workers"] == 2


class TestEntryPoint:
    def test_console_script(self):
        # load the declared console script the way an installer's wrapper
        # does, without needing the package to be installed
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"fluxnet": "fluxnet.cli:main"}
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"ep = EntryPoint(name='fluxnet', value={scripts['fluxnet']!r}, "
            "group='console_scripts')\n"
            "sys.argv[0] = ep.name\n"
            "sys.exit(ep.load()())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", launcher, "--help"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert "usage: fluxnet" in result.stdout
        assert "gap-scan" in result.stdout

    @pytest.mark.skipif(shutil.which("fluxnet") is None,
                        reason="fluxnet executable not installed on PATH")
    def test_installed_executable(self):
        result = subprocess.run(["fluxnet", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "gap-scan" in result.stdout

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "fluxnet.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
