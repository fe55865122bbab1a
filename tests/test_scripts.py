"""Helper scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareDataSections:
    HEAD = "# tool=fluxnet\n# wall_clock_s={}\nphi,I,interior\n"

    @pytest.fixture
    def compare(self, tmp_path):
        main = load("compare_data_sections").main

        def run(rows_a, rows_b, *flags, clock="1.0"):
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            a.write_text(self.HEAD.format("1.0") + rows_a)
            b.write_text(self.HEAD.format(clock) + rows_b)
            return main([str(a), str(b), *flags])
        return run

    def test_manifest_ignored(self, compare, capsys):
        assert compare("0.5,2.0,true\n", "0.5,2.0,true\n", clock="9.9") == 0
        assert "largest difference 0.000e+00" in capsys.readouterr().out

    def test_difference_against_rtol(self, compare, capsys):
        rows = "0.5,200.0,true\n", "0.5,200.000002,true\n"
        assert compare(*rows) == 1
        assert compare(*rows, "--rtol", "1e-8") == 0
        assert "row 1, I" in capsys.readouterr().out
        # below magnitude 1 the difference is absolute
        assert compare("1e-14,1.0,true\n", "-2e-14,1.0,true\n", "--rtol", "1e-13") == 0

    def test_vector_fields_compare_entrywise(self, compare, capsys):
        rows = "(0.5 -0.25),2.0,true\n", "(0.5 -0.2500001),2.0,true\n"
        assert compare(*rows) == 1
        assert compare(*rows, "--rtol", "1e-6") == 0
        assert "row 1, phi" in capsys.readouterr().out
        assert compare("(0.5 -0.25),2.0,true\n", "(0.5),2.0,true\n", "--rtol", "1") == 1

    @pytest.mark.parametrize("rows_b", [
        "0.5,2.0,false\n",           # a boolean column differs
        "0.5,2.0\n",                 # a field is missing
        "0.5,2.0,true\n0,0,true\n",  # an extra row
        "0.5,nan,true\n",            # a number against nan
    ])
    def test_structure_must_match(self, compare, rows_b, capsys):
        assert compare("0.5,2.0,true\n", rows_b, "--rtol", "1") == 1
        assert "data sections differ" in capsys.readouterr().out

    @pytest.fixture
    def compare_dirs(self, tmp_path):
        main = load("compare_data_sections").main

        def run(files_a, files_b, *flags):
            dirs = tmp_path / "a", tmp_path / "b"
            for folder, files in zip(dirs, (files_a, files_b)):
                folder.mkdir()
                for name, rows in files.items():
                    (folder / name).write_text(self.HEAD.format("1.0") + rows)
            return main([str(dirs[0]), str(dirs[1]), *flags])
        return run

    def test_directories_pair_same_named_files(self, compare_dirs, capsys):
        a = {"rate_x.csv": "0.5,2.0,true\n", "gap_x.csv": "1.0,3.0,false\n"}
        b = {"rate_x.csv": "0.5,2.000002,true\n", "gap_x.csv": "1.0,3.0,false\n"}
        assert compare_dirs(a, b, "--rtol", "1e-5") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "gap_x.csv: largest difference 0.000e+00 (no numeric field differs)"
        assert out[1].startswith("rate_x.csv: largest difference 1.000e-06")

    def test_directories_fail_on_any_pair(self, compare_dirs, capsys):
        a = {"rate_x.csv": "0.5,2.0,true\n", "gap_x.csv": "1.0,3.0,false\n"}
        b = {"rate_x.csv": "0.5,2.000002,true\n", "gap_x.csv": "1.0,3.0,true\n"}
        assert compare_dirs(a, b, "--rtol", "1e-5") == 1
        assert "gap_x.csv: data sections differ" in capsys.readouterr().out

    def test_file_in_one_directory_only(self, compare_dirs, capsys):
        a = {"rate_x.csv": "0.5,2.0,true\n", "cgf_x.csv": "0.5,2.0,true\n"}
        assert compare_dirs(a, {"rate_x.csv": "0.5,2.0,true\n"}) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("cgf_x.csv: missing from") and out[0].endswith("b")

    def test_file_against_directory_is_usage_error(self, tmp_path):
        main = load("compare_data_sections").main
        (tmp_path / "a.csv").write_text(self.HEAD.format("1.0"))
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "a.csv"), str(tmp_path)])
        assert exc.value.code == 2
