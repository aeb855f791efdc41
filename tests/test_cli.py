import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bnicolor.cli import main
from bnicolor.graph import parse_edge_list

SRC = Path(__file__).resolve().parents[1] / "src"


class TestGen:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "--kind", "cycle", "--gen-param", "n=6", "--out", str(out)]) == 0
        g = parse_edge_list(out.read_text())
        assert g.n == 6 and g.m == 6

    def test_stdout_default(self, capsys):
        assert main(["gen", "--kind", "path", "--gen-param", "n=3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "3 2"

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BNICOLOR_OUT_DIR", str(tmp_path))
        assert main(["gen", "--kind", "path", "--gen-param", "n=4", "--out", "p.txt"]) == 0
        assert (tmp_path / "p.txt").exists()


class TestRun:
    def test_inline_spec(self, capsys):
        rc = main(
            [
                "run",
                "--generator", "random_gnd",
                "--gen-param", "n=24", "--gen-param", "d=5",
                "--algorithm", "edge_2delta",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["verification"]["legal"]

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "generator": "cycle",
            "gen_params": {"n": 9},
            "algorithm": "linial",
        }
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(f)]) == 0

    def test_missing_generator_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "linial"])

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "run",
                "--generator", "path", "--gen-param", "n=4",
                "--algorithm", "edge_2delta", "--out", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["algorithm"] == "edge_2delta"


_GND = ["--generator", "random_gnd", "--gen-param", "n=20"]
_GND_D3 = [*_GND, "--gen-param", "d=3"]
_PROB_MESSAGE = "random_gnd needs prob to be a real number in [0, 1], got"


class TestMalformedParameters:
    """Bad generator or algorithm parameters end in one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", *_GND_D3, "--gen-param", "prob=abc", "--preset", "thm45"], f"{_PROB_MESSAGE} 'abc'"),
            (["run", *_GND_D3, "--gen-param", "prob=2"], f"{_PROB_MESSAGE} 2"),
            (["run", *_GND_D3, "--gen-param", "prob=-1"], f"{_PROB_MESSAGE} -1"),
            (["run", *_GND_D3, "--gen-param", "prob=NaN"], f"{_PROB_MESSAGE} nan"),
            (["run", *_GND, "--preset", "thm45"], "random_gnd needs parameter 'd'"),
            (["run", *_GND_D3, "--preset", "custom"], "custom params need b, p, lam (missing 'b')"),
            (
                ["run", *_GND, "--gen-param", "d=12", "--algorithm", "randomized", "--seed", str(2**64)],
                f"seed must be in [-2**63, 2**63), got {2**64}",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--param", "phi_mode=warp"],
                "unknown phi_mode 'warp'",
            ),
            (
                [
                    "run", *_GND_D3, "--algorithm", "edge_line",
                    "--preset", "thm45", "--param", "phi_mode=warp",
                ],
                "unknown phi_mode 'warp'",
            ),
            (["gen", "--kind", "random_gnd", "--gen-param", "n=20"], "random_gnd needs parameter 'd'"),
            (["gen", "--kind", "path", "--gen-param", "n=x"], "path parameter n must be an integer, got 'x'"),
            (
                ["bench", *_GND, "--algorithm", "edge_2delta", "--sweep", "gen_params.d=3,x"],
                "random_gnd parameter d must be an integer, got 'x'",
            ),
        ],
        ids=[
            "prob-not-a-number", "prob-above-1", "prob-negative", "prob-nan", "missing-d",
            "custom-missing-b", "seed-2**64", "legal-phi-mode", "edge-line-phi-mode",
            "gen-missing-d", "gen-non-integer", "bench-non-integer",
        ],
    )
    def test_exits_2_with_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"bnicolor {argv[0]}: {message}\n"

    def test_no_traceback_from_the_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bnicolor.cli", "run", *_GND_D3, "--gen-param", "prob=abc"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"bnicolor run: {_PROB_MESSAGE} 'abc'\n"


class TestSpecFile:
    """A --spec file that is missing, is not JSON, does not hold a JSON object
    or gives a field a value of the wrong type ends in one stderr line and
    exit 2, for run and for bench."""

    CASES = {
        "missing": (None, "cannot read spec {path}: [Errno 2] "),
        "not-json": ('{"generator": "path" "gen_params": {}}', "cannot read spec {path}: Expecting ','"),
        "not-an-object": ('["path", {"n": 3}]', "spec {path} must hold a JSON object, not list\n"),
        "a-number": ("3", "spec {path} must hold a JSON object, not int\n"),
        "repetitions-a-string": (
            '{"generator": "path", "gen_params": {"n": 3}, "repetitions": "2"}',
            "spec field 'repetitions' must be int, not str\n",
        ),
        "seed-a-bool": (
            '{"generator": "path", "gen_params": {"n": 3}, "seed": true}',
            "spec field 'seed' must be int, not bool\n",
        ),
        "seed-a-float": (
            '{"generator": "path", "gen_params": {"n": 3}, "seed": 1.5}',
            "spec field 'seed' must be int, not float\n",
        ),
        "gen-params-a-list": (
            '{"generator": "path", "gen_params": [3]}',
            "spec field 'gen_params' must be dict, not list\n",
        ),
        "params-null": (
            '{"generator": "path", "gen_params": {"n": 3}, "params": null}',
            "spec field 'params' must be dict, not NoneType\n",
        ),
        "preset-a-number": (
            '{"generator": "path", "gen_params": {"n": 3}, "preset": 3}',
            "spec field 'preset' must be str or None, not int\n",
        ),
        "generator-a-number": ('{"generator": 7}', "spec field 'generator' must be str, not int\n"),
        "generator-missing": ('{"gen_params": {"n": 3}}', "spec field 'generator' is required\n"),
    }

    @staticmethod
    def _argv(command, path):
        sweep = ["--sweep", "gen_params.n=3,4"] if command == "bench" else []
        return [command, "--spec", str(path), *sweep]

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, case):
        content, message = self.CASES[case]
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        assert main(self._argv(command, path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bnicolor {command}: " + message.format(path=path))
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_no_traceback_from_the_entry_point(self, tmp_path):
        path = tmp_path / "absent.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bnicolor.cli", *self._argv("bench", path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"bnicolor bench: cannot read spec {path}: ")
        assert proc.stderr.count("\n") == 1


class TestVerify:
    def _write_graph(self, tmp_path):
        gfile = tmp_path / "g.txt"
        main(["gen", "--kind", "cycle", "--gen-param", "n=4", "--out", str(gfile)])
        return gfile

    def test_accepts_legal(self, tmp_path, capsys):
        gfile = self._write_graph(tmp_path)
        cfile = tmp_path / "c.txt"
        cfile.write_text("palette 2 defect 0\n1 1\n2 2\n3 1\n4 2\n")
        assert main(["verify", "--graph", str(gfile), "--coloring", str(cfile)]) == 0
        assert json.loads(capsys.readouterr().out)["legal"] is True

    def test_rejects_illegal_with_witness(self, tmp_path, capsys):
        gfile = self._write_graph(tmp_path)
        cfile = tmp_path / "c.txt"
        cfile.write_text("palette 2 defect 0\n1 1\n2 1\n3 1\n4 2\n")
        assert main(["verify", "--graph", str(gfile), "--coloring", str(cfile)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["legal"] and report["violated"]

    @pytest.mark.parametrize(
        "graph_text,coloring_text",
        [
            ("4 4\n1 2\n2 3\n3 4\n1 4\n", "palette 2 defect 0\n1 1\n2 red\n3 1\n4 2\n"),
            ("4 4\n1 2\n2 3\n3 4\n1 4\n", "palette 2 defect 0\n1 1\nv2 2\n3 1\n4 2\n"),
            ("4 4\n1 2\n2 3\n3 4\n1 x\n", "palette 2 defect 0\n1 1\n2 2\n3 1\n4 2\n"),
            ("4 4\n1 2\n2 3\n3 4\n1 4\n", "palette 2 defect 0\n1 1\n2 2\n3 1\n4 2\n99 1\n"),
        ],
        ids=["bad-color-token", "non-integer-vertex", "non-integer-graph-vertex", "vertex-not-in-graph"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, graph_text, coloring_text):
        gfile, cfile = tmp_path / "g.txt", tmp_path / "c.txt"
        gfile.write_text(graph_text)
        cfile.write_text(coloring_text)
        assert main(["verify", "--graph", str(gfile), "--coloring", str(cfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bnicolor verify: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("missing", ["graph", "coloring"])
    def test_missing_file_exits_2(self, tmp_path, capsys, missing):
        files = {"graph": self._write_graph(tmp_path), "coloring": tmp_path / "c.txt"}
        files["coloring"].write_text("palette 2 defect 0\n1 1\n2 2\n3 1\n4 2\n")
        files[missing] = tmp_path / "absent.txt"
        argv = ["verify", "--graph", str(files["graph"]), "--coloring", str(files["coloring"])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "absent.txt" in err and len(err.splitlines()) == 1

    def test_malformed_input_without_traceback(self, tmp_path):
        gfile, cfile = tmp_path / "g.txt", tmp_path / "c.txt"
        gfile.write_text("2 1\n1 2\n")
        cfile.write_text("palette 2 defect 0\n1 1\n2 blue\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bnicolor.cli", "verify", "--graph", str(gfile), "--coloring", str(cfile)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "bnicolor verify: non-integer 'blue' in line '2 blue'\n"

    def test_edge_kind(self, tmp_path, capsys):
        gfile = self._write_graph(tmp_path)
        cfile = tmp_path / "ec.txt"
        # cycle(4) edges ranked (1,2),(1,4),(2,3),(3,4): alternate colors
        cfile.write_text("palette 2 defect 0\n1 1\n2 2\n3 2\n4 1\n")
        rc = main(
            ["verify", "--graph", str(gfile), "--coloring", str(cfile), "--kind", "edge"]
        )
        assert rc == 0


class TestBench:
    def test_csv_and_json_dir(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        jdir = tmp_path / "points"
        rc = main(
            [
                "bench",
                "--generator", "random_gnd", "--gen-param", "n=30",
                "--algorithm", "edge_2delta",
                "--sweep", "gen_params.d=3,5",
                "--out", str(out),
                "--json-dir", str(jdir),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert len(list(jdir.iterdir())) == 2

    def test_bad_sweep_errors(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "bench",
                    "--generator", "path", "--gen-param", "n=3",
                    "--algorithm", "linial", "--sweep", "nonsense",
                ]
            )
