import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnicolor.cli import main
from bnicolor.experiment import ALGORITHMS
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

    def test_paced_false_runs_unpaced(self, capsys):
        """The JSON literal false turns pacing off: the same report as no
        paced parameter, and fewer rounds than paced=true."""
        argv = ["run", *_GND, "--gen-param", "d=5", "--algorithm", "edge_direct", "--preset", "thm45"]
        rounds = {}
        for extra in ([], ["--param", "paced=false"], ["--param", "paced=true"]):
            assert main(argv + extra) == 0
            rounds[tuple(extra)] = json.loads(capsys.readouterr().out)["rounds"]
        default, unpaced, paced = rounds.values()
        assert unpaced == default < paced

    def test_float_eps_reads_as_its_decimal(self, capsys):
        """eps=0.3 is the fraction 3/10, not the binary float's exact value."""
        reports = []
        for eps in ("0.3", "3/10"):
            assert main(["run", *_GND_D3, "--preset", "thm45", "--param", f"eps={eps}"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["params"]["preset"] == "thm45(3/10)"

    def test_repetitions_emit_a_list(self, capsys):
        """Two repetitions emit a JSON list of two reports, repetition i with
        seed --seed + i."""
        argv = ["run", *_GND, "--gen-param", "d=5", "--algorithm", "linial", "--seed", "3"]
        assert main(argv + ["--repetitions", "2"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in reports] == [3, 4]
        assert main(argv) == 0
        assert reports[0] == json.loads(capsys.readouterr().out)

    def test_missing_generator_errors(self, capsys):
        assert main(["run", "--algorithm", "linial"]) == 2
        assert capsys.readouterr().err == "bnicolor run: either --spec or --generator is required\n"

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
_PROB_NOT_FLOAT = "random_gnd parameter prob must be float, got"
_SWEEP_MESSAGE = "--sweep needs key=v1,v2,... (dotted keys allowed), got"
# tradeoff g_fn arguments that are no finite float
_G_FN_NOT_FINITE = [
    ("power", "x"), ("power", "nan"), ("const", "nan"), ("const", "inf"), ("power", "1e400"),
]


class TestMalformedParameters:
    """Bad generator or algorithm parameters end in one stderr line and exit 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", *_GND_D3, "--gen-param", "prob=abc", "--preset", "thm45"], f"{_PROB_NOT_FLOAT} 'abc'"),
            (["run", *_GND_D3, "--gen-param", "prob=2"], f"{_PROB_MESSAGE} 2.0"),
            (["run", *_GND_D3, "--gen-param", "prob=-1"], f"{_PROB_MESSAGE} -1.0"),
            (["run", *_GND_D3, "--gen-param", "prob=NaN"], f"{_PROB_NOT_FLOAT} nan"),
            (["run", *_GND, "--preset", "thm45"], "random_gnd needs parameter 'd'"),
            (["run", *_GND_D3, "--preset", "custom"], "legal needs parameter 'b'"),
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
            (["run", *_GND_D3, "--algorithm", "kuhn_edge"], "kuhn_edge needs parameter 'p_prime'"),
            (
                ["run", *_GND_D3, "--algorithm", "kuhn_edge", "--param", "p_prime=0"],
                "p_prime must be in 1..delta, got 0",
            ),
            (["run", *_GND_D3, "--algorithm", "defective"], "defective needs parameter 'b'"),
            (
                ["run", *_GND_D3, "--algorithm", "defective", "--param", "b=1", "--param", "p=x"],
                "defective parameter p must be int, got 'x'",
            ),
            (
                ["run", *_GND_D3, "--algorithm", "randomized", "--param", "kappa=abc"],
                "randomized parameter kappa must be float, got 'abc'",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--param", "eps=abc"],
                "legal parameter eps must be Fraction, got 'abc'",
            ),
            (
                [
                    "run", *_GND_D3, "--algorithm", "edge_direct", "--preset", "thm45",
                    "--msg-mode", "short", "--param", "budget_factor=0",
                ],
                "budget_factor must be at least 1, got 0",
            ),
            (
                ["run", *_GND_D3, "--algorithm", "kuhn_edge", "--param", "p_prime=2.9"],
                "kuhn_edge parameter p_prime must be int, got 2.9",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--param", "c=2.5"],
                "legal parameter c must be int, got 2.5",
            ),
            (
                [
                    "run", *_GND_D3, "--algorithm", "edge_direct", "--preset", "thm45",
                    "--param", "pacde=true",
                ],
                "unread keys in edge_direct parameters: ['pacde']",
            ),
            (
                ["run", *_GND_D3, "--algorithm", "randomized", "--param", "seed=3"],
                "unread keys in randomized parameters: ['seed']",
            ),
            (
                [
                    "run", *_GND_D3, "--algorithm", "edge_direct", "--preset", "thm45",
                    "--param", "paced=False",
                ],
                "edge_direct parameter paced must be bool, got 'False'",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--param", "strict=1"],
                "legal parameter strict must be bool, got 1",
            ),
            (
                ["run", *_GND, "--gen-param", "d=5", "--preset", "thm46", "--param", "c=1"],
                "no feasible thm46 exponent for c=1, delta=5",
            ),
            (["gen", "--kind", "random_gnd", "--gen-param", "n=20"], "random_gnd needs parameter 'd'"),
            (["gen", "--kind", "path", "--gen-param", "n=x"], "path parameter n must be int, got 'x'"),
            (
                ["bench", *_GND, "--algorithm", "edge_2delta", "--sweep", "gen_params.d=3,x"],
                "random_gnd parameter d must be int, got 'x'",
            ),
            (
                ["run", *_GND, "--gen-param", "d=5", "--gen-param", "seed=3", "--algorithm", "edge_2delta"],
                "unread keys in random_gnd parameters: ['seed']",
            ),
            (
                ["gen", "--kind", "cycle", "--gen-param", "n=5", "--gen-param", "d=3"],
                "unread keys in cycle parameters: ['d']",
            ),
            (
                ["run", "--generator", "line_of", "--gen-param", "inner=5"],
                "line_of parameter inner must be dict, got 5",
            ),
            (
                ["run", "--generator", "line_of", "--gen-param", 'inner={"kind":"cycle","params":5}'],
                "line_of inner parameter params must be dict, got 5",
            ),
            (
                ["run", "--generator", "line_of", "--gen-param", 'inner={"kind":"cycle","parms":{"n":5}}'],
                "unread keys in line_of inner parameters: ['parms']",
            ),
            (["run", *_GND_D3, "--param", "c"], "expected key=value, got 'c'"),
            (["gen", "--kind", "path", "--gen-param", "n"], "expected key=value, got 'n'"),
            (["run", "--algorithm", "linial"], "either --spec or --generator is required"),
            (["bench", "--sweep", "gen_params.n=3"], "either --spec or --generator is required"),
            (["bench", *_GND_D3, "--sweep", "x"], f"{_SWEEP_MESSAGE} 'x'"),
            (["bench", *_GND_D3, "--sweep", "gen_params.d="], f"{_SWEEP_MESSAGE} 'gen_params.d='"),
            (
                ["bench", *_GND_D3, "--algorithm", "linial", "--sweep", "seed.x=1"],
                "sweep key 'seed.x': seed does not hold an object",
            ),
            (
                ["bench", *_GND_D3, "--algorithm", "linial", "--sweep", "gen_params.d.x=1"],
                "sweep key 'gen_params.d.x': d does not hold an object",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--msg-mode", "short"],
                "unread keys in legal parameters: ['msg_mode']",
            ),
            (
                ["run", *_GND_D3, "--algorithm", "linial", "--preset", "thm45"],
                "unread keys in linial parameters: ['preset']",
            ),
            (
                ["run", *_GND_D3, "--param", "preset=thm45"],
                "['preset'] are spec fields, not legal parameters",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--param", "c=true"],
                "legal parameter c must be int, got True",
            ),
            (
                ["gen", "--kind", "complete", "--gen-param", "n=true"],
                "complete parameter n must be int, got True",
            ),
            (["gen", "--kind", "complete", "--gen-param", "n=-3"], "complete needs n >= 1"),
            (
                ["run", *_GND, "--gen-param", "d=12", "--algorithm", "randomized", "--param", "kappa=true"],
                "randomized parameter kappa must be float, got True",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm45", "--param", "eps=0.00001"],
                "thm45 needs 0 < eps <= 1 with denominator <= 10**4, got 1/100000",
            ),
            (
                ["run", *_GND_D3, "--preset", "thm48_3", "--param", "eps=12345.5"],
                "thm48_3 needs eps > 0 and log^eps delta < 2**1000, got eps = 24691/2",
            ),
            *[
                (
                    ["run", *_GND, "--gen-param", "d=8", "--algorithm", "tradeoff",
                     "--param", f"g_fn={fn}:{arg}"],
                    f"g_fn parameter {fn} must be float, got {arg!r}",
                )
                for fn, arg in _G_FN_NOT_FINITE
            ],
            *[
                (
                    ["run", *_GND, "--gen-param", "d=8", "--algorithm", "tradeoff",
                     "--param", f"g_fn={fn}:1e300"],
                    f"g_fn '{fn}:1e300' at eta 0.25 overflows a float",
                )
                for fn in ("power", "const")
            ],
        ],
        ids=[
            "prob-not-a-number", "prob-above-1", "prob-negative", "prob-nan", "missing-d",
            "custom-missing-b", "seed-2**64", "legal-phi-mode", "edge-line-phi-mode",
            "kuhn-missing-p-prime", "kuhn-p-prime-0", "defective-missing-b", "defective-p-not-int",
            "kappa-not-a-number", "eps-not-a-fraction", "budget-factor-0",
            "kuhn-p-prime-not-integral", "c-not-integral", "edge-direct-unread-key",
            "randomized-unread-seed", "paced-string-False", "strict-int-1", "thm46-no-feasible-t",
            "gen-missing-d", "gen-non-integer", "bench-non-integer", "gen-param-seed-unread",
            "gen-cycle-unread-d", "line-of-inner-not-an-object", "line-of-inner-params-not-an-object",
            "line-of-inner-unread-key", "param-without-equals", "gen-param-without-equals",
            "run-without-generator", "bench-without-generator", "sweep-without-equals",
            "sweep-without-values", "sweep-key-through-seed", "sweep-key-through-d",
            "legal-msg-mode-short", "linial-preset", "param-named-like-a-spec-field", "c-true",
            "n-true", "complete-n-negative", "kappa-true", "thm45-eps-denominator", "thm48-3-eps-overflow",
            *[f"g-fn-{fn}-{arg}" for fn, arg in _G_FN_NOT_FINITE],
            "g-fn-power-overflow", "g-fn-const-overflow",
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
        assert proc.stderr == f"bnicolor run: {_PROB_NOT_FLOAT} 'abc'\n"

    def test_spec_excludes_spec_field_flags(self, tmp_path, capsys):
        """--spec with a flag that sets a spec field exits 2 naming the flags;
        --out alone may override the file."""
        path = tmp_path / "spec.json"
        spec = {"generator": "cycle", "gen_params": {"n": 9}, "algorithm": "legal", "preset": "thm45"}
        path.write_text(json.dumps(spec))
        argv = ["run", "--spec", str(path)]
        flags = ["--param", "c=3", "--seed", "5", "--algorithm", "linial"]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == "bnicolor run: --spec excludes --algorithm, --param, --seed\n"
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["c"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "path", "--gen-param", "n=3"],
            ["run", "--generator", "path", "--gen-param", "n=3", "--algorithm", "linial"],
            ["bench", *_GND_D3, "--algorithm", "linial", "--sweep", "seed=1,2"],
        ],
        ids=["gen", "run", "bench"],
    )
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + ["--out", str(blocker / "out.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bnicolor {argv[0]}: cannot write {blocker / 'out.txt'}: ")
        assert err.count("\n") == 1

    def test_unwritable_json_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["bench", *_GND_D3, "--algorithm", "linial", "--sweep", "seed=1"]
        assert main(argv + ["--out", str(tmp_path / "s.csv"), "--json-dir", str(blocker / "points")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bnicolor bench: cannot write {blocker / 'points'}")
        assert err.count("\n") == 1


# keys a --param or --gen-param may set on random_gnd, and one no kind reads
_FLAG_KEYS = [("--gen-param", k) for k in ("n", "d", "prob", "zz")] + [
    ("--param", k)
    for k in (
        "c", "b", "p", "lam", "eps", "t", "strict", "phi_mode", "paced", "budget_factor",
        "p_prime", "kappa", "eta", "g_fn", "Lambda", "zz",
    )
]
# literals that are no valid size: none of them parses as an integer, so no
# drawn value can make random_gnd larger than n = 12
_MALFORMED = st.one_of(
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity"]),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()).map(repr),
    st.text("abcdefghijklmnopqrstuvwxyz_:/", max_size=8),
    st.lists(st.integers(-3, 3), max_size=3).map(json.dumps),
    st.dictionaries(st.sampled_from(["n", "kind", "x"]), st.integers(0, 3), max_size=2).map(json.dumps),
)


def _refused(key, raw):
    """Whether no route may accept this literal for this key: an unknown key,
    null, a list or an object, or a boolean for a key that is not boolean."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if isinstance(value, bool):
        return key not in ("paced", "strict")
    return key == "zz" or value is None or isinstance(value, (list, dict))


class TestMalformedLiterals:
    """Whatever literal a --param or --gen-param carries, main returns 0, 1
    or 2 and raises nothing; it returns 2 when a literal can be no value."""

    @given(
        n=st.integers(1, 12),
        d=st.integers(0, 12),
        algorithm=st.sampled_from(ALGORITHMS),
        preset=st.sampled_from([None, "thm45", "thm46", "thm48_3", "improved_s42", "custom"]),
        literals=st.lists(st.tuples(st.sampled_from(_FLAG_KEYS), _MALFORMED), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_main_returns_an_exit_code(self, n, d, algorithm, preset, literals):
        argv = ["run", "--generator", "random_gnd", "--gen-param", f"n={n}", "--gen-param", f"d={d}"]
        argv += ["--algorithm", algorithm] + (["--preset", preset] if preset else [])
        for (flag, key), raw in literals:
            argv += [flag, f"{key}={raw}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        final = {flag_key: raw for flag_key, raw in literals}  # a later key=value wins
        refused = any(_refused(key, raw) for (_, key), raw in final.items())
        assert rc == 2 if refused else rc in (0, 1, 2)


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
        "output-field": (
            '{"generator": "path", "gen_params": {"n": 3}, "output": "out.csv"}',
            "unknown spec fields: ['output']\n",
        ),
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

    def test_json_dir_names_a_fraction_value_flat(self, tmp_path):
        """A sweep value with a slash (eps=1/2) names a file in --json-dir,
        not a subdirectory."""
        jdir = tmp_path / "points"
        argv = ["bench", *_GND_D3, "--preset", "thm45", "--sweep", "params.eps=1/2,3/4"]
        assert main(argv + ["--out", str(tmp_path / "s.csv"), "--json-dir", str(jdir)]) == 0
        assert sorted(p.name for p in jdir.iterdir()) == [
            "legal_params_eps_1_2.json", "legal_params_eps_3_4.json",
        ]

    @pytest.mark.parametrize("how", ["flag", "spec", "sweep-key"])
    def test_repetitions_are_refused(self, tmp_path, capsys, how):
        """A sweep runs each point once, so asking for more repetitions ends
        in one stderr line and exit 2 before any point runs."""
        spec = ["--generator", "random_gnd", "--gen-param", "n=12", "--gen-param", "d=3",
                "--algorithm", "linial"]
        sweep = ["--sweep", "seed=1,2"]
        if how == "flag":
            argv = ["bench", *spec, "--repetitions", "3", *sweep]
        elif how == "spec":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(
                {"generator": "random_gnd", "gen_params": {"n": 12, "d": 3},
                 "algorithm": "linial", "repetitions": 3}
            ))
            argv = ["bench", "--spec", str(path), *sweep]
        else:
            argv = ["bench", *spec, "--sweep", "repetitions=1,3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bnicolor bench: a sweep runs each point once, got repetitions 3\n"

    def test_bad_sweep_errors(self, capsys):
        argv = ["bench", "--generator", "path", "--gen-param", "n=3", "--algorithm", "linial"]
        assert main(argv + ["--sweep", "nonsense"]) == 2
        assert capsys.readouterr().err == (
            "bnicolor bench: --sweep needs key=v1,v2,... (dotted keys allowed), got 'nonsense'\n"
        )
