import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varbounds import cli
from varbounds.cli import main
from varbounds.config import (
    load_instance,
    load_sweep_spec,
    parse_complex,
    parse_config,
    parse_matrix,
    parse_vector,
)
from varbounds.errors import ConfigError

SWEEP_CFG = """
# custom sweep over the qubit family
[sweep]
preset = custom
theta_count = 7
bounds = rs_product fidelity_product

[state]
family = qubit_bloch_fig3

[observables]
a = pauli_x
b = 1+0i 0+0i ; 0+0i -1+0i   # sigma_z as a literal
"""

# render_json sorts the keys
OPTIMIZE_KEYS = ["best_basis_columns", "best_value", "mode", "objective", "witness"]

INSTANCE_CFG = """
[state]
vector = 1+0i 0+0i

[observables]
a = pauli_x
b = pauli_y
"""


class TestParsing:
    def test_complex_literals(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("-2") == -2
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
        assert parse_complex("1e-3+2.5e-2i") == 1e-3 + 2.5e-2j
        with pytest.raises(ConfigError):
            parse_complex("banana")

    def test_vector_and_matrix(self):
        assert_allclose(parse_vector("1, 2, 3"), [1, 2, 3])
        m = parse_matrix("0+0i 1+0i ; 1+0i 0+0i")
        assert_allclose(m, np.array([[0, 1], [1, 0]]))
        with pytest.raises(ConfigError):
            parse_matrix("1 2 ; 3")

    def test_sections_and_errors(self):
        cfg = parse_config("[a]\nx = 1\n# comment\n\n[b]\ny = z\n")
        assert cfg == {"a": {"x": "1"}, "b": {"y": "z"}}
        with pytest.raises(ConfigError):
            parse_config("x = 1\n")  # key before section
        with pytest.raises(ConfigError):
            parse_config("[s]\njust a line\n")

    def test_load_sweep_spec(self):
        spec = load_sweep_spec(parse_config(SWEEP_CFG))
        assert spec.preset == "custom"
        assert spec.theta_count == 7
        assert spec.bounds == ("rs_product", "fidelity_product")
        assert spec.state_family == "qubit_bloch_fig3"
        a, b = spec.observables
        assert_allclose(b.matrix, np.diag([1.0, -1.0]))

    def test_load_instance(self):
        state, a, b = load_instance(parse_config(INSTANCE_CFG))
        assert state.is_pure
        assert_allclose(state.vector, [1.0, 0.0])
        assert_allclose(a.matrix, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf", None])
    def test_family_state_needs_a_finite_theta(self, theta):
        cfg = "[state]\nfamily = qubit_bloch_fig3\n" + ("" if theta is None else f"theta = {theta}\n")
        with pytest.raises(ConfigError, match="state family needs a finite theta value"):
            load_instance(parse_config(cfg + "[observables]\na = pauli_x\nb = pauli_z\n"))

    @pytest.mark.parametrize("key,value", [("theta_start", "nan"), ("theta_stop", "inf")])
    def test_sweep_spec_needs_finite_theta_ends(self, key, value):
        with pytest.raises(ConfigError, match="theta grid needs finite ends"):
            load_sweep_spec(parse_config(SWEEP_CFG.replace("theta_count = 7", f"{key} = {value}")))

    def test_sweep_spec_needs_a_finite_theta_span(self):
        # both ends are finite, but the grid's step overflows
        ends = "theta_start = -1e308\ntheta_stop = 1e308"
        with pytest.raises(ConfigError) as exc:
            load_sweep_spec(parse_config(SWEEP_CFG.replace("theta_count = 7", ends)))
        assert str(exc.value) == "theta grid needs a finite span, got -1e+308 to 1e+308"


class TestCli:
    def test_sweep_preset_csv(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        rc = main(["sweep", "--preset", "fig4", "--theta-count", "5",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith("theta,exact_product,exact_sum,dw_variance_sum")

    def test_sweep_custom_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "table.json"
        rc = main(["sweep", "--config", str(cfg), "--format", "json", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["metadata"]["theta_count"] == 7
        assert len(data["rows"]) == 7

    def test_verify_ok_and_deterministic(self, tmp_path):
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        rc1 = main(["verify", "--n", "50", "--dims", "2,3", "--seed", "7",
                    "--format", "json", "--out", str(out1)])
        rc2 = main(["verify", "--n", "50", "--dims", "2,3", "--seed", "7",
                    "--format", "json", "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compute_json(self, tmp_path, capsys):
        cfg = tmp_path / "inst.cfg"
        cfg.write_text(INSTANCE_CFG)
        rc = main(["compute", "--config", str(cfg)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"]["product"] == pytest.approx(1.0)
        assert data["bounds"]["rs_product"]["value"] == pytest.approx(1.0)
        assert data["bounds"]["dw_deviation_sum"]["value"] == pytest.approx(2.0)

    def test_optimize_trace(self, tmp_path, capsys):
        cfg = tmp_path / "inst.cfg"
        cfg.write_text(INSTANCE_CFG)
        rc = main(["optimize", "--config", str(cfg), "--objective", "sum"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["best_value"] == pytest.approx(2.0, abs=1e-8)
        # closed form: the report names its witness basis, and has no search trace
        assert list(data) == OPTIMIZE_KEYS
        assert (data["mode"], data["witness"]) == ("max", "aligned")

        rc = main(["optimize", "--config", str(cfg), "--objective", "reverse_product",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["objective,reverse_product", "mode,min",
                         lines[2], "witness,flat"]
        assert float(lines[2].split(",")[1]) == pytest.approx(1.0, abs=1e-8)  # Var X * Var Y in |0>

    @pytest.mark.parametrize("objective", ["product", "sum", "reverse_product"])
    def test_optimize_one_dimension(self, tmp_path, capsys, objective):
        cfg = tmp_path / "d1.cfg"
        cfg.write_text("[state]\nvector = 1+0i\n[observables]\na = 2 ;\nb = -1 ;\n")
        rc = main(["optimize", "--config", str(cfg), "--objective", objective])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["best_basis_columns"] == [[[1.0, 0.0]]]
        assert list(data) == OPTIMIZE_KEYS
        assert data["best_value"] == ("inf" if objective == "reverse_product" else 0.0)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[state]\nvector = banana\n[observables]\na = pauli_x\nb = pauli_y\n")
        rc = main(["compute", "--config", str(cfg)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        rc = main(["compute", "--config", "/nonexistent/x.cfg"])
        assert rc == 2

    def test_out_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VARBOUNDS_OUT", str(tmp_path))
        rc = main(["sweep", "--preset", "fig3", "--theta-count", "3",
                   "--format", "csv", "--out", "fig3.csv"])
        assert rc == 0
        assert (tmp_path / "fig3.csv").exists()

    def test_unknown_bound_exits_2(self, capsys):
        rc = main(["sweep", "--preset", "fig1", "--theta-count", "3",
                   "--bounds", "not_a_bound"])
        assert rc == 2

    def test_verify_violation_exits_1(self, monkeypatch, capsys):
        import varbounds.cli as cli_mod
        from varbounds.verify import VerificationReport, Violation

        def fake(n, dims, seed):
            return VerificationReport(
                instances=1,
                violations=[Violation(check="valid_rs_product", digest="deadbeef", slack=1e-3)],
                undefined_fraction={},
                max_slack={"valid_rs_product": 1e-3},
                applicable={"valid_rs_product": 1},
                metadata={},
            )

        monkeypatch.setattr(cli_mod, "run_verification", fake)
        rc = main(["verify", "--n", "1", "--dims", "2", "--seed", "0"])
        assert rc == 1
        assert "violation" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--dims", "2,x"), ("--dims", "1"), ("--dims", ","),
                                            ("--n", "0"), ("--seed", "-1"), ("--seed", "x")])
    def test_bad_verify_argument_is_a_usage_error(self, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "run_verification", None)  # never reached
        code, out, err = _run(["verify", flag, value], capsys)
        assert (code, out) == (2, "")
        expected = {"--n": "an integer >= 1", "--seed": "an integer >= 0",
                    "--dims": "integers >= 2, comma or space separated"}[flag]
        assert err.splitlines()[-1] == (
            f"varbounds verify: error: argument {flag}: expected {expected}, got {value!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--preset", "fig1", "--theta-count", "3", "--theta-stop", "nan"],
         "theta grid needs finite ends, got 0.0 to nan"),
        (["sweep", "--preset", "fig1", "--theta-stop", "inf"],
         "theta grid needs finite ends, got 0.0 to inf"),
        (["sweep", "--preset", "fig2", "--theta-start=-inf"],
         "theta grid needs finite ends, got -inf to 3.141592653589793"),
        (["sweep", "--preset", "fig1", "--theta-count", "3", "--theta-start=-1e308", "--theta-stop", "1e308"],
         "theta grid needs a finite span, got -1e+308 to 1e+308"),
    ], ids=["stop-nan", "stop-inf", "start-minus-inf", "span-overflows"])
    def test_non_finite_theta_is_a_config_error(self, capsys, argv, message):
        assert _run(argv, capsys) == (2, "", f"error: {message}\n")

    # a NaN entry is rejected by the literal parser, before the norm is taken
    @pytest.mark.parametrize("vector,message", [
        ("nan 1", "complex literal 'nan' is not finite"),
        ("1 nan", "complex literal 'nan' is not finite"),
        ("0 0", "state vector needs a finite, nonzero norm, got 0.0"),
        ("1e200 1", "state vector needs a finite, nonzero norm, got inf"),
    ], ids=["nan 1-nan", "1 nan-nan", "0 0-0.0", "1e200 1-inf"])
    def test_state_vector_without_a_finite_norm_is_a_config_error(self, tmp_path, capsys, vector, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(INSTANCE_CFG.replace("1+0i 0+0i", vector))
        assert _run(["compute", "--config", str(cfg)], capsys) == (2, "", f"error: {message}\n")

    def test_overflowing_state_vector_prints_one_line(self, tmp_path):
        # the norm of 1e200 overflows; the config error is the only line on stderr, with no
        # RuntimeWarning before it
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(INSTANCE_CFG.replace("1+0i 0+0i", "1e200 1"))
        proc = subprocess.run([sys.executable, "-m", "varbounds", "compute", "--config", str(cfg)],
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: state vector needs a finite, nonzero norm, got inf\n"

    @pytest.mark.parametrize("token", ["nan", "nanj", "1e400", "inf", "-inf", "1+infi"])
    @pytest.mark.parametrize("where", ["vector", "rho", "matrix"])
    def test_non_finite_literal_is_a_config_error(self, tmp_path, capsys, where, token):
        text = {
            "vector": INSTANCE_CFG.replace("1+0i 0+0i", f"1 {token}"),
            "rho": INSTANCE_CFG.replace("vector = 1+0i 0+0i", f"rho = 1 0; 0 {token}"),
            "matrix": INSTANCE_CFG.replace("b = pauli_y", f"b = 1 0; 0 {token}"),
        }[where]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert _run(["compute", "--config", str(cfg)], capsys) == (
            2, "", f"error: complex literal {token!r} is not finite\n")


def _run(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``; a usage exit counts as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env() -> dict:
    """The environment of a new process that imports this checkout's varbounds."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _run_fresh(argv, capsys, monkeypatch):
    """The same, with ``main`` parsing through a parser built for this call alone."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        return _run(argv, capsys)


class TestParserReuse:
    """``main`` keeps one parser per process; no call may see another's arguments."""

    def test_parser_is_built_once_and_build_parser_stays_fresh(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()

    def test_sweep_bounds_do_not_leak_into_the_next_call(self, capsys, monkeypatch):
        narrow = ["sweep", "--preset", "fig1", "--bounds", "rs_product", "--theta-count", "3"]
        plain = ["sweep", "--preset", "fig1", "--theta-count", "3"]
        first = _run(narrow, capsys)
        second = _run(plain, capsys)
        assert first == _run_fresh(narrow, capsys, monkeypatch)
        assert second == _run_fresh(plain, capsys, monkeypatch)
        assert second[0] == 0
        columns = json.loads(second[1])["columns"]
        assert "fidelity_product" in columns and "optimized_product" in columns
        assert "fidelity_product" not in json.loads(first[1])["columns"]

    def test_optimizer_flags_do_not_leak_into_the_next_call(self, tmp_path, capsys, monkeypatch):
        # optimize --restarts, the one optimizer flag left, is hidden and ignored
        cfg = tmp_path / "inst.cfg"
        cfg.write_text(INSTANCE_CFG)
        flagged = ["optimize", "--config", str(cfg), "--restarts", "3"]
        plain = ["optimize", "--config", str(cfg)]
        first = _run(flagged, capsys)
        second = _run(plain, capsys)
        assert first == _run_fresh(flagged, capsys, monkeypatch)
        assert second == _run_fresh(plain, capsys, monkeypatch)
        assert first == second and first[0] == 0

    def test_valid_call_after_a_usage_error(self, capsys, monkeypatch):
        bad = ["sweep", "--preset", "fig9"]
        good = ["sweep", "--preset", "fig4", "--theta-count", "3", "--format", "csv"]
        code, out, err = _run(bad, capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'fig9'" in err
        assert _run(bad, capsys) == _run_fresh(bad, capsys, monkeypatch)
        result = _run(good, capsys)
        assert result[0] == 0 and result[1].startswith("theta,")
        assert result == _run_fresh(good, capsys, monkeypatch)

    @pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"], ["sweep", "--help"],
                                      ["verify", "--help"], ["optimize", "--help"]],
                             ids=lambda argv: " ".join(argv))
    def test_help_matches_a_fresh_parser(self, argv, capsys, monkeypatch):
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: varbounds")
        assert (code, out, err) == _run_fresh(argv, capsys, monkeypatch)

    def test_calls_leave_little_cyclic_garbage(self, tmp_path, capsys):
        # argparse objects reference each other, so a parser built per call
        # leaves ~300 unreachable objects per call for the full collector, and
        # the standard library's indenting JSON encoder leaves 33 per report.
        # One parser per process and a renderer without closures leave none.
        cfg = tmp_path / "inst.cfg"
        cfg.write_text(INSTANCE_CFG)
        commands = {
            "compute": ["compute", "--config", str(cfg)],
            "sweep": ["sweep", "--preset", "fig4", "--theta-count", "3"],
            "verify": ["verify", "--n", "5", "--dims", "2", "--seed", "1"],
            "optimize": ["optimize", "--config", str(cfg)],
        }
        per_call = {}
        for name, argv in commands.items():
            for fmt in ("json", "csv"):
                call = [*argv, "--format", fmt]
                assert main(call) == 0
                gc.collect()
                gc.disable()
                try:
                    for _ in range(50):
                        main(call)
                    per_call[f"{name} {fmt}"] = gc.collect() / 50
                finally:
                    gc.enable()
                capsys.readouterr()
        assert all(n == 0 for n in per_call.values()), per_call


PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["bogus"],
    ["optimize"],
    ["optimize", "-h"],
    ["optimize", "--config", "x.cfg"],
    ["optimize", "--conf", "x.cfg", "--obj", "sum", "--form", "csv"],
    ["optimize", "--config", "x.cfg", "--objective", "flat"],
    ["optimize", "--config", "x.cfg", "--restarts", "8", "--format", "json"],
    ["optimize", "--config", "x.cfg", "--restarts", "eight"],
    ["optimize", "--config", "x.cfg", "extra"],
    ["optimize", "--config", "x.cfg", "--", "extra"],
    ["optimize", "--config", "x.cfg", "--seed", "1", "-x"],
    ["optimize", "--config"],
    ["compute", "--config", "x.cfg", "--bounds", "rs_product,mp_sum_1", "--out", "o.json"],
    ["compute", "--config=x.cfg", "--format=csv"],
    ["sweep"],
    ["sweep", "--preset", "fig9"],
    ["sweep", "--preset", "fig2", "--theta-count", "3", "--theta-start", "-1"],
    ["sweep", "--theta-count", "x"],
    ["verify", "--n", "10", "--dims", "2,3", "--seed", "4"],
    ["verify", "--help"],
    ["-h", "optimize"],
    ["optimize", "compute"],
]


class TestParseArgs:
    """``main`` calls a sub-command's parser directly: same namespace, help and errors."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            args = exc.code
        out = capsys.readouterr()
        return args, out.out, out.err

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no-args")
    def test_same_outcome_as_parse_args(self, argv, capsys):
        fast = self._outcome(lambda a: cli._parse_args(cli.build_parser(), a), argv, capsys)
        plain = self._outcome(cli.build_parser().parse_args, argv, capsys)
        assert fast == plain

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["varbounds", "verify", "--n", "3"])
        assert vars(cli._parse_args(cli.build_parser(), None)) == vars(cli.build_parser().parse_args())


REMOVED_FLAGS = {
    "compute": ["--seed", "--restarts", "--max-evals", "--step-init", "--step-min", "--tol"],
    "sweep": ["--seed", "--restarts", "--max-evals", "--step-init", "--step-min", "--tol"],
    "optimize": ["--seed", "--max-evals", "--step-init", "--step-min", "--tol"],
}


class TestRemovedOptimizerKnobs:
    """Every basis optimum is closed-form: the search's knobs are gone, not ignored."""

    @pytest.mark.parametrize("command,flag", [(c, f) for c, flags in REMOVED_FLAGS.items()
                                              for f in flags])
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        cfg = tmp_path / "inst.cfg"
        cfg.write_text(INSTANCE_CFG)
        argv = {"compute": ["compute", "--config", str(cfg)],
                "sweep": ["sweep", "--preset", "fig4", "--theta-count", "3"],
                "optimize": ["optimize", "--config", str(cfg)]}[command]
        code, out, err = _run([*argv, flag, "1"], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err

    def test_hidden_restarts_are_not_in_the_help(self, capsys):
        code, out, _ = _run(["optimize", "--help"], capsys)
        assert code == 0 and "restarts" not in out

    @pytest.mark.parametrize("command", ["compute", "optimize", "sweep"])
    def test_optimizer_section_is_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "opt.cfg"
        text = INSTANCE_CFG if command != "sweep" else SWEEP_CFG
        cfg.write_text(text + "\n[optimizer]\nrestarts = 3\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the [optimizer] section was removed" in captured.err
        assert "every basis optimum is now closed-form" in captured.err
