import argparse
import hashlib
import io
import json
import math

import pytest

from dotphase import cli, qpe
from dotphase.errors import NumericalInvariantError

TWO_PI = 2 * math.pi


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


class TestEstimate:
    def test_representable_exact(self, capsys):
        report = run_json(
            ["estimate", "--m", "3", "--phase", "0.625turn", "--shots", "0"], capsys
        )
        results = report["results"]
        assert results["readout_integer"] == 5
        assert results["estimated_phase_rad"] == pytest.approx(TWO_PI * 0.625)
        assert results["eta_percent"] == pytest.approx(100.0)
        assert results["max_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_shot_determinism(self, capsys):
        args = ["estimate", "--m", "3", "--phase", "0.625turn",
                "--shots", "100", "--seed", "7"]
        report = run_json(args, capsys)
        estimates = report["results"]["estimates_rad"]
        assert len(estimates) == 100
        assert all(e == pytest.approx(TWO_PI * 0.625) for e in estimates)
        assert run_json(args, capsys)["results"] == report["results"]

    def test_phase_out_of_range(self, capsys):
        code, _, err = run_cli(["estimate", "--m", "3", "--phase", "7.0"], capsys)
        assert code == 1
        assert "phase" in err

    def test_bad_angle_suffix(self, capsys):
        code, _, _ = run_cli(["estimate", "--m", "3", "--phase", "1.0furlong"], capsys)
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run_cli(["estimate", "--m", "3"], capsys)
        assert code == 1
        assert "phase_rad" in err

    def test_full_distribution_flag(self, capsys):
        report = run_json(
            ["estimate", "--m", "2", "--phase", "0.25turn", "--shots", "5",
             "--seed", "1", "--full-distribution"],
            capsys,
        )
        assert len(report["results"]["distribution"]) == 4


class TestSweep:
    def test_row_table(self, capsys):
        report = run_json(
            ["sweep", "--m-values", "5,6,7", "--n", "3",
             "--random-phases", "20", "--seed", "3"],
            capsys,
        )
        rows = report["results"]["rows"]
        assert len(rows) == 60
        for row in rows:
            assert row["empirical_success"] >= row["bound"] - 1e-9

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            ["sweep", "--m-values", "5", "--n", "3", "--phases", "0.625turn",
             "--format", "csv", "--output", str(out)],
            capsys,
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "m,n,phi_rad,empirical_success,bound"
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == pytest.approx(1.0, abs=1e-10)

    def test_empty_phase_list(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--m-values", "5", "--n", "3", "--phases", ""], capsys
        )
        assert code == 1

    def test_undefined_bound_rejected(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--m-values", "4", "--n", "3", "--phases", "1.0"], capsys
        )
        assert code == 1
        assert "m >= n + 2" in err

    def test_representable_phase_all_ones(self, capsys):
        report = run_json(
            ["sweep", "--m-values", "5,6", "--n", "3", "--phases", "0.375turn"],
            capsys,
        )
        assert all(
            row["empirical_success"] == pytest.approx(1.0)
            for row in report["results"]["rows"]
        )


class TestPulseFit:
    def test_hadamard_preset_reports_gap(self, capsys):
        report = run_json(["pulse-fit", "--preset", "hadamard"], capsys)
        assert report["results"]["prescribed_pulse_gap"] == pytest.approx(2.0)
        assert report["results"]["residual"] < 1e-8
        assert report["warnings"]

    def test_pulse_phase_preset_in_model(self, capsys):
        report = run_json(["pulse-fit", "--preset", "pulse-phase:0.7"], capsys)
        assert report["results"]["residual"] < 1e-8

    def test_malformed_matrix(self, capsys):
        code, _, _ = run_cli(["pulse-fit", "--matrix", "1,2,3"], capsys)
        assert code == 1

    def test_non_unitary_matrix(self, capsys):
        code, _, _ = run_cli(
            ["pulse-fit", "--matrix", "1,0,0,0,0,0,2,0"], capsys
        )
        assert code == 1

    def test_explicit_matrix(self, capsys):
        s = 1 / math.sqrt(2)
        flat = [s, 0, s, 0, s, 0, -s, 0]
        report = run_json(
            ["pulse-fit", "--matrix", ",".join(str(v) for v in flat)], capsys
        )
        assert report["results"]["residual"] < 1e-8


class TestCalibrateClock:
    def test_accurate(self, capsys):
        report = run_json(
            ["calibrate-clock", "--duration", "1.0", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "1.0"],
            capsys,
        )
        assert report["results"]["verdict"] == "accurate"

    def test_deviation_increase(self, capsys):
        report = run_json(
            ["calibrate-clock", "--duration", "0.9", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "1.0",
             "--comparison-mode", "deviation"],
            capsys,
        )
        assert report["results"]["verdict"] == "increase-frequency"

    def test_zero_elapsed_scales(self, capsys):
        code, _, _ = run_cli(
            ["calibrate-clock", "--duration", "1.0", "--total-scales", "60",
             "--elapsed-scales", "0", "--t-ideal", "1.0"],
            capsys,
        )
        assert code == 1

    def test_varphi_input(self, capsys):
        report = run_json(
            ["calibrate-clock", "--varphi", "0.625", "--total-scales", "10",
             "--elapsed-scales", "10", "--t-ideal", "1.0",
             "--varpi", "1.0", "--n0", "1.0", "--n-vac", "1.0",
             "--r63", "1.0", "--e-field", "1.0"],
            capsys,
        )
        assert report["results"]["T"] == pytest.approx(3.5 * math.pi)


class TestFeasibility:
    def test_defaults(self, capsys):
        report = run_json(["feasibility"], capsys)
        results = report["results"]
        assert results["gamma"] == pytest.approx(9.99999e-7, rel=1e-5)
        assert results["max_qubits"] == 447
        assert results["omega_eff"] == {"value": pytest.approx(30.0), "unit": "MHz"}
        assert any("unit" in w for w in report["warnings"])

    def test_over_budget_warning(self, capsys):
        report = run_json(["feasibility", "--n-qubits", "450"], capsys)
        assert report["results"]["protocol_time_s"] == pytest.approx(10.1025)
        assert any("exceeds the coherence budget" in w for w in report["warnings"])

    def test_zero_detuning(self, capsys):
        code, _, _ = run_cli(["feasibility", "--delta", "0"], capsys)
        assert code == 1


class TestConfigFileAndReplay:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "phase_rad": "0.625turn", "seed": 1}))
        report = run_json(
            ["estimate", "--config", str(cfg), "--seed", "2"], capsys
        )
        assert report["config"]["m"] == 3
        assert report["config"]["seed"] == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "phase_rad": 1.0, "bogus": 1}))
        code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus" in err

    def test_command_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sweep"}))
        code, _, _ = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--m", "4", "--phase", "0.3turn", "--shots", "25",
             "--seed", "11"],
            ["sweep", "--m-values", "5,6", "--n", "3", "--random-phases", "5",
             "--seed", "4"],
            ["feasibility", "--n-qubits", "100"],
            ["pulse-fit", "--preset", "phase:0.3turn"],
            ["calibrate-clock", "--varphi", "0.625", "--total-scales", "10",
             "--elapsed-scales", "9", "--t-ideal", "1.0", "--comparison-mode",
             "literal", "--eta-percent", "90"],
        ],
    )
    def test_replay_from_echoed_config(self, capsys, tmp_path, args):
        first = run_json(args, capsys)
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(first["config"]))
        second = run_json([args[0], "--config", str(cfg)], capsys)
        assert json.dumps(second["results"], sort_keys=True) == json.dumps(
            first["results"], sort_keys=True
        )

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, out, err = run_cli(
            ["feasibility", "--output", "report.json"], capsys
        )
        assert code == 0, err
        assert (tmp_path / "report.json").exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = run_cli(["estimate", "--m", "not-a-number",
                              "--phase", "1"], capsys)
        assert code == 1

    def test_numerical_invariant_maps_to_2(self, capsys, monkeypatch):
        def boom(config):
            raise NumericalInvariantError("synthetic drift")

        monkeypatch.setattr(qpe, "readout_distribution", boom)
        code, _, err = run_cli(["estimate", "--m", "3", "--phase", "1.0"], capsys)
        assert code == 2
        assert "invariant" in err

    def test_non_finite_result_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "feasibility",
                            lambda cfg: ({"gamma": float("nan")}, []))
        code, out, err = run_cli(["feasibility"], capsys)
        assert code == 2 and out == ""
        assert "invariant" in err and "NaN" not in out


# sha256 of json.dumps(results, sort_keys=True) for ideal-mode configs: replay
# of an unchanged config must stay byte-identical, so any change to a result
# bit in the gate kernel, readout order or shot sampler fails here
GOLDEN_RESULTS = [
    (["estimate", "--m", "6", "--phase", "0.3", "--shots", "0"],
     "e0bf44c203f131727fc508493829e6f9eec32f9f8dbdd8453947a7baf81b75d6"),
    (["estimate", "--m", "12", "--phase", "0.3", "--shots", "0"],
     "775051224a1d60aa8d25452c9526fd6c74b0817544a2800492238c6a84968770"),
    (["estimate", "--m", "14", "--phase", "4.2", "--shots", "0"],
     "fb94e813a30fb7befe86cd97fad2ad432a57fea10963b7900fa4842e98cca9ac"),
    (["estimate", "--m", "6", "--phase", "1.1", "--shots", "0", "--include-target"],
     "6735a746881818d3a534cfc5f28011992def45c78e1d5c905352246271fec176"),
    (["estimate", "--m", "8", "--phase", "1.1", "--shots", "300", "--seed", "3"],
     "dffa6b37f5c5920ef60bec35579a8a7115cc293f552e5eb24e3e993afb219517"),
    (["estimate", "--m", "8", "--phase", "1.1", "--shots", "300", "--seed", "3",
      "--include-target"],
     "dffa6b37f5c5920ef60bec35579a8a7115cc293f552e5eb24e3e993afb219517"),
    (["estimate", "--m", "8", "--phase", "1.1", "--shots", "300", "--seed", "3",
      "--full-distribution"],
     "690ab4b4df2209722f2cf66ab97e208dd6d9860a64377dd6747eedfe7a4b9f20"),
    (["estimate", "--m", "5", "--phase", "2.0", "--shots", "50", "--seed", "11",
      "--include-target", "--full-distribution"],
     "406e580971fcc28515acd8e3e07d78c4d9b8551ccefa04726fbab66c8ad3af19"),
    (["sweep", "--m-values", "5,7", "--n", "3", "--random-phases", "4", "--seed", "2"],
     "dc1612eb8a8482cd718f0b8fd749050f32006bb691c028dfd4a9dbe134d94811"),
    (["sweep", "--m-values", "6", "--n", "2", "--phases", "0.1,0.3turn,2.5rad"],
     "20590c910ccae8b57ca6a898af743e16411ffb67d6a8164bb99ae01917b1898e"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_RESULTS)
def test_results_match_golden_digest(args, digest):
    buf = io.StringIO()
    assert cli.run(args, stdout=buf) == 0
    results = json.loads(buf.getvalue())["results"]
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "args",
        [
            ["pulse-fit", "--matrix", "1,0,0,0,0,0,nan,0"],
            ["pulse-fit", "--matrix", "1,0,0,0,0,0,inf,0"],
            ["calibrate-clock", "--duration", "nan", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "1.0"],
            ["calibrate-clock", "--duration", "1.0", "--total-scales", "60",
             "--elapsed-scales", "60", "--t-ideal", "inf"],
        ],
    )
    def test_non_finite_input_exits_1(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == "" and "error" in err

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"include_target": "false"}, "include_target"),
            ({"full_distribution": 1}, "full_distribution"),
            ({"m": 3.9}, "'m'"),
            ({"m": True}, "'m'"),
            ({"shots": 2.5}, "shots"),
            ({"seed": [1]}, "seed"),
        ],
    )
    def test_estimate_config_types_are_strict(self, capsys, tmp_path, values, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3, "phase_rad": 1.0, **values}))
        code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 1
        assert key in err

    def test_integral_float_is_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 3.0, "phase_rad": 1.0}))
        report = run_json(["estimate", "--config", str(cfg)], capsys)
        assert report["config"]["m"] == 3 and isinstance(report["config"]["m"], int)

    def test_sweep_m_values_reject_fractions(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_values": [5, 6.5], "n": 2, "phases_rad": [1.0]}))
        code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1
        assert "6.5" in err


# Every flag of every subcommand, as flag -> config key. The parser is built
# from cli._SCHEMAS, so a schema edit that renames or drops a flag fails here.
COMMON_FLAGS = {"-h": "help", "--help": "help", "--config": "config", "--output": "output"}
FLAGS = {
    "estimate": {
        "--m": "m", "--phase": "phase_rad", "--mode": "mode", "--shots": "shots",
        "--seed": "seed", "--include-target": "include_target",
        "--full-distribution": "full_distribution", "--format": "format",
    },
    "sweep": {
        "--m-values": "m_values", "--n": "n", "--phases": "phases_rad",
        "--random-phases": "random_phases", "--mode": "mode", "--seed": "seed",
        "--format": "format",
    },
    "pulse-fit": {"--preset": "preset", "--matrix": "matrix", "--format": "format"},
    "calibrate-clock": {
        "--duration": "duration_s", "--varphi": "varphi",
        "--total-scales": "total_scales", "--elapsed-scales": "elapsed_scales",
        "--t-ideal": "t_ideal_s", "--eta-percent": "eta_percent",
        "--comparison-mode": "comparison_mode", "--varpi": "varpi", "--n0": "n0",
        "--n-vac": "n_vac", "--r63": "r63", "--e-field": "e_field", "--v": "v",
        "--c": "c", "--format": "format",
    },
    "feasibility": {
        "--omega1": "omega1_mev", "--omega2": "omega2_mev",
        "--omega-c": "omega_c_mhz", "--delta": "delta_mev",
        "--tunneling-t": "tunneling_t_mev", "--level-split": "level_split_delta_mev",
        "--coherence-time": "coherence_time_s",
        "--single-gate-time": "single_gate_time_s",
        "--two-gate-time": "two_gate_time_s", "--n-qubits": "n_qubits",
        "--format": "format",
    },
}


def test_flag_spellings_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAGS)
    for command, p in sub.choices.items():
        got = {flag: a.dest for a in p._actions for flag in a.option_strings}
        assert got == {**COMMON_FLAGS, **FLAGS[command]}, command


# the smallest valid config file of each subcommand
BASE_CONFIG = {
    "estimate": {"m": 3, "phase_rad": 1.0},
    "sweep": {"m_values": [5], "n": 3, "phases_rad": [1.0]},
    "pulse-fit": {"preset": "hadamard"},
    "calibrate-clock": {"duration_s": 1.0, "total_scales": 60,
                        "elapsed_scales": 60, "t_ideal_s": 1.0},
    "feasibility": {},
}


def run_config(command, values, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE_CONFIG[command], **values}))
    return run_cli([command, "--config", str(cfg)], capsys)


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("estimate", {"mode": "bogus"}, "mode"),
        ("sweep", {"mode": "bogus"}, "mode"),
        ("calibrate-clock", {"comparison_mode": "bogus"}, "comparison_mode"),
        ("feasibility", {"format": "xml"}, "format"),
        ("sweep", {"format": "xml"}, "format"),
        ("estimate", {"format": "csv"}, "format"),
        ("pulse-fit", {"format": "csv"}, "format"),
        ("estimate", {"phase_rad": True}, "phase_rad"),
        ("sweep", {"phases_rad": [1.0, False]}, "phases_rad"),
        ("calibrate-clock", {"varpi": True}, "varpi"),
        ("feasibility", {"delta_mev": True}, "delta_mev"),
        ("pulse-fit", {"preset": None, "matrix": [True, 0, 0, 0, 0, 0, 1, 0]}, "matrix"),
    ],
)
def test_file_values_pass_the_flag_checks(capsys, tmp_path, command, values, key):
    code, out, err = run_config(command, values, capsys, tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


NEGATIVE_COUNTS = [
    ("estimate", {"m": 3, "phase_rad": 1.0, "shots": 2, "seed": -1}, "seed"),
    ("sweep", {"m_values": "5", "n": 3, "random_phases": 2, "seed": -1}, "seed"),
    ("sweep", {"m_values": "5", "n": 3, "random_phases": -3}, "random_phases"),
]


@pytest.mark.parametrize("via", ["flags", "file"])
@pytest.mark.parametrize("command, values, key", NEGATIVE_COUNTS)
def test_negative_seed_and_count_exit_1(capsys, tmp_path, via, command, values, key):
    if via == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = [command, "--config", str(cfg)]
    else:
        flag = {"phase_rad": "--phase"}  # the one key here not spelt --key-with-dashes
        args = [command] + [x for k, v in values.items()
                            for x in (flag.get(k, "--" + k.replace("_", "-")), str(v))]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("estimate", ["--m", "3", "--phase", "1.0", "--shots", str(qpe.MAX_SHOTS + 1)],
         "shots"),
        ("sweep", ["--m-values", "5", "--n", "3",
                   "--random-phases", str(cli.MAX_RANDOM_PHASES + 1)], "random_phases"),
    ],
)
def test_counts_above_their_cap_exit_1(capsys, command, flags, key):
    code, out, err = run_cli([command] + flags, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and repr(key) in err


def test_malformed_config_file_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"m": 3, "phase_rad": 1.0,')
    code, out, err = run_cli(["estimate", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "JSON" in err
