"""Tests of the benchmark itself: its checker, its failure accounting and
its tracing."""
import copy
import io
import json
import math

import numpy as np
import pytest

import calls
import reference
import run
from dotphase import cli


def _report(cfg: dict) -> dict:
    buf = io.StringIO()
    cli.run(["estimate", "--m", str(cfg["m"]), "--phase", repr(cfg["phase_rad"]),
             "--mode", cfg["mode"], "--shots", str(cfg["shots"]),
             "--seed", str(cfg["seed"])], stdout=buf)
    return json.loads(buf.getvalue())


def _estimate(m, phase, mode="ideal", shots=0, seed=0):
    return {"command": "estimate", "m": m, "phase_rad": phase, "mode": mode,
            "shots": shots, "seed": seed, "include_target": False,
            "full_distribution": False, "format": "json"}


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path)


@pytest.mark.parametrize("m", [1, 3, 6, 8])
@pytest.mark.parametrize("mode", ["ideal", "pulse-literal"])
@pytest.mark.parametrize("include_target", [False, True])
def test_references_agree(m, mode, include_target):
    phi = 2.0 + 0.37 * m
    dense = reference.dense_probs(m, phi, mode, include_target)
    tree = reference.tree_probs(m, phi, mode, include_target)
    assert np.max(np.abs(dense - tree)) < 1e-12
    if mode == "ideal":
        assert np.max(np.abs(dense - reference.kernel_probs(m, phi))) < 1e-12


@pytest.mark.parametrize("mode", ["ideal", "pulse-literal"])
def test_checker_rejects_perturbed_distribution(mode):
    cfg = _estimate(6, 1.234, mode)
    report = _report(cfg)
    assert reference.check(cfg, report) == []
    bad = copy.deepcopy(report)
    bad["results"]["distribution"][5] += 1e-6
    assert any("distribution" in p for p in reference.check(cfg, bad))


def test_checker_rejects_wrong_shot_count():
    cfg = _estimate(6, 1.234, shots=300, seed=4)
    report = _report(cfg)
    assert reference.check(cfg, report) == []
    bad = copy.deepcopy(report)
    key = next(iter(bad["results"]["counts"]))
    bad["results"]["counts"][key] += 1
    assert any("counts sum" in p for p in reference.check(cfg, bad))
    moved = copy.deepcopy(report)
    counts = moved["results"]["counts"]
    top = max(counts, key=counts.get)
    counts[top] -= 40
    counts["0" if top != "0" else "1"] = counts.get("0" if top != "0" else "1", 0) + 40
    assert reference.check(cfg, moved) != []


def test_failing_pulse_literal_call_is_counted(runner):
    rng = np.random.default_rng(2024)
    for _ in range(8):
        phi = 2 * math.pi - float(rng.uniform(0, 2 * math.pi))
        outcomes = runner.loop([("m16-pulse-literal", _estimate(16, phi, "pulse-literal"))])
        if outcomes[0]["status"] != "ok":
            break
    else:
        pytest.skip("no pulse-literal m = 16 call fails: the unitarity defect is fixed")
    (failed,) = outcomes
    assert failed["status"] == "defect" and failed["code"] == 1
    assert "not unitary" in failed["detail"]
    ok = runner.loop([("m8", _estimate(8, 1.0))])
    metrics, extra = run.end_to_end(outcomes + ok, setup=[1.0])
    assert extra["error_rate"] == 0.5
    assert extra["successful_calls"] == 1
    assert metrics["call_ref.p50"] == ok[0]["ref"] == ok[0]["seconds"] / ok[0]["ref_s"]
    assert extra["call_s.p50"] == ok[0]["seconds"]


def test_call_unit_comes_from_the_probes_beside_it(runner, monkeypatch):
    probes = iter([1.0, 2.0, 3.0, 4.0])
    monkeypatch.setattr(runner, "probe", type("Probe", (), {"probe_s": lambda: next(probes)}))
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.0)
    monkeypatch.setattr(run, "PROBE_SPAN", 1)
    outcomes = runner.loop([("m3", _estimate(3, 1.0 + k)) for k in range(3)])
    assert [o["ref_s"] for o in outcomes] == [1.5, 2.5, 3.5]
    assert all(o["ref"] == o["seconds"] / o["ref_s"] for o in outcomes)


def test_call_count_follows_seconds_not_speed():
    assert run.n_calls("exact-large", 20) == round(20 * run.CALLS_PER_S["exact-large"])
    assert run.n_calls("pulse-fit", 0.001) == 1


def test_traced_and_untraced_results_match(runner, tmp_path):
    mixed = [
        ("m8-pulse-literal", _estimate(8, 2.5, "pulse-literal")),
        ("shots", _estimate(7, 0.9, shots=50, seed=3)),
        ("sweep", {"command": "sweep", "m_values": [5, 7], "n": 3, "phases_rad": None,
                   "random_phases": 3, "mode": "pulse-literal", "seed": 1, "format": "json"}),
        ("preset", {"command": "pulse-fit", "preset": "hadamard", "matrix": None,
                    "format": "json"}),
    ]
    outcomes, layer, mismatched = run.traced_run(runner, mixed, tmp_path / "s.gz")
    assert mismatched == 0
    assert [o["status"] for o in outcomes] == ["ok"] * 8
    assert layer["pulses.fit_calls"] == 0.25
    assert layer["qpe.shot_seed_calls"] == 50 / 4
    assert layer["cli.sample_s"] > 0
    assert {m["name"] for m in run.declared_metrics("per_layer")} <= set(layer)


def test_gate_count_of_one_ideal_m16_call(runner, tmp_path):
    one = [("m16-ideal", _estimate(16, 4.2))]
    _, layer, mismatched = run.traced_run(runner, one, tmp_path / "s.gz")
    assert mismatched == 0
    m = 16
    assert layer["statevector.gate_calls"] == 3 * m + 5 * m * (m - 1) // 2 == 648
    assert layer["cli.sample_s"] == 0.0
    assert layer["statevector.peak_state_bytes"] == 16 * 2 ** m


def test_pulse_fit_workload_runs_no_gates(runner, tmp_path):
    first = list(zip(range(16), calls.calls("pulse-fit", 3)))
    outcomes, layer, _ = run.traced_run(
        runner, [c for _, c in first], tmp_path / "s.gz")
    assert all(o["status"] == "ok" for o in outcomes)
    assert layer["statevector.gate_calls"] == 0
    assert layer["pulses.fit_calls"] > 0 and layer["calibration.calls"] > 0


@pytest.mark.parametrize("workload", calls.WORKLOADS)
def test_call_lists_follow_the_seed(workload):
    def head(seed):
        return [c for _, c in zip(range(12), calls.calls(workload, seed))]

    assert head(5) == head(5)
    assert head(5) != head(6)


def test_tail_has_ten_calls_beyond_it():
    assert run.tail([float(i) for i in range(25)]) == (14.0, 60.0, 1)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 1)
    # 300 calls: three windows of 100, each tail the 90th smallest value
    value, percentile, windows = run.tail([float(i % 100) for i in range(300)])
    assert (value, percentile, windows) == (89.0, 90.0, 3)
