"""Command-line front end.

Subcommands: estimate, sweep, pulse-fit, calibrate-clock, feasibility.
Parameters come from flags or a JSON config file (flags win); every report
echoes its resolved config so any run can be replayed from its own output.
Exit codes: 0 success, 1 usage/validation, 2 internal numerical invariant
violation.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict

import numpy as np

from . import __version__
from . import calibration as cal
from . import pulses, qpe
from . import statevector as sv
from .errors import NumericalInvariantError, ValidationError

OUTPUT_DIR_ENV = "DOTPHASE_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ValidationError(message)


def parse_angle(text) -> float:
    """Angle in radians; accepts a bare number, 'Xrad', or 'Xturn' (2*pi*X)."""
    if isinstance(text, (int, float)):
        return float(text)
    t = str(text).strip().lower()
    try:
        if t.endswith("turn"):
            return float(t[:-4]) * math.tau
        if t.endswith("rad"):
            return float(t[:-3])
        return float(t)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r}") from None


def _as_int(value) -> int:
    """Integer config value; a bool or a non-integral number is refused
    instead of being truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"expected an integer, got {value!r}")
    return int(value)


def _as_bool(value) -> bool:
    """Boolean config value: only JSON true or false."""
    if not isinstance(value, bool):
        raise ValidationError(f"expected true or false, got {value!r}")
    return value


def _parse_int_list(text) -> list[int]:
    if not isinstance(text, list):
        text = [x for x in str(text).split(",") if x.strip() != ""]
    return [_as_int(x) for x in text]


def _parse_angle_list(text) -> list[float]:
    if isinstance(text, list):
        return [parse_angle(x) for x in text]
    return [parse_angle(x) for x in str(text).split(",") if x.strip() != ""]


# Per-subcommand config keys: name -> (coercer, default). ``required`` keys
# use the _REQUIRED sentinel. Unknown file keys are rejected.
_REQUIRED = object()

_SCHEMAS = {
    "estimate": {
        "m": (_as_int, _REQUIRED),
        "phase_rad": (parse_angle, _REQUIRED),
        "mode": (str, "ideal"),
        "shots": (_as_int, 0),
        "seed": (_as_int, 0),
        "include_target": (_as_bool, False),
        "full_distribution": (_as_bool, False),
        "format": (str, "json"),
    },
    "sweep": {
        "m_values": (_parse_int_list, _REQUIRED),
        "n": (_as_int, _REQUIRED),
        "phases_rad": (_parse_angle_list, None),
        "random_phases": (_as_int, None),
        "mode": (str, "ideal"),
        "seed": (_as_int, 0),
        "format": (str, "json"),
    },
    "pulse-fit": {
        "preset": (str, None),
        "matrix": (lambda t: [float(x) for x in (t.split(",") if isinstance(t, str) else t)], None),
        "format": (str, "json"),
    },
    "calibrate-clock": {
        "duration_s": (float, None),
        "varphi": (float, None),
        "total_scales": (_as_int, _REQUIRED),
        "elapsed_scales": (_as_int, _REQUIRED),
        "t_ideal_s": (float, _REQUIRED),
        "eta_percent": (float, 100.0),
        "comparison_mode": (str, "deviation"),
        "varpi": (float, 2 * math.pi * 1e10),
        "n0": (float, 1.51),
        "n_vac": (float, 1.0),
        "r63": (float, 10.6e-12),
        "e_field": (float, 1e6),
        "v": (float, 1.9854e8),
        "c": (float, 299792458.0),
        "format": (str, "json"),
    },
    "feasibility": {
        "omega1_mev": (float, 1e-4),
        "omega2_mev": (float, 0.1),
        "omega_c_mhz": (float, 300.0),
        "delta_mev": (float, 1.0),
        "tunneling_t_mev": (float, 0.01),
        "level_split_delta_mev": (float, 10.0),
        "coherence_time_s": (float, 10.0),
        "single_gate_time_s": (float, 3e-7),
        "two_gate_time_s": (float, 1e-4),
        "n_qubits": (_as_int, None),
        "format": (str, "json"),
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="dotphase", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="write the report here instead of stdout")
        return p

    p = add("estimate", "run one phase-estimation experiment")
    p.add_argument("--m", type=int)
    p.add_argument("--phase", dest="phase_rad",
                   help="true phase: radians, 'Xrad', or 'Xturn'")
    p.add_argument("--mode", choices=["ideal", "pulse-literal"])
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--include-target", dest="include_target",
                   action="store_const", const=True)
    p.add_argument("--full-distribution", dest="full_distribution",
                   action="store_const", const=True)
    p.add_argument("--format", choices=["json"])

    p = add("sweep", "tabulate empirical success against the bound")
    p.add_argument("--m-values", dest="m_values", help="comma list, e.g. 5,6,7")
    p.add_argument("--n", type=int)
    p.add_argument("--phases", dest="phases_rad",
                   help="comma list of angles (radians/'rad'/'turn')")
    p.add_argument("--random-phases", dest="random_phases", type=int,
                   help="draw this many uniform phases instead of a list")
    p.add_argument("--mode", choices=["ideal", "pulse-literal"])
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["json", "csv"])

    p = add("pulse-fit", "fit pulse parameters to a target 2x2 gate")
    p.add_argument("--preset",
                   help="hadamard | phase:PHI | pulse-hadamard | pulse-phase:PHI")
    p.add_argument("--matrix",
                   help="8 comma-separated reals, row-major re,im pairs")
    p.add_argument("--format", choices=["json"])

    p = add("calibrate-clock", "judge a clock from a phase-encoded duration")
    p.add_argument("--duration", dest="duration_s", type=float,
                   help="measured duration T in seconds")
    p.add_argument("--varphi", type=float,
                   help="estimated turn fraction in [0,1) instead of --duration")
    p.add_argument("--total-scales", dest="total_scales", type=int)
    p.add_argument("--elapsed-scales", dest="elapsed_scales", type=int)
    p.add_argument("--t-ideal", dest="t_ideal_s", type=float)
    p.add_argument("--eta-percent", dest="eta_percent", type=float)
    p.add_argument("--comparison-mode", dest="comparison_mode",
                   choices=["literal", "deviation"])
    for flag, dest in (
        ("--varpi", "varpi"), ("--n0", "n0"), ("--n-vac", "n_vac"),
        ("--r63", "r63"), ("--e-field", "e_field"), ("--v", "v"), ("--c", "c"),
    ):
        p.add_argument(flag, dest=dest, type=float)
    p.add_argument("--format", choices=["json"])

    p = add("feasibility", "device feasibility arithmetic")
    for flag, dest in (
        ("--omega1", "omega1_mev"), ("--omega2", "omega2_mev"),
        ("--omega-c", "omega_c_mhz"), ("--delta", "delta_mev"),
        ("--tunneling-t", "tunneling_t_mev"),
        ("--level-split", "level_split_delta_mev"),
        ("--coherence-time", "coherence_time_s"),
        ("--single-gate-time", "single_gate_time_s"),
        ("--two-gate-time", "two_gate_time_s"),
    ):
        p.add_argument(flag, dest=dest, type=float)
    p.add_argument("--n-qubits", dest="n_qubits", type=int)
    p.add_argument("--format", choices=["json"])

    return parser


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults; reject unknown keys."""
    schema = _SCHEMAS[command]
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValidationError("config file must hold a JSON object")
        for key in file_values:
            if key == "command":
                if file_values[key] != command:
                    raise ValidationError(
                        f"config file is for {file_values[key]!r}, not {command!r}"
                    )
            elif key not in schema:
                raise ValidationError(f"unknown config key {key!r}")
    resolved = {"command": command}
    for key, (coerce, default) in schema.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            value = file_values[key]
        if value is None:
            if default is _REQUIRED:
                raise ValidationError(f"missing required parameter {key!r}")
            resolved[key] = default
            continue
        try:
            resolved[key] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad value for {key!r}: {exc}") from None
    return resolved


def cmd_estimate(cfg: dict) -> tuple[dict, list]:
    config = qpe.QpeConfig(
        m=cfg["m"],
        true_phase_phi=cfg["phase_rad"],
        gate_mode=qpe.GateMode(cfg["mode"]),
        include_target_qubit=cfg["include_target"],
        shots=cfg["shots"],
        seed=cfg["seed"],
    )
    dist = qpe.readout_distribution(config)
    m, phi = config.m, config.true_phase_phi
    results: dict = {"m": m, "true_phase_rad": phi}
    if config.shots == 0:
        j = int(np.argmax(dist.probs))
        phi_hat = math.tau * j / 2 ** m
        results.update(
            readout_integer=j,
            readout_bits=[int(b) for b in format(j, f"0{m}b")],
            estimated_phase_rad=phi_hat,
            eta_percent=phi_hat / phi * 100.0,
            abs_error_turns=float(
                qpe.circular_distance(phi_hat / math.tau, phi / math.tau)
            ),
            max_probability=float(dist.probs[j]),
        )
    else:
        seeds = [qpe.shot_seed(config.seed, i) for i in range(config.shots)]
        draws = sv.sample(dist.probs, seeds).tolist()
        shot_rows = [math.tau * j / 2 ** m for j in draws]
        results.update(
            shots=config.shots,
            estimates_rad=shot_rows,
            eta_percent=[e / phi * 100.0 for e in shot_rows],
            counts={str(k): v for k, v in sorted(Counter(draws).items())},
        )
    if cfg["full_distribution"] or (2 ** m <= 4096 and config.shots == 0):
        results["distribution"] = [float(p) for p in dist.probs]
    return results, []


def cmd_sweep(cfg: dict) -> tuple[dict, list]:
    mode = qpe.GateMode(cfg["mode"])
    n = cfg["n"]
    m_values = cfg["m_values"]
    if not m_values:
        raise ValidationError("m_values must be nonempty")
    for m in m_values:
        if m < n + 2:
            raise ValidationError(
                f"m = {m} gives an undefined bound; need m >= n + 2 = {n + 2}"
            )
    if cfg["phases_rad"]:
        phis = cfg["phases_rad"]
    elif cfg["random_phases"]:
        rng = np.random.default_rng(cfg["seed"])
        phis = [float(p) or math.tau
                for p in rng.uniform(0.0, math.tau, cfg["random_phases"])]
    else:
        raise ValidationError("provide --phases or --random-phases")
    for p in phis:
        if not (0.0 < p <= math.tau):
            raise ValidationError(f"phase {p} outside (0, 2*pi]")
    rows = []
    for m in m_values:
        bound = qpe.success_probability_bound(m, n)
        for phi in phis:
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "phi_rad": phi,
                    "empirical_success": qpe.empirical_success(m, n, phi, mode),
                    "bound": bound,
                }
            )
    return {"rows": rows}, []


_PULSE_PRESETS = ("hadamard", "phase", "pulse-hadamard", "pulse-phase")


def _resolve_pulse_target(cfg: dict):
    """Returns (target matrix, prescribed-gap info or None)."""
    preset, matrix = cfg["preset"], cfg["matrix"]
    if (preset is None) == (matrix is None):
        raise ValidationError("give exactly one of --preset and --matrix")
    if matrix is not None:
        if len(matrix) != 8:
            raise ValidationError("matrix needs 8 reals (row-major re,im pairs)")
        vals = [complex(matrix[k], matrix[k + 1]) for k in range(0, 8, 2)]
        return np.array(vals, dtype=np.complex128).reshape(2, 2), None
    name, _, arg = preset.partition(":")
    if name not in _PULSE_PRESETS:
        raise ValidationError(f"unknown preset {preset!r}")
    if name == "hadamard":
        prescribed = pulses.single_pulse_unitary(pulses.hadamard_pulse_params())
        return qpe.IDEAL_HADAMARD, ("hadamard", prescribed, qpe.IDEAL_HADAMARD)
    if name == "pulse-hadamard":
        return pulses.single_pulse_unitary(pulses.hadamard_pulse_params()), None
    phi = parse_angle(arg) if arg else None
    if phi is None:
        raise ValidationError(f"preset {name!r} needs an angle, e.g. {name}:0.7")
    prescribed = pulses.single_pulse_unitary(pulses.phase_gate_pulse_params(phi))
    if name == "phase":
        ideal = np.diag([1.0, np.exp(1j * phi)]).astype(np.complex128)
        return ideal, (f"phase:{phi:g}", prescribed, ideal)
    return prescribed, None


def cmd_pulse_fit(cfg: dict) -> tuple[dict, list]:
    target, gap_info = _resolve_pulse_target(cfg)
    spec, residual = pulses.fit_pulse(target)
    results = {
        "target": [[z.real, z.imag] for z in target.reshape(-1)],
        "fit": {
            "rabi_angle_rad": spec.rabi_angle,
            "phase_rad": spec.phase,
        },
        "residual": residual,
    }
    warnings = []
    if gap_info is not None:
        name, prescribed, ideal = gap_info
        gap = pulses.gate_distance(prescribed, ideal)
        results["prescribed_pulse_gap"] = gap
        if gap > 1e-9:
            warnings.append(
                f"the prescribed pulse parameters for {name} sit at "
                f"phase-invariant distance {gap:g} from the ideal gate"
            )
    return results, warnings


def cmd_calibrate_clock(cfg: dict) -> tuple[dict, list]:
    eo = cal.ElectroOpticParams(
        varpi=cfg["varpi"], n0=cfg["n0"], n_vac=cfg["n_vac"],
        r63=cfg["r63"], e_field=cfg["e_field"], v=cfg["v"], c=cfg["c"],
    )
    if (cfg["duration_s"] is None) == (cfg["varphi"] is None):
        raise ValidationError("give exactly one of --duration and --varphi")
    if cfg["varphi"] is not None:
        T = cal.phase_to_time(cfg["varphi"], eo)
    else:
        T = cfg["duration_s"]
    record = cal.calibrate_clock(
        T=T,
        O=cfg["total_scales"],
        h=cfg["elapsed_scales"],
        T_ideal=cfg["t_ideal_s"],
        eta_percent=cfg["eta_percent"],
        comparison_mode=cal.ComparisonMode(cfg["comparison_mode"]),
    )
    results = asdict(record)
    results["verdict"] = record.verdict.value
    results["comparison_mode"] = record.comparison_mode.value
    results["length_estimate_m"] = cal.length_estimate(eo.v, T)
    return results, []


def cmd_feasibility(cfg: dict) -> tuple[dict, list]:
    pp = pulses.PhysicalParams(
        omega1=cfg["omega1_mev"],
        omega2=cfg["omega2_mev"],
        omega_c=cfg["omega_c_mhz"],
        delta=cfg["delta_mev"],
        tunneling_t=cfg["tunneling_t_mev"],
        level_split_delta=cfg["level_split_delta_mev"],
        coherence_time=cfg["coherence_time_s"],
        single_gate_time=cfg["single_gate_time_s"],
        two_gate_time=cfg["two_gate_time_s"],
    )
    report = pulses.feasibility_report(pp, cfg["n_qubits"])
    results = {
        "gamma": report.gamma,
        "omega_eff": {"value": report.omega_eff.value,
                      "unit": report.omega_eff.unit},
        "single_gate_time_s": report.single_gate_time,
        "two_gate_time_s": report.two_gate_time,
        "protocol_time_s": report.protocol_time,
        "max_qubits": report.max_qubits,
        "requested_qubits": report.requested_qubits,
    }
    return results, list(report.warnings)


_HANDLERS = {
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
    "pulse-fit": cmd_pulse_fit,
    "calibrate-clock": cmd_calibrate_clock,
    "feasibility": cmd_feasibility,
}


def _sweep_csv(results: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "n", "phi_rad", "empirical_success", "bound"])
    for row in results["rows"]:
        writer.writerow(
            [row["m"], row["n"], repr(row["phi_rad"]),
             repr(row["empirical_success"]), repr(row["bound"])]
        )
    return buf.getvalue()


def _output_path(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def run(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args.command, args)
    started = time.monotonic()
    results, warnings = _HANDLERS[args.command](cfg)
    elapsed = time.monotonic() - started
    report = {
        "config": cfg,
        "results": results,
        "warnings": warnings,
        "versions": {"artifact": __version__},
        "timing": {"wall_seconds": elapsed},
    }
    if cfg.get("format") == "csv":
        if args.command != "sweep":
            raise ValidationError("csv output is only available for sweep")
        text = _sweep_csv(results)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = _output_path(getattr(args, "output", None))
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(path, file=stdout)
    else:
        stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
