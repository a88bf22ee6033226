"""Command-line front end.

Subcommands: estimate, sweep, pulse-fit, calibrate-clock, feasibility.
Parameters come from flags or a JSON config file (flags win); every report
echoes its resolved config so any run can be replayed from its own output.
Exit codes: 0 success, 1 usage/validation, 2 internal numerical invariant
violation.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

from . import __version__
from . import calibration as cal
from . import pulses
from .errors import NumericalInvariantError, ValidationError

OUTPUT_DIR_ENV = "DOTPHASE_OUTPUT_DIR"
# Shots per experiment: every shot is a seed, a draw and two entries of the
# JSON report (about 50 bytes), so a million shots already make ~50 MB.
MAX_SHOTS = 1_000_000
# 128 bits, as fresh SeedSequence entropy; each shot's entropy repeats it
MAX_SEED = 2 ** 128 - 1
# Sweep phases, drawn or listed: each one is a row per m value of the tree
# stacks that qpe.sweep_successes grows, all m values a call, and a report
# row per m value.
MAX_RANDOM_PHASES = 10_000
# Raised on each deliberate change to the bits of ``results``, so that a
# reader can tell a report made before it from one made after; outside
# ``results``, so replay stays byte-identical. 2: sweep masses come from the
# measure-as-you-go tree (qpe.tree_distributions). 3: pulses.gate_distance
# works on Python floats instead of a BLAS trace, which moves pulse-fit
# residuals and gaps by a few ulp. 4: pulse fits in closed form, which moves
# pulse-fit angles and residuals to the exact optimum. 5: sampled estimates
# draw from the tree, which moves their --full-distribution lists by a few
# ulp; no draw moved in the runs checked. 6: the tree's chances are A +
# Re(B g), which moves sweep masses and those lists by a few ulp.
RESULTS_VERSION = 6


class _Parser(argparse.ArgumentParser):
    # usage problems must map to exit code 1, not argparse's default 2
    def error(self, message):
        raise ValidationError(message)


def parse_angle(text) -> float:
    """Angle in radians; accepts a bare number, 'Xrad', or 'Xturn' (2*pi*X)."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
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


def _count_upto(cap: float = math.inf):
    def coerce(value) -> int:
        n = _as_int(value)
        if n < 0:
            raise ValidationError(f"expected a non-negative integer, got {value!r}")
        if n > cap:
            raise ValidationError(f"expected at most {cap}, got {n}")
        return n
    return coerce


_as_count = _count_upto()


def _as_float(value) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"expected a number, got {value!r}")
    return float(value)


def _as_bool(value) -> bool:
    """Boolean config value: only JSON true or false."""
    if not isinstance(value, bool):
        raise ValidationError(f"expected true or false, got {value!r}")
    return value


def _choice(*allowed):
    def coerce(value):
        if value not in allowed:
            raise ValidationError(f"expected one of {', '.join(allowed)}; got {value!r}")
        return value
    return coerce


def _choice_of(enum):
    """``_choice`` of the values of ``enum``'s members, in their order."""
    return _choice(*(member.value for member in enum))


def _list_of(coerce, cap: float = math.inf):
    """A JSON list, or a comma-separated string whose empty items are
    skipped, of at most ``cap`` items."""
    def parse(value) -> list:
        if not isinstance(value, list):
            value = [x for x in str(value).split(",") if x.strip() != ""]
        if len(value) > cap:
            raise ValidationError(f"expected at most {cap} items, got {len(value)}")
        return [coerce(x) for x in value]
    return parse


class _Key(NamedTuple):
    coerce: Callable
    default: object = None
    flag: str | None = None  # when not --key-with-dashes
    help: str | None = None


# Per subcommand: (help, {config key: _Key}), the only declaration of a key.
# build_parser makes the flags from it; a flag passes its raw string (True for
# a boolean key), so flag and file values go through the same coercer.
# Required keys default to _REQUIRED. Unknown file keys are rejected.
_REQUIRED = object()
_MODE = _Key(_choice_of(pulses.GateMode), pulses.GateMode.IDEAL.value)
_SEED = _Key(_count_upto(MAX_SEED), 0)
_JSON = _Key(_choice("json"), "json")

_SCHEMAS = {
    "estimate": ("run one phase-estimation experiment", {
        "m": _Key(_as_int, _REQUIRED),
        "phase_rad": _Key(parse_angle, _REQUIRED, "--phase",
                          "true phase: radians, 'Xrad', or 'Xturn'"),
        "mode": _MODE,
        "shots": _Key(_count_upto(MAX_SHOTS), 0),
        "seed": _SEED,
        "include_target": _Key(_as_bool, False),
        "full_distribution": _Key(_as_bool, False),
        "format": _JSON,
    }),
    "sweep": ("tabulate empirical success against the bound", {
        "m_values": _Key(_list_of(_as_int), _REQUIRED, help="comma list, e.g. 5,6,7"),
        "n": _Key(_as_count, _REQUIRED),
        "phases_rad": _Key(_list_of(parse_angle, MAX_RANDOM_PHASES), None, "--phases",
                           "comma list of angles (radians/'rad'/'turn')"),
        "random_phases": _Key(_count_upto(MAX_RANDOM_PHASES), None,
                              help="draw this many uniform phases instead of a list"),
        "mode": _MODE,
        "seed": _SEED,
        "format": _Key(_choice("json", "csv"), "json"),
    }),
    "pulse-fit": ("fit pulse parameters to a target 2x2 gate", {
        "preset": _Key(str, help="hadamard | phase:PHI | pulse-hadamard | pulse-phase:PHI"),
        "matrix": _Key(_list_of(_as_float),
                       help="8 comma-separated reals, row-major re,im pairs"),
        "format": _JSON,
    }),
    "calibrate-clock": ("judge a clock from a phase-encoded duration", {
        "duration_s": _Key(_as_float, None, "--duration", "measured duration T in seconds"),
        "varphi": _Key(_as_float,
                       help="estimated turn fraction in [0,1) instead of --duration"),
        "total_scales": _Key(_as_int, _REQUIRED),
        "elapsed_scales": _Key(_as_int, _REQUIRED),
        "t_ideal_s": _Key(_as_float, _REQUIRED, "--t-ideal"),
        "eta_percent": _Key(_as_float, 100.0),
        "comparison_mode": _Key(_choice_of(cal.ComparisonMode),
                                cal.ComparisonMode.DEVIATION.value),
        "varpi": _Key(_as_float, 2 * math.pi * 1e10),
        "n0": _Key(_as_float, 1.51),
        "n_vac": _Key(_as_float, 1.0),
        "r63": _Key(_as_float, 10.6e-12),
        "e_field": _Key(_as_float, 1e6),
        "v": _Key(_as_float, 1.9854e8),
        "c": _Key(_as_float, 299792458.0),
        "format": _JSON,
    }),
    "feasibility": ("device feasibility arithmetic", {
        "omega1_mev": _Key(_as_float, 1e-4, "--omega1"),
        "omega2_mev": _Key(_as_float, 0.1, "--omega2"),
        "omega_c_mhz": _Key(_as_float, 300.0, "--omega-c"),
        "delta_mev": _Key(_as_float, 1.0, "--delta"),
        "tunneling_t_mev": _Key(_as_float, 0.01, "--tunneling-t"),
        "level_split_delta_mev": _Key(_as_float, 10.0, "--level-split"),
        "coherence_time_s": _Key(_as_float, 10.0, "--coherence-time"),
        "single_gate_time_s": _Key(_as_float, 3e-7, "--single-gate-time"),
        "two_gate_time_s": _Key(_as_float, 1e-4, "--two-gate-time"),
        "n_qubits": _Key(_as_int),
        "format": _JSON,
    }),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and reused by every later one:
    parse_args fills a fresh namespace, so no flag carries over."""
    parser = _Parser(prog="dotphase", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, schema) in _SCHEMAS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", help="write the report here instead of stdout")
        for key, spec in schema.items():
            flag = spec.flag or "--" + key.replace("_", "-")
            if spec.coerce is _as_bool:
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=key, help=spec.help)
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults; reject unknown keys."""
    schema = _SCHEMAS[command][1]
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                file_values = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key == "command" and value != command:
                raise ValidationError(f"config file is for {value!r}, not {command!r}")
            if key not in schema and key != "command":
                raise ValidationError(f"unknown config key {key!r}")
    resolved = {"command": command}
    for key, spec in schema.items():
        flag = getattr(args, key, None)
        value = file_values.get(key) if flag is None else flag
        if value is None:
            if spec.default is _REQUIRED:
                raise ValidationError(f"missing required parameter {key!r}")
            resolved[key] = spec.default
            continue
        try:
            resolved[key] = spec.coerce(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad value for {key!r}: {exc}") from None
    return resolved


class _PerShot(list):
    """Each shot's value, ``values[i]`` for each index ``i`` in ``picks``: a
    plain list of floats to every reader, which keeps ``values`` (an object
    array of those same floats) and ``picks`` for _dumps."""

    def __init__(self, values, picks):
        self.values, self.picks = values.astype(object), picks
        super().__init__(self.values[picks].tolist())


def cmd_estimate(cfg: dict) -> tuple[dict, list]:
    # numpy and the array layers load only here and in cmd_sweep
    import numpy as np
    from . import qpe, statevector as sv
    m, phi, shots = cfg["m"], cfg["phase_rad"], cfg["shots"]
    mode, include_target = qpe.GateMode(cfg["mode"]), cfg["include_target"]
    results: dict = {"m": m, "true_phase_rad": phi}
    if shots == 0:
        # still the statevector: benchmarks/test_benchmark.py pins the 648
        # statevector gate calls of an m = 16 --shots 0 run (ROADMAP item 1a)
        probs = qpe.readout_distribution(m, phi, mode, include_target)
        j = int(np.argmax(probs))
        phi_hat, eta = (float(part[0]) for part in qpe.readout_estimates(np.array([j]), m, phi))
        results.update(
            readout_integer=j,
            readout_bits=[int(b) for b in format(j, f"0{m}b")],
            estimated_phase_rad=phi_hat,
            eta_percent=eta,
            abs_error_turns=float(qpe.circular_distance(phi_hat / math.tau, phi / math.tau)),
            max_probability=float(probs[j]),
        )
    else:
        # the statevector path's checks, in its order
        qpe.check_register(m)
        qpe.check_phase(phi)
        probs = qpe.tree_distributions(m, [phi], mode, include_target)[0]
        draws = sv.sample_uniforms(probs, qpe.shot_uniforms(cfg["seed"], shots))
        outcomes, picks, counts = np.unique(draws, return_inverse=True, return_counts=True)
        # the per-draw arithmetic, once per distinct outcome
        estimates, etas = qpe.readout_estimates(outcomes, m, phi)
        results.update(
            shots=shots,
            estimates_rad=_PerShot(estimates, picks),
            eta_percent=_PerShot(etas, picks),
            counts=dict(zip(map(str, outcomes.tolist()), counts.tolist())),
        )
    if cfg["full_distribution"] or (2 ** m <= 4096 and shots == 0):
        results["distribution"] = probs.tolist()
    return results, []


def cmd_sweep(cfg: dict) -> tuple[dict, list]:
    import numpy as np
    from . import qpe
    mode = qpe.GateMode(cfg["mode"])
    n = cfg["n"]
    m_values = cfg["m_values"]
    if not m_values:
        raise ValidationError("m_values must be nonempty")
    # every m is checked before any is simulated
    bounds = [qpe.success_probability_bound(qpe.check_register(m), n)
              for m in m_values]
    phis, count = cfg["phases_rad"], cfg["random_phases"]
    if (phis is None) == (count is None):
        raise ValidationError("give exactly one of --phases and --random-phases")
    if phis is None:
        rng = np.random.default_rng(cfg["seed"])
        phis = [float(p) or math.tau for p in rng.uniform(0.0, math.tau, count)]
    if not phis:
        raise ValidationError("need at least one phase")
    for p in phis:
        qpe.check_phase(p)
    rows = []
    for m, bound, masses in zip(m_values, bounds,
                                qpe.sweep_successes(m_values, n, phis, mode)):
        rows += [{"m": m, "n": n, "phi_rad": phi, "empirical_success": mass,
                  "bound": bound} for phi, mass in zip(phis, masses)]
    return {"rows": rows}, []


_PULSE_PRESETS = ("hadamard", "phase", "pulse-hadamard", "pulse-phase")


def _resolve_pulse_target(cfg: dict):
    """Returns (target gate, prescribed-gap info or None); each gate is its
    Python complex entries in C order."""
    preset, matrix = cfg["preset"], cfg["matrix"]
    if (preset is None) == (matrix is None):
        raise ValidationError("give exactly one of --preset and --matrix")
    if matrix is not None:
        if len(matrix) != 8:
            raise ValidationError("matrix needs 8 reals (row-major re,im pairs)")
        return [complex(matrix[k], matrix[k + 1]) for k in range(0, 8, 2)], None
    name, sep, arg = preset.partition(":")
    if name not in _PULSE_PRESETS:
        raise ValidationError(f"unknown preset {preset!r}")
    if sep and name in ("hadamard", "pulse-hadamard"):
        raise ValidationError(f"preset {name!r} takes no angle")
    if name == "hadamard":
        prescribed = pulses._pulse_parts(pulses.hadamard_pulse_params())
        return pulses.HADAMARD_ENTRIES, ("hadamard", prescribed, pulses.HADAMARD_ENTRIES)
    if name == "pulse-hadamard":
        return pulses._pulse_parts(pulses.hadamard_pulse_params()), None
    phi = parse_angle(arg) if arg else None
    if phi is None:
        raise ValidationError(f"preset {name!r} needs an angle, e.g. {name}:0.7")
    prescribed = pulses._pulse_parts(pulses.phase_gate_pulse_params(phi))
    if name == "phase":
        # cmath.exp gives the bits of np.exp on a scalar
        ideal = [1 + 0j, 0j, 0j, cmath.exp(1j * phi)]
        return ideal, (f"phase:{phi:g}", prescribed, ideal)
    return prescribed, None


def cmd_pulse_fit(cfg: dict) -> tuple[dict, list]:
    target, gap_info = _resolve_pulse_target(cfg)
    spec, residual = pulses.fit_pulse([target[:2], target[2:]])
    results = {
        "target": [[z.real, z.imag] for z in target],
        "fit": {"rabi_angle_rad": spec.rabi_angle, "phase_rad": spec.phase},
        "residual": residual,
    }
    warnings = []
    if gap_info is not None:
        name, prescribed, ideal = gap_info
        gap = pulses.gate_distance([prescribed[:2], prescribed[2:]], [ideal[:2], ideal[2:]])
        results["prescribed_pulse_gap"] = gap
        if gap > 1e-9:
            warnings.append(
                f"the prescribed pulse parameters for {name} sit at "
                f"phase-invariant distance {gap:g} from the ideal gate"
            )
    return results, warnings


def cmd_calibrate_clock(cfg: dict) -> tuple[dict, list]:
    eo = cal.ElectroOpticParams(**{key: cfg[key] for key in
                                   ("varpi", "n0", "n_vac", "r63", "e_field", "v", "c")})
    if (cfg["duration_s"] is None) == (cfg["varphi"] is None):
        raise ValidationError("give exactly one of --duration and --varphi")
    T = cfg["duration_s"] if cfg["varphi"] is None else cal.phase_to_time(cfg["varphi"], eo)
    record = cal.calibrate_clock(
        T=T, O=cfg["total_scales"], h=cfg["elapsed_scales"], T_ideal=cfg["t_ideal_s"],
        eta_percent=cfg["eta_percent"],
        comparison_mode=cal.ComparisonMode(cfg["comparison_mode"]))
    results = asdict(record)
    results["verdict"] = record.verdict.value
    results["comparison_mode"] = record.comparison_mode.value
    results["length_estimate_m"] = cal.length_estimate(eo.v, T)
    return results, []


def cmd_feasibility(cfg: dict) -> tuple[dict, list]:
    pp = pulses.PhysicalParams(
        omega1=cfg["omega1_mev"], omega2=cfg["omega2_mev"], omega_c=cfg["omega_c_mhz"],
        delta=cfg["delta_mev"], tunneling_t=cfg["tunneling_t_mev"],
        level_split_delta=cfg["level_split_delta_mev"],
        coherence_time=cfg["coherence_time_s"], single_gate_time=cfg["single_gate_time_s"],
        two_gate_time=cfg["two_gate_time_s"],
    )
    report = pulses.feasibility_report(pp, cfg["n_qubits"])
    results = {
        "gamma": report.gamma,
        "omega_eff": report.omega_eff._asdict(),
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
    writer.writerows([row["m"], row["n"], repr(row["phi_rad"]),
                      repr(row["empirical_success"]), repr(row["bound"])]
                     for row in results["rows"])
    return buf.getvalue()


def _output_path(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@functools.cache
def _encoder(inner: str):
    """The C encoder for a container without nested containers, its items
    split by ',' + inner. It is built once per separator, where
    ``JSONEncoder.encode`` builds a new one on every call; such a container
    cannot be circular, so it keeps no markers. Without the ``_json``
    accelerator it is ``JSONEncoder.encode``, which falls back to the
    pure-Python encoder."""
    if json.encoder.c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, allow_nan=False,
                                separators=("," + inner, ": ")).encode
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan: JSONEncoder.iterencode's arguments
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", "," + inner, True, False, False)
    return lambda obj: "".join(encode(obj, 0))


def _encode(obj, inner: str) -> str:
    try:
        return _encoder(inner)(obj)
    except ValueError:
        # the C encoder's message omits the value; the Python one names it
        json.dumps(obj, indent=2, allow_nan=False)
        raise


def _dumps(obj, indent: str = "\n", out: list | None = None) -> str | None:
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False), byte for
    byte, joined once from the pieces each level appends to ``out``: a
    per-shot list formats each distinct value once, any other flat
    container is one C-encoder call, and nested ones recurse."""
    if out is None:
        out = []
        _dumps(obj, indent, out)
        return "".join(out)
    inner = indent + "  "
    sep = "," + inner
    is_dict = isinstance(obj, dict)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(_encode(obj, indent))
    elif isinstance(obj, _PerShot):
        # distinct texts from one encoder call, in an object array, picked per shot
        texts = obj.values.copy()
        texts[:] = _encode(obj.values.tolist(), inner)[1:-1].split(sep)
        out += "[", inner, sep.join(texts[obj.picks].tolist()), indent, "]"
    elif not any(isinstance(v, (dict, list, tuple)) for v in (obj.values() if is_dict else obj)):
        text = _encode(obj, inner)
        out += text[0], inner, text[1:-1], indent, text[-1]
    else:
        out.append("{" if is_dict else "[")
        for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
            out.append(sep if i else inner)
            if is_dict:
                key, item = item
                if not isinstance(key, (str, int, float)) and key is not None:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                # json writes any other key as the string of its JSON text
                quote = "" if isinstance(key, str) else '"'
                out += quote, _encode(key, inner), quote, ": "
            _dumps(item, inner, out)
        out += indent, "}" if is_dict else "]"


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
        "versions": {"artifact": __version__, "results": RESULTS_VERSION},
        "timing": {"wall_seconds": elapsed},
    }
    # the last gate before output: a non-finite number is an internal fault,
    # and would not be valid JSON either
    try:
        pieces = [_dumps(report), "\n"]
    except ValueError as exc:
        raise NumericalInvariantError(f"non-finite number in the report: {exc}") from None
    if cfg["format"] == "csv":
        pieces = [_sweep_csv(results)]
    path = _output_path(getattr(args, "output", None))
    if path:
        with open(path, "w") as fh:
            fh.writelines(pieces)
        print(path, file=stdout)
    else:
        stdout.writelines(pieces)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
