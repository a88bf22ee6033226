"""Tracing from outside the program: wrappers around the public functions
of each dotphase layer record spans in memory while the real CLI runs.

A span is (call, name, start, end, parent). Self time is a span's duration
minus the time its child spans cover; wrappers nest on the single call
stack, so children never overlap. ``qpe.bit_reverse`` is left unwrapped
(2^m calls per distribution); its cost shows in ``qpe.readout_self_s``.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array

import numpy as np

from dotphase import calibration, cli, pulses, qpe, statevector

# module -> public functions wrapped in it
WRAPPED = {
    statevector: ("new_state", "apply_1q", "apply_2q", "apply_qubit_cavity",
                  "probabilities", "measure_all", "overlap"),
    qpe: ("prepare_register", "apply_phase_kicks", "inverse_qft",
          "exact_distribution", "readout_distribution", "run_final_state",
          "empirical_success", "success_probability_bound", "shot_seed",
          "measure_and_estimate", "kick_equivalence_check", "sequence_unitary"),
    pulses: ("single_pulse_unitary", "cavity_pulse_unitary", "hadamard_pulse_params",
             "phase_gate_pulse_params", "gate_distance", "fit_pulse",
             "effective_rabi", "separation_factor", "protocol_time",
             "max_qubits", "feasibility_report"),
    calibration: ("time_to_phase", "phase_to_time", "phase_resolution_time",
                  "clock_total_time", "calibration_verdict", "calibrate_clock",
                  "length_estimate"),
    cli: ("run", "build_parser", "resolve_config"),
}
# names qpe imported from pulses at import time: patch its copies as well
QPE_IMPORTS = ("single_pulse_unitary", "hadamard_pulse_params", "phase_gate_pulse_params")
GATES = ("statevector.apply_1q", "statevector.apply_2q", "statevector.apply_qubit_cavity")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def gate_kind(gate) -> str:
    """'diag', 'perm' (non-diagonal 0/1 permutation) or 'dense'."""
    g = np.asarray(gate)
    off = g - np.diag(np.diag(g))
    if not np.any(off):
        return "diag"
    if np.all((g == 0) | (g == 1)) and np.all(g.sum(axis=0) == 1) and np.all(g.sum(axis=1) == 1):
        return "perm"
    return "dense"


class Tracer:
    """Span store plus the gate facts a wrapper sees at the call boundary."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.call = array("i")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.current_call = -1
        self.gate_kinds = {"diag": 0, "perm": 0, "dense": 0}
        self.bytes_moved = 0
        self.peak_state_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        is_gate = name in GATES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_gate:
                state = args[0]
                gate = kwargs["gate"] if "gate" in kwargs else args[-1]
                self.gate_kinds[gate_kind(gate)] += 1
                self.bytes_moved += 2 * state.amplitudes.nbytes
                self.peak_state_bytes = max(self.peak_state_bytes, state.amplitudes.nbytes)
            idx = len(self.name)
            self.call.append(self.current_call)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped function for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        wrappers = {}
        try:
            for module, attrs in WRAPPED.items():
                layer = module.__name__.rsplit(".", 1)[-1]
                for attr in attrs:
                    wrappers[getattr(module, attr)] = w = self.wrap(
                        f"{layer}.{attr}", getattr(module, attr))
                    patch(module, attr, w)
            for attr in QPE_IMPORTS:
                patch(qpe, attr, wrappers[getattr(qpe, attr)])
            # run() dispatches through this table, not the module names
            for command, handler in list(cli._HANDLERS.items()):
                w = self.wrap(f"cli.{handler.__name__}", handler)
                saved.append((cli._HANDLERS, command, handler))
                cli._HANDLERS[command] = w
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as gzipped CSV: call,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("call,name,start_ns,end_ns,parent\n")
            t0 = self.start[0] if len(self.start) else 0
            for i in range(len(self.name)):
                fh.write(f"{self.call[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0},{self.end[i] - t0},{self.parent[i]}\n")


def layer_metrics(tr: Tracer, sampled_calls: set[int], n_calls: int) -> dict:
    """Per-layer figures from the spans, as means per traced call.

    ``sampled_calls`` are the calls that ran a shot loop (estimate with
    shots > 0); cmd_estimate's self time counts as sampling only there.
    """
    name = np.array(tr.name, dtype=np.int64)
    parent = np.array(tr.parent, dtype=np.int64)
    start = np.array(tr.start, dtype=np.int64)
    end = np.array(tr.end, dtype=np.int64)
    dur = (end - start) / 1e9
    layer = np.array([_layer(x) for x in tr.names])[name]
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[parent], -1)
    parent_layer = np.where(has_parent, layer[parent], "")

    def ids(*wanted):
        return [tr.names.index(x) for x in wanted if x in tr.names]

    def named(*wanted):
        return np.isin(name, ids(*wanted))

    def child_time(mask):
        """Per span, the time its children selected by ``mask`` cover."""
        out = np.zeros(len(name))
        np.add.at(out, parent[mask & has_parent], dur[mask & has_parent])
        return out

    self_time = dur - child_time(np.ones(len(name), dtype=bool))
    gates = named(*GATES)
    outermost = (layer == "calibration") & (parent_layer != "calibration")
    handler = np.isin(name, [i for i, x in enumerate(tr.names) if x.startswith("cli.cmd_")])
    sampling = named("cli.cmd_estimate") & np.isin(np.array(tr.call), list(sampled_calls))
    fits = named("pulses.fit_pulse")
    gate_calls = sum(tr.gate_kinds.values())
    gate_s = dur[gates].sum()
    per_call = {
        "statevector.gate_calls": gate_calls,
        "statevector.gate_s": gate_s,
        "statevector.bytes_moved": tr.bytes_moved,
        "statevector.probabilities_s": dur[named("statevector.probabilities")].sum(),
        "qpe.prepare_s": dur[named("qpe.prepare_register")].sum(),
        "qpe.kicks_s": dur[named("qpe.apply_phase_kicks")].sum(),
        "qpe.iqft_s": dur[named("qpe.inverse_qft")].sum(),
        "qpe.iqft_self_s": (dur - child_time(gates))[named("qpe.inverse_qft")].sum(),
        "qpe.readout_self_s":
            self_time[named("qpe.exact_distribution", "qpe.readout_distribution")].sum(),
        "qpe.success_window_self_s": self_time[named("qpe.empirical_success")].sum(),
        "qpe.shot_seed_calls": named("qpe.shot_seed").sum(),
        "qpe.shot_seed_s": dur[named("qpe.shot_seed")].sum(),
        "pulses.fit_calls": fits.sum(),
        "pulses.fit_s": dur[fits].sum(),
        "pulses.unitary_calls": named("pulses.single_pulse_unitary").sum(),
        "pulses.unitary_s": dur[named("pulses.single_pulse_unitary")].sum(),
        "calibration.calls": outermost.sum(),
        "calibration.s": dur[outermost].sum(),
        # cli.run brackets the handler: before it are parsing and config
        # resolution, after it report serialisation
        "cli.resolve_s": (start[handler] - start[parent[handler]]).sum() / 1e9,
        "cli.sample_s": self_time[sampling].sum(),
        "cli.serialise_s": (end[parent[handler]] - end[handler]).sum() / 1e9,
    }
    out = {k: float(v) / n_calls for k, v in per_call.items()}
    n_fits = int(fits.sum())
    evals = named("pulses.gate_distance") & np.isin(parent_name, ids("pulses.fit_pulse"))
    out.update({
        "statevector.gate_us_mean": gate_s / gate_calls * 1e6 if gate_calls else 0.0,
        "statevector.diag_share": tr.gate_kinds["diag"] / gate_calls if gate_calls else 0.0,
        "statevector.perm_share": tr.gate_kinds["perm"] / gate_calls if gate_calls else 0.0,
        "statevector.peak_state_bytes": tr.peak_state_bytes,
        "pulses.objective_evals": int(evals.sum()) / n_fits if n_fits else 0.0,
    })
    return out
