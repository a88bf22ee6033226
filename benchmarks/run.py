"""dotphase benchmark: one seeded workload through the real CLI.

    python3 benchmarks/run.py --workload exact-large --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One client runs a closed loop in this process: each ``cli.run`` call,
reading its JSON config through ``--config``, starts after the previous one
returned. ``--seconds`` fixes how many calls run: as many as take that
long on the reference host, so the same seed always makes the same calls. A reference probe (``probe.py``) is timed between
calls, and call times are reported in units of it (``ref``) as well as in
seconds. Every report is checked against references that do not call
dotphase. With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` the same calls run untraced and then traced, and the
per-layer metrics come from the spans. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. ``--workload all`` runs each
workload in its own process and prints a table instead.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
WORKLOADS = ("exact-large", "shots", "sweep-small", "pulse-fit")
# calls per second of call time on the reference host (a share of a 2-vCPU
# Xeon with busy neighbours); --seconds times this is a run's call count
CALLS_PER_S = {"exact-large": 1.3, "shots": 3.1, "sweep-small": 2.0, "pulse-fit": 42.0}
PROBE_EVERY_S = 1.0      # call time between two probes
PROBE_SPAN = 3           # probes on each side of a call that set its unit
SETUP_STARTS = 5
TAIL_BEYOND = 10
TAIL_WINDOW = 100
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import dotphase.cli as c; c.build_parser()"


def cap_blas_threads() -> dict:
    """Run BLAS on one thread, set before numpy loads; returns the caps.

    One thread is within the cap of nproc. The gates' matrix products are
    too small to split: a second thread doubles the CPU time of a large
    call without shortening it, and waiting on it multiplies the run-to-run
    spread on a shared host.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {var: int(os.environ[var]) for var in BLAS_VARS}


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import dotphase.cli and build
    its parser. The caller has imported the same modules, so the file
    cache is warm, as it is for a user's second command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            sizes[f"L{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int, caps: dict) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": caps,
        "nproc": len(os.sched_getaffinity(0)), **_cache_sizes(),
        "git_commit": _git_commit(), "seed": seed,
    }


class Runner:
    """Closed-loop client: runs calls one after another and checks each."""

    def __init__(self, workdir: Path):
        from dotphase import cli, errors

        import reference

        import probe

        self.cli, self.errors, self.reference, self.probe = cli, errors, reference, probe
        self.workdir = workdir
        self.tracer = None

    def call(self, index: int, kind: str, cfg: dict) -> dict:
        path = self.workdir / "call.json"
        path.write_text(json.dumps(cfg))
        argv = [cfg["command"], "--config", str(path)]
        buf = io.StringIO()
        code, detail = 0, ""
        if self.tracer is not None:
            self.tracer.current_call = index
        t0 = time.perf_counter()
        try:
            self.cli.run(argv, stdout=buf)
        except (self.errors.ValidationError, OSError) as exc:
            code, detail = 1, str(exc)
        except self.errors.NumericalInvariantError as exc:
            code, detail = 2, str(exc)
        except Exception as exc:  # a crash is a failed call, not a crashed benchmark
            code, detail = -1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        out = {"kind": kind, "sent": cfg, "seconds": seconds, "code": code,
               "detail": detail, "bytes": len(buf.getvalue())}
        if code != 0:
            out["status"] = "defect" if self.known_defect(cfg, code) else "failed"
            return out
        report = json.loads(buf.getvalue())
        problems = self.reference.check(cfg, report, kind)
        out["status"] = "wrong" if problems else "ok"
        out["detail"] = "; ".join(problems[:3])
        out["digest"] = hashlib.sha256(
            json.dumps(report["results"], sort_keys=True).encode()).hexdigest()
        out["config"] = report["config"]
        return out

    @staticmethod
    def known_defect(cfg: dict, code: int) -> bool:
        """The pulse-literal unitarity defect: qpe._phase_gate raises the
        kick diagonal to 2^(m-1) by float power, which drifts past the
        unitarity tolerance at m >= 15 and ends the call with exit 1 (exit 2
        is accepted too, for a later build that reports it as a violated
        invariant)."""
        return (code in (1, 2) and cfg["command"] == "estimate"
                and cfg["mode"] == "pulse-literal" and cfg["m"] >= 15
                and not cfg["include_target"])

    def loop(self, calls: list) -> list[dict]:
        """Run every call in order. The probe is timed before the first
        call, after each PROBE_EVERY_S of call time and after the last call.
        Each outcome's ``ref_s`` is the median of the PROBE_SPAN probes on
        either side of it, and ``ref`` its call time in units of that: the
        median follows the host's drift over seconds without adding the
        probe's own call-to-call noise."""
        outcomes, probes, before, since = [], [self.probe.probe_s()], [], 0.0
        for index, (kind, cfg) in enumerate(calls):
            before.append(len(probes) - 1)
            outcomes.append(self.call(index, kind, cfg))
            since += outcomes[-1]["seconds"]
            if since >= PROBE_EVERY_S or index == len(calls) - 1:
                probes.append(self.probe.probe_s())
                since = 0.0
        for o, j in zip(outcomes, before):
            o["ref_s"] = statistics.median(probes[max(0, j + 1 - PROBE_SPAN):j + 1 + PROBE_SPAN])
            o["ref"] = o["seconds"] / o["ref_s"]
        return outcomes

    def replay(self, outcome: dict) -> bool:
        """Re-run a report's own config; its results must be byte-identical."""
        again = self.call(-1, outcome["kind"], outcome["config"])
        return again.get("digest") == outcome["digest"]


def n_calls(workload: str, seconds: float) -> int:
    """Calls that take about ``seconds`` of call time on the reference
    host; at least one."""
    return max(1, round(seconds * CALLS_PER_S[workload]))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, windows): the highest percentile with
    TAIL_BEYOND calls beyond it, or the maximum when there are too few.

    A run with at least two windows of TAIL_WINDOW calls is cut into equal
    consecutive windows and reports the median of their tails, so that a
    burst of host noise in one window does not set the run's figure.
    """
    n_windows = max(1, len(times) // TAIL_WINDOW)
    size = len(times) // n_windows
    values = []
    for i in range(n_windows):
        ordered = sorted(times[i * size:(i + 1) * size])
        k = size - TAIL_BEYOND - 1
        if k < 0:
            k = size - 1
        values.append(ordered[k])
    return statistics.median(values), 100.0 * (k + 1) / size, n_windows


def declared_metrics(section: str) -> list[dict]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def call_metrics(times: list[float], unit: str) -> dict:
    """Rate, median and tail of successful-call times in ``unit``."""
    if not times:
        nan = float("nan")
        return {f"calls_per_{unit}": nan, f"call_{unit}.p50": nan, f"call_{unit}.tail": nan}
    return {f"calls_per_{unit}": len(times) / sum(times),
            f"call_{unit}.p50": statistics.median(times),
            f"call_{unit}.tail": tail(times)[0]}


def end_to_end(outcomes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """Declared metrics (call times in probe units) and the extras printed
    beside them (the same in seconds, error rate, tail percentile)."""
    ok = [o for o in outcomes if o["status"] == "ok"]
    tail_pct, windows = tail([o["ref"] for o in ok])[1:] if ok else (0.0, 0)
    metrics = {
        "setup_s": statistics.median(setup),
        **call_metrics([o["ref"] for o in ok], "ref"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = len(outcomes) - len(ok)
    extra = {"error_rate": failed / len(outcomes), "tail_percentile": tail_pct,
             "tail_windows": windows, "successful_calls": len(ok), "setup_samples": setup,
             **call_metrics([o["seconds"] for o in ok], "s"),
             "probe_s.p50": statistics.median(o["ref_s"] for o in outcomes)}
    return metrics, extra


def traced_run(runner: Runner, calls: list, spans_path: Path):
    """The calls untraced, then the same calls traced."""
    import spans

    plain = runner.loop(calls)
    tracer = spans.Tracer()
    runner.tracer = tracer
    with tracer.installed():
        traced = runner.loop(calls)
    runner.tracer = None
    tracer.write(spans_path)
    sampled = {i for i, o in enumerate(plain)
               if o["sent"]["command"] == "estimate" and o["sent"]["shots"] > 0}
    layer = spans.layer_metrics(tracer, sampled, len(traced))
    layer["cli.report_bytes"] = sum(o["bytes"] for o in traced) / len(traced)
    layer["trace.overhead"] = (sum(o["ref"] for o in traced)
                               / sum(o["ref"] for o in plain) - 1.0)
    mismatched = sum(
        1 for a, b in zip(plain, traced)
        if a["status"] != b["status"] or a.get("digest") != b.get("digest"))
    return plain + traced, layer, mismatched


def run_workload(args, caps: dict) -> int:
    import calls as workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        setup = measure_setup() if not args.trace else []
        count = n_calls(args.workload, args.seconds)
        if args.trace:  # the traced run repeats the calls of the untraced one
            count = max(1, count // 2)
        sequence = list(itertools.islice(workloads.calls(args.workload, args.seed), count))
        runner.call(-1, *sequence[0])  # warm-up, not counted
        runner.probe.probe_s()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        mismatched = 0
        if args.trace:
            outcomes, values, mismatched = traced_run(
                runner, sequence, OUT / f"{stem}-spans.csv.gz")
            extra = {"error_rate": sum(o["status"] != "ok" for o in outcomes) / len(outcomes)}
        else:
            outcomes = runner.loop(sequence)
            values, extra = end_to_end(outcomes, setup)
        good = [o for o in outcomes if o["status"] == "ok"]
        replayed = bool(good) and runner.replay(min(good, key=lambda o: o["seconds"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [o for o in outcomes if o["status"] in ("wrong", "failed")]
    correct = not wrong and replayed and mismatched == 0
    failed = sum(o["status"] != "ok" for o in outcomes)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "replay_identical": replayed,
        "traced_untraced_mismatches": mismatched,
        "attempted": len(outcomes), "failed": failed,
        "failures": _tally(o for o in outcomes if o["status"] != "ok"),
        "calls": _tally(o for o in outcomes),
        "call_seconds": [[o["kind"], o["status"], o["seconds"], o["ref"]] for o in outcomes],
        "problems": [f"{o['kind']}: {o['status']}: {o['detail']}" for o in wrong[:5]],
        **extra,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics("per_layer" if args.trace else "end_to_end")},
        "environment": environment(args.seed, caps),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    _print_summary(summary)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


def _tally(outcomes) -> dict:
    counts: dict = {}
    for o in outcomes:
        key = f"{o['kind']}:{o['status']}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _print_summary(s: dict) -> None:
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
          f"correct {s['correct']}  attempted {s['attempted']}  failed {s['failed']}")
    for name, m in s["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {s['error_rate']:.6g} ratio "
          f"({s['failed']} of {s['attempted']} calls failed: {s['failures']})")
    if "tail_percentile" in s:
        print(f"  call_ref.tail is p{s['tail_percentile']:.1f}, the median over "
              f"{s['tail_windows']} window(s) of {s['successful_calls']} successful calls")
        for name in ("calls_per_s", "call_s.p50", "call_s.tail", "probe_s.p50"):
            unit = "1/s" if name == "calls_per_s" else "s"
            print(f"  {name:32s} {s[name]:.6g} {unit}")
    for problem in s["problems"]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(s["environment"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads((OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows.append(result)
    names = list(rows[0]["metrics"]) + ["error_rate"]
    print(f"{'metric':28s}" + "".join(f"{r['workload']:>14s}" for r in rows))
    for name in names:
        cells = [r["metrics"][name]["value"] if name in r["metrics"] else r[name] for r in rows]
        unit = rows[0]["metrics"][name]["unit"] if name in rows[0]["metrics"] else "ratio"
        print(f"{name + ' [' + unit + ']':28s}" + "".join(f"{c:14.6g}" for c in cells))
    return 0 if all(r["correct"] for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dotphase" / "__init__.py").is_file():
        print(f"error: no dotphase sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    caps = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import dotphase

    if Path(dotphase.__file__).resolve().parent != SRC / "dotphase":
        print(f"error: imported dotphase from {dotphase.__file__}", file=sys.stderr)
        return 2
    return run_workload(args, caps)


if __name__ == "__main__":
    sys.exit(main())
