"""Run-to-run spread of the benchmark over several seeds.

    python3 benchmarks/spread.py --workload shots --seeds 401-410 --seconds 15
    python3 benchmarks/spread.py --workload all --seeds 401-410 --seconds 15 \\
        --baseline benchmarks/baseline.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread: the distance between the quartiles as a share of the
median, next to a third of the metric's bound. With ``--baseline`` it also
makes one ``--trace 1`` run per workload (the first seed) and writes all of
it, with the environment record, to the given file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def measure(workload: str, seed_list: list[int], seconds: int, declared: list[dict]) -> dict:
    results, walls = [], []
    for seed in seed_list:
        result, wall = run_once(workload, seed, seconds, 0)
        results.append(result)
        walls.append(wall)
        print(f"  {workload} seed {seed}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']} wall {wall:.1f} s", flush=True)
    row = {"seeds": seed_list, "correct": all(r["correct"] for r in results),
           "attempted": [r["attempted"] for r in results],
           "failed": [r["failed"] for r in results],
           "run_wall_s": summarise(walls), "end_to_end": {}}
    print(f"{workload}: {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for metric in declared:
        stats = summarise([r["metrics"][metric["name"]]["value"] for r in results])
        row["end_to_end"][metric["name"]] = {**stats, "unit": metric["unit"]}
        print(f"{workload}: {metric['name']:16s} {stats['median']:12.6g} {stats['q1']:12.6g} "
              f"{stats['q3']:12.6g} {stats['spread']:8.3f} {metric['bound'] / 3:8.3f}")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 401-410")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--baseline", type=Path, help="write medians, quartiles and a traced run here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    seed_list = seeds(args.seeds)
    rows = {w: measure(w, seed_list, args.seconds, spec["end_to_end"]) for w in workloads}
    if args.baseline:
        sys.path.insert(0, str(RUN.parent))
        import run

        for workload in workloads:
            result, _ = run_once(workload, seed_list[0], args.seconds, 1)
            rows[workload]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        record = json.loads((run.OUT / f"{workloads[0]}-seed{seed_list[0]}-trace1.json").read_text())
        args.baseline.write_text(json.dumps({
            "environment": {k: v for k, v in record["environment"].items() if k != "seed"},
            "run_seconds": args.seconds,
            "note": (f"end_to_end: median and quartiles over seeds {args.seeds} of --trace 0 "
                     f"runs; per_layer: one --trace 1 run at seed {seed_list[0]}"),
            "workloads": rows}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
