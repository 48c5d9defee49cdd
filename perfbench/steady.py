"""Steadiness proof: run the benchmark over several seeds and report spreads.

    python3 perfbench/steady.py --workloads cold_verify,exec_heavy --seeds 1-10

For each workload and end-to-end metric it prints the median over the runs
and the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- of the
host-normalized values next to the same spread of the raw wall-clock
values, and the metric's bound from BENCHMARK.json.  ``--repeat SEED``
also runs that seed a second time and lists every per-program counter that
did not repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, report


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=None)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    seconds = config["run_seconds"]
    verdict = True
    for workload in args.workloads.split(","):
        normalized: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {name: [] for name in bounds}
        refs = []
        for seed in seed_list(args.seeds):
            result, report = one_run(workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                verdict = False
                print(f"{workload} seed {seed}: INCORRECT {report['failures'][:3]}")
            for name in bounds:
                normalized[name].append(result["metrics"][name]["value"])
                raw[name].append(report["raw"][name])
            refs.append(report["harness.ref_ms"])
        print(f"\n{workload}: {len(refs)} runs, harness.ref_ms "
              f"{min(refs):.3f}..{max(refs):.3f} (spread {spread(refs):.4f})")
        print(f"  {'metric':24s} {'median':>12s} {'spread':>8s} {'raw':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            value = spread(normalized[name])
            ok = value < bound / 3
            verdict &= ok
            print(f"  {name:24s} {statistics.median(normalized[name]):12.4f} {value:8.4f} "
                  f"{spread(raw[name]):8.4f} {bound:6.2f} {'' if ok else '  <-- above bound/3'}")
        if args.repeat is not None:
            _, first = one_run(workload, args.repeat, seconds)
            _, second = one_run(workload, args.repeat, seconds)
            drift = [
                label for label, row in first["programs"].items()
                if row["counters"] != second["programs"].get(label, {}).get("counters")
                or row["counter_drift"]
            ]
            print(f"  counters of seed {args.repeat} run twice: "
                  f"{'all repeat exactly' if not drift else 'differ: ' + ', '.join(drift)}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
