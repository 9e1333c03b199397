"""Run the benchmark over several seeds and summarise each metric.

    python3 pipebench/sweep.py --workloads contrast-n600,views-v6 \
        --seeds 1-10 --seconds 20 --trace 0 --out pipebench/results/x.json

For every workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the
interquartile distance as a share of the median: the figure the
benchmark's bounds are compared against. The JSON it writes keeps every
run's raw result next to the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    env = next((json.loads(line)["env"] for line in lines
                if line.startswith('{"env"')), None)
    # "# <what> walls (s): t1 t2 ..." lines: every repeat's wall time
    walls = {line[2:].split(" walls")[0]: [float(t) for t in line.split(":")[1].split()]
             for line in lines if " walls (s):" in line}
    return {"seed": seed, "run_wall_s": wall, "env": env, "walls": walls,
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all runs and the summary here")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"run {runs[-1]['run_wall_s']:.1f} s", flush=True)
        summary = summarise(runs)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
