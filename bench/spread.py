"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload tables-transfer --seeds 1-10 --seconds 15
    python3 bench/spread.py ... --out bench/baseline.json   # merge into a record

For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the interquartile
distance as a share of the median: the spread ``BENCHMARK.json`` bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(raw: str) -> list[int]:
    low, _, high = raw.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="JSON record to merge this summary into")
    parser.add_argument("--key", help="section of the record (default: end_to_end or per_layer)")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        shown = " ".join(f"{name}={m['value']:.5g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {shown}", flush=True)

    summary = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed_ratio": [r["failed"] / r["attempted"] for r in runs],
        "metrics": {},
    }
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary["metrics"][name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                                    "spread": spread}
        print(f"{name:24} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")

    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record.setdefault("python", platform.python_version())
        record.setdefault("nproc", os.cpu_count())
        key = args.key or ("per_layer" if args.trace else "end_to_end")
        record.setdefault(key, {})[args.workload] = summary
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
