"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1] [--label NAME]

Each run is one invocation of ``run.py`` with its own seed and the run
length of ``BENCHMARK.json``, one after another, for every workload.  For
every end-to-end metric the script prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  Every run's result is appended to
``benchmark/out/steadiness-<label>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = HERE / "out" / f"steadiness-{args.label}.jsonl"
    log.parent.mkdir(exist_ok=True)

    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                     **result}) + "\n")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.2%}  bound {bounds[name]:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
