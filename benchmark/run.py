"""Benchmark of the koopman package: one workload per invocation.

    python3 benchmark/run.py --workload algebra|oracle2d|hybrid3d \
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Each set-up sample is a fresh interpreter
(``child.py``).  ``algebra`` starts one process per pass until ``--seconds``
have passed; the spectral workloads start ``SETUP_ONLY`` processes that
only set up, then split ``--seconds`` over ``PROCESSES`` processes.  With ``--trace 1`` every other process is
traced, and the metrics are the per-layer ones (see ``layers.py``);
otherwise they are the end-to-end ones.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROCESSES = 2            # per spectral run; 4 when traced (2 traced, 2 not)
SETUP_ONLY = 3           # extra set-up samples per untraced spectral run
CHILD_TIMEOUT = 150.0    # seconds; one run must end within 180

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("l2_error", "1"),
)


class BenchmarkError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # single-threaded numerics: one FFT worker is the package default
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # time imports from cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _python(args, deadline: float) -> str:
    timeout = min(CHILD_TIMEOUT, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchmarkError("out of time before a process could start")
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise BenchmarkError(f"workload process exited {proc.returncode}: {tail[0]}")
    return proc.stdout


def run_child(workload: str, seed: int, budget: float, traced: bool,
              quick: bool, index: int, deadline: float, setup_only: bool = False) -> dict:
    args = [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--budget", repr(budget)]
    if quick:
        args.append("--quick")
    if setup_only:
        args.append("--setup-only")
    if traced:
        OUT.mkdir(exist_ok=True)
        args += ["--spans", str(OUT / f"spans-{workload}-{index}.json")]
    lines = _python(args, deadline).strip().splitlines()
    if not lines:
        raise BenchmarkError("workload process printed no result")
    out = json.loads(lines[-1])
    out["traced"] = traced
    return out


def collect(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> list:
    """Run the workload's processes in turn; return their results."""
    deadline = time.monotonic() + 170.0
    # compile the package's bytecode and warm the file cache once, untimed
    _python(["-c", "import koopman"], deadline)
    children = []
    if workload == "algebra":
        start = time.monotonic()
        while not children or time.monotonic() - start < seconds \
                or (trace and len(children) < 2):
            children.append(run_child(workload, seed, 0.0, trace and len(children) % 2 == 1,
                                      quick, len(children), deadline))
    else:
        if not trace:
            for i in range(SETUP_ONLY):
                children.append(run_child(workload, seed, 0.0, False, quick, i, deadline,
                                          setup_only=True))
        n = 2 * PROCESSES if trace else PROCESSES
        for i in range(n):
            children.append(run_child(workload, seed, seconds / n, trace and i % 2 == 1,
                                      quick, i, deadline))
    return children


def summarise(workload: str, children: list, trace: bool) -> dict:
    from checks import AlgebraChecker, residual_l2

    rounds = [r for c in children for r in c["rounds"]]
    correct = True
    if workload == "algebra":
        checker = AlgebraChecker()
        for r in rounds:
            bad, missing = checker.failures(r["check"]["verdicts"], r["check"]["operators"])
            r["failed"] = len(bad)
            r["l2_error"] = residual_l2(r["check"]["operators"])
            correct = correct and not missing
    attempted = sum(r["units"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if trace:
        from layers import PER_LAYER
        traced = [c for c in children if c["traced"]]
        times = {flag: statistics.median(r["seconds"] for c in children
                                         if c["traced"] is flag for r in c["rounds"])
                 for flag in (True, False)}
        values = {name: statistics.median(c["layers"][name] for c in traced)
                  for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = times[True] - times[False]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "work_per_s": statistics.median(r["units"] / r["seconds"] for r in rounds),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children
                                             if c["rounds"]),
            "l2_error": statistics.median(r["l2_error"] for r in rounds),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "koopman" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        children = collect(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.quick)
        result = summarise(args.workload, children, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(children)} processes, "
          f"{result['attempted']} units attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
