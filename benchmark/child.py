"""One workload process: set up, warm up, run timed rounds, check.

``run.py`` starts this script in a fresh interpreter for every set-up
sample.  The clock for ``setup_s`` starts before ``import koopman``; the
benchmark's own modules loaded before it import only the standard
library.  Rounds repeat while the next one, at the mean round time so
far, would end within ``--budget`` seconds (at least one round; none with
``--setup-only``).  Checks run after each round, outside its timing.  The last line of standard output is one
JSON object.

    python3 benchmark/child.py --workload hybrid3d --seed 1 --budget 10
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import time

from layers import round_layers, setup_layers, wrap_package
from tracing import Tracer
from workloads import WORKLOADS


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--quick", action="store_true", help="reduced sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after set-up: one more setup_s sample")
    ap.add_argument("--spans", default=None,
                    help="trace the package and write the spans to this file")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.spans else None

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    t0 = time.perf_counter()
    with span("bench.setup") as setup_root:
        with span("koopman.import"):
            import koopman  # noqa: F401
        if tracer:
            wrap_package(tracer)
            tracer.install()
        state = workload.setup(args.seed, args.quick)
        workload.warmup(state)
    setup_s = time.perf_counter() - t0

    rounds, layer_rows = [], []
    start = time.perf_counter()
    while not args.setup_only:
        with span("bench.round") as root:
            t1 = time.perf_counter()
            result = workload.round(state)
            seconds = time.perf_counter() - t1
        if tracer:
            tracer.uninstall()
            layer_rows.append(round_layers(tracer, root, result.units, result.info))
        outcome = workload.check(state, result)
        if tracer:
            tracer.install()
        row = {"seconds": seconds, "units": result.units}
        if isinstance(outcome, dict):      # algebra: checked by the parent
            row["check"] = outcome
        else:
            ok, l2_error = outcome
            row.update(failed=0 if ok else result.units, l2_error=l2_error)
        rounds.append(row)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.budget:
            break

    out = {"setup_s": setup_s, "rounds": rounds,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        layers = setup_layers(tracer, setup_root)
        for name in layer_rows[0]:
            layers[name] = statistics.median(r[name] for r in layer_rows)
        out["layers"] = layers
        tracer.dump(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
