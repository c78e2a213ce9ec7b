"""Per-layer metrics computed from the spans of one traced process.

A layer's self time is its span minus the time its direct child spans
cover.  The self times of every span under a round, the round's own
(``trace.remainder_s``) included, add up to the round's traced time.
Layers that a workload does not run report 0.
"""

from __future__ import annotations

# (name, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = (
    ("koopman.import_s", "s", "lower"),
    ("cli.scenario_s", "s", "lower"),
    ("evolve.build_plan_s", "s", "lower"),
    ("grid.gaussian_init_s", "s", "lower"),
    ("suites.build_s", "s", "lower"),
    ("ccr.verify_ms_per_relation", "ms", "lower"),
    ("ccr.normal_order_calls_per_pass", "count", "lower"),
    ("ccr.normal_order_s_per_pass", "s", "lower"),
    ("exactpoly.evaluate_calls_per_unit", "count", "lower"),
    ("exactpoly.evaluate_s_per_unit", "s", "lower"),
    ("evolve.step_ms", "ms", "lower"),
    ("evolve.step_self_ms", "ms", "lower"),
    ("evolve.sample_ms", "ms", "lower"),
    ("grid.fft_calls_per_step", "count", "lower"),
    ("grid.fft_ms_per_step", "ms", "lower"),
    ("grid.fft_mb_per_step", "MB", "lower"),
    ("characteristics.flow_s_per_unit", "s", "lower"),
    ("characteristics.flow_ns_per_seed_step", "ns", "lower"),
    ("characteristics.reconstruct_s_per_unit", "s", "lower"),
    ("characteristics.compare_s_per_unit", "s", "lower"),
    ("characteristics.valid_fraction", "1", "higher"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

FFT_SPANS = ("grid.fftn", "grid.ifftn")
CLI_SPANS = ("cli.parse_scenario", "cli.build_grid", "cli.build_plan_from",
             "cli.build_initial")


def wrap_package(tracer) -> None:
    """Register a wrapper on every public function the workloads reach,
    under the name its caller looks it up by."""
    from koopman import ccr, characteristics, cli, evolve, exactpoly, grid, suites

    for owner, attr, name in (
        (suites, "suite_group", "suites.suite_group"),
        (ccr, "verify_algebra", "ccr.verify_algebra"),
        (ccr, "normal_order", "ccr.normal_order"),             # as NCPoly calls it
        (exactpoly.CPoly, "evaluate", "exactpoly.CPoly.evaluate"),
        (cli, "parse_scenario", "cli.parse_scenario"),
        (cli, "build_grid", "cli.build_grid"),
        (cli, "build_plan_from", "cli.build_plan_from"),
        (cli, "build_initial", "cli.build_initial"),
        (evolve, "build_plan", "evolve.build_plan"),           # as cli calls it
        (cli, "gaussian_init", "grid.gaussian_init"),          # as cli calls it
        (evolve, "run", "evolve.run"),
        (evolve, "step", "evolve.step"),                       # as run calls it
        (characteristics, "reference_solution", "characteristics.reference_solution"),
        (characteristics, "integrate_flow", "characteristics.integrate_flow"),
        (characteristics, "compare", "characteristics.compare"),
    ):
        tracer.wrap(owner, attr, name)
    # grid's _fft/_ifft look up fftn/ifftn on scipy.fft at each call
    tracer.wrap(grid.sfft, "fftn", "grid.fftn", count_bytes=True)
    tracer.wrap(grid.sfft, "ifftn", "grid.ifftn", count_bytes=True)


def _duration(span) -> float:
    return span[2] - span[1]


def setup_layers(tracer, root: int) -> dict:
    idx = tracer.subtree(root)
    own = tracer.self_times(idx)
    spans = tracer.spans

    def total(name):
        return sum(_duration(spans[i]) for i in idx if spans[i][0] == name)

    return {
        "koopman.import_s": total("koopman.import"),
        "cli.scenario_s": sum(own[i] for i in idx if spans[i][0] in CLI_SPANS),
        "evolve.build_plan_s": total("evolve.build_plan"),
        "grid.gaussian_init_s": total("grid.gaussian_init"),
        "suites.build_s": total("suites.suite_group"),
    }


def round_layers(tracer, root: int, units: int, info: dict) -> dict:
    idx = tracer.subtree(root)
    own = tracer.self_times(idx)
    spans = tracer.spans

    def of(name):
        return [i for i in idx if spans[i][0] == name]

    def total(indices):
        return sum(_duration(spans[i]) for i in indices)

    steps = of("evolve.step")
    runs = of("evolve.run")
    step_set, run_set = set(steps), set(runs)
    step_ffts = [i for i in idx if spans[i][0] in FFT_SPANS and spans[i][3] in step_set]
    run_steps = [i for i in steps if spans[i][3] in run_set]
    n_steps = len(steps)
    samples = info.get("samples", 0)
    verify = of("ccr.verify_algebra")     # one round of algebra is one pass
    normal = of("ccr.normal_order")
    evaluate = of("exactpoly.CPoly.evaluate")
    flow = of("characteristics.integrate_flow")
    seed_steps = info.get("seed_steps", 0)

    def per(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    return {
        "ccr.verify_ms_per_relation": total(verify) * 1e3 / units,
        "ccr.normal_order_calls_per_pass": len(normal),
        "ccr.normal_order_s_per_pass": total(normal),
        "exactpoly.evaluate_calls_per_unit": len(evaluate) / units,
        "exactpoly.evaluate_s_per_unit": total(evaluate) / units,
        "evolve.step_ms": per(total(steps), n_steps, 1e3),
        "evolve.step_self_ms": per(sum(own[i] for i in steps), n_steps, 1e3),
        "evolve.sample_ms": per(total(runs) - total(run_steps), samples, 1e3),
        "grid.fft_calls_per_step": per(len(step_ffts), n_steps),
        "grid.fft_ms_per_step": per(total(step_ffts), n_steps, 1e3),
        "grid.fft_mb_per_step": per(sum(spans[i][4] for i in step_ffts), n_steps, 1e-6),
        "characteristics.flow_s_per_unit": total(flow) / units,
        "characteristics.flow_ns_per_seed_step": per(total(flow), seed_steps, 1e9),
        "characteristics.reconstruct_s_per_unit":
            sum(own[i] for i in of("characteristics.reference_solution")) / units,
        "characteristics.compare_s_per_unit": total(of("characteristics.compare")) / units,
        "characteristics.valid_fraction": info.get("valid_fraction", 0.0),
        "trace.remainder_s": own[root],
    }
