"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest benchmark/tests -q

They check that every workload reports every named metric, that idle
layers report zero, and that each correctness check turns a wrong answer
into a failed operation.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("algebra", "oracle2d", "hybrid3d")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _child(workload, capsys):
    """One in-process workload process at reduced size, one round."""
    child.main(["--workload", workload, "--seed", "3", "--budget", "0", "--quick"])
    return dict(json.loads(capsys.readouterr().out.strip().splitlines()[-1]), traced=False)


def test_spec_names_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported_and_positive(workload):
    metrics = _result(workload, 0)
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_reported(workload):
    metrics = _result(workload, 1)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    value = {name: m["value"] for name, m in metrics.items()}
    busy = {
        "algebra": ("koopman.import_s", "suites.build_s", "ccr.verify_ms_per_relation",
                    "ccr.normal_order_calls_per_pass", "ccr.normal_order_s_per_pass"),
        "oracle2d": ("koopman.import_s", "cli.scenario_s", "evolve.build_plan_s",
                     "grid.gaussian_init_s", "exactpoly.evaluate_calls_per_unit",
                     "exactpoly.evaluate_s_per_unit", "evolve.step_ms",
                     "evolve.step_self_ms", "evolve.sample_ms", "grid.fft_calls_per_step",
                     "grid.fft_ms_per_step", "grid.fft_mb_per_step",
                     "characteristics.flow_s_per_unit",
                     "characteristics.flow_ns_per_seed_step",
                     "characteristics.reconstruct_s_per_unit",
                     "characteristics.compare_s_per_unit",
                     "characteristics.valid_fraction"),
        "hybrid3d": ("koopman.import_s", "cli.scenario_s", "evolve.build_plan_s",
                     "grid.gaussian_init_s", "evolve.step_ms", "evolve.step_self_ms",
                     "evolve.sample_ms", "grid.fft_calls_per_step",
                     "grid.fft_ms_per_step", "grid.fft_mb_per_step"),
    }[workload]
    idle = {
        "algebra": ("exactpoly.evaluate_calls_per_unit", "evolve.step_ms",
                    "grid.fft_calls_per_step", "characteristics.flow_s_per_unit",
                    "cli.scenario_s"),
        "oracle2d": ("ccr.normal_order_calls_per_pass", "suites.build_s"),
        "hybrid3d": ("ccr.normal_order_calls_per_pass", "suites.build_s",
                     "characteristics.flow_s_per_unit"),
    }[workload]
    for name in busy:
        assert value[name] > 0, name
    for name in idle:
        assert value[name] == 0, name
    for name, v in value.items():
        if name != "trace.overhead_s":      # a difference of two timings
            assert v >= 0, name


def test_no_package_source_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "algebra", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# wrong answers become failed operations
# ---------------------------------------------------------------------------

def _broken_oracle(monkeypatch, exact):
    monkeypatch.setattr(checks, "oracle_check",
                        functools.partial(checks.oracle_check, exact=exact))


def test_oracle_check_rejects_closed_form_without_action_phase(monkeypatch, capsys):
    _broken_oracle(monkeypatch, functools.partial(checks.harmonic_kvh_exact,
                                                  with_action=False))
    rows = _child("oracle2d", capsys)["rounds"]
    assert all(r["failed"] == r["units"] for r in rows)


def test_l2_error_against_shifted_packet_fails(monkeypatch, capsys):
    def shifted(q, p, t, centre):
        return checks.harmonic_kvh_exact(q, p, t, (centre[0] + 0.5, centre[1]))

    _broken_oracle(monkeypatch, shifted)
    rows = _child("oracle2d", capsys)["rounds"]
    assert all(r["failed"] == r["units"] for r in rows)
    assert all(r["l2_error"] > checks.ORACLE_TOL for r in rows)


def test_algebra_check_counts_flipped_verdicts(capsys):
    out = _child("algebra", capsys)
    summary = run.summarise("algebra", [out], False)
    assert summary["failed"] == 0 and summary["correct"]
    check = out["rounds"][0]["check"]
    flip = {checks.EXPECTED_FAILURE, "hybrid_central_charge=i.(m1+m2)"}
    check["verdicts"] = [(rid, not ok if rid in flip else ok)
                         for rid, ok in check["verdicts"]]
    summary = run.summarise("algebra", [out], False)
    assert summary["failed"] == 2 and summary["correct"]


def test_algebra_check_rejects_a_wrong_residual(capsys):
    check = _child("algebra", capsys)["rounds"][0]["check"]
    operators = check["operators"]
    # double every coefficient of the reported residual: -2i kappa lam_p
    operators[checks.EXPECTED_FAILURE] = [
        (word, (symbols, [(e, str(2 * Fraction(re)), str(2 * Fraction(im)))
                          for e, re, im in monomials]))
        for word, (symbols, monomials) in operators[checks.EXPECTED_FAILURE]]
    bad, missing = checks.AlgebraChecker().failures(check["verdicts"], operators)
    assert bad == [checks.EXPECTED_FAILURE] and not missing


def test_algebra_check_reports_missing_central_charges(capsys):
    check = _child("algebra", capsys)["rounds"][0]["check"]
    verdicts = [(rid, ok) for rid, ok in check["verdicts"]
                if not rid.startswith("kvh_central_charge")]
    bad, missing = checks.AlgebraChecker().failures(verdicts, check["operators"])
    assert missing == ["kvh_central_charge"]


def test_hybrid_check_rejects_broken_conservation():
    t, start = 0.1, (1.2, 0.0, -1.2, 0.0)
    exact = checks.hybrid_moments_exact(t, *start)
    p = [0.0, exact[1]]
    good = checks.hybrid_check([1.0, 1.0], p, [0.0, -exact[1]], exact, t, start)
    assert good[0]
    leaky = checks.hybrid_check([1.0, 1.0], p, [0.0, -exact[1] + 1e-4], exact, t, start)
    assert not leaky[0]
    frozen = checks.hybrid_check([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], exact, t, start)
    assert not frozen[0]
